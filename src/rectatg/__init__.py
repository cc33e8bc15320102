"""Rectangular standard contradictions and theorem generation.

Build the maximal contradiction over a set of generation literals, slice
it into logically valid theorems, and machine-check every structural
claim with bounded brute-force oracles.

    >>> from rectatg import generate_theorem, parse_generation_set
    >>> t = generate_theorem(parse_generation_set("p, q"))
    >>> str(t.conclusion)
    '¬p ∧ ¬q'
"""

from .errors import (
    CapExceededError,
    DuplicatePredicateError,
    EmptyClauseError,
    EmptyHypothesisError,
    EmptySetError,
    IndexOutOfRangeError,
    InvalidLevelError,
    MalformedRecordError,
    ParseError,
    ProductTooLargeError,
    RectAtgError,
    SchemaMismatchError,
    SizeCapError,
    TooManyAtomsError,
    UnnumberedAtomError,
)
from .logic import (
    Atom,
    Clause,
    ClauseSet,
    Constant,
    EMPTY_CLAUSE,
    Function,
    Literal,
    Pred,
    Prop,
    Term,
    Variable,
    collect_atoms,
    complementary,
    negate_clause,
    negate_literal,
)
from .parser import (
    GenerationSet,
    parse_generation_set,
    parse_literal,
)
from .template import (
    DEFAULT_MAX_LEVEL,
    Marker,
    PolarityTemplate,
    make_template,
    polarity_at,
    render_template,
)
from .rectangle import (
    Rectangle,
    construct_from_template,
    remove_clauses,
)
from .semantics import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_PRODUCT,
    Assignment,
    MinimalityReport,
    Removals,
    SatResult,
    check_minimality,
    entails,
    is_satisfiable,
    is_standard_contradiction,
)
from .theoremgen import (
    Conclusion,
    LiteralConjunction,
    NegatedConjunction,
    Provenance,
    Theorem,
    generate_theorem,
    generate_theorem_with_partition,
    hypothesis_from_conclusion,
    verify_theorem,
)
from .export import (
    AtomNumbering,
    export_dimacs,
    export_tptp,
    load_record,
    render_matrix,
    render_theorem,
    save_record,
)

__version__ = "0.1.0"
