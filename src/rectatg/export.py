"""Rendering and serialization: matrix text, DIMACS, TPTP, JSON records.

Formats are deterministic down to the byte for a fixed input.  DIMACS
numbering is handed in explicitly through an AtomNumbering so callers
control the variable order; rectangles number row i as variable i.

Writers read clause text through ``ClauseSet.texts``; the matrix reads
its column widths through ``Rectangle.column_texts`` and its rows
through ``Rectangle.row_texts``.  For a closed-form rectangle and the
premises cut from it, these render one token per row and polarity and
join texts from those tokens (column texts from two half-tables, rows
by the template's block rule), so emitting builds no Clause object and
calls ``str`` or the token lookup 2n times per pass, not once per cell.

Each format is a private generator of output pieces (``_matrix_lines``,
``_dimacs_lines``, ``_theorem_lines``, ``_tptp_lines``,
``_record_lines``), one line or one premise at a time, and the public
``str`` writers (``render_matrix``, ``export_dimacs``,
``render_theorem``, ``export_tptp``, ``save_record``) join the same
generator.  A caller that writes the pieces as they come, as the CLI
does for large outputs, holds one piece and the half-tables, about
2^(n/2) texts, instead of the n·2^n-cell output.  The matrix, which
needs every column's width before its first row, holds one width
character per column and one row of one-character codes at a time.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import getitem
from typing import Iterable, Iterator

from .errors import (
    CapExceededError,
    MalformedRecordError,
    RectAtgError,
    SchemaMismatchError,
    UnnumberedAtomError,
)
from .logic import (
    Atom,
    ClauseSet,
    Constant,
    Function,
    Literal,
    Pred,
    Prop,
    Term,
    Variable,
    collect_atoms,
)
from .parser import MAX_NESTING, GenerationSet
from .rectangle import Rectangle
from .template import DEFAULT_MAX_LEVEL
from .theoremgen import (
    LiteralConjunction,
    Theorem,
    generate_theorem_with_partition,
)

SCHEMA_VERSION = 1

_TPTP_LOWER_WORD = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

# Cells per piece of a matrix row: rows are 2^n cells long, so the
# matrix is yielded a run of cells at a time.
_MATRIX_RUN = 64


class AtomNumbering:
    """Bijection between atoms and DIMACS variables 1..n."""

    __slots__ = ("atoms", "_index")

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom numbering must not repeat atoms")
        self._index = {atom: i + 1 for i, atom in enumerate(self.atoms)}

    @classmethod
    def from_rectangle(cls, rect: Rectangle) -> "AtomNumbering":
        return cls(lit.atom for lit in rect.generators)

    @classmethod
    def from_clause_set(cls, clause_set: ClauseSet) -> "AtomNumbering":
        return cls(collect_atoms(clause_set))

    def number(self, atom: Atom) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise UnnumberedAtomError(f"atom {atom} has no number") from None

    def atom(self, number: int) -> Atom:
        if not 1 <= number <= len(self.atoms):
            raise UnnumberedAtomError(f"no atom numbered {number}")
        return self.atoms[number - 1]

    def __len__(self) -> int:
        return len(self.atoms)


def _matrix_lines(rect: Rectangle) -> Iterator[str]:
    """The aligned literal grid, one row per line, negation rendered as ¬.

    Cells are padded to their column's width and joined with two spaces,
    so columns stay readable even when first-order cells contain single
    spaces of their own.  A row of 2^n cells is yielded in pieces of
    ``_MATRIX_RUN`` cells; the last piece of a row ends with a newline.

    Each distinct literal gets a one-character code and is rendered
    once.  Column widths come first, one character ``chr(width)`` per
    column: ``Rectangle.column_texts`` with each code's text length as
    the token yields a column's n lengths, and the width is the largest.
    Then ``Rectangle.row_texts`` lays out one row of codes at a time,
    and each run of codes is padded by the run of widths under it.
    """
    codes: dict[Literal, str] = {}
    text_of: dict[str, str] = {}

    def code(lit: Literal) -> str:
        found = codes.get(lit)
        if found is None:
            found = codes[lit] = chr(len(codes))
            text_of[found] = str(lit)
        return found

    width = rect.width
    lengths = rect.column_texts(lambda lit: chr(len(text_of[code(lit)])), "")
    starts = range(0, width, _MATRIX_RUN)
    # One string of widths per run of columns: one string of all 2^n
    # would be joined from a list of 2^n pointers, 8 MiB at n=20.
    runs = ["".join(map(max, islice(lengths, _MATRIX_RUN))) for _ in starts]
    padded = {
        c: {w: text.ljust(ord(w)) + "  " for w in set().union(*runs)}
        for c, text in text_of.items()
    }
    for row in rect.row_texts(code):
        for start, run in zip(starts, runs):
            end = start + _MATRIX_RUN
            piece = "".join(map(getitem, map(padded.__getitem__, row[start:end]), run))
            # The last piece of a row drops the trailing blanks.
            yield piece if end < width else piece.rstrip() + "\n"


def render_matrix(rect: Rectangle) -> str:
    """``_matrix_lines`` as one string, without the final newline."""
    return "".join(_matrix_lines(rect))[:-1]


def _dimacs_lines(clause_set: ClauseSet, numbering: AtomNumbering) -> Iterator[str]:
    """DIMACS CNF lines: header line, then one zero-terminated line per clause.

    Propositional sets are emitted bare.  If any atom is a predicate, a
    comment block up front maps each variable number to its atom text.
    """
    if any(isinstance(atom, Pred) for atom in numbering.atoms):
        for i, atom in enumerate(numbering.atoms, start=1):
            yield f"c {i} {atom}\n"
    yield f"p cnf {len(numbering)} {len(clause_set)}\n"

    def token(lit: Literal) -> str:
        number = numbering.number(lit.atom)
        return f"-{number}" if lit.negated else str(number)

    for text in clause_set.texts(token, " "):
        yield f"{text} 0\n" if text else "0\n"


def export_dimacs(clause_set: ClauseSet, numbering: AtomNumbering) -> str:
    """``_dimacs_lines`` as one string."""
    return "".join(_dimacs_lines(clause_set, numbering))


def _tptp_name(name: str) -> str:
    # TPTP reads a leading-uppercase word as a variable, so anything
    # else gets single quotes.
    return name if _TPTP_LOWER_WORD.match(name) else f"'{name}'"


def _tptp_term(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name[0].upper() + term.name[1:]
    if isinstance(term, Constant):
        return _tptp_name(term.name)
    return f"{_tptp_name(term.name)}({','.join(_tptp_term(a) for a in term.args)})"


def _tptp_atom(atom: Atom) -> str:
    if isinstance(atom, Prop):
        return _tptp_name(atom.name)
    if atom.predicate == "=":
        return f"{_tptp_term(atom.args[0])} = {_tptp_term(atom.args[1])}"
    if not atom.args:
        return _tptp_name(atom.predicate)
    return f"{_tptp_name(atom.predicate)}({','.join(_tptp_term(a) for a in atom.args)})"


def _tptp_literal(lit: Literal) -> str:
    rendered = _tptp_atom(lit.atom)
    return f"~{rendered}" if lit.negated else rendered


def _tptp_clause_text(text: str) -> str:
    # Literal text never holds "|", so the separator shows up exactly
    # when the clause has two or more literals.  Those clauses, and the
    # empty one, get parentheses.
    return text if text and "|" not in text else f"({text})"


def _tptp_clause(clause) -> str:
    return _tptp_clause_text(" | ".join(map(_tptp_literal, clause.literals)))


def _collect_variables(term: Term, seen: dict[str, None]) -> None:
    if isinstance(term, Variable):
        seen.setdefault(term.name, None)
    elif isinstance(term, Function):
        for arg in term.args:
            _collect_variables(arg, seen)


def _conjecture_formula(theorem: Theorem) -> str:
    conclusion = theorem.conclusion
    if isinstance(conclusion, LiteralConjunction):
        parts = [_tptp_literal(l) for l in conclusion.literals]
        body = parts[0] if len(parts) == 1 else f"({' & '.join(parts)})"
        literals = conclusion.literals
    else:
        parts = [_tptp_clause(c) for c in conclusion.clauses]
        body = f"~({' & '.join(parts)})"
        literals = tuple(l for c in conclusion.clauses for l in c.literals)
    seen: dict[str, None] = {}
    for lit in literals:
        if isinstance(lit.atom, Pred):
            for arg in lit.atom.args:
                _collect_variables(arg, seen)
    if seen:
        bound = ", ".join(name[0].upper() + name[1:] for name in seen)
        return f"! [{bound}] : {body if body.startswith('(') else f'({body})'}"
    return body


def _tptp_lines(theorem: Theorem) -> Iterator[str]:
    """TPTP problem lines: premises as cnf axioms, conclusion as fof conjecture.

    Axiom names run premise_0001 upward.  Clause variables stay free
    (cnf reads them as universally quantified); the fof conjecture is
    closed with an explicit universal block when variables occur.
    """
    premises = theorem.premises
    width = max(4, len(str(len(premises))))
    for i, text in enumerate(premises.texts(_tptp_literal, " | "), start=1):
        yield f"cnf(premise_{i:0{width}d}, axiom, {_tptp_clause_text(text)}).\n"
    yield f"fof(conclusion, conjecture, {_conjecture_formula(theorem)}).\n"


def export_tptp(theorem: Theorem) -> str:
    """``_tptp_lines`` as one string."""
    return "".join(_tptp_lines(theorem))


def _clause_texts(clause_set: ClauseSet) -> Iterator[str]:
    """``str`` of each clause, the empty clause included, without building
    the clauses of a rectangle view."""
    return (text or "□" for text in clause_set.texts(str, " ∨ "))


def _theorem_lines(theorem: Theorem) -> Iterator[str]:
    """Plain text lines: one premise per line, then the turnstile line."""
    for text in _clause_texts(theorem.premises):
        yield text + "\n"
    yield f"⊢ {theorem.conclusion}\n"


def render_theorem(theorem: Theorem) -> str:
    """``_theorem_lines`` as one string."""
    return "".join(_theorem_lines(theorem))


def _term_to_json(term: Term):
    if isinstance(term, Constant):
        return {"kind": "const", "name": term.name}
    if isinstance(term, Variable):
        return {"kind": "var", "name": term.name}
    return {
        "kind": "func",
        "name": term.name,
        "args": [_term_to_json(a) for a in term.args],
    }


def _term_from_json(data, depth: int) -> Term:
    # depth is the parenthesis nesting the term sits at, bounded as in
    # the parser.
    kind = data["kind"]
    if kind == "const":
        return Constant(data["name"])
    if kind == "var":
        return Variable(data["name"])
    if kind == "func":
        if depth >= MAX_NESTING:
            raise ValueError(f"terms nest more than {MAX_NESTING} parentheses deep")
        return Function(
            data["name"], tuple(_term_from_json(a, depth + 1) for a in data["args"])
        )
    raise ValueError(f"unknown term kind {kind!r}")


def _literal_to_json(lit: Literal):
    atom = lit.atom
    if isinstance(atom, Prop):
        atom_data = {"kind": "prop", "name": atom.name}
    else:
        atom_data = {
            "kind": "pred",
            "symbol": atom.predicate,
            "args": [_term_to_json(a) for a in atom.args],
        }
    return {"negated": lit.negated, "atom": atom_data}


def _literal_from_json(data) -> Literal:
    atom_data = data["atom"]
    kind = atom_data["kind"]
    if kind == "prop":
        atom: Atom = Prop(atom_data["name"])
    elif kind == "pred":
        atom = Pred(
            atom_data["symbol"],
            tuple(_term_from_json(a, 1) for a in atom_data["args"]),
        )
    else:
        raise ValueError(f"unknown atom kind {kind!r}")
    negated = data["negated"]
    if not isinstance(negated, bool):
        raise ValueError("negated must be a boolean")
    return Literal(atom, negated)


def _record_lines(theorem: Theorem) -> Iterator[str]:
    """Versioned JSON form of a theorem, one premise per piece.

    Generators are stored structurally (so variable/constant identity
    survives without a parser flag); premises and conclusion are stored
    as display text for the reader and re-derived on load.  The pieces
    join to ``json.dumps(record, ensure_ascii=False, indent=2)`` plus a
    newline.
    """
    # Only the record paths import json, so other commands start sooner.
    import json
    from json.encoder import encode_basestring

    head = {
        "version": SCHEMA_VERSION,
        "generators": [_literal_to_json(l) for l in theorem.provenance.generators],
        "removed_indices": list(theorem.provenance.removed_indices),
    }
    # Reopen the dumped head after its last field: drop the closing "\n}".
    yield json.dumps(head, ensure_ascii=False, indent=2)[:-2] + ",\n"
    premises = _clause_texts(theorem.premises)
    first = next(premises, None)
    if first is None:
        yield '  "premises": [],\n'
    else:
        yield f'  "premises": [\n    {encode_basestring(first)}'
        for text in premises:
            yield f",\n    {encode_basestring(text)}"
        yield "\n  ],\n"
    yield f'  "conclusion": {encode_basestring(str(theorem.conclusion))}\n}}\n'


def save_record(theorem: Theorem) -> str:
    """``_record_lines`` as one string."""
    return "".join(_record_lines(theorem))


def read_record(text: str) -> dict:
    """Parse a record's JSON and check its shape without rebuilding it.

    Returns the decoded object: a current-version record with every
    field present, ``generators`` a list and ``removed_indices`` a list
    of integers.  Callers can bound the work a rebuild will take from
    ``len(record["generators"])`` before calling ``rebuild_record``.
    """
    import json  # only the record paths import json; see _record_lines

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"record is not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedRecordError("record nests too deeply to decode") from None
    except ValueError:
        # CPython refuses to convert integers of more than 4300 digits.
        raise MalformedRecordError("record holds a number too long to decode") from None
    if not isinstance(data, dict):
        raise MalformedRecordError("record must be a JSON object")
    version = data.get("version")
    # 1.0 and true both equal 1, so test the exact type.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"record version {version!r} is not supported (expected {SCHEMA_VERSION})"
        )
    for key in ("generators", "removed_indices", "premises", "conclusion"):
        if key not in data:
            raise MalformedRecordError(f"record is missing the {key!r} field")
    if not isinstance(data["generators"], list):
        raise MalformedRecordError("generators must be a JSON list")
    indices = data["removed_indices"]
    # bool is an int subclass, so test the exact type.
    if not isinstance(indices, list) or any(type(i) is not int for i in indices):
        raise MalformedRecordError("removed_indices must be a JSON list of integers")
    return data


def rebuild_record(data: dict, max_level: int = DEFAULT_MAX_LEVEL) -> Theorem:
    """Revalidate a record from ``read_record`` by rebuilding it from provenance.

    The generators and removed indices are replayed through theorem
    generation; if the stored premises or conclusion disagree with the
    reconstruction, the record is rejected as malformed.  Only cap
    violations escape as themselves.
    """
    try:
        literals = [_literal_from_json(item) for item in data["generators"]]
        generators = GenerationSet(tuple(literals))
        theorem = generate_theorem_with_partition(
            generators, data["removed_indices"], max_level
        )
    except CapExceededError:
        raise
    except (RectAtgError, ValueError, TypeError, KeyError, RecursionError) as exc:
        raise MalformedRecordError(f"provenance does not rebuild: {exc}") from exc
    premises = list(_clause_texts(theorem.premises))
    if data["premises"] != premises or data["conclusion"] != str(theorem.conclusion):
        raise MalformedRecordError(
            "stored premises or conclusion disagree with reconstruction from provenance"
        )
    return theorem


def load_record(text: str, max_level: int = DEFAULT_MAX_LEVEL) -> Theorem:
    """Parse a record and revalidate it by rebuilding from provenance."""
    return rebuild_record(read_record(text), max_level)
