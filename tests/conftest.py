"""Shared fixtures and independent oracle helpers.

The oracles here deliberately re-derive results through different
algorithms than the package uses: full product enumeration instead of
pruned search, a linear truth-table sweep and direct dictionary
evaluation instead of the falsified-subcube cover, block arithmetic
instead of bit tests, and level-by-level doubling instead of the block
rule.  Tests lean on them to cross check derived
values.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import random

from rectatg import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_LEVEL,
    Clause,
    ClauseSet,
    Constant,
    Function,
    GenerationSet,
    Literal,
    Pred,
    Prop,
    SatResult,
    SizeCapError,
    TooManyAtomsError,
    Variable,
    complementary,
    collect_atoms,
    generate_theorem_with_partition,
    negate_literal,
    parse_literal,
)
from rectatg.cli import DEFAULT_CLI_MAX_ATOMS, _indices
from rectatg.export import _conjecture_formula, _literal_to_json, _tptp_literal

# GenerationSet checks its own invariants; tests keep the older name.
validate_generation_set = GenerationSet


def lit(name: str, negated: bool = False) -> Literal:
    return Literal(Prop(name), negated)


def replace(value, **changes):
    """A new value of the same class with the named fields changed."""
    fields = {name: getattr(value, name) for name in type(value).__match_args__}
    return type(value)(**{**fields, **changes})


def clause(*texts: str) -> Clause:
    return Clause(parse_literal(t) for t in texts)


def clause_set(*clauses_: Clause) -> ClauseSet:
    return ClauseSet(clauses_)


def sc_oracle_naive(clauses) -> bool:
    """Standard-contradiction check by enumerating every selection tuple."""
    rows = [c.literals for c in clauses]
    if any(len(r) == 0 for r in rows):
        return True
    for combo in itertools.product(*rows):
        if not any(
            complementary(a, b) for a, b in itertools.combinations(combo, 2)
        ):
            return False
    return True


def sat_oracle_direct(clauses):
    """Truth-table search with plain dict evaluation.

    Returns a satisfying assignment dict, or None.  Assignments are
    tried with the first-appearing atom toggling slowest, which differs
    from the package's sweep order on purpose; only the verdict is
    compared against it.
    """
    atoms = collect_atoms(clauses)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        ok = True
        for c in clauses:
            if not any(env[l.atom] != l.negated for l in c.literals):
                ok = False
                break
        if ok:
            return env
    return None


def sat_oracle_sweep(clause_set, max_atoms=DEFAULT_MAX_ATOMS) -> SatResult:
    """Linear truth-table sweep, the package's former ``is_satisfiable``.

    Atoms are numbered by first appearance; assignment m maps atom i to
    bit i of m.  Assignments are tried in increasing m against every
    clause mask, and the first satisfying one is the witness.  The
    package's cover must return the same verdict and the same witness,
    key order included.
    """
    atoms = collect_atoms(clause_set)
    k = len(atoms)
    if k > max_atoms:
        raise TooManyAtomsError(k, max_atoms)
    index = {atom: i for i, atom in enumerate(atoms)}
    masks = []
    for clause in clause_set:
        pos = neg = 0
        for lit in clause:
            bit = 1 << index[lit.atom]
            if lit.negated:
                neg |= bit
            else:
                pos |= bit
        masks.append((pos, neg))
    full = (1 << k) - 1
    for m in range(1 << k):
        inv = m ^ full
        for pos, neg in masks:
            if not (m & pos) and not (inv & neg):
                break
        else:
            witness = {atoms[i]: bool((m >> i) & 1) for i in range(k)}
            return SatResult(True, witness)
    return SatResult(False, None)


def evaluates_true(env, clauses) -> bool:
    """Independent re-check that env satisfies every clause.

    env must cover every atom that occurs.
    """
    return all(
        any(env[l.atom] != l.negated for l in c.literals) for c in clauses
    )


# The same check under the name the witness re-checks use.
satisfies = evaluates_true


def implication_is_tautology(premises, hypothesis, max_atoms=DEFAULT_MAX_ATOMS) -> bool:
    """Sweep every assignment and evaluate (all premises) -> not (all hypothesis).

    The direct truth-table reading of the implication formula, independent
    of the refutation route in ``entails``.
    """
    atoms = collect_atoms(itertools.chain(premises, hypothesis))
    if len(atoms) > max_atoms:
        raise TooManyAtomsError(len(atoms), max_atoms)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        if evaluates_true(env, premises) and evaluates_true(env, hypothesis):
            return False
    return True


def check_mutual_equivalence(
    generators, partitions, max_level=DEFAULT_MAX_LEVEL, max_atoms=DEFAULT_MAX_ATOMS
) -> bool:
    """All theorems cut from one rectangle say the same thing.

    Each partition's implication (premise conjunction) -> negated
    hypothesis conjunction must be a tautology under the assignment
    sweep; every one paraphrases the same contradiction, so confirming
    each confirms pairwise equivalence.
    """
    for partition in partitions:
        theorem = generate_theorem_with_partition(generators, partition, max_level)
        if not implication_is_tautology(
            theorem.premises, theorem.hypothesis_clauses, max_atoms
        ):
            return False
    return True


def construct_naive(generators, max_level=DEFAULT_MAX_LEVEL):
    """The rectangle's rows, built level by level.

    Level 1 is the single row (l1, ~l1).  Each further level lays two
    copies of the previous grid side by side and appends a new bottom
    row: 2**(i-1) copies of the next generator, then as many of its
    complement.  Rows are tuples, which the row views of
    ``Rectangle.rows`` equal cell for cell.
    """
    n = generators.n
    if n > max_level:
        raise SizeCapError(n, max_level)
    lits = list(generators)
    rows = [[lits[0], negate_literal(lits[0])]]
    for i in range(1, n):
        rows = [row + row for row in rows]
        half = 1 << i
        rows.append([lits[i]] * half + [negate_literal(lits[i])] * half)
    return tuple(map(tuple, rows))


def grid_clauses(rows):
    """The clauses of a grid: column j read top to bottom."""
    return tuple(map(Clause, zip(*rows)))


def first_difference(got: str, want: str):
    """None when the texts are equal, else where they part and what
    follows there: a failure report that stays short for megabyte texts,
    which pytest's own diff would take minutes over."""
    if got == want:
        return None
    at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return at, got[at : at + 40], want[at : at + 40]


def matrix_reference(rows) -> str:
    """The matrix text of a grid, cell by cell: each cell padded to its
    column's widest cell, joined by two spaces, right-stripped."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def record_reference(theorem) -> str:
    """A theorem record dumped whole by ``json.dumps``: the text the
    streamed record must match byte for byte."""
    record = {
        "version": 1,
        "generators": [_literal_to_json(l) for l in theorem.provenance.generators],
        "removed_indices": list(theorem.provenance.removed_indices),
        "premises": [str(c) for c in theorem.premises],
        "conclusion": str(theorem.conclusion),
    }
    return json.dumps(record, ensure_ascii=False, indent=2) + "\n"


def record_decode_reference(data: bytes, from_file: bool = True):
    """What reading a record with ``json.loads`` gives: ``("ok", value)``,
    or the error's class name and message as ``read_record`` and the CLI
    reported them.  A file is read as ``open(path, encoding="utf-8")``
    reads it; otherwise ``data`` is the text's UTF-8 ("surrogatepass")."""
    if from_file:
        try:
            text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        except UnicodeDecodeError as exc:
            return "ValueError", str(exc)
    else:
        text = data.decode("utf-8", "surrogatepass")
    try:
        return "ok", json.loads(text)
    except json.JSONDecodeError as exc:
        return "MalformedRecordError", f"record is not valid JSON: {exc}"
    except RecursionError:
        return "MalformedRecordError", "record nests too deeply to decode"
    except ValueError:
        return "MalformedRecordError", "record holds a number too long to decode"


def theorem_reference(theorem) -> str:
    """A theorem's plain text clause by clause: ``str`` of each premise
    (□ for the empty clause) on its own line, then the turnstile line."""
    return "".join(f"{c}\n" for c in theorem.premises) + f"⊢ {theorem.conclusion}\n"


def dimacs_reference(clauses, atoms) -> str:
    """DIMACS clause by clause: atom comments when any atom is a
    predicate, the header, then each clause's signed numbers and 0."""
    number = {atom: i for i, atom in enumerate(atoms, start=1)}
    lines = [f"c {i} {atom}" for atom, i in number.items()] if any(
        isinstance(atom, Pred) for atom in atoms) else []
    lines.append(f"p cnf {len(atoms)} {len(clauses)}")
    for c in clauses:
        lines.append(" ".join([f"{'-' if l.negated else ''}{number[l.atom]}" for l in c] + ["0"]))
    return "".join(line + "\n" for line in lines)


def tptp_reference(theorem) -> str:
    """TPTP clause by clause: one numbered cnf axiom per premise, in
    parentheses unless it has exactly one literal, then the conjecture."""
    premises = tuple(theorem.premises)
    digits = max(4, len(str(len(premises))))
    lines = []
    for k, c in enumerate(premises, start=1):
        parts = [_tptp_literal(l) for l in c.literals]
        body = parts[0] if len(parts) == 1 else f"({' | '.join(parts)})"
        lines.append(f"cnf(premise_{k:0{digits}d}, axiom, {body}).")
    lines.append(f"fof(conclusion, conjecture, {_conjecture_formula(theorem)}).")
    return "".join(line + "\n" for line in lines)


def unchecked_prop(name: str) -> Prop:
    """A propositional atom with any name.  The parser and Prop only
    admit ASCII word characters; this reaches the JSON escaping of names
    a future syntax might allow."""
    atom = object.__new__(Prop)
    object.__setattr__(atom, "name", name)
    return atom


def polarity_oracle_positive(row: int, column: int) -> bool:
    """Block formulation: row i alternates blocks of width 2**(i-1),
    positive block first."""
    return (column // (1 << (row - 1))) % 2 == 0


def random_term(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        return Constant(rng.choice("abc"))
    if roll < 0.65:
        return Variable(rng.choice(("X", "Y")))
    arity = rng.randint(1, 2)
    return Function(
        rng.choice("fgh"), tuple(random_term(rng, depth + 1) for _ in range(arity))
    )


def random_generation_set(rng: random.Random, max_n: int = 10, first_order: bool = True):
    n = rng.randint(1, max_n)
    literals = []
    for i in range(1, n + 1):
        negated = rng.random() < 0.5
        if first_order and rng.random() < 0.5:
            arity = rng.randint(1, 2)
            atom = Pred(f"P{i}", tuple(random_term(rng) for _ in range(arity)))
        else:
            atom = Prop(f"q{i}")
        literals.append(Literal(atom, negated))
    return validate_generation_set(literals)


def random_clause_set(rng: random.Random, max_atoms: int = 4, max_clauses: int = 5):
    atoms = [Prop(name) for name in ("p", "q", "r", "s")[:max_atoms]]
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, 3)
        clauses.append(
            Clause(
                Literal(rng.choice(atoms), rng.random() < 0.5) for _ in range(width)
            )
        )
    return ClauseSet(clauses)


# The command line as argparse declared it before the CLI read its
# options from tables: the reference the option reader must agree with.
def _add_input_options(sub: argparse.ArgumentParser, with_record: bool = False) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-l", "--literals", help="generation literals as inline text")
    group.add_argument("-f", "--file", help="file containing the generation literals")
    if with_record:
        group.add_argument("--record", help="JSON theorem record to load")
    sub.add_argument(
        "--var-style",
        choices=("upper", "lower"),
        default="upper",
        help="how bare identifiers inside terms are read: 'upper' treats a "
        "leading uppercase letter as a variable, 'lower' treats u..z as variables",
    )
    sub.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="materialization cap on the number of generation literals "
        f"(default {DEFAULT_MAX_LEVEL}, or the RECT_ATG_MAX_N environment variable)",
    )


def argparse_reference() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectatg",
        description="Construct rectangular standard contradictions and "
        "derive machine-checked theorems from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="derive a theorem from a generation set")
    _add_input_options(gen)
    gen.add_argument(
        "-H",
        "--hypothesis",
        type=_indices,
        default=None,
        help="comma-separated clause column indices to move to the hypothesis "
        "side (default: 0, the generation clause)",
    )
    gen.add_argument(
        "-o",
        "--output",
        choices=("text", "tptp", "json"),
        default="text",
        help="output format (default text: premises, then the turnstile line)",
    )
    gen.add_argument(
        "--verify",
        action="store_true",
        help="decide the entailment with the falsified-cube cover oracle "
        "before printing",
    )
    gen.add_argument(
        "--max-atoms",
        type=int,
        default=DEFAULT_CLI_MAX_ATOMS,
        help=f"enumeration bound used by --verify (default {DEFAULT_CLI_MAX_ATOMS})",
    )

    rect = sub.add_parser("rectangle", help="print the rectangle itself")
    _add_input_options(rect)
    rect.add_argument(
        "-o",
        "--output",
        choices=("matrix", "dimacs"),
        default="matrix",
        help="output format (default matrix)",
    )

    chk = sub.add_parser(
        "check", help="run the contradiction and minimality checks"
    )
    _add_input_options(chk, with_record=True)
    chk.add_argument(
        "--max-atoms",
        type=int,
        default=DEFAULT_CLI_MAX_ATOMS,
        help="atom bound for the satisfiability oracle, which allocates 2^k "
        f"bytes for k atoms (default {DEFAULT_CLI_MAX_ATOMS})",
    )

    return parser
