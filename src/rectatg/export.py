"""Rendering and serialization: matrix text, DIMACS, TPTP, JSON records.

Formats are deterministic down to the byte for a fixed input.  DIMACS
numbering is handed in explicitly through an AtomNumbering so callers
control the variable order; rectangles number row i as variable i.

Writers read clause text through ``ClauseSet.blocks`` and the matrix
reads a rectangle's cells through ``Rectangle.column_blocks``.  For a
rectangle and the premises cut from it, these render one token per row
and polarity and yield one block per pattern of the high half of the
rows: the shared list of low-half texts and the block's high-half text.
A writer turns each block into one output piece with a single join, so
emitting builds no Clause object, calls ``str`` or the token lookup 2n
times, and takes O(2^(n/2)) Python steps, not one per line or cell.
Plain clause sets come one clause at a time.  ``blocks`` also renders
the empty clause: the text and record writers and the record check
pass ``BOX_TEXT``, in UTF-8 for the writers, as its ``box``, so it
reads ``□`` there as in ``Clause.__str__``; DIMACS passes none, so its
empty clause is the line ``0``.

Each format is a private generator of output pieces (``_matrix_lines``,
``_dimacs_lines``, ``_theorem_lines``, ``_tptp_lines``,
``_record_lines``).  The pieces are UTF-8 ``bytes``: each token is
encoded once, when it is rendered for its row and polarity, so the
n·2^n-cell output is never encoded, or held, as ``str``.  ¬, ∨ and ⊢
would make every ``str`` piece a two-byte-per-character string, which
costs more to encode than the writers take to build it.  The public
``str`` writers (``render_matrix``, ``export_dimacs``,
``render_theorem``, ``export_tptp``, ``save_record``) join and decode
the same generator.  A caller that writes the pieces as they come, as
the CLI does for large outputs, holds one block and the half-tables,
about 2^(n/2) texts, instead of the whole output.
"""

from __future__ import annotations

import re
import sys
from itertools import islice, repeat
from operator import add
from typing import Iterable, Iterator

from .errors import (
    CapExceededError,
    MalformedRecordError,
    RectAtgError,
    SchemaMismatchError,
    UnnumberedAtomError,
)
from .logic import (
    BOX_TEXT,
    OR_TEXT,
    Atom,
    ClauseSet,
    Constant,
    Function,
    Literal,
    Pred,
    Prop,
    Term,
    Variable,
    _set,
    _Value,
    collect_atoms,
)
from .parser import MAX_NESTING, GenerationSet
from .rectangle import ColumnSet, Rectangle
from .template import DEFAULT_MAX_LEVEL
from .theoremgen import (
    LiteralConjunction,
    Theorem,
    generate_theorem_with_partition,
    hypothesis_from_conclusion,
)

SCHEMA_VERSION = 1

_TPTP_LOWER_WORD = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

# Clause.__str__'s separator and empty clause in the UTF-8 the writers yield.
_OR_UTF8, _BOX_UTF8 = OR_TEXT.encode(), BOX_TEXT.encode()


class AtomNumbering(_Value):
    """Bijection between atoms and DIMACS variables 1..n."""

    __slots__ = ("atoms", "_index")

    def __init__(self, atoms: Iterable[Atom]):
        _set(self, "atoms", tuple(atoms))
        _set(self, "_index", {atom: i + 1 for i, atom in enumerate(self.atoms)})
        if len(self._index) != len(self.atoms):
            raise ValueError("atom numbering must not repeat atoms")

    @classmethod
    def from_rectangle(cls, rect: Rectangle) -> "AtomNumbering":
        return cls(lit.atom for lit in rect.generators)

    @classmethod
    def from_clause_set(cls, clause_set: ClauseSet) -> "AtomNumbering":
        """The atoms in first-appearance order.  A rectangle view reads them
        from its masks, which build no Clause; a plain set is scanned once."""
        view = isinstance(clause_set, ColumnSet)
        return cls(clause_set.masks(sys.maxsize)[0] if view else collect_atoms(clause_set))

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


def _matrix_lines(rect: Rectangle) -> Iterator[bytes]:
    """The aligned literal grid, one row per line, negation rendered as ¬.

    Cells are padded to their column's width and joined with two spaces,
    so columns stay readable even when first-order cells contain single
    spaces of their own.

    Each row is yielded one segment of 2^⌊n/2⌋ cells per block of
    ``Rectangle.column_blocks``; the last segment of a row ends with a
    newline.  A column is as wide as the wider of its low-half and
    high-half cells, so the half-tables give every width without a pass
    over the 2^n columns.  Under one block, a low row's segment depends
    only on the block's high-half width, and a high row's on that width
    and the row's cell in the block, so each row builds and encodes
    each distinct segment once and repeats it.  Widths count
    characters, so cells are padded as ``str``.
    """
    # Cells as one-text tuples: each block is the shared tuples of the
    # low-half cells and the tuple of the block's high-half cells.
    blocks = list(rect.column_blocks(lambda lit: (str(lit),), ()))
    lows = blocks[0][0]
    h = len(lows[0])
    low_widths = [max(map(len, low), default=0) for low in lows]
    blocks = [(max(map(len, tail)), tail) for _, tail in blocks]
    for i in range(rect.n):
        segments: dict[tuple[int, str | None], bytes] = {}
        row = []
        for width, tail in blocks:
            high = tail[i - h] if i >= h else None
            piece = segments.get((width, high))
            if piece is None:
                cells = (low[i] for low in lows) if high is None else repeat(high)
                piece = segments[width, high] = "".join(
                    cell.ljust(max(w, width)) + "  " for cell, w in zip(cells, low_widths)
                ).encode()
            row.append(piece)
        # Every cell has text, so stripping the last segment strips
        # only the row's trailing padding.
        row[-1] = row[-1].rstrip() + b"\n"
        yield from row


def render_matrix(rect: Rectangle) -> str:
    """``_matrix_lines`` as one string, without the final newline."""
    return b"".join(_matrix_lines(rect))[:-1].decode()


def _dimacs_lines(clause_set: ClauseSet, numbering: AtomNumbering) -> Iterator[bytes]:
    """DIMACS CNF lines: header line, then one zero-terminated line per clause.

    Propositional sets are emitted bare.  If any atom is a predicate, a
    comment block up front maps each variable number to its atom text.
    """
    if any(isinstance(atom, Pred) for atom in numbering.atoms):
        for i, atom in enumerate(numbering.atoms, start=1):
            yield f"c {i} {atom}\n".encode()
    yield f"p cnf {len(numbering)} {len(clause_set)}\n".encode()

    def token(lit: Literal) -> bytes:
        # Each literal brings its own blank, so the empty clause is "0".
        number = numbering.number(lit.atom)
        return b"-%d " % number if lit.negated else b"%d " % number

    for texts, tail in clause_set.blocks(token, b""):
        end = tail + b"0\n"
        yield end.join(texts) + end


def export_dimacs(clause_set: ClauseSet, numbering: AtomNumbering) -> str:
    """``_dimacs_lines`` as one string."""
    return b"".join(_dimacs_lines(clause_set, numbering)).decode()


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


def _collect_variables(term: Term, seen: dict[str, None]) -> None:
    if isinstance(term, Variable):
        seen.setdefault(term.name, None)
    elif isinstance(term, Function):
        for arg in term.args:
            _collect_variables(arg, seen)


def _conjecture_formula(theorem: Theorem) -> str:
    """The conjecture's formula.  A negated conjunction's clauses are
    rendered through ``ClauseSet.blocks``, as the premises are, and the
    variables are collected from the atoms of what the conclusion
    negates, in first-appearance order, so a hypothesis view builds no
    Clause for either."""
    conclusion = theorem.conclusion
    hypothesis = hypothesis_from_conclusion(conclusion)
    if isinstance(conclusion, LiteralConjunction):
        parts = [_tptp_literal(l) for l in conclusion.literals]
        body = parts[0] if len(parts) == 1 else f"({' & '.join(parts)})"
    else:
        blocks = hypothesis.blocks(_tptp_literal, " | ")
        parts = [_tptp_clause_text(text + tail) for texts, tail in blocks for text in texts]
        body = f"~({' & '.join(parts)})"
    seen: dict[str, None] = {}
    # The masks give the atoms; their pairs are never read.
    for atom in hypothesis.masks(sys.maxsize)[0]:
        if isinstance(atom, Pred):
            for arg in atom.args:
                _collect_variables(arg, seen)
    if seen:
        bound = ", ".join(name[0].upper() + name[1:] for name in seen)
        return f"! [{bound}] : {body if body.startswith('(') else f'({body})'}"
    return body


def _tptp_lines(theorem: Theorem) -> Iterator[bytes]:
    """TPTP problem lines: premises as cnf axioms, conclusion as fof conjecture.

    Axiom names run premise_0001 upward, zero-padded to the digits of
    the premise count.  Clause variables stay free (cnf reads them as
    universally quantified); the fof conjecture is closed with an
    explicit universal block when variables occur.

    A block's lines are laid out in one list, a slice per field, and
    joined once.  A name is split into its last three digits, taken
    from a table of 1000, and the digits above them, which stay the same
    for runs of 1000 names, so no number is formatted per premise.
    """
    premises = theorem.premises
    width = max(4, len(str(len(premises))))
    low_digits = [b"%03d" % k for k in range(1000)]
    number = 1
    for texts, tail in premises.blocks(lambda lit: _tptp_literal(lit).encode(), b" | "):
        # The clauses of a block have equally many literals, so the
        # first one decides the parentheses for all.
        first = (texts[0] + tail).decode()
        close = b"" if _tptp_clause_text(first) == first else b")"
        count = len(texts)
        heads: list[bytes] = []
        lows: list[bytes] = []
        k, stop = number, number + count
        while k < stop:
            high, low = divmod(k, 1000)
            run = min(stop - k, 1000 - low)
            heads += [b"cnf(premise_%0*d" % (width - 3, high)] * run
            lows += low_digits[low : low + run]
            k += run
        lines = [b""] * (5 * count)
        lines[0::5] = heads
        lines[1::5] = lows
        lines[2::5] = [b", axiom, (" if close else b", axiom, "] * count
        lines[3::5] = texts
        lines[4::5] = [tail + close + b").\n"] * count
        yield b"".join(lines)
        number = stop
    yield f"fof(conclusion, conjecture, {_conjecture_formula(theorem)}).\n".encode()


def export_tptp(theorem: Theorem) -> str:
    """``_tptp_lines`` as one string."""
    return b"".join(_tptp_lines(theorem)).decode()


def _theorem_lines(theorem: Theorem) -> Iterator[bytes]:
    """Plain text lines: one premise per line, then the turnstile line."""
    for texts, tail in theorem.premises.blocks(lambda lit: str(lit).encode(), _OR_UTF8, _BOX_UTF8):
        yield (tail + b"\n").join([*texts, b""])
    yield f"⊢ {theorem.conclusion}\n".encode()


def render_theorem(theorem: Theorem) -> str:
    """``_theorem_lines`` as one string."""
    return b"".join(_theorem_lines(theorem)).decode()


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


def _record_lines(theorem: Theorem) -> Iterator[bytes]:
    """Versioned JSON form of a theorem, one block of premises per piece.

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
    yield (json.dumps(head, ensure_ascii=False, indent=2)[:-2] + ",\n").encode()

    def token(lit: Literal) -> bytes:
        # JSON escapes a string one character at a time, so a clause's
        # escaped text is its escaped literals joined by OR_TEXT, and
        # OR_TEXT and BOX_TEXT need no escaping.
        return encode_basestring(str(lit))[1:-1].encode()

    lead = b'  "premises": [\n    "'
    empty = True
    for texts, tail in theorem.premises.blocks(token, _OR_UTF8, _BOX_UTF8):
        end = tail + b'"'
        parts = [lead + texts[0], *texts[1:]]
        parts[-1] += end
        yield (end + b',\n    "').join(parts)
        lead, empty = b',\n    "', False
    conclusion = encode_basestring(str(theorem.conclusion))
    last = ('  "premises": [],\n' if empty else "\n  ],\n") + f'  "conclusion": {conclusion}\n}}\n'
    yield last.encode()


def save_record(theorem: Theorem) -> str:
    """``_record_lines`` as one string."""
    return b"".join(_record_lines(theorem)).decode()


def read_record(text: str) -> dict:
    """Parse a record's JSON and check its shape without rebuilding it.

    Returns the decoded object, as ``json.loads`` decodes it: a
    current-version record with every field present, ``generators`` a
    list and ``removed_indices`` a list of integers.  Callers can bound
    the work a rebuild will take from ``len(record["generators"])``
    before calling ``rebuild_record``.
    """
    from ._record_scan import read_text

    return _checked(read_text(text))


def _read_record_file(source) -> dict:
    """``read_record`` for a record file open in binary: its premises are
    left in the file (``_record_scan``), which must stay open until
    ``rebuild_record`` has compared them."""
    from ._record_scan import scan

    return _checked(scan(source))


def _checked(data) -> dict:
    """``data`` if it has a record's shape."""
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


def _texts_match(stored, premises: ClauseSet) -> bool:
    """Whether ``stored``, a decoded list or a record file's array, holds
    the premises' texts in order.  The texts are compared in UTF-8 a
    block at a time, as they are read, so they are never all held."""
    from ._record_scan import stored_texts

    count, texts = stored_texts(stored)
    if count != len(premises):
        return False
    for block, tail in premises.blocks(lambda lit: str(lit).encode(), _OR_UTF8, _BOX_UTF8):
        if list(islice(texts, len(block))) != list(map(add, block, repeat(tail))):
            return False
    return True


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
    if data["conclusion"] != str(theorem.conclusion) or not _texts_match(
        data["premises"], theorem.premises
    ):
        raise MalformedRecordError(
            "stored premises or conclusion disagree with reconstruction from provenance"
        )
    return theorem


def load_record(text: str, max_level: int = DEFAULT_MAX_LEVEL) -> Theorem:
    """Parse a record and revalidate it by rebuilding from provenance."""
    return rebuild_record(read_record(text), max_level)
