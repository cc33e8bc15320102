"""Brute-force satisfiability oracles, bounded for desk scale.

Atoms are treated as opaque propositional units: two atoms interact only
when structurally identical.  For clause sets built from a generation
set this abstraction is sound, because distinct generation literals
never share a predicate symbol.

Two oracles live here on purpose and must not be merged:

* ``is_satisfiable`` covers the truth table over the distinct atoms;
* ``is_standard_contradiction`` decides the product definition, asking
  whether every one-literal-per-clause selection contains a
  complementary pair.

That the second implies UNSAT on the first is a theorem the test suite
checks, not an identity the code assumes.

The cover reads each clause as the subcube of assignments it falsifies
(Knuth, TAOCP 7.2.2.2).  With the k distinct atoms numbered by first
appearance and assignment m setting atom i to bit i of m, a clause with
positive atoms ``pos`` and negated atoms ``neg`` is false exactly on
``m ⊇ neg, m ∩ pos = ∅``: ``2^(k−|c|)`` points, where ``|c|`` counts the
clause's distinct atoms.  A tautological clause falsifies nothing and
the empty clause falsifies all ``2^k`` points.  Marking every subcube in
a ``2^k``-byte array costs ``Σ_c 2^(k−|c|)`` marks; the unmarked points
are the satisfying assignments.  The marks are counts saturated at 2,
so ``check_minimality`` reads every single-clause removal off the same
array.

A closed-form rectangle, and a ``ColumnSet`` over one, gives its masks
without a Clause: every column lists the n generators' atoms in row
order, so atom i is generator i, and ``Rectangle.column_texts`` sums
one integer token per cell into each column's packed mask.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import eq
from typing import TYPE_CHECKING, Dict

from .errors import ProductTooLargeError, TooManyAtomsError
from .logic import Atom, ClauseSet, _set, _Value
from .rectangle import ColumnSet, Rectangle, remove_clauses

if TYPE_CHECKING:
    from array import array

DEFAULT_MAX_ATOMS = 24
DEFAULT_MAX_PRODUCT = 10**7

# Closed forms narrower than this take the Clause route, so that a small
# `generate --verify` still builds `Rectangle.clauses` and calls
# `is_satisfiable`: bench/test_bench.py::
# test_tracer_wraps_every_lookup_and_restores_it expects both spans.  It
# equals cli.WRITE_BATCH, which now only sets where cli._emit switches
# from the whole `str` writers to streamed blocks, for the same reason;
# both cuts go once the library emits its own spans.
_CLOSED_FORM_MIN_WIDTH = 1024

Assignment = Dict[Atom, bool]


class SatResult(_Value):
    __slots__ = ("satisfiable", "witness")

    def __init__(self, satisfiable: bool, witness: Assignment | None = None):
        _set(self, "satisfiable", satisfiable)
        _set(self, "witness", witness)

    @property
    def verdict(self) -> str:
        return "SAT" if self.satisfiable else "UNSAT"


def _clause_masks(
    clauses: Iterable, max_atoms: int, index: dict[Atom, int] | None = None
) -> tuple[tuple[Atom, ...], list[tuple[int, int]], set[int]]:
    """Atoms in first-appearance order, one ``(pos, neg)`` bit-mask pair
    per clause, and the indices of the clauses that hold some atom's
    first appearance.

    Atom i is bit i; a given ``index`` numbers the atoms it holds and is
    extended with the new ones.  The atom cap is checked as each new
    atom appears, so a set over too many atoms is refused part way.
    Rectangles reuse one literal object per row and polarity, so literal
    bits are cached by identity and each atom is hashed once per literal
    object rather than once per cell.  The ids stay valid because the
    clauses hold every literal for the whole pass.
    """
    index = {} if index is None else index
    bits: dict[int, tuple[int, int]] = {}
    masks = []
    firsts = set()
    for j, clause in enumerate(clauses):
        known = len(index)
        pos = neg = 0
        for lit in clause.literals:
            hit = bits.get(id(lit))
            if hit is None:
                bit = 1 << index.setdefault(lit.atom, len(index))
                if len(index) > max_atoms:
                    raise TooManyAtomsError(len(index), max_atoms)
                hit = bits[id(lit)] = (0, bit) if lit.negated else (bit, 0)
            pos |= hit[0]
            neg |= hit[1]
        masks.append((pos, neg))
        if len(index) > known:
            firsts.add(j)
    return tuple(index), masks, firsts


def _reads_closed_form(rect: Rectangle) -> bool:
    """Whether the oracles read the rectangle's masks from its closed form."""
    return rect.closed_form and rect.width >= _CLOSED_FORM_MIN_WIDTH


def _closed_columns(clauses) -> ColumnSet | None:
    """The clause set as a nonempty ColumnSet whose masks are read from
    its closed form, or None for the Clause route."""
    if isinstance(clauses, ColumnSet) and len(clauses) and _reads_closed_form(clauses.rect):
        return clauses
    return None


def _closed_form_index(rect: Rectangle, max_atoms: int) -> dict[Atom, int]:
    """Atom i is generator i's atom.  The cap is checked on ``rect.n``
    before anything is built."""
    if rect.n > max_atoms:
        raise TooManyAtomsError(rect.n, max_atoms)
    return {lit.atom: i for i, lit in enumerate(rect.generators)}


def _closed_form_masks(
    rect: Rectangle, index: dict[Atom, int], drop=()
) -> Iterator[tuple[int, int]]:
    """``(pos, neg)`` of each closed-form column not in ``drop``, streamed.

    ``column_texts`` joins integer tokens with ``sep = 0``: a positive
    cell of atom i is ``1 << i`` and a negated one ``(1 << i) << n``, and
    ``+`` acts as ``|`` on these disjoint bits, so column j sums to
    ``pos | neg << n``.
    """
    n = rect.n
    low = (1 << n) - 1

    def token(lit):
        bit = 1 << index[lit.atom]
        return bit << n if lit.negated else bit

    return ((m & low, m >> n) for m in rect.column_texts(token, 0, drop))


def _subcube(pos: int, neg: int, k: int):
    """Slices of the ``2^k`` array that together hold the subcube the
    clause ``(pos, neg)`` falsifies: ``m ⊇ neg`` and ``m ∩ pos = ∅``.

    The longest run of free bits becomes one strided slice; the other
    free bits are enumerated, so a clause costs ``2^(free - run)`` slices.
    """
    free = ((1 << k) - 1) & ~(pos | neg)
    low = run = 0
    for b in range(free.bit_length()):
        r = 0
        while free >> (b + r) & 1:
            r += 1
        if r > run:
            low, run = b, r
    step = 1 << low
    span = step << run
    rest = free & ~(span - step)
    s = rest
    while True:
        start = neg | s
        yield slice(start, start + span, step)
        if not s:
            return
        s = (s - 1) & rest


# Saturating increment as a translate table: 0 -> 1, 1 -> 2, 2 -> 2.
_BUMP = bytes([1] + [2] * 255)


def _cover(masks: Iterable[tuple[int, int]], k: int) -> bytearray:
    """How many clauses falsify each assignment, saturated at 2."""
    counts = bytearray(1 << k)
    full = (1 << k) - 1
    for pos, neg in masks:
        if pos & neg:
            continue  # tautological: falsified nowhere
        if pos | neg == full:
            counts[neg] = _BUMP[counts[neg]]
        else:
            for cube in _subcube(pos, neg, k):
                counts[cube] = counts[cube].translate(_BUMP)
    return counts


def _result(atoms: tuple[Atom, ...], m: int) -> SatResult:
    """SAT with assignment m as witness, or UNSAT when m is -1."""
    if m < 0:
        return SatResult(False, None)
    return SatResult(True, {atom: bool(m >> i & 1) for i, atom in enumerate(atoms)})


def is_satisfiable(
    clause_set: ClauseSet, max_atoms: int = DEFAULT_MAX_ATOMS
) -> SatResult:
    """Decide satisfiability by covering the truth table.

    Atoms are numbered by first appearance; assignment m maps atom i to
    bit i of m.  Every clause marks the assignments it falsifies in a
    ``2^k``-byte array, and the lowest unmarked m is returned as the
    witness, so results are reproducible.  The cost is the ``2^k``
    bytes plus ``Σ_c 2^(k−|c|)`` marks, where ``|c|`` counts the distinct
    atoms of clause c.  The empty clause set is satisfiable (empty
    witness); a set containing the empty clause never is.  The atom
    bound is checked before the array is allocated, and for a closed
    form's columns before any mask is.
    """
    columns = _closed_columns(clause_set)
    if columns is not None:
        index = _closed_form_index(columns.rect, max_atoms)
        atoms = tuple(index)
        masks = _closed_form_masks(columns.rect, index, columns.drop)
    else:
        atoms, masks, _ = _clause_masks(clause_set, max_atoms)
    return _result(atoms, _cover(masks, len(atoms)).find(0))


def is_standard_contradiction(
    clause_set: ClauseSet, max_product: int = DEFAULT_MAX_PRODUCT
) -> bool:
    """Product definition: every one-per-clause literal tuple has a clash.

    Decided by depth-first traversal of the selection product.  A branch
    whose partial selection already contains a complementary pair is cut
    (every completion inherits the pair), and repeated (position, pinned
    polarities) states are memoized, so the traversal is exact but never
    revisits decided subtrees.  The product-size bound is a guard against
    hopeless inputs, not a step count.
    """
    clauses = tuple(clause_set)
    if any(len(c) == 0 for c in clauses):
        # Nothing can be selected from an empty clause, so the product
        # is empty and the condition holds vacuously.
        return True
    size = 1
    for c in clauses:
        size *= len(c)
    if size > max_product:
        raise ProductTooLargeError(size, max_product)

    # Unit clauses leave no choice; pin them first.  A clash among the
    # pinned literals already puts a complementary pair in every tuple.
    pinned: dict[Atom, bool] = {}
    rest = []
    for c in clauses:
        if len(c) == 1:
            lit = c.literals[0]
            have = pinned.get(lit.atom)
            if have is None:
                pinned[lit.atom] = lit.negated
            elif have != lit.negated:
                return True
        else:
            rest.append(c)

    memo: dict[tuple[int, frozenset], bool] = {}

    def clash_free_completion(i: int) -> bool:
        if i == len(rest):
            return True
        key = (i, frozenset(pinned.items()))
        hit = memo.get(key)
        if hit is not None:
            return hit
        found = False
        for lit in rest[i]:
            have = pinned.get(lit.atom)
            if have is None:
                pinned[lit.atom] = lit.negated
                found = clash_free_completion(i + 1)
                del pinned[lit.atom]
            elif have == lit.negated:
                found = clash_free_completion(i + 1)
            if found:
                break
        memo[key] = found
        return found

    return not clash_free_completion(0)


class Removals(Sequence):
    """Results of the single-clause removals, built when read.

    Removal j is stored as one witness index over the full set's atoms,
    -1 for UNSAT, in an ``array('q')``: 8 bytes per removal where a
    witness dict would hold n entries.  The few removals decided on
    their own clause set keep their SatResult; their stored index only
    tells -1 (UNSAT) apart, for the count.

    Two Removals are equal when they have the same length and equal
    results at every index, as tuples of the results would be.  Like a
    list, a Removals is unhashable.
    """

    __slots__ = ("_atoms", "_witnesses", "_decided")

    def __init__(
        self,
        atoms: tuple[Atom, ...],
        witnesses: array,
        decided: dict[int, SatResult],
    ):
        self._atoms = atoms
        self._witnesses = witnesses
        self._decided = decided

    def __len__(self) -> int:
        return len(self._witnesses)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self[i] for i in range(len(self))[j])
        j = range(len(self))[j]  # IndexError and negative indices as for a tuple
        decided = self._decided.get(j)
        return decided if decided is not None else _result(self._atoms, self._witnesses[j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Removals):
            return NotImplemented
        if not (self._decided or other._decided) and self._atoms == other._atoms:
            # Over the same atoms, a witness index names one result.
            return self._witnesses == other._witnesses
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def sat_count(self) -> int:
        """How many removals are SAT, without building their results."""
        return len(self._witnesses) - self._witnesses.count(-1)


class MinimalityReport(_Value):
    """Outcome of the full-set check plus every single-clause removal."""

    __slots__ = ("full", "removals")

    def __init__(self, full: SatResult, removals: Removals):
        _set(self, "full", full)
        _set(self, "removals", removals)

    @property
    def ok(self) -> bool:
        return not self.full.satisfiable and self.removals.sat_count() == len(self.removals)

    def summary(self) -> str:
        sat = self.removals.sat_count()
        return f"full: {self.full.verdict}; removals: {sat}/{len(self.removals)} SAT"


def check_minimality(
    rect: Rectangle, max_atoms: int = DEFAULT_MAX_ATOMS
) -> MinimalityReport:
    """Full rectangle must be UNSAT, every single-column removal SAT.

    One cover of the truth table decides them all.  Counts saturate at
    2, so removing column j leaves the points of its subcube with count
    1 uncovered, besides the points no clause covers.  Removal j is SAT
    exactly when one of those exists, and its witness is the lowest of
    them, which is what ``is_satisfiable`` returns on the remaining
    clauses.  A full clause (every atom, none twice) falsifies the one
    point ``neg``, so its removal needs one count read.

    The witness identity needs the remaining clauses to number their
    atoms as the full set does.  In a closed form every column lists all
    n atoms in row order, so no removal renumbers anything, and its masks
    are streamed from the closed form twice, for the cover and for the
    removals.  In a grid of explicit rows, a column holding some atom's
    first appearance (column 0 of a rectangle) is decided by
    ``is_satisfiable`` on what is left.  Cost: one ``2^k``-byte array,
    ``Σ_c 2^(k−|c|)`` marks, the subcube scans of the removals and 8
    bytes per removal.

    Each removal result carries its witness so callers can re-check it
    against the remaining clauses.  The report keeps one witness index
    per removal and builds each result when it is read.
    """
    # Only check_minimality loads the array extension, so other commands
    # start sooner.
    from array import array

    closed = _reads_closed_form(rect)
    if closed:
        index = _closed_form_index(rect, max_atoms)
        atoms = tuple(index)
        masks, firsts = _closed_form_masks(rect, index), ()
    else:
        atoms, masks, firsts = _clause_masks(rect.clauses, max_atoms)
    k = len(atoms)
    full = (1 << k) - 1
    counts = _cover(masks, k)
    zero = counts.find(0)
    if closed:
        masks = _closed_form_masks(rect, index)
    witnesses = array("q")
    decided = {}
    for j, (pos, neg) in enumerate(masks):
        if j in firsts:
            result = decided[j] = is_satisfiable(remove_clauses(rect, (j,)), max_atoms)
            witnesses.append(0 if result.satisfiable else -1)
            continue
        m = zero
        if pos | neg == full and not pos & neg:
            # A full clause falsifies the point neg alone.
            if counts[neg] == 1 and not 0 <= zero < neg:
                m = neg
        elif not pos & neg:  # a tautology uncovers nothing
            for cube in _subcube(pos, neg, k):
                t = counts[cube].find(1)
                if t >= 0 and (m < 0 or cube.start + t * cube.step < m):
                    m = cube.start + t * cube.step
        witnesses.append(m)
    return MinimalityReport(_result(atoms, zero), Removals(atoms, witnesses, decided))


def entails(
    premises: ClauseSet, hypothesis: ClauseSet, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """Refutation check: premises entail the negation of the hypothesis
    conjunction exactly when premises plus hypothesis are unsatisfiable.

    Premises that are a closed form's columns are covered from their
    streamed masks, with the hypothesis clauses numbered after the
    generators' atoms, so the premise clauses are never built.
    """
    columns = _closed_columns(premises)
    if columns is None:
        combined = ClauseSet(tuple(premises) + tuple(hypothesis))
        return not is_satisfiable(combined, max_atoms).satisfiable
    index = _closed_form_index(columns.rect, max_atoms)
    _, hypothesis_masks, _ = _clause_masks(hypothesis, max_atoms, index)
    masks = chain(_closed_form_masks(columns.rect, index, columns.drop), hypothesis_masks)
    return _cover(masks, len(index)).find(0) < 0
