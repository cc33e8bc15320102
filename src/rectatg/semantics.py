"""Brute-force satisfiability oracles, bounded for desk scale.

Atoms are treated as opaque propositional units: two atoms interact only
when structurally identical.  For clause sets built from a generation
set this abstraction is sound, because distinct generation literals
never share a predicate symbol.

Two oracles live here on purpose and must not be merged:

* ``is_satisfiable`` covers the truth table over the distinct atoms;
* ``is_standard_contradiction`` splits on literals (Davis, Logemann &
  Loveland 1962) in search of a one-literal-per-clause selection
  without a complementary pair.

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
array.  Every oracle takes the numbering and the masks from
``ClauseSet.masks``, which a rectangle's view answers from its cell
rule without building a Clause.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from itertools import chain
from operator import eq
from typing import TYPE_CHECKING, Dict

from .errors import CapExceededError, ProductTooLargeError
from .logic import Atom, ClauseSet, _set, _Value
from .rectangle import Rectangle

if TYPE_CHECKING:
    from array import array

DEFAULT_MAX_ATOMS = 24
DEFAULT_MAX_PRODUCT = 10**7

# When neither side of `entails` has this many clauses it takes the
# Clause route, and below this many cli._emit renders whole through the
# `str` writers, so that bench/test_bench.py::
# test_tracer_wraps_every_lookup_and_restores_it still sees the
# `Rectangle.clauses`, `is_satisfiable` and `render_theorem` spans of a
# small `generate --verify`.
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
    """How many clauses falsify each assignment, saturated at 2.  A table
    this process cannot allocate is refused as a CapExceededError."""
    try:
        counts = bytearray(1 << k)
    except (MemoryError, OverflowError):  # OverflowError: past the index size
        raise CapExceededError(
            f"the truth table over {k} atoms needs 2**{k} bytes, more than can be allocated"
        ) from None
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
    bound is checked by ``clause_set.masks``, before the array is
    allocated.
    """
    atoms, masks, _ = clause_set.masks(max_atoms)
    return _result(atoms, _cover(masks, len(atoms)).find(0))


def is_standard_contradiction(
    clause_set: ClauseSet, max_product: int = DEFAULT_MAX_PRODUCT
) -> bool:
    """Product definition: every one-per-clause literal tuple has a clash.

    A tuple without one is a clash-free selection, and ``_clash_free``
    searches the clauses' masks for one by the split rule of Davis,
    Logemann & Loveland (1962): split on a literal l of a shortest open
    clause, pinning l or ¬l.  The split is exact, because a clash-free
    selection that avoids l can take ¬l wherever ¬l occurs.

    The product-size bound is a guard against hopeless inputs, not a
    step count.  It multiplies the clause widths in clause order, a
    repeated literal counting each time, and stops at the first partial
    product past the bound, as the whole one can have millions of bits.
    The widths come from ``clause_set.blocks`` at one byte per literal,
    so refusing a rectangle view builds no Clause.
    """
    blocks = list(clause_set.blocks(lambda lit: b".", b""))
    if any(not tail and b"" in texts for texts, tail in blocks):
        # Nothing can be selected from an empty clause, so the product
        # is empty and the condition holds vacuously.
        return True
    size = 1
    for texts, tail in blocks:
        for text in texts:
            size *= len(text) + len(tail)
            if size > max_product:
                raise ProductTooLargeError(size, max_product)
    # The guard bounds the work, so the masks take no atom cap.
    return not _clash_free(clause_set.masks(sys.maxsize)[1])


def _clash_free(clauses: list[tuple[int, int]]) -> bool:
    """Whether a clash-free selection from the ``(pos, neg)`` clause masks
    exists.  A node pins the atoms in ``pos`` positive and in ``neg``
    negated.  Nodes wait on a stack, so no input recurses."""
    nodes = [(clauses, 0, 0)]
    while nodes:
        clauses, pos, neg = nodes.pop()
        # Skip each clause a pinned literal serves; keep the selectable
        # literals of the others: those no pinned literal clashes with.
        clauses = [(p & ~neg, q & ~pos) for p, q in clauses if not (p & pos or q & neg)]
        if not clauses:
            return True
        widths = [p.bit_count() + q.bit_count() for p, q in clauses]
        shortest = min(widths)
        if shortest == 1:
            # Pin every unit clause at once; two that clash end the node.
            for (p, q), width in zip(clauses, widths):
                if width == 1:
                    pos, neg = pos | p, neg | q
            if not pos & neg:
                nodes.append((clauses, pos, neg))
        elif shortest:  # at 0, some clause has no literal left to select
            p, q = clauses[widths.index(shortest)]
            atom = (p | q) & -(p | q)
            a, b = (atom, 0) if atom & p else (0, atom)  # a literal as the clause holds it
            # Popped first, that literal serves the clause; its complement
            # only narrows the clause by one.
            nodes += [(clauses, pos | b, neg | a), (clauses, pos | a, neg | b)]
    return False


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
    clauses: Rectangle | ClauseSet, max_atoms: int = DEFAULT_MAX_ATOMS
) -> MinimalityReport:
    """The full set must be UNSAT, every single-clause removal SAT.

    ``clauses`` is any clause set; a Rectangle is read as its columns,
    ``rect.clause_set()``.  The full set and every removal are decided
    as ``is_satisfiable`` decides them, on the same route and with the
    same witness.

    One cover of the truth table decides them all.  Counts saturate at
    2, so removing clause j leaves the points of its subcube with count
    1 uncovered, besides the points no clause covers.  Removal j is SAT
    exactly when one of those exists, and its witness is the lowest of
    them, which is what ``is_satisfiable`` returns on the remaining
    clauses.  A full clause (every atom, none twice) falsifies the one
    point ``neg``, so its removal needs one count read.

    The witness identity needs the remaining clauses to number their
    atoms as the full set does.  A clause holding some atom's first
    appearance, as ``clauses.masks`` names them (clause 0 of a plain
    clause set), is therefore decided by ``is_satisfiable`` on the other
    clauses; removing a set's only clause leaves the empty set.  The
    masks are asked for twice, one pass for the cover and one for the
    removals: a view's masks are computed as they are read, and a plain
    set's cost one step per literal.  Cost: one ``2^k``-byte array,
    ``Σ_c 2^(k−|c|)`` marks, the subcube scans of the removals and 8
    bytes per removal.

    Each removal result carries its witness so callers can re-check it
    against the remaining clauses.  The report keeps one witness index
    per removal and builds each result when it is read.
    """
    # Only check_minimality loads the array extension, so other commands
    # start sooner.
    from array import array

    if isinstance(clauses, Rectangle):
        clauses = clauses.clause_set()
    atoms, masks, firsts = clauses.masks(max_atoms)
    k = len(atoms)
    full = (1 << k) - 1
    counts = _cover(masks, k)
    zero = counts.find(0)
    witnesses = array("q")
    decided = {}
    for j, (pos, neg) in enumerate(clauses.masks(max_atoms)[1]):
        if j in firsts:
            rest = ClauseSet(clauses[:j] + clauses[j + 1 :] if len(clauses) > 1 else ())
            result = decided[j] = is_satisfiable(rest, max_atoms)
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

    Premises and a hypothesis that are both under
    ``_CLOSED_FORM_MIN_WIDTH`` clauses take the Clause route through
    ``is_satisfiable``.  Otherwise both are covered from their ``masks``,
    with the hypothesis atoms numbered after the premises', so a
    rectangle view's premise clauses are never built, and neither are a
    hypothesis view's when it is a view of an equal rectangle: premises
    of that rectangle have numbered generator i as i, and no premises
    numbered nothing.
    """
    if len(premises) < _CLOSED_FORM_MIN_WIDTH and len(hypothesis) < _CLOSED_FORM_MIN_WIDTH:
        combined = ClauseSet(tuple(premises) + tuple(hypothesis))
        return not is_satisfiable(combined, max_atoms).satisfiable
    index: dict[Atom, int] = {}
    _, premise_masks, _ = premises.masks(max_atoms, index)
    _, hypothesis_masks, _ = hypothesis.masks(max_atoms, index)
    return _cover(chain(premise_masks, hypothesis_masks), len(index)).find(0) < 0
