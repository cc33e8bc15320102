"""Brute-force satisfiability oracles, bounded for desk scale.

Atoms are treated as opaque propositional units: two atoms interact only
when structurally identical.  For clause sets built from a generation
set this abstraction is sound, because distinct generation literals
never share a predicate symbol.

Two oracles live here on purpose and must not be merged:

* ``is_satisfiable`` sweeps the truth table over the distinct atoms;
* ``is_standard_contradiction`` decides the product definition, asking
  whether every one-literal-per-clause selection contains a
  complementary pair.

That the second implies UNSAT on the first is a theorem the test suite
checks, not an identity the code assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .errors import ProductTooLargeError, TooManyAtomsError
from .logic import Atom, ClauseSet, collect_atoms
from .rectangle import Rectangle, remove_clauses

DEFAULT_MAX_ATOMS = 24
DEFAULT_MAX_PRODUCT = 10**7

Assignment = Dict[Atom, bool]


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: Assignment | None = None

    @property
    def verdict(self) -> str:
        return "SAT" if self.satisfiable else "UNSAT"


def is_satisfiable(
    clause_set: ClauseSet, max_atoms: int = DEFAULT_MAX_ATOMS
) -> SatResult:
    """Truth-table sweep over all assignments to the distinct atoms.

    Atoms are numbered by first appearance; assignment m maps atom i to
    bit i of m.  Assignments are tried in increasing m, and the first
    satisfying one is returned as the witness, so results are
    reproducible.  The empty clause set is satisfiable (empty witness);
    a set containing the empty clause never is.
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


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of the full-set check plus every single-clause removal."""

    full: SatResult
    removals: tuple[SatResult, ...]

    @property
    def ok(self) -> bool:
        return not self.full.satisfiable and all(r.satisfiable for r in self.removals)

    def summary(self) -> str:
        sat = sum(1 for r in self.removals if r.satisfiable)
        return f"full: {self.full.verdict}; removals: {sat}/{len(self.removals)} SAT"


def check_minimality(
    rect: Rectangle, max_atoms: int = DEFAULT_MAX_ATOMS
) -> MinimalityReport:
    """Full rectangle must be UNSAT, every single-column removal SAT.

    Each removal result carries its witness so callers can re-check it
    against the remaining clauses.
    """
    full = is_satisfiable(rect.clause_set(), max_atoms)
    removals = tuple(
        is_satisfiable(remove_clauses(rect, (j,)), max_atoms)
        for j in range(rect.width)
    )
    return MinimalityReport(full, removals)


def entails(
    premises: ClauseSet, hypothesis: ClauseSet, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """Refutation check: premises entail the negation of the hypothesis
    conjunction exactly when premises plus hypothesis are unsatisfiable."""
    combined = ClauseSet(tuple(premises) + tuple(hypothesis))
    return not is_satisfiable(combined, max_atoms).satisfiable
