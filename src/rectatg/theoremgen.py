"""Theorem generation from rectangles.

Splitting the rectangle's clauses into premises A and hypothesis H turns
the contradiction into a valid entailment: A proves the negation of the
conjunction of H.  The canonical split removes column 0 (the generation
clause itself), which flattens to the conjunction of the complements of
the generation literals.

A theorem's premises are a view of the closed-form rectangle minus the
hypothesis columns: writers render them through ``ClauseSet.blocks``
without building a Clause, and the Clause tuple is built only when an
oracle or a caller iterates them.  Only the hypothesis columns are
built up front.
"""

from __future__ import annotations

from typing import Iterable

from .errors import EmptyHypothesisError
from .logic import Clause, ClauseSet, Literal, _set, _Value, negate_clause, negate_literal
from .parser import GenerationSet
from .rectangle import _columns, construct_from_template, remove_clauses
from .semantics import DEFAULT_MAX_ATOMS, entails
from .template import DEFAULT_MAX_LEVEL


class Provenance(_Value):
    """Everything needed to rebuild a theorem: generators and the removed columns."""

    __slots__ = ("generators", "removed_indices")

    def __init__(self, generators: GenerationSet, removed_indices: tuple[int, ...]):
        _set(self, "generators", generators)
        _set(self, "removed_indices", removed_indices)


class LiteralConjunction(_Value):
    """Conclusion shape for a one-clause hypothesis: a conjunction of literals.

    Negating a single clause distributes to the literal level, so the
    conclusion of the canonical theorem reads as the complements of the
    generation literals joined by conjunction.
    """

    __slots__ = ("literals",)

    def __init__(self, literals: tuple[Literal, ...]):
        _set(self, "literals", literals)

    def __str__(self) -> str:
        return " ∧ ".join(str(l) for l in self.literals)


class NegatedConjunction(_Value):
    """Conclusion shape for a multi-clause hypothesis: the negated conjunction."""

    __slots__ = ("clauses",)

    def __init__(self, clauses: tuple[Clause, ...]):
        _set(self, "clauses", clauses)

    def __str__(self) -> str:
        inner = " ∧ ".join(f"({c})" for c in self.clauses)
        return f"¬({inner})"


Conclusion = LiteralConjunction | NegatedConjunction


class Theorem(_Value):
    __slots__ = ("premises", "hypothesis_clauses", "conclusion", "provenance")

    def __init__(
        self,
        premises: ClauseSet,
        hypothesis_clauses: ClauseSet,
        conclusion: Conclusion,
        provenance: Provenance,
    ):
        _set(self, "premises", premises)
        _set(self, "hypothesis_clauses", hypothesis_clauses)
        _set(self, "conclusion", conclusion)
        _set(self, "provenance", provenance)


def generate_theorem(
    generators: GenerationSet, max_level: int = DEFAULT_MAX_LEVEL
) -> Theorem:
    """Canonical theorem: remove column 0, conclude the complements of
    the generation literals."""
    return generate_theorem_with_partition(generators, (0,), max_level)


def generate_theorem_with_partition(
    generators: GenerationSet,
    hypothesis_indices: Iterable[int],
    max_level: int = DEFAULT_MAX_LEVEL,
) -> Theorem:
    """Split the rectangle at the given column indices.

    The selected columns become the hypothesis H (in ascending index
    order), everything else stays premise-side in construction order, as
    a view of the rectangle (see ``remove_clauses``).
    The conclusion is the negation of the conjunction of H, flattened to
    a literal conjunction when H is a single clause.  Selecting every
    column is allowed and leaves no premises.
    """
    indices = _columns(hypothesis_indices, 1 << generators.n)
    if not indices:
        raise EmptyHypothesisError("the hypothesis side of a partition cannot be empty")
    rect = construct_from_template(generators, max_level)
    hypothesis = tuple(Clause(rect.column(j)) for j in indices)
    premises = remove_clauses(rect, indices)
    if len(hypothesis) == 1:
        conclusion: Conclusion = LiteralConjunction(negate_clause(hypothesis[0]))
    else:
        conclusion = NegatedConjunction(hypothesis)
    return Theorem(
        premises,
        ClauseSet(hypothesis),
        conclusion,
        Provenance(generators, tuple(indices)),
    )


def hypothesis_from_conclusion(conclusion: Conclusion) -> ClauseSet:
    """Clauses whose joint refutation the conclusion asserts.

    A literal conjunction asserts the negation of the single clause made
    of its complements; a negated conjunction asserts the negation of
    its clauses taken together.
    """
    if isinstance(conclusion, LiteralConjunction):
        return ClauseSet((Clause(negate_literal(l) for l in conclusion.literals),))
    return ClauseSet(conclusion.clauses)


def verify_theorem(theorem: Theorem, max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """Machine-check the entailment the theorem claims.

    The conclusion is taken at face value: whatever it asserts the
    negation of is conjoined with the premises and refuted by
    ``semantics.entails``, which covers the truth table with the
    falsified-cube oracle, reading 1024 premises or more from their
    ``masks`` (the cell rule, for a rectangle view).  A tampered
    conclusion therefore fails unless it happens to be entailed as well.
    """
    return entails(
        theorem.premises, hypothesis_from_conclusion(theorem.conclusion), max_atoms
    )
