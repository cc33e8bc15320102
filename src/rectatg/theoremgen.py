"""Theorem generation from rectangles.

Splitting the rectangle's clauses into premises A and hypothesis H turns
the contradiction into a valid entailment: A proves the negation of the
conjunction of H.  The canonical split removes column 0 (the generation
clause itself), which flattens to the conjunction of the complements of
the generation literals.

Both sides of a theorem are views of the one closed-form rectangle
(``rectangle.ColumnSet``): the premises drop the hypothesis columns and
the hypothesis keeps them.  Writers render either side through
``ClauseSet.blocks`` and the oracles read it through ``ClauseSet.masks``,
without building a Clause; a side's Clause tuple is built only when an
oracle or a caller iterates it, and then the hypothesis builds only its
own columns.  So building a theorem builds no Clause, and its cost
follows the hypothesis columns named, not the Clauses they would make.
"""

from __future__ import annotations

from typing import Iterable

from .errors import EmptyHypothesisError
from .logic import BOX_TEXT, OR_TEXT, Clause, ClauseSet, Literal, _set, _Value, negate_literal
from .parser import GenerationSet
from .rectangle import ColumnSet, _columns, construct_from_template
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
    """Conclusion shape for a multi-clause hypothesis: the negated conjunction.

    ``clauses`` is a theorem's hypothesis view, the same object as its
    ``hypothesis_clauses``, or any clauses a caller gives: a tuple of
    Clause objects or a ``ClauseSet``.  Either way the text is each
    clause's ``str``, rendered through ``ClauseSet.blocks`` as the
    premises are.
    """

    __slots__ = ("clauses",)

    def __init__(self, clauses: ClauseSet | tuple[Clause, ...]):
        _set(self, "clauses", clauses)

    def __str__(self) -> str:
        blocks = hypothesis_from_conclusion(self).blocks(str, OR_TEXT)
        return f"¬(({') ∧ ('.join(t + tail or BOX_TEXT for ts, tail in blocks for t in ts)}))"


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
    order), everything else stays premise-side in construction order.
    Both sides are views of the rectangle (``rectangle.ColumnSet``),
    built from the one validated list of indices: the premises drop the
    columns, as ``remove_clauses`` would, and H keeps them.
    The conclusion is the negation of the conjunction of H, flattened to
    a literal conjunction when H is a single clause.  Selecting every
    column is allowed and leaves no premises.
    """
    indices = tuple(_columns(hypothesis_indices, 1 << generators.n))
    if not indices:
        raise EmptyHypothesisError("the hypothesis side of a partition cannot be empty")
    rect = construct_from_template(generators, max_level)
    hypothesis = ColumnSet(rect, None, indices)
    if len(indices) == 1:
        # Complementing every cell of column j gives column ~j: each bit flips.
        conclusion: Conclusion = LiteralConjunction(rect.column(rect.width - 1 - indices[0]))
    else:
        conclusion = NegatedConjunction(hypothesis)
    premises = ColumnSet(rect, frozenset(indices))
    return Theorem(premises, hypothesis, conclusion, Provenance(generators, indices))


def hypothesis_from_conclusion(conclusion: Conclusion) -> ClauseSet:
    """Clauses whose joint refutation the conclusion asserts.

    A literal conjunction asserts the negation of the single clause made
    of its complements; a negated conjunction asserts the negation of
    its clauses taken together: a clause set, such as a theorem's
    hypothesis view, is returned as it is, and a tuple is wrapped.
    """
    if isinstance(conclusion, LiteralConjunction):
        return ClauseSet((Clause(negate_literal(l) for l in conclusion.literals),))
    clauses = conclusion.clauses
    return clauses if isinstance(clauses, ClauseSet) else ClauseSet(clauses)


def verify_theorem(theorem: Theorem, max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """Machine-check the entailment the theorem claims.

    The conclusion is taken at face value: whatever it asserts the
    negation of is conjoined with the premises and refuted by
    ``semantics.entails``, which covers the truth table with the
    falsified-cube oracle, reading the premises and the hypothesis from
    their ``masks`` when either side holds 1024 clauses or more: the cell
    rule, for a theorem's own two views.  A tampered conclusion therefore
    fails unless it happens to be entailed as well.
    """
    return entails(
        theorem.premises, hypothesis_from_conclusion(theorem.conclusion), max_atoms
    )
