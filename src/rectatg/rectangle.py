"""Rectangles: maximal contradictions over a generation literal set.

For n generation literals the rectangle is the n by 2**n literal grid
whose columns, read top to bottom, are the 2**n clauses choosing each
generator or its complement in every combination, in binary-counter
column order.  The library has one construction route: each row is
laid out by the template's block rule.  The level-by-level doubling
construction lives in the tests as an independent cross-check, and
the two must agree cell for cell.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import IndexOutOfRangeError, SizeCapError
from .logic import Clause, ClauseSet, Literal, negate_literal
from .parser import GenerationSet
from .template import DEFAULT_MAX_LEVEL, _sign_rows


class Rectangle:
    """Immutable literal grid plus its clause view.

    The grid (``rows``) and the clause view (``clauses``) are two
    projections of the same store: clause j is column j read top to
    bottom.  Cells reuse one literal object per row and polarity.
    """

    __slots__ = ("generators", "rows", "_clauses")

    def __init__(self, generators: GenerationSet, rows: Sequence[Sequence[Literal]]):
        self.generators = generators
        self.rows: tuple[tuple[Literal, ...], ...] = tuple(tuple(r) for r in rows)
        self._clauses: tuple[Clause, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._clauses is None:
            self._clauses = tuple(Clause(col) for col in zip(*self.rows))
        return self._clauses

    def column(self, j: int) -> tuple[Literal, ...]:
        if not 0 <= j < self.width:
            raise IndexOutOfRangeError(f"column {j} not in 0..{self.width - 1}")
        return tuple(row[j] for row in self.rows)

    def clause_set(self) -> ClauseSet:
        return ClauseSet(self.clauses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rectangle):
            return NotImplemented
        return self.generators == other.generators and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.generators, self.rows))

    def __repr__(self) -> str:
        return f"Rectangle(n={self.n}, width={self.width})"


def construct_from_template(
    generators: GenerationSet, max_level: int = DEFAULT_MAX_LEVEL
) -> Rectangle:
    """Build the rectangle from the block rule of the level-n template.

    Cell (i, j) is generator i where the template marker is positive and
    its complement where the marker is "?", that is, where bit i of j is
    set.  Each row holds just the generator and one complement object.
    """
    n = generators.n
    if n > max_level:
        raise SizeCapError(n, max_level)
    return Rectangle(
        generators, _sign_rows(n, ((lit, negate_literal(lit)) for lit in generators))
    )


def remove_clauses(rect: Rectangle, indices: Iterable[int]) -> ClauseSet:
    """Clause set left after deleting the given columns (duplicates ignored).

    Remaining clauses keep their original order.  Removing every column
    yields the empty clause set.
    """
    drop = set(indices)
    width = rect.width
    for j in drop:
        if not 0 <= j < width:
            raise IndexOutOfRangeError(f"column {j} not in 0..{width - 1}")
    return ClauseSet(c for j, c in enumerate(rect.clauses) if j not in drop)
