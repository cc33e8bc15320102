"""Rectangles: maximal contradictions over a generation literal set.

For n generation literals the rectangle is the n by 2**n literal grid
whose columns, read top to bottom, are the 2**n clauses choosing each
generator or its complement in every combination, in binary-counter
column order: cell (i, j) is generator i, complemented when bit i of j
is set.

``construct_from_template`` returns the closed form, which stores only
the generators and their complements.  Its rows, its clauses and its
columns are views built on first use.  Writers never need them:
``Rectangle.column_blocks`` renders the columns from one token per row
and polarity as one block per pattern of the high half of the rows, a
shared list of low-half texts and the block's high-half text, so a
writer joins a block at a time; ``column_texts`` flattens the same
blocks column by column, and ``remove_clauses`` returns a clause set
whose ``blocks`` are the kept columns' blocks.  A rectangle built from
explicit rows (a hand-made grid) keeps them and renders them cell by
cell, one block per column.  The level-by-level doubling construction
lives in the tests as an independent cross-check, and the routes must
agree cell for cell.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import IndexOutOfRangeError, SizeCapError
from .logic import Clause, ClauseSet, Literal, negate_literal
from .parser import GenerationSet
from .template import DEFAULT_MAX_LEVEL, _sign_rows


class Rectangle:
    """Literal grid plus its clause view.

    ``Rectangle(generators)`` is the closed form over the generators and
    ``Rectangle(generators, rows)`` holds the given grid.  Either way
    clause j is column j read top to bottom.  The closed form's rows
    reuse one literal object per row and polarity.
    """

    __slots__ = ("generators", "_signs", "_rows", "_clauses")

    def __init__(
        self, generators: GenerationSet, rows: Sequence[Sequence[Literal]] | None = None
    ):
        self.generators = generators
        # The closed form keeps one (literal, complement) pair per row,
        # shared by every view; explicit rows keep the grid instead.
        self._signs = (
            [(lit, negate_literal(lit)) for lit in generators] if rows is None else None
        )
        self._rows: tuple[tuple[Literal, ...], ...] | None = (
            None if rows is None else tuple(tuple(r) for r in rows)
        )
        self._clauses: tuple[Clause, ...] | None = None

    @property
    def closed_form(self) -> bool:
        """True for the closed form, False for a grid of explicit rows."""
        return self._signs is not None

    @property
    def n(self) -> int:
        return self.generators.n if self._signs is not None else len(self._rows)

    @property
    def width(self) -> int:
        return 1 << self.generators.n if self._signs is not None else len(self._rows[0])

    @property
    def rows(self) -> tuple[tuple[Literal, ...], ...]:
        if self._rows is None:
            self._rows = tuple(_sign_rows(self.n, [((p,), (q,)) for p, q in self._signs]))
        return self._rows

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._clauses is None:
            # The closed form joins one-literal tuples instead of zipping
            # laid-out rows: freeing n row lists of 2**n slots under the
            # clauses stranded them on the glibc heap and raised peak RSS
            # of `generate --verify` at n=14 by 6%.
            if self._signs is not None:
                columns = self.column_texts(_cell, ())
            else:
                columns = zip(*self._rows)
            self._clauses = tuple(map(Clause, columns))
        return self._clauses

    def column(self, j: int) -> tuple[Literal, ...]:
        if not 0 <= j < self.width:
            raise IndexOutOfRangeError(f"column {j} not in 0..{self.width - 1}")
        if self._signs is None:
            return tuple(row[j] for row in self._rows)
        # Bit i of j picks row i's polarity: the complement when set.
        return tuple(pair[(j >> i) & 1] for i, pair in enumerate(self._signs))

    def column_blocks(
        self,
        token: Callable[[Literal], str],
        sep: str,
        drop: Collection[int] = (),
    ) -> Iterator[tuple[list[str], str]]:
        """Column texts, in column order, in blocks ``(lows, tail)``: each
        column of a block is one of ``lows`` followed by ``tail``.

        A column's text is its cells rendered by ``token`` and joined by
        ``sep``; the column indices in ``drop`` are skipped, and a block
        that keeps no column is not yielded.  Explicit rows make one
        block per column, with an empty tail.

        The closed form calls ``token`` once per row and polarity.  The
        cells of the low ⌊n/2⌋ rows of column j depend only on the low
        bits of j and the other cells only on the high bits, so each
        half is joined once per bit pattern, 2·2^⌈n/2⌉ joins in all.
        There is one block per pattern of the high bits: ``tail`` is
        ``sep`` and that pattern's high-half text, and ``lows`` is the
        low-half text of every pattern of the low bits.  Every block
        shares one ``lows`` list, copied only for a block that holds a
        dropped column, so callers must not change it.

        The closed form only concatenates, so tokens of any type that
        ``+`` joins will do: one-literal tuples with ``sep=()`` give the
        column tuples of the clause view, and integers with ``sep=0``
        the oracles' clause masks.
        """
        if self._signs is None:
            for j, col in enumerate(zip(*self._rows)):
                if j not in drop:
                    yield [sep.join(map(token, col))], sep * 0
            return
        tokens = [(token(pos), token(neg)) for pos, neg in self._signs]
        h = len(tokens) // 2

        def half(pairs):
            # Entry m joins the cells these rows hold where the column's
            # bits read m: bit k picks row k's polarity.
            joined = list(pairs[0])
            for pos, neg in pairs[1:]:
                joined = [t + sep + pos for t in joined] + [t + sep + neg for t in joined]
            return joined

        if h:
            lows = half(tokens[:h])
            tails = [sep + high for high in half(tokens[h:])]
        else:
            # One row: one empty low half (sep * 0 is the empty value of
            # sep's type) and one column per block.
            lows, tails = [sep * 0], half(tokens)
        # Column j is lows[j % 2^h] + tails[j >> h].
        dropped: dict[int, set[int]] = {}
        for j in drop:
            dropped.setdefault(j >> h, set()).add(j & ((1 << h) - 1))
        for b, tail in enumerate(tails):
            gone = dropped.get(b)
            if gone is None:
                yield lows, tail
            elif len(gone) < len(lows):
                yield [low for m, low in enumerate(lows) if m not in gone], tail

    def column_texts(
        self,
        token: Callable[[Literal], str],
        sep: str,
        drop: Collection[int] = (),
    ) -> Iterator[str]:
        """Each column's cells rendered by ``token`` and joined by ``sep``,
        in column order, skipping the column indices in ``drop``: the
        blocks of ``column_blocks``, one column at a time."""
        for lows, tail in self.column_blocks(token, sep, drop):
            for low in lows:
                yield low + tail

    def clause_set(self) -> ClauseSet:
        return ColumnSet(self, frozenset())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rectangle):
            return NotImplemented
        if self.generators != other.generators:
            return False
        # Two closed forms over equal generators have equal rows.
        if self._signs is not None and other._signs is not None:
            return True
        return self.rows == other.rows

    def __hash__(self) -> int:
        # Equal rectangles have equal generators, so this agrees with
        # __eq__ without laying out the rows.
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"Rectangle(n={self.n}, width={self.width})"


def _cell(lit: Literal) -> tuple[Literal]:
    """A literal as a one-cell column: the token the clause view joins."""
    return (lit,)


class ColumnSet(ClauseSet):
    """The columns of a rectangle, minus the dropped ones, as a clause set.

    The Clause tuple is built only when the set is iterated, indexed or
    compared.  ``len`` needs nothing built, and ``blocks`` renders through
    ``Rectangle.column_blocks``.
    """

    __slots__ = ("rect", "drop", "_kept")

    def __init__(self, rect: Rectangle, drop: frozenset[int]):
        self.rect = rect
        self.drop = drop
        self._kept: tuple[Clause, ...] | None = None

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._kept is None:
            drop = self.drop
            # A view that keeps no column builds no clause to filter.
            kept = enumerate(self.rect.clauses) if len(self) else ()
            self._kept = tuple(c for j, c in kept if j not in drop)
        return self._kept

    def __len__(self) -> int:
        return self.rect.width - len(self.drop)

    def __reduce__(self):
        # The inherited clauses slot is shadowed by the property above,
        # so pickle and copy rebuild the view instead of storing slots.
        return ColumnSet, (self.rect, self.drop)

    def blocks(
        self, token: Callable[[Literal], str], sep: str
    ) -> Iterator[tuple[list[str], str]]:
        return self.rect.column_blocks(token, sep, self.drop)


def construct_from_template(
    generators: GenerationSet, max_level: int = DEFAULT_MAX_LEVEL
) -> Rectangle:
    """The closed-form rectangle over the generators.

    Cell (i, j) is generator i where the level-n template marker is
    positive and its complement where the marker is "?", that is, where
    bit i of j is set.  Nothing is laid out until a view is asked for;
    the level cap is still checked here.
    """
    n = generators.n
    if n > max_level:
        raise SizeCapError(n, max_level)
    return Rectangle(generators)


def remove_clauses(rect: Rectangle, indices: Iterable[int]) -> ClauseSet:
    """Clause set left after deleting the given columns (duplicates ignored).

    Remaining clauses keep their original order.  Removing every column
    yields the empty clause set.  The result is a view of the rectangle:
    its clauses are built when it is first iterated.
    """
    drop = frozenset(indices)
    width = rect.width
    for j in drop:
        if not 0 <= j < width:
            raise IndexOutOfRangeError(f"column {j} not in 0..{width - 1}")
    return ColumnSet(rect, drop)
