"""Rectangles: maximal contradictions over a generation literal set.

For n generation literals the rectangle is the n by 2**n literal grid
whose columns, read top to bottom, are the 2**n clauses choosing each
generator or its complement in every combination, in binary-counter
column order: cell (i, j) is generator i, complemented when bit i of j
is set.

A ``Rectangle`` is that closed form: it stores only the generators and
their complements.  Its rows are ``template._Row`` views that read each
cell from that rule, so no row is laid out; its clauses and its columns
are built on first use.  Writers never need them:
``Rectangle.column_blocks`` renders the columns from one token per row
and polarity as one block per pattern of the high half of the rows, a
shared list of low-half texts and the block's high-half text, so a
writer joins a block at a time; the clause view joins the same blocks
of one-cell tuples.  A ``ColumnSet`` is a clause set of some of the
columns: all but the ones it drops (``remove_clauses``, a theorem's
premises), or only the ones it keeps (a theorem's hypothesis).  Its
``blocks`` are those columns' blocks.  Nor do the oracles need them: a
``ColumnSet`` answers ``masks`` from the cell rule, so the layout is
known here alone.  The level-by-level doubling construction lives in
the tests as an independent cross-check, and the routes must agree
cell for cell.
"""

from __future__ import annotations

from itertools import groupby
from typing import AnyStr, Callable, Collection, Iterable, Iterator, Sequence, TypeVar

from .errors import CapExceededError, IndexOutOfRangeError, TooManyAtomsError, _number
from .logic import Atom, Clause, ClauseSet, Literal, Masks, _set, _Value, negate_literal
from .parser import GenerationSet
from .template import DEFAULT_MAX_LEVEL, _check_cap, _index, _Row

# A token type that ``+`` joins: str, bytes or tuples of cells.
_Text = TypeVar("_Text")


class Rectangle(_Value):
    """The closed-form literal grid over the generators, plus its views.

    Clause j is column j read top to bottom.  The rows and the clauses
    reuse one literal object per row and polarity.  The generators fix
    every cell, so they are the value's one field: a rectangle compares,
    hashes, pickles and copies by them alone, and the views it has built
    are caches that a copy starts without.
    """

    __slots__ = ("generators", "_signs", "_rows", "_clauses")

    def __init__(self, generators: GenerationSet):
        _set(self, "generators", generators)
        # One (literal, complement) pair per row, shared by every view.
        _set(self, "_signs", [(lit, negate_literal(lit)) for lit in generators])
        _set(self, "_rows", None)
        _set(self, "_clauses", None)

    @property
    def n(self) -> int:
        return self.generators.n

    @property
    def width(self) -> int:
        return 1 << self.generators.n

    @property
    def rows(self) -> tuple[Sequence[Literal], ...]:
        if self._rows is None:
            _set(self, "_rows", tuple(_Row(pair, i, self.n) for i, pair in enumerate(self._signs)))
        return self._rows

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._clauses is None:
            _set(self, "_clauses", _clause_tuple(self.clause_set(), share=False))
        return self._clauses

    def column(self, j: int) -> tuple[Literal, ...]:
        (j,) = _columns((j,), self.width)
        # Bit i of j picks row i's polarity: the complement when set.
        return tuple(pair[(j >> i) & 1] for i, pair in enumerate(self._signs))

    def column_blocks(
        self,
        token: Callable[[Literal], _Text],
        sep: _Text,
        drop: Collection[int] = (),
        keep: Iterable[int] | None = None,
    ) -> Iterator[tuple[list[_Text], _Text]]:
        """Column texts, in column order, in blocks ``(lows, tail)``: each
        column of a block is one of ``lows`` followed by ``tail``.

        A column's text is its cells rendered by ``token`` and joined by
        ``sep``.  The column indices in ``drop`` are skipped; or, when
        ``keep`` is given, only its indices, which must be ascending, are
        yielded.  A block that keeps no column is not yielded.

        ``token`` is called once per row and polarity.  The cells of the
        low ⌊n/2⌋ rows of column j depend only on the low bits of j and
        the other cells only on the high bits, so each half is joined
        once per bit pattern, 2·2^⌈n/2⌉ joins in all.  Every token after
        row 0's carries ``sep`` in front, so a half's text is its tokens
        concatenated, and a half of no rows is the one empty text.
        There is one block per pattern of the high bits: ``tail`` is that
        pattern's high-half text, and ``lows`` is the low-half text of
        every pattern of the low bits.  With one row the low half has no
        rows, so ``lows`` is the one empty text and a block is one
        column.  Every block shares one ``lows`` list, copied only for a
        block that holds a dropped column, so callers must not change
        it.  A block of kept columns lists their low-half texts, picked
        by index, so its cost follows the kept columns, not the 2^⌊n/2⌋
        of the block.

        The blocks are only concatenated, so tokens of any type that
        ``+`` joins will do: the writers pass UTF-8 ``bytes``, and
        one-literal tuples with ``sep=()`` give the column tuples of the
        clause view.  Half-tables this process cannot allocate are a
        CapExceededError.
        """
        tokens = [(token(pos), token(neg)) for pos, neg in self._signs]
        # Every row after row 0 brings the separator before its cell.
        tokens = tokens[:1] + [(sep + pos, sep + neg) for pos, neg in tokens[1:]]
        h = len(tokens) // 2

        def half(pairs):
            # Entry m joins the cells these rows hold where the column's
            # bits read m: bit k picks row k's polarity.  No rows join to
            # sep * 0, the empty value of sep's type.
            joined = [sep * 0]
            for pos, neg in pairs:
                joined = [t + pos for t in joined] + [t + neg for t in joined]
            return joined

        try:
            lows, tails = half(tokens[:h]), half(tokens[h:])
        except MemoryError:
            # A raised level cap can ask for more than this process can hold.
            raise CapExceededError(
                f"the column blocks over {len(tokens)} rows need tables of 2**{h} and "
                f"2**{len(tokens) - h} texts, more than can be allocated"
            ) from None
        # Column j is lows[j % 2^h] + tails[j >> h].
        if keep is not None:
            for b, kept in groupby(keep, lambda j: j >> h):
                yield [lows[j % len(lows)] for j in kept], tails[b]
            return
        dropped: dict[int, set[int]] = {}
        for j in drop:
            dropped.setdefault(j >> h, set()).add(j & ((1 << h) - 1))
        for b, tail in enumerate(tails):
            gone = dropped.get(b)
            if gone is None:
                yield lows, tail
            elif len(gone) < len(lows):
                yield [low for m, low in enumerate(lows) if m not in gone], tail

    def clause_set(self) -> ClauseSet:
        return ColumnSet(self, frozenset())

    def __repr__(self) -> str:
        return f"Rectangle(n={self.n}, width={self.width})"


def _cell(lit: Literal) -> tuple[Literal]:
    """A literal as a one-cell column: the token the clause view joins."""
    return (lit,)


def _clause_tuple(view: ColumnSet, share: bool) -> tuple[Clause, ...]:
    """The view's Clauses, in column order.

    With ``share`` the view filters the rectangle's own tuple and shares
    its Clauses.  Otherwise it joins its own from its blocks of one-cell
    tuples, so a view that keeps its columns builds only theirs.  A
    tuple this process cannot allocate is a CapExceededError.
    """
    try:
        if share:
            drop = view.drop
            return tuple(c for j, c in enumerate(view.rect.clauses) if j not in drop)
        # Held here, the blocks are closed once the partial tuple is
        # freed, not while the process is still out of memory.
        blocks = view.blocks(_cell, ())
        return tuple(Clause(low + tail) for lows, tail in blocks for low in lows)
    except MemoryError:
        raise CapExceededError(
            f"the tuple of {_number(len(view))} clauses is more than can be allocated"
        ) from None


class ColumnSet(ClauseSet):
    """Some columns of a rectangle, in column order, as a clause set.

    The view holds either the columns it drops or the columns it keeps:
    with ``keep`` None it is every column but those in ``drop``, as
    ``remove_clauses`` and a theorem's premises give it; otherwise it is
    the columns in ``keep``, ascending, as a theorem's hypothesis holds
    them, and ``drop`` is None.

    The Clause tuple (``_clause_tuple``) is built only when the set is
    iterated, indexed or compared with a clause set that is not a view
    of an equal rectangle with the same ``keep``.  ``len`` and the hash
    need nothing built, ``blocks`` renders through
    ``Rectangle.column_blocks`` and ``masks`` reads the cell rule.  Two
    views of equal rectangles with the same ``keep`` are equal exactly
    when they drop the same columns: the generators' predicate symbols
    are pairwise distinct, so no two columns are equal clauses.  The
    fields are ``rect``, ``drop`` and ``keep``: pickle and ``copy``
    rebuild the view from them, so a copy has built no Clause.
    """

    __slots__ = ("rect", "drop", "keep", "_kept")

    def __init__(self, rect: Rectangle, drop: frozenset[int] | None, keep: tuple | None = None):
        _set(self, "rect", rect)
        _set(self, "drop", drop)
        _set(self, "keep", keep)
        _set(self, "_kept", None)

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._kept is None:
            # An empty view joins nothing rather than filter the whole tuple.
            _set(self, "_kept", _clause_tuple(self, share=self.keep is None and len(self) > 0))
        return self._kept

    def __len__(self) -> int:
        return len(self.keep) if self.drop is None else self.rect.width - len(self.drop)

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnSet) and self.rect == other.rect and self.keep == other.keep:
            return self.drop == other.drop
        return ClauseSet.__eq__(self, other)

    # Defining __eq__ clears the inherited hash; equal views have equal
    # lengths, so the length's hash agrees with __eq__.
    __hash__ = ClauseSet.__hash__

    def __getitem__(self, i):
        # One index builds one column's Clause from the cell rule; a slice
        # takes the Clause tuple.  A range reads negative indices and
        # IndexError as a tuple does.
        if isinstance(i, slice):
            return self.clauses[i]
        j = range(len(self))[i]
        if self.drop is None:
            j = self.keep[j]
        else:
            # Each dropped column at or below the j-th kept one moves it up.
            for gone in sorted(self.drop):
                if gone > j:
                    break
                j += 1
        return Clause(self.rect.column(j))

    def blocks(
        self, token: Callable[[Literal], AnyStr], sep: AnyStr, box: AnyStr | None = None
    ) -> Iterator[tuple[list[AnyStr], AnyStr]]:
        # Every column holds all n >= 1 rows, so no clause is empty and
        # ``box`` is never rendered.
        return self.rect.column_blocks(token, sep, self.drop or (), self.keep)

    def masks(self, max_atoms: int, index: dict[Atom, int] | None = None) -> Masks:
        """``ClauseSet.masks`` from the cell rule, building no Clause.

        Every column lists the n generators' atoms in row order, so atom
        i is generator i, and column j negates the atoms in ``flip ^ j``,
        where ``flip`` holds the negated generators, and holds the rest
        positive.  The masks are one pass, each pair computed from j as
        it is read.  The atom cap is checked on n before any mask is made.
        A view that keeps no column has no atoms, and only removing a
        one-column view's column renumbers them.  A given ``index`` that
        numbers generator i as i, as another view of an equal rectangle
        has just numbered them, keeps the cell rule; any other non-empty
        ``index`` takes the Clause route.

        >>> from rectatg import parse_generation_set
        >>> view = remove_clauses(Rectangle(parse_generation_set("p, ~q")), [0])
        >>> atoms, masks, firsts = view.masks(24)
        >>> [str(a) for a in atoms], list(masks), firsts
        (['p', 'q'], [(0, 3), (3, 0), (2, 1)], ())
        >>> ClauseSet(tuple(view)).masks(24)[1]
        [(0, 3), (3, 0), (2, 1)]
        """
        rect = self.rect
        atoms = [lit.atom for lit in rect.generators]
        if not len(self) or index and any(index.get(a) != i for i, a in enumerate(atoms)):
            return ClauseSet.masks(self, max_atoms, index)
        if rect.n > max_atoms:
            raise TooManyAtomsError(rect.n, max_atoms)
        firsts = (0,) if len(self) == 1 and not index else ()
        index = {} if index is None else index
        index.update((a, i) for i, a in enumerate(atoms))
        flip = sum(1 << i for i, lit in enumerate(rect.generators) if lit.negated)
        # A nonempty view that keeps its columns drops none.
        pos0, drop = (rect.width - 1) ^ flip, self.drop or ()
        masks = ((pos0 ^ j, flip ^ j) for j in self.keep or range(rect.width) if j not in drop)
        return tuple(index), masks, firsts


def construct_from_template(
    generators: GenerationSet, max_level: int = DEFAULT_MAX_LEVEL
) -> Rectangle:
    """The closed-form rectangle over the generators.

    Cell (i, j) is generator i where the level-n template marker is
    positive and its complement where the marker is "?", that is, where
    bit i of j is set.  Nothing is laid out until a view is asked for;
    the level cap is still checked here, by ``template._check_cap``,
    which also keeps 2**n an index-sized integer.
    """
    _check_cap(generators.n, max_level)
    return Rectangle(generators)


def _columns(indices: Iterable[int], width: int) -> list[int]:
    """The distinct column indices, ascending.  Each must be an integer,
    as ``operator.index`` reads it, in ``0..width-1``: the first
    non-integer given, else the smallest index out of range, is an
    IndexOutOfRangeError."""
    columns = sorted({_index(j, "column") for j in indices})
    if columns and (columns[0] < 0 or columns[-1] >= width):
        bad = next(j for j in columns if not 0 <= j < width)
        raise IndexOutOfRangeError(f"column {_number(bad)} not in 0..{width - 1}")
    return columns


def remove_clauses(rect: Rectangle, indices: Iterable[int]) -> ClauseSet:
    """Clause set left after deleting the given columns (duplicates ignored).

    Remaining clauses keep their original order.  Removing every column
    yields the empty clause set.  The result is a view of the rectangle:
    its clauses are built when it is first iterated.  The indices are
    checked by ``_columns``.
    """
    return ColumnSet(rect, frozenset(_columns(indices, rect.width)))
