"""Polarity templates: the sign pattern behind every rectangle.

A level-n template is an n by 2**n grid of markers.  Row i alternates
blocks of width 2**(i-1), positive block first, so the columns run
through all 2**n sign patterns exactly once, in binary-counter order.
The grid is never laid out: each row is a ``_Row`` view that reads a
cell from the cell rule when it is asked for, and ``Rectangle.rows``
reads its literals through the same view.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Sequence
from enum import Enum

from .errors import IndexOutOfRangeError, InvalidLevelError, SizeCapError, _number
from .logic import _set, _Value

# A level caps what its outputs cost: a rendered level-24 template or
# rectangle has n * 2**n, about 4e8, cells.  Callers can lower (or, at
# their own risk, raise) the cap per call.
DEFAULT_MAX_LEVEL = 24


class Marker(Enum):
    POSITIVE = "!"
    NEGATIVE = "?"

    @property
    def char(self) -> str:
        return self.value


class PolarityTemplate(_Value):
    __slots__ = ("level", "rows")

    def __init__(self, level: int, rows: tuple[Sequence[Marker], ...]):
        _set(self, "level", level)
        _set(self, "rows", rows)

    @property
    def width(self) -> int:
        return 1 << self.level


def _check_level(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        shown = _number(n) if isinstance(n, int) else repr(n)
        raise InvalidLevelError(f"level must be a positive integer, got {shown}")


def _check_cap(n: int, max_level: int) -> None:
    """Refuse a level past ``max_level``, or past the index size: 2**n
    must be an index-sized integer, as ``len`` and ``range`` need, so the
    cap is never above 62 on a 64-bit build (``sys.maxsize``)."""
    cap = min(max_level, sys.maxsize.bit_length() - 1)
    if n > cap:
        raise SizeCapError(n, cap)


class _Row(_Value, Sequence):
    """Row i of a level-n sign layout, read from the cell rule.

    Cell j is ``pair[j >> i & 1]``: the first of the pair where bit i of
    j is clear, the second where it is set.  A slice is a tuple.  The
    row compares (with tuples and rows), hashes and prints as the tuple
    of its cells; pickle and ``copy`` keep it a view.  The fields fix
    every cell, so two rows with equal fields are equal without a cell
    read.
    """

    __slots__ = ("pair", "i", "n")

    def __init__(self, pair: tuple, i: int, n: int):
        _set(self, "pair", pair)
        _set(self, "i", i)
        _set(self, "n", n)

    def __len__(self) -> int:
        return 1 << self.n

    def __getitem__(self, j):
        # A range reads negative indices, slices and IndexError as a tuple does.
        js = range(len(self))[j]
        return tuple(self._cells(js)) if isinstance(js, range) else self.pair[js >> self.i & 1]

    def __iter__(self):
        return self._cells(range(len(self)))

    def _cells(self, js):
        return (self.pair[j >> self.i & 1] for j in js)

    def __eq__(self, other):
        if other.__class__ is _Row and self._fields(self) == other._fields(other):
            return True
        if isinstance(other, (tuple, _Row)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    # Defining __eq__ clears the inherited hash.  A row hashes as the
    # tuple of its cells, read once and kept in _hash.
    __hash__ = _Value.__hash__
    _hashed = staticmethod(tuple)

    def __repr__(self) -> str:
        return repr(tuple(self))


def make_template(n: int, max_level: int = DEFAULT_MAX_LEVEL) -> PolarityTemplate:
    """The level-n template of markers, one ``_Row`` view per row."""
    _check_level(n)
    _check_cap(n, max_level)
    pair = (Marker.POSITIVE, Marker.NEGATIVE)
    return PolarityTemplate(n, tuple(_Row(pair, i, n) for i in range(n)))


def _index(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise IndexOutOfRangeError(f"{name} {value!r} is not an integer") from None


def polarity_at(row: int, column: int, level: int) -> Marker:
    """Marker at (row, column) of the level-n template, without building it.

    Rows are 1-based, columns 0-based.  The marker is positive exactly
    when bit (row - 1) of the column index is clear, the cell rule that
    each row of ``make_template`` reads.  There is no upper bound on the
    level here.  A row or column that is not an integer, as
    ``operator.index`` reads it, or is out of range is an
    IndexOutOfRangeError.
    """
    _check_level(level)
    row, column = _index(row, "row"), _index(column, "column")
    if not 1 <= row <= level:
        raise IndexOutOfRangeError(f"row {_number(row)} not in 1..{_number(level)}")
    if column < 0 or column >> level:
        # Past an index-sized width the last column is named by its formula.
        last = _number((1 << level) - 1) if level < 64 else f"2**{_number(level)} - 1"
        raise IndexOutOfRangeError(f"column {_number(column)} not in 0..{last}")
    return Marker.NEGATIVE if (column >> (row - 1)) & 1 else Marker.POSITIVE


def render_template(template: PolarityTemplate) -> str:
    """Dump format: one line per row, markers separated by single spaces."""
    return "\n".join(" ".join(m.char for m in row) for row in template.rows)
