"""Polarity templates: the sign pattern behind every rectangle.

A level-n template is an n by 2**n grid of markers.  Row i alternates
blocks of width 2**(i-1), positive block first, so the columns run
through all 2**n sign patterns exactly once, in binary-counter order.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Sequence, TypeVar

from .errors import IndexOutOfRangeError, InvalidLevelError, SizeCapError
from .logic import _set, _Value

# Past level 24 the grid would exceed 4e8 cells; callers can lower (or,
# at their own risk, raise) the cap per call.
DEFAULT_MAX_LEVEL = 24

_Row = TypeVar("_Row", bound=Sequence)


class Marker(Enum):
    POSITIVE = "!"
    NEGATIVE = "?"

    @property
    def char(self) -> str:
        return self.value


class PolarityTemplate(_Value):
    __slots__ = ("level", "rows")

    def __init__(self, level: int, rows: tuple[tuple[Marker, ...], ...]):
        _set(self, "level", level)
        _set(self, "rows", rows)

    @property
    def width(self) -> int:
        return 1 << self.level


def _check_level(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidLevelError(f"level must be a positive integer, got {n!r}")


def _sign_rows(n: int, signs: Iterable[tuple[_Row, _Row]]) -> Iterator[_Row]:
    """The level-n sign layout, one row at a time, from one pair of cells per row.

    Row i (0-based) is 2**i positives then 2**i negatives, repeated
    across the 2**n columns.  Each cell is a one-cell sequence, so
    one-item tuples lay out tuples and characters lay out strings.
    """
    for i, (pos, neg) in enumerate(signs):
        yield (pos * (1 << i) + neg * (1 << i)) * (1 << (n - 1 - i))


def make_template(n: int, max_level: int = DEFAULT_MAX_LEVEL) -> PolarityTemplate:
    """Build the level-n template of markers."""
    _check_level(n)
    if n > max_level:
        raise SizeCapError(n, max_level)
    pair = ((Marker.POSITIVE,), (Marker.NEGATIVE,))
    return PolarityTemplate(n, tuple(_sign_rows(n, (pair,) * n)))


def polarity_at(row: int, column: int, level: int) -> Marker:
    """Marker at (row, column) of the level-n template, without building it.

    Rows are 1-based, columns 0-based.  The marker is positive exactly
    when bit (row - 1) of the column index is clear, which is the closed
    form of the block pattern _sign_rows lays out.  There is no upper
    bound on the level here.
    """
    _check_level(level)
    if not 1 <= row <= level:
        raise IndexOutOfRangeError(f"row {row} not in 1..{level}")
    if not 0 <= column < (1 << level):
        raise IndexOutOfRangeError(f"column {column} not in 0..{(1 << level) - 1}")
    return Marker.NEGATIVE if (column >> (row - 1)) & 1 else Marker.POSITIVE


def render_template(template: PolarityTemplate) -> str:
    """Dump format: one line per row, markers separated by single spaces."""
    return "\n".join(" ".join(m.char for m in row) for row in template.rows)
