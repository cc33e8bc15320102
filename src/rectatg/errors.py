"""Exception hierarchy shared across the package.

Everything raised on purpose derives from RectAtgError.  Resource-cap
violations get their own branch (CapExceededError) so callers can tell
"your input is wrong" apart from "your input is too big for the
configured bounds".
"""

from __future__ import annotations


class RectAtgError(Exception):
    """Base class for all errors raised by this package."""


class EmptyClauseError(RectAtgError):
    """The empty clause has no negation."""


class ParseError(RectAtgError):
    """Literal or generation-set text violates the grammar.

    Carries the character offset where parsing stopped and a short
    description of what was expected there.
    """

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        detail = f", found {found!r}" if found else ""
        super().__init__(f"at position {position}: expected {expected}{detail}")


class EmptySetError(RectAtgError):
    """A generation set needs at least one literal."""


class DuplicatePredicateError(RectAtgError):
    """Two generation literals share a predicate or proposition symbol.

    Positions are 1-based indices into the generation set.
    """

    def __init__(self, symbol: str, first: int, second: int):
        self.symbol = symbol
        self.first = first
        self.second = second
        super().__init__(
            f"duplicate predicate symbol {symbol!r} at positions {first} and {second}"
        )


class InvalidLevelError(RectAtgError):
    """Template level must be a positive integer."""


class IndexOutOfRangeError(RectAtgError):
    """A row or column index fell outside the structure being addressed."""


class EmptyHypothesisError(RectAtgError):
    """A theorem partition must move at least one clause to the hypothesis side."""


class UnnumberedAtomError(RectAtgError):
    """An atom in the clause set has no entry in the supplied numbering."""


class SchemaMismatchError(RectAtgError):
    """A theorem record declares a schema version this build does not read."""


class MalformedRecordError(RectAtgError):
    """A theorem record is unreadable or inconsistent with its provenance."""


def _number(value: int) -> str:
    """``value`` in decimal, or, past CPython's int-to-str digit limit,
    by its power of two: ``≥ 2**N``, or ``≤ -2**N`` when negative."""
    try:
        return str(value)
    except ValueError:
        return f"{'≤ -' if value < 0 else '≥ '}2**{value.bit_length() - 1}"


class CapExceededError(RectAtgError):
    """Base class for configurable resource-bound violations."""


class SizeCapError(CapExceededError):
    """Materializing the structure would exceed the level cap."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"level {_number(n)} exceeds the materialization cap {_number(cap)}")


class TooManyAtomsError(CapExceededError):
    """Truth-table enumeration refuses clause sets over too many atoms."""

    def __init__(self, count: int, bound: int):
        self.count = count
        self.bound = bound
        super().__init__(
            f"{_number(count)} distinct atoms exceed the enumeration bound {_number(bound)}"
        )


class ProductTooLargeError(CapExceededError):
    """The one-literal-per-clause product is too large to enumerate;
    ``size`` is the first partial product past the bound."""

    def __init__(self, size: int, bound: int):
        self.size = size
        self.bound = bound
        super().__init__(
            f"product of clause widths {_number(size)} exceeds the bound {_number(bound)}"
        )
