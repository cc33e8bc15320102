"""The template's and the rectangle's rows are views over the cell rule.

Each view must behave as the tuple of its cells that the level-by-level
doubling construction (``conftest.construct_naive``) and the block
oracle (``conftest.polarity_oracle_positive``) lay out, and reading one
must lay out no row, so a level-24 template fits in a small process.
"""

import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectatg import (
    IndexOutOfRangeError,
    InvalidLevelError,
    Marker,
    PolarityTemplate,
    SizeCapError,
    construct_from_template,
    make_template,
    polarity_at,
)

from conftest import construct_naive, polarity_oracle_positive, random_generation_set
from test_rectangle import _names, _run_limited


def _tuple_template(n):
    """The level-n template with tuple rows, from the block oracle."""
    signs = (Marker.NEGATIVE, Marker.POSITIVE)
    return PolarityTemplate(n, tuple(
        tuple(signs[polarity_oracle_positive(i, j)] for j in range(1 << n))
        for i in range(1, n + 1)
    ))


def _check_view(view, want, other):
    """``view`` behaves as the tuple ``want``; ``other`` is a view of
    the same length with other cells, or None."""
    width = len(want)
    assert len(view) == width and tuple(view) == want and list(reversed(view)) == list(want[::-1])
    for j in (0, 1, width // 3, width - 1, -1, -width):
        assert view[j] == want[j]
    for cut in (slice(None), slice(1, None, 2), slice(None, None, -3), slice(-5, 2), slice(width, None)):
        assert type(view[cut]) is tuple and view[cut] == want[cut]
    for j in (width, -width - 1):
        with pytest.raises(IndexError):
            view[j]
    assert view == want and want == view and not view != want
    assert view == view and copy.copy(view) == view
    assert view != want[:-1] and want[:-1] != view and view != list(want)
    if other is not None:
        assert view != other and other != view and view != tuple(other)
    assert hash(view) == hash(want) and repr(view) == repr(want)
    for again in (pickle.loads(pickle.dumps(view)), copy.copy(view), copy.deepcopy(view)):
        assert type(again) is type(view) and again == want and hash(again) == hash(want)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8))
def test_template_rows_are_the_tuples_they_replace(n):
    view, built = make_template(n), _tuple_template(n)
    for i, row in enumerate(view.rows):
        _check_view(row, built.rows[i], view.rows[i - 1] if n > 1 else None)
    assert view.rows == built.rows and built.rows == view.rows
    assert view == built and built == view and hash(view) == hash(built)
    assert repr(view) == repr(built)
    for again in (pickle.loads(pickle.dumps(view)), copy.copy(view), copy.deepcopy(view)):
        assert again == built and hash(again) == hash(built) and repr(again) == repr(built)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_rectangle_rows_are_the_tuples_they_replace(seed, n):
    generators = random_generation_set(random.Random(seed), max_n=n)
    rows, naive = construct_from_template(generators).rows, construct_naive(generators)
    assert rows == naive and naive == rows
    for i, row in enumerate(rows):
        _check_view(row, naive[i], rows[i - 1] if len(rows) > 1 else None)


def test_repr_of_a_small_template_is_unchanged():
    assert repr(make_template(2)) == (
        "PolarityTemplate(level=2, rows=("
        "(<Marker.POSITIVE: '!'>, <Marker.NEGATIVE: '?'>, <Marker.POSITIVE: '!'>, <Marker.NEGATIVE: '?'>), "
        "(<Marker.POSITIVE: '!'>, <Marker.POSITIVE: '!'>, <Marker.NEGATIVE: '?'>, <Marker.NEGATIVE: '?'>)))"
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds mmap on Linux")
@pytest.mark.parametrize("rows, cells", [
    ("make_template(24).rows", "Marker.POSITIVE Marker.NEGATIVE Marker.POSITIVE Marker.NEGATIVE"),
    (f"construct_from_template(parse_generation_set({_names(24)!r})).rows", "p0 ¬p0 p23 ¬p23"),
], ids=["template", "rectangle"])
def test_level_24_rows_lay_out_no_grid(rows, cells):
    # Laid out, either grid holds 24 * 2**24 cells: over 3 GiB of pointers.
    done = _run_limited(
        "from rectatg import construct_from_template, make_template, parse_generation_set\n"
        f"rows = {rows}\n"
        "print(len(rows), len(rows[0]), *map(str, (rows[0][0], rows[0][-1], rows[-1][0], rows[-1][-1])))\n",
        1024,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, f"24 {1 << 24} {cells}\n", "")


def test_template_levels_stop_at_the_index_size():
    top = sys.maxsize.bit_length() - 1
    with pytest.raises(SizeCapError) as refused:
        make_template(63, max_level=100)
    assert (refused.value.n, refused.value.cap) == (63, top)
    assert len(make_template(top, max_level=top).rows[-1]) == 1 << top


@pytest.mark.parametrize("args, message", [
    ((1.5, 0, 3), "row 1.5 is not an integer"),
    ((1, 0.0, 3), "column 0.0 is not an integer"),
    (("1", 0, 3), "row '1' is not an integer"),
    ((1, 10**5000, 3), "column ≥ 2**16609 not in 0..7"),
])
def test_polarity_at_refuses_what_is_not_a_cell(args, message):
    with pytest.raises(IndexOutOfRangeError) as refused:
        polarity_at(*args)
    assert str(refused.value) == message


def test_polarity_at_has_no_upper_bound_on_the_level():
    assert polarity_at(2, 5, 2**70) is Marker.POSITIVE
    assert polarity_at(3, 5, 2**70) is Marker.NEGATIVE
    with pytest.raises(IndexOutOfRangeError, match=r"column -1 not in 0\.\.2\*\*1180591620717411303424 - 1"):
        polarity_at(1, -1, 2**70)
    with pytest.raises(InvalidLevelError, match=r"got ≤ -2\*\*16609$"):
        polarity_at(1, 0, -10**5000)
