import copy
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rectatg
from rectatg import (
    Clause,
    ClauseSet,
    IndexOutOfRangeError,
    Marker,
    Rectangle,
    SizeCapError,
    complementary,
    construct_from_template,
    generate_theorem,
    generate_theorem_with_partition,
    negate_literal,
    parse_generation_set,
    polarity_at,
    remove_clauses,
)

from conftest import (
    construct_naive,
    grid_clauses,
    lit,
    random_generation_set,
    replace,
    validate_generation_set,
)


def test_single_literal_rectangle():
    g = parse_generation_set("p")
    rect, rows = construct_from_template(g), construct_naive(g)
    assert rect.rows == rows == ((lit("p"), lit("p", True)),)
    for clauses in (rect.clauses, grid_clauses(rows)):
        assert [str(c) for c in clauses] == ["p", "¬p"]


def test_two_literal_rectangle_columns():
    want = [("p", "q"), ("¬p", "q"), ("p", "¬q"), ("¬p", "¬q")]
    g = parse_generation_set("p,q")
    rect = construct_from_template(g)
    for columns in ([rect.column(j) for j in range(4)], list(zip(*construct_naive(g)))):
        assert [tuple(str(l) for l in column) for column in columns] == want


def test_negated_generator_first_cell_keeps_its_polarity():
    g = parse_generation_set("~p")
    assert construct_from_template(g).rows == construct_naive(g) == ((lit("p", True), lit("p")),)


def test_column_zero_is_the_generation_clause():
    g = parse_generation_set("P1(a), ~P2(f(x)), P3(g(y,a))")
    rect, rows = construct_from_template(g), construct_naive(g)
    assert rect.column(0) == tuple(row[0] for row in rows) == tuple(g)
    assert rect.clauses[0] == grid_clauses(rows)[0] == Clause(g)


def test_routes_agree_on_random_sets():
    rng = random.Random(20417)
    for _ in range(30):
        g = random_generation_set(rng, max_n=6)
        rows = construct_naive(g)
        rect = construct_from_template(g)
        assert rows == rect.rows
        assert grid_clauses(rows) == rect.clauses
        assert rect == construct_from_template(g)


@pytest.mark.parametrize("n", range(1, 6))
def test_grid_matches_closed_form_polarity(n):
    g = validate_generation_set([lit(f"p{i}") for i in range(n)])
    rect = construct_from_template(g)
    for i in range(n):
        for j in range(1 << n):
            positive = polarity_at(i + 1, j, n) is Marker.POSITIVE
            want = g[i] if positive else negate_literal(g[i])
            assert rect.rows[i][j] == want


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_block_rule_matches_doubling_and_closed_form(rng):
    g = random_generation_set(rng, max_n=8)
    rect = construct_from_template(g)
    # Columns are read off the generators, before any row is laid out.
    for j in range(rect.width):
        assert rect.column(j) == tuple(
            lit if polarity_at(i + 1, j, g.n) is Marker.POSITIVE else negate_literal(lit)
            for i, lit in enumerate(g)
        )
    assert rect._rows is None
    assert rect.rows == construct_naive(g)
    for i, row in enumerate(rect.rows):
        neg = negate_literal(g[i])
        for j, cell in enumerate(row):
            positive = polarity_at(i + 1, j, g.n) is Marker.POSITIVE
            assert cell == (g[i] if positive else neg)
        # Each row reuses one literal object per polarity.
        assert len({id(cell) for cell in row}) == 2


@pytest.mark.parametrize("n", range(1, 5))
def test_clauses_are_distinct_and_clash_free(n):
    g = validate_generation_set([lit(f"p{i}", i % 2 == 1) for i in range(n)])
    rect = construct_from_template(g)
    assert len(set(rect.clauses)) == 1 << n
    for clause in rect.clauses:
        lits = clause.literals
        assert len(lits) == n
        assert not any(
            complementary(a, b) for a in lits for b in lits
        )


def test_clause_view_is_the_column_projection():
    rect = construct_from_template(parse_generation_set("p, q, r"))
    for j in range(rect.width):
        assert rect.clauses[j].literals == rect.column(j)
    assert rect.clause_set() == ClauseSet(rect.clauses)


def test_remove_single_clause():
    rect = construct_from_template(parse_generation_set("p,q"))
    rest = remove_clauses(rect, {0})
    assert [str(c) for c in rest] == ["¬p ∨ q", "p ∨ ¬q", "¬p ∨ ¬q"]


def test_remove_everything_and_nothing():
    rect = construct_from_template(parse_generation_set("p,q"))
    assert remove_clauses(rect, range(4)) == ClauseSet()
    assert remove_clauses(rect, ()) == rect.clause_set()
    assert remove_clauses(rect, (1, 1, 1)) == remove_clauses(rect, (1,))


def test_remove_index_out_of_range():
    rect = construct_from_template(parse_generation_set("p,q"))
    with pytest.raises(IndexOutOfRangeError):
        remove_clauses(rect, (4,))
    with pytest.raises(IndexOutOfRangeError):
        remove_clauses(rect, (-1,))
    with pytest.raises(IndexOutOfRangeError):
        rect.column(4)
    with pytest.raises(IndexOutOfRangeError):
        rect.column(-1)


@pytest.mark.parametrize(
    "indices, error",
    (([9, 7], "column 7 not in 0..3"), ([-2, 9, -1], "column -2 not in 0..3"),
     (["3"], "column '3' is not an integer"), ([1.5], "column 1.5 is not an integer"),
     ([9, "3", 1.5], "column '3' is not an integer"),
     ([2**64], "column 18446744073709551616 not in 0..3"),
     # Too long to print: named by a power of two, not CPython's
     # int-to-str ValueError.
     ([10**5000], "column ≥ 2**16609 not in 0..3"),
     ([2, -10**5000], "column ≤ -2**16609 not in 0..3")),
)
def test_every_entry_point_names_the_same_bad_column(indices, error):
    g = parse_generation_set("p,q")
    rect = construct_from_template(g)
    calls = [lambda: remove_clauses(rect, indices),
             lambda: generate_theorem_with_partition(g, indices),
             # Index errors come before the level cap.
             lambda: generate_theorem_with_partition(g, indices, max_level=1)]
    if len(indices) == 1:
        calls.append(lambda: rect.column(indices[0]))
    for call in calls:
        with pytest.raises(IndexOutOfRangeError) as info:
            call()
        assert str(info.value) == error


class Column:
    """Not an int, but an integer index all the same."""

    def __init__(self, j):
        self.j = j

    def __index__(self):
        return self.j


@pytest.mark.parametrize("bad", (1.5, 1.0, "1", None))
def test_remove_refuses_column_indices_that_are_not_integers(bad):
    # A float used to land in the view's drop set: len counted it while
    # every column stayed, so the view held 4 clauses but claimed 3.
    rect = construct_from_template(parse_generation_set("p,q"))
    with pytest.raises(IndexOutOfRangeError):
        remove_clauses(rect, [0, bad])
    view = remove_clauses(rect, [Column(1), True])
    assert view.drop == {1} and len(view) == len(tuple(view)) == 3


def test_materialization_cap_for_both_routes():
    g = parse_generation_set("p, q, r")
    with pytest.raises(SizeCapError):
        construct_naive(g, max_level=2)
    with pytest.raises(SizeCapError):
        construct_from_template(g, max_level=2)
    construct_naive(g, max_level=3)


def test_shape_properties():
    rect = construct_from_template(parse_generation_set("w,x,y,z"))
    assert rect.n == 4
    assert rect.width == 16
    assert len(rect.clause_set()) == 16


def _drops(data, width):
    return frozenset(data.draw(st.lists(st.integers(0, width - 1), max_size=width)))


@pytest.mark.parametrize("first_order", (False, True))
@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_closed_form_column_blocks_match_explicit_rows(first_order, rng, data):
    g = random_generation_set(rng, max_n=8, first_order=first_order)
    closed, rows = construct_from_template(g), construct_naive(g)
    drop = _drops(data, closed.width)
    for token, sep in ((str, " ∨ "), (repr, ""), (lambda l: str(l.negated), "|")):
        want = [sep.join(map(token, col)) for j, col in enumerate(zip(*rows)) if j not in drop]
        assert len(want) == closed.width - len(drop)
        # The blocks flatten to the same texts; none is empty, and the
        # blocks that drop nothing share one low-half list.
        blocks = list(closed.column_blocks(token, sep, drop))
        assert [low + tail for lows, tail in blocks for low in lows] == want
        assert all(lows for lows, _ in blocks)
        full = [lows for lows, _ in blocks if len(lows) == 1 << (closed.n // 2)]
        assert all(lows is full[0] for lows in full)
    assert closed._rows is None and closed._clauses is None
    assert closed.rows == rows


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_column_view_matches_the_clause_tuple(rng, data):
    g = random_generation_set(rng, max_n=6)
    rect = construct_from_template(g)
    drop = _drops(data, rect.width)
    view = remove_clauses(rect, drop)
    assert len(view) == rect.width - len(drop)
    assert view._kept is None and rect._clauses is None
    want = tuple(c for j, c in enumerate(grid_clauses(construct_naive(g))) if j not in drop)
    assert view.clauses == want
    assert [c.literals for c in view] == [c.literals for c in want]
    # Clauses already built by the rectangle are shared, not rebuilt.
    built = [c for j, c in enumerate(rect.clauses) if j not in drop]
    again = remove_clauses(rect, drop)
    assert len(again.clauses) == len(built)
    assert all(a is b for a, b in zip(again.clauses, built))


def test_closed_form_builds_nothing_until_asked():
    rect = construct_from_template(parse_generation_set("p, ~q, R(f(X))"))
    assert rect._rows is None and rect._clauses is None
    assert rect.n == 3 and rect.width == 8
    assert rect.column(5) == tuple(row[5] for row in construct_naive(rect.generators))
    assert rect._rows is None and rect._clauses is None


def test_closed_forms_compare_and_hash_without_laying_out_rows():
    g = parse_generation_set(", ".join(f"p{i:02d}" for i in range(20)))
    a, b = construct_from_template(g), construct_from_template(g)
    assert a == b and hash(a) == hash(b)
    assert a._rows is None and b._rows is None
    other = construct_from_template(parse_generation_set("p00, ~p01"))
    assert a != other and other != a



def test_equal_theorems_compare_without_building_their_clauses():
    # Comparing the two views clause by clause would build both
    # rectangles' 16384 Clause objects, tens of MiB at n=14.
    g = parse_generation_set(", ".join(f"p{i}" for i in range(14)))
    t1 = generate_theorem_with_partition(g, (0, 5, 9000))
    t2 = generate_theorem_with_partition(g, (9000, 5, 0))
    assert t1.premises.rect is not t2.premises.rect
    tracemalloc.start()
    try:
        equal = t1 == t2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert equal
    assert peak < 1 << 20, peak
    assert t1.premises._kept is None and t1.premises.rect._clauses is None
    assert t1 != generate_theorem_with_partition(g, (0, 5, 9001))


@pytest.mark.parametrize("text", ("p, ~q, r", "P(f(X)), ~Q(a, Y), x = f(b)"))
def test_column_views_compare_by_their_drops_and_as_clause_sets(text):
    rect = construct_from_template(parse_generation_set(text))
    other = construct_from_template(parse_generation_set(text))
    for drop in ((), (1,), (0, 7), tuple(range(8))):
        view = remove_clauses(rect, drop)
        plain = ClauseSet(grid_clauses(construct_naive(rect.generators)))
        plain = ClauseSet(c for j, c in enumerate(plain) if j not in drop)
        assert view == remove_clauses(other, reversed(drop))
        assert view == plain and plain == view
        assert hash(view) == hash(plain) == hash(remove_clauses(other, drop))
        assert view != ClauseSet(reversed(plain.clauses)) or len(plain) < 2
    assert remove_clauses(rect, ()) == rect.clause_set()
    assert remove_clauses(rect, (1,)) != remove_clauses(other, (2,))
    assert remove_clauses(rect, (1,)) != remove_clauses(other, (1, 2))
    assert remove_clauses(rect, ()) != remove_clauses(rect, range(8))
    # Views of unequal rectangles compare clause by clause.
    flipped = construct_from_template(parse_generation_set("~p, ~q, r"))
    if text == "p, ~q, r":
        # The same clauses in another order are not an equal clause set.
        assert remove_clauses(rect, ()) != flipped.clause_set()
        assert set(rect.clauses) == set(flipped.clauses)


def _names(n: int) -> str:
    return ", ".join(f"p{i}" for i in range(n))


def test_a_rectangle_is_a_value_of_its_generators():
    assert "__eq__" not in vars(Rectangle) and "__hash__" not in vars(Rectangle)
    assert Rectangle.__match_args__ == ("generators",)
    rect = construct_from_template(parse_generation_set("p, ~q"))
    assert hash(rect) == hash((rect.generators,))
    assert rect != rect.generators and rect.__eq__(rect.generators) is NotImplemented
    assert repr(rect) == "Rectangle(n=2, width=4)"
    assert replace(rect, generators=parse_generation_set("a")) == Rectangle(parse_generation_set("a"))
    match rect:
        case Rectangle(generators):
            assert generators == parse_generation_set("p, ~q")
        case _:
            pytest.fail("no match")


def test_a_rectangle_cannot_be_changed():
    # Assigning generators once left width 8 next to two-cell columns.
    rect = construct_from_template(parse_generation_set("p, q"))
    assert len(rect.clauses) == 4 and len(rect.rows) == 2
    for name in ("generators", "_signs", "_rows", "_clauses", "extra"):
        with pytest.raises(AttributeError):
            setattr(rect, name, parse_generation_set("a, b, c"))
        with pytest.raises(AttributeError):
            delattr(rect, name)
    assert rect.generators == parse_generation_set("p, q")
    assert rect.width == 4 and len(rect.column(0)) == 2 and len(rect.clauses) == 4


@pytest.mark.parametrize("hypothesis", ((0,), (0, 5, 9000)))
def test_hashing_a_theorem_builds_no_clause(hypothesis):
    # Hashing the premises' Clause tuple once took 6.9 s at n=18.
    g = parse_generation_set(_names(18))
    theorem = generate_theorem_with_partition(g, hypothesis)
    assert hash(theorem) == hash(generate_theorem_with_partition(g, hypothesis))
    assert theorem.premises.rect._clauses is None and theorem.premises.rect._rows is None
    assert theorem.premises._kept is None and theorem.hypothesis_clauses._kept is None
    assert hash(generate_theorem(g)) == hash(generate_theorem(g))
    assert generate_theorem(g).premises._kept is None


def test_a_built_rectangle_pickles_and_copies_by_its_generators():
    theorem = generate_theorem(parse_generation_set(_names(16)))
    rect = theorem.premises.rect
    # Fill every cache: pickles held them whole, 9.9 MB at n=16.
    assert len(rect.clauses) == len(rect.rows[0]) == len(theorem.premises.clauses) + 1
    data = pickle.dumps(theorem)
    assert len(data) < 2048, len(data)
    for again in (pickle.loads(data), copy.copy(theorem), copy.deepcopy(theorem)):
        assert again == theorem and hash(again) == hash(theorem)
    for again in (pickle.loads(pickle.dumps(rect)), copy.copy(rect), copy.deepcopy(rect)):
        assert type(again) is Rectangle and again == rect and hash(again) == hash(rect)
        assert again._clauses is None and again._rows is None
        assert again.column(5) == rect.column(5)


def _run_limited(code: str, mib: int) -> subprocess.CompletedProcess:
    """Run ``code`` in a child that may map ``mib`` MiB, so what cannot be
    allocated fails there and not on the machine."""

    def limit():
        import resource

        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, hard))

    env = dict(os.environ, PYTHONPATH=str(Path(rectatg.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, preexec_fn=limit, timeout=120)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds mmap on Linux")
def test_hashing_a_theorem_needs_none_of_its_clauses():
    # At n=20 the premises' Clause tuple does not fit in 512 MiB.
    done = _run_limited(
        "from rectatg import generate_theorem, parse_generation_set\n"
        f"t = generate_theorem(parse_generation_set({_names(20)!r}))\n"
        "print(hash(t) == hash(t), t.premises._kept, t.premises.rect._clauses)\n",
        512,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True None None\n", "")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds mmap on Linux")
def test_printing_a_theorem_needs_none_of_its_clauses():
    # A view prints by its fields: at n=20 neither side, nor the negated
    # conjunction over the hypothesis view, builds a Clause.
    done = _run_limited(
        "import time\n"
        "from rectatg import generate_theorem_with_partition, parse_generation_set\n"
        f"t = generate_theorem_with_partition(parse_generation_set({_names(20)!r}), (1000, 0, 5))\n"
        "start = time.perf_counter()\n"
        "shown = repr(t), str(t.premises), repr(t.conclusion)\n"
        "print(time.perf_counter() - start < 1, type(t.conclusion).__name__,\n"
        "      t.premises._kept, t.hypothesis_clauses._kept, t.premises.rect._clauses)\n"
        "print(shown[1])\n"
        "print(shown[2])\n",
        512,
    )
    rect, drop = "Rectangle(n=20, width=1048576)", frozenset({0, 5, 1000})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "True NegatedConjunction None None None",
        f"ColumnSet(rect={rect}, drop={drop!r}, keep=None)",
        f"NegatedConjunction(clauses=ColumnSet(rect={rect}, drop=None, keep=(0, 5, 1000)))",
    ]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds mmap on Linux")
def test_a_clause_tuple_the_process_cannot_allocate_is_a_cap_error():
    # 2^20 Clauses of 20 literals need about 280 MiB.
    done = _run_limited(
        "from rectatg import CapExceededError, construct_from_template, parse_generation_set\n"
        f"rect = construct_from_template(parse_generation_set({_names(20)!r}))\n"
        "try:\n"
        "    rect.clauses\n"
        "except CapExceededError as exc:\n"
        "    print(exc, rect._clauses)\n",
        256,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "the tuple of 1048576 clauses is more than can be allocated None\n"
