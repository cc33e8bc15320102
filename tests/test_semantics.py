import itertools
import pickle
import tracemalloc
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rectatg import (
    CapExceededError,
    Clause,
    ClauseSet,
    Constant,
    EMPTY_CLAUSE,
    Literal,
    Pred,
    ProductTooLargeError,
    Prop,
    Rectangle,
    SatResult,
    SizeCapError,
    Variable,
    TooManyAtomsError,
    check_minimality,
    collect_atoms,
    construct_from_template,
    entails,
    generate_theorem,
    generate_theorem_with_partition,
    is_satisfiable,
    is_standard_contradiction,
    parse_generation_set,
    remove_clauses,
    verify_theorem,
)
from rectatg import semantics

from conftest import (
    clause,
    clause_set,
    construct_naive,
    evaluates_true,
    grid_clauses,
    implication_is_tautology,
    lit,
    random_clause_set,
    random_generation_set,
    replace,
    sat_oracle_direct,
    sat_oracle_sweep,
    satisfies,
    sc_oracle_naive,
    validate_generation_set,
)


def rect_for(text):
    return construct_from_template(parse_generation_set(text))


def test_empty_clause_set_is_satisfiable_with_empty_witness():
    result = is_satisfiable(ClauseSet())
    assert result.satisfiable
    assert result.verdict == "SAT"
    assert result.witness == {}


def test_set_with_empty_clause_is_unsatisfiable():
    result = is_satisfiable(ClauseSet([EMPTY_CLAUSE]))
    assert not result.satisfiable
    assert result.witness is None
    assert result.verdict == "UNSAT"


def test_clashing_units_unsatisfiable():
    assert not is_satisfiable(clause_set(clause("p"), clause("~p"))).satisfiable


def test_witness_is_the_first_assignment_in_sweep_order():
    # Atoms are numbered by first appearance and assignments tried in
    # increasing index, so {p: True, q: False} comes before any other
    # satisfying assignment of (p | q).
    result = is_satisfiable(clause_set(clause("p", "q")))
    assert result.witness == {Prop("p"): True, Prop("q"): False}


def test_rectangle_minus_generation_clause_has_all_false_witness():
    rect = rect_for("p, q, r")
    rest = remove_clauses(rect, (0,))
    result = is_satisfiable(rest)
    assert result.satisfiable
    assert result.witness == {Prop("p"): False, Prop("q"): False, Prop("r"): False}
    assert evaluates_true(result.witness, rest)


@pytest.mark.parametrize("n", range(1, 5))
def test_full_rectangles_are_unsatisfiable(n):
    rect = rect_for(", ".join(f"p{i}" for i in range(n)))
    assert not is_satisfiable(rect.clause_set()).satisfiable


def test_verdicts_agree_with_direct_oracle_on_random_sets():
    rng = random.Random(5521)
    for _ in range(200):
        s = random_clause_set(rng)
        got = is_satisfiable(s)
        want = sat_oracle_direct(s)
        assert got.satisfiable == (want is not None)
        if got.satisfiable:
            assert evaluates_true(got.witness, s)


def test_atom_enumeration_bound():
    atoms = ClauseSet([Clause([lit(f"a{i}")]) for i in range(25)])
    with pytest.raises(TooManyAtomsError):
        is_satisfiable(atoms)
    small = clause_set(clause("p"), clause("q"), clause("r"))
    with pytest.raises(TooManyAtomsError):
        is_satisfiable(small, max_atoms=2)
    assert is_satisfiable(small, max_atoms=3).satisfiable


def test_standard_contradiction_examples():
    assert is_standard_contradiction(rect_for("p, q").clause_set())
    assert is_standard_contradiction(clause_set(clause("p"), clause("~p")))
    assert not is_standard_contradiction(clause_set(clause("p", "q"), clause("~p")))


def test_standard_contradiction_edge_sets():
    # No clauses: the single empty selection tuple has no clash.
    assert not is_standard_contradiction(ClauseSet())
    # An empty clause leaves nothing to select, so the condition holds
    # vacuously.
    assert is_standard_contradiction(ClauseSet([EMPTY_CLAUSE]))
    assert is_standard_contradiction(ClauseSet([clause("p", "q"), EMPTY_CLAUSE]))


def test_product_bound():
    wide = ClauseSet(
        [Clause([lit(f"a{i}"), lit(f"b{i}")]) for i in range(24)]
    )
    with pytest.raises(ProductTooLargeError) as info:
        is_standard_contradiction(wide)
    assert info.value.size == 2**24
    # The guard stops at the first partial product past the bound: the
    # whole product at n=12, 12^4096, is too long for the message.
    rect = rect_for(", ".join(f"p{i}" for i in range(12)))
    with pytest.raises(ProductTooLargeError, match=f"product of clause widths {12**7} "):
        is_standard_contradiction(rect.clause_set())
    with pytest.raises(ProductTooLargeError):
        is_standard_contradiction(rect_for("p,q").clause_set(), max_product=8)
    assert is_standard_contradiction(rect_for("p,q").clause_set(), max_product=16)


def test_a_bound_past_the_digit_limit_is_named_by_its_power_of_two():
    # A partial product past 10**10000, and a cap of -10**5000, have more
    # digits than CPython's int-to-str conversion allows; each message
    # names them by their power of two, and the attributes keep the ints.
    rect = rect_for(", ".join(f"p{i}" for i in range(14)))
    with pytest.raises(ProductTooLargeError) as info:
        is_standard_contradiction(rect.clause_set(), max_product=10**10000)
    assert info.value.bound == 10**10000 < info.value.size <= 14 * 10**10000
    assert str(info.value) == (
        f"product of clause widths ≥ 2**{info.value.size.bit_length() - 1} "
        "exceeds the bound ≥ 2**33219"
    )
    with pytest.raises(TooManyAtomsError) as info:
        is_satisfiable(clause_set(clause("p")), max_atoms=-(10**5000))
    assert info.value.bound == -(10**5000)
    assert str(info.value) == "1 distinct atoms exceed the enumeration bound ≤ -2**16609"
    with pytest.raises(SizeCapError) as info:
        construct_from_template(parse_generation_set("p"), max_level=-(10**5000))
    assert info.value.cap == -(10**5000)
    assert str(info.value) == "level 1 exceeds the materialization cap ≤ -2**16609"


def test_a_table_past_the_index_size_is_refused_before_allocation():
    units = ClauseSet([Clause([lit(f"a{i}")]) for i in range(70)])
    with pytest.raises(CapExceededError, match=r"over 70 atoms needs 2\*\*70 bytes"):
        is_satisfiable(units, max_atoms=70)


def test_pruned_search_agrees_with_naive_product_enumeration():
    rng = random.Random(90125)
    for _ in range(250):
        s = random_clause_set(rng, max_clauses=4)
        assert is_standard_contradiction(s) == sc_oracle_naive(s)


def test_standard_contradiction_implies_unsatisfiable():
    rng = random.Random(777)
    hits = 0
    for _ in range(400):
        s = random_clause_set(rng, max_atoms=3, max_clauses=6)
        if is_standard_contradiction(s):
            hits += 1
            assert not is_satisfiable(s).satisfiable
    assert hits > 0


_LITERALS = st.builds(Literal, st.sampled_from([Prop("p"), Prop("q"), Prop("r")]), st.booleans())


@st.composite
def _small_clause_sets(draw):
    # Picks from a small pool, so clauses repeat; clauses of up to three
    # literals over three atoms hold repeated literals and tautologies.
    pool = draw(st.lists(st.lists(_LITERALS, max_size=3).map(Clause), min_size=1, max_size=4))
    return ClauseSet(draw(st.lists(st.sampled_from(pool), max_size=6)))


@settings(max_examples=300, deadline=None)
@given(_small_clause_sets())
@example(clause_set(clause("p", "q"), EMPTY_CLAUSE, clause("~p")))
@example(clause_set(clause("p", "~p"), clause("q", "q"), clause("~q")))
@example(clause_set(clause("p", "~q"), clause("p", "~q"), clause("~p"), clause("q", "q")))
def test_split_search_agrees_with_naive_product_enumeration(s):
    assert is_standard_contradiction(s) == sc_oracle_naive(s)


# Lifts the product guard: the whole rectangle at n=8 has product 8^256.
UNGUARDED = 10**300


def signed_rect(n, signs, first_order):
    names = (f"P{i}(a)" if first_order else f"p{i}" for i in range(n))
    text = ", ".join(("~" if signs >> i & 1 else "") + name for i, name in enumerate(names))
    return rect_for(text)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_small_rectangle_is_a_standard_contradiction_with_no_spare_column(n):
    # Properties 1 and 2 by the paper's definitions: the rectangle is a
    # standard contradiction and no single-column removal is one.
    for signs in range(1 << n):
        for first_order in (False, True):
            rect = signed_rect(n, signs, first_order)
            assert is_standard_contradiction(rect.clause_set(), UNGUARDED)
            for j in range(rect.width):
                assert not is_standard_contradiction(remove_clauses(rect, [j]), UNGUARDED)


def test_rectangle_at_n8_is_a_standard_contradiction_with_no_spare_column():
    rect = signed_rect(8, 0b10110010, False)
    assert is_standard_contradiction(rect.clause_set(), UNGUARDED)
    for j in (0, 77, 255):
        assert not is_standard_contradiction(remove_clauses(rect, [j]), UNGUARDED)
    # The search reads the view's masks from the cell rule.
    assert rect._clauses is None


def test_refusing_a_rectangle_builds_no_clause():
    rect = rect_for(", ".join(f"p{i}" for i in range(16)))
    for view in (rect.clause_set(), remove_clauses(rect, [3])):
        with pytest.raises(ProductTooLargeError) as info:
            is_standard_contradiction(view)
        assert info.value.size == 16**6
    assert rect._clauses is None


def test_empty_clause_past_the_guard_s_trip_point_still_wins():
    wide = [Clause([lit(f"a{i}"), lit(f"b{i}")]) for i in range(24)]
    assert is_standard_contradiction(ClauseSet(wide + [EMPTY_CLAUSE]))


def test_many_unit_clauses_are_pinned_without_recursion():
    # Product 1, so the guard lets them through; one recursion per unit
    # clause would overflow the stack.
    units = [Clause([lit(f"a{i}")]) for i in range(5000)]
    assert not is_standard_contradiction(ClauseSet(units))
    assert is_standard_contradiction(ClauseSet(units + [clause("~a4999")]))
    assert is_standard_contradiction(ClauseSet([clause("~a0")] + units))



@pytest.mark.parametrize("signs", ("~", "~~", "~~-"), ids=("negated", "alternating", "mixed"))
def test_one_wide_clause_is_decided_without_recursion(signs):
    # Product 2000 (or 2000^2), so the guard lets it through.  A search
    # that recursed once per split would overflow the stack whenever it
    # narrowed the clause one literal at a time.
    literals = [lit(f"a{i}", signs[i % len(signs)] == "~") for i in range(2000)]
    assert not is_standard_contradiction(ClauseSet([Clause(literals)]))
    assert not is_standard_contradiction(ClauseSet([Clause(literals), Clause(literals[::-1])]))

@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_satisfiability_is_monotone_under_subsets(rng):
    s = random_clause_set(rng)
    if is_satisfiable(s).satisfiable:
        for keep in itertools.combinations(s.clauses, max(0, len(s) - 1)):
            assert is_satisfiable(ClauseSet(keep)).satisfiable


@pytest.mark.parametrize("n", (1, 2, 4))
def test_check_minimality_passes_on_rectangles(n):
    rect = rect_for(", ".join(f"p{i}" for i in range(n)))
    report = check_minimality(rect)
    assert report.ok
    assert not report.full.satisfiable
    assert len(report.removals) == 1 << n
    for j, result in enumerate(report.removals):
        assert result.satisfiable
        rest = remove_clauses(rect, (j,))
        assert evaluates_true(result.witness, rest)
        assert satisfies(result.witness, rest)


def test_minimality_summary_line():
    report = check_minimality(rect_for("p, q, r"))
    assert report.summary() == "full: UNSAT; removals: 8/8 SAT"


def test_entails_via_refutation():
    rect = rect_for("p,q")
    premises = remove_clauses(rect, (0,))
    hypothesis = ClauseSet([rect.clauses[0]])
    assert entails(premises, hypothesis)

    two_sided = remove_clauses(rect, (0, 1))
    both = ClauseSet([rect.clauses[0], rect.clauses[1]])
    assert entails(two_sided, both)

    weaker = remove_clauses(rect, (0, 1, 2))
    assert not entails(weaker, hypothesis)


def test_implication_tautology_matches_entailment_here():
    rect = rect_for("p,q")
    premises = remove_clauses(rect, (0,))
    hypothesis = ClauseSet([rect.clauses[0]])
    assert implication_is_tautology(premises, hypothesis)
    weaker = remove_clauses(rect, (0, 1, 2))
    assert not implication_is_tautology(weaker, hypothesis)


def test_implication_sweep_respects_atom_bound():
    g = validate_generation_set([lit(f"a{i}") for i in range(4)])
    rect = construct_from_template(g)
    with pytest.raises(TooManyAtomsError):
        implication_is_tautology(
            remove_clauses(rect, (0,)), ClauseSet([rect.clauses[0]]), max_atoms=3
        )


# Six opaque atoms, first-order ones included; P(a) and P(X) are
# different atoms to the oracles.
ATOMS = (
    Prop("p"),
    Pred("P", (Constant("a"),)),
    Prop("q"),
    Pred("P", (Variable("X"),)),
    Pred("=", (Constant("a"), Constant("b"))),
    Prop("r"),
)


@st.composite
def clause_sets(draw):
    """Clause sets over 0-6 atoms: empty, unit, short, tautological and
    repeated clauses, with fresh literal objects for equal literals."""
    k = draw(st.integers(0, len(ATOMS)))
    atoms = draw(st.permutations(ATOMS))[:k]
    if atoms:
        literal = st.builds(Literal, st.sampled_from(atoms), st.booleans())
        clause = st.lists(literal, max_size=5).map(Clause)
    else:
        clause = st.just(EMPTY_CLAUSE)
    clauses = draw(st.lists(clause, max_size=10))
    if clauses:
        repeats = draw(st.lists(st.sampled_from(clauses), max_size=3))
        for c in repeats:
            clauses.insert(draw(st.integers(0, len(clauses))), c)
    return ClauseSet(clauses)


def same_result(got, want):
    return got.satisfiable == want.satisfiable and (
        got.witness is None
        if want.witness is None
        else got.witness is not None
        and list(got.witness.items()) == list(want.witness.items())
    )


@settings(max_examples=300)
@given(clause_sets())
def test_cover_returns_the_sweep_result_key_order_included(s):
    got = is_satisfiable(s)
    assert same_result(got, sat_oracle_sweep(s))
    assert got.satisfiable == (sat_oracle_direct(s) is not None)
    if got.satisfiable:
        assert evaluates_true(got.witness, s)


def assert_removals_match_sweep(clauses):
    """``check_minimality`` of a rectangle or a clause set against the
    sweep on the full set and on each removal; returns the report."""
    report = check_minimality(clauses)
    if isinstance(clauses, Rectangle):
        clauses = clauses.clause_set()
    listed = tuple(clauses)
    assert same_result(report.full, sat_oracle_sweep(clauses))
    assert same_result(report.full, is_satisfiable(clauses))
    assert len(report.removals) == len(listed)
    # The dict oracle costs seconds per removal sweep at 8 atoms.
    direct = len(collect_atoms(listed)) <= 6
    for j, result in enumerate(report.removals):
        rest = ClauseSet(listed[:j] + listed[j + 1 :])
        assert same_result(result, sat_oracle_sweep(rest)), j
        if direct:
            assert result.satisfiable == (sat_oracle_direct(rest) is not None)
    return report


@pytest.mark.parametrize("first_order", (False, True))
@settings(max_examples=12, deadline=None)
@given(st.randoms(use_true_random=False))
def test_minimality_removals_match_sweep_on_rectangles(first_order, rng):
    g = random_generation_set(rng, max_n=8, first_order=first_order)
    rect = construct_from_template(g)
    assert_removals_match_sweep(rect)
    assert check_minimality(rect).ok


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_minimality_removals_match_sweep_on_reordered_duplicate_columns(rng, data):
    # Columns repeated, dropped and reordered: duplicated columns stay
    # UNSAT on removal, and the first column may no longer hold every
    # atom's first appearance.
    g = random_generation_set(rng, max_n=5)
    rect = construct_from_template(g)
    cols = data.draw(
        st.lists(st.integers(0, rect.width - 1), min_size=1, max_size=2 * rect.width)
    )
    rows = [[row[j] for j in cols] for row in rect.rows]
    assert_removals_match_sweep(ClauseSet(map(Clause, zip(*rows))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimality_removals_match_sweep_on_arbitrary_grids(data):
    # Any literal in any cell: columns repeat atoms, miss atoms or hold
    # both polarities, so removals are read off subcubes wider than a point.
    n = data.draw(st.integers(1, 4))
    atoms = data.draw(st.permutations(ATOMS))[: data.draw(st.integers(1, 4))]
    cell = st.builds(Literal, st.sampled_from(atoms), st.booleans())
    width = data.draw(st.integers(1, 10))
    rows = [data.draw(st.lists(cell, min_size=width, max_size=width)) for _ in range(n)]
    assert_removals_match_sweep(ClauseSet(map(Clause, zip(*rows))))


def test_minimality_at_twelve_generators():
    rect = rect_for(", ".join(f"p{i}" for i in range(12)))
    report = check_minimality(rect)
    assert report.ok
    assert report.summary() == "full: UNSAT; removals: 4096/4096 SAT"
    for j in (0, 1, 2047, 4095):
        assert evaluates_true(report.removals[j].witness, remove_clauses(rect, (j,)))


def test_minimality_report_keeps_one_index_per_removal():
    rect = rect_for(", ".join(f"p{i}" for i in range(12)))
    rect.clauses  # built outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = check_minimality(rect)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.summary() == "full: UNSAT; removals: 4096/4096 SAT"
    # An int per removal is about 150 KiB here; a 12-entry witness dict
    # per removal was about 3 MiB.
    assert held < 512 * 1024, held
    assert len(report.removals) == 4096
    assert report.removals[-1] == report.removals[4095]
    assert report.removals[2:4] == (report.removals[2], report.removals[3])
    with pytest.raises(IndexError):
        report.removals[4096]


def closed_form_cut(width):
    """``entails`` reads premises cut from closed forms at least ``width``
    columns wide from the closed form; 0 sends every nonempty premise
    view that way.  The other oracles read every nonempty view so."""
    return mock.patch.object(semantics, "_CLOSED_FORM_MIN_WIDTH", width)


def mixed_generation_set(n, negate_all=False):
    """n generators, every other one negated (or every one), every third
    one first-order."""
    return validate_generation_set(
        Literal(Pred(f"P{i}", (Constant("a"),)) if i % 3 == 2 else Prop(f"q{i}"),
                negate_all or i % 2 == 1)
        for i in range(n)
    )


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_closed_form_masks_equal_clause_route_masks(rng, data):
    g = random_generation_set(rng, max_n=7, first_order=data.draw(st.booleans()))
    rect = construct_from_template(g)
    width = rect.width
    keep = data.draw(st.integers(0, width - 1))
    drop = data.draw(
        st.sampled_from(
            [frozenset(), frozenset({0}), frozenset(range(width)) - {keep}, frozenset(range(width))]
        )
        | st.frozensets(st.integers(0, width - 1))
    )
    columns = remove_clauses(rect, drop)
    atoms, masks, firsts = columns.masks(len(g))
    got = list(masks)
    assert rect._clauses is None
    assert list(columns.masks(len(g))[1]) == got  # a second call reads the same masks
    assert list(firsts) == ([0] if len(columns) == 1 else [])
    want_atoms, want, _ = ClauseSet(list(columns)).masks(len(g))
    assert got == want
    assert len(got) == width - len(drop)
    if len(columns):
        assert atoms == want_atoms == collect_atoms(columns)


def fixed_drops(n, rng):
    """No column, a random set, every column but one, and a run across
    the middle boundary of two of ``column_blocks``' blocks."""
    width, block = 1 << n, 1 << (n // 2)
    edge = block * max(1, width // block // 2)
    return (
        frozenset(),
        frozenset(rng.sample(range(width), rng.randint(1, width))),
        frozenset(range(width)) - {rng.randrange(width)},
        frozenset(range(max(0, edge - 2), min(width, edge + 2))),
    )


@pytest.mark.parametrize("negate_all", (False, True))
@pytest.mark.parametrize("n", range(1, 11))
def test_closed_form_masks_equal_masks_of_the_doubling_columns(n, negate_all):
    # The cell rule's masks against the Clause route's, read off the
    # doubling construction's columns with the same columns dropped.
    g = mixed_generation_set(n, negate_all)
    rect = construct_from_template(g)
    columns = grid_clauses(construct_naive(g))
    for drop in fixed_drops(n, random.Random(n)):
        atoms, masks, _ = remove_clauses(rect, drop).masks(n)
        got = list(masks)
        kept = [c for j, c in enumerate(columns) if j not in drop]
        want_atoms, want, _ = ClauseSet(kept).masks(n)
        assert got == want, sorted(drop)
        assert len(got) == rect.width - len(drop)
        if kept:
            assert atoms == want_atoms == tuple(lit.atom for lit in g)
    assert rect._clauses is None


@pytest.mark.parametrize("first_order", (False, True))
@pytest.mark.parametrize("n", range(1, 10))
def test_oracles_read_every_nonempty_view_from_the_cell_rule(n, first_order):
    # is_satisfiable and check_minimality have one route for a view of
    # a rectangle's columns, at every width: none builds a Clause.
    rng = random.Random(n)
    g = mixed_generation_set(n) if first_order else parse_generation_set(
        ", ".join(f"p{i}" for i in range(n)))
    rect = construct_from_template(g)
    assert check_minimality(rect).ok
    for drop in fixed_drops(n, rng):
        view = rect.clause_set() if not drop else remove_clauses(rect, drop)
        report = check_minimality(view)
        assert report.full == is_satisfiable(view)
        # A few removals, each decided on its own view.
        kept = [j for j in range(rect.width) if j not in drop]
        for k in {0, len(kept) // 2, len(kept) - 1} if kept else ():
            rest = remove_clauses(rect, drop | {kept[k]})
            assert report.removals[k] == is_satisfiable(rest)
        if kept:
            assert view._kept is None
    assert rect._clauses is None


def test_entails_on_premises_under_the_cut_builds_the_clause_view():
    # The one fork left: bench/test_bench.py::
    # test_tracer_wraps_every_lookup_and_restores_it expects a small
    # `generate --verify` to build `Rectangle.clauses` and call
    # `is_satisfiable`, so premises narrower than the cut take that route.
    g = parse_generation_set("p, q, r")
    theorem = generate_theorem(g)
    assert theorem.premises.rect.width < semantics._CLOSED_FORM_MIN_WIDTH
    with mock.patch.object(semantics, "is_satisfiable", wraps=semantics.is_satisfiable) as spy:
        assert verify_theorem(theorem)
    assert spy.call_count == 1
    assert theorem.premises.rect._clauses is not None
    with closed_form_cut(0), mock.patch.object(semantics, "is_satisfiable") as spy:
        fresh = generate_theorem(g)
        assert verify_theorem(fresh)
    spy.assert_not_called()
    assert fresh.premises.rect._clauses is None


def test_entails_covers_a_plain_set_of_the_cut_s_size_from_its_masks():
    # A plain clause set of at least the cut's number of premises is
    # covered from its masks, and agrees with the Clause route.
    g = mixed_generation_set(11)
    rect = construct_from_template(g)
    drop = (5, 700, 2047)
    # Each clause lists its atoms bottom row first, so the premises
    # number the atoms in the reverse of the generators' order.
    plain = ClauseSet(Clause(c.literals[::-1]) for c in remove_clauses(rect, drop))
    assert len(plain) >= semantics._CLOSED_FORM_MIN_WIDTH
    dropped = [Clause(rect.column(j)) for j in drop]
    # The last hypothesis is a view too: the premises have numbered its
    # atoms already, so it reads its masks on the Clause route.
    hypotheses = (ClauseSet(dropped), ClauseSet(dropped[1:]),
                  remove_clauses(rect, set(range(rect.width)) - set(drop)))
    with mock.patch.object(semantics, "is_satisfiable") as spy:
        got = [entails(plain, h) for h in hypotheses]
    spy.assert_not_called()
    with closed_form_cut(len(plain) + 1):
        assert got == [entails(plain, h) for h in hypotheses] == [True, False, True]


def test_entails_takes_the_clause_route_for_fewer_premises_than_the_cut():
    # The rectangle is as wide as the cut, but the premises number one less.
    theorem = generate_theorem(mixed_generation_set(10))
    assert theorem.premises.rect.width == semantics._CLOSED_FORM_MIN_WIDTH
    with mock.patch.object(semantics, "is_satisfiable", wraps=semantics.is_satisfiable) as spy:
        assert verify_theorem(theorem)
    assert spy.call_count == 1
    assert theorem.premises.rect._clauses is not None


@pytest.mark.parametrize("premises", (10, 0))
def test_entails_covers_few_premises_and_a_large_hypothesis_from_the_cell_rule(premises):
    # Ten premises, or none, and every other column of an n=12 rectangle
    # as the hypothesis view: no side is built clause by clause, and the
    # verdicts are the Clause route's under a cut above both sides.
    g = mixed_generation_set(12)
    width = 1 << g.n
    kept = set(random.Random(premises).sample(range(width), premises))
    hyp = [j for j in range(width) if j not in kept]
    assert len(hyp) >= semantics._CLOSED_FORM_MIN_WIDTH

    def verdicts():
        theorem = generate_theorem_with_partition(g, hyp)
        short = generate_theorem_with_partition(g, hyp[1:])
        got = (verify_theorem(theorem), entails(theorem.premises, short.hypothesis_clauses))
        return got, (theorem.premises.rect, short.premises.rect)

    with mock.patch.object(semantics, "is_satisfiable") as spy:
        got, rects = verdicts()
    spy.assert_not_called()
    assert [rect._clauses for rect in rects] == [None, None]
    with closed_form_cut(width + 1), mock.patch.object(
        semantics, "is_satisfiable", wraps=semantics.is_satisfiable
    ) as spy:
        assert verdicts()[0] == got == (True, False)
    assert spy.call_count == 2


@pytest.mark.parametrize("cut", (semantics._CLOSED_FORM_MIN_WIDTH, 0))
@pytest.mark.parametrize("n", range(1, 11))
def test_closed_form_and_explicit_rows_give_equal_reports(n, cut):
    # The doubling construction's columns, as a plain clause set, take
    # the Clause route with its column-0 fallback; the closed form reads
    # the cell rule.  Equal reports pin every witness index of both
    # routes.  The cut picks only the route of entails, which must
    # verify the canonical theorem on either.
    g = mixed_generation_set(n)
    with closed_form_cut(cut):
        rect = construct_from_template(g)
        closed = check_minimality(rect)
        explicit = check_minimality(ClauseSet(grid_clauses(construct_naive(g))))
        assert closed == check_minimality(rect.clause_set())
        assert verify_theorem(generate_theorem(g))
    assert closed == explicit
    assert closed.ok
    assert closed.summary() == f"full: UNSAT; removals: {1 << n}/{1 << n} SAT"


@pytest.mark.parametrize("first_order", (False, True))
@settings(max_examples=12, deadline=None)
@given(st.randoms(use_true_random=False))
def test_closed_form_removals_match_sweep_on_rectangles(first_order, rng):
    g = random_generation_set(rng, max_n=8, first_order=first_order)
    rect = construct_from_template(g)
    assert_removals_match_sweep(rect)
    full = is_satisfiable(rect.clause_set())
    assert same_result(full, sat_oracle_sweep(rect.clause_set()))
    assert not full.satisfiable


def column_drops(data, n):
    """Columns to drop from a rectangle over n generators: random ones,
    every column, all but one, or a run across the boundary of two of
    ``column_blocks``' blocks (2^⌊n/2⌋ columns each)."""
    width, block = 1 << n, 1 << (n // 2)
    edge = block * data.draw(st.integers(1, width // block - 1))
    run = range(edge - data.draw(st.integers(1, block)), edge + data.draw(st.integers(1, block)))
    keep = data.draw(st.integers(0, width - 1))
    return data.draw(
        st.frozensets(st.integers(0, width - 1))
        | st.sampled_from(
            [frozenset(range(width)), frozenset(range(width)) - {keep}, frozenset(run)]
        )
    )


@pytest.mark.parametrize("cut", (semantics._CLOSED_FORM_MIN_WIDTH, 0))
@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_minimality_of_a_column_view_equals_its_plain_clause_set(cut, rng, data):
    # Every nonempty view reads the closed form, and its report must
    # still be the plain clause set's, down to the witnesses' key order;
    # a view that keeps no column has no atoms.  The cut picks the route
    # of entails, which must agree with the plain set's on the dropped
    # columns and on all but the first of them.
    g = random_generation_set(rng, max_n=8, first_order=data.draw(st.booleans()))
    rect = construct_from_template(g)
    drop = column_drops(data, g.n)
    view = remove_clauses(rect, drop)
    plain = ClauseSet(tuple(view))
    dropped = [Clause(rect.column(j)) for j in sorted(drop)]
    with closed_form_cut(cut):
        report = assert_removals_match_sweep(view)
        other = check_minimality(plain)
        for hypothesis in (ClauseSet(dropped), ClauseSet(dropped[1:])):
            assert entails(view, hypothesis) == entails(plain, hypothesis)
    assert report == other and same_result(report.full, other.full)
    assert all(map(same_result, report.removals, other.removals))
    if not len(view):
        assert report.full == SatResult(True, {}) and len(report.removals) == 0


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_entails_and_verify_agree_across_routes(rng, data):
    g = random_generation_set(rng, max_n=6)
    width = 1 << g.n
    hyp = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width))
    theorem = generate_theorem_with_partition(g, hyp)
    # A weaker claim: the hypothesis with one clause dropped is refuted
    # only when that clause was redundant, which it never is here.
    hypotheses = [theorem.hypothesis_clauses, ClauseSet(theorem.hypothesis_clauses[1:]),
                  ClauseSet([Clause([lit("fresh")])])]
    with closed_form_cut(0):
        closed = [entails(theorem.premises, h) for h in hypotheses]
        assert verify_theorem(theorem)
        # Empty premises take the Clause route, but keep no clause to build.
        assert theorem.premises.rect._clauses is None
        plain = ClauseSet(tuple(theorem.premises))
        assert closed == [entails(plain, h) for h in hypotheses]
        assert closed == [implication_is_tautology(plain, h) for h in hypotheses]
        assert verify_theorem(replace(theorem, premises=plain))
    assert closed[0] and not closed[2]


def test_oracles_on_a_closed_form_never_build_its_clauses():
    rect = construct_from_template(mixed_generation_set(12))
    assert check_minimality(rect).ok
    assert not is_satisfiable(rect.clause_set()).satisfiable
    assert is_satisfiable(remove_clauses(rect, (5,))).satisfiable
    theorem = generate_theorem(rect.generators)
    assert verify_theorem(theorem)
    assert rect._clauses is None
    assert theorem.premises.rect._clauses is None
    assert theorem.premises._kept is None


def test_an_empty_premise_view_builds_no_clause():
    # Every column on the hypothesis side: the premise view keeps none,
    # so the rectangle's 4096 clauses are never built.
    g = parse_generation_set(", ".join(f"p{i}" for i in range(12)))
    theorem = generate_theorem_with_partition(g, range(4096))
    assert len(theorem.premises) == 0
    assert verify_theorem(theorem)
    assert theorem.premises.clauses == ()
    assert theorem.premises.rect._clauses is None


def test_atom_cap_refuses_before_building_anything():
    generators = parse_generation_set(", ".join(f"p{i}" for i in range(20)))
    rect = construct_from_template(generators)
    with pytest.raises(TooManyAtomsError) as info:
        check_minimality(rect, 10)
    assert (info.value.count, info.value.bound) == (20, 10)
    with pytest.raises(TooManyAtomsError):
        is_satisfiable(rect.clause_set(), 10)
    theorem = generate_theorem(generators)
    with pytest.raises(TooManyAtomsError):
        verify_theorem(theorem, 10)
    assert rect._clauses is None
    assert theorem.premises.rect._clauses is None


def test_clause_route_refuses_at_the_first_atom_past_the_cap():
    atoms = ClauseSet([Clause([lit(f"a{i}")]) for i in range(30)])
    with pytest.raises(TooManyAtomsError) as info:
        is_satisfiable(atoms, 10)
    assert (info.value.count, info.value.bound) == (11, 10)


@pytest.mark.parametrize("n", (3, 10))
def test_minimality_reports_are_values(n):
    rect = construct_from_template(mixed_generation_set(n))
    report = check_minimality(rect)
    assert report == check_minimality(rect)
    assert pickle.loads(pickle.dumps(report)) == report
    assert report.removals == check_minimality(ClauseSet(rect.clauses)).removals
    with pytest.raises(TypeError):
        hash(report.removals)


def test_removals_differ_where_one_result_does():
    rect = construct_from_template(mixed_generation_set(3))
    removals = check_minimality(rect).removals
    duplicated = ClauseSet(rect.clauses + rect.clauses[:1])
    other = check_minimality(duplicated).removals
    assert len(other) == len(removals) + 1
    assert other != removals
    # Column 0 and its copy stay UNSAT on removal, where the rectangle's
    # removals are all SAT; the decided entry is compared by result.
    assert [r.satisfiable for r in other] == [False] + [True] * 7 + [False]
    trimmed = semantics.Removals(removals._atoms, removals._witnesses[:-1], {})
    assert trimmed != removals
    assert removals != tuple(removals)


def test_removals_repr_reads_length_and_sat_count_only():
    report = check_minimality(construct_from_template(parse_generation_set("p, q")))
    with mock.patch.object(semantics, "_result", side_effect=AssertionError):
        shown = repr(report.removals)
    assert shown == "Removals(length=4, sat=4)"
    assert repr(report) == (
        "MinimalityReport(full=SatResult(satisfiable=False, witness=None), "
        "removals=Removals(length=4, sat=4))"
    )
    unsat = check_minimality(clause_set(clause("p"), clause("~p"), clause("q")))
    assert repr(unsat.removals) == "Removals(length=3, sat=2)"


def test_minimality_counts_an_unsat_removal():
    # Removing q leaves p and ¬p: that removal is UNSAT, so the set is
    # not minimal and the count is 2, not 3.
    report = check_minimality(clause_set(clause("p"), clause("~p"), clause("q")))
    assert [result.satisfiable for result in report.removals] == [True, True, False]
    assert report.removals.sat_count() == 2
    assert report.summary() == "full: UNSAT; removals: 2/3 SAT"
    assert not report.ok


@pytest.mark.parametrize("max_atoms, max_clauses", ((4, 5), (2, 6)))
@settings(max_examples=80)
@given(rng=st.randoms(use_true_random=False))
def test_minimality_counts_agree_with_the_direct_oracle(rng, max_atoms, max_clauses):
    s = random_clause_set(rng, max_atoms=max_atoms, max_clauses=max_clauses)
    full = sat_oracle_direct(s) is not None
    sat = sum(sat_oracle_direct(s.clauses[:j] + s.clauses[j + 1:]) is not None
              for j in range(len(s)))
    report = check_minimality(s)
    assert report.removals.sat_count() == sat
    assert report.summary() == f"full: {'SAT' if full else 'UNSAT'}; removals: {sat}/{len(s)} SAT"
    assert report.ok == (not full and sat == len(s))
