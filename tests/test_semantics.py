import itertools
import pickle
import tracemalloc
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectatg import (
    Clause,
    ClauseSet,
    Constant,
    EMPTY_CLAUSE,
    Literal,
    Pred,
    ProductTooLargeError,
    Prop,
    Rectangle,
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
    evaluates_true,
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
    with pytest.raises(ProductTooLargeError):
        is_standard_contradiction(rect_for("p,q").clause_set(), max_product=8)
    assert is_standard_contradiction(rect_for("p,q").clause_set(), max_product=16)


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


def assert_removals_match_sweep(rect):
    report = check_minimality(rect)
    assert same_result(report.full, sat_oracle_sweep(rect.clause_set()))
    assert len(report.removals) == rect.width
    for j, result in enumerate(report.removals):
        rest = remove_clauses(rect, (j,))
        assert same_result(result, sat_oracle_sweep(rest)), j
        # The dict oracle costs seconds per removal sweep at n = 8.
        if rect.n <= 6:
            assert result.satisfiable == (sat_oracle_direct(rest) is not None)


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
    assert_removals_match_sweep(Rectangle(g, rows))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimality_removals_match_sweep_on_arbitrary_grids(data):
    # Any literal in any cell: columns repeat atoms, miss atoms or hold
    # both polarities, so removals are read off subcubes wider than a point.
    n = data.draw(st.integers(1, 4))
    g = validate_generation_set([lit(f"g{i}") for i in range(n)])
    atoms = data.draw(st.permutations(ATOMS))[: data.draw(st.integers(1, 4))]
    cell = st.builds(Literal, st.sampled_from(atoms), st.booleans())
    width = data.draw(st.integers(1, 10))
    rows = [data.draw(st.lists(cell, min_size=width, max_size=width)) for _ in range(n)]
    assert_removals_match_sweep(Rectangle(g, rows))


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
    """Closed forms at least ``width`` columns wide read their masks from
    the closed form; 0 sends every closed form that way."""
    return mock.patch.object(semantics, "_CLOSED_FORM_MIN_WIDTH", width)


def mixed_generation_set(n):
    """n generators, every other one negated, every third one first-order."""
    return validate_generation_set(
        Literal(Pred(f"P{i}", (Constant("a"),)) if i % 3 == 2 else Prop(f"q{i}"), i % 2 == 1)
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
    index = semantics._closed_form_index(rect, len(g))
    got = list(semantics._closed_form_masks(rect, index, drop))
    assert rect._clauses is None
    columns = remove_clauses(rect, drop)
    atoms, want, _ = semantics._clause_masks(list(columns), len(g))
    assert got == want
    assert len(got) == width - len(drop)
    if len(columns):
        assert tuple(index) == atoms == collect_atoms(columns)


@pytest.mark.parametrize("cut", (semantics._CLOSED_FORM_MIN_WIDTH, 0))
@pytest.mark.parametrize("n", range(1, 11))
def test_closed_form_and_explicit_rows_give_equal_reports(n, cut):
    # The explicit copy takes the Clause route with its column-0
    # fallback; the closed form takes whichever route the cut picks.
    # Equal reports pin every witness index of both routes.
    g = mixed_generation_set(n)
    with closed_form_cut(cut):
        closed = check_minimality(construct_from_template(g))
        explicit = check_minimality(Rectangle(g, construct_from_template(g).rows))
    assert closed == explicit
    assert closed.ok
    assert closed.summary() == f"full: UNSAT; removals: {1 << n}/{1 << n} SAT"


@pytest.mark.parametrize("first_order", (False, True))
@settings(max_examples=12, deadline=None)
@given(st.randoms(use_true_random=False))
def test_closed_form_removals_match_sweep_on_rectangles(first_order, rng):
    g = random_generation_set(rng, max_n=8, first_order=first_order)
    with closed_form_cut(0):
        rect = construct_from_template(g)
        assert_removals_match_sweep(rect)
        full = is_satisfiable(rect.clause_set())
        assert same_result(full, sat_oracle_sweep(rect.clause_set()))
    assert not full.satisfiable


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
    assert report.removals == check_minimality(Rectangle(rect.generators, rect.rows)).removals
    with pytest.raises(TypeError):
        hash(report.removals)


def test_removals_differ_where_one_result_does():
    rect = construct_from_template(mixed_generation_set(3))
    removals = check_minimality(rect).removals
    duplicated = Rectangle(rect.generators, [row + row[:1] for row in rect.rows])
    other = check_minimality(duplicated).removals
    assert len(other) == len(removals) + 1
    assert other != removals
    # Column 0 and its copy stay UNSAT on removal, where the rectangle's
    # removals are all SAT; the decided entry is compared by result.
    assert [r.satisfiable for r in other] == [False] + [True] * 7 + [False]
    trimmed = semantics.Removals(removals._atoms, removals._witnesses[:-1], {})
    assert trimmed != removals
    assert removals != tuple(removals)
