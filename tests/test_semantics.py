import itertools
import tracemalloc
import random

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
    construct_from_template,
    entails,
    is_satisfiable,
    is_standard_contradiction,
    parse_generation_set,
    remove_clauses,
)

from conftest import (
    clause,
    clause_set,
    evaluates_true,
    implication_is_tautology,
    lit,
    random_clause_set,
    random_generation_set,
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
