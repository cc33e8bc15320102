import random

import pytest

from rectatg import (
    EMPTY_CLAUSE,
    Clause,
    ClauseSet,
    EmptyHypothesisError,
    IndexOutOfRangeError,
    LiteralConjunction,
    NegatedConjunction,
    construct_from_template,
    generate_theorem,
    generate_theorem_with_partition,
    hypothesis_from_conclusion,
    parse_generation_set,
    verify_theorem,
)

from conftest import check_mutual_equivalence, lit, random_generation_set, replace


def test_canonical_theorem_for_two_generators():
    t = generate_theorem(parse_generation_set("p, q"))
    assert [str(c) for c in t.premises] == ["¬p ∨ q", "p ∨ ¬q", "¬p ∨ ¬q"]
    assert [str(c) for c in t.hypothesis_clauses] == ["p ∨ q"]
    assert isinstance(t.conclusion, LiteralConjunction)
    assert str(t.conclusion) == "¬p ∧ ¬q"
    assert t.provenance.removed_indices == (0,)
    assert t.provenance.generators == parse_generation_set("p, q")


def test_canonical_theorem_for_one_generator():
    t = generate_theorem(parse_generation_set("p"))
    assert [str(c) for c in t.premises] == ["¬p"]
    assert str(t.conclusion) == "¬p"


def test_canonical_theorem_for_four_generators():
    t = generate_theorem(parse_generation_set("w, x, y, z"))
    assert len(t.premises) == 15
    assert str(t.conclusion) == "¬w ∧ ¬x ∧ ¬y ∧ ¬z"


def test_negated_generators_collapse_in_the_conclusion():
    t = generate_theorem(parse_generation_set("p, ~q"))
    assert str(t.conclusion) == "¬p ∧ q"


def test_generate_equals_partition_at_column_zero():
    g = parse_generation_set("P1(a), ~P2(f(x)), P3(g(y,a))")
    assert generate_theorem(g) == generate_theorem_with_partition(g, (0,))


def test_two_clause_hypothesis():
    g = parse_generation_set("p, q")
    t = generate_theorem_with_partition(g, (0, 1))
    assert [str(c) for c in t.premises] == ["p ∨ ¬q", "¬p ∨ ¬q"]
    assert [str(c) for c in t.hypothesis_clauses] == ["p ∨ q", "¬p ∨ q"]
    assert isinstance(t.conclusion, NegatedConjunction)
    assert str(t.conclusion) == "¬((p ∨ q) ∧ (¬p ∨ q))"
    assert verify_theorem(t)


def test_partition_indices_are_deduplicated_and_sorted():
    g = parse_generation_set("p, q")
    t = generate_theorem_with_partition(g, (1, 0, 1))
    assert t.provenance.removed_indices == (0, 1)


def test_everything_on_the_hypothesis_side_is_still_valid():
    g = parse_generation_set("p, q")
    t = generate_theorem_with_partition(g, range(4))
    assert len(t.premises) == 0
    assert verify_theorem(t)


def test_empty_hypothesis_rejected():
    with pytest.raises(EmptyHypothesisError):
        generate_theorem_with_partition(parse_generation_set("p, q"), ())


def test_partition_index_bounds():
    g = parse_generation_set("p, q")
    with pytest.raises(IndexOutOfRangeError):
        generate_theorem_with_partition(g, (5,))
    with pytest.raises(IndexOutOfRangeError):
        generate_theorem_with_partition(g, (-1,))


@pytest.mark.parametrize("bad", (1.7, 3.0, "3", None))
def test_partition_refuses_column_indices_that_are_not_integers(bad):
    # int() used to read 1.7 as column 1 and "3" as column 3.
    g = parse_generation_set("p, q")
    with pytest.raises(IndexOutOfRangeError):
        generate_theorem_with_partition(g, (bad,))
    assert generate_theorem_with_partition(g, (True,)).provenance.removed_indices == (1,)


@pytest.mark.parametrize(
    "text",
    ["p", "p, q", "p, q, r", "p, ~q, r, s", "P1(a), ~P2(f(x)), P3(g(y,a))"],
)
def test_canonical_theorems_verify(text):
    assert verify_theorem(generate_theorem(parse_generation_set(text)))


def test_random_partitions_verify():
    rng = random.Random(424242)
    for _ in range(25):
        g = random_generation_set(rng, max_n=4)
        width = 1 << g.n
        k = rng.randint(1, width)
        t = generate_theorem_with_partition(g, rng.sample(range(width), k))
        assert verify_theorem(t)


def test_deleting_a_premise_breaks_verification():
    t = generate_theorem(parse_generation_set("p, q, r"))
    for drop in range(len(t.premises)):
        kept = ClauseSet(c for i, c in enumerate(t.premises) if i != drop)
        assert not verify_theorem(replace(t, premises=kept))


def test_fresh_atom_conclusion_fails_verification():
    t = generate_theorem(parse_generation_set("p, q"))
    tampered = replace(
        t, conclusion=LiteralConjunction((lit("fresh", True),))
    )
    assert not verify_theorem(tampered)


def test_swapped_conclusion_verifies_only_if_entailed():
    g = parse_generation_set("p, q")
    rect = construct_from_template(g)
    t = generate_theorem(g)

    # Claiming the negation of column 1 instead: premises stay SAT with
    # column 1 conjoined, so this must fail.
    not_entailed = replace(
        t, conclusion=NegatedConjunction((rect.clauses[1],))
    )
    assert not verify_theorem(not_entailed)

    # Claiming the negation of columns 0 and 1 together: conjoining both
    # restores the full rectangle, so this happens to be entailed.
    entailed = replace(
        t, conclusion=NegatedConjunction((rect.clauses[0], rect.clauses[1]))
    )
    assert verify_theorem(entailed)


def test_hypothesis_from_conclusion_inverts_both_shapes():
    g = parse_generation_set("p, q")
    single = generate_theorem(g)
    assert hypothesis_from_conclusion(single.conclusion) == single.hypothesis_clauses
    double = generate_theorem_with_partition(g, (0, 3))
    assert hypothesis_from_conclusion(double.conclusion) == double.hypothesis_clauses


def test_mutual_equivalence_of_singleton_partitions():
    assert check_mutual_equivalence(
        parse_generation_set("p"), [(0,), (1,)]
    )
    assert check_mutual_equivalence(
        parse_generation_set("p, q"), [(0,), (1,), (2,), (3,), (0, 1)]
    )
    assert check_mutual_equivalence(
        parse_generation_set("p, q, r"), [(j,) for j in range(8)]
    )


def test_mutual_equivalence_with_mixed_partition_sizes():
    partitions = [(0,), (1, 2), (0, 1, 2, 3, 4, 5, 6, 7)]
    assert check_mutual_equivalence(parse_generation_set("p, q, r"), partitions)


def test_theorem_conclusion_matches_negated_column_zero():
    g = parse_generation_set("p, q, r")
    t = generate_theorem(g)
    rebuilt = Clause(tuple(lit(s) for s in ("p", "q", "r")))
    assert t.hypothesis_clauses[0] == rebuilt
    assert hypothesis_from_conclusion(t.conclusion)[0] == rebuilt


def test_canonical_theorem_at_sixteen_generators_verifies():
    g = parse_generation_set(", ".join(f"p{i}" for i in range(16)))
    assert verify_theorem(generate_theorem(g))


def test_a_negated_conjunction_renders_the_empty_clause_as_a_box():
    clauses = (EMPTY_CLAUSE, Clause([lit("p")]))
    assert str(NegatedConjunction(clauses)) == "¬((□) ∧ (p))"
    assert str(NegatedConjunction(ClauseSet(clauses))) == "¬((□) ∧ (p))"
    assert str(NegatedConjunction((Clause([lit("p"), lit("q", True)]), EMPTY_CLAUSE))) == (
        "¬((p ∨ ¬q) ∧ (□))"
    )
