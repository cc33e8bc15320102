"""End-to-end acceptance gate.

Each criterion below prints exactly one PASS or FAIL line (run with -s
to see them) and enforces its own wall-clock budget.  The checks
deliberately cross every result against an independent oracle from
conftest or against a frozen fixture, never against the code under
test alone.
"""

import functools
import hashlib
import itertools
import random
import time

from rectatg import (
    AtomNumbering,
    ClauseSet,
    Marker,
    check_minimality,
    construct_from_template,
    export_dimacs,
    generate_theorem,
    generate_theorem_with_partition,
    is_satisfiable,
    is_standard_contradiction,
    load_record,
    make_template,
    parse_generation_set,
    parse_literal,
    polarity_at,
    remove_clauses,
    render_template,
    save_record,
    verify_theorem,
)
from rectatg.logic import Constant, Literal, Pred, Prop, negate_literal

from conftest import (
    check_mutual_equivalence,
    construct_naive,
    evaluates_true,
    grid_clauses,
    polarity_oracle_positive,
    random_generation_set,
    replace,
    satisfies,
    validate_generation_set,
)


def criterion(number, description, budget_seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                assert elapsed < budget_seconds, (
                    f"took {elapsed:.2f}s, budget {budget_seconds}s"
                )
            except BaseException:
                print(f"\ncriterion {number:02d} {description}: FAIL")
                raise
            print(f"\ncriterion {number:02d} {description}: PASS ({elapsed:.2f}s)")
        return run
    return wrap


FOUR_GENERATOR_GRID = [
    ["w", "¬w", "w", "¬w", "w", "¬w", "w", "¬w",
     "w", "¬w", "w", "¬w", "w", "¬w", "w", "¬w"],
    ["x", "x", "¬x", "¬x", "x", "x", "¬x", "¬x",
     "x", "x", "¬x", "¬x", "x", "x", "¬x", "¬x"],
    ["y", "y", "y", "y", "¬y", "¬y", "¬y", "¬y",
     "y", "y", "y", "y", "¬y", "¬y", "¬y", "¬y"],
    ["z", "z", "z", "z", "z", "z", "z", "z",
     "¬z", "¬z", "¬z", "¬z", "¬z", "¬z", "¬z", "¬z"],
]

FIRST_ORDER_GRID = [
    ["P1(a)", "¬P1(a)", "P1(a)", "¬P1(a)",
     "P1(a)", "¬P1(a)", "P1(a)", "¬P1(a)"],
    ["P2(f(x))", "P2(f(x))", "¬P2(f(x))", "¬P2(f(x))",
     "P2(f(x))", "P2(f(x))", "¬P2(f(x))", "¬P2(f(x))"],
    ["P3(g(y, a))", "P3(g(y, a))", "P3(g(y, a))", "P3(g(y, a))",
     "¬P3(g(y, a))", "¬P3(g(y, a))", "¬P3(g(y, a))", "¬P3(g(y, a))"],
]

THREE_LEVEL_TEMPLATE = (
    "! ? ! ? ! ? ! ?\n"
    "! ! ? ? ! ! ? ?\n"
    "! ! ! ! ? ? ? ?"
)

FOUR_LEVEL_TEMPLATE = (
    "! ? ! ? ! ? ! ? ! ? ! ? ! ? ! ?\n"
    "! ! ? ? ! ! ? ? ! ! ? ? ! ! ? ?\n"
    "! ! ! ! ? ? ? ? ! ! ! ! ? ? ? ?\n"
    "! ! ! ! ! ! ! ! ? ? ? ? ? ? ? ?"
)

DIMACS_TWO_GENERATORS = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"


def props(n):
    return parse_generation_set(", ".join(f"p{i}" for i in range(n)))


def signed_generators(n, signs, first_order):
    literals = []
    for i in range(n):
        if first_order:
            atom = Pred(f"P{i + 1}", (Constant("a"),))
        else:
            atom = Prop(f"p{i}")
        literals.append(Literal(atom, bool((signs >> i) & 1)))
    return validate_generation_set(literals)


@criterion(1, "worked rectangles match frozen grids", 1.0)
def check_worked_grids():
    rect = construct_from_template(parse_generation_set("w, x, y, z"))
    assert rect.width == 16
    got = [[str(l) for l in row] for row in rect.rows]
    assert got == FOUR_GENERATOR_GRID

    rect = construct_from_template(
        parse_generation_set("P1(a), P2(f(x)), P3(g(y,a))")
    )
    assert rect.width == 8
    got = [[str(l) for l in row] for row in rect.rows]
    assert got == FIRST_ORDER_GRID


@criterion(2, "templates match the closed-form polarity rule", 5.0)
def check_templates():
    assert render_template(make_template(3)) == THREE_LEVEL_TEMPLATE
    assert render_template(make_template(4)) == FOUR_LEVEL_TEMPLATE
    for n in range(1, 13):
        template = make_template(n)
        for i, row in enumerate(template.rows, start=1):
            for j, marker in enumerate(row):
                assert marker is polarity_at(i, j, n)
                assert (marker is Marker.POSITIVE) == polarity_oracle_positive(i, j)


@criterion(3, "both construction routes build the same rectangle", 10.0)
def check_construction_routes():
    rng = random.Random(139713)
    for _ in range(100):
        generators = random_generation_set(rng, max_n=10)
        direct = construct_naive(generators)
        templated = construct_from_template(generators)
        assert direct == templated.rows
        assert grid_clauses(direct) == templated.clauses
        assert templated == construct_from_template(generators)


@criterion(4, "every rectangle is a standard contradiction, both oracles", 10.0)
def check_contradictions():
    for n in range(1, 5):
        for signs in range(1 << n):
            for first_order in (False, True):
                generators = signed_generators(n, signs, first_order)
                clauses = construct_from_template(generators).clause_set()
                assert not is_satisfiable(clauses).satisfiable
                assert is_standard_contradiction(clauses, max_product=4**16)


@criterion(5, "single-clause removals restore satisfiability", 10.0)
def check_minimality_reports():
    sets = [props(n) for n in range(1, 5)]
    sets.append(parse_generation_set("P1(a), ~P2(f(x)), P3(g(y,a))"))
    for generators in sets:
        rect = construct_from_template(generators)
        report = check_minimality(rect)
        assert report.ok
        assert not report.full.satisfiable
        for j, result in enumerate(report.removals):
            remaining = remove_clauses(rect, (j,))
            assert result.satisfiable
            assert satisfies(result.witness, remaining)
            assert evaluates_true(result.witness, remaining)


@criterion(6, "all proper subsets of the n=3 rectangle are satisfiable", 5.0)
def check_proper_subsets():
    rect = construct_from_template(props(3))
    assert not is_satisfiable(rect.clause_set()).satisfiable
    for r in range(1, rect.width + 1):
        for removed in itertools.combinations(range(rect.width), r):
            result = is_satisfiable(remove_clauses(rect, removed))
            assert result.satisfiable
            assert evaluates_true(result.witness, remove_clauses(rect, removed))


@criterion(7, "every partition yields a verified theorem, no premise spare", 30.0)
def check_partitions():
    rng = random.Random(907117)
    for n in range(1, 5):
        generators = props(n)
        width = 1 << n

        canonical = generate_theorem(generators)
        assert verify_theorem(canonical)
        for k in range(len(tuple(canonical.premises))):
            kept = tuple(canonical.premises)[:k] + tuple(canonical.premises)[k + 1:]
            weakened = replace(canonical, premises=ClauseSet(kept))
            assert not verify_theorem(weakened)

        small = [(j,) for j in range(width)]
        small += list(itertools.combinations(range(width), 2))
        for partition in small:
            theorem = generate_theorem_with_partition(generators, partition)
            assert verify_theorem(theorem)

        for _ in range(50):
            size = rng.randint(1, width)
            partition = tuple(rng.sample(range(width), size))
            theorem = generate_theorem_with_partition(generators, partition)
            assert verify_theorem(theorem)
            premises = tuple(theorem.premises)
            if premises:
                k = rng.randrange(len(premises))
                weakened = replace(
                    theorem, premises=ClauseSet(premises[:k] + premises[k + 1:])
                )
                assert not verify_theorem(weakened)


@criterion(8, "theorems from one rectangle are mutually equivalent", 5.0)
def check_equivalence():
    for n in range(1, 4):
        generators = props(n)
        singletons = [(j,) for j in range(1 << n)]
        assert check_mutual_equivalence(generators, singletons)
    rng = random.Random(555001)
    width = 8
    partitions = []
    for _ in range(20):
        size = rng.randint(1, width)
        partitions.append(tuple(rng.sample(range(width), size)))
    assert check_mutual_equivalence(props(3), partitions)


@criterion(9, "text, record, and DIMACS round trips are lossless", 1.0)
def check_round_trips():
    texts = ["p", "¬q7", "P1(a)", "¬P3(g(y, a))", "f(x)=a", "¬a=b", "P()"]
    for text in texts:
        for style in ("upper", "lower"):
            literal = parse_literal(text, style)
            assert str(literal) == text
            assert parse_literal(str(literal), style) == literal
            assert negate_literal(negate_literal(literal)) == literal

    cases = [
        ("p, q", "upper", None),
        ("P1(a), ~P2(f(x)), P3(g(y,a))", "lower", None),
        ("w, x, y, z", "upper", (0, 3, 9)),
    ]
    for text, style, partition in cases:
        generators = parse_generation_set(text, var_style=style)
        if partition is None:
            theorem = generate_theorem(generators)
        else:
            theorem = generate_theorem_with_partition(generators, partition)
        assert load_record(save_record(theorem)) == theorem

    rect = construct_from_template(parse_generation_set("p, q"))
    out = export_dimacs(rect.clause_set(), AtomNumbering.from_rectangle(rect))
    assert out == DIMACS_TWO_GENERATORS


@criterion(10, "scale run is fast and deterministic", 12.0)
def check_scale():
    generators = parse_generation_set(", ".join(f"p{i:02d}" for i in range(16)))
    digests = []
    for _ in range(2):
        start = time.perf_counter()
        rect = construct_from_template(generators)
        theorem = generate_theorem(generators)
        text = export_dimacs(rect.clause_set(), AtomNumbering.from_rectangle(rect))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"single run took {elapsed:.2f}s"
        assert rect.width == 65536
        assert len(tuple(theorem.premises)) == 65535
        digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    assert digests[0] == digests[1]

    rng = random.Random(811040)
    cells = [(1, 0), (40, 0), (1, (1 << 40) - 1), (40, (1 << 40) - 1)]
    cells += [(rng.randint(1, 40), rng.randrange(1 << 40)) for _ in range(500)]
    for row, column in cells:
        marker = polarity_at(row, column, 40)
        assert (marker is Marker.POSITIVE) == polarity_oracle_positive(row, column)


def test_criterion_01_worked_grids():
    check_worked_grids()


def test_criterion_02_template_closed_form():
    check_templates()


def test_criterion_03_construction_routes_agree():
    check_construction_routes()


def test_criterion_04_contradiction_oracles():
    check_contradictions()


def test_criterion_05_minimality():
    check_minimality_reports()


def test_criterion_06_proper_subsets_satisfiable():
    check_proper_subsets()


def test_criterion_07_partition_theorems():
    check_partitions()


def test_criterion_08_mutual_equivalence():
    check_equivalence()


def test_criterion_09_round_trips():
    check_round_trips()


def test_criterion_10_scale_and_determinism():
    check_scale()
