"""Both sides of a partition as views of one rectangle.

A theorem's premises drop the hypothesis columns and its hypothesis
keeps them.  These tests hold the hypothesis view to the shape a
theorem had when its hypothesis was a tuple of Clause objects: the same
text in every format, the same verdicts, and nothing built on the way.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rectatg
from rectatg import (
    Clause,
    ClauseSet,
    Literal,
    LiteralConjunction,
    NegatedConjunction,
    Prop,
    SizeCapError,
    construct_from_template,
    export_tptp,
    generate_theorem_with_partition,
    is_satisfiable,
    load_record,
    negate_clause,
    parse_generation_set,
    remove_clauses,
    render_theorem,
    save_record,
    semantics,
    verify_theorem,
)
from rectatg.cli import main

from conftest import (
    construct_naive,
    grid_clauses,
    random_generation_set,
    replace,
    sat_oracle_direct,
)

# The widest rectangle whose 2**n columns an index-sized integer counts.
WIDEST = sys.maxsize.bit_length() - 1


def _sizes(width):
    """One column, three, a quarter, half and all of them."""
    return sorted({1, min(3, width), max(1, width // 4), max(1, width // 2), width})


def _tuple_shaped(theorem, clauses):
    """The theorem as it was built when its hypothesis was a Clause
    tuple: a plain ClauseSet hypothesis, and a tuple in a negated
    conjunction."""
    if len(clauses) == 1:
        conclusion = LiteralConjunction(negate_clause(clauses[0]))
    else:
        conclusion = NegatedConjunction(clauses)
    return replace(theorem, hypothesis_clauses=ClauseSet(clauses), conclusion=conclusion)


@pytest.mark.parametrize("first_order", (False, True))
@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hypothesis_view_renders_and_verifies_as_the_clause_tuple(first_order, rng):
    g = random_generation_set(rng, max_n=8, first_order=first_order)
    grid = grid_clauses(construct_naive(g))
    for size in _sizes(len(grid)):
        columns = rng.sample(range(len(grid)), size)
        theorem = generate_theorem_with_partition(g, columns)
        clauses = tuple(grid[j] for j in sorted(columns))
        old = _tuple_shaped(theorem, clauses)
        assert render_theorem(theorem) == render_theorem(old)
        assert export_tptp(theorem) == export_tptp(old)
        assert save_record(theorem) == save_record(old)
        assert str(theorem.conclusion) == str(old.conclusion)
        assert theorem.hypothesis_clauses == ClauseSet(clauses)
        if size > 1:
            assert theorem.conclusion.clauses is theorem.hypothesis_clauses
        refuted = sat_oracle_direct(tuple(theorem.premises) + clauses) is None
        assert refuted
        # Both routes of entails: the Clause route below the width cut,
        # and the masks of both views above it.
        for cut in (semantics._CLOSED_FORM_MIN_WIDTH, 0):
            with mock.patch.object(semantics, "_CLOSED_FORM_MIN_WIDTH", cut):
                assert verify_theorem(theorem) == verify_theorem(old) == refuted
        again = load_record(save_record(theorem))
        assert again == theorem
        assert str(again.conclusion) == str(theorem.conclusion)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_keep_view_masks_match_the_clause_route(rng, data):
    g = random_generation_set(rng, max_n=7)
    width = 1 << g.n
    columns = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width))
    theorem = generate_theorem_with_partition(g, columns)
    view, premises = theorem.hypothesis_clauses, theorem.premises
    plain = ClauseSet(tuple(view))
    atoms, masks, _ = view.masks(24)
    assert (atoms, list(masks)) == plain.masks(24)[:2]
    # Numbered by the premises first, as entails numbers them: generator
    # i is atom i, so the view keeps the cell rule.
    index = {}
    premises.masks(24, index)
    numbered = dict(index)
    atoms, masks, firsts = view.masks(24, index)
    want = plain.masks(24, dict(numbered))
    assert (atoms, list(masks)) == want[:2]
    assert index == dict.fromkeys(atoms, 0) | numbered | {a: i for i, a in enumerate(atoms)}
    # No atom is new to a view the premises numbered.  (Empty premises
    # number nothing, and a view's firsts then follow its own rule.)
    if numbered:
        assert list(index) == list(numbered) and set(firsts) == set(want[2]) == set()
    # An index that numbers some other atom first takes the Clause route.
    fresh = {Prop("fresh"): 0}
    assert view.masks(24, dict(fresh))[:2] == plain.masks(24, dict(fresh))[:2]


@pytest.mark.parametrize("first_order", (False, True))
@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_kept_column_blocks_match_explicit_rows(first_order, rng, data):
    g = random_generation_set(rng, max_n=8, first_order=first_order)
    rect, rows = construct_from_template(g), construct_naive(g)
    keep = sorted(set(data.draw(st.lists(st.integers(0, rect.width - 1), max_size=rect.width))))
    for token, sep in ((str, " ∨ "), (lambda l: str(l).encode(), b"|")):
        want = [sep.join(token(lit) for lit in col) for col in zip(*rows)]
        blocks = list(rect.column_blocks(token, sep, keep=keep))
        assert [low + tail for lows, tail in blocks for low in lows] == [want[j] for j in keep]
        # One block per high-half pattern that keeps a column, none empty.
        assert len(blocks) == len({j >> (rect.n // 2) for j in keep})
    assert rect._rows is None and rect._clauses is None


def test_a_large_hypothesis_builds_no_clause():
    g = parse_generation_set(", ".join(f"{'~' * (i % 2)}p{i}" for i in range(14)))
    theorem = generate_theorem_with_partition(g, range(0, 1 << 14, 2))
    hypothesis, premises = theorem.hypothesis_clauses, theorem.premises
    text = str(theorem.conclusion)
    tptp = export_tptp(theorem)
    assert render_theorem(theorem).endswith(f"⊢ {text}\n")
    assert json.loads(save_record(theorem))["conclusion"] == text
    assert verify_theorem(theorem)
    assert hypothesis._kept is None and premises._kept is None
    assert premises.rect._clauses is None and hypothesis.rect is premises.rect
    assert len(hypothesis) == len(premises) == 1 << 13
    # Spot-check the text against columns built one at a time.
    rect = construct_from_template(g)
    first, last = (Clause(rect.column(j)) for j in (0, (1 << 14) - 2))
    assert text.startswith(f"¬(({first}) ∧ (") and text.endswith(f") ∧ ({last}))")
    assert tptp.count("\n") == (1 << 13) + 1


@pytest.mark.parametrize("first_order", (False, True))
@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_an_index_reads_the_clause_the_tuple_holds(first_order, rng, data):
    g = random_generation_set(rng, max_n=8, first_order=first_order)
    rect = construct_from_template(g)
    columns = st.lists(st.integers(0, rect.width - 1), max_size=rect.width)
    theorem = generate_theorem_with_partition(g, data.draw(columns) or [0])
    views = (theorem.premises, theorem.hypothesis_clauses, remove_clauses(rect, data.draw(columns)),
             rect.clause_set(), remove_clauses(rect, range(rect.width)))
    for view in views:
        want, size = tuple(copy.copy(view)), len(view)
        edges = [0, 1, size - 1, size, -1, -size, -size - 1]
        for i in edges + data.draw(st.lists(st.integers(-size - 2, size + 1), max_size=8)):
            if -size <= i < size:
                assert view[i].literals == want[i].literals
            else:
                with pytest.raises(IndexError):
                    view[i]
        assert view._kept is None
        assert view[1:-1:2] == want[1:-1:2]


# Reads two premises of the n=20 theorem under a 512 MiB address space
# and prints the seconds taken, both clauses and whether any Clause
# tuple was built.
_INDEX_AT_N20 = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
from rectatg import generate_theorem_with_partition, parse_generation_set
generators = parse_generation_set(", ".join(f"p{i}" for i in range(20)))
theorem = generate_theorem_with_partition(generators, [0])
start = time.perf_counter()
first, last = theorem.premises[0], theorem.premises[-1]
print(time.perf_counter() - start, first, "|", last, theorem.premises._kept is None)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds mmap on Linux")
def test_an_index_at_twenty_generators_builds_one_clause():
    root = os.path.dirname(os.path.dirname(rectatg.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _INDEX_AT_N20], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    seconds, text = done.stdout.split(" ", 1)
    names = [f"p{i}" for i in range(20)]
    first, last = " ∨ ".join(["¬p0", *names[1:]]), " ∨ ".join(f"¬{p}" for p in names)
    assert text == f"{first} | {last} True\n"
    assert float(seconds) < 1


def test_keep_view_survives_pickle_and_copy():
    theorem = generate_theorem_with_partition(parse_generation_set("p, ~q, R(X)"), (6, 1, 3))
    view = theorem.hypothesis_clauses
    for again in (pickle.loads(pickle.dumps(view)), copy.copy(view), copy.deepcopy(view)):
        assert type(again) is type(view)
        assert (again.keep, again.drop) == ((1, 3, 6), None)
        assert again._kept is None
        assert again == view and hash(again) == hash(view)
        assert tuple(again) == tuple(view)
        assert str(NegatedConjunction(again)) == str(theorem.conclusion)


def test_views_that_keep_and_drop_compare_as_clause_sets():
    rect = construct_from_template(parse_generation_set("p, ~q, r"))
    kept = generate_theorem_with_partition(rect.generators, range(8)).hypothesis_clauses
    assert kept == rect.clause_set() and rect.clause_set() == kept
    some = generate_theorem_with_partition(rect.generators, (1, 2)).hypothesis_clauses
    assert some == remove_clauses(rect, (0, 3, 4, 5, 6, 7))
    assert some != remove_clauses(rect, (1, 2))
    assert some != generate_theorem_with_partition(rect.generators, (1, 3)).hypothesis_clauses
    assert some == ClauseSet(c for j, c in enumerate(rect.clauses) if j in (1, 2))


def test_another_views_conclusion_verifies_only_if_entailed():
    # Eleven generators keep 2^11 - 6 premises, past the width cut, so
    # the premises and the foreign views are all read from their masks.
    literals = [f"{'~' * (i % 2)}p{i}" for i in range(11)]
    g = parse_generation_set(", ".join(literals))
    hyp = (3, 70, 500, 1024, 1500, 2047)
    theorem = generate_theorem_with_partition(g, hyp)
    # The Clause route's premises, built on a rectangle of their own.
    premises = tuple(remove_clauses(construct_from_template(g), hyp))
    flipped = parse_generation_set(", ".join(["~p0", *literals[1:]]))
    renamed = parse_generation_set(", ".join(["p0", "r1", *literals[2:]]))
    cases = [
        (g, hyp + (9,), True),
        (g, hyp[1:], False),
        (g, (0, 1, 2), False),
        # Flipping generator 0 swaps columns j and j ^ 1.
        (flipped, tuple(j ^ 1 for j in hyp), True),
        (flipped, hyp, False),
        (renamed, hyp, None),
    ]
    for gens, columns, entailed in cases:
        view = generate_theorem_with_partition(gens, columns).hypothesis_clauses
        tampered = replace(theorem, conclusion=NegatedConjunction(view))
        want = not is_satisfiable(ClauseSet(premises + tuple(copy.copy(view)))).satisfiable
        assert entailed is None or want == entailed
        assert verify_theorem(tampered) == want
        assert theorem.premises._kept is None
        # A view of a rectangle over the same atoms keeps the cell rule;
        # one over other atoms takes the Clause route.
        assert (view._kept is None) == (entailed is not None)


@pytest.mark.parametrize("argv", (
    ["check", "--max-atoms", "80"],
    ["rectangle"],
    ["generate"],
    ["generate", "-H", "0,1", "-o", "tptp"],
))
def test_a_width_past_the_index_size_is_a_cap_error(capsys, monkeypatch, argv):
    monkeypatch.delenv("RECT_ATG_MAX_N", raising=False)
    literals = ", ".join(f"p{i}" for i in range(70))
    code = main([*argv, "-l", literals, "--max-n", "80"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == f"error: level 70 exceeds the materialization cap {WIDEST}\n"


def test_a_record_past_the_index_size_is_a_cap_error(capsys, tmp_path):
    generators = [{"negated": False, "atom": {"kind": "prop", "name": f"p{i}"}}
                  for i in range(70)]
    record = {"version": 1, "generators": generators, "removed_indices": [0],
              "premises": [], "conclusion": ""}
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    code = main(["check", "--record", str(path), "--max-n", "80", "--max-atoms", "80"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == f"error: level 70 exceeds the materialization cap {WIDEST}\n"


def test_the_widest_rectangle_counts_its_columns():
    literals = [Literal(Prop(f"p{i}")) for i in range(WIDEST + 1)]
    g = parse_generation_set(", ".join(map(str, literals[:WIDEST])))
    rect = construct_from_template(g, max_level=10**6)
    assert len(rect.clause_set()) == rect.width == 1 << WIDEST
    assert len(remove_clauses(rect, (0, rect.width - 1))) == rect.width - 2
    wider = parse_generation_set(", ".join(map(str, literals)))
    with pytest.raises(SizeCapError) as info:
        construct_from_template(wider, max_level=10**6)
    assert (info.value.n, info.value.cap) == (WIDEST + 1, WIDEST)
    with pytest.raises(SizeCapError) as info:
        construct_from_template(wider, max_level=5)
    assert info.value.cap == 5
