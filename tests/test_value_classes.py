"""Clauses, clause sets, rectangle views, rows and atom numberings are
immutable values: they refuse assignment, and pickle and ``copy``
rebuild them from their fields, so a copied view has built nothing.
"""

import copy
import inspect
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectatg import (
    EMPTY_CLAUSE,
    AtomNumbering,
    Clause,
    ClauseSet,
    Constant,
    Literal,
    Pred,
    Prop,
    collect_atoms,
    construct_from_template,
    generate_theorem,
    generate_theorem_with_partition,
    make_template,
    parse_generation_set,
    remove_clauses,
    save_record,
    load_record,
    verify_theorem,
)
from rectatg.logic import _Value
from rectatg.rectangle import ColumnSet
from rectatg.template import _Row

from conftest import clause, lit, random_generation_set
from test_rectangle import _names, _run_limited


def _rect(text="p, ~q, r"):
    return construct_from_template(parse_generation_set(text))


def _samples():
    """One value of each class, and its public fields."""
    rect = _rect()
    theorem = generate_theorem_with_partition(rect.generators, (1, 6))
    return [
        (clause("p", "~q"), ("literals",)),
        (EMPTY_CLAUSE, ("literals",)),
        (ClauseSet([clause("p"), clause("~q", "r")]), ("clauses",)),
        (remove_clauses(rect, (0, 5)), ("rect", "drop", "keep")),
        (theorem.hypothesis_clauses, ("rect", "drop", "keep")),
        (rect.rows[1], ("pair", "i", "n")),
        (make_template(3).rows[2], ("pair", "i", "n")),
        (AtomNumbering.from_rectangle(rect), ("atoms",)),
    ]


SAMPLES = _samples()
SAMPLE_IDS = [f"{type(v).__name__}-{k}" for k, (v, _) in enumerate(SAMPLES)]


@pytest.mark.parametrize("cls", [Clause, ClauseSet, ColumnSet, _Row, AtomNumbering])
def test_each_class_is_a_value_with_no_plain_stores(cls):
    assert issubclass(cls, _Value)
    assert "__reduce__" not in vars(cls)
    assert not re.search(r"\bself\.\w+\s*(=[^=]|[-+*/|&^]=)", inspect.getsource(cls))


@pytest.mark.parametrize("value, fields", SAMPLES, ids=SAMPLE_IDS)
def test_fields_cannot_be_assigned_or_deleted(value, fields):
    before = copy.deepcopy(value)
    assert type(value)._fields(value) == tuple(getattr(value, f) for f in fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == before


@pytest.mark.parametrize("value, fields", SAMPLES, ids=SAMPLE_IDS)
def test_values_pickle_and_copy_by_their_fields(value, fields):
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(again) is type(value)
        assert again == value and value == again and hash(again) == hash(value)
        assert repr(again) == repr(value)


@pytest.mark.parametrize("keep", [False, True], ids=["drop", "keep"])
def test_copied_views_have_built_nothing(keep):
    rect = _rect()
    theorem = generate_theorem_with_partition(rect.generators, (2, 3, 7))
    view = theorem.hypothesis_clauses if keep else theorem.premises
    # Fill every cache the view and its rectangle have.
    view.clauses, view.rect.clauses, view.rect.rows
    assert view._kept is not None and view.rect._clauses is not None
    for again in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view)):
        assert again._kept is None and again.rect._clauses is None and again.rect._rows is None
        assert again == view and tuple(again) == tuple(view)
    # A shallow copy shares its fields, the rectangle among them.
    again = copy.copy(view)
    assert again._kept is None and again.rect is view.rect and again == view


def test_clause_sets_print_by_their_fields():
    assert repr(ClauseSet([clause("p", "~q"), EMPTY_CLAUSE])) == (
        "ClauseSet(clauses=(Clause(p ∨ ¬q), Clause(□)))"
    )
    rect = _rect()
    premises = remove_clauses(rect, (5, 0))
    assert repr(premises) == str(premises) == (
        "ColumnSet(rect=Rectangle(n=3, width=8), drop=frozenset({0, 5}), keep=None)"
    )
    assert premises._kept is None and rect._clauses is None


def test_assignments_that_once_went_stale_raise():
    theorem = generate_theorem(parse_generation_set("p, q"))
    with pytest.raises(AttributeError):
        theorem.premises.drop = frozenset()
    assert len(theorem.premises) == 3 and verify_theorem(theorem)
    assert load_record(save_record(theorem)) == theorem
    with pytest.raises(AttributeError):
        EMPTY_CLAUSE.literals = (lit("p"),)
    assert EMPTY_CLAUSE.literals == () and str(EMPTY_CLAUSE) == "□"
    view = remove_clauses(_rect("p, q"), [0])
    view.clauses
    with pytest.raises(AttributeError):
        view.drop = frozenset({1})
    assert len(list(view)) == len(view) == 3 and tuple(view) == _rect("p, q").clauses[1:]


def test_atom_numberings_compare_by_their_atoms():
    a = AtomNumbering((Prop("p"), Prop("q")))
    assert a == AtomNumbering([Prop("p"), Prop("q")]) and hash(a) == hash(((Prop("p"), Prop("q")),))
    assert a != AtomNumbering((Prop("q"), Prop("p")))
    assert pickle.loads(pickle.dumps(a)).number(Prop("q")) == 2
    with pytest.raises(ValueError, match="must not repeat atoms"):
        AtomNumbering([Prop("p"), Prop("q"), Prop("p")])


names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,2}", fullmatch=True)
atoms = st.one_of(
    names.map(Prop),
    st.builds(Pred, names, st.lists(names.map(Constant), max_size=2).map(tuple)),
)
clause_sets = st.lists(
    st.lists(st.builds(Literal, atoms, st.booleans()), max_size=4).map(Clause), max_size=5
).map(ClauseSet)


@given(clause_sets)
def test_numbering_a_plain_set_numbers_its_atoms_in_first_appearance_order(clause_set):
    assert AtomNumbering.from_clause_set(clause_set).atoms == collect_atoms(clause_set)


def test_numbering_a_plain_set_reads_no_masks(monkeypatch):
    # Masks of a plain set hold a 1 << i integer per literal: quadratic
    # in the atoms for unit clauses over distinct atoms.
    def refuse(*args):
        raise AssertionError("masks were read")

    monkeypatch.setattr(ClauseSet, "masks", refuse)
    units = ClauseSet(Clause([lit(f"p{i}")]) for i in range(5000))
    assert AtomNumbering.from_clause_set(units).atoms == collect_atoms(units)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_numbering_a_view_builds_no_clause(seed, data):
    rect = construct_from_template(random_generation_set(random.Random(seed), max_n=5))
    # Some columns on both sides: an empty view has no atoms to number.
    width = rect.width
    cut = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width - 1, unique=True))
    theorem = generate_theorem_with_partition(rect.generators, cut)
    views = (theorem.premises, theorem.hypothesis_clauses)
    numberings = [AtomNumbering.from_clause_set(view) for view in views]
    assert all(view._kept is None for view in views) and rect._clauses is None
    for view, numbering in zip(views, numberings):
        assert numbering.atoms == collect_atoms(pickle.loads(pickle.dumps(view)))


def test_rows_with_equal_fields_are_equal_before_any_cell_is_read():
    class Unread(tuple):
        def __getitem__(self, k):
            raise AssertionError("a cell was read")

    a, b = _Row(Unread("ab"), 3, 5), _Row(Unread("ab"), 3, 5)
    assert a == b and b == a and not a != b


def test_a_row_reads_its_cells_for_its_hash_once():
    class Counted(tuple):
        reads = 0

        def __getitem__(self, k):
            Counted.reads += 1
            return tuple.__getitem__(self, k)

    row = _Row(Counted((lit("p"), lit("p", True))), 2, 6)
    assert hash(row) == hash(tuple(row)) and Counted.reads == 2 * 64
    assert hash(row) == hash(tuple(row)) and Counted.reads == 3 * 64
    assert not hasattr(copy.copy(row), "_hash")


def test_rows_that_differ_in_a_field_compare_cell_by_cell():
    p, q = lit("p"), lit("q")
    # Equal cells from other fields: (p, p) either way.
    assert _Row((p, q), 1, 1) == _Row((p, lit("r")), 1, 1)
    assert _Row((p, p), 0, 2) == _Row((p, p), 1, 2) == (p,) * 4
    assert (p,) * 4 == _Row((p, p), 0, 2)
    # Other cells from one other field.
    assert _Row((p, q), 0, 2) != _Row((p, q), 1, 2)
    assert _Row((p, q), 0, 2) != _Row((q, p), 0, 2)
    assert _Row((p, q), 0, 2) != _Row((p, q), 0, 3)
    assert make_template(2).rows[0] != make_template(3).rows[0]
    assert make_template(3).rows[0] != make_template(3).rows[1]
    row = make_template(3).rows[1]
    assert row == tuple(row) and tuple(row) == row and row != tuple(row)[:-1]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_equal_rectangles_and_templates_have_equal_rows(seed):
    generators = random_generation_set(random.Random(seed), max_n=6)
    a, b = construct_from_template(generators), construct_from_template(generators)
    assert a.rows == b.rows and a.rows is not b.rows
    assert make_template(generators.n) == make_template(generators.n)
    assert tuple(map(tuple, a.rows)) == b.rows


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds mmap on Linux")
@pytest.mark.parametrize("make", [
    "make_template(24)",
    f"construct_from_template(parse_generation_set({_names(24)!r})).rows",
], ids=["template", "rectangle"])
def test_level_24_rows_compare_in_a_small_process(make):
    # Walked cell by cell, either comparison reads 24 * 2**24 pairs of cells.
    done = _run_limited(
        "import time\n"
        "from rectatg import construct_from_template, make_template, parse_generation_set\n"
        f"a, b = {make}, {make}\n"
        "start = time.perf_counter()\n"
        "equal = a == b\n"
        "print(equal, time.perf_counter() - start < 5)\n",
        1024,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True True\n", "")
