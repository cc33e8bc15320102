import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rectatg import (
    Clause,
    ClauseSet,
    Constant,
    EMPTY_CLAUSE,
    EmptyClauseError,
    Function,
    GenerationSet,
    Literal,
    LiteralConjunction,
    Marker,
    MinimalityReport,
    NegatedConjunction,
    PolarityTemplate,
    Pred,
    Prop,
    Provenance,
    SatResult,
    Theorem,
    Variable,
    collect_atoms,
    complementary,
    construct_from_template,
    generate_theorem_with_partition,
    negate_clause,
    negate_literal,
    parse_generation_set,
    remove_clauses,
)
from rectatg.parser import _Token

from conftest import clause, lit


names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True)
atoms = st.one_of(
    names.map(Prop),
    st.builds(Pred, names, st.lists(names.map(Constant), max_size=2).map(tuple)),
)
literals = st.builds(Literal, atoms, st.booleans())


def test_negate_literal_flips_polarity():
    p = lit("p")
    assert negate_literal(p) == lit("p", True)
    assert negate_literal(lit("p", True)) == p


@given(literals)
def test_negate_literal_is_an_involution(l):
    assert negate_literal(negate_literal(l)) == l
    assert negate_literal(l) != l


def test_no_stacked_negation_representable():
    # Negation is a flag, so negating twice structurally collapses.
    l = Literal(Prop("p"), True)
    assert negate_literal(l).negated is False


def test_complementary():
    assert complementary(lit("p"), lit("p", True))
    assert complementary(lit("p", True), lit("p"))
    assert not complementary(lit("p"), lit("p"))
    assert not complementary(lit("p"), lit("q", True))
    fo = Literal(Pred("P1", (Constant("a"),)))
    assert complementary(fo, negate_literal(fo))
    other = Literal(Pred("P1", (Constant("b"),)), True)
    assert not complementary(fo, other)


def test_negate_clause_gives_literal_complements_in_order():
    c = clause("p", "~q")
    assert negate_clause(c) == (lit("p", True), lit("q"))


def test_negate_clause_twice_recovers_the_clause():
    c = clause("p", "~q", "r")
    again = Clause(negate_literal(l) for l in negate_clause(c))
    assert again == c


def test_negate_empty_clause_rejected():
    with pytest.raises(EmptyClauseError):
        negate_clause(EMPTY_CLAUSE)


def test_clause_equality_ignores_order():
    assert clause("p", "q") == clause("q", "p")
    assert hash(clause("p", "q")) == hash(clause("q", "p"))
    assert clause("p", "q") != clause("p")
    assert clause("p", "~q") != clause("p", "q")


def test_clause_equality_is_multiset_not_set():
    assert clause("p", "p") != clause("p")
    assert clause("p", "p", "q") == clause("q", "p", "p")


@given(st.lists(literals, min_size=1, max_size=5), st.randoms())
def test_clause_equality_under_random_shuffle(ls, rng):
    shuffled = list(ls)
    rng.shuffle(shuffled)
    assert Clause(ls) == Clause(shuffled)


def test_empty_clause_set_differs_from_set_of_empty_clause():
    assert ClauseSet() != ClauseSet([EMPTY_CLAUSE])
    assert len(ClauseSet()) == 0
    assert len(ClauseSet([EMPTY_CLAUSE])) == 1


def test_atom_structural_equality():
    assert Prop("p") == Prop("p")
    assert Prop("p") != Prop("q")
    assert Pred("P", (Constant("a"),)) == Pred("P", (Constant("a"),))
    assert Pred("P", (Constant("a"),)) != Pred("P", (Constant("b"),))
    assert Prop("p") != Pred("p")
    assert Constant("a") != Variable("a")


def test_equality_predicate_requires_arity_two():
    Pred("=", (Constant("a"), Constant("b")))
    with pytest.raises(ValueError):
        Pred("=", (Constant("a"),))
    with pytest.raises(ValueError):
        Pred("=", ())


def test_function_requires_arguments():
    with pytest.raises(ValueError):
        Function("f", ())


def test_display_forms():
    assert str(lit("p")) == "p"
    assert str(lit("p", True)) == "¬p"
    assert str(Literal(Pred("P1", (Constant("a"),)), True)) == "¬P1(a)"
    assert (
        str(Pred("P3", (Function("g", (Variable("y"), Constant("a"))),)))
        == "P3(g(y, a))"
    )
    assert str(Pred("=", (Constant("a"), Constant("b")))) == "a=b"
    assert str(clause("~p", "q")) == "¬p ∨ q"
    assert str(EMPTY_CLAUSE) == "□"


def test_collect_atoms_first_appearance_order():
    s = ClauseSet([clause("q", "p"), clause("r", "q")])
    assert collect_atoms(s) == (Prop("q"), Prop("p"), Prop("r"))


# Value semantics of the immutable value classes.  Each row is a class
# and the fields of one instance, in declaration order; ``other`` is an
# instance of the same class that differs in one field.
def _value_rows():
    p, not_q = lit("p"), lit("q", True)
    gens = GenerationSet((p, not_q))
    full = SatResult(False)
    two = (clause("p", "q"), clause("~p"))
    premises = ClauseSet(two)
    hypothesis = ClauseSet((clause("p"),))
    conclusion = LiteralConjunction((not_q,))
    provenance = Provenance(gens, (0,))
    markers = ((Marker.POSITIVE, Marker.NEGATIVE),)
    return [
        (Constant, {"name": "a"}, Constant("b")),
        (Variable, {"name": "X"}, Variable("Y")),
        (Function, {"name": "f", "args": (Constant("a"),)}, Function("f", (Constant("b"),))),
        (Prop, {"name": "p"}, Prop("q")),
        (Pred, {"predicate": "P", "args": (Variable("X"),)}, Pred("P")),
        (Literal, {"atom": Prop("p"), "negated": True}, Literal(Prop("p"))),
        (_Token, {"kind": "IDENT", "text": "p", "pos": 0}, _Token("IDENT", "p", 1)),
        (GenerationSet, {"literals": (p, not_q)}, GenerationSet((p,))),
        (PolarityTemplate, {"level": 1, "rows": markers}, PolarityTemplate(2, markers)),
        (SatResult, {"satisfiable": False, "witness": None}, SatResult(True)),
        (MinimalityReport, {"full": full, "removals": (SatResult(True),)},
         MinimalityReport(full, ())),
        (Provenance, {"generators": gens, "removed_indices": (0,)}, Provenance(gens, (1,))),
        (LiteralConjunction, {"literals": (not_q,)}, LiteralConjunction((p,))),
        (NegatedConjunction, {"clauses": two}, NegatedConjunction(two[:1])),
        (Theorem, {"premises": premises, "hypothesis_clauses": hypothesis,
                   "conclusion": conclusion, "provenance": provenance},
         Theorem(premises, premises, conclusion, provenance)),
    ]


VALUE_ROWS = _value_rows()
VALUE_IDS = [cls.__name__ for cls, _, _ in VALUE_ROWS]


@pytest.mark.parametrize("cls, fields, other", VALUE_ROWS, ids=VALUE_IDS)
def test_value_equality_and_hash_follow_the_fields(cls, fields, other):
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert hash(value) == hash(cls(*fields.values()))
    # The hash of the field tuple, so set and dict orders do not move.
    assert hash(value) == hash(tuple(fields.values()))
    assert value != other and other != value
    assert value.__eq__(object()) is NotImplemented
    assert value != tuple(fields.values())


def test_values_of_different_classes_never_compare_equal():
    assert Prop("p") != Constant("p")
    assert Constant("a") != Variable("a")
    assert LiteralConjunction((lit("p"),)) != NegatedConjunction((lit("p"),))


@pytest.mark.parametrize("cls, fields, other", VALUE_ROWS, ids=VALUE_IDS)
def test_value_repr_is_the_field_form(cls, fields, other):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_value_repr_spelled_out():
    assert repr(Prop("p")) == "Prop(name='p')"
    assert repr(Literal(Prop("p"))) == "Literal(atom=Prop(name='p'), negated=False)"
    assert repr(Pred("P", (Function("f", (Variable("X"),)),))) == (
        "Pred(predicate='P', args=(Function(name='f', args=(Variable(name='X'),)),))"
    )
    assert repr(SatResult(True, {Prop("p"): False})) == (
        "SatResult(satisfiable=True, witness={Prop(name='p'): False})"
    )
    assert repr(_Token("END", "", 3)) == "_Token(kind='END', text='', pos=3)"


@pytest.mark.parametrize("cls, fields, other", VALUE_ROWS, ids=VALUE_IDS)
def test_values_cannot_be_changed(cls, fields, other):
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)


def test_value_defaults():
    assert Pred("P").args == ()
    assert Literal(Prop("p")).negated is False
    assert SatResult(True).witness is None
    assert Literal(atom=Prop("p"), negated=True) == Literal(Prop("p"), True)
    assert SatResult(satisfiable=False) == SatResult(False, None)


def test_value_sequences_are_stored_as_tuples():
    assert Function("f", [Constant("a")]).args == (Constant("a"),)
    assert Pred("P", [Constant("a")]).args == (Constant("a"),)
    assert GenerationSet([lit("p")]).literals == (lit("p"),)
    assert Pred("P", iter([Constant("a")])) == Pred("P", (Constant("a"),))


@pytest.mark.parametrize("cls, fields, other", VALUE_ROWS, ids=VALUE_IDS)
def test_values_survive_pickle_and_copy(cls, fields, other):
    value = cls(**fields)
    for again in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(again) is cls
        assert again == value
        assert hash(again) == hash(value)
        assert repr(again) == repr(value)


def test_generated_theorem_survives_pickle_and_copy():
    theorem = generate_theorem_with_partition(parse_generation_set("p, q, r"), (0, 5))
    copies = (pickle.loads(pickle.dumps(theorem)), copy.deepcopy(theorem))
    # The premises stay a view: nothing is built until they are read.
    assert all(c.premises._kept is None for c in copies)
    for again in (*copies, copy.copy(theorem)):
        assert type(again.premises) is type(theorem.premises)
        assert again == theorem
        assert hash(again) == hash(theorem)
        assert str(again.conclusion) == str(theorem.conclusion)


def test_removed_columns_survive_pickle_and_copy():
    premises = remove_clauses(construct_from_template(parse_generation_set("p, q")), (1, 2))
    for again in (pickle.loads(pickle.dumps(premises)), copy.deepcopy(premises)):
        assert again.drop == premises.drop
        assert tuple(again) == tuple(premises)


def test_values_match_positional_patterns_by_field_order():
    for cls, fields, _ in VALUE_ROWS:
        assert cls.__match_args__ == tuple(fields)
    match Literal(Prop("p"), True):
        case Literal(Prop(name), negated):
            assert (name, negated) == ("p", True)
        case _:
            pytest.fail("no match")
