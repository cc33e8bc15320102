import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectatg import (
    Constant,
    DuplicatePredicateError,
    EmptySetError,
    Function,
    GenerationSet,
    Literal,
    ParseError,
    Pred,
    Prop,
    RectAtgError,
    Variable,
    parse_generation_set,
    parse_literal,
)

from conftest import lit, validate_generation_set


def test_parse_simple_predicate():
    assert parse_literal("P1(a)") == Literal(Pred("P1", (Constant("a"),)))


def test_parse_negated_nested_predicate_upper_style():
    got = parse_literal("~P3(g(y,a))")
    want = Literal(
        Pred("P3", (Function("g", (Constant("y"), Constant("a"))),)), True
    )
    assert got == want


def test_parse_negated_nested_predicate_lower_style():
    got = parse_literal("~P3(g(y,a))", var_style="lower")
    want = Literal(
        Pred("P3", (Function("g", (Variable("y"), Constant("a"))),)), True
    )
    assert got == want


def test_var_style_upper_reads_leading_uppercase_as_variable():
    assert parse_literal("P2(f(X))") == Literal(
        Pred("P2", (Function("f", (Variable("X"),)),))
    )
    assert parse_literal("P2(f(x))") == Literal(
        Pred("P2", (Function("f", (Constant("x"),)),))
    )


def test_var_style_lower_reads_u_through_z_as_variables():
    for name, kind in (("x", Variable), ("u", Variable), ("a", Constant), ("t", Constant)):
        got = parse_literal(f"P({name})", var_style="lower")
        assert got.atom.args[0] == kind(name)


def test_bare_identifier_is_a_proposition():
    assert parse_literal("p") == lit("p")
    assert parse_literal("¬q") == lit("q", True)
    assert parse_literal("~q") == lit("q", True)


def test_stacked_negation_is_a_syntax_error():
    with pytest.raises(ParseError) as info:
        parse_literal("~~p")
    assert info.value.position == 1
    assert "identifier" in info.value.expected


def test_parse_error_carries_position_and_expectation():
    with pytest.raises(ParseError) as info:
        parse_literal("P1(a")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_literal("p & q")
    assert info.value.position == 2


def test_whitespace_insensitive():
    assert parse_literal("  ~  P1 ( a )  ") == parse_literal("~P1(a)")
    assert parse_literal("P3(g( y ,\n a ))") == parse_literal("P3(g(y,a))")


def test_a_generation_set_reads_newlines_in_an_argument_list_as_whitespace():
    assert parse_generation_set("P(a,\n b)\nq") == parse_generation_set("P(a, b), q")
    assert str(parse_generation_set("P(\n a\n ,\n f(x,\n y)\n )")) == "{P(a, f(x, y))}"
    assert parse_generation_set("P(\n)")[0] == Literal(Pred("P", ()))
    for text, error in (("P(a\n", (4, "',' or ')'", "end of input")),
                        ("P(a,\n)", (5, "a term", ")"))):
        with pytest.raises(ParseError) as info:
            parse_generation_set(text)
        assert (info.value.position, info.value.expected, info.value.found) == error


def test_a_newline_between_a_function_name_and_its_arguments_is_whitespace():
    assert parse_generation_set("p(f\n(a)), q") == parse_generation_set("p(f (a)), q")
    assert parse_generation_set("p(f\n(a)), q")[0] == parse_literal("p(f(a))")
    assert parse_generation_set("P(X,\n g\n(Y)), q") == parse_generation_set("P(X, g(Y)), q")


def test_a_newline_before_a_literals_argument_list_still_separates():
    # Outside every parenthesis a newline ends the literal, so "(" then
    # starts the next one.
    with pytest.raises(ParseError) as info:
        parse_generation_set("p\n(a)")
    assert (info.value.position, info.value.expected, info.value.found) == (
        2, "an identifier", "("
    )


def test_empty_parens_make_a_nullary_predicate():
    assert parse_literal("P()") == Literal(Pred("P", ()))
    assert parse_literal("P()") != parse_literal("P")


def test_equality_atoms():
    assert parse_literal("a=b") == Literal(
        Pred("=", (Constant("a"), Constant("b")))
    )
    assert parse_literal("~a = b").negated
    assert parse_literal("f(x)=a") == Literal(
        Pred("=", (Function("f", (Constant("x"),)), Constant("a")))
    )
    with pytest.raises(ParseError):
        parse_literal("P(a=b)")
    with pytest.raises(ParseError):
        parse_literal("P() = a")


def test_parse_generation_set_commas():
    g = parse_generation_set("w, x, y, z")
    assert [str(l) for l in g] == ["w", "x", "y", "z"]
    assert g.n == 4


def test_parse_generation_set_mixed_separators():
    g = parse_generation_set("P1(a); ~P2(f(x))\nP3(g(y,a)),\n\nq\n")
    assert g.n == 4
    assert g[1].negated


def test_negated_generation_literals_are_fine():
    g = parse_generation_set("p, ~q")
    assert [l.negated for l in g] == [False, True]


def test_empty_input_rejected():
    for text in ("", "   ", "\n\n", ",;,\n"):
        with pytest.raises(EmptySetError):
            parse_generation_set(text)


def test_missing_separator_rejected():
    with pytest.raises(ParseError) as info:
        parse_generation_set("p q")
    assert "separator" in info.value.expected


def test_duplicate_predicate_symbol_rejected_with_positions():
    with pytest.raises(DuplicatePredicateError) as info:
        parse_generation_set("P(a), P(b)")
    assert (info.value.symbol, info.value.first, info.value.second) == ("P", 1, 2)

    with pytest.raises(DuplicatePredicateError) as info:
        parse_generation_set("p, q, p")
    assert (info.value.symbol, info.value.first, info.value.second) == ("p", 1, 3)


def test_equality_counts_as_a_predicate_symbol():
    with pytest.raises(DuplicatePredicateError) as info:
        parse_generation_set("a=b, c=d")
    assert info.value.symbol == "="
    assert (info.value.first, info.value.second) == (1, 2)


def test_proposition_and_predicate_share_one_symbol_namespace():
    with pytest.raises(DuplicatePredicateError):
        validate_generation_set([lit("p"), Literal(Pred("p", (Constant("a"),)))])


def test_validate_empty_rejected():
    with pytest.raises(EmptySetError):
        validate_generation_set([])


def test_generation_set_is_ordered_and_indexable():
    g = validate_generation_set([lit("p"), lit("q", True)])
    assert isinstance(g, GenerationSet)
    assert g[0] == lit("p")
    assert g[1] == lit("q", True)
    assert len(g) == 2
    assert str(g) == "{p, ¬q}"


def test_unknown_var_style_rejected():
    with pytest.raises(ValueError):
        parse_literal("p", var_style="prolog")


# Round trip: rendering any literal and parsing it again is the
# identity.  Term names are drawn so classification under the chosen
# style is stable; predicate and proposition names are drawn from every
# name character, skipping the names the constructors refuse, so a
# value the parser cannot read back shows up here.

lower_names = st.from_regex(r"[a-s][a-zA-Z0-9_]{0,3}", fullmatch=True)
upper_names = st.from_regex(r"[A-Z][a-zA-Z0-9_]{0,3}", fullmatch=True)
any_names = st.one_of(lower_names, upper_names)


def _constructible(name):
    try:
        Prop(name)
    except ValueError:
        return False
    return True


symbol_names = st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True).filter(_constructible)

upper_style_terms = st.recursive(
    st.one_of(upper_names.map(Variable), lower_names.map(Constant)),
    lambda kids: st.builds(
        Function, any_names, st.lists(kids, min_size=1, max_size=3).map(tuple)
    ),
    max_leaves=4,
)
upper_style_atoms = st.one_of(
    symbol_names.map(Prop),
    st.builds(
        Pred, symbol_names, st.lists(upper_style_terms, max_size=3).map(tuple)
    ),
    st.builds(lambda a, b: Pred("=", (a, b)), upper_style_terms, upper_style_terms),
)
upper_style_literals = st.builds(Literal, upper_style_atoms, st.booleans())


@given(upper_style_literals)
def test_render_parse_round_trip(l):
    assert parse_literal(str(l), var_style="upper") == l


@given(st.lists(st.sampled_from("pqrstu"), min_size=1, max_size=8))
def test_validate_accepts_iff_symbols_injective(symbols):
    literals = [lit(s) for s in symbols]
    if len(set(symbols)) == len(symbols):
        assert validate_generation_set(literals).n == len(symbols)
    else:
        with pytest.raises(DuplicatePredicateError):
            validate_generation_set(literals)


@settings(max_examples=500, deadline=None)
@given(
    st.text(st.sampled_from("pqPfgxXa01_(),;=~¬ \n\t\r") | st.characters(), max_size=60),
    st.sampled_from(("upper", "lower")),
)
def test_arbitrary_text_raises_only_package_errors(text, style):
    try:
        parse_generation_set(text, style)
    except RectAtgError:
        pass


def test_trailing_input_after_a_literal_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_literal("p q")
    assert (info.value.position, info.value.expected, info.value.found) == (2, "end of input", "q")
