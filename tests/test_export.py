import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectatg import (
    AtomNumbering,
    Clause,
    ClauseSet,
    GenerationSet,
    Literal,
    MalformedRecordError,
    Prop,
    RectAtgError,
    SchemaMismatchError,
    UnnumberedAtomError,
    construct_from_template,
    export_dimacs,
    export_tptp,
    generate_theorem,
    generate_theorem_with_partition,
    load_record,
    parse_generation_set,
    parse_literal,
    remove_clauses,
    render_matrix,
    render_theorem,
    save_record,
    verify_theorem,
)
from rectatg import export

from conftest import (
    clause,
    clause_set,
    construct_naive,
    dimacs_reference,
    first_difference,
    grid_clauses,
    lit,
    matrix_reference,
    random_generation_set,
    record_reference,
    replace,
    tptp_reference,
    unchecked_prop,
)

DIMACS_TWO_GENERATORS = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"


def rect_for(text, **kw):
    return construct_from_template(parse_generation_set(text, **kw))


def test_numbering_follows_generation_order():
    rect = rect_for("p, q, r")
    numbering = AtomNumbering.from_rectangle(rect)
    assert [numbering.number(Prop(s)) for s in "pqr"] == [1, 2, 3]
    assert numbering.atom(2) == Prop("q")
    assert len(numbering) == 3


def test_numbering_round_trips_and_rejects_strangers():
    numbering = AtomNumbering.from_clause_set(clause_set(clause("q", "p")))
    assert numbering.number(Prop("q")) == 1
    with pytest.raises(UnnumberedAtomError):
        numbering.number(Prop("z"))
    with pytest.raises(UnnumberedAtomError):
        numbering.atom(3)
    with pytest.raises(ValueError):
        AtomNumbering([Prop("p"), Prop("p")])


def test_dimacs_two_generator_fixture_is_byte_exact():
    rect = rect_for("p, q")
    got = export_dimacs(rect.clause_set(), AtomNumbering.from_rectangle(rect))
    assert got == DIMACS_TWO_GENERATORS


def test_dimacs_of_empty_clause_set():
    assert export_dimacs(ClauseSet(), AtomNumbering(())) == "p cnf 0 0\n"


def test_dimacs_after_removal():
    rect = rect_for("p, q")
    rest = remove_clauses(rect, (0,))
    got = export_dimacs(rest, AtomNumbering.from_rectangle(rect))
    assert got == "p cnf 2 3\n-1 2 0\n1 -2 0\n-1 -2 0\n"


def test_dimacs_first_order_sets_get_a_comment_map():
    rect = rect_for("P1(a), ~P2(f(x))")
    got = export_dimacs(rect.clause_set(), AtomNumbering.from_rectangle(rect))
    lines = got.splitlines()
    assert lines[0] == "c 1 P1(a)"
    assert lines[1] == "c 2 P2(f(x))"
    assert lines[2] == "p cnf 2 4"
    # Column 0 carries the generators as written, negation included.
    assert lines[3] == "1 -2 0"


def test_dimacs_rejects_atoms_outside_the_numbering():
    numbering = AtomNumbering((Prop("p"),))
    with pytest.raises(UnnumberedAtomError):
        export_dimacs(clause_set(clause("q")), numbering)


@pytest.mark.parametrize("n", range(1, 5))
def test_dimacs_shape_for_full_rectangles(n):
    rect = rect_for(", ".join(f"p{i}" for i in range(n)))
    got = export_dimacs(rect.clause_set(), AtomNumbering.from_rectangle(rect))
    lines = got.splitlines()
    assert lines[0] == f"p cnf {n} {1 << n}"
    body = [tuple(int(x) for x in line.split()[:-1]) for line in lines[1:]]
    assert len(set(body)) == 1 << n
    assert all(len(row) == n for row in body)
    assert all(abs(row[i]) == i + 1 for row in body for i in range(n))


def test_matrix_single_generator():
    out = render_matrix(rect_for("p"))
    assert out.split() == ["p", "¬p"]


def test_matrix_reparses_to_the_original_grid():
    rect = rect_for("P1(a), ~P2(f(x)), P3(g(y,a))")
    for line, row in zip(render_matrix(rect).splitlines(), rect.rows):
        cells = re.split(r" {2,}", line.strip())
        assert tuple(parse_literal(c) for c in cells) == row


def test_matrix_lines_and_columns_align():
    out = render_matrix(rect_for("w, x, y, z"))
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == [
        "w", "¬w", "w", "¬w", "w", "¬w", "w", "¬w",
        "w", "¬w", "w", "¬w", "w", "¬w", "w", "¬w",
    ]


def test_matrix_spans_several_blocks_of_columns():
    # 2^13 columns span many runs of each row; the first-order cells
    # give the columns two widths, interleaved by the low bits.
    rect = rect_for(", ".join(f"P{i}(f(a{i % 3}, X))" if i % 4 else f"p{i}" for i in range(13)))
    want = matrix_reference(construct_naive(rect.generators))
    assert first_difference(render_matrix(rect), want) is None


def test_tptp_single_generator():
    t = generate_theorem(parse_generation_set("p"))
    assert export_tptp(t) == (
        "cnf(premise_0001, axiom, ~p).\n"
        "fof(conclusion, conjecture, ~p).\n"
    )


def test_tptp_canonical_two_generators():
    t = generate_theorem(parse_generation_set("p, q"))
    assert export_tptp(t) == (
        "cnf(premise_0001, axiom, (~p | q)).\n"
        "cnf(premise_0002, axiom, (p | ~q)).\n"
        "cnf(premise_0003, axiom, (~p | ~q)).\n"
        "fof(conclusion, conjecture, (~p & ~q)).\n"
    )


def test_tptp_quotes_nonconforming_symbols_and_uppercases_variables():
    g = parse_generation_set("P1(a), ~P2(f(x)), P3(g(y,a))", var_style="lower")
    out = export_tptp(generate_theorem(g))
    assert "'P1'(a)" in out
    assert "f(X)" in out
    assert "g(Y,a)" in out
    assert out.strip().endswith(
        "fof(conclusion, conjecture, "
        "! [X, Y] : (~'P1'(a) & 'P2'(f(X)) & ~'P3'(g(Y,a))))."
    )


def test_tptp_multi_clause_hypothesis_conjecture():
    t = generate_theorem_with_partition(parse_generation_set("p, q"), (0, 1))
    out = export_tptp(t)
    assert "fof(conclusion, conjecture, ~((p | q) & (~p | q)))." in out


def test_render_theorem_text():
    t = generate_theorem(parse_generation_set("p, q"))
    assert render_theorem(t) == "¬p ∨ q\np ∨ ¬q\n¬p ∨ ¬q\n⊢ ¬p ∧ ¬q\n"


def test_record_round_trip_identity():
    for text, style, partition in (
        ("p, q", "upper", None),
        ("P1(a), ~P2(f(x)), P3(g(y,a))", "lower", None),
        ("p, q, r", "upper", (1, 5)),
    ):
        g = parse_generation_set(text, var_style=style)
        if partition is None:
            t = generate_theorem(g)
        else:
            t = generate_theorem_with_partition(g, partition)
        assert load_record(save_record(t)) == t


def test_record_fields():
    t = generate_theorem(parse_generation_set("p, q"))
    data = json.loads(save_record(t))
    assert data["version"] == 1
    assert data["removed_indices"] == [0]
    assert data["premises"] == ["¬p ∨ q", "p ∨ ¬q", "¬p ∨ ¬q"]
    assert data["conclusion"] == "¬p ∧ ¬q"
    assert [l["atom"]["name"] for l in data["generators"]] == ["p", "q"]


def test_record_distinguishes_variables_from_constants():
    g = parse_generation_set("P2(f(x))", var_style="lower")
    t = generate_theorem(g)
    reloaded = load_record(save_record(t))
    assert reloaded.provenance.generators == g
    upper = parse_generation_set("P2(f(x))", var_style="upper")
    assert reloaded.provenance.generators != upper


def test_unknown_schema_version_rejected():
    t = generate_theorem(parse_generation_set("p"))
    data = json.loads(save_record(t))
    data["version"] = 2
    with pytest.raises(SchemaMismatchError):
        load_record(json.dumps(data))


def test_malformed_json_rejected():
    with pytest.raises(MalformedRecordError):
        load_record("{not json")
    with pytest.raises(MalformedRecordError):
        load_record("[1, 2, 3]")


def test_missing_fields_rejected():
    t = generate_theorem(parse_generation_set("p"))
    data = json.loads(save_record(t))
    del data["premises"]
    with pytest.raises(MalformedRecordError):
        load_record(json.dumps(data))


def test_tampered_premises_rejected_on_revalidation():
    t = generate_theorem(parse_generation_set("p, q"))
    data = json.loads(save_record(t))
    data["premises"] = data["premises"][1:]
    with pytest.raises(MalformedRecordError):
        load_record(json.dumps(data))


def test_tampered_indices_rejected_on_revalidation():
    t = generate_theorem(parse_generation_set("p, q"))
    data = json.loads(save_record(t))
    data["removed_indices"] = [1]
    with pytest.raises(MalformedRecordError):
        load_record(json.dumps(data))


def test_record_with_bad_provenance_rejected():
    t = generate_theorem(parse_generation_set("p, q"))
    data = json.loads(save_record(t))
    data["removed_indices"] = [99]
    with pytest.raises(MalformedRecordError):
        load_record(json.dumps(data))
    data["removed_indices"] = []
    with pytest.raises(MalformedRecordError):
        load_record(json.dumps(data))


def test_record_rebuild_never_lists_every_premise():
    # Listing the 16381 premise texts at n=14 peaks near 4 MiB; a block
    # holds 128 of them.  The hypothesis straddles two blocks.
    g = parse_generation_set(", ".join(f"p{i}" for i in range(14)))
    t = generate_theorem_with_partition(g, (0, 127, 128))
    data = export.read_record(save_record(t))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rebuilt = export.rebuild_record(data)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, peak
    assert rebuilt.provenance == t.provenance


def _tptp_clause_reference(c):
    parts = [export._tptp_literal(l) for l in c.literals]
    return parts[0] if len(parts) == 1 else f"({' | '.join(parts)})"


@pytest.mark.parametrize("first_order", (False, True))
@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_writers_agree_on_closed_form_explicit_rows_and_clause_objects(
    first_order, rng, data
):
    g = random_generation_set(rng, max_n=8, first_order=first_order)
    closed, rows = construct_from_template(g), construct_naive(g)
    numbering = AtomNumbering.from_rectangle(closed)
    assert render_matrix(closed) == matrix_reference(rows)
    plain = ClauseSet(grid_clauses(rows))
    want = export_dimacs(plain, numbering)
    assert export_dimacs(closed.clause_set(), numbering) == want
    assert dimacs_reference(plain, numbering.atoms) == want

    hyp = data.draw(st.lists(st.integers(0, closed.width - 1), min_size=1, max_size=8))
    t = generate_theorem_with_partition(g, hyp)
    on_clauses = replace(t, premises=ClauseSet(c for j, c in enumerate(plain) if j not in hyp))
    texts = [str(c) for c in on_clauses.premises]
    want = "".join(f"{x}\n" for x in texts) + f"⊢ {t.conclusion}\n"
    assert render_theorem(t) == want
    tptp = [_tptp_clause_reference(c) for c in on_clauses.premises]
    lines = export_tptp(t).splitlines()[:-1]
    assert [line.split(", ", 2)[2][:-2] for line in lines] == tptp
    assert json.loads(save_record(t))["premises"] == texts
    assert save_record(t) == record_reference(on_clauses)
    for writer in (render_theorem, export_tptp, save_record):
        assert writer(t) == writer(on_clauses)
    want = export_dimacs(on_clauses.premises, numbering)
    assert export_dimacs(t.premises, numbering) == want
    # Rendering the closed form built no Clause and laid out no row.
    assert t.premises._kept is None
    assert t.premises.rect._clauses is None and t.premises.rect._rows is None
    assert closed._clauses is None and closed._rows is None


def test_replaced_premises_are_rendered_and_verified():
    t = generate_theorem(parse_generation_set("p, q, r"))
    swapped = replace(t, premises=ClauseSet(reversed(tuple(t.premises))))
    lines = render_theorem(t).splitlines()
    assert render_theorem(swapped).splitlines() == lines[-2::-1] + lines[-1:]
    assert json.loads(save_record(swapped))["premises"] == lines[-2::-1]
    assert verify_theorem(swapped)
    shorter = replace(t, premises=ClauseSet(tuple(t.premises)[1:]))
    assert render_theorem(shorter).splitlines() == lines[1:]
    assert export_tptp(shorter).count("axiom") == len(lines) - 2
    assert not verify_theorem(shorter)


def test_empty_clause_renders_in_every_writer():
    t = generate_theorem(parse_generation_set("p"))
    odd = replace(t, premises=ClauseSet((Clause(()), Clause((lit("p"),)))))
    assert render_theorem(odd) == "□\np\n⊢ ¬p\n"
    assert json.loads(save_record(odd))["premises"] == ["□", "p"]
    assert export_tptp(odd).splitlines()[:2] == [
        "cnf(premise_0001, axiom, ()).",
        "cnf(premise_0002, axiom, p).",
    ]
    numbering = AtomNumbering((Prop("p"),))
    assert export_dimacs(odd.premises, numbering) == "p cnf 1 2\n0\n1 0\n"


@pytest.mark.parametrize("hypothesis", ((0,), (3, 1), tuple(range(8))))
def test_record_streams_names_that_json_escapes(hypothesis):
    names = ('say "hi"', "back\\slash", "Prädikat\n\t☃")
    odd = GenerationSet(tuple(Literal(unchecked_prop(x), i == 1) for i, x in enumerate(names)))
    t = generate_theorem_with_partition(odd, hypothesis)
    assert save_record(t) == record_reference(t)


@pytest.mark.parametrize("hypothesis", (range(6385), range(6384), (0, 999, 1000, 4095)))
def test_tptp_axiom_names_match_formatted_numbers(hypothesis):
    # 9999 premises take four digits and 10000 take five; the other
    # split leaves 16380 premises at n=14, in blocks of 128 lines that
    # cross every thousand.
    g = parse_generation_set(", ".join(f"p{i}" for i in range(14)))
    t = generate_theorem_with_partition(g, hypothesis)
    got, want = export_tptp(t), tptp_reference(t)
    assert first_difference(got, want) is None
    width = len(re.search(r"premise_(\d+),", got).group(1))
    assert width == max(4, len(str(len(t.premises))))


def test_oversized_integer_in_a_record_is_malformed():
    t = generate_theorem(parse_generation_set("p, q"))
    huge = '"removed_indices": [' + "9" * 5000 + "]"
    text = save_record(t).replace('"removed_indices": [\n    0\n  ]', huge)
    assert "9" * 5000 in text
    with pytest.raises(MalformedRecordError, match="too long"):
        load_record(text)


def test_version_must_be_the_integer_one():
    data = json.loads(save_record(generate_theorem(parse_generation_set("p"))))
    for version in (1.0, True, "1"):
        data["version"] = version
        with pytest.raises(SchemaMismatchError):
            load_record(json.dumps(data))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_RECORD = json.loads(save_record(generate_theorem_with_partition(
    parse_generation_set("p, ~Q(a, f(X)), R(g(b, h(c)))"), (0, 5)
)))


def _record_fields(node, path=()):
    """Every field of the record, generator fields and nested terms included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _record_fields(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield path + (i,)
            yield from _record_fields(value, path + (i,))


_FIELDS = list(_record_fields(_RECORD))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_FIELDS), _JSON)
def test_arbitrary_json_in_any_record_field_raises_only_package_errors(path, value):
    data = json.loads(json.dumps(_RECORD))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        load_record(json.dumps(data))
    except RectAtgError:
        pass


def test_record_fields_cover_every_generator_field():
    names = {path[-1] for path in _FIELDS if path[0] == "generators"}
    assert {"atom", "kind", "name", "args", "symbol", "negated"} <= names


def test_generators_that_are_not_a_list_are_malformed():
    data = json.loads(save_record(generate_theorem(parse_generation_set("p, q"))))
    data["generators"] = {}
    with pytest.raises(MalformedRecordError) as info:
        export.read_record(json.dumps(data))
    assert str(info.value) == "generators must be a JSON list"
