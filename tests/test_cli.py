import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rectatg
from rectatg import (
    AtomNumbering,
    ClauseSet,
    GenerationSet,
    Literal,
    MalformedRecordError,
    construct_from_template,
    export_dimacs,
    export_tptp,
    generate_theorem,
    generate_theorem_with_partition,
    load_record,
    parse_generation_set,
    render_matrix,
    render_theorem,
    save_record,
)
from rectatg import cli, export
from rectatg.cli import main
from rectatg.parser import MAX_NESTING

from conftest import (
    argparse_reference,
    construct_naive,
    dimacs_reference,
    first_difference,
    grid_clauses,
    matrix_reference,
    record_reference,
    replace,
    theorem_reference,
    tptp_reference,
    unchecked_prop,
)

THEOREM_TEXT = "¬p ∨ q\np ∨ ¬q\n¬p ∨ ¬q\n⊢ ¬p ∧ ¬q\n"
DIMACS_TWO_GENERATORS = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("RECT_ATG_MAX_N", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_text(capsys):
    code, out, err = run(capsys, "generate", "-l", "p, q")
    assert (code, err) == (0, "")
    assert out == THEOREM_TEXT


def test_generate_tptp(capsys):
    code, out, _ = run(capsys, "generate", "-l", "p", "-o", "tptp")
    assert code == 0
    assert out == (
        "cnf(premise_0001, axiom, ~p).\n"
        "fof(conclusion, conjecture, ~p).\n"
    )


def test_generate_json(capsys):
    code, out, _ = run(capsys, "generate", "-l", "p, q", "-o", "json")
    assert code == 0
    data = json.loads(out)
    assert data["version"] == 1
    assert data["conclusion"] == "¬p ∧ ¬q"


def test_generate_with_partition(capsys):
    code, out, _ = run(capsys, "generate", "-l", "p, q", "-H", "0,1", "-o", "tptp")
    assert code == 0
    assert "fof(conclusion, conjecture, ~((p | q) & (~p | q)))." in out


def test_generate_verify_passes(capsys):
    code, out, err = run(capsys, "generate", "-l", "p, q, r", "--verify")
    assert (code, err) == (0, "")
    assert out.endswith("⊢ ¬p ∧ ¬q ∧ ¬r\n")


def test_rectangle_matrix(capsys):
    code, out, _ = run(capsys, "rectangle", "-l", "p")
    assert code == 0
    assert out == "p  ¬p\n"


def test_rectangle_dimacs(capsys):
    code, out, _ = run(capsys, "rectangle", "-l", "p, q", "-o", "dimacs")
    assert code == 0
    assert out == DIMACS_TWO_GENERATORS


def test_check_reports_minimality(capsys):
    code, out, _ = run(capsys, "check", "-l", "p, q")
    assert code == 0
    assert out == "full: UNSAT; removals: 4/4 SAT\n"


def test_check_at_sixteen_generators_reads_the_closed_form(capsys, monkeypatch):
    def no_clause_view(rect):
        raise AssertionError("check built the Clause view")

    monkeypatch.setattr(rectatg.Rectangle, "clauses", property(no_clause_view))
    literals = ", ".join(f"p{i:02d}" for i in range(16))
    code, out, err = run(capsys, "check", "-l", literals)
    assert (code, err) == (0, "")
    assert out == "full: UNSAT; removals: 65536/65536 SAT\n"


def test_check_record_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "-l", "P1(a), ~P2(f(x))", "-o", "json")
    assert code == 0
    record = tmp_path / "theorem.json"
    record.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "check", "--record", str(record))
    assert (code, err) == (0, "")
    assert out == "full: UNSAT; removals: 4/4 SAT\ntheorem: verified\n"


def test_tampered_record_is_an_input_error(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "-l", "p, q", "-o", "json")
    data = json.loads(out)
    data["premises"][0] = "p ∨ q"
    record = tmp_path / "bad.json"
    record.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "check", "--record", str(record))
    assert code == 2
    assert err.startswith("error:")


def _record_with_premises(capsys, tmp_path, change):
    # n=11: 2047 premises in blocks of 32, so a change past the first
    # block is compared block by block.
    literals = ", ".join(f"p{i}" for i in range(11))
    code, out, _ = run(capsys, "generate", "-l", literals, "-o", "json")
    assert code == 0
    data = json.loads(out)
    data["premises"] = change(data["premises"])
    record = tmp_path / "bad.json"
    record.write_text(json.dumps(data), encoding="utf-8")
    return run(capsys, "check", "--record", str(record))


@pytest.mark.parametrize(
    "change",
    (lambda p: "\n".join(p), lambda p: dict(enumerate(p)), lambda p: None, lambda p: len(p)),
    ids=("string", "object", "null", "number"),
)
def test_record_whose_premises_are_not_a_list_is_an_input_error(capsys, tmp_path, change):
    code, out, err = _record_with_premises(capsys, tmp_path, change)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "disagree" in err


@pytest.mark.parametrize(
    "change",
    (lambda p: p[:-1], lambda p: p + p[-1:], lambda p: p[1:], lambda p: p[:100] + p[101:] + ["x"],
     lambda p: p[:-1] + ["x"], lambda p: p[:31] + [p[32], p[31]] + p[33:]),
    ids=("last-missing", "last-repeated", "first-missing", "shifted", "last-changed",
         "swapped-across-blocks"),
)
def test_record_with_the_wrong_premises_is_an_input_error(capsys, tmp_path, change):
    code, out, err = _record_with_premises(capsys, tmp_path, change)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "disagree" in err


def test_duplicate_generator_is_an_input_error(capsys):
    code, _, err = run(capsys, "generate", "-l", "p, ~p")
    assert code == 2
    assert "p" in err


def test_empty_input_is_an_input_error(capsys):
    code, _, err = run(capsys, "generate", "-l", "   ")
    assert code == 2
    assert err.startswith("error:")


def test_syntax_error_is_an_input_error(capsys):
    code, _, err = run(capsys, "generate", "-l", "p & q")
    assert code == 2
    assert "position" in err


def test_too_many_atoms_for_check_is_a_cap_error(capsys):
    literals = ", ".join(f"p{i}" for i in range(21))
    code, _, err = run(capsys, "check", "-l", literals)
    assert code == 3
    assert "21" in err and "20" in err


def test_verify_refuses_too_many_atoms_before_building(capsys, monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("the theorem was built before the atom bound was checked")

    monkeypatch.setattr(cli, "generate_theorem_with_partition", must_not_build)
    literals = ", ".join(f"p{i}" for i in range(21))
    code, _, err = run(capsys, "generate", "-l", literals, "--verify")
    assert code == 3
    assert "21" in err and "20" in err


def _limit_address_space():
    # Run in a child before exec: it may map 1 GiB, so what cannot be
    # allocated fails there and not on the machine.
    import resource

    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds mmap on Linux")
def test_a_truth_table_the_process_cannot_allocate_is_a_cap_error():
    # 34 atoms need a 16 GiB table.
    argv = [sys.executable, "-m", "rectatg", "check", "-l", _names(34),
            "--max-atoms", "40", "--max-n", "40"]
    done = subprocess.run(argv, capture_output=True, text=True, env=_child_env(True),
                          preexec_fn=_limit_address_space, timeout=60)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "error: the truth table over 34 atoms needs 2**34 bytes, more than can be allocated\n"
    )


@pytest.mark.parametrize(
    "literals, name, bad", (("zz, q", "zz", "9_"), ("P(Zz), q", "Zz", "_x")), ids=("prop", "var")
)
def test_record_naming_outside_the_grammar_is_an_input_error(capsys, tmp_path, literals, name, bad):
    # Consistent but for the name: it would print "⊢ ¬9_ ∧ ¬q", which
    # cannot be read back, or bind the TPTP variable "_x".
    code, out, _ = run(capsys, "generate", "-l", literals, "-o", "json")
    record = tmp_path / "bad.json"
    record.write_text(out.replace(name, bad), encoding="utf-8")
    code, out, err = run(capsys, "check", "--record", str(record))
    assert (code, out) == (2, "")
    assert f"bad symbol name: {bad!r}" in err


@pytest.mark.parametrize("removed", ([0.7], [False], ["0"], "0"))
def test_ill_typed_removed_indices_are_rejected(capsys, tmp_path, removed):
    data = json.loads(save_record(generate_theorem(parse_generation_set("p, q"))))
    data["removed_indices"] = removed
    text = json.dumps(data)
    with pytest.raises(MalformedRecordError):
        load_record(text)
    record = tmp_path / "bad.json"
    record.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", "--record", str(record))
    assert (code, out) == (2, "")
    assert "removed_indices" in err


def test_oversized_integer_in_a_record_is_an_input_error(capsys, tmp_path):
    text = save_record(generate_theorem(parse_generation_set("p, q")))
    huge = '"removed_indices": [' + "1" * 4301 + "]"
    text = text.replace('"removed_indices": [\n    0\n  ]', huge)
    record = tmp_path / "huge.json"
    record.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", "--record", str(record))
    assert (code, out) == (2, "")
    assert err == "error: record holds a number too long to decode\n"


def test_check_record_refuses_too_many_atoms_before_rebuilding(
    capsys, monkeypatch, tmp_path
):
    record = tmp_path / "five.json"
    record.write_text(
        save_record(generate_theorem(parse_generation_set("p, q, r, s, t"))),
        encoding="utf-8",
    )

    def must_not_rebuild(*args, **kwargs):
        raise AssertionError("the record was rebuilt before the atom bound was checked")

    monkeypatch.setattr(export, "generate_theorem_with_partition", must_not_rebuild)
    code, out, err = run(capsys, "check", "--record", str(record), "--max-atoms", "4")
    assert (code, out) == (3, "")
    assert err == "error: 5 distinct atoms exceed the enumeration bound 4\n"


def nested(depth: int) -> str:
    """P applied to a term with depth pairs of parentheses in all."""
    return "P(" + "f(" * (depth - 1) + "a" + ")" * depth


def test_deepest_allowed_term_round_trips_through_a_record(capsys, tmp_path):
    code, out, err = run(capsys, "generate", "-l", f"{nested(MAX_NESTING)}, q", "-o", "json")
    assert (code, err) == (0, "")
    record = tmp_path / "deep.json"
    record.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "check", "--record", str(record))
    assert (code, err) == (0, "")
    assert out == "full: UNSAT; removals: 4/4 SAT\ntheorem: verified\n"


def test_deeply_nested_term_is_a_parse_error(capsys, tmp_path):
    source = tmp_path / "deep.txt"
    source.write_text(nested(3000) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "generate", "-f", str(source))
    assert (code, out) == (2, "")
    assert err.startswith("error: at position ")
    assert f"at most {MAX_NESTING} nested parentheses" in err
    code, _, err = run(capsys, "generate", "-l", nested(MAX_NESTING + 1))
    assert code == 2
    assert "nested parentheses" in err


def test_deeply_nested_record_is_malformed(capsys, tmp_path):
    data = json.loads(save_record(generate_theorem(parse_generation_set("p, q"))))
    text = json.dumps(data).replace(
        '"generators": [', '"generators": ' + "[" * 200_000 + "]" * 200_000 + ", ["
    )
    record = tmp_path / "deep.json"
    record.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRecordError):
        load_record(text)
    code, out, err = run(capsys, "check", "--record", str(record))
    assert (code, out) == (2, "")
    assert err == "error: record nests too deeply to decode\n"


def test_record_term_nested_past_the_parser_bound_is_malformed(capsys, tmp_path):
    data = json.loads(save_record(generate_theorem(parse_generation_set("P(a)"))))
    term = {"kind": "const", "name": "a"}
    for _ in range(MAX_NESTING):
        term = {"kind": "func", "name": "f", "args": [term]}
    data["generators"][0]["atom"]["args"] = [term]
    record = tmp_path / "deep.json"
    record.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "check", "--record", str(record))
    assert (code, out) == (2, "")
    assert f"more than {MAX_NESTING} parentheses deep" in err


def test_env_cap_applies(capsys, monkeypatch):
    monkeypatch.setenv("RECT_ATG_MAX_N", "4")
    code, _, err = run(capsys, "generate", "-l", "p, q, r, s, t")
    assert code == 3
    assert "5" in err and "4" in err


def test_flag_overrides_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("RECT_ATG_MAX_N", "4")
    code, out, _ = run(capsys, "generate", "-l", "p, q, r, s, t", "--max-n", "8")
    assert code == 0
    assert out.endswith("⊢ ¬p ∧ ¬q ∧ ¬r ∧ ¬s ∧ ¬t\n")


def test_bad_env_value_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("RECT_ATG_MAX_N", "many")
    code, _, err = run(capsys, "generate", "-l", "p")
    assert code == 2
    assert "RECT_ATG_MAX_N" in err


@pytest.mark.parametrize(
    "env, flag, source",
    (("0", None, "RECT_ATG_MAX_N"), ("4", "0", "--max-n"), (None, "-1", "--max-n")),
)
def test_a_cap_below_one_names_where_it_came_from(capsys, monkeypatch, env, flag, source):
    if env is not None:
        monkeypatch.setenv("RECT_ATG_MAX_N", env)
    code, out, err = run(capsys, "rectangle", "-l", "p", *(("--max-n", flag) if flag else ()))
    assert (code, out, err) == (2, "", f"error: {source} must be at least 1\n")


def test_empty_hypothesis_is_an_input_error(capsys):
    code, _, err = run(capsys, "generate", "-l", "p, q", "-H", "")
    assert code == 2
    assert err.startswith("error:")


def test_out_of_range_hypothesis_is_an_input_error(capsys):
    code, _, err = run(capsys, "generate", "-l", "p, q", "-H", "7")
    assert code == 2
    assert "7" in err


def test_nonnumeric_hypothesis_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "-l", "p", "-H", "one"])
    assert exc.value.code == 2


def test_caps_below_one_are_input_errors(capsys):
    code, _, err = run(capsys, "check", "-l", "p", "--max-atoms", "0")
    assert code == 2
    assert "max-atoms" in err
    code, _, err = run(capsys, "generate", "-l", "p", "--max-n", "0")
    assert code == 2
    assert "max-n" in err


def test_literals_and_file_are_mutually_exclusive(tmp_path):
    source = tmp_path / "gens.txt"
    source.write_text("p\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["generate", "-l", "p", "-f", str(source)])
    assert exc.value.code == 2


def test_file_input_matches_inline(capsys, tmp_path):
    source = tmp_path / "gens.txt"
    source.write_text("p\nq\n", encoding="utf-8")
    code, out, _ = run(capsys, "generate", "-f", str(source))
    assert code == 0
    assert out == THEOREM_TEXT


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "-f", str(tmp_path / "nope.txt"))
    assert code == 2
    assert err.startswith("error:")


def test_module_invocation_is_deterministic():
    argv = [sys.executable, "-m", "rectatg", "generate", "-l", "p, q, r", "-o", "json"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def _names(n: int) -> str:
    return ", ".join(f"p{i:02d}" for i in range(n))


@pytest.mark.parametrize(
    "literals, hypothesis",
    (
        # 2^13 columns: several write batches and two blocks of the matrix grid.
        (_names(13), None),
        ("p, q, r, s", "3,1,3"),
        # Every column on the hypothesis side leaves no premises.
        ("p, q, r", "0,1,2,3,4,5,6,7"),
        ("P(f(X), a), ~Q(g(Y, b)), x = f(a), R", "0,5"),
        (", ".join(f"P{i}(f(a{i % 3}, X))" if i % 2 else f"~p{i}" for i in range(9)), "7"),
        # 2^11 columns: first-order output streamed in several batches.
        (", ".join(f"P{i}(f(a{i % 3}, X))" if i % 2 else f"~p{i}" for i in range(11)), "7,1000"),
    ),
)
def test_stdout_matches_the_string_writers(capsys, literals, hypothesis):
    g = parse_generation_set(literals)
    rect = construct_from_template(g)
    indices = (0,) if hypothesis is None else [int(j) for j in hypothesis.split(",")]
    t = generate_theorem_with_partition(g, indices)
    h = () if hypothesis is None else ("-H", hypothesis)
    expected = {
        ("rectangle", "matrix", ()): render_matrix(rect) + "\n",
        ("rectangle", "dimacs", ()): export_dimacs(
            rect.clause_set(), AtomNumbering.from_rectangle(rect)
        ),
        ("generate", "text", h): render_theorem(t),
        ("generate", "tptp", h): export_tptp(t),
        ("generate", "json", h): save_record(t),
    }
    for (command, output, extra), want in expected.items():
        code, out, err = run(capsys, command, "-l", literals, "-o", output, *extra)
        assert (code, err) == (0, ""), (command, output)
        assert first_difference(out, want) is None, (command, output)


def _fo_names(n: int) -> str:
    return ", ".join(f"P{i}(f(a{i % 3}, X))" if i % 2 else f"~p{i}" for i in range(n))


def _block_references(g, hypothesis):
    """Each format's expected output, rendered clause by clause from the
    level-by-level grid: independent of the writers' blocks."""
    rows = construct_naive(g)
    clauses = grid_clauses(rows)
    drop = set(hypothesis)
    premises = ClauseSet(c for j, c in enumerate(clauses) if j not in drop)
    t = replace(generate_theorem_with_partition(g, hypothesis), premises=premises)
    atoms = [lit.atom for lit in g]
    return {
        "matrix": matrix_reference(rows) + "\n",
        "dimacs": dimacs_reference(clauses, atoms),
        "text": theorem_reference(t),
        "tptp": tptp_reference(t),
        "json": record_reference(t),
    }


# The writers yield one block per pattern of the high ⌈n/2⌉ rows, so
# column j sits in block j >> ⌊n/2⌋, a block of 2^⌊n/2⌋ columns.
@pytest.mark.parametrize(
    "n, first_order, hypothesis",
    (
        (1, False, (1,)),
        (2, True, (3, 0)),
        # Blocks of 32 columns: drops straddling blocks 0|1 and 2|3.
        (11, False, (31, 32, 95, 96)),
        # Blocks of 64 columns: every column of block 5.
        (12, False, tuple(range(320, 384))),
        # Every column of block 1, a straddle of blocks 2|3, and the last
        # column, with first-order cells.
        (13, True, tuple(range(64, 128)) + (191, 192, 8191)),
        (14, False, (0,)),
    ),
)
def test_streamed_blocks_match_the_references(capsys, n, first_order, hypothesis):
    literals = _fo_names(n) if first_order else _names(n)
    g = parse_generation_set(literals)
    rect = construct_from_template(g)
    t = generate_theorem_with_partition(g, hypothesis)
    h = ("-H", ",".join(map(str, hypothesis)))
    whole = {
        "matrix": render_matrix(rect) + "\n",
        "dimacs": export_dimacs(rect.clause_set(), AtomNumbering.from_rectangle(rect)),
        "text": render_theorem(t),
        "tptp": export_tptp(t),
        "json": save_record(t),
    }
    references = _block_references(g, hypothesis)
    for command, output in FORMATS:
        extra = h if command == "generate" else ()
        code, out, err = run(capsys, command, "-l", literals, "-o", output, *extra)
        assert (code, err) == (0, ""), output
        assert first_difference(out, whole[output]) is None, output
        assert first_difference(out, references[output]) is None, output


@pytest.mark.parametrize("n", (11, 12))
def test_streamed_record_escapes_names_across_blocks(capsys, n):
    names = ('say "hi"', "back\\slash", "Prädikat\n\t☃")
    g = GenerationSet(
        tuple(Literal(unchecked_prop(f"{names[i % 3]}{i}"), i % 2 == 1) for i in range(n))
    )
    # Drops straddling the blocks of 32 (n=11) or 64 (n=12) columns.
    hypothesis = (31, 32, 63, 64)
    t = generate_theorem_with_partition(g, hypothesis)
    assert len(t.premises) >= cli._CLOSED_FORM_MIN_WIDTH
    # The route `generate -o json` takes for an output this large.
    cli._emit(len(t.premises), save_record, export._record_lines, t)
    out = capsys.readouterr().out
    assert first_difference(out, save_record(t)) is None
    assert first_difference(out, _block_references(g, hypothesis)["json"]) is None


class CountingSink:
    """A stand-in for sys.stdout with only write and flush."""

    def __init__(self):
        self.writes = 0
        self.size = 0
        self.lines = 0

    def write(self, text: str) -> int:
        self.writes += 1
        self.size += len(text.encode("utf-8"))
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def test_generate_streams_in_bounded_memory(monkeypatch):
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["generate", "-l", _names(16)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size >= 8_000_000 and sink.writes > 1
    # Held whole, the text alone would take more than its 8 MB.
    assert peak < 3 << 20


def test_matrix_streams_in_bounded_memory(monkeypatch):
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["rectangle", "-l", _names(18)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size >= 18 << 20 and sink.writes > 1
    # n·2^n codes would take 4.5 MiB; the matrix holds 2^n widths and one row.
    assert peak < 3 << 20


@pytest.mark.parametrize(
    "command, output", (("rectangle", "dimacs"), ("generate", "tptp"), ("generate", "json"))
)
def test_other_large_outputs_stream_in_bounded_memory(monkeypatch, command, output):
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main([command, "-l", _names(18), "-o", output])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size >= 8_000_000 and sink.writes > 1
    assert peak < 3 << 20


def _readme_blocks(language: str) -> list[str]:
    """The fenced blocks of README.md in the given language."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return re.findall(rf"```{language}\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)


def _readme_examples() -> list[tuple[str, str]]:
    """Each ``$ rectatg …`` line of README.md and the output shown under it."""
    examples = []
    for block in _readme_blocks("sh"):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ rectatg "):
                command, _, shown = chunk.partition("\n")
                examples.append((command[2:], shown.rstrip("\n") + "\n"))
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = _readme_examples()
    assert len(examples) >= 5
    for command, shown in examples:
        assert main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out.encode() == shown.encode(), command


def test_readme_python_blocks_run():
    blocks = _readme_blocks("python")
    assert blocks
    for source in blocks:
        exec(compile(source, "README.md", "exec"), {})


FORMATS = (
    ("rectangle", "matrix"),
    ("rectangle", "dimacs"),
    ("generate", "text"),
    ("generate", "tptp"),
    ("generate", "json"),
)


@pytest.mark.parametrize("command, output", FORMATS)
def test_large_outputs_are_written_a_block_at_a_time(monkeypatch, command, output):
    n = 16
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main([command, "-l", _names(n), "-o", output]) == 0
    blocks = 1 << (n - n // 2)
    if output == "matrix":
        # One write per row and block: n·2^⌈n/2⌉ against n·2^n cells.
        assert sink.lines == n
        assert 1 < sink.writes <= n * blocks + 4
    else:
        # One write per block, plus the header and closing lines, against
        # 2^n clause lines.
        assert sink.lines >= 1 << n
        assert 1 < sink.writes <= blocks + n + 4


WRITERS = ("render_matrix", "export_dimacs", "render_theorem", "export_tptp", "save_record")


@pytest.mark.parametrize("n, whole", ((3, True), (11, False)))
def test_outputs_under_one_batch_go_through_the_string_writers(capsys, monkeypatch, n, whole):
    assert 1 << 3 < cli._CLOSED_FORM_MIN_WIDTH < (1 << 11) - 1
    calls = []

    def counted(name, writer):
        def wrapper(*args):
            calls.append(name)
            return writer(*args)

        return wrapper

    for name in WRITERS:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    for command, output in FORMATS:
        assert run(capsys, command, "-l", _names(n), "-o", output)[0] == 0
    assert calls == (list(WRITERS) if whole else [])


def _child_env(buffered: bool) -> dict[str, str]:
    package_root = str(Path(rectatg.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = package_root + (os.pathsep + path if path else "")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("buffered", (True, False))
@pytest.mark.parametrize("command, output", FORMATS)
def test_reader_closing_early_is_not_an_error(command, output, buffered):
    argv = [sys.executable, "-m", "rectatg", command, "-l", _names(16), "-o", output]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(buffered)
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


@pytest.mark.parametrize("buffered", (True, False))
@pytest.mark.parametrize(
    "argv", [(command, "-o", output) for command, output in FORMATS] + [("check",)]
)
def test_reader_gone_before_the_first_byte_is_not_an_error(argv, buffered):
    # Two generators: the output fits in the stdout buffer, so with a
    # buffered stdout the failed write is the final flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rectatg", *argv, "-l", "p, q"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(buffered),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


class RecordingRaw(io.RawIOBase):
    """A raw stream that keeps each write's size and the bytes written."""

    def __init__(self):
        super().__init__()
        self.sizes: list[int] = []
        self.data = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sizes.append(len(data))
        self.data += data
        return len(data)


def _recording_stdout(monkeypatch, encoding="utf-8") -> RecordingRaw:
    raw = RecordingRaw()
    out = io.TextIOWrapper(io.BufferedWriter(raw), encoding=encoding)
    monkeypatch.setattr(sys, "stdout", out)
    return raw


def _quoted_names(n: int) -> str:
    # Uppercase constants and predicates, which TPTP quotes.
    return ", ".join(f"Q{i}(f(a{i % 3}, X), Big{i})" if i % 2 else f"~q{i}(b)" for i in range(n))


@pytest.mark.parametrize("literals", (_names(13), _fo_names(12), _quoted_names(11), "p, ~Q(X)"))
@pytest.mark.parametrize("command, output", FORMATS)
def test_utf8_stdout_gets_whole_64_kib_chunks(monkeypatch, literals, command, output):
    g = parse_generation_set(literals)
    rect = construct_from_template(g)
    t = generate_theorem_with_partition(g, (0, 3))
    want = {
        "matrix": render_matrix(rect) + "\n",
        "dimacs": export_dimacs(rect.clause_set(), AtomNumbering.from_rectangle(rect)),
        "text": render_theorem(t),
        "tptp": export_tptp(t),
        "json": save_record(t),
    }[output]
    raw = _recording_stdout(monkeypatch)
    extra = ("-H", "0,3") if command == "generate" else ()
    assert main([command, "-l", literals, "-o", output, *extra]) == 0
    assert raw.sizes and raw.sizes[:-1] == [cli._CHUNK] * (len(raw.sizes) - 1)
    assert bytes(raw.data) == want.encode("utf-8")


# Pieces that put the first 64 KiB boundary inside "∨" and the second
# inside "¬", and a piece that holds whole chunks after a ragged start.
_CUT_PIECES = (
    b"x" * (cli._CHUNK - 2) + " ∨ ".encode(),
    b"y" * (cli._CHUNK - 4) + "¬p\n".encode(),
    "p ∨ ¬q\n".encode() * 30000,
    b"",
    "⊢ ¬p\n".encode(),
)


def test_stand_in_stdout_gets_whole_decoded_pieces(monkeypatch):
    got = []

    class Sink:
        def write(self, text: str) -> int:
            got.append(text)
            return len(text)

        def flush(self) -> None:
            pass

    monkeypatch.setattr(sys, "stdout", Sink())
    cli._write(iter(_CUT_PIECES))
    assert got == [piece.decode() for piece in _CUT_PIECES]


def test_utf8_stdout_chunks_may_cut_a_character(monkeypatch):
    raw = _recording_stdout(monkeypatch)
    cli._write(iter(_CUT_PIECES))
    assert bytes(raw.data) == b"".join(_CUT_PIECES)
    assert all(size % cli._CHUNK == 0 for size in raw.sizes[:-1])
    # The first write ends one byte into "∨", the second inside "¬".
    assert raw.sizes[:2] == [cli._CHUNK, cli._CHUNK]
    assert raw.data[cli._CHUNK - 1 : cli._CHUNK + 2] == "∨".encode()
    assert raw.data[2 * cli._CHUNK - 1 : 2 * cli._CHUNK + 1] == "¬".encode()


def test_text_written_before_the_pieces_comes_first(monkeypatch):
    raw = _recording_stdout(monkeypatch)
    sys.stdout.write("before\n")
    cli._write(iter((b"after\n",)))
    assert bytes(raw.data) == b"before\nafter\n"


# Piece sizes around the chunk: empty, one byte, one short of a chunk,
# a chunk, several chunks, and ragged sizes between them.
_PIECE_SIZES = st.sampled_from(
    (0, 1, cli._CHUNK - 1, cli._CHUNK, 3 * cli._CHUNK, 2 * cli._CHUNK + 17)
) | st.integers(0, 3 * cli._CHUNK)


@settings(max_examples=60, deadline=None)
@given(st.lists(_PIECE_SIZES, max_size=8))
# A piece that completes the first chunk and still holds whole ones.
@example([1, 2 * cli._CHUNK, 2 * cli._CHUNK])
def test_utf8_stdout_gets_exact_64_kib_writes(sizes):
    pieces = [bytes([k % 256]) * size for k, size in enumerate(sizes, 1)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        raw = _recording_stdout(monkeypatch)
        cli._write(iter(pieces))
    total = sum(sizes)
    assert bytes(raw.data) == b"".join(pieces)
    assert raw.sizes == [cli._CHUNK] * (total // cli._CHUNK) + (
        [total % cli._CHUNK] if total % cli._CHUNK else [])


class CountingRaw(RecordingRaw):
    """A raw stream that keeps only each write's size."""

    def write(self, data) -> int:
        self.sizes.append(len(data))
        return len(data)


def test_write_holds_one_chunk_whatever_the_piece_size(monkeypatch):
    raw = CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8"))
    pieces = [bytes([k]) * (1 << 20) for k in range(1, 5)]
    tracemalloc.start()
    try:
        cli._write(iter(pieces))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cli._CHUNK
    assert raw.sizes == [cli._CHUNK] * ((4 << 20) // cli._CHUNK)


def _encoded_run(encoding: str, *argv: str) -> subprocess.CompletedProcess:
    env = _child_env(True)
    env["PYTHONIOENCODING"] = encoding
    return subprocess.run(
        [sys.executable, "-m", "rectatg", *argv], capture_output=True, env=env, timeout=60
    )


# generate at n=2 is written whole; the others have 2047 or 2048
# clauses and are streamed.  The error names the position of the first
# "¬" in the piece that holds it: the whole text, the first block of
# premises, the matrix's first row segment, the record's first block.
@pytest.mark.parametrize(
    "argv, position",
    (
        (("generate", "-l", "p, q"), 0),
        (("generate", "-l", _names(11)), 0),
        (("rectangle", "-l", _names(11)), 5),
        (("generate", "-l", _fo_names(11), "-o", "json", "-H", "1,2"), 21),
    ),
)
def test_stdout_that_cannot_encode_the_text_is_an_input_error(argv, position):
    done = _encoded_run("ascii", *argv)
    assert done.returncode == 2
    assert done.stderr.decode() == (
        "error: 'ascii' codec can't encode character '\\xac' in position "
        f"{position}: ordinal not in range(128)\n"
    )


@pytest.mark.parametrize(
    "argv",
    (
        ("generate", "-l", "p, q"),
        ("generate", "-l", _names(11)),
        ("rectangle", "-l", _names(11)),
        ("generate", "-l", _quoted_names(11), "-o", "tptp"),
        ("check", "-l", "p, q"),
    ),
)
def test_utf16_stdout_gets_the_same_text(argv):
    done = _encoded_run("utf-16", *argv)
    assert (done.returncode, done.stderr) == (0, b"")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(list(argv)) == 0
    # stdout's encoder starts without the byte order mark that
    # str.encode puts first.
    assert done.stdout == out.getvalue().encode("utf-16")[2:]


@pytest.mark.parametrize("command", ("generate", "rectangle", "check"))
def test_a_closed_stdout_is_an_input_error(command):
    # Started with descriptor 1 closed, the interpreter sets sys.stdout
    # to None: one error line and exit 2, as a full disk gives.
    done = subprocess.run(
        [sys.executable, "-m", "rectatg", command, "-l", "p, q"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_child_env(True),
        preexec_fn=lambda: os.close(1), timeout=60,
    )
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 9] standard output is closed\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds mmap on Linux")
@pytest.mark.parametrize(
    "argv", (("rectangle", "-o", "dimacs"), ("generate",), ("generate", "-H", "0,1")),
    ids=("dimacs", "text", "text-H"),
)
def test_half_tables_the_process_cannot_allocate_are_a_cap_error(argv):
    # 50 rows need two tables of 2^25 texts each.
    done = subprocess.run(
        [sys.executable, "-m", "rectatg", *argv, "-l", _names(50), "--max-n", "60"],
        capture_output=True, text=True, env=_child_env(True),
        preexec_fn=_limit_address_space, timeout=120,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "error: the column blocks over 50 rows need tables of 2**25 and 2**25 texts, "
        "more than can be allocated\n"
    )


def _in_process(argv) -> tuple[int, bytes, str]:
    """``main``'s exit code, stdout bytes and stderr, as ``run`` reads them."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def _module_run(argv, env=None, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "rectatg", *argv], capture_output=True,
                          env=env or _child_env(True), timeout=60, **kwargs)


@pytest.mark.parametrize(
    "argv, code",
    (
        (("generate", "-l", "p, q"), 0),
        (("rectangle", "-l", _names(12), "-o", "dimacs"), 0),
        (("check", "-l", "p, q"), 0),
        (("generate", "-l", "p("), 2),
        (("generate", "-l", "p, q", "-H", "9"), 2),
        (("rectangle", "-l", "p, q", "--max-n", "1"), 3),
        (("check", "-l", _names(21)), 3),
        (("--help",), 0),
        (("check", "-h"), 0),
        (("generate",), 2),
        (("frobnicate", "-l", "p"), 2),
    ),
    ids=("generate", "dimacs-n12", "check", "parse-error", "bad-column", "max-n", "max-atoms",
         "help", "command-help", "no-source", "bad-command"),
)
def test_the_module_exits_as_main_returns(argv, code):
    done = _module_run(argv)
    assert (done.returncode, done.stdout, done.stderr.decode()) == _in_process(argv)
    assert done.returncode == code


def _sitecustomize(tmp_path: Path, source: str) -> dict[str, str]:
    """A child environment that runs ``source`` before ``python -m rectatg``."""
    (tmp_path / "sitecustomize.py").write_text(source, encoding="utf-8")
    env = _child_env(True)
    env["PYTHONPATH"] = str(tmp_path) + os.pathsep + env["PYTHONPATH"]
    return env


def test_a_failed_verification_exits_4_through_the_module(tmp_path, monkeypatch):
    # No real theorem fails verification, so the child's is made to.
    env = _sitecustomize(tmp_path, "import rectatg.cli\n"
                                   "rectatg.cli.verify_theorem = lambda *args: False\n")
    argv = ("generate", "-l", "p, q", "--verify")
    done = _module_run(argv, env)
    monkeypatch.setattr(cli, "verify_theorem", lambda *args: False)
    assert (done.returncode, done.stdout, done.stderr.decode()) == _in_process(argv)
    assert done.returncode == 4


_HELPS = (("--help",), ("check", "-h"))


def _module_into(argv, env=None, **streams) -> subprocess.CompletedProcess:
    """``python -m rectatg`` with the given ``stdout`` and ``stderr``."""
    return subprocess.run([sys.executable, "-m", "rectatg", *argv],
                          env=env or _child_env(True), timeout=60, **streams)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", (True, False))
@pytest.mark.parametrize("argv", _HELPS, ids=("help", "command-help"))
def test_help_into_a_full_file_exits_as_a_result_does(argv, buffered):
    # Buffered, the failed write is the flush of a small output; what is
    # left in the buffer is dropped, so the exit cannot flush it again.
    def full(argv):
        with open("/dev/full", "wb") as target:
            done = _module_into(argv, _child_env(buffered), stdout=target,
                                stderr=subprocess.PIPE)
        return done.returncode, done.stderr

    assert full(argv) == full(("generate", "-l", "p")) == (
        2, b"error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("buffered", (True, False))
@pytest.mark.parametrize("argv", _HELPS, ids=("help", "command-help"))
def test_help_into_a_gone_reader_exits_as_a_result_does(argv, buffered):
    def gone(argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _module_into(argv, _child_env(buffered), stdout=write_end,
                                stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        return done.returncode, done.stderr

    assert gone(argv) == gone(("generate", "-l", "p")) == (0, b"")


@pytest.mark.parametrize("stderr", ("closed", "full"))
@pytest.mark.parametrize(
    "argv, code",
    (
        (("generate", "-l", "p("), 2),
        (("rectangle", "-l", "p, q", "--max-n", "1"), 3),
        (("generate", "-l", "p", "--bogus"), 2),
        (("generate", "-l", "p, q", "--verify"), 4),
    ),
    ids=("parse-error", "max-n", "usage-error", "verify"),
)
def test_errors_keep_their_codes_when_stderr_cannot_take_them(tmp_path, argv, code, stderr):
    # The error line is lost; the code still says what went wrong.  No
    # real theorem fails verification, so the child's is made to.
    env = _sitecustomize(tmp_path, "import rectatg.cli\n"
                                   "rectatg.cli.verify_theorem = lambda *args: False\n")
    if stderr == "closed":
        done = _module_into(argv, env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            preexec_fn=lambda: os.close(2))
    elif not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    else:
        with open("/dev/full", "wb") as target:
            done = _module_into(argv, env, stdout=subprocess.PIPE, stderr=target)
    assert (done.returncode, done.stdout) == (code, b"")


@pytest.mark.parametrize("stderr", (None, "closed", "full"))
@pytest.mark.parametrize(
    "argv, code",
    ((("generate", "-l", "p("), 2), (("rectangle", "-l", "p, q", "--max-n", "1"), 3),
     (("generate", "-l", "p", "--bogus"), 2)),
    ids=("parse-error", "max-n", "usage-error"),
)
def test_main_keeps_its_codes_without_a_stderr(monkeypatch, argv, code, stderr):
    class Full(io.StringIO):
        # A line-buffered stderr fails in the write of a whole line.
        def write(self, text):
            raise OSError(28, "No space left on device")

    stream = {None: None, "closed": io.StringIO(), "full": Full()}[stderr]
    if stderr == "closed":
        stream.close()
    monkeypatch.setattr(sys, "stderr", stream)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            got = main(list(argv))
        except SystemExit as exc:
            got = exc.code
    assert (got, out.getvalue()) == (code, "")


@pytest.mark.parametrize(
    "argv, code", ((("generate", "-l", "p, q"), 0), (("generate",), 2)), ids=("ok", "usage-error")
)
def test_atexit_handlers_registered_before_run_still_run(tmp_path, argv, code):
    env = _sitecustomize(tmp_path, "import atexit\n"
                                   "atexit.register(lambda: print('atexit ran'))\n")
    done = _module_run(argv, env)
    expected_code, out, err = _in_process(argv)
    assert (done.returncode, done.stdout, done.stderr.decode()) == (
        code, out + b"atexit ran\n", err)
    assert expected_code == code


@pytest.mark.parametrize("buffered", (True, False))
@pytest.mark.parametrize("sink", ("pipe", "file"))
@pytest.mark.parametrize("command, output", FORMATS)
def test_streamed_outputs_reach_their_reader_whole(tmp_path, command, output, sink, buffered):
    argv = (command, "-l", _names(16), "-o", output)
    env = _child_env(buffered)
    if sink == "pipe":
        done = _module_run(argv, env)
        written = done.stdout
    else:
        with open(tmp_path / "out", "wb") as target:
            done = subprocess.run([sys.executable, "-m", "rectatg", *argv], stdout=target,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        written = (tmp_path / "out").read_bytes()
    code, out, err = _in_process(argv)
    assert (done.returncode, done.stderr.decode()) == (code, err) == (0, "")
    assert hashlib.sha256(written).hexdigest() == hashlib.sha256(out).hexdigest()


class _Exited(Exception):
    pass


def _fake_exit(code):
    raise _Exited(code)


@pytest.fixture
def exit_route(monkeypatch):
    """``run``'s steps recorded in order; ``os._exit`` raises _Exited."""
    steps = []
    handlers = SimpleNamespace(_run_exitfuncs=lambda: steps.append("atexit"))
    monkeypatch.setattr(cli, "atexit", handlers)
    monkeypatch.setattr(os, "_exit", _fake_exit)

    class Stream(io.StringIO):
        def __init__(self, name, error=None):
            super().__init__()
            self.name, self.error = name, error

        def flush(self):
            steps.append(f"flush {self.name}")
            if self.error is not None:
                raise self.error

    def stream(name, error=None):
        monkeypatch.setattr(sys, name, Stream(name, error))

    return steps, stream


@pytest.mark.parametrize(
    "result, code", ((0, 0), (3, 3), (SystemExit(2), 2), (SystemExit(0), 0))
)
def test_run_ends_with_os_exit_after_the_handlers_and_the_flushes(
    exit_route, monkeypatch, result, code
):
    steps, stream = exit_route
    stream("stdout"), stream("stderr")

    def fake_main():
        if isinstance(result, SystemExit):
            raise result
        return result

    monkeypatch.setattr(cli, "main", fake_main)
    with pytest.raises(_Exited) as exited:
        cli.run()
    assert exited.value.args == (code,)
    assert steps == ["atexit", "flush stdout", "flush stderr"]


@pytest.mark.parametrize("error", (OSError(28, "No space left on device"), ValueError("closed")))
def test_run_leaves_a_failed_flush_to_the_interpreter(exit_route, monkeypatch, error):
    steps, stream = exit_route
    stream("stdout", error), stream("stderr")
    monkeypatch.setattr(cli, "main", lambda: 2)
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == 2
    assert steps == ["atexit", "flush stdout"]


@pytest.mark.parametrize("error", (OSError(28, "No space left on device"), ValueError("closed")))
def test_run_keeps_the_code_when_only_stderr_cannot_be_flushed(exit_route, monkeypatch, error):
    # The error line is lost either way; the interpreter's exit would
    # only try the flush again and turn the code into 120.
    steps, stream = exit_route
    stream("stdout"), stream("stderr", error)
    monkeypatch.setattr(cli, "main", lambda: 3)
    with pytest.raises(_Exited) as exited:
        cli.run()
    assert exited.value.args == (3,)
    assert steps == ["atexit", "flush stdout", "flush stderr"]


def test_run_leaves_other_exits_and_errors_to_the_interpreter(exit_route, monkeypatch):
    steps, _ = exit_route

    def fails(error):
        def fake_main():
            raise error
        return fake_main

    monkeypatch.setattr(cli, "main", fails(SystemExit("a message")))
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == "a message"
    monkeypatch.setattr(cli, "main", fails(KeyError("escaped")))
    with pytest.raises(KeyError, match="escaped"):
        cli.run()
    assert steps == []


_LITERAL_TEXT = st.text(
    st.sampled_from("pqPQRfgxXa01_(),;=~¬ \n\t") | st.characters(), max_size=40
) | st.lists(
    # Mostly well-formed sets, some past the caps of six.
    st.sampled_from(("p", "~q", "r1", "P(a)", "~Q(X, f(Y))", "x = f(a)", "R()", "S(g(b), Z)")),
    unique=True,
    max_size=8,
).map(", ".join)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(
        (
            ("generate",),
            ("generate", "--verify"),
            ("generate", "-o", "json", "-H", "1,0"),
            ("rectangle", "-o", "dimacs"),
            ("rectangle",),
            ("check",),
        )
    ),
    st.sampled_from(("upper", "lower")),
    _LITERAL_TEXT,
)
def test_any_literal_text_exits_with_a_documented_code(command, style, text):
    argv = [*command, "-l", text, "--var-style", style, "--max-n", "6"]
    if command[0] != "rectangle":
        argv += ["--max-atoms", "6"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            # The option reader turns away text it reads as an option.
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


_INPUT_COMMANDS = (
    ("generate",),
    ("generate", "--verify"),
    ("generate", "-o", "json", "-H", "1,0"),
    ("rectangle", "-o", "dimacs"),
    ("rectangle",),
    ("check",),
)

_RECORD = save_record(
    generate_theorem_with_partition(parse_generation_set("p, ~Q(X, f(a)), r"), (0, 2))
).encode("utf-8")


def _spliced(base: bytes):
    # base with the bytes between two cut points replaced by a few others.
    cut = st.integers(0, len(base))
    return st.tuples(cut, cut, st.binary(max_size=8)).map(
        lambda t: base[: min(t[:2])] + t[2] + base[max(t[:2]) :]
    )


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_INPUT_COMMANDS),
    st.binary(max_size=60)
    # st.characters() can draw a lone surrogate, which strict UTF-8
    # cannot encode; "surrogatepass" writes it as bytes that are not
    # valid UTF-8, which the CLI must turn away with exit 2.
    | _LITERAL_TEXT.map(lambda text: text.encode("utf-8", "surrogatepass"))
    | _spliced(b"p, ~Q(X, f(a))\nr; S(g(b), Z)"),
)
def test_any_literal_file_exits_with_a_documented_code(tmp_path_factory, command, data):
    source = tmp_path_factory.mktemp("file") / "gens.txt"
    source.write_bytes(data)
    argv = [*command, "-f", str(source), "--max-n", "6"]
    if command[0] != "rectangle":
        argv += ["--max-atoms", "6"]
    assert _exit_code(argv) in (0, 2, 3, 4)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200) | _spliced(_RECORD))
def test_any_record_file_exits_with_a_documented_code(tmp_path_factory, data):
    source = tmp_path_factory.mktemp("record") / "theorem.json"
    source.write_bytes(data)
    argv = ["check", "--record", str(source), "--max-n", "6", "--max-atoms", "6"]
    assert _exit_code(argv) in (0, 2, 3, 4)


@pytest.mark.parametrize(
    "args, code, loaded",
    (
        # The first two ids are those the suite gave these runs before.
        pytest.param(("generate", "-l", "p", "-o", "text"), 0, set(), id="text-loaded0"),
        pytest.param(("generate", "-l", "p", "-o", "json"), 0, {"json"}, id="json-loaded1"),
        pytest.param(("rectangle", "-l", "p, q"), 0, set(), id="rectangle"),
        pytest.param(("check", "-l", "p, q"), 0, set(), id="check"),
        pytest.param(("generate", "-h"), 0, set(), id="help"),
        pytest.param(("check", "-l", "p", "--max-n", "x"), 2, set(), id="usage-error"),
    ),
)
def test_startup_imports_neither_dataclasses_inspect_nor_json(args, code, loaded):
    # Without site, so that nothing but rectatg loads modules.  Reading
    # options must not load argparse, or the gettext and locale it imports.
    probe = (
        "import sys\n"
        "from rectatg.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "names = {'dataclasses', 'inspect', 'json', 'argparse', 'gettext', 'locale'}\n"
        "print(sorted(names & sys.modules.keys()))\n"
        "sys.exit(code)\n"
    )
    argv = [sys.executable, "-S", "-c", probe, *args]
    done = subprocess.run(
        argv, capture_output=True, text=True, env=_child_env(True), timeout=60
    )
    assert done.returncode == code
    assert (done.stderr == "") == (code == 0)
    assert done.stdout.splitlines()[-1] == str(sorted(loaded))


@pytest.mark.parametrize("command", (("generate", "-f"), ("check", "--record")))
def test_reading_a_file_does_not_import_pathlib(tmp_path, command):
    # Without site, which loads pathlib itself; see the test above.
    text = "p, q"
    if command[0] == "check":
        text = save_record(generate_theorem(parse_generation_set(text)))
    source = tmp_path / "input"
    source.write_text(text, encoding="utf-8")
    probe = (
        "import sys\n"
        "from rectatg.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('pathlib' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    argv = [sys.executable, "-S", "-c", probe, *command, str(source)]
    done = subprocess.run(
        argv, capture_output=True, text=True, env=_child_env(True), timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "False"


# The command-line grammar the option reader shares with argparse: every
# documented spelling (-x V, -xV, --long V, --long=V, unique and ambiguous
# prefixes of --long), in any order and with repeats; input sources, none,
# one or two; options of the other commands, bad choices and integers;
# and now and then -h, an unknown option, a stray word or a missing value.
# Values that start with "-" are left out, and so is the single-dash
# "-x=V", which an attached value that starts with "=" would spell: the
# reader keeps "=V", where argparse reads "V"
# (test_attached_short_value_keeps_a_leading_equals_sign).
_PARITY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).filter(
    lambda text: not text.startswith("-")
)
_PARITY_INT = st.sampled_from(("3", "24", " 7 ", "+2", "1_0", "٣", "0", "x", "", "3.5"))
_PARITY_SOURCES = (
    ("-l", "--literals", _PARITY_TEXT),
    ("-f", "--file", _PARITY_TEXT),
    (None, "--record", _PARITY_TEXT),
)
_PARITY_OPTIONS = (
    (None, "--var-style", st.sampled_from(("upper", "lower", "UPPER"))),
    (None, "--max-n", _PARITY_INT),
    (None, "--max-atoms", _PARITY_INT),
    ("-H", "--hypothesis", st.sampled_from(("0", "1,0", " 2 , 3", "", ",", "one"))),
    ("-o", "--output", st.sampled_from(("text", "tptp", "json", "matrix", "dimacs", "xml"))),
)


def _long_spelling(long: str):
    # The whole name, or a prefix of it with at least one letter.
    return st.just(long) | st.integers(3, len(long)).map(lambda k: long[:k])


def _value_option(short, long, values):
    forms = [
        st.tuples(_long_spelling(long), values).map(list),
        st.tuples(_long_spelling(long), values).map(lambda t: [f"{t[0]}={t[1]}"]),
    ]
    if short is not None:
        attached = values.filter(lambda v: v and not v.startswith("="))
        forms += [values.map(lambda v: [short, v]), attached.map(lambda v: [short + v])]
    return st.one_of(forms)


_PARITY_SOURCE = st.one_of(*(_value_option(*source) for source in _PARITY_SOURCES))
_PARITY_TOKEN = st.one_of(
    *(_value_option(*option) for option in _PARITY_OPTIONS),
    _long_spelling("--verify").map(lambda name: [name]),
)
# -H and --help share the prefix --h in generate; -l and --max-n alone
# miss their value at the end or before an option.
_PARITY_NOISE = st.sampled_from(
    (["-h"], ["--help"], ["--he"], ["--h"], ["-x"], ["--bogus"], ["stray"], ["-Z5"], ["-l"],
     ["--max-n"])
)


def test_attached_short_value_keeps_a_leading_equals_sign():
    # The one spelling the reader reads apart from argparse: -l=p is -l
    # with the attached text "=p".
    args = cli.build_parser().parse_args(["generate", "-l=p"])
    assert args.literals == "=p"
    assert cli.build_parser().parse_args(["check", "-f=g"]).file == "=g"


def _parse_outcome(parser, argv):
    """The parsed namespace's fields, or the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


_REFERENCE_PARSER = argparse_reference()


@settings(max_examples=1500, deadline=None)
@given(
    st.sampled_from(([],) * 12 + (["-h"], ["--he"], ["-x"], ["--bogus"])),
    st.sampled_from((["generate"], ["rectangle"], ["check"]) * 3 + (["bogus"], [])),
    st.sampled_from((1,) * 6 + (0, 2)).flatmap(
        lambda k: st.lists(_PARITY_SOURCE, min_size=k, max_size=k)
    ),
    st.lists(_PARITY_TOKEN, max_size=5),
    st.lists(st.tuples(st.integers(0, 7), _PARITY_NOISE), max_size=1),
    st.randoms(use_true_random=False),
)
@example([], [], [], [], [], None)
@example([], ["generate"], [], [["--max", "3"]], [(0, ["-h"])], None)
@example([], ["generate"], [], [], [(0, ["-x"]), (1, ["-h"])], None)
@example([], ["generate"], [["-lp"]], [["-H1,0"], ["--out=json"], ["--ver"], ["--max-a", "5"]], [],
         None)
@example([], ["check"], [["--rec", "r"], ["-lp"]], [], [], None)
@example([], ["check"], [["-f", "g"], ["-f", "h"]], [["--max-n", "9"]], [], None)
@example(["--bogus"], ["rectangle"], [["-l", "p"]], [["-o", "dimacs"]], [], None)
@example([], ["rectangle"], [], [["--h= 2 , 3"]], [(1, ["--h"]), (2, ["0"])], None)
def test_option_reader_agrees_with_argparse(before, command, sources, tokens, noise, rng):
    tokens += sources
    if rng is not None:
        rng.shuffle(tokens)
    for at, token in noise:
        tokens.insert(at, token)
    argv = [*before, *command, *(word for token in tokens for word in token)]
    got = _parse_outcome(cli.build_parser(), argv)
    assert got == _parse_outcome(_REFERENCE_PARSER, argv)


def test_a_zero_arity_predicate_is_a_quoted_tptp_name(capsys):
    # P() has no arguments, so TPTP writes the bare name, quoted for its
    # capital letter: unquoted, TPTP would read a variable.
    code, out, err = run(capsys, "generate", "-l", "P(), q", "-o", "tptp")
    assert (code, err) == (0, "")
    assert out == (
        "cnf(premise_0001, axiom, (~'P' | q)).\n"
        "cnf(premise_0002, axiom, ('P' | ~q)).\n"
        "cnf(premise_0003, axiom, (~'P' | ~q)).\n"
        "fof(conclusion, conjecture, (~'P' & ~q)).\n"
    )
