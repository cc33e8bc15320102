import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    construct_naive,
    dimacs_reference,
    first_difference,
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


def test_empty_hypothesis_is_an_input_error(capsys):
    code, _, err = run(capsys, "generate", "-l", "p, q", "-H", "")
    assert code == 2
    assert err.startswith("error:")


def test_out_of_range_hypothesis_is_an_input_error(capsys):
    code, _, err = run(capsys, "generate", "-l", "p, q", "-H", "7")
    assert code == 2
    assert "7" in err


def test_nonnumeric_hypothesis_is_rejected_by_argparse(capsys):
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
    naive = construct_naive(g)
    drop = set(hypothesis)
    premises = ClauseSet(c for j, c in enumerate(naive.clauses) if j not in drop)
    t = replace(generate_theorem_with_partition(g, hypothesis), premises=premises)
    atoms = AtomNumbering.from_rectangle(naive).atoms
    return {
        "matrix": matrix_reference(naive) + "\n",
        "dimacs": dimacs_reference(naive.clauses, atoms),
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
    assert len(t.premises) >= cli.WRITE_BATCH
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


def _readme_examples() -> list[tuple[str, str]]:
    """Each ``$ rectatg …`` line of README.md and the output shown under it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S):
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
    assert 1 << 3 < cli.WRITE_BATCH < (1 << 11) - 1
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
            # argparse turns away text it reads as an option.
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
    | _LITERAL_TEXT.map(lambda text: text.encode("utf-8"))
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


@pytest.mark.parametrize("output, loaded", (("text", set()), ("json", {"json"})))
def test_startup_imports_neither_dataclasses_inspect_nor_json(output, loaded):
    # Without site, so that nothing but rectatg and argparse loads modules.
    probe = (
        "import sys\n"
        "from rectatg.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted({'dataclasses', 'inspect', 'json'} & sys.modules.keys()))\n"
        "sys.exit(code)\n"
    )
    argv = [sys.executable, "-S", "-c", probe, "generate", "-l", "p", "-o", output]
    done = subprocess.run(
        argv, capture_output=True, text=True, env=_child_env(True), timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == str(sorted(loaded))
