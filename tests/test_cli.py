import json
import subprocess
import sys

import pytest

from rectatg import (
    MalformedRecordError,
    generate_theorem,
    load_record,
    parse_generation_set,
    save_record,
)
from rectatg import cli, export
from rectatg.cli import main
from rectatg.parser import MAX_NESTING

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
