"""``scripts/oracle_grid.py`` times paired runs and checks every output."""

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = ROOT / "scripts" / "oracle_grid.py"
_spec = importlib.util.spec_from_file_location("oracle_grid", _SCRIPT)
oracle_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle_grid)
inputs = oracle_grid.inputs


def test_the_repository_against_itself_at_four_and_six(tmp_path):
    out = tmp_path / "grid.json"
    done = subprocess.run(
        [sys.executable, str(_SCRIPT), str(ROOT), str(ROOT), "--rounds", "1", "--n", "4,6",
         "--json", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    grid = json.loads(out.read_text(encoding="utf-8"))
    assert {"change", "harness", "machine", "pairs_rule", "claim", "summary"} <= grid.keys()
    kinds = ["check", "generate-H{h}-verify", "generate-text-H8", "generate-json-H8",
             "generate-tptp-H8", "rectangle-dimacs", "rectangle-matrix"]
    want = {f"{kind.format(h=(1 << n) // 4)}-n{n}" for kind in kinds for n in (4, 6)}
    assert set(grid["summary"]) == want
    for name, row in grid["summary"].items():
        assert row["pairs"] == 2 and len(row["sha256"]) == 64
        for metric in ("wall_s", "peak_rss_mib"):
            m = row[metric]
            assert m["change_lower_pairs"] + m["parent_lower_pairs"] <= 2
            assert 0 < m["parent_median"] and 0 < m["ratio_median"] and 0 < m["sign_p"] <= 1
        assert done.stdout.count(f"{name} ") == 1
    assert len(grid["runs"]) == 4 * len(want)


@pytest.mark.parametrize("n, hyp", ((3, range(0, 8, 4)), (5, range(0, 32, 4)), (4, [9])))
def test_streamed_references_catch_one_changed_byte(tmp_path, n, hyp):
    layout = inputs.Layout(inputs.prop_set(random.Random(n), n))
    path = tmp_path / "out"
    for pieces, whole in (
        (oracle_grid.record_pieces, json.dumps(inputs.record(layout, list(hyp)),
                                               ensure_ascii=False, indent=2) + "\n"),
        (oracle_grid.theorem_pieces, "".join(l + "\n" for l in inputs.theorem_lines(layout, hyp))),
    ):
        data = whole.encode()
        path.write_bytes(data)
        assert oracle_grid.same_text(path, pieces(layout, hyp)) is None
        path.write_bytes(data[:-1] + b"X")
        assert oracle_grid.same_text(path, pieces(layout, hyp)).startswith(f"byte {len(data) - 1}:")
        path.write_bytes(data + b"X")
        assert oracle_grid.same_text(path, pieces(layout, hyp)) == (
            f"byte {len(data)}: unexpected extra output b'X'")
        path.write_bytes(data[:-1])
        assert oracle_grid.same_text(path, pieces(layout, hyp)) is not None


def test_sign_test_is_two_sided_and_leaves_out_ties():
    assert oracle_grid.sign_p(10, 0) == oracle_grid.sign_p(0, 10) == 2 / 1024
    assert oracle_grid.sign_p(0, 0) == oracle_grid.sign_p(5, 5) == 1.0
    assert oracle_grid.sign_p(9, 1) == 2 * 11 / 1024
