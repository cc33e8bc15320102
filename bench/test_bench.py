"""Self-tests for the benchmark: references, counters and metric names.

    python3 -m pytest bench -q

The references in inputs.py must agree with rectatg wherever both can be
computed cheaply (n <= 4), and must reject a corrupted output.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from rectatg import (  # noqa: E402
    AtomNumbering,
    check_minimality,
    construct_from_template,
    export_dimacs,
    export_tptp,
    generate_theorem_with_partition,
    is_satisfiable,
    parse_generation_set,
    remove_clauses,
    render_matrix,
    render_theorem,
    save_record,
)
from rectatg.logic import ClauseSet  # noqa: E402

CASES = [(seed, n, kind) for seed in range(6) for n in range(1, 5) for kind in ("prop", "fo")]


def make_case(seed: int, n: int, kind: str):
    rng = random.Random(seed)
    gens = inputs.prop_set(rng, n) if kind == "prop" else inputs.fo_set(rng, n)
    generators = parse_generation_set(inputs.literal_text(rng, gens))
    width = 1 << n
    hyp = sorted(rng.sample(range(width), rng.randint(1, width - 1) if width > 2 else 1))
    return inputs.Layout(gens), generators, hyp


def text_of(lines) -> str:
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("seed,n,kind", CASES)
def test_references_match_rectatg(seed, n, kind, tmp_path):
    layout, generators, hyp = make_case(seed, n, kind)
    rect = construct_from_template(generators)
    theorem = generate_theorem_with_partition(generators, hyp)

    dimacs = export_dimacs(rect.clause_set(), AtomNumbering.from_rectangle(rect))
    assert dimacs == text_of(inputs.dimacs_lines(layout))
    assert render_matrix(rect) + "\n" == text_of(inputs.matrix_lines(layout))
    assert render_theorem(theorem) == text_of(inputs.theorem_lines(layout, hyp))
    assert json.loads(save_record(theorem)) == inputs.record(layout, hyp)
    assert check_minimality(rect).summary() == inputs.check_summary(n)

    out = tmp_path / "out"
    out.write_text(export_tptp(theorem), encoding="utf-8")
    assert inputs.compare_tptp(out, layout, hyp) is None
    out.write_text(save_record(theorem), encoding="utf-8")
    assert inputs.compare_record(out, inputs.record(layout, hyp)) is None
    out.write_text(dimacs, encoding="utf-8")
    assert inputs.compare_lines(out, inputs.dimacs_lines(layout)) is None


def test_checks_reject_corrupted_output(tmp_path):
    layout, generators, hyp = make_case(3, 4, "fo")
    theorem = generate_theorem_with_partition(generators, hyp)
    out = tmp_path / "out"

    text = render_theorem(theorem)
    out.write_text(text.replace("¬", "", 1), encoding="utf-8")
    assert inputs.compare_lines(out, inputs.theorem_lines(layout, hyp))
    out.write_text(text + "extra\n", encoding="utf-8")
    assert inputs.compare_lines(out, inputs.theorem_lines(layout, hyp))
    out.write_text(text.rsplit("\n", 2)[0] + "\n", encoding="utf-8")
    assert inputs.compare_lines(out, inputs.theorem_lines(layout, hyp))

    tptp = export_tptp(theorem)
    out.write_text(tptp.replace("~", "", 1), encoding="utf-8")
    assert inputs.compare_tptp(out, layout, hyp)
    out.write_text(tptp.replace("premise_0002", "premise_0003"), encoding="utf-8")
    assert inputs.compare_tptp(out, layout, hyp)

    record = json.loads(save_record(theorem))
    record["removed_indices"] = record["removed_indices"][:-1]
    out.write_text(json.dumps(record), encoding="utf-8")
    assert inputs.compare_record(out, inputs.record(layout, hyp))


def brute_force_swept(clause_set) -> int:
    """Assignments a plain in-order sweep tries, by direct evaluation."""
    atoms = list(dict.fromkeys(lit.atom for clause in clause_set for lit in clause))
    for m in range(1 << len(atoms)):
        value = {a: bool(m >> i & 1) for i, a in enumerate(atoms)}
        if all(any(value[l.atom] != l.negated for l in c) for c in clause_set):
            return m + 1
    return 1 << len(atoms)


@pytest.mark.parametrize("seed,n,kind", CASES)
def test_assignments_swept_matches_brute_force(seed, n, kind):
    _, generators, hyp = make_case(seed, n, kind)
    rect = construct_from_template(generators)
    theorem = generate_theorem_with_partition(generators, hyp)
    sets = [rect.clause_set(), theorem.premises,
            ClauseSet(tuple(theorem.premises) + tuple(theorem.hypothesis_clauses))]
    sets += [remove_clauses(rect, (j,)) for j in range(rect.width)]
    for clause_set in sets:
        swept = tracer.assignments_swept(clause_set, is_satisfiable(clause_set))
        assert swept == brute_force_swept(clause_set)


def test_tracer_wraps_every_lookup_and_restores_it():
    spans = tracer.Tracer()
    with tracer.installed(spans):
        code, _, _ = tracer.run_main(["generate", "-l", "p, q, r", "--verify"], spans)
    spans.end_job()
    assert code == 0
    names = {s.name for s in spans.spans}
    assert {"cli.main", "cli.cmd_generate", "rectangle.construct_from_template",
            "rectangle.Rectangle.clauses", "theoremgen.verify_theorem",
            "semantics.is_satisfiable", "export.render_theorem", "cli.write"} <= names
    assert spans.counters["rectangle.cells"] == 3 * 8
    assert spans.counters["semantics.assignments_swept"] == 8
    for module in tracer.MODULES:
        for obj in vars(module).values():
            assert not hasattr(obj, "__wrapped__")
    assert not any(hasattr(f, "__wrapped__") for f in tracer.cli._COMMANDS.values())


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)

    emitted = run.layer_metrics(tracer.Tracer(), tracer.AllocTracer(), 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in emitted.items()}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
