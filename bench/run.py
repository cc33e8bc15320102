"""Benchmark for the rectatg command line.

    python3 bench/run.py --workload emit-prop --seed 1 --seconds 25 --trace 0

Run it inside a source checkout: the program is the package under
``src/``, run from source; without it the benchmark exits with code 2.
A workload is a fixed list of ``rectatg`` jobs made from the seed
(inputs.py).  See README.md for the workloads and metrics.

With ``--trace 0`` each job runs in a fresh child process, one at a
time: a closed loop with one client.  A pass is eight runs of
``rectatg generate -l p`` and then the job list; passes repeat while
the next one should end within ``--seconds``, at least three times.
Each job's figure is its median over the passes:

  wall_s        time to finish the job list (sum of the job medians)
  first_byte_s  spawn to first stdout byte, summed over the jobs
  peak_rss_mib  highest child ru_maxrss over the jobs (os.wait4)
  setup_s       median wall time of the ``rectatg generate -l p`` runs

Children are started by spawner.py, which streams their stdout into a
hash and, on the first pass, a file.  After the last child, every exit
code and stdout is checked against references built from the bit rule
(inputs.py).  Jobs with a wrong exit code or output count as failed;
the failure ratio is printed.

With ``--trace 1`` each job runs once as a child process and three
times in this process through ``rectatg.cli.main``: untraced, traced
(spans from tracer.py) and under tracemalloc.  The four stdouts must be
byte-identical.  The per-layer metrics come from the traced runs; the
tracing overhead is the traced in-process wall time over the untraced
one.  Spans are written as JSON lines under bench/.work/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it and stderr are for
people.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = "bench/.work"
SETUP_SAMPLES = 8  # before each pass
MIN_PASSES = 3
END_TO_END = {"wall_s": "s", "first_byte_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONIOENCODING="utf-8", PYTHONUTF8="1")
    env.pop("RECT_ATG_MAX_N", None)
    return env


class Result:
    """One finished child."""

    def __init__(self, job: inputs.Job, answer: dict, stderr: str):
        self.job = job
        self.code, self.digest = answer["code"], answer["digest"]
        self.wall, self.first_byte, self.rss_kib = answer["wall"], answer["first_byte"], answer["rss_kib"]
        self.stderr = stderr
        self.error: str | None = None


class Spawner:
    """Client of spawner.py, which runs each job in a fresh interpreter."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(ROOT / "bench" / "spawner.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8")

    def run(self, job: inputs.Job, save: Path | None = None) -> Result:
        """Run one job; its stdout is hashed and, when save is given, copied there."""
        err_path = self.work / "stderr.txt"
        request = {"argv": [sys.executable, "-m", "rectatg", *job.argv], "env": self.env,
                   "stdout": str(save) if save else None, "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise SystemExit("error: the spawner process died")
        return Result(job, json.loads(answer), err_path.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def judge(result: Result, output: Path | None) -> None:
    """Set result.error when the exit code, stderr or saved stdout is wrong."""
    job = result.job
    if result.code != job.code:
        result.error = f"exit code {result.code}, expected {job.code}: {result.stderr[-200:]!r}"
    elif "Traceback" in result.stderr:
        result.error = "traceback on stderr"
    elif output is not None:
        result.error = job.check(output)


def build(env: dict[str, str]) -> None:
    """Compile the package once, and make sure children import it from this checkout."""
    import compileall

    if not compileall.compile_dir(str(ROOT / "src" / "rectatg"), quiet=1):
        raise SystemExit("error: src/rectatg does not compile")
    probe = subprocess.run([sys.executable, "-c", "import rectatg; print(rectatg.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    where = Path(probe.stdout.strip() or "?").resolve()
    if probe.returncode != 0 or ROOT / "src" not in where.parents:
        raise SystemExit(f"error: children do not import rectatg from {ROOT / 'src'}: "
                         f"{probe.stderr.strip() or where}")


def measure_setup(spawner: Spawner, samples: int) -> list[Result]:
    job = inputs.Job("setup", list(inputs.SETUP_ARGV), None)
    expected = hashlib.sha256(inputs.SETUP_OUTPUT.encode()).hexdigest()
    results = [spawner.run(job) for _ in range(samples)]
    for r in results:
        judge(r, None)
        if r.error is None and r.digest != expected:
            r.error = "setup job printed the wrong theorem"
    return results


def timed_run(workload: inputs.Workload, spawner: Spawner, seconds: float) -> dict:
    measure_setup(spawner, 1)  # warm the page cache
    setups: list[Result] = []
    saved = [spawner.work / f"out{i}" for i in range(len(workload.jobs))]
    passes: list[list[Result]] = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        setups += measure_setup(spawner, SETUP_SAMPLES)
        first = not passes
        passes.append([spawner.run(job, saved[i] if first else None)
                       for i, job in enumerate(workload.jobs)])
        # Start another pass only if it should end within the time given.
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - started + (now - pass_start) > seconds:
            break

    # References are built and compared only now, after the last child.
    # Later passes must print what the first pass printed.
    for i, job in enumerate(workload.jobs):
        output_error = job.check(saved[i])
        for result in (p[i] for p in passes):
            judge(result, None)
            if result.error is None:
                same = result.digest == passes[0][i].digest
                result.error = output_error if same else "stdout differs from the first pass"
    results = setups + [r for p in passes for r in p]
    setup_walls = [r.wall for r in setups]
    report_jobs(passes, setup_walls)

    # Each job's median over the passes, summed: one slow job in one pass
    # moves the result less than a median of pass totals would.
    jobs = list(zip(*passes))
    pass_walls = [sum(r.wall for r in p) for p in passes]
    values = {
        "wall_s": sum(statistics.median(r.wall for r in job) for job in jobs),
        "first_byte_s": sum(statistics.median(r.first_byte for r in job) for job in jobs),
        "peak_rss_mib": max(statistics.median(r.rss_kib for r in job) for job in jobs) / 1024,
        "setup_s": statistics.median(setup_walls),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    failed = sum(r.error is not None for r in results)
    print(f"{workload.name}: {len(workload.jobs)} jobs, {len(passes)} passes, "
          f"{len(setup_walls)} setup samples, "
          f"pass walls {', '.join(f'{w:.3f}' for w in pass_walls)} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<13} {value:.4f} {unit}")
    print(f"  {'fail_ratio':<13} {failed / len(results):.4f} ({failed}/{len(results)} jobs)")
    return summary(results, metrics)


def report_jobs(passes: list[list[Result]], setup_walls: list[float]) -> None:
    """Per-job medians over the passes, refusals included, on stderr."""
    print(f"{'job':<28} {'code':>4} {'wall_s':>8} {'first_byte_s':>12} {'rss_mib':>8}  size",
          file=sys.stderr)
    for column in zip(*passes):
        r = column[0]
        wall = statistics.median(x.wall for x in column)
        fb = statistics.median(x.first_byte for x in column)
        rss = max(x.rss_kib for x in column) / 1024
        errors = [x.error for x in column if x.error]
        status = f"  FAILED: {errors[0]}" if errors else ""
        print(f"{r.job.name:<28} {r.code:>4} {wall:>8.3f} {fb:>12.3f} {rss:>8.1f}  {r.job.size}{status}",
              file=sys.stderr)
    if setup_walls:
        print(f"{'setup (generate -l p)':<28} {'':>4} {statistics.median(setup_walls):>8.3f}",
              file=sys.stderr)


def summary(results: list, metrics: dict) -> dict:
    failed = sum(r.error is not None for r in results)
    for r in results:
        if r.error is not None:
            print(f"FAILED {r.job.name}: {r.error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


class InProcess:
    """One in-process run of a job, judged against the child's stdout."""

    def __init__(self, job, code, digest, stderr):
        self.job, self.code, self.digest, self.stderr = job, code, digest, stderr
        self.error: str | None = None


def traced_run(workload: inputs.Workload, spawner: Spawner, spans_path: Path) -> dict:
    children = []
    for i, job in enumerate(workload.jobs):
        out = spawner.work / f"out{i}"
        result = spawner.run(job, out)
        judge(result, out)
        out.unlink()
        children.append(result)
    report_jobs([children], [])

    sys.path.insert(0, str(ROOT / "src"))
    import tracemalloc

    import tracer

    child_of = {id(c.job): c for c in children}

    def in_process(job: inputs.Job, recorder, label: str) -> InProcess:
        run = InProcess(job, *tracer.run_main(list(job.argv), recorder))
        child = child_of[id(job)]
        if run.code != child.code or run.digest != child.digest:
            run.error = f"{label} in-process run differs from the child process"
        elif "Traceback" in run.stderr:
            run.error = f"traceback on stderr in the {label} in-process run"
        return run

    tracer.run_main(list(inputs.SETUP_ARGV))  # imports and first-call costs
    spans = tracer.Tracer()
    runs: list[InProcess] = []
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    # A job's untraced and traced runs follow each other, so that both see
    # the machine in the same state, and take turns going first, so that
    # neither always meets the heap the other left behind.
    for i, job in enumerate(workload.jobs):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            with tracer.installed(spans) if traced else contextlib.nullcontext():
                began = time.perf_counter()
                runs.append(in_process(job, spans if traced else None,
                                       "traced" if traced else "untraced"))
                elapsed = time.perf_counter() - began
            if traced:
                traced_s += elapsed
            else:
                untraced_s += elapsed
        spans.end_job()

    allocs = tracer.AllocTracer()
    alloc_start = time.perf_counter()
    for job in workload.jobs:
        if job.alloc:
            with tracer.installed(allocs):
                tracemalloc.start()
                try:
                    runs.append(in_process(job, allocs, "tracemalloc"))
                finally:
                    tracemalloc.stop()
    alloc_s = time.perf_counter() - alloc_start

    with open(spans_path, "w", encoding="utf-8") as f:
        for s in spans.spans:
            f.write(json.dumps({"id": s.id, "name": s.name, "start": s.start - start,
                                "end": s.end - start, "parent": s.parent,
                                "job": workload.jobs[s.job].name}) + "\n")

    metrics = layer_metrics(spans, allocs, untraced_s, traced_s)
    results = children + runs
    print(f"{workload.name}: in-process wall {untraced_s:.3f} s untraced, {traced_s:.3f} s traced, "
          f"{alloc_s:.3f} s under tracemalloc; {len(spans.spans)} spans in "
          f"{spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:.6g} {unit}")
    return summary(results, metrics)


SELF_TIMES = (
    "template.make_template", "rectangle.construct_from_template",
    "rectangle.Rectangle.clauses", "rectangle.remove_clauses",
    "theoremgen.generate_theorem_with_partition",
    "export.export_dimacs", "export.render_matrix", "export.render_theorem",
    "export.export_tptp", "export.save_record", "export.load_record",
    "semantics.is_satisfiable", "semantics.check_minimality", "semantics.entails",
    "theoremgen.verify_theorem",
    "parser.parse_generation_set", "logic.collect_atoms",
    "cli.main", "cli.build_parser", "cli.cmd_generate", "cli.cmd_rectangle",
    "cli.cmd_check", "cli.write",
)
ALLOC_LAYERS = ("cli", "parser", "template", "rectangle", "theoremgen", "semantics",
                "export", "logic")


def layer_metrics(spans, allocs, untraced_s: float, traced_s: float) -> dict:
    import tracer

    metrics = {f"{name}.s": (spans.self_time(name), "s") for name in SELF_TIMES}
    c = spans.counters
    writer_s = spans.total_time(tracer.WRITERS)
    sat_s = spans.self_time("semantics.is_satisfiable")
    semantics_s = spans.total_time(n for n in {s.name for s in spans.spans}
                                   if n.startswith("semantics.") or n == "theoremgen.verify_theorem")
    metrics.update({
        "rectangle.cells": (c["rectangle.cells"], "count"),
        "rectangle.clauses_built": (c["rectangle.clauses_built"], "count"),
        "export.bytes_out": (c["export.bytes_out"], "B"),
        "export.bytes_per_s": (c["export.bytes_out"] / writer_s if writer_s else 0.0, "B/s"),
        "semantics.sat_calls": (c["semantics.sat_calls"], "count"),
        "semantics.assignments_swept": (c["semantics.assignments_swept"], "count"),
        "semantics.assignments_per_s": (
            c["semantics.assignments_swept"] / sat_s if sat_s else 0.0, "1/s"),
        "semantics.wall_share": (semantics_s / traced_s, "ratio"),
    })
    for name in ALLOC_LAYERS:
        metrics[f"{name}.alloc_peak_mib"] = (allocs.peaks.get(name, 0) / tracer.MIB, "MiB")
    metrics.update({
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1, "ratio"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rectatg" / "__init__.py").is_file():
        print(f"error: no rectatg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = ROOT / WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = inputs.WORKLOADS[args.workload](args.seed, str(work.relative_to(ROOT)))
        for path, text in workload.files.items():
            (ROOT / path).write_text(text, encoding="utf-8")
        build(child_env())
        spawner = Spawner(work)
        try:
            if args.trace:
                spans_path = ROOT / WORK / f"spans-{args.workload}-{args.seed}.jsonl"
                result = traced_run(workload, spawner, spans_path)
            else:
                result = timed_run(workload, spawner, args.seconds)
        finally:
            spawner.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
