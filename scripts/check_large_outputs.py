"""Byte-check the CLI's largest outputs against the benchmark's references.

    python scripts/check_large_outputs.py 19 20

For each n given (default 19 and 20), runs ``rectangle -o dimacs``,
``rectangle -o matrix`` and ``generate -o text|json|tptp`` (the generate
jobs with eight seeded hypothesis columns) on seeded propositional sets
of n generators, each in a fresh process on the sources under ``src/``.
Each stdout is compared with the reference that ``bench/inputs.py``
rebuilds from the bit rule, through its ``compare_lines``,
``compare_record`` and ``compare_tptp``.  Then, for each n, ``check``
and ``generate --verify`` (eight hypothesis columns) run the oracles,
and their stdout is compared through ``compare_lines`` with
``check_summary`` and ``theorem_lines``; n=20 is the CLI's default atom
cap.  Last, for each n, ``check --record`` reads a seeded record with
eight hypothesis columns, written from ``inputs.record``, which takes
the record rebuild and the closed route of ``entails`` with dropped
columns; its stdout must be the summary and ``theorem: verified``.
Then ``generate -o text|json|tptp`` and ``generate --verify`` run at
n=16 with every fourth column as ``-H``: a large hypothesis side, whose
16384 indices make an argument of about 95 KB, under Linux's 128 KiB
limit for one argument.  Their stdout is compared through
``theorem_lines``, ``compare_record`` and ``compare_tptp``.

Each child's stdout is a pipe that this script drains with 64 KiB
``os.read`` calls into a file, as the benchmark's spawner and readers
such as ``head`` take it, so the bytes are checked as those readers see
them.
The benchmark's own jobs stop at n=18, and its ``check`` jobs at n=9;
an odd and an even n cover both ways of splitting the rows into the
writers' two halves.  Last, it prints the largest peak RSS of any
child, from ``getrusage(RUSAGE_CHILDREN)`` (kilobytes on Linux).  Exits
1 if any output differs or any exit code is not the expected one.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402

READ_SIZE = 1 << 16
# The size of the large-hypothesis jobs: every fourth of 2**16 columns.
QUARTER_N = 16


def run(argv: list[str], env: dict[str, str], out: Path) -> int:
    """Run ``rectatg`` with these arguments, copy its stdout to ``out``
    through a pipe, and return the exit code.

    A ``preexec_fn`` makes ``subprocess`` fork the child instead of
    vforking it.  A vforked child execs from this script's memory, and
    Linux then starts the child's peak RSS at this script's own peak,
    which reading the n=20 outputs back raises past 1 GiB."""
    with open(out, "wb") as f, subprocess.Popen(
        [sys.executable, "-m", "rectatg", *argv], stdout=subprocess.PIPE, env=env,
        preexec_fn=lambda: None,
    ) as proc:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, READ_SIZE):
            f.write(chunk)
    return proc.returncode


def main(argv: list[str]) -> int:
    sizes = [int(arg) for arg in argv] or [19, 20]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        jobs = inputs._JobList("large-outputs", 1, work)
        for n in sizes:
            for output in ("dimacs", "matrix"):
                jobs.rectangle(inputs.prop_set(jobs.rng, n), output, as_file=False)
            for output in ("text", "json", "tptp"):
                jobs.generate(inputs.prop_set(jobs.rng, n), output, as_file=False, columns=8)
        for n in sizes:
            summary = inputs.check_summary(n)
            argv = ["check", *jobs.literals(inputs.prop_set(jobs.rng, n), as_file=False)]
            jobs.add(f"check-n{n}", argv, lambda p, s=summary: inputs.compare_lines(p, [s]),
                     size=f"n={n}")
            jobs.generate(inputs.prop_set(jobs.rng, n), "text", as_file=False, columns=8,
                          verify=True)
        for n in sizes:
            gens, hyp = inputs.prop_set(jobs.rng, n), inputs._hypothesis(jobs.rng, n, 8)
            path = Path(work) / f"record-n{n}.json"
            with open(path, "w", encoding="utf-8") as f:
                json.dump(inputs.record(inputs.Layout(gens), hyp), f, ensure_ascii=False,
                          indent=2)
            lines = [inputs.check_summary(n), "theorem: verified"]
            jobs.add(f"check-record-n{n}", ["check", "--record", str(path)],
                     lambda p, lines=lines: inputs.compare_lines(p, lines),
                     size=f"n={n}, 8 hypothesis columns")
        gens = inputs.prop_set(jobs.rng, QUARTER_N)
        layout, hyp = inputs.Layout(gens), list(range(0, 1 << QUARTER_N, 4))
        checks = {
            "text": lambda p: inputs.compare_lines(p, inputs.theorem_lines(layout, hyp)),
            "json": lambda p: inputs.compare_record(p, inputs.record(layout, hyp)),
            "tptp": lambda p: inputs.compare_tptp(p, layout, hyp),
        }
        for output, verify in (("text", False), ("json", False), ("tptp", False), ("text", True)):
            argv = ["generate", *jobs.literals(gens, as_file=False), "-o", output,
                    "-H", inputs._indices(hyp, jobs.rng), *(["--verify"] if verify else [])]
            jobs.add(f"generate-{output}-H{len(hyp)}{'-verify' if verify else ''}-n{QUARTER_N}",
                     argv, checks[output], size=f"n={QUARTER_N}, {len(hyp)} hypothesis columns")
        out = Path(work) / "stdout"
        for job in jobs.workload.jobs:
            code = run(job.argv, env, out)
            error = f"exit code {code}" if code != job.code else job.check(out)
            print(f"{job.name:<28} {job.size:<28} {error or 'ok'}", flush=True)
            failed += error is not None
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"largest child peak RSS: {peak:.1f} MiB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
