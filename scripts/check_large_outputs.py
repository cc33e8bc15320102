"""Byte-check the CLI's largest outputs against the benchmark's references.

    python scripts/check_large_outputs.py 19 20

For each n given (default 19 and 20), runs ``rectangle -o dimacs``,
``rectangle -o matrix`` and ``generate -o text|json|tptp`` (the generate
jobs with eight seeded hypothesis columns) on seeded propositional sets
of n generators, each in a fresh process on the sources under ``src/``.
Each stdout is compared with the reference that ``bench/inputs.py``
rebuilds from the bit rule, through its ``compare_lines``,
``compare_record`` and ``compare_tptp``.  The benchmark's own jobs stop
at n=18; an odd and an even n cover both ways of splitting the rows
into the writers' two halves.  Exits 1 if any output differs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402


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
        out = Path(work) / "stdout"
        for job in jobs.workload.jobs:
            with open(out, "wb") as f:
                argv = [sys.executable, "-m", "rectatg", *job.argv]
                code = subprocess.run(argv, stdout=f, env=env).returncode
            error = f"exit code {code}" if code != job.code else job.check(out)
            print(f"{job.name:<24} {job.size:<28} {error or 'ok'}", flush=True)
            failed += error is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
