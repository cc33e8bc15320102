"""Print the end-to-end metrics of every workload, with units, in one table.

    python3 bench/report.py [--seed 1] [--seconds S]

Runs bench/run.py once per workload (untraced) and adds fail_ratio, the
jobs whose exit code or output was wrong over the jobs attempted.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':<10} " + " ".join(f"{n:>14}" for n in names + ["fail_ratio"]))
    worst = 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{workload:<10} failed: {proc.stderr.strip()[-300:]}")
            worst = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        cells = [f"{m['value']:>10.4f} {m['unit']:<3}" for m in
                 (result["metrics"][n] for n in names)]
        ratio = result["failed"] / result["attempted"]
        cells.append(f"{ratio:>10.4f} {'':<3}")
        print(f"{workload:<10} " + " ".join(cells))
        worst = max(worst, int(not result["correct"]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
