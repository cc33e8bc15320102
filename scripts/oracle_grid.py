"""Time the oracles and the writers per n, paired, on two source trees.

    python scripts/oracle_grid.py PARENT CHANGE [--rounds R] [--n 4,6] [--rows TEXT]
                                  [--json FILE]

PARENT and CHANGE are rectatg checkouts; a child runs the package under
the tree's ``src/``.  The rows, on seeded propositional sets from
``bench/inputs.py``:

- ``check`` at n = 18, 20, 22 and 24, with ``--max-atoms 24``;
- ``generate --verify`` at n = 20 and 22, with every fourth column as
  the hypothesis and ``--max-atoms 24``;
- the writers at n = 20 and 22: ``generate`` text, json and tptp with
  eight seeded hypothesis columns, and ``rectangle`` dimacs and matrix.

``--n`` gives every row kind this one list of sizes instead, and
``--rows`` keeps only the rows whose name holds the given text.

Each run is one forked child of a small spawner process (``SPAWNER``).
The child reads its argument list from a file and calls
``rectatg.cli.run``, as ``python -m rectatg`` does: every fourth column
at n=20 is an ``-H`` of about 2 MB, past Linux's 128 KiB for one
argument.  Wall time runs from the fork to the reaping, peak RSS is
``os.wait4``'s, and stdout is a pipe drained in 64 KiB reads, into one
buffer, and hashed with sha256.

First each row runs once on PARENT with stdout copied to a file, which
is checked against the reference that ``bench/inputs.py`` rebuilds from
the bit rule, as ``scripts/check_large_outputs.py`` checks it: the
summary line, ``compare_lines`` for text, DIMACS and the matrix, and
``compare_tptp``.  JSON records and the ``--verify`` rows are compared
byte for byte with the reference streamed, since parsing a record or
the conclusion of 2^20 hypothesis columns at n=22 would take gigabytes.
The check runs in a forked child of its own, so its memory is given back
before the next run.  Then the trees run in ABBA order, R rounds per row
(2R pairs), and every run must exit 0 with the checked run's sha256.

Per row and metric (``wall_s``, ``peak_rss_mib``) it prints both
medians and q1-q3, the median paired ratio change/parent, the pairs
each side won and a two-sided sign-test p.  ``--json`` writes the same
in the shape the BENCH files share.  Exits 1 if any run fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from itertools import chain
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402

READ_SIZE = 1 << 16
CHECK_SIZES, WIDE_SIZES = (18, 20, 22, 24), (20, 22)
MAX_ATOMS = "24"
# The child: argv comes from a file, one argument per NUL-separated field.
LAUNCH = ("import sys; sys.argv[1:] = open(sys.argv[1], encoding='utf-8').read().split('\\0'); "
          "from rectatg.cli import run; run()")


class _Streamed(list):
    """A list that json's indenting encoder reads lazily: ``len`` is given
    and the items come from ``make()`` each time it is iterated."""

    def __init__(self, make, size: int):
        super().__init__()
        self.make, self.size = make, size

    def __iter__(self):
        return iter(self.make())

    def __len__(self) -> int:
        return self.size


def same_text(path: Path, pieces) -> str | None:
    """None when the file holds exactly the pieces' UTF-8, compared 64 KiB
    of reference at a time."""
    offset, held, size = 0, [], 0
    with open(path, "rb") as f:
        for piece in chain(pieces, [None]):
            if piece is not None:
                held.append(piece.encode())
                size += len(held[-1])
                if size < READ_SIZE:
                    continue
            want, held, size = b"".join(held), [], 0
            got = f.read(len(want))
            if got != want:
                at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                          min(len(got), len(want)))
                return (f"byte {offset + at}: got {got[at:at + 40]!r}, "
                        f"expected {want[at:at + 40]!r}")
            offset += len(want)
        extra = f.read(40)
    return f"byte {offset}: unexpected extra output {extra!r}" if extra else None


def record_pieces(layout: inputs.Layout, hyp: list[int]):
    """``inputs.record`` as the CLI writes it (``json.dumps`` with an
    indent of 2, then a newline), its premises streamed."""
    record = {
        "version": 1,
        "generators": [g.to_json() for g in layout.gens],
        "removed_indices": list(hyp),
        "premises": _Streamed(lambda: inputs.premise_texts(layout, hyp), layout.width - len(hyp)),
        "conclusion": inputs.conclusion_text(layout, hyp),
    }
    yield from json.JSONEncoder(ensure_ascii=False, indent=2).iterencode(record)
    yield "\n"


def theorem_pieces(layout: inputs.Layout, hyp: list[int]):
    """``inputs.theorem_lines`` with the conclusion of many columns streamed."""
    for text in inputs.premise_texts(layout, hyp):
        yield text + "\n"
    if len(hyp) == 1:
        yield f"⊢ {inputs.conclusion_text(layout, hyp)}\n"
        return
    yield "⊢ ¬("
    for k, j in enumerate(hyp):
        yield (" ∧ (" if k else "(") + " ∨ ".join(layout.column_cells(j)) + ")"
    yield ")\n"


def rows(sizes: list[int] | None, work: str):
    """The grid's jobs, seeded, one at a time, each with its reference
    check.  The ``--verify`` rows hold their hypothesis as a ``range``,
    which ``write_args`` writes out, so no row's argv is large here."""
    jobs = inputs._JobList("oracle-grid", 1, work)
    for n in sizes or CHECK_SIZES:
        summary = inputs.check_summary(n)
        literals = jobs.literals(inputs.prop_set(jobs.rng, n), False)
        yield inputs.Job(f"check-n{n}", ["check", *literals, "--max-atoms", MAX_ATOMS],
                         lambda p, s=summary: inputs.compare_lines(p, [s]), size=f"n={n}")
    for n in sizes or WIDE_SIZES:
        layout, hyp = inputs.Layout(inputs.prop_set(jobs.rng, n)), range(0, 1 << n, 4)
        yield inputs.Job(f"generate-H{len(hyp)}-verify-n{n}",
                         ["generate", *jobs.literals(layout.gens, False), "-H", hyp, "--verify",
                          "--max-atoms", MAX_ATOMS],
                         lambda p, l=layout, h=hyp: same_text(p, theorem_pieces(l, h)),
                         size=f"n={n}, every fourth column")
    for n in sizes or WIDE_SIZES:
        for output in ("text", "json", "tptp"):
            layout = inputs.Layout(inputs.prop_set(jobs.rng, n))
            hyp = inputs._hypothesis(jobs.rng, n, 8)
            checks = {
                "text": lambda p, l=layout, h=hyp: inputs.compare_lines(
                    p, inputs.theorem_lines(l, h)),
                "json": lambda p, l=layout, h=hyp: same_text(p, record_pieces(l, h)),
                "tptp": lambda p, l=layout, h=hyp: inputs.compare_tptp(p, l, h),
            }
            yield inputs.Job(f"generate-{output}-H8-n{n}",
                             ["generate", *jobs.literals(layout.gens, False), "-o", output, "-H",
                              inputs._indices(hyp, jobs.rng)],
                             checks[output], size=f"n={n}, {layout.width - 8} premises")
        for output in ("dimacs", "matrix"):
            jobs.rectangle(inputs.prop_set(jobs.rng, n), output, as_file=False)
            yield jobs.workload.jobs.pop()


def write_args(path: Path, argv: list) -> None:
    """Write ``argv`` NUL-separated; a ``range`` is written as its
    comma-separated indices, a slice at a time."""
    with open(path, "w", encoding="utf-8") as f:
        for k, arg in enumerate(argv):
            f.write("\0" if k else "")
            if not isinstance(arg, range):
                f.write(arg)
                continue
            for i in range(0, len(arg), 4096):
                f.write(("," if i else "") + ",".join(map(str, arg[i : i + 4096])))


# The spawner, run as ``python -S -I -c SPAWNER``.  A forked child's peak
# RSS starts at its parent's resident memory, and this script's, with
# ``inputs`` and the reference checks loaded, is above an idle
# interpreter's, so the children are forked by this small process
# instead.  It reads every stdout into one buffer: a new bytes per
# read, shrunk to what a short read holds, would grow its heap and with
# it that floor.  One request per line, ``ARGS<TAB>SRC<TAB>COPY`` (COPY
# empty for none), answered by ``CODE SHA256 WALL RSS_KIB``.
SPAWNER = """
import hashlib, os, sys, time
buffer = bytearray(%d)
view = memoryview(buffer)
for line in sys.stdin:
    args, src, copy = line[:-1].split("\\t")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8")
    read_fd, write_fd = os.pipe()
    digest, sink = hashlib.sha256(), open(copy, "wb") if copy else None
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(write_fd, 1)
            os.closerange(3, 1 << 16)
            os.execve(sys.executable, [sys.executable, "-c", %r, args], env)
        finally:
            os._exit(127)
    os.close(write_fd)
    while size := os.readv(read_fd, [buffer]):
        digest.update(view[:size])
        if sink:
            sink.write(view[:size])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.close(read_fd)
    if sink:
        sink.close()
    print(os.waitstatus_to_exitcode(status), digest.hexdigest(), wall, usage.ru_maxrss, flush=True)
""" % (READ_SIZE, LAUNCH)


def spawn(spawner, tree: Path, args: Path, copy: Path | None = None) -> dict:
    """Run one child on ``tree`` with the arguments in the file ``args``."""
    spawner.stdin.write(f"{args}\t{tree / 'src'}\t{copy or ''}\n")
    spawner.stdin.flush()
    code, sha256, wall, rss_kib = spawner.stdout.readline().split()
    return {"code": int(code), "sha256": sha256, "wall_s": float(wall),
            "peak_rss_mib": int(rss_kib) / 1024}


def checked_apart(check, path: Path) -> str | None:
    """``check(path)`` in a forked child, whose memory goes when it exits."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            error = check(path)
            os.write(write_fd, b"ok" if error is None else error.encode())
        except Exception as exc:  # reported, not raised: this is a fork
            os.write(write_fd, f"check raised {exc!r}".encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as f:
        answer = f.read().decode()
    os.waitpid(pid, 0)
    return None if answer == "ok" else answer or "the check ended without an answer"


def sign_p(wins: int, losses: int) -> float:
    """Two-sided exact sign test; ties are left out."""
    k, m = min(wins, losses), wins + losses
    return 1.0 if m == 0 else min(1.0, 2 * sum(comb(m, i) for i in range(k + 1)) / 2 ** m)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Per metric over (parent, change) pairs: medians, q1-q3, the median
    paired ratio, wins per side and the sign-test p."""
    out = {"pairs": len(pairs)}
    for metric in ("wall_s", "peak_rss_mib"):
        a, b = [p[metric] for p, _ in pairs], [c[metric] for _, c in pairs]
        lower = sum(y < x for x, y in zip(a, b))
        higher = sum(y > x for x, y in zip(a, b))
        out[metric] = {
            "parent_median": round(statistics.median(a), 4),
            "change_median": round(statistics.median(b), 4),
            "parent_q1_q3": [round(v, 4) for v in _quartiles(a)],
            "change_q1_q3": [round(v, 4) for v in _quartiles(b)],
            "ratio_median": round(statistics.median(y / x for x, y in zip(a, b)), 4),
            "change_lower_pairs": lower,
            "parent_lower_pairs": higher,
            "sign_p": round(sign_p(lower, higher), 4),
        }
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=5, help="ABBA rounds per row (default 5)")
    ap.add_argument("--n", help="comma-separated sizes for every row kind")
    ap.add_argument("--rows", default="", help="run only the rows whose name holds this text")
    ap.add_argument("--json", type=Path, help="write the results here")
    opts = ap.parse_args(argv)
    trees = {"parent": opts.parent.resolve(), "change": opts.change.resolve()}
    sizes = [int(part) for part in opts.n.split(",")] if opts.n else None
    summary, runs, failed = {}, [], 0
    with tempfile.TemporaryDirectory() as work, subprocess.Popen(
        [sys.executable, "-S", "-I", "-c", SPAWNER], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
    ) as spawner:
        for job in rows(sizes, work):
            if opts.rows not in job.name:
                continue
            args, out = Path(work) / "argv", Path(work) / "stdout"
            write_args(args, job.argv)
            first = spawn(spawner, trees["parent"], args, copy=out)
            error = (f"exit code {first['code']}" if first["code"] else
                     checked_apart(job.check, out))
            out.unlink()
            pairs, bad = [], 0
            if error is None:
                for _ in range(opts.rounds):
                    a1 = spawn(spawner, trees["parent"], args)
                    b1 = spawn(spawner, trees["change"], args)
                    b2 = spawn(spawner, trees["change"], args)
                    a2 = spawn(spawner, trees["parent"], args)
                    for tree, run in zip(("parent", "change", "change", "parent"),
                                         (a1, b1, b2, a2)):
                        bad += run.pop("code") != 0 or run.pop("sha256") != first["sha256"]
                        runs.append({"row": job.name, "tree": tree, **run})
                    pairs += [(a1, b1), (a2, b2)]
                if bad:
                    error = f"{bad} runs differ from the checked run"
            failed += error is not None
            if pairs:
                summary[job.name] = {"size": job.size, "sha256": first["sha256"],
                                     **summarize(pairs)}
                _print_row(job.name, summary[job.name])
            if error:
                print(f"{job.name}: {error}", flush=True)
    if opts.json:
        opts.json.write_text(json.dumps({
            "change": f"{opts.change.name} against {opts.parent.name}",
            "harness": f"python scripts/oracle_grid.py PARENT CHANGE --rounds {opts.rounds}"
                       + (f" --n {opts.n}" if opts.n else "")
                       + (f" --rows {opts.rows}" if opts.rows else ""),
            "machine": f"{os.cpu_count()} vCPUs, CPython {platform.python_version()}",
            "pairs_rule": "per row, ABBA rounds of one forked child per run; pairs are "
                          "(A1, B1) and (A2, B2) of each round",
            "claim": None,
            "summary": summary,
            "grid_peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "runs": runs,
        }, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


def _print_row(name: str, row: dict) -> None:
    cells = []
    for metric in ("wall_s", "peak_rss_mib"):
        m = row[metric]
        cells.append(f"{m['parent_median']:.4g} -> {m['change_median']:.4g} "
                     f"(x{m['ratio_median']:.3f}, {m['change_lower_pairs']}/{row['pairs']}, "
                     f"p={m['sign_p']:.3g})")
    print(f"{name:<30} wall {cells[0]:<44} rss {cells[1]}", flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
