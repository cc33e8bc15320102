"""Mutation check of the cell rule, the oracles, the record checks, the
text rules (the empty clause, the row separator and the newline) and
the index of a view.

    python scripts/mutants.py

Each mutant below is one exact-text replacement in one module of
``src/rectatg``.  For each mutant, the script copies ``src/`` and
``tests/`` into a temporary directory, applies the mutant there and
runs the tier-1 files in ``FILES`` with ``pytest -x`` and a fixed
hypothesis seed, so a run repeats, under a ``TIMEOUT`` of 60 s and a
2 GiB address-space limit; the working tree is never changed.  The
unmutated copy runs first and must pass.  A mutant is killed when the
tests fail, timed out when they do not end in time, and survived when
they pass.  One line per mutant gives its status, its seconds and the
first test that failed, and the last line the total time.

``LISTED`` names the mutants expected to survive, each with its reason:
"equivalent" ones change no result, "open" ones no test can tell apart
yet.  Exits 1 when any other mutant survives, a listed one is killed or
a mutant's text is not found exactly once, and 2 when the unmutated
copy fails.  Only the standard library is used, besides the pytest and
hypothesis that the tests need.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = [
    "tests/test_semantics.py",
    "tests/test_partition_views.py",
    "tests/test_rectangle.py",
    "tests/test_theoremgen.py",
    "tests/test_acceptance.py",
    "tests/test_export.py",
    "tests/test_row_views.py",
    "tests/test_value_classes.py",
    "tests/test_parser.py",
]
ADDRESS_SPACE = 2 << 30
TIMEOUT = 60.0

# (name, module, text, replacement): the text must occur exactly once.
MUTANTS = [
    # The cell rule.
    ("masks-flip", "rectangle",
     "enumerate(rect.generators) if lit.negated)",
     "enumerate(rect.generators) if not lit.negated)"),
    ("masks-pos0", "rectangle",
     "pos0, drop = (rect.width - 1) ^ flip, self.drop or ()",
     "pos0, drop = rect.width - 1, self.drop or ()"),
    ("masks-neg", "rectangle", "(pos0 ^ j, flip ^ j)", "(pos0 ^ j, flip)"),
    ("masks-renumber", "rectangle",
     "if not len(self) or index and any(index.get(a) != i for i, a in enumerate(atoms)):",
     "if not len(self):"),
    # One index of a view reads one column.
    ("index-drop-shift", "rectangle",
     "                if gone > j:", "                if gone >= j:"),
    ("index-keep", "rectangle", "            j = self.keep[j]", "            j = self.keep[0]"),
    ("half-swapped", "rectangle",
     "joined = [t + pos for t in joined] + [t + neg for t in joined]",
     "joined = [t + neg for t in joined] + [t + pos for t in joined]"),
    ("half-interleaved", "rectangle",
     "joined = [t + pos for t in joined] + [t + neg for t in joined]",
     "joined = [t + c for t in joined for c in (pos, neg)]"),
    ("sep-every-row", "rectangle",
     "for pos, neg in tokens[1:]]", "for pos, neg in tokens[:]]"),
    ("sep-from-row-two", "rectangle",
     "for pos, neg in tokens[1:]]", "for pos, neg in tokens[2:]]"),
    ("blocks-drop-bits", "rectangle",
     "add(j & ((1 << h) - 1))", "add(j >> h)"),
    ("column-bit", "rectangle",
     "pair[(j >> i) & 1] for i, pair",
     "pair[(j >> (self.n - 1 - i)) & 1] for i, pair"),
    ("column-unchecked", "rectangle",
     "(j,) = _columns((j,), self.width)", "j = _index(j, 'column') % self.width"),
    ("columns-upper", "rectangle", "columns[-1] >= width", "columns[-1] > width"),
    ("columns-raw", "rectangle",
     "columns = sorted({_index(j, \"column\") for j in indices})",
     "columns = [_index(j, \"column\") for j in indices]"),
    # The cover.
    ("bump-unsaturated", "semantics",
     "_BUMP = bytes([1] + [2] * 255)", "_BUMP = bytes([1] + [1] * 255)"),
    ("bump-from-two", "semantics",
     "_BUMP = bytes([1] + [2] * 255)", "_BUMP = bytes([2] + [2] * 255)"),
    ("subcube-last-run", "semantics", "if r > run:", "if r >= run:"),
    ("subcube-rest", "semantics", "rest = free & ~(span - step)", "rest = free"),
    ("subcube-start", "semantics", "start = neg | s", "start = s"),
    ("cover-full-point", "semantics",
     "counts[neg] = _BUMP[counts[neg]]", "counts[neg] = 1"),
    # The empty clause.
    ("box-ignored", "logic",
     "box = empty if box is None else box", "box = empty"),
    # The removals.
    ("firsts-plain", "logic", "firsts.add(j)", "firsts.add(0)"),
    ("firsts-view", "rectangle",
     "firsts = (0,) if len(self) == 1 and not index else ()", "firsts = ()"),
    ("first-route-verdict", "semantics",
     "decided[j], m = _lowest(rest, max_atoms)", "decided[j], m = _lowest(rest, max_atoms)[0], 0"),
    ("first-route-numbering", "semantics",
     "self._decided.get(j, self._atoms)", "self._atoms"),
    ("first-route-rest", "semantics",
     "clauses[:j] + clauses[j + 1 :]", "clauses[:j] + clauses[j:]"),
    ("removal-full-lowest", "semantics",
     "if counts[neg] == 1 and not 0 <= zero < neg:", "if counts[neg] == 1:"),
    ("removal-full-tautology", "semantics",
     "if pos | neg == full and not pos & neg:", "if pos | neg == full:"),
    ("removal-cube-lowest", "semantics",
     "cube.start + t * cube.step < m)", "cube.start + t * cube.step > m)"),
    ("removal-no-zero", "semantics",
     "m = zero\n        if j in firsts", "m = -1\n        if j in firsts"),
    ("sat-count-zeros", "semantics",
     "self._witnesses.count(-1)", "self._witnesses.count(0)"),
    ("sat-count-all", "semantics",
     "return len(self._witnesses) - self._witnesses.count(-1)",
     "return len(self._witnesses)"),
    ("ok-ignores-full", "semantics",
     "return not self.full.satisfiable and self.removals", "return self.removals"),
    # The clash-free search.
    ("clash-unit-zero", "semantics", "if shortest == 1:", "if shortest == 0:"),
    ("clash-positive-split", "semantics",
     "a, b = (atom, 0) if atom & p else (0, atom)", "a, b = (atom, 0)"),
    ("clash-served", "semantics",
     "if not (p & pos or q & neg)]", "if not p & pos]"),
    ("clash-narrow", "semantics", "(p & ~neg, q & ~pos)", "(p, q & ~pos)"),
    ("clash-units-clash", "semantics",
     "if not pos & neg:\n                nodes.append", "if True:\n                nodes.append"),
    # The shared index of entails.
    ("entails-hypothesis-index", "semantics",
     "hypothesis.masks(max_atoms, index)", "hypothesis.masks(max_atoms)"),
    ("entails-premise-index", "semantics",
     "premises.masks(max_atoms, index)", "premises.masks(max_atoms, {})"),
    # The record checks.
    ("texts-length", "export",
     "if not isinstance(stored, list) or len(stored) != len(premises):",
     "if not isinstance(stored, list):"),
    ("texts-advance", "export", "start = stop\n", "pass\n"),
    ("texts-compare", "export",
     "if stored[start:stop] != list(map(add, texts, repeat(tail))):",
     "if len(stored[start:stop]) != len(texts):"),
    ("version-type", "export",
     "if type(version) is not int or version != SCHEMA_VERSION:",
     "if version != SCHEMA_VERSION:"),
    ("indices-type", "export",
     "any(type(i) is not int for i in indices)",
     "any(not isinstance(i, int) for i in indices)"),
    # Newlines inside parentheses.
    ("depth-never-closes", "parser",
     'depth += (kind == "LPAREN") - (kind == "RPAREN")', 'depth += kind == "LPAREN"'),
    ("newline-any-depth", "parser",
     "keep_newlines and depth <= 0", "keep_newlines"),
    # The row shortcut: equal fields mean equal cells.
    ("row-fields-no-i", "template",
     "self._fields(self) == other._fields(other)", "(self.pair, self.n) == (other.pair, other.n)"),
    ("row-fields-no-n", "template",
     "self._fields(self) == other._fields(other)", "(self.pair, self.i) == (other.pair, other.i)"),
]

LISTED = {
    "subcube-last-run": "equivalent: a tie picks the last longest run of free "
                        "bits, not the first: the slices cover the same points",
    "clash-positive-split": "open: both branches of a split are searched, so the "
                            "order changes only the work; it waits on a node count",
}

def _limit() -> None:
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, hard))


def run_tests(mutant: tuple | None) -> tuple[str, str]:
    """Copy the sources and tests, apply ``mutant`` and run ``FILES``.
    The status is "killed", "survived", "timed out" or "not found"; a
    killed run also names the first test that failed."""
    with tempfile.TemporaryDirectory(prefix="rectatg-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        if mutant is not None:
            _, module, text, replacement = mutant
            path = Path(tmp) / "src" / "rectatg" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            if source.count(text) != 1:
                return "not found", ""
            path.write_text(source.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        log = Path(tmp) / "pytest.log"
        with open(log, "wb") as out:
            child = subprocess.Popen(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--hypothesis-seed=0", *FILES],
                cwd=tmp, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
                preexec_fn=_limit, start_new_session=True,
            )
            try:
                code = child.wait(TIMEOUT)
            except subprocess.TimeoutExpired:
                # The tests' own children are in the same session: end them all.
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                return "timed out", ""
        if code == 0:
            return "survived", ""
        lines = log.read_text(encoding="utf-8", errors="replace").splitlines()
        failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
        return "killed", (failed or lines[-1:] or [f"exit {code}"])[0][:100]


def main() -> int:
    started = time.perf_counter()
    status, failed = run_tests(None)
    print(f"{'(unmutated)':26} {status:10} {time.perf_counter() - started:6.1f}s  {failed}", flush=True)
    if status != "survived":
        return 2
    bad = 0
    for mutant in MUTANTS:
        name = mutant[0]
        start = time.perf_counter()
        status, failed = run_tests(mutant)
        listed = LISTED.get(name)
        unexpected = status == "not found" or (status == "survived") != bool(listed)
        bad += unexpected
        note = f"<- unexpected {failed}" if unexpected else f"({listed})" if listed else failed
        print(f"{name:26} {status:10} {time.perf_counter() - start:6.1f}s  {note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} unexpected, {time.perf_counter() - started:.0f}s in all")
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
