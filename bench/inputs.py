"""Seeded inputs, job lists and reference outputs for the benchmark workloads.

Nothing here imports rectatg.  Every expected output is rebuilt from the
bit rule (cell (i, j) is generator i, complemented when bit i of j is
set) and from the literal model this module generated, so a defect in
the program cannot also hide in its reference.

The seed picks identifiers, polarities, literal order, separators and
the hypothesis columns.  It never picks a size: name lengths, term
shapes and column counts are fixed per workload, so two seeds cost the
program the same work.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterable, Iterator

LOWER_ALNUM = string.ascii_lowercase + string.digits


# ---------------------------------------------------------------- literal model


@dataclass(frozen=True)
class Term:
    kind: str  # "var", "const" or "func"
    name: str
    args: tuple["Term", ...] = ()

    def text(self, sep: str = ", ") -> str:
        if not self.args:
            return self.name
        return f"{self.name}({sep.join(a.text(sep) for a in self.args)})"

    def to_json(self) -> dict:
        if self.kind == "func":
            return {"kind": "func", "name": self.name, "args": [a.to_json() for a in self.args]}
        return {"kind": self.kind, "name": self.name}

    def has_variable(self) -> bool:
        return self.kind == "var" or any(a.has_variable() for a in self.args)


@dataclass(frozen=True)
class Gen:
    """One generation literal: a proposition (args is None), a predicate, or '='."""

    symbol: str
    args: tuple[Term, ...] | None
    negated: bool

    def atom_text(self, sep: str = ", ") -> str:
        if self.args is None:
            return self.symbol
        if self.symbol == "=":
            return f"{self.args[0].text(sep)}={self.args[1].text(sep)}"
        return f"{self.symbol}({sep.join(a.text(sep) for a in self.args)})"

    def source(self, neg_mark: str) -> str:
        """Input text: terms without spaces, so the parser sees a second spelling."""
        return (neg_mark if self.negated else "") + self.atom_text(",")

    def to_json(self) -> dict:
        if self.args is None:
            atom = {"kind": "prop", "name": self.symbol}
        else:
            atom = {"kind": "pred", "symbol": self.symbol, "args": [a.to_json() for a in self.args]}
        return {"negated": self.negated, "atom": atom}

    def has_variable(self) -> bool:
        return self.args is not None and any(a.has_variable() for a in self.args)


def _fresh(rng: random.Random, first: str, rest: str, length: int, taken: set[str]) -> str:
    while True:
        name = rng.choice(first) + "".join(rng.choice(rest) for _ in range(length - 1))
        if name not in taken:
            taken.add(name)
            return name


def prop_set(rng: random.Random, n: int) -> list[Gen]:
    """n propositions, five characters each; every third one starts uppercase,
    which TPTP must quote."""
    taken: set[str] = set()
    gens = [
        Gen(
            _fresh(rng, string.ascii_uppercase if i % 3 == 0 else string.ascii_lowercase,
                   LOWER_ALNUM, 5, taken),
            None,
            rng.random() < 0.5,
        )
        for i in range(n)
    ]
    rng.shuffle(gens)
    return gens


# First-order literal shapes: ("P" | "p", *args) is a predicate whose name
# starts upper case (TPTP quotes it) or lower case; ("=", lhs, rhs) is the
# one equality literal.  A term shape is "v" (variable), "c" (constant) or
# ("f", *args).  Terms nest function symbols up to depth 3.
FO_SHAPES = (
    ("P", ("f", ("f", ("f", "v")))),
    ("p", "c", ("f", "v", "c")),
    ("=", ("f", "v"), ("f", ("f", "c"))),
    ("P", "v", "v"),
    ("p", ("f", ("f", "v", "c"))),
    ("P", "c"),
    ("P", ("f", "c", ("f", ("f", "v")))),
    ("p", "v"),
    ("P", ("f", "v"), "c", "v"),
    ("p", ("f", ("f", ("f", "c")))),
    ("P", "c", "c"),
    ("P", ("f", "v", ("f", "c"))),
    ("p", ("f", "c")),
    ("P", "v", ("f", ("f", "v"))),
    ("p", "c", "v"),
)


def fo_set(rng: random.Random, n: int) -> list[Gen]:
    """The first n shapes of FO_SHAPES in seeded order, with seeded names.

    Every name has a fixed length (predicates 3, terms 2), so the text
    the program renders has the same size for every seed.
    """
    variables = [_fresh(rng, "XYZUVW", string.digits, 2, set()) for _ in range(3)]
    constants = [c + rng.choice(string.digits) for c in "abcd"]
    functions = [f + rng.choice(string.digits) for f in "fgh"]

    def term(shape) -> Term:
        if shape == "v":
            return Term("var", rng.choice(variables))
        if shape == "c":
            return Term("const", rng.choice(constants))
        return Term("func", rng.choice(functions), tuple(term(s) for s in shape[1:]))

    taken: set[str] = set()
    gens = []
    for kind, *args in FO_SHAPES[:n]:
        if kind == "=":
            symbol = "="
        else:
            first = "PQRST" if kind == "P" else "pqrst"
            symbol = _fresh(rng, first, LOWER_ALNUM, 3, taken)
        gens.append(Gen(symbol, tuple(term(a) for a in args), rng.random() < 0.5))
    rng.shuffle(gens)
    return gens


def literal_text(rng: random.Random, gens: list[Gen]) -> str:
    """Seeded source text: '~' or '¬' for negation, mixed separators."""
    neg_mark = rng.choice("~¬")
    parts = [g.source(neg_mark) for g in gens]
    text = parts[0]
    for part in parts[1:]:
        text += rng.choice((", ", "; ", "\n")) + part
    return text


# ------------------------------------------------------------- the rectangle


class Layout:
    """The n x 2**n rectangle over generated literals, by the bit rule."""

    def __init__(self, gens: list[Gen]):
        self.gens = gens
        self.n = len(gens)
        self.width = 1 << self.n
        # text[i][b]: cell text of row i when the column's bit i is b.
        self.text = []
        for g in gens:
            atom = g.atom_text()
            plain, neg = atom, "¬" + atom
            self.text.append((neg, plain) if g.negated else (plain, neg))
        self.negmask = sum(1 << i for i, g in enumerate(gens) if g.negated)
        self.predicates = any(g.args is not None for g in gens)
        self.variables = any(g.has_variable() for g in gens)

    def neg_count(self, j: int) -> int:
        """Number of complemented cells in column j."""
        return bin(j ^ self.negmask).count("1")

    def _half(self, rows: range, token: Callable[[int, int], str], sep: str) -> list[str]:
        return [
            sep.join(token(i, (m >> k) & 1) for k, i in enumerate(rows))
            for m in range(1 << len(rows))
        ]

    def columns(self, token: Callable[[int, int], str], sep: str) -> Iterator[str]:
        """Column j's cells joined by sep, for j = 0 .. 2**n - 1.

        Built from the two halves of the rows, so each column costs one
        concatenation instead of n lookups.
        """
        h = self.n // 2
        hi = self._half(range(h, self.n), token, sep)
        if h == 0:
            yield from hi
            return
        lo = self._half(range(h), token, sep)
        for upper in hi:
            for lower in lo:
                yield lower + sep + upper

    def clause_texts(self) -> Iterator[str]:
        return self.columns(lambda i, b: self.text[i][b], " ∨ ")

    def column_cells(self, j: int) -> list[str]:
        return [self.text[i][(j >> i) & 1] for i in range(self.n)]

    def complement_cells(self, j: int) -> list[str]:
        return [self.text[i][1 - ((j >> i) & 1)] for i in range(self.n)]


# --------------------------------------------------------- reference outputs


def dimacs_lines(layout: Layout) -> Iterator[str]:
    if layout.predicates:
        for i, g in enumerate(layout.gens, start=1):
            yield f"c {i} {g.atom_text()}"
    yield f"p cnf {layout.n} {layout.width}"
    tokens = []
    for i, g in enumerate(layout.gens, start=1):
        plain, neg = str(i), f"-{i}"
        tokens.append((neg, plain) if g.negated else (plain, neg))
    for body in layout.columns(lambda i, b: tokens[i][b], " "):
        yield body + " 0"


def matrix_lines(layout: Layout) -> Iterator[str]:
    lengths = [(len(a), len(b)) for a, b in layout.text]
    h = layout.n // 2

    def half_widths(rows: range) -> list[int]:
        return [
            max((lengths[i][(m >> k) & 1] for k, i in enumerate(rows)), default=0)
            for m in range(1 << len(rows))
        ]

    lo, hi = half_widths(range(h)), half_widths(range(h, layout.n))
    widths = [max(lo[j & ((1 << h) - 1)], hi[j >> h]) for j in range(layout.width)]
    for i in range(layout.n):
        cells = layout.text[i]
        yield "  ".join(
            cells[(j >> i) & 1].ljust(w) for j, w in enumerate(widths)
        ).rstrip()


def conclusion_text(layout: Layout, hyp: list[int]) -> str:
    if len(hyp) == 1:
        return " ∧ ".join(layout.complement_cells(hyp[0]))
    inner = " ∧ ".join(f"({' ∨ '.join(layout.column_cells(j))})" for j in hyp)
    return f"¬({inner})"


def premise_texts(layout: Layout, hyp: list[int]) -> Iterator[str]:
    drop = set(hyp)
    return (text for j, text in enumerate(layout.clause_texts()) if j not in drop)


def theorem_lines(layout: Layout, hyp: list[int]) -> Iterator[str]:
    yield from premise_texts(layout, hyp)
    yield f"⊢ {conclusion_text(layout, hyp)}"


def record(layout: Layout, hyp: list[int]) -> dict:
    return {
        "version": 1,
        "generators": [g.to_json() for g in layout.gens],
        "removed_indices": list(hyp),
        "premises": list(premise_texts(layout, hyp)),
        "conclusion": conclusion_text(layout, hyp),
    }


def check_summary(n: int) -> str:
    return f"full: UNSAT; removals: {1 << n}/{1 << n} SAT"


# ------------------------------------------------------------ output checks


def compare_lines(path: Path, expected: Iterable[str]) -> str | None:
    """None when the file holds exactly the expected lines, each ending in a newline."""
    with open(path, encoding="utf-8", newline="") as f:
        for number, (got, want) in enumerate(zip_longest(f, expected), start=1):
            if want is None:
                return f"line {number}: unexpected extra output {got[:60]!r}"
            if got != want + "\n":
                shown = "end of output" if got is None else repr(got[:60])
                return f"line {number}: got {shown}, expected {want[:60]!r}"
    return None


def compare_record(path: Path, expected: dict) -> str | None:
    with open(path, encoding="utf-8") as f:
        try:
            got = json.load(f)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
    if not isinstance(got, dict) or got.keys() != expected.keys():
        return f"record keys differ: {sorted(got) if isinstance(got, dict) else type(got)}"
    for key in expected:
        if got[key] != expected[key]:
            return f"record field {key!r} differs from the reference"
    return None


def compare_tptp(path: Path, layout: Layout, hyp: list[int]) -> str | None:
    """Structure of the TPTP problem: one cnf axiom per premise column, named
    premise_NNNN in order, with the column's literal count and negations,
    then the closing fof conjecture."""
    drop = set(hyp)
    columns = [j for j in range(layout.width) if j not in drop]
    digits = max(4, len(str(len(columns))))
    with open(path, encoding="utf-8", newline="") as f:
        lines = iter(f)
        for k, j in enumerate(columns, start=1):
            line = next(lines, None)
            prefix = f"cnf(premise_{k:0{digits}d}, axiom, "
            if line is None or not line.startswith(prefix) or not line.endswith(").\n"):
                return f"axiom {k}: got {line and line[:60]!r}, expected {prefix!r}..."
            body = line[len(prefix):-3]
            if body.count("~") != layout.neg_count(j) or body.count(" | ") != layout.n - 1:
                return f"axiom {k}: literals do not match column {j}: {body[:60]!r}"
        line = next(lines, None)
        prefix = "fof(conclusion, conjecture, "
        if line is None or not line.startswith(prefix) or not line.endswith(").\n"):
            return f"conjecture: got {line and line[:60]!r}"
        body = line[len(prefix):-3]
        if len(hyp) == 1:
            negations = layout.n - layout.neg_count(hyp[0])
        else:
            negations = 1 + sum(layout.neg_count(j) for j in hyp)
        if body.count("~") != negations:
            return f"conjecture: {body.count('~')} negations, expected {negations}"
        if body.startswith("! [") != layout.variables:
            return "conjecture: universal closure does not match the variables"
        extra = next(lines, None)
        if extra is not None:
            return f"unexpected extra output {extra[:60]!r}"
    return None


# ------------------------------------------------------------------- jobs


@dataclass
class Job:
    """One rectatg command line, its expected exit code and output check."""

    name: str
    argv: list[str]
    check: Callable[[Path], str | None]
    code: int = 0
    size: str = ""
    # Run under tracemalloc in the traced run.  tracemalloc makes the
    # truth-table sweep about 27 times slower, so jobs that sweep more
    # than about 2**20 clause masks leave it out.
    alloc: bool = True


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    files: dict[str, str] = field(default_factory=dict)  # path -> text to write first


def _hypothesis(rng: random.Random, n: int, k: int) -> list[int]:
    return sorted(rng.sample(range(1 << n), k))


def _indices(cols: list[int], rng: random.Random) -> str:
    shuffled = list(cols)
    rng.shuffle(shuffled)
    return ",".join(map(str, shuffled))


def _no_output(path: Path) -> str | None:
    return None if path.stat().st_size == 0 else "refusal printed to stdout"


class _JobList:
    """Collects the jobs of one workload, writing -f inputs under work."""

    def __init__(self, name: str, seed: int, work: str):
        self.rng = random.Random(f"{name}:{seed}")
        self.work = work
        self.workload = Workload(name, [])

    def literals(self, gens: list[Gen], as_file: bool) -> list[str]:
        text = literal_text(self.rng, gens)
        if not as_file:
            return ["-l", text]
        path = f"{self.work}/lits{len(self.workload.files)}.txt"
        self.workload.files[path] = text + "\n"
        return ["-f", path]

    def add(self, name: str, argv: list[str], check, code: int = 0, size: str = "",
            alloc: bool = True) -> None:
        self.workload.jobs.append(Job(name, argv, check, code, size, alloc))

    def rectangle(self, gens: list[Gen], output: str, as_file: bool) -> None:
        layout = Layout(gens)
        lines = dimacs_lines if output == "dimacs" else matrix_lines
        self.add(
            f"rectangle-{output}-n{layout.n}",
            ["rectangle", *self.literals(gens, as_file), "-o", output],
            lambda p: compare_lines(p, lines(layout)),
            size=f"n={layout.n}, {layout.n * layout.width} cells",
        )

    def generate(self, gens: list[Gen], output: str, as_file: bool, columns: int = 0,
                 verify: bool = False) -> None:
        layout = Layout(gens)
        hyp = _hypothesis(self.rng, layout.n, columns) if columns else [0]
        argv = ["generate", *self.literals(gens, as_file), "-o", output]
        if columns:
            argv += ["-H", _indices(hyp, self.rng)]
        if verify:
            argv.append("--verify")
        if output == "json":
            check = lambda p: compare_record(p, record(layout, hyp))
        elif output == "tptp":
            check = lambda p: compare_tptp(p, layout, hyp)
        else:
            check = lambda p: compare_lines(p, theorem_lines(layout, hyp))
        label = f"-H{columns}" if columns else ""
        self.add(
            f"generate-{output}{label}{'-verify' if verify else ''}-n{layout.n}",
            argv,
            check,
            size=f"n={layout.n}, {layout.width - len(hyp)} premises",
            alloc=not verify,
        )


def emit_prop(seed: int, work: str) -> Workload:
    b = _JobList("emit-prop", seed, work)
    rng = b.rng
    b.rectangle(prop_set(rng, 18), "dimacs", as_file=False)
    b.generate(prop_set(rng, 17), "text", as_file=False)
    b.generate(prop_set(rng, 16), "tptp", as_file=True)
    b.generate(prop_set(rng, 16), "json", as_file=False)
    b.rectangle(prop_set(rng, 16), "matrix", as_file=False)
    b.generate(prop_set(rng, 16), "text", as_file=False, columns=8)
    return b.workload


def emit_fo(seed: int, work: str) -> Workload:
    b = _JobList("emit-fo", seed, work)
    rng = b.rng
    b.generate(fo_set(rng, 15), "tptp", as_file=True)
    b.generate(fo_set(rng, 14), "json", as_file=True)
    b.generate(fo_set(rng, 15), "text", as_file=True)
    b.rectangle(fo_set(rng, 14), "matrix", as_file=True)
    b.rectangle(fo_set(rng, 15), "dimacs", as_file=True)
    b.generate(fo_set(rng, 14), "tptp", as_file=True, columns=8)
    return b.workload


def decide(seed: int, work: str) -> Workload:
    b = _JobList("decide", seed, work)
    rng = b.rng
    for n in (8, 9):
        summary = check_summary(n)
        b.add(f"check-n{n}", ["check", *b.literals(prop_set(rng, n), as_file=False)],
              lambda p, s=summary: compare_lines(p, [s]), size=f"n={n}, {(1 << n) + 1} sweeps",
              alloc=False)
    b.generate(prop_set(rng, 13), "text", as_file=False, verify=True)
    b.generate(prop_set(rng, 14), "text", as_file=False, columns=4, verify=True)

    gens = fo_set(rng, 7)
    hyp = _hypothesis(rng, 7, 3)
    path = f"{work}/record.json"
    b.workload.files[path] = json.dumps(record(Layout(gens), hyp), ensure_ascii=False, indent=2) + "\n"
    b.add("check-record-n7", ["check", "--record", path],
          lambda p: compare_lines(p, [check_summary(7), "theorem: verified"]),
          size="n=7 first-order record, 3 hypothesis columns")

    # Refusals: the caps and the parser must turn these away with the
    # documented exit code, before anything large is built.
    b.add("refuse-atoms-n21", ["check", *b.literals(prop_set(rng, 21), as_file=False)],
          _no_output, code=3, size="n=21 > --max-atoms 20")
    b.add("refuse-max-n", ["rectangle", *b.literals(prop_set(rng, 12), as_file=False),
                           "--max-n", "11"], _no_output, code=3, size="n=12 > --max-n 11")
    broken = literal_text(rng, fo_set(rng, 6))
    cut = broken.rindex(")")
    b.add("refuse-malformed", ["generate", "-l", broken[:cut] + broken[cut + 1:]],
          _no_output, code=2, size="unbalanced parenthesis")
    return b.workload


WORKLOADS: dict[str, Callable[[int, str], Workload]] = {
    "emit-prop": emit_prop,
    "emit-fo": emit_fo,
    "decide": decide,
}

# The trivial job whose fresh-process wall time is setup_s.
SETUP_ARGV = ["generate", "-l", "p"]
SETUP_OUTPUT = "¬p\n⊢ ¬p\n"
