"""In-process spans around rectatg's public functions, installed from outside.

The tracer never edits the package's files.  Inside ``installed``, every
public function of every rectatg module is replaced, in every module
namespace that looks it up (``cli.check_minimality`` as well as
``semantics.check_minimality``), by a wrapper that records a span; so is
the ``Rectangle.clauses`` property.  The originals come back when the
block ends.  Spans live in memory until the run ends.

Two recorders share the wrappers: ``Tracer`` records wall-clock spans
and the work counters, ``AllocTracer`` records the tracemalloc peak of
each span, so that tracemalloc's slowdown never lands in a span time.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

import rectatg
from rectatg import cli, export, logic, parser, rectangle, semantics, template, theoremgen
from rectatg.logic import collect_atoms

MODULES = (cli, export, logic, parser, rectangle, semantics, template, theoremgen)
WRITERS = ("export.export_dimacs", "export.render_matrix", "export.render_theorem",
           "export.export_tptp", "export.save_record")
MIB = 1 << 20


def public_functions() -> dict[object, str]:
    """Every public function defined in a rectatg module, with its span name."""
    found = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found[obj] = f"{module.__name__.rpartition('.')[2]}.{name}"
    return found


@contextmanager
def installed(recorder):
    """Wrap every public rectatg function for the duration of the block."""
    targets = public_functions()
    saved: list[tuple[object, object, object]] = []

    def patch(owner, key, obj, setter):
        name = targets.get(obj) if inspect.isfunction(obj) else None
        if name is not None:
            saved.append((owner, key, obj))
            setter(owner, key, recorder.wrap(name, obj))

    try:
        for module in (rectatg, *MODULES):
            for attr, obj in list(vars(module).items()):
                patch(module, attr, obj, setattr)
                # Dispatch tables such as cli._COMMANDS look functions up too.
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        patch(obj, key, value, dict.__setitem__)
        prop = rectangle.Rectangle.__dict__["clauses"]
        saved.append((rectangle.Rectangle, "clauses", prop))
        rectangle.Rectangle.clauses = property(
            recorder.wrap("rectangle.Rectangle.clauses", prop.fget))
        yield recorder
    finally:
        for owner, key, obj in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = obj
            else:
                setattr(owner, key, obj)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    self_s: float


class Tracer:
    """Wall-clock spans plus the work each span did.

    Inside a span, results are only counted in O(1) or referenced; the
    counters that need real work (encoding, atom order) are derived in
    ``end_job``, outside every span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[list] = []  # [span id, time covered by children]
        self.next_id = 0
        self.job = 0
        self.sat_results: list = []
        self.written: list = []
        self.counters = {"rectangle.cells": 0, "rectangle.clauses_built": 0,
                         "export.bytes_out": 0, "semantics.sat_calls": 0,
                         "semantics.assignments_swept": 0}

    def wrap(self, name: str, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, args, kwargs):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [span_id, 0.0]
        self.stack.append(frame)
        if name == "rectangle.Rectangle.clauses" and args[0]._clauses is None:
            self.counters["rectangle.clauses_built"] += len(args[0].rows[0])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            if self.stack:
                self.stack[-1][1] += duration
            self.spans.append(Span(span_id, name, start, end, parent, self.job,
                                   duration - frame[1]))
        if name == "semantics.is_satisfiable":
            self.sat_results.append((args[0], result))
        elif name == "rectangle.construct_from_template":
            self.counters["rectangle.cells"] += len(result.rows) * len(result.rows[0])
        elif name in WRITERS:
            self.written.append(result)
        return result

    def end_job(self) -> None:
        c = self.counters
        for text in self.written:
            c["export.bytes_out"] += len(text.encode("utf-8"))
        for clause_set, result in self.sat_results:
            c["semantics.sat_calls"] += 1
            c["semantics.assignments_swept"] += assignments_swept(clause_set, result)
        self.written.clear()
        self.sat_results.clear()
        self.job += 1

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def total_time(self, names) -> float:
        """Wall time inside the outermost spans named in names."""
        names = set(names)
        by_id = {s.id: s for s in self.spans}

        def outermost(span: Span) -> bool:
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name in names:
                    return False
                parent = by_id.get(parent.parent)
            return True

        return sum(s.end - s.start for s in self.spans if s.name in names and outermost(s))


def assignments_swept(clause_set, result) -> int:
    """Assignments the truth-table sweep tried before it stopped.

    UNSAT sweeps all 2**k assignments.  SAT stops at the witness, whose
    index sets bit i for atom i true, atoms in collect_atoms order.
    """
    atoms = collect_atoms(clause_set)
    if not result.satisfiable:
        return 1 << len(atoms)
    return 1 + sum(1 << i for i, atom in enumerate(atoms) if result.witness[atom])


class AllocTracer:
    """Peak traced memory of each layer, above the memory traced at span start.

    tracemalloc keeps one peak, so each span resets it on entry and folds
    its own peak back into its caller's on exit.
    """

    def __init__(self):
        self.stack: list[list] = []  # [layer, memory at entry, highest peak seen]
        self.peaks: dict[str, int] = {}

    def wrap(self, name: str, fn):
        layer_name = name.partition(".")[0]
        call = self.call

        def wrapper(*args, **kwargs):
            return call(layer_name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, layer_name, fn, args, kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if self.stack:
            self.stack[-1][2] = max(self.stack[-1][2], peak)
        frame = [layer_name, current, current]
        self.stack.append(frame)
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            high = max(frame[2], tracemalloc.get_traced_memory()[1])
            above = high - frame[1]
            if above > self.peaks.get(layer_name, 0):
                self.peaks[layer_name] = above
            if self.stack:
                self.stack[-1][2] = max(self.stack[-1][2], high)


class Sink:
    """Stands in for sys.stdout: counts and hashes what the CLI writes."""

    encoding = "utf-8"

    def __init__(self):
        self.hash = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.hash.update(data)
        self.size += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def run_main(argv: list[str], recorder=None) -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` in this process.

    Returns the exit code, the sha256 of stdout, and stderr.  With a
    Tracer, the stdout write is its own span, ``cli.write``.
    """
    out, err = Sink(), io.StringIO()
    if isinstance(recorder, Tracer):
        out.write = recorder.wrap("cli.write", out.write)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.hash.hexdigest(), err.getvalue()
