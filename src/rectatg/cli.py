"""Command line front end.

Exit codes: 0 success, 2 input error, 3 resource cap exceeded, 4 a
semantic check failed.  The RECT_ATG_MAX_N environment variable changes
the default materialization cap; an explicit --max-n beats it.

Options come from one table per command, not argparse (6 ms of each
start): ``-x V``, ``-xV``, ``--long V``, ``--long=V`` and unique
prefixes of ``--long``.  ``-h`` prints help; a usage error exits 2.
"""

from __future__ import annotations

import atexit
import codecs
import errno
import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NoReturn

from .errors import CapExceededError, RectAtgError, TooManyAtomsError
from .export import (
    AtomNumbering,
    _dimacs_lines,
    _matrix_lines,
    _read_record_file,
    _record_lines,
    _theorem_lines,
    _tptp_lines,
    export_dimacs,
    export_tptp,
    rebuild_record,
    render_matrix,
    render_theorem,
    save_record,
)
from .parser import VAR_STYLES, parse_generation_set
from .rectangle import construct_from_template
from .semantics import _CLOSED_FORM_MIN_WIDTH, check_minimality
from .template import DEFAULT_MAX_LEVEL
from .theoremgen import generate_theorem_with_partition, verify_theorem

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_CHECK = 4

# The oracles need 2^k bytes for k atoms and stream the rectangle's
# clause masks from its closed form; check also keeps an 8-byte witness
# index per removal.  At n=20 (CPython 3.11, 2 vCPUs, stdout to
# /dev/null) check takes 0.8 s and 24 MiB peak RSS, and generate
# --verify 0.45 s and 15 MiB; generate alone, which writes the same
# 185 MB of text, takes 0.19 s.  The benchmark's decide workload expects
# n=21 to be refused under this default, so raising it toward the
# library's 24 goes with a change to the benchmark.
DEFAULT_CLI_MAX_ATOMS = 20


def _indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"expected comma-separated column indices, got {text!r}") from None


# One row per option: short and long spelling, how the value is read (a
# function, a tuple of choices, or None for a flag), default and help.
# Every table starts with _HELP; exactly one of the _SOURCES is given.
_HELP = ("-h", "--help", None, None, "show this help message and exit")
_SOURCES = ("--literals", "--file", "--record")
_INPUT = (
    _HELP, ("-l", "--literals", str, None, "generation literals as inline text"),
    ("-f", "--file", str, None, "file containing the generation literals"),
    (None, "--var-style", VAR_STYLES, VAR_STYLES[0], "how bare identifiers inside terms are "
     "read: 'upper' treats a leading uppercase letter as a variable, 'lower' treats u..z as "
     "variables"),
    (None, "--max-n", int, None, "materialization cap on the number of generation literals "
     f"(default {DEFAULT_MAX_LEVEL}, or the RECT_ATG_MAX_N environment variable)"))
_MAX_ATOMS = (None, "--max-atoms", int, DEFAULT_CLI_MAX_ATOMS)
_OPTIONS = {
    "generate": ("derive a theorem from a generation set", (
        *_INPUT,
        ("-H", "--hypothesis", _indices, None, "comma-separated clause column indices to move "
         "to the hypothesis side (default: 0, the generation clause)"),
        ("-o", "--output", ("text", "tptp", "json"), "text",
         "output format (default text: premises, then the turnstile line)"),
        (None, "--verify", None, False,
         "decide the entailment with the falsified-cube cover oracle before printing"),
        (*_MAX_ATOMS, f"enumeration bound used by --verify (default {DEFAULT_CLI_MAX_ATOMS})"))),
    "rectangle": ("print the rectangle itself", (
        *_INPUT,
        ("-o", "--output", ("matrix", "dimacs"), "matrix", "output format (default matrix)"))),
    "check": ("run the contradiction and minimality checks", (
        *_INPUT,
        (None, "--record", str, None, "JSON theorem record to load"),
        (*_MAX_ATOMS, "atom bound for the satisfiability oracle, which allocates 2^k bytes "
         f"for k atoms (default {DEFAULT_CLI_MAX_ATOMS})"))),
}


class _Reader:
    """Reads a command line in argparse's order: an ambiguous prefix is
    refused first, anything not understood last, other errors in place."""

    def parse_args(self, argv: list[str] | None = None) -> SimpleNamespace:
        argv = sys.argv[1:] if argv is None else list(argv)
        at = next((i for i, arg in enumerate(argv) if not _match(None, (_HELP,), arg)), len(argv))
        unknown = _read(None, (_HELP,), argv[:at], {})
        if at == len(argv):
            _fail(None, "the following arguments are required: command")
        command = argv[at]
        if command not in _OPTIONS:
            _fail(None, f"invalid command: {command!r} (choose from {', '.join(_OPTIONS)})")
        rows, values = _OPTIONS[command][1], {}
        unknown += _read(command, rows, argv[at + 1 :], values)
        if not values.keys() & _SOURCES:
            names = " ".join(_name(row) for row in rows if row[1] in _SOURCES)
            _fail(command, f"one of the arguments {names} is required")
        if unknown:
            _fail(None, f"unrecognized arguments: {' '.join(unknown)}")
        return SimpleNamespace(command=command, **{
            row[1][2:].replace("-", "_"): values.get(row[1], row[3]) for row in rows[1:]})


def build_parser() -> _Reader:
    return _Reader()


def _read(command: str | None, rows: tuple, argv: list[str], values: dict) -> list[str]:
    """Store ``argv``'s values by long spelling; return what is not understood."""
    hits = [_match(command, rows, arg) for arg in argv]
    unknown, i = [], 0
    while i < len(argv):
        (row, value), i = hits[i] or (None, None), i + 1
        if row is None:
            unknown.append(argv[i - 1])
        elif row[2] is None:
            if value is not None:
                _fail(command, f"argument {_name(row)}: ignored explicit argument {value!r}")
            if row is _HELP:
                _write((("\n".join(_help(command)) + "\n").encode(),))
                raise SystemExit(EXIT_OK)
            values[row[1]] = True
        else:
            if value is None:
                if i == len(argv) or hits[i]:
                    _fail(command, f"argument {_name(row)}: expected one argument")
                value, i = argv[i], i + 1
            read, others = row[2], (values.keys() & _SOURCES) - {row[1]}
            if isinstance(read, tuple) and value not in read:
                _fail(command, f"argument {_name(row)}: invalid choice: {value!r} "
                               f"(choose from {', '.join(map(repr, read))})")
            try:
                values[row[1]] = value if isinstance(read, tuple) else read(value)
            except ValueError as exc:
                _fail(command, f"argument {_name(row)}: {exc}")
            if row[1] in _SOURCES and others:
                _fail(command, f"argument {_name(row)}: not allowed with argument {others.pop()}")
    return unknown


def _match(command: str | None, rows: tuple, arg: str):
    """None for what argparse reads as a value, else (row or None, attached value or None)."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=") if arg[1] == "-" else (arg[:2], arg[2:], arg[2:])
    found = [row for row in rows if name in row[:2]] or [
        row for row in rows if row[1].startswith(name) and len(name) > 2]
    if len(found) > 1:
        _fail(command, f"ambiguous option: {name} could match {', '.join(r[1] for r in found)}")
    if found or not (" " in arg or re.fullmatch(r"-\d+|-\d*\.\d+", arg)):
        return (found[0] if found else None), (value if eq else None)
    return None


def _name(row: tuple) -> str:
    return "/".join(filter(None, row[:2]))


def _metavar(row: tuple) -> str:
    shown = "{%s}" % ",".join(row[2]) if isinstance(row[2], tuple) else row[1][2:].upper()
    return "" if row[2] is None else " " + shown


def _help(command: str | None) -> list[str]:
    """The lines of the help text; the first is the usage line."""
    if command is None:
        return [f"usage: rectatg [-h] {{{','.join(_OPTIONS)}}} ...", "", "Construct rectangular "
                "standard contradictions and derive machine-checked theorems from them.", "",
                "commands:", *(f"  {name:<11}{about}" for name, (about, _) in _OPTIONS.items())]
    rows = _OPTIONS[command][1]
    sources = " | ".join((row[0] or row[1]) + _metavar(row) for row in rows if row[1] in _SOURCES)
    return [f"usage: rectatg {command} [-h] ({sources}) [options]", "", _OPTIONS[command][0], "",
            "options:", *(f"  {_name(row)}{_metavar(row)}\n      {row[4]}" for row in rows)]


def _fail(command: str | None, message: str) -> None:
    _write_error(f"{_help(command)[0]}\nerror: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _resolved_max_level(flag_value: int | None) -> int:
    value, source = flag_value, "--max-n"
    if value is None:
        source = "RECT_ATG_MAX_N"
        raw = os.environ.get(source)
        if raw is None:
            return DEFAULT_MAX_LEVEL
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{source} must be at least 1")
    return value


def _load_generation_set(args: SimpleNamespace):
    text = args.literals if args.literals is not None else _read_text(args.file)
    return parse_generation_set(text, args.var_style)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as source:
        return source.read()


def _check_atom_bound(n: int, max_atoms: int) -> None:
    # The rectangle has exactly one atom per generation literal, so the
    # enumeration bound can be enforced before anything is materialized.
    if n > max_atoms:
        raise TooManyAtomsError(n, max_atoms)


# The capacity of a Linux pipe, and the size a reader such as the
# benchmark or ``head`` asks for in one read.
_CHUNK = 1 << 16


def _write(pieces: Iterable[bytes]) -> None:
    """Write UTF-8 pieces to standard output as they come.

    A writer's piece is one block of about 2^(n/2) lines (for the
    matrix, one row's segment of 2^(n/2) cells), so an output of n·2^n
    cells holds one piece at a time.

    When ``sys.stdout`` encodes to UTF-8 and has a binary ``buffer``,
    the text layer is flushed and the bytes go straight to the buffer,
    so the output is never decoded or encoded again.  They go in writes
    of exactly 64 KiB, and one final shorter one: each piece is copied
    into one 64 KiB buffer, made once per call, which is written every
    time it fills, and what is left in it is written at the end.  So
    the buffer is 64 KiB at every n, whatever the size of a piece.  A
    pipe then always fills, and a reader's 64 KiB reads come back full;
    writes of any size leave it many reads that come back a little
    short, and on some readers each short read costs heap that is never
    given back.

    Any other stdout, one with another encoding or with only ``write``
    and ``flush``, gets each whole piece decoded and passed to
    ``write``: a piece is whole text, where a 64 KiB cut can fall inside
    a character.  So any object with those two methods can stand in for
    stdout, and an encoding that cannot hold the text fails as it
    would for the ``str``.

    A reader that stops early (``| head``) is not an error: rendering
    stops at the first failed write and the command still exits 0.  Any
    other failed write (a full disk, ``/dev/full``) stops it too and is
    raised, an input error; in both cases what is still buffered is
    dropped, so no later flush fails on it.
    """
    out = sys.stdout
    if out is None:
        # Started with descriptor 1 closed: an input error, as a full
        # disk is, not an AttributeError.
        raise OSError(errno.EBADF, "standard output is closed")
    try:
        binary = _utf8_buffer(out)
        if binary is None:
            for piece in pieces:
                out.write(piece.decode())
        else:
            out.flush()
            _write_chunks(binary, pieces)
        out.flush()
    except OSError as exc:
        _discard(out)
        if not isinstance(exc, BrokenPipeError):
            raise


def _write_chunks(binary, pieces: Iterable[bytes]) -> None:
    # Each piece is copied into one 64 KiB buffer; every time it is full
    # it goes out in one write, and what is left goes out at the end.
    with memoryview(bytearray(_CHUNK)) as chunk:
        used = 0
        for piece in pieces:
            rest = memoryview(piece)
            while rest:
                take = min(len(rest), _CHUNK - used)
                chunk[used : used + take], rest = rest[:take], rest[take:]
                used += take
                if used == _CHUNK:
                    binary.write(chunk)
                    used = 0
        if used:
            binary.write(chunk[:used])


def _utf8_buffer(out):
    """``out``'s binary buffer when it encodes to UTF-8, else None."""
    buffer, encoding = getattr(out, "buffer", None), getattr(out, "encoding", None)
    if buffer is None or not isinstance(encoding, str):
        return None
    try:
        utf8 = codecs.lookup(encoding).name == "utf-8"
    except LookupError:
        return None
    return buffer if utf8 else None


def _emit(clauses: int, whole: Callable[..., str], lines: Callable[..., Iterator[bytes]],
          *args) -> None:
    """Write one output of the given number of clauses.

    An output of fewer than ``_CLOSED_FORM_MIN_WIDTH`` clauses (see
    ``semantics``) is small, so its ``str`` writer renders it whole, the
    route the library's callers and the benchmark's per-layer spans see,
    and it is encoded once; a larger one is streamed from the writer's
    line generator.  Both join the same pieces.
    """
    _write((whole(*args).encode(),) if clauses < _CLOSED_FORM_MIN_WIDTH else lines(*args))


def _discard(out) -> None:
    # The reader has gone, or the file is full.  Point the descriptor at
    # /dev/null, so the final flush (``run``'s, or the interpreter's) has
    # somewhere to write what is still buffered instead of printing
    # "Exception ignored" and exiting 120.
    try:
        fd = out.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _write_error(text: str) -> None:
    """Write ``text`` to standard error and flush it: the one route of
    every usage, input, cap and verification error line.

    A stderr that is None (started with descriptor 2 closed), closed or
    full loses the line; the exit code still says what went wrong.
    """
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # None, full or closed
        pass


def cmd_generate(args: SimpleNamespace) -> int:
    generators = _load_generation_set(args)
    if args.verify:
        _check_atom_bound(generators.n, args.max_atoms)
    indices = args.hypothesis if args.hypothesis is not None else (0,)
    theorem = generate_theorem_with_partition(generators, indices, args.max_n)
    if args.verify and not verify_theorem(theorem, args.max_atoms):
        _write_error("error: generated theorem failed verification\n")
        return EXIT_CHECK
    count = len(theorem.premises)
    if args.output == "tptp":
        _emit(count, export_tptp, _tptp_lines, theorem)
    elif args.output == "json":
        _emit(count, save_record, _record_lines, theorem)
    else:
        _emit(count, render_theorem, _theorem_lines, theorem)
    return EXIT_OK


def cmd_rectangle(args: SimpleNamespace) -> int:
    generators = _load_generation_set(args)
    rect = construct_from_template(generators, args.max_n)
    if args.output == "dimacs":
        numbering = AtomNumbering.from_rectangle(rect)
        _emit(rect.width, export_dimacs, _dimacs_lines, rect.clause_set(), numbering)
    else:
        _emit(rect.width, lambda r: render_matrix(r) + "\n", _matrix_lines, rect)
    return EXIT_OK


def cmd_check(args: SimpleNamespace) -> int:
    if args.record is not None:
        # The file stays open: the rebuild reads the stored premises back.
        with open(args.record, "rb", buffering=0) as source:
            record = _read_record_file(source)
            _check_atom_bound(len(record["generators"]), args.max_atoms)
            theorem = rebuild_record(record, args.max_n)
        generators = theorem.provenance.generators
    else:
        theorem = None
        generators = _load_generation_set(args)
        _check_atom_bound(generators.n, args.max_atoms)
    rect = construct_from_template(generators, args.max_n)
    report = check_minimality(rect, args.max_atoms)
    _write((f"{report.summary()}\n".encode(),))
    ok = report.ok
    if theorem is not None:
        verified = verify_theorem(theorem, args.max_atoms)
        _write((f"theorem: {'verified' if verified else 'not verified'}\n".encode(),))
        ok = ok and verified
    return EXIT_OK if ok else EXIT_CHECK


_COMMANDS = {
    "generate": cmd_generate,
    "rectangle": cmd_rectangle,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # From here on, args.max_n holds the effective cap.
        args.max_n = _resolved_max_level(args.max_n)
        if getattr(args, "max_atoms", 1) < 1:
            raise ValueError("--max-atoms must be at least 1")
        return _COMMANDS[args.command](args)
    except (RectAtgError, ValueError, OSError) as exc:
        _write_error(f"error: {exc}\n")
        return EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_INPUT


def run() -> NoReturn:
    """Run ``main`` and end the process: the one exit route of
    ``python -m rectatg`` and the ``rectatg`` script.

    Once the last byte is written, what the interpreter's exit does that
    a caller can see is run the ``atexit`` handlers and flush stdout and
    stderr; its finalization (emptying every module and a full garbage
    collection, about 9 ms a process) shows nothing.  So those two steps
    are done here and ``os._exit`` ends the process.  A stdout flush that
    fails, or an exit code that is not an integer, takes ``sys.exit``
    instead, and the interpreter reports it as it always has; a stderr
    that cannot be flushed has lost its lines already, so the code stands.
    An exception that escapes ``main`` propagates as it would without
    this function.
    """
    try:
        code = main()
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
    if isinstance(code, int):
        atexit._run_exitfuncs()
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except (OSError, ValueError):  # ValueError: a stream closed in process
            pass
        else:
            _write_error("")  # the flush of stderr, if it can take one
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
