"""Command line front end.

Exit codes: 0 success, 2 input error, 3 resource cap exceeded, 4 a
semantic check failed.  The RECT_ATG_MAX_N environment variable changes
the default materialization cap; an explicit --max-n beats it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import CapExceededError, RectAtgError, TooManyAtomsError
from .export import (
    AtomNumbering,
    _dimacs_lines,
    _matrix_lines,
    _record_lines,
    _theorem_lines,
    _tptp_lines,
    export_dimacs,
    export_tptp,
    read_record,
    rebuild_record,
    render_matrix,
    render_theorem,
    save_record,
)
from .parser import parse_generation_set
from .rectangle import construct_from_template
from .semantics import check_minimality
from .template import DEFAULT_MAX_LEVEL
from .theoremgen import generate_theorem_with_partition, verify_theorem

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_CHECK = 4

# The oracles need 2^k bytes for k atoms and stream the rectangle's
# clause masks from its closed form; check also keeps an 8-byte witness
# index per removal.  At n=20 (CPython 3.11, 2 vCPUs) check takes 1.4 s
# and 24 MiB peak RSS, and generate --verify 1.8 s and 16 MiB, most of
# it writing 185 MB of text.  The benchmark's decide workload expects
# n=21 to be refused under this default, so raising it toward the
# library's 24 goes with a change to the benchmark.
DEFAULT_CLI_MAX_ATOMS = 20

# Outputs of fewer clauses than this are rendered whole by the str
# writers (see _emit); larger ones are streamed.
WRITE_BATCH = 1024


def _indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated column indices, got {text!r}"
        ) from None


def _add_input_options(sub: argparse.ArgumentParser, with_record: bool = False) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-l", "--literals", help="generation literals as inline text")
    group.add_argument("-f", "--file", help="file containing the generation literals")
    if with_record:
        group.add_argument("--record", help="JSON theorem record to load")
    sub.add_argument(
        "--var-style",
        choices=("upper", "lower"),
        default="upper",
        help="how bare identifiers inside terms are read: 'upper' treats a "
        "leading uppercase letter as a variable, 'lower' treats u..z as variables",
    )
    sub.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="materialization cap on the number of generation literals "
        f"(default {DEFAULT_MAX_LEVEL}, or the RECT_ATG_MAX_N environment variable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectatg",
        description="Construct rectangular standard contradictions and "
        "derive machine-checked theorems from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="derive a theorem from a generation set")
    _add_input_options(gen)
    gen.add_argument(
        "-H",
        "--hypothesis",
        type=_indices,
        default=None,
        help="comma-separated clause column indices to move to the hypothesis "
        "side (default: 0, the generation clause)",
    )
    gen.add_argument(
        "-o",
        "--output",
        choices=("text", "tptp", "json"),
        default="text",
        help="output format (default text: premises, then the turnstile line)",
    )
    gen.add_argument(
        "--verify",
        action="store_true",
        help="decide the entailment with the falsified-cube cover oracle "
        "before printing",
    )
    gen.add_argument(
        "--max-atoms",
        type=int,
        default=DEFAULT_CLI_MAX_ATOMS,
        help=f"enumeration bound used by --verify (default {DEFAULT_CLI_MAX_ATOMS})",
    )

    rect = sub.add_parser("rectangle", help="print the rectangle itself")
    _add_input_options(rect)
    rect.add_argument(
        "-o",
        "--output",
        choices=("matrix", "dimacs"),
        default="matrix",
        help="output format (default matrix)",
    )

    chk = sub.add_parser(
        "check", help="run the contradiction and minimality checks"
    )
    _add_input_options(chk, with_record=True)
    chk.add_argument(
        "--max-atoms",
        type=int,
        default=DEFAULT_CLI_MAX_ATOMS,
        help="atom bound for the satisfiability oracle, which allocates 2^k "
        f"bytes for k atoms (default {DEFAULT_CLI_MAX_ATOMS})",
    )

    return parser


def _resolved_max_level(flag_value: int | None) -> int:
    value = flag_value
    if value is None:
        raw = os.environ.get("RECT_ATG_MAX_N")
        if raw is None:
            return DEFAULT_MAX_LEVEL
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"RECT_ATG_MAX_N must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError("--max-n must be at least 1")
    return value


def _load_generation_set(args: argparse.Namespace):
    if args.literals is not None:
        text = args.literals
    else:
        text = Path(args.file).read_text(encoding="utf-8")
    return parse_generation_set(text, args.var_style)


def _check_atom_bound(n: int, max_atoms: int) -> None:
    # The rectangle has exactly one atom per generation literal, so the
    # enumeration bound can be enforced before anything is materialized.
    if n > max_atoms:
        raise TooManyAtomsError(n, max_atoms)


def _write(pieces: Iterable[str]) -> None:
    """Write each piece to standard output as it comes.

    A writer's piece is one block of about 2^(n/2) lines (for the
    matrix, one row's segment of 2^(n/2) cells), so an output of n·2^n
    cells takes O(n·2^(n/2)) writes at most and holds one piece.
    ``sys.stdout`` is looked up here and used only through ``write`` and
    ``flush``, so any object with those two methods can stand in for it.
    A reader that stops early (``| head``) is not an error: rendering
    stops at the first failed write and the command still exits 0.
    """
    out = sys.stdout
    try:
        for piece in pieces:
            out.write(piece)
        out.flush()
    except BrokenPipeError:
        _discard(out)


def _emit(clauses: int, whole: Callable[..., str], lines: Callable[..., Iterator[str]],
          *args) -> None:
    """Write one output of the given number of clauses.

    An output of fewer than WRITE_BATCH clauses is small, so its ``str``
    writer renders it whole, the route the library's callers and the
    benchmark's per-layer spans see; a larger one is streamed from the
    writer's line generator.  Both join the same pieces.
    """
    _write((whole(*args),) if clauses < WRITE_BATCH else lines(*args))


def _discard(out) -> None:
    # The reader has gone.  Point the descriptor at /dev/null, so the
    # flush at interpreter exit has somewhere to write what is still
    # buffered instead of printing "Exception ignored".
    try:
        fd = out.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def cmd_generate(args: argparse.Namespace) -> int:
    generators = _load_generation_set(args)
    if args.verify:
        _check_atom_bound(generators.n, args.max_atoms)
    indices = args.hypothesis if args.hypothesis is not None else (0,)
    theorem = generate_theorem_with_partition(generators, indices, args.max_n)
    if args.verify and not verify_theorem(theorem, args.max_atoms):
        print("error: generated theorem failed verification", file=sys.stderr)
        return EXIT_CHECK
    count = len(theorem.premises)
    if args.output == "tptp":
        _emit(count, export_tptp, _tptp_lines, theorem)
    elif args.output == "json":
        _emit(count, save_record, _record_lines, theorem)
    else:
        _emit(count, render_theorem, _theorem_lines, theorem)
    return EXIT_OK


def cmd_rectangle(args: argparse.Namespace) -> int:
    generators = _load_generation_set(args)
    rect = construct_from_template(generators, args.max_n)
    if args.output == "dimacs":
        numbering = AtomNumbering.from_rectangle(rect)
        _emit(rect.width, export_dimacs, _dimacs_lines, rect.clause_set(), numbering)
    else:
        _emit(rect.width, lambda r: render_matrix(r) + "\n", _matrix_lines, rect)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.record is not None:
        record = read_record(Path(args.record).read_text(encoding="utf-8"))
        _check_atom_bound(len(record["generators"]), args.max_atoms)
        theorem = rebuild_record(record, args.max_n)
        generators = theorem.provenance.generators
    else:
        theorem = None
        generators = _load_generation_set(args)
        _check_atom_bound(generators.n, args.max_atoms)
    rect = construct_from_template(generators, args.max_n)
    report = check_minimality(rect, args.max_atoms)
    _write((report.summary(), "\n"))
    ok = report.ok
    if theorem is not None:
        verified = verify_theorem(theorem, args.max_atoms)
        _write((f"theorem: {'verified' if verified else 'not verified'}\n",))
        ok = ok and verified
    return EXIT_OK if ok else EXIT_CHECK


_COMMANDS = {
    "generate": cmd_generate,
    "rectangle": cmd_rectangle,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # From here on, args.max_n holds the effective cap.
        args.max_n = _resolved_max_level(args.max_n)
        if getattr(args, "max_atoms", 1) < 1:
            raise ValueError("--max-atoms must be at least 1")
        return _COMMANDS[args.command](args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (RectAtgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
