"""Command-line front end.

Subcommands: ``validate`` | ``product`` | ``eval`` | ``surface`` | ``verify``
| ``random``.  Documents are canonical UTF-8 JSON; grid evaluations stream
NDJSON with one record per line in a deterministic row-major order, so the
output bytes do not depend on the worker-thread count.

Exit codes: 0 success; 1 parse error, ``random`` or ``verify`` dimensions too
large to allocate, or an ``--out`` that cannot be written; 2 invariant
violation; 3 mismatched kind, dimension, or unknown suite; 4 every grid point
singular; 5 property failure in a verification suite, or a suite that cannot
run to a report under the given tolerances.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
from contextlib import contextmanager, nullcontext

from .errors import ColligationError, DocumentError
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .documents import KIND_TABLE, KINDS, SCHEMA_VERSION, Document, emit_document, load_document, random_document

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVARIANT = 2
EXIT_MISMATCH = 3
EXIT_ALL_SINGULAR = 4
EXIT_PROPERTY = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --- input and output ---------------------------------------------------------


def _load(path: str, tol: Tolerances) -> Document:
    try:
        return load_document(path, tol)
    except DocumentError as exc:
        code = EXIT_PARSE if exc.stage == "parse" else EXIT_INVARIANT
        raise CliError(code, f"{path}: {exc}") from None


@contextmanager
def _open_out(path: str | None):
    """The ``--out`` file, or stdout; an output that cannot be opened or
    written is a usage error.  It is flushed before it is left, so a write
    error at the flush is one too."""
    to_stdout = path in (None, "-")
    try:
        with nullcontext(sys.stdout) if to_stdout else open(path, "w", encoding="utf-8") as out:
            yield out
            out.flush()
    except OSError as exc:
        if to_stdout:
            # What stdout still holds would fail again at the interpreter's
            # final flush; send it to the null device instead.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        if isinstance(exc, BrokenPipeError):
            raise
        name = "stdout" if to_stdout else f"--out {path}"
        raise CliError(EXIT_PARSE, f"{name}: {exc.strerror or exc}") from None


def _emit_records(out, text, *parts) -> None:
    """Format one chunk of a sweep's records with ``text`` and write them.

    The sweep (:mod:`~colligations.sweeps`) calls this as
    ``cli._emit_records``: the benchmark's trace wraps it under that name."""
    out.write(text(*parts))


# --- subcommands --------------------------------------------------------------


def _cmd_validate(args, tol: Tolerances) -> int:
    _load(args.path, tol)
    return EXIT_OK


def _cmd_product(args, tol: Tolerances) -> int:
    first = _load(args.first, tol)
    second = _load(args.second, tol)
    if first.kind != second.kind:
        raise CliError(EXIT_MISMATCH, f"kind mismatch: {first.kind} vs {second.kind}")
    try:
        combined = KIND_TABLE[first.kind].product(first.payload, second.payload, tol)
    except ColligationError as exc:
        raise CliError(EXIT_MISMATCH, str(exc)) from None
    with _open_out(args.out) as out:
        out.write(emit_document(Document(first.kind, combined, {"schema_version": SCHEMA_VERSION})))
    return EXIT_OK


# eval and surface alone load their machinery (:mod:`~colligations.sweeps`),
# and verify alone its suites, when the command runs.
def _cmd_eval(args, tol: Tolerances) -> int:
    from . import sweeps

    return sweeps.cmd_eval(args, tol)


def _cmd_surface(args, tol: Tolerances) -> int:
    from . import sweeps

    return sweeps.cmd_surface(args, tol)


def _cmd_verify(args, tol: Tolerances) -> int:
    from .verify import Dims, _lookup, list_suites, run_suite

    if args.list:
        with _open_out(args.out) as out:
            out.write("".join(f"{suite.name}: {suite.describe}\n" for suite in list_suites()))
        return EXIT_OK
    if args.suite is None:
        raise CliError(EXIT_MISMATCH, "give a suite name (or --list to see them)")
    if _lookup(args.suite) is None:
        names = [suite.name for suite in list_suites()]
        raise CliError(EXIT_MISMATCH, f"unknown suite {args.suite!r} (known: {', '.join(names)})")
    dims = Dims(max_alpha=args.max_alpha, max_inner=args.max_inner, max_arity=args.max_arity)
    try:
        report = run_suite(args.suite, trials=args.trials, seed=args.seed, dims=dims, tol=tol)
    except (MemoryError, ValueError):  # numpy refuses a drawn size past int64 or memory before allocating
        raise CliError(EXIT_PARSE, "verify: the drawn dimensions do not fit in memory") from None
    except ColligationError as exc:
        # The tolerances leave the suite no usable draw or value to judge.
        raise CliError(EXIT_PROPERTY, f"suite {args.suite}: {type(exc).__name__}: {exc}") from None
    with _open_out(args.out) as out:
        out.write(json.dumps(report.to_object(), sort_keys=True, separators=(",", ":")) + "\n")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _cmd_random(args, tol: Tolerances) -> int:
    try:
        doc = random_document(args.kind, args.seed, alpha=args.alpha, inner=args.inner, arity=args.arity)
    except (MemoryError, ValueError):  # numpy refuses such sizes before allocating
        raise CliError(EXIT_PARSE, "random: the requested dimensions do not fit in memory") from None
    with _open_out(args.out) as out:
        out.write(emit_document(doc))
    return EXIT_OK


# --- argument parser ----------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    tol_flags = argparse.ArgumentParser(add_help=False)
    for name in ("unitarity", "residual", "rank", "surface-guard"):
        tol_flags.add_argument(
            f"--tol-{name}",
            type=float,
            default=None,
            metavar="X",
            help=f"override the {name.replace('-', ' ')} tolerance",
        )

    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument(
        "--threads",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker threads over chunks of grid points (default: machine cores);"
        " output bytes are identical regardless",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output file (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="colligations",
        description="Operator colligation documents: validate, combine, evaluate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[tol_flags], help="check a document file")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("product", parents=[tol_flags, output], help="combine two documents")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_product)

    for name, variables, help_text, handler in (
        ("eval", ("z", "S", "R"), "evaluate the transfer function", _cmd_eval),
        ("surface", ("S", "R"), "sample the eigensurface indicator", _cmd_surface),
    ):
        p = sub.add_parser(name, parents=[tol_flags, output, threaded], help=help_text)
        p.add_argument("path")
        p.add_argument("--point", default=None, help="single argument as JSON")
        p.add_argument("--grid", default=None, help="grid specification as JSON")
        p.add_argument("--variable", choices=variables, default=None, help="which argument varies")
        p.add_argument("--fixed", default=None, help="the held-fixed matrix for two-argument documents")
        p.set_defaults(handler=handler)

    p = sub.add_parser("verify", parents=[tol_flags, output], help="run a randomized property suite")
    p.add_argument("suite", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list the registered suites")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-alpha", type=_positive_int, default=3, help="largest exposed dimension drawn by any suite")
    p.add_argument(
        "--max-inner", type=_positive_int, default=4, help="largest inner dimension drawn, unless a law needs more"
    )
    p.add_argument(
        "--max-arity", type=_positive_int, default=3, help="largest family arity drawn, unless a law needs two"
    )
    p.add_argument(
        "--threads",
        type=_positive_int,
        help="ignored, as trials run in order; accepted so that existing command lines still run",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("random", parents=[tol_flags, output], help="emit a seeded random document")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--alpha", type=_positive_int, default=2)
    p.add_argument("--inner", type=_positive_int, default=2, help="inner dimension (slot dimension for tri)")
    p.add_argument("--arity", type=_positive_int, default=2, help="member count (slot count for tri)")
    p.set_defaults(handler=_cmd_random)

    return parser


def _resolve_tolerances(args) -> Tolerances:
    overrides = {
        "unitarity_tol": args.tol_unitarity,
        "residual_tol": args.tol_residual,
        "rank_tol": args.tol_rank,
        "surface_guard": args.tol_surface_guard,
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    try:
        return dataclasses.replace(DEFAULT_TOLERANCES, **overrides)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from None


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # --help leaves its text in stdout's buffer; flush it as every
            # command's output is flushed.  argparse reserves status 2 for
            # usage errors; this tool reports invariant violations there, so
            # usage problems map to the parse code.
            with _open_out(None):
                pass
            code = exc.code if isinstance(exc.code, int) else 0
            return EXIT_PARSE if code == 2 else code
        if argv is None:
            # A command-line process: leave the objects alive now, nearly all
            # of them import-time structures kept until exit, out of every
            # later collection, the full ones at interpreter shutdown
            # included.  An in-process caller passes argv and keeps its heap.
            gc.freeze()
            # numpy.random imports secrets, whose hmac and hashlib would load
            # OpenSSL's _hashlib (3.4 MiB resident, CPython 3.11 on Linux) for
            # hashes no command computes.  Without it they use the
            # interpreter's built-in hashes; seed entropy still comes from
            # os.urandom.  An _hashlib already loaded is kept, and an
            # in-process caller keeps its own.
            sys.modules.setdefault("_hashlib", None)
        tol = _resolve_tolerances(args)
        return args.handler(args, tol)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    # Run the package's module, which the sweep module imports back, rather
    # than this ``__main__`` copy of it, whose CliError is another class.
    from colligations.cli import main

    sys.exit(main())
