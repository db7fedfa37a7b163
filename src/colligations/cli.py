"""Command-line front end.

Subcommands: ``validate`` | ``product`` | ``eval`` | ``surface`` | ``verify``
| ``random``.  Documents are canonical UTF-8 JSON; grid evaluations stream
NDJSON with one record per line in a deterministic row-major order, so the
output bytes do not depend on the worker-thread count.

Exit codes: 0 success; 1 parse error or an ``--out`` that cannot be written;
2 invariant violation; 3 mismatched kind, dimension, or unknown suite; 4 every
grid point singular; 5 property failure in a verification suite, or a suite
that cannot run to a report under the given tolerances.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ColligationError, DocumentError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    sample_balls,
    sample_disc,
    tolerances_from_profile,
)
from .documents import (
    KIND_TABLE,
    KINDS,
    Document,
    _new_document,
    emit_document,
    load_document,
    matrix_from_json,
    matrix_to_json,
    random_document,
)
from .realization import evaluate, surface_indicators

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVARIANT = 2
EXIT_MISMATCH = 3
EXIT_ALL_SINGULAR = 4
EXIT_PROPERTY = 5

# Matrix entries of eliminated systems per kernel call: a chunk of grid
# points holds about this many, whatever the system size, which bounds the
# memory of one call.  Values do not depend on it.  A chunk is the unit of
# work handed to a --threads worker.
_CHUNK_ENTRIES = 2**16


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --- input parsing ------------------------------------------------------------


def _load(path: str, tol: Tolerances) -> Document:
    try:
        return load_document(path, tol)
    except DocumentError as exc:
        code = EXIT_PARSE if exc.stage == "parse" else EXIT_INVARIANT
        raise CliError(code, f"{path}: {exc}") from None


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE, f"{what}: invalid JSON ({exc})") from None


def _parse_scalar(obj, what: str) -> complex:
    """A complex scalar given as a number or a ``[re, im]`` pair."""
    parts = obj if isinstance(obj, list) and len(obj) == 2 else [obj, 0.0]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise CliError(EXIT_PARSE, f"{what}: expected a number or an [re, im] pair")
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except OverflowError:
        raise CliError(EXIT_PARSE, f"{what}: entry too large for a float") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise CliError(EXIT_PARSE, f"{what}: entries must be finite")
    return value


def _parse_matrix(obj, what: str) -> np.ndarray:
    try:
        return matrix_from_json(obj, what)
    except DocumentError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from None


# --- evaluation plumbing ------------------------------------------------------


def _variable_for(doc: Document, requested: str | None) -> str:
    allowed = KIND_TABLE[doc.kind].variables
    if requested is None:
        return allowed[0]
    if requested not in allowed:
        raise CliError(
            EXIT_MISMATCH,
            f"variable {requested!r} does not apply to a {doc.kind} document "
            f"(expected {' or '.join(allowed)})",
        )
    return requested


def _argument_dim(doc: Document) -> int | None:
    """Size of a matrix argument, None for a scalar one."""
    dim = KIND_TABLE[doc.kind].argument_dim
    return None if dim is None else dim(doc.payload)


def _arguments(doc: Document, *given) -> list:
    """Each ``(obj, what)`` as an argument of the document: a scalar, or a
    matrix of the document's argument size.  Every one is parsed before any
    size is checked."""
    n = _argument_dim(doc)
    if n is None:
        return [_parse_scalar(obj, what) for obj, what in given]
    matrices = [_parse_matrix(obj, what) for obj, what in given]
    for matrix, (_, what) in zip(matrices, given):
        if matrix.shape != (n, n):
            raise CliError(EXIT_MISMATCH, f"{what}: expected a {n}x{n} matrix, got {matrix.shape}")
    return matrices


def _stacker(doc: Document, variable: str, fixed_text: str | None):
    """``arguments -> kernel arguments``: the stacked varied arguments, and for
    a two-argument kind the ``--fixed`` matrix held in the other slot."""
    if len(KIND_TABLE[doc.kind].variables) == 1:
        if fixed_text is not None:
            raise CliError(EXIT_MISMATCH, f"--fixed does not apply: a {doc.kind} document takes one argument")
        return lambda varied: (varied,)
    if fixed_text is None:
        other = "R" if variable == "S" else "S"
        raise CliError(
            EXIT_MISMATCH,
            f"a {doc.kind} document takes two arguments; give --fixed with the {other} matrix",
        )
    (fixed,) = _arguments(doc, (_parse_json(fixed_text, "--fixed"), "--fixed"))

    def arguments(varied):
        held = np.broadcast_to(fixed, varied.shape)
        return (varied, held) if variable == "S" else (held, varied)

    return arguments


def _realize(doc: Document, tol: Tolerances):
    try:
        return KIND_TABLE[doc.kind].realize(doc.payload, tol)
    except ColligationError as exc:
        raise CliError(EXIT_MISMATCH, str(exc)) from None


def _scalar_json(z: complex) -> list:
    return [float(z.real), float(z.imag)]


@dataclass(frozen=True)
class _Points:
    """The points of one sweep, made a chunk at a time.

    ``label`` is the %-template of one point's label in a record.
    ``chunks(size)`` yields ``(labels, arguments)`` for up to ``size`` points
    in output order: one tuple of label values per point, and the arguments
    stacked along a leading axis.
    """

    label: str
    chunks: Callable


def _one_point(label, argument) -> _Points:
    text = json.dumps(label, separators=(",", ":"), allow_nan=False)
    return _Points("%s", lambda size: iter([([(text,)], np.array([argument], dtype=complex))]))


def _disc_lattice(resolution: int, radius: float, size: int):
    """The points of a disc grid in output order, as complex arrays taken
    from ``size`` lattice points at a time (empty ones are skipped).

    The lattice is row-major, the imaginary part per row and the real part
    per column, with coordinates ``-radius + 2.0 * radius * i / (res - 1)``
    (0.0 for one row).  A point is kept when ``abs(z) <= radius * (1 +
    1e-12)``; the modulus is ``np.hypot``, and any point within a few ulps
    of that bound is tested again with Python's ``abs``.
    """
    if resolution > 1:
        axis = -radius + 2.0 * radius * np.arange(resolution, dtype=float) / (resolution - 1)
    else:
        axis = np.zeros(1)
    bound = radius * (1.0 + 1e-12)
    for start in range(0, resolution * resolution, size):
        rows, cols = np.divmod(np.arange(start, min(start + size, resolution * resolution)), resolution)
        z = np.empty(len(rows), dtype=complex)
        z.real, z.imag = axis[cols], axis[rows]
        modulus = np.hypot(z.real, z.imag)
        inside = modulus <= bound
        for k in np.flatnonzero(np.abs(modulus - bound) <= 1e-15 * bound):
            inside[k] = abs(complex(z[k])) <= bound
        if inside.any():
            yield z[inside]


_GRID_KEYS = {
    "disc": {"type", "resolution", "radius"},
    "segment": {"type", "base", "direction", "t_min", "t_max", "resolution"},
    "ball": {"type", "count", "seed", "radius"},
}


def _grid_points(obj, doc: Document) -> _Points:
    """The points of a ``--grid``: a disc lattice, a line segment, or a random
    ball.  Any error in the grid is raised here, before a chunk is made."""
    if not isinstance(obj, dict):
        raise CliError(EXIT_PARSE, "grid: expected a JSON object")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _GRID_KEYS:
        raise CliError(EXIT_PARSE, "grid: type must be one of disc, segment, ball")
    extra = set(obj) - _GRID_KEYS[kind]
    if extra:
        raise CliError(EXIT_PARSE, f"grid: unknown keys {sorted(extra)} for type {kind!r}")

    def natural(key):
        value = obj.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise CliError(EXIT_PARSE, f"grid: {key} must be a positive integer")
        return value

    def positive(key):
        value = obj.get(key, 1.0)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CliError(EXIT_PARSE, f"grid: {key} must be a number")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not (math.isfinite(value) and value > 0.0):
            raise CliError(EXIT_PARSE, f"grid: {key} must be positive and finite")
        return value

    if kind == "disc":
        resolution, radius = natural("resolution"), positive("radius")
        if _argument_dim(doc) is not None:
            raise CliError(EXIT_MISMATCH, "disc grids apply to one-variable documents only")

        def disc(size):
            for z in _disc_lattice(resolution, radius, size):
                yield np.stack([z.real, z.imag], axis=1).tolist(), z

        return _Points("[%r,%r]", disc)
    if kind == "segment":
        for key in ("base", "direction", "t_min", "t_max"):
            if key not in obj:
                raise CliError(EXIT_PARSE, f"grid: segment needs {key}")
        steps = natural("resolution")
        t_min, t_max = (_parse_scalar(obj[key], f"grid {key}") for key in ("t_min", "t_max"))
        base, direction = _arguments(doc, (obj["base"], "grid base"), (obj["direction"], "grid direction"))

        def ts(start, stop):
            for k in range(start, stop):
                yield t_min + (t_max - t_min) * (k / (steps - 1) if steps > 1 else 0.0)

        if not all(cmath.isfinite(t) for t in ts(0, steps)):
            raise CliError(EXIT_PARSE, "grid: the segment parameter overflows a float")

        def segment(size):
            for start in range(0, steps, size):
                part = list(ts(start, min(start + size, steps)))
                arguments = np.array([base + t * direction for t in part], dtype=complex)
                yield [_scalar_json(t) for t in part], arguments

        return _Points("[%r,%r]", segment)
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise CliError(EXIT_PARSE, "grid: seed must be a non-negative integer")
    count, radius, n = natural("count"), positive("radius"), _argument_dim(doc)

    def ball(size):
        rng = np.random.default_rng(seed)
        for start in range(0, count, size):
            part = min(size, count - start)
            if n is None:
                arguments = np.array([sample_disc(rng, radius) for _ in range(part)], dtype=complex)
            else:
                arguments = sample_balls(rng, part, n, radius)
            yield [(index,) for index in range(start, start + part)], arguments

    return _Points("%d", ball)


# --- records ------------------------------------------------------------------
#
# Records are written straight from the kernel's arrays with one %-template
# per record shape, keys in sorted order; the bytes are those of
# ``json.dumps(record, sort_keys=True, separators=(",", ":"))``.  Floats go
# through ``float.__repr__``, as in ``json``; a field that may be null uses
# ``%s``, which writes a float as ``%r`` does.


def _nullable(x: np.ndarray) -> list:
    """``x.tolist()`` with ``"null"`` in place of every non-finite entry."""
    out = x.tolist()
    for i in np.flatnonzero(~np.isfinite(x)):
        out[i] = "null"
    return out


def _abs_json(det: complex):
    try:
        size = abs(det)
    except OverflowError:
        return "null"
    return size if math.isfinite(size) else "null"


def _eval_text(label: str, labels, values, sigma, regular) -> str:
    count, rows, cols = values.shape
    row = "[" + ",".join(["[%r,%r]"] * cols) + "]"
    value = "[" + ",".join([row] * rows) + "]"
    ok = '{"point":' + label + ',"regular":true,"sigma_min":%s,"value":' + value + "}\n"
    not_ok = '{"point":' + label + ',"regular":false,"sigma_min":%s,"value":null}\n'
    flat = values.view(float).reshape(count, -1).tolist()
    return "".join(
        ok % (*point, s, *v) if r else not_ok % (*point, s)
        for point, v, s, r in zip(labels, flat, _nullable(sigma), regular.tolist())
    )


def _surface_text(label: str, labels, dets, sigma) -> str:
    record = '{"abs_det":%s,"point":' + label + ',"sigma_min":%s}\n'
    return "".join(
        record % (_abs_json(d), *point, s) for point, d, s in zip(labels, dets.tolist(), _nullable(sigma))
    )


def _emit_records(out, text, *parts) -> None:
    """Format one chunk's records with ``text`` and write them."""
    out.write(text(*parts))


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


def _map_ordered(fn, items, threads: int):
    """``map(fn, items)`` with up to ``threads`` calls at once; results come
    in order, and at most ``threads`` of them are held."""
    if threads == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _sweep(args, points: _Points, real, kernel, text):
    """Run ``kernel`` on the points a chunk at a time and write each chunk's
    records (``text``) in order; yields each chunk's kernel outputs once
    written.  The output opens when the first chunk is asked for."""
    order = real.c.shape[0]  # the systems are square with the rows of the right-hand side
    size = max(1, _CHUNK_ENTRIES // order**2)

    def work(chunk):
        labels, arguments = chunk
        return labels, kernel(arguments)

    with _open_out(args.out) as out:
        for labels, outputs in _map_ordered(work, points.chunks(size), args.threads):
            _emit_records(out, text, points.label, labels, *outputs)
            yield outputs


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
        out.write(emit_document(_new_document(first.kind, combined)))
    return EXIT_OK


def _eval_points(args, doc: Document) -> _Points:
    if (args.point is None) == (args.grid is None):
        raise CliError(EXIT_PARSE, "give exactly one of --point or --grid")
    if args.point is not None:
        (argument,) = _arguments(doc, (_parse_json(args.point, "--point"), "--point"))
        label = _scalar_json(argument) if isinstance(argument, complex) else matrix_to_json(argument)
        return _one_point(label, argument)
    return _grid_points(_parse_json(args.grid, "--grid"), doc)


def _cmd_eval(args, tol: Tolerances) -> int:
    doc = _load(args.path, tol)
    variable = _variable_for(doc, args.variable)
    points = _eval_points(args, doc)
    stack = _stacker(doc, variable, args.fixed)
    real = _realize(doc, tol)

    def kernel(arguments):
        return evaluate(real, stack(arguments), tol)

    seen = regular = False
    for _, _, flags in _sweep(args, points, real, kernel, _eval_text):
        seen, regular = True, regular or bool(flags.any())
    return EXIT_ALL_SINGULAR if seen and not regular else EXIT_OK


def _cmd_surface(args, tol: Tolerances) -> int:
    doc = _load(args.path, tol)
    if _argument_dim(doc) is None:
        raise CliError(EXIT_MISMATCH, f"a {doc.kind} document has no eigensurface to sample")
    stack = _stacker(doc, _variable_for(doc, args.variable), args.fixed)
    points = _eval_points(args, doc)
    real = _realize(doc, tol)

    def kernel(arguments):
        return surface_indicators(real, stack(arguments))

    for _ in _sweep(args, points, real, kernel, _surface_text):
        pass
    return EXIT_OK


def _cmd_verify(args, tol: Tolerances) -> int:
    from .verify import Dims, list_suites, run_suite

    if args.list:
        with _open_out(None) as out:
            out.write("".join(f"{suite.name}: {suite.describe}\n" for suite in list_suites()))
        return EXIT_OK
    if args.suite is None:
        raise CliError(EXIT_MISMATCH, "give a suite name (or --list to see them)")
    dims = Dims(max_alpha=args.max_alpha, max_inner=args.max_inner, max_arity=args.max_arity)
    try:
        report = run_suite(
            args.suite,
            trials=args.trials,
            seed=args.seed,
            dims=dims,
            tol=tol,
        )
    except ValueError as exc:
        raise CliError(EXIT_MISMATCH, str(exc)) from None
    except ColligationError as exc:
        # The tolerances leave the suite no usable draw or value to judge.
        raise CliError(EXIT_PROPERTY, f"suite {args.suite}: {type(exc).__name__}: {exc}") from None
    with _open_out(args.out) as out:
        out.write(json.dumps(report.to_object(), sort_keys=True, separators=(",", ":")) + "\n")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _cmd_random(args, tol: Tolerances) -> int:
    try:
        doc = random_document(args.kind, args.seed, alpha=args.alpha, inner=args.inner, arity=args.arity)
    except MemoryError:
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

    p = sub.add_parser(
        "eval", parents=[tol_flags, output, threaded], help="evaluate the transfer function"
    )
    p.add_argument("path")
    p.add_argument("--point", default=None, help="single argument as JSON")
    p.add_argument("--grid", default=None, help="grid specification as JSON")
    p.add_argument("--variable", choices=("z", "S", "R"), default=None, help="which argument varies")
    p.add_argument("--fixed", default=None, help="the held-fixed matrix for two-argument documents")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser(
        "surface", parents=[tol_flags, output, threaded], help="sample the eigensurface indicator"
    )
    p.add_argument("path")
    p.add_argument("--point", default=None, help="single argument as JSON")
    p.add_argument("--grid", default=None, help="grid specification as JSON")
    p.add_argument("--variable", choices=("S", "R"), default=None, help="which argument varies")
    p.add_argument("--fixed", default=None, help="the held-fixed matrix for two-argument documents")
    p.set_defaults(handler=_cmd_surface)

    p = sub.add_parser("verify", parents=[tol_flags, output], help="run a randomized property suite")
    p.add_argument("suite", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list the registered suites")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-alpha", type=_positive_int, default=3, help="largest exposed dimension drawn")
    p.add_argument("--max-inner", type=_positive_int, default=4, help="largest inner dimension drawn")
    p.add_argument("--max-arity", type=_positive_int, default=3, help="largest family arity drawn")
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
    profile = os.environ.get("COLLIGATION_TOL_PROFILE", "default")
    try:
        tol = tolerances_from_profile(profile)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"COLLIGATION_TOL_PROFILE: {exc}") from None
    overrides = {
        "unitarity_tol": args.tol_unitarity,
        "residual_tol": args.tol_residual,
        "rank_tol": args.tol_rank,
        "surface_guard": args.tol_surface_guard,
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if not overrides:
        return tol
    try:
        return dataclasses.replace(tol, **overrides)
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
        tol = _resolve_tolerances(args)
        return args.handler(args, tol)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
