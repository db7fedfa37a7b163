"""The ``eval`` and ``surface`` commands: sweeps of a document's
characteristic function, or of its eigensurface indicator, over a point or a
grid.

:mod:`~colligations.cli` imports this module only when one of the two
commands runs.  Grid points are made as arrays a chunk at a time; each chunk
goes through one kernel call, and its NDJSON records are formatted straight
from the kernel's arrays and written in order, so the output bytes do not
depend on the worker-thread count.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

# ``cli._emit_records``, ``documents.matrix_to_json`` and ``linalg.sample_disc``
# are called through their modules, so a wrapper bound to those names at run
# time (a tracer's) sees every call, whenever this module was imported.
from . import cli, documents, linalg
from .cli import EXIT_ALL_SINGULAR, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, CliError, _load, _open_out
from .documents import KIND_TABLE, Document, matrix_from_json
from .errors import ColligationError, DocumentError
from .linalg import Tolerances
from .realization import evaluate, surface_indicators

__all__ = ["cmd_eval", "cmd_surface"]

# Entries per chunk at --threads 1.  A point of a chunk holds its eliminated
# system (N**2 entries, N the system size), its value (the entries of A),
# and its label and record line, counted as _POINT_FLOOR entries; a chunk
# holds about this many of the largest of the three per point, which bounds
# the memory of one kernel call and of its records whatever the document's
# shape.  Values do not depend on it.  At 2**14 entries counted by the
# system alone, a resolution-200 disc eval of a colligation with one inner
# dimension peaked at 43.8 MiB for alpha 1 and 424.5 MiB for alpha 12, and
# at 31.9 and 32.1 MiB under this rule; the largest process of the
# benchmark's sweeps peaked 0.7 MiB lower, at 34.4 MiB (VmHWM, numpy 2.4).
_CHUNK_ENTRIES = 2**12
_POINT_FLOOR = 16
# With more than one --threads worker, a chunk is the unit of work handed to
# a worker and pays its hand-offs between threads, so it is this many times
# larger (2**16 entries): at 2**14 entries a disc eval at --threads 2 took
# 14% longer than at 2**16.
_THREADED_CHUNK_SCALE = 16


# --- input parsing ------------------------------------------------------------


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers too long to convert, and nesting too deep
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
    (0.0 for one row), computed for one chunk at a time.  A point is kept
    when ``abs(z) <= radius * (1 + 1e-12)``; the modulus is ``np.hypot``,
    and any point within a few ulps of that bound is tested again with
    Python's ``abs``.  ``2.0 * radius * (res - 1)`` must be finite and
    ``res * res`` an array index (:func:`_grid_points` checks both).
    """

    def coordinate(index):
        return -radius + 2.0 * radius * index / (resolution - 1) if resolution > 1 else np.zeros(len(index))

    bound = radius * (1.0 + 1e-12)
    for start in range(0, resolution * resolution, size):
        rows, cols = np.divmod(np.arange(start, min(start + size, resolution * resolution)), resolution)
        z = np.empty(len(rows), dtype=complex)
        z.real, z.imag = coordinate(cols), coordinate(rows)
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
        try:
            # The largest product the lattice forms, 2.0 * radius * (res - 1); 0 for one row.
            span = radius * (resolution - 1) * 2.0
        except OverflowError:
            span = math.inf
        if not math.isfinite(span):
            raise CliError(EXIT_PARSE, "grid: the disc lattice overflows a float")
        if resolution * resolution > np.iinfo(np.intp).max:
            raise CliError(EXIT_PARSE, "grid: the disc lattice has more points than an array can index")

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
                # A point that overflows is not regular, which its record says.
                with np.errstate(over="ignore", invalid="ignore"):
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
                arguments = np.array([linalg.sample_disc(rng, radius) for _ in range(part)], dtype=complex)
            else:
                arguments = linalg.sample_balls(rng, part, n, radius)
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


# --- the sweep ----------------------------------------------------------------


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


def _chunk_points(real, threads: int) -> int:
    """Points per chunk of a sweep of ``real`` with ``threads`` workers: the
    chunk's entries over the entries one point holds (see _CHUNK_ENTRIES)."""
    order = real.c.shape[0]  # the systems are square with the rows of the right-hand side
    entries = _CHUNK_ENTRIES if threads == 1 else _CHUNK_ENTRIES * _THREADED_CHUNK_SCALE
    return max(1, entries // max(order**2, real.a.size, _POINT_FLOOR))


def _sweep(args, doc: Document, tol: Tolerances, kernel, text):
    """Check the sweep's arguments, in the order ``--variable``, the points,
    ``--fixed``, the realization; then run ``kernel(real, arguments)`` on the
    points a chunk at a time and write each chunk's records (``text``) in
    order, yielding each chunk's kernel outputs once written.  The checks run
    and the output opens when the first chunk is asked for."""
    variable = _variable_for(doc, args.variable)
    points = _eval_points(args, doc)
    stack = _stacker(doc, variable, args.fixed)
    real = _realize(doc, tol)
    size = _chunk_points(real, args.threads)

    def work(chunk):
        labels, arguments = chunk
        return labels, kernel(real, stack(arguments))

    with _open_out(args.out) as out:
        for labels, outputs in _map_ordered(work, points.chunks(size), args.threads):
            cli._emit_records(out, text, points.label, labels, *outputs)
            yield outputs


# --- commands -----------------------------------------------------------------


def _eval_points(args, doc: Document) -> _Points:
    if (args.point is None) == (args.grid is None):
        raise CliError(EXIT_PARSE, "give exactly one of --point or --grid")
    if args.point is not None:
        (argument,) = _arguments(doc, (_parse_json(args.point, "--point"), "--point"))
        label = _scalar_json(argument) if isinstance(argument, complex) else documents.matrix_to_json(argument)
        return _one_point(label, argument)
    return _grid_points(_parse_json(args.grid, "--grid"), doc)


def cmd_eval(args, tol: Tolerances) -> int:
    def kernel(real, arguments):
        return evaluate(real, arguments, tol)

    seen = regular = False
    for _, _, flags in _sweep(args, _load(args.path, tol), tol, kernel, _eval_text):
        seen, regular = True, regular or bool(flags.any())
    return EXIT_ALL_SINGULAR if seen and not regular else EXIT_OK


def cmd_surface(args, tol: Tolerances) -> int:
    doc = _load(args.path, tol)
    if _argument_dim(doc) is None:
        raise CliError(EXIT_MISMATCH, f"a {doc.kind} document has no eigensurface to sample")
    for _ in _sweep(args, doc, tol, surface_indicators, _surface_text):
        pass
    return EXIT_OK
