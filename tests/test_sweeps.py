"""The streaming sweep path of ``eval``/``surface``: grids built as arrays a
chunk at a time, the direct record formatter, and in-order streaming."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from colligations import cli, sweeps
from colligations.colligation import Colligation
from colligations.documents import SCHEMA_VERSION, Document, matrix_to_json, random_document, save_document
from colligations.linalg import DEFAULT_TOLERANCES, sample_ball, sample_balls
from colligations.realization import evaluate

EDGE = [-0.0, 5e-324, 1e16, 1.7e308, -1.7e308, 0.1, 1.0, -2.5e-10, 0.0, 123456.789]


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def finite_or_none(x: float):
    return x if math.isfinite(x) else None


# --- the record formatter -------------------------------------------------------


LABELS = [
    ("[%r,%r]", [[-0.0, 5e-324], [1e16, -1.7e308], [0.1, -0.0], [1.7e308, 2.0]], lambda p: list(p)),
    ("%d", [(0,), (1,), (2,), (10**6,)], lambda p: p[0]),
]


@pytest.mark.parametrize("label, labels, decode", LABELS)
def test_eval_records_are_canonical_json(label, labels, decode):
    values = np.resize(np.array(EDGE), 4 * 2 * 3 * 2).view(complex).reshape(4, 2, 3)
    sigma = np.array([5e-324, np.nan, 1.7e308, np.inf])
    regular = np.array([True, False, True, False])
    want = "".join(
        canonical(
            {
                "point": decode(point),
                "value": matrix_to_json(values[i]) if regular[i] else None,
                "sigma_min": finite_or_none(float(sigma[i])),
                "regular": bool(regular[i]),
            }
        )
        for i, point in enumerate(labels)
    )
    assert sweeps._eval_text(label, labels, values, sigma, regular) == want


@pytest.mark.parametrize("label, labels, decode", LABELS)
def test_surface_records_are_canonical_json(label, labels, decode):
    dets = np.array([3 + 4j, complex(np.nan, np.nan), 1.7e308 + 1.7e308j, -0.0 + 5e-324j])
    sigma = np.array([-0.0, np.nan, 1e16, 5e-324])

    def abs_or_none(det):
        try:
            return finite_or_none(abs(det))
        except OverflowError:
            return None

    want = "".join(
        canonical(
            {
                "point": decode(point),
                "abs_det": abs_or_none(complex(dets[i])),
                "sigma_min": finite_or_none(float(sigma[i])),
            }
        )
        for i, point in enumerate(labels)
    )
    assert sweeps._surface_text(label, labels, dets, sigma) == want


def test_matrix_point_label_is_canonical_json():
    point = np.array([[complex(-0.0, 5e-324), 1e16], [1.7e308, complex(-0.0, -2.5e-10)]])
    sweep = sweeps._one_point(matrix_to_json(point), point)
    ((labels, arguments),) = list(sweep.chunks(1))
    assert arguments.tobytes() == point[None].tobytes()
    values = np.array([[[complex(0.5, -0.0)]]])
    text = sweeps._eval_text(sweep.label, labels, values, np.array([0.25]), np.array([True]))
    want = {"point": matrix_to_json(point), "value": [[[0.5, -0.0]]], "sigma_min": 0.25, "regular": True}
    assert text == canonical(want)


@pytest.fixture()
def swap_doc(tmp_path):
    path = tmp_path / "swap.json"
    swap = Colligation(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    save_document(Document("colligation", swap, {"schema_version": SCHEMA_VERSION}), path)
    return str(path)


def test_segment_and_point_records_round_trip(capsys, swap_doc):
    grids = [
        ["--grid", '{"type":"segment","base":[0.1,-0.0],"direction":[-0.0,1e-300],'
                   '"t_min":[-2,-0.0],"t_max":[3,5e-324],"resolution":13}'],
        ["--point", "[-0.0,5e-324]"],
        ["--point", "[1e16,-0.5]"],
    ]
    for grid in grids:
        assert cli.main(["eval", swap_doc, *grid]) == 0
        out = capsys.readouterr().out
        assert out
        for line in out.splitlines(keepends=True):
            assert canonical(json.loads(line)) == line


# --- grids ----------------------------------------------------------------------


def disc_loop(res: int, radius: float) -> list[complex]:
    """The disc grid as the one-point loop builds it (the oracle)."""
    points = []
    for i in range(res):
        im = -radius + 2.0 * radius * i / (res - 1) if res > 1 else 0.0
        for j in range(res):
            re = -radius + 2.0 * radius * j / (res - 1) if res > 1 else 0.0
            z = complex(re, im)
            if abs(z) <= radius * (1.0 + 1e-12):
                points.append(z)
    return points


@pytest.mark.parametrize("res", [1, 2, 3, 4, 5, 20, 21, 64, 101])
@pytest.mark.parametrize("radius", [1.0, 0.7, 2.5, 1e-3])
@pytest.mark.parametrize("size", [1, 7, 4096])
def test_disc_lattice_matches_the_loop(res, radius, size):
    chunks = list(sweeps._disc_lattice(res, radius, size))
    assert all(len(chunk) for chunk in chunks)
    got = np.concatenate(chunks) if chunks else np.empty(0, dtype=complex)
    want = np.array(disc_loop(res, radius), dtype=complex)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("res, radius", [(2, 1.0), (21, 1.0), (64, 0.7), (101, 2.5), (300, 1.0)])
def test_vectorized_modulus_agrees_with_abs(res, radius):
    axis = -radius + 2.0 * radius * np.arange(res, dtype=float) / (res - 1)
    re, im = np.meshgrid(axis, axis)
    modulus = np.hypot(re, im).ravel()
    want = np.array([abs(complex(a, b)) for a, b in zip(re.ravel().tolist(), im.ravel().tolist())])
    assert modulus.tobytes() == want.tobytes()
    bound = radius * (1.0 + 1e-12)
    assert ((modulus <= bound) == (want <= bound)).all()


def sample_ball_loop(rng, dim: int, radius: float) -> np.ndarray:
    """One ball point as the one-point sampler draws it (the oracle)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    top = float(np.linalg.svd(g, compute_uv=False)[0])
    if top == 0.0:
        return np.zeros((dim, dim), dtype=complex)
    return (radius * rng.uniform(0.05, 1.0) / top) * g


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("radius", [0.9, 2.5])
def test_ball_sampler_matches_one_point_draws(dim, radius):
    rngs = [np.random.default_rng(4) for _ in range(3)]
    want = np.array([sample_ball_loop(rngs[0], dim, radius) for _ in range(40)])
    stacked = np.concatenate([sample_balls(rngs[1], 13, dim, radius), sample_balls(rngs[1], 27, dim, radius)])
    one_by_one = np.array([sample_ball(rngs[2], dim, radius) for _ in range(40)])
    assert stacked.tobytes() == want.tobytes() == one_by_one.tobytes()
    # The generators are left at the same place in the stream.
    assert len({rng.random() for rng in rngs}) == 1


class _ZeroDraws:
    """A generator whose Gaussian draws are all zero; counts uniform draws."""

    def __init__(self):
        self.uniforms = 0

    def standard_normal(self, shape):
        return np.zeros(shape)

    def uniform(self, low, high):
        self.uniforms += 1
        return low


def test_zero_draw_takes_no_scale():
    rng = _ZeroDraws()
    points = sample_balls(rng, 3, 2, 1.0)
    assert rng.uniforms == 0
    assert points.tobytes() == np.zeros((3, 2, 2), dtype=complex).tobytes()


# --- streaming ------------------------------------------------------------------


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_map_ordered_is_in_order_and_holds_at_most_threads(threads):
    pulled = []

    def items():
        for k in range(25):
            pulled.append(k)
            yield k

    results = []
    for result in sweeps._map_ordered(lambda k: k * k, items(), threads):
        results.append(result)
        assert len(pulled) - len(results) < threads
    assert results == [k * k for k in range(25)]


def test_records_are_written_chunk_by_chunk(capsys, monkeypatch, swap_doc):
    events = []
    evaluate, emit = sweeps.evaluate, cli._emit_records

    def evaluated(*args):
        events.append("evaluate")
        return evaluate(*args)

    def emitted(*args):
        events.append("emit")
        return emit(*args)

    monkeypatch.setattr(sweeps, "_CHUNK_ENTRIES", 16)
    monkeypatch.setattr(sweeps, "evaluate", evaluated)
    monkeypatch.setattr(cli, "_emit_records", emitted)
    grid = '{"type":"disc","resolution":21}'
    assert cli.main(["eval", swap_doc, "--grid", grid, "--threads", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(disc_loop(21, 1.0))
    assert len(events) > 2 and events == ["evaluate", "emit"] * (len(events) // 2)


def test_threaded_sweeps_take_larger_chunks(capsys, monkeypatch, swap_doc):
    # A chunk handed to a worker pays its hand-offs between threads, so with
    # more than one worker a chunk holds _THREADED_CHUNK_SCALE times the
    # entries (a point of the swap counts _POINT_FLOOR entries).
    sizes = []
    evaluate = sweeps.evaluate

    def evaluated(real, arguments, tol):
        sizes.append(len(arguments[0]))
        return evaluate(real, arguments, tol)

    monkeypatch.setattr(sweeps, "_CHUNK_ENTRIES", 3 * sweeps._POINT_FLOOR)
    monkeypatch.setattr(sweeps, "evaluate", evaluated)
    real = sweeps._realize(cli._load(swap_doc, DEFAULT_TOLERANCES), DEFAULT_TOLERANCES)
    assert sweeps._chunk_points(real, 2) == sweeps._THREADED_CHUNK_SCALE * sweeps._chunk_points(real, 1) > 1
    grid = '{"type":"ball","count":200,"seed":1}'
    outputs = []
    for threads in ("1", "2"):
        sizes.clear()
        assert cli.main(["eval", swap_doc, "--grid", grid, "--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
        size = sweeps._chunk_points(real, int(threads))
        assert sizes == [min(size, 200 - start) for start in range(0, 200, size)], sizes
    assert outputs[0] == outputs[1]


_SEGMENT = {"type": "segment", "base": 0, "direction": 1, "t_min": -0.9, "t_max": 0.9, "resolution": 10**5}
_BALL = {"type": "ball", "count": 10**5, "seed": 2, "radius": 0.9}


@pytest.mark.parametrize(
    "kind, shape, grid",
    [
        ("colligation", {"alpha": 12, "inner": 1}, _SEGMENT),
        ("colligation", {"alpha": 1, "inner": 1}, _SEGMENT),
        ("multi", {"alpha": 2, "inner": 4, "arity": 3}, _BALL),
        ("doublecoset", {"alpha": 2, "inner": 4, "arity": 3}, _BALL),
    ],
    ids=["colligation-12-1", "colligation-1-1", "multi", "doublecoset"],
)
def test_one_chunk_of_records_needs_under_one_mebibyte(tmp_path, kind, shape, grid):
    # A chunk is sized by what each of its points holds: its system, its
    # value, and its label and record line.  From its points through its
    # formatted records it peaks at 0.15-0.65 MiB whatever the shape; sized
    # by the system alone at 2**14 entries, a chunk of 1x1 systems took
    # 16384 points and peaked at 9.8 MiB, and at 380 MiB with 12x12 values.
    path = tmp_path / f"{kind}.json"
    save_document(random_document(kind, 3, **shape), path)
    tol = DEFAULT_TOLERANCES
    doc = cli._load(str(path), tol)
    fixed = json.dumps(matrix_to_json(sample_ball(np.random.default_rng(4), 3, 0.9))) if kind == "doublecoset" else None
    stack = sweeps._stacker(doc, sweeps._variable_for(doc, None), fixed)
    points = sweeps._grid_points(grid, doc)
    real = sweeps._realize(doc, tol)
    size = sweeps._chunk_points(real, 1)
    tracemalloc.start()
    try:
        labels, arguments = next(points.chunks(size))
        records = sweeps._eval_text(points.label, labels, *evaluate(real, stack(arguments), tol))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == size and records.count('"regular":true') == size
    assert peak <= 2**20, peak


def test_error_before_the_first_byte_leaves_no_output(capsys, tmp_path, swap_doc):
    path = tmp_path / "out.ndjson"
    grid = '{"type":"segment","base":0,"direction":1,"t_min":-1e308,"t_max":1e308,"resolution":3}'
    assert cli.main(["eval", swap_doc, "--grid", grid, "--out", str(path)]) == 1
    assert not path.exists()
    assert capsys.readouterr().out == ""
