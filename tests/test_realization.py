"""The batched realization kernel: batch independence, agreement with the
brute-force oracles at larger sizes, accuracy next to the surface guard, and
forward error against exact rational arithmetic."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from colligations import cli, sweeps
from colligations.colligation import charfun_z, colligation_realization, identity_colligation, random_colligation
from colligations.conjugacy import TriColligation, random_tri, tri_charfun, tri_charfun_system, tri_realization
from colligations.documents import KIND_TABLE, random_document, save_document, matrix_to_json
from colligations.doublecoset import dc_charfun, dc_charfun_system, dc_realization
from colligations.errors import NearPole, OnEigensurface
from colligations.linalg import DEFAULT_TOLERANCES, Tolerances, op_norm, sample_ball, sigma_extremes
from colligations.multi import MultiColligation, multi_charfun, multi_charfun_system, multi_realization, random_multi
from colligations.realization import Realization, evaluate, surface_indicators, system

EPS = np.finfo(float).eps
GUARD = DEFAULT_TOLERANCES.surface_guard
# The oracles apply the guard to their own, larger systems; next to the
# kernel's guard they are asked to solve regardless.
ORACLE_TOL = Tolerances(surface_guard=1e-15)


def _run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def _ball(count, seed, radius):
    return json.dumps({"type": "ball", "count": count, "seed": seed, "radius": radius})


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("kernel-docs")
    paths = {}
    for kind in KIND_TABLE:
        paths[kind] = root / f"{kind}.json"
        save_document(random_document(kind, 5, alpha=2, inner=3, arity=3), paths[kind])
    for alpha in (1, 2):
        # One inner dimension: numpy rounds the system's 1x1 products at one
        # point unlike in a longer batch, and the kernel must not.
        paths[f"colligation-{alpha}-1"] = root / f"colligation-{alpha}-1.json"
        save_document(random_document("colligation", 5, alpha=alpha, inner=1), paths[f"colligation-{alpha}-1"])
    return paths


def _sweeps(documents):
    """(subcommand, argv) pairs over all four kinds; radius 3 mixes regular
    and singular points, radius 0.9 keeps to the regular ball."""
    fixed = json.dumps(matrix_to_json(sample_ball(np.random.default_rng(1), 3, 0.9)))
    disc = json.dumps({"type": "disc", "resolution": 23, "radius": 1.4})
    out = [("eval", [path, "--grid", disc]) for name, path in documents.items() if name.startswith("colligation")]
    for kind in ("multi", "tri"):
        for radius in (0.9, 3.0):
            for command in ("eval", "surface"):
                out.append((command, [documents[kind], "--grid", _ball(37, 2, radius)]))
    for variable in ("S", "R"):
        for command in ("eval", "surface"):
            argv = [documents["doublecoset"], "--grid", _ball(37, 3, 3.0), "--fixed", fixed, "--variable", variable]
            out.append((command, argv))
    return out


def test_chunk_size_does_not_change_bytes(capsys, monkeypatch, documents):
    monkeypatch.setattr(sweeps, "_THREADED_CHUNK_SCALE", 1)  # chunks as set, at --threads 2 too
    for command, argv in _sweeps(documents):
        outputs = []
        for entries in (1, 10**9):  # one point per chunk, then the whole grid
            monkeypatch.setattr(sweeps, "_CHUNK_ENTRIES", entries)
            code, out, err = _run(capsys, command, *argv, "--threads", 2)
            assert code in (0, 4) and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1], (command, argv)
        assert len(outputs[0].splitlines()) > 1


@pytest.mark.filterwarnings("error")
def test_batch_values_do_not_depend_on_a_non_finite_member():
    # Every batch is solved whole, a non-finite system in the identity's
    # place; one non-finite or exactly singular argument more leaves the
    # other points' bits, comes out not regular with a NaN value, and
    # raises no warning.
    rng = np.random.default_rng(6)
    fam = random_multi(2, 3, 3, 6)
    identities = MultiColligation([identity_colligation(1, 1)] * 2)

    def inf(arg):
        return np.full(arg.shape[1:], np.inf)

    cases = [
        (colligation_realization(random_colligation(2, 3, 6)), [_disc(rng, 9)], inf),
        (multi_realization(fam), [_stack(rng, 9, 3, 0.9)], inf),
        (dc_realization(fam), [_stack(rng, 9, 3, 0.9), _stack(rng, 9, 3, 0.9)], inf),
        # At z = 1 and at S = I the system is exactly zero; the last
        # realization's solve there divides 1 by 0, the others' 0 by 0.
        (colligation_realization(identity_colligation(1, 1)), [_disc(rng, 9)], lambda arg: 1.0),
        (multi_realization(identities), [_stack(rng, 9, 2, 0.9)], lambda arg: np.eye(2)),
        (Realization("z", *np.ones((4, 1, 1), dtype=complex)), [_disc(rng, 9)], lambda arg: 1.0),
    ]
    for real, args, member in cases:
        mixed = [np.concatenate([arg, np.broadcast_to(member(arg), (1, *arg.shape[1:]))]) for arg in args]
        clean, with_member = evaluate(real, args), evaluate(real, mixed)
        assert clean[2].all() and not with_member[2][-1]
        assert np.isnan(with_member[0][-1]).all()
        for got, want in zip(clean, with_member):
            assert got.tobytes() == want[:-1].tobytes()


def _chunk_peak(realize, kernel):
    """The tracemalloc peak of ``kernel`` on one chunk sized as a sweep sizes
    it, and the bytes of that chunk's stack of systems."""
    real = realize(random_multi(2, 4, 3, 1))
    size = max(1, sweeps._CHUNK_ENTRIES // real.c.shape[0] ** 2)
    rng = np.random.default_rng(0)
    args = [_stack(rng, size, 3, 0.9) for _ in range(2 if real.form == "SR" else 1)]
    stack_bytes = system(real, args).nbytes
    tracemalloc.start()
    try:
        kernel(real, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, stack_bytes


@pytest.mark.parametrize("realize", [multi_realization, dc_realization], ids=["multi", "doublecoset"])
def test_one_chunk_needs_at_most_four_system_stacks(realize):
    # A chunk sized as a sweep sizes it holds the SVD's u and vh and, until
    # the SVD has read it, its systems, and no gathered or conjugated copy
    # of any of them (3.05 and 3.03 stacks).
    peak, stack_bytes = _chunk_peak(realize, evaluate)
    assert peak <= 3.25 * stack_bytes, peak / stack_bytes


@pytest.mark.parametrize("realize", [multi_realization, dc_realization], ids=["multi", "doublecoset"])
def test_one_surface_chunk_needs_under_two_system_stacks(realize):
    # The systems are built in place: no Kronecker product, broadcast
    # subtraction or negation into a strided block buffers beside the stack.
    peak, stack_bytes = _chunk_peak(realize, surface_indicators)
    assert peak <= 1.6 * stack_bytes, peak / stack_bytes


@pytest.mark.parametrize("realize", [multi_realization, dc_realization], ids=["multi", "doublecoset"])
def test_one_sweep_chunk_needs_under_one_mebibyte(realize):
    # The chunk size itself is pinned: a sweep's chunk of 12- or 24-row
    # systems peaks at about 0.76 MiB in evaluate (3.1 MiB at 2**16 entries).
    peak, _ = _chunk_peak(realize, evaluate)
    assert peak <= 2**20, peak


def _signed_zeros(rng, shape):
    """Complex entries, half of them drawn from values whose products with
    ``1+0j`` and ``0j`` take the sign of a zero from both parts."""
    special = np.array([complex(x, y) for x in (-0.0, 0.0, -1.5, 2.0) for y in (-0.0, 0.0, -0.5, 3.0)])
    drawn = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.where(rng.random(shape) < 0.5, rng.choice(special, shape), drawn)


@pytest.mark.parametrize("k", [1, 113])
@pytest.mark.parametrize("m", [1, 4])
def test_systems_are_built_bit_for_bit_as_kron_forms_them(k, m):
    # system() writes kron(S, I_m) slice by slice into its stack; every bit,
    # the sign of each zero too, is that of np.kron(S, I_m) - D and of the
    # "SR" core assembled from np.kron blocks.
    rng = np.random.default_rng(10 * k + m)
    n = 3
    nm = n * m
    d, dt = _signed_zeros(rng, (nm, nm)), _signed_zeros(rng, (nm, nm))
    s, r = _signed_zeros(rng, (k, n, n)), _signed_zeros(rng, (k, n, n))
    blocks = [np.zeros((nm, nm), dtype=complex)] * 3
    big_s, big_r = np.kron(s, np.eye(m)), np.kron(r, np.eye(m))
    want = big_s - d
    got = system(Realization("S", *blocks, d, m), [s])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    top = np.concatenate([np.broadcast_to(-d, big_s.shape), big_s], axis=2)
    bottom = np.concatenate([-(dt @ big_r), np.broadcast_to(np.eye(nm), big_s.shape)], axis=2)
    want = np.concatenate([top, bottom], axis=1)
    got = system(Realization("SR", *blocks, d, m, blocks[0], dt), [s, r])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


_IDENTITIES = [identity_colligation(1, 1), identity_colligation(1, 1)]
_ON_SURFACE = "argument lies on the eigensurface"
_COUPLED = "coupled system is singular"


@pytest.mark.parametrize(
    "at_singular_point, error, message",
    [
        (lambda: charfun_z(_IDENTITIES[0], 1.0), NearPole, "argument z=(1+0j) lies at or near a pole"),
        (lambda: multi_charfun(MultiColligation(_IDENTITIES), np.eye(2)), OnEigensurface, _ON_SURFACE),
        (lambda: tri_charfun(TriColligation(np.eye(3), 1, 1, 2), np.eye(2)), OnEigensurface, _ON_SURFACE),
        (
            lambda: dc_charfun(MultiColligation(_IDENTITIES), np.eye(2), np.eye(2)),
            OnEigensurface,
            "arguments lie on the eigensurface",
        ),
        # The brute-force oracles share one guarded dense solve and its message.
        (lambda: multi_charfun_system(MultiColligation(_IDENTITIES), np.eye(2)), OnEigensurface, _COUPLED),
        (lambda: tri_charfun_system(TriColligation(np.eye(3), 1, 1, 2), np.eye(2)), OnEigensurface, _COUPLED),
        (
            lambda: dc_charfun_system(MultiColligation(_IDENTITIES), np.eye(2), np.eye(2)),
            OnEigensurface,
            _COUPLED,
        ),
    ],
    ids=["colligation", "multi", "tri", "doublecoset", "multi-oracle", "tri-oracle", "doublecoset-oracle"],
)
def test_each_form_raises_its_one_error(at_singular_point, error, message):
    # The realization's form decides the class and message at a planted pole
    # or eigensurface point.
    with pytest.raises(error) as raised:
        at_singular_point()
    assert type(raised.value) is error
    assert str(raised.value) == f"{message} (sigma_min={raised.value.sigma_min:.3e})"


def _disc(rng, count):
    return 0.5 * np.exp(2j * np.pi * rng.uniform(size=count))


def _stack(rng, count, n, radius):
    return np.array([sample_ball(rng, n, radius) for _ in range(count)])


def _rel(got, want):
    return op_norm(got - want) / max(1.0, op_norm(want))


LARGE = [(1, 16, 4), (2, 16, 2), (3, 5, 4), (2, 8, 3)]


@pytest.mark.parametrize("alpha,inner,arity", LARGE)
def test_multi_matches_oracle_at_larger_sizes(alpha, inner, arity):
    mc = random_multi(alpha, inner, arity, seed=inner + arity)
    args = _stack(np.random.default_rng(arity), 6, arity, 0.9)
    values, sigma, regular = evaluate(multi_realization(mc), [args])
    assert regular.all()
    for s, value in zip(args, values):
        assert _rel(value, multi_charfun_system(mc, s)) < 1e-9


@pytest.mark.parametrize("alpha,inner,arity", LARGE)
def test_tri_matches_oracle_at_larger_sizes(alpha, inner, arity):
    tc = random_tri(alpha, inner, arity, seed=inner + arity)
    args = _stack(np.random.default_rng(arity), 6, arity, 0.9)
    values, sigma, regular = evaluate(tri_realization(tc), [args])
    assert regular.all()
    for s, value in zip(args, values):
        assert _rel(value, tri_charfun_system(tc, s)) < 1e-9


@pytest.mark.parametrize("alpha,inner,arity", LARGE)
def test_doublecoset_matches_oracle_at_larger_sizes(alpha, inner, arity):
    fam = random_multi(alpha, inner, arity, seed=inner + arity)
    rng = np.random.default_rng(arity)
    s_args, r_args = _stack(rng, 4, arity, 0.9), _stack(rng, 4, arity, 0.9)
    values, sigma, regular = evaluate(dc_realization(fam), [s_args, r_args])
    assert regular.all()
    for s, r, value in zip(s_args, r_args, values):
        assert _rel(value, dc_charfun_system(fam, s, r)) < 1e-9


# --- next to the guard --------------------------------------------------------


def _ratio(real, args):
    smin, smax = sigma_extremes(system(real, [a[None] for a in args])[0])
    return smin / smax


def _near_guard(real, point, target):
    """``point(delta)`` with ``delta`` set by bisection so that the relative
    smallest singular value of the system lies just above ``target``."""
    lo, hi = -40.0, 0.0  # log10(delta); the system is singular at delta = 0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _ratio(real, point(10.0**mid)) > target:
            hi = mid
        else:
            lo = mid
    return point(10.0**hi)


def _higham_budget(real, args):
    """Forward-error budget of a backward-stable solve, N * eps * kappa
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7), with
    kappa the condition number of the N x N eliminated system."""
    matrix = system(real, [a[None] for a in args])[0]
    smin, smax = sigma_extremes(matrix)
    return matrix.shape[0] * EPS * smax / smin


def _direction(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g / op_norm(g)


@pytest.mark.parametrize("factor", [1.5, 4.0, 30.0])
@pytest.mark.parametrize("seed", range(3))
def test_colligation_next_to_the_guard(factor, seed):
    col = random_colligation(2, 6, seed)
    real = colligation_realization(col)
    pole = 1.0 / np.linalg.eigvals(col.d)[0]
    args = _near_guard(real, lambda delta: (np.array(pole + delta * 1j),), factor * GUARD)
    values, sigma, regular = evaluate(real, [a[None] for a in args])
    assert regular[0] and sigma[0] > 0.0
    z = complex(args[0])
    want = col.a + z * (col.b @ np.linalg.solve(np.eye(6) - z * col.d, col.c))
    assert _rel(values[0], want) < _higham_budget(real, args)


def _eigensurface_cases():
    for seed in range(3):
        for inner, arity in ((4, 2), (8, 4), (16, 2)):
            yield seed, inner, arity


@pytest.mark.parametrize("factor", [1.5, 30.0])
@pytest.mark.parametrize("seed,inner,arity", list(_eigensurface_cases()))
def test_matrix_kinds_next_to_the_guard(factor, seed, inner, arity):
    """Arguments ``t I + delta G`` where ``t I`` lies on the eigensurface, for
    the kernel and each oracle."""
    rng = np.random.default_rng(seed)
    eye = np.eye(arity)
    g = _direction(rng, arity)

    mc = random_multi(2, inner, arity, seed)
    real = multi_realization(mc)
    t = np.linalg.eigvals(real.d)[0]
    (s,) = _near_guard(real, lambda delta: (t * eye + delta * g,), factor * GUARD)
    values, _, regular = evaluate(real, [s[None]])
    assert regular[0]
    assert _rel(values[0], multi_charfun_system(mc, s, ORACLE_TOL)) < _higham_budget(real, (s,))

    tc = random_tri(2, inner // 2, arity, seed)
    real = tri_realization(tc)
    t = np.linalg.eigvals(real.d)[0]
    (s,) = _near_guard(real, lambda delta: (t * eye + delta * g,), factor * GUARD)
    values, _, regular = evaluate(real, [s[None]])
    assert regular[0]
    assert _rel(values[0], tri_charfun_system(tc, s, ORACLE_TOL)) < _higham_budget(real, (s,))

    real = dc_realization(mc)
    r = sample_ball(rng, arity, 0.9)
    # Singular when -D + t Dt (R x I) is: t is an eigenvalue of (Dt (R x I))^-1 D.
    t = np.linalg.eigvals(np.linalg.solve(real.dt @ np.kron(r, np.eye(inner)), real.d))[0]
    s, r = _near_guard(real, lambda delta: (t * eye + delta * g, r), factor * GUARD)
    values, _, regular = evaluate(real, [s[None], r[None]])
    assert regular[0]
    assert _rel(values[0], dc_charfun_system(mc, s, r, ORACLE_TOL)) < _higham_budget(real, (s, r))


@pytest.mark.parametrize("seed", range(3))
def test_guard_boundary_is_sharp(seed):
    """Just under the guard a point is singular and keeps the sigma_min of
    its system; just over it the point is regular."""
    mc = random_multi(2, 4, 2, seed)
    real = multi_realization(mc)
    t = np.linalg.eigvals(real.d)[0]
    g = _direction(np.random.default_rng(seed), 2)
    under, over = (
        _near_guard(real, lambda delta: (t * np.eye(2) + delta * g,), factor * GUARD)[0]
        for factor in (0.25, 2.0)
    )
    values, sigma, regular = evaluate(real, [np.array([under, over])])
    assert list(regular) == [False, True]
    assert sigma[0] == np.linalg.svd(system(real, [under[None]])[0])[1][-1]
    assert np.isnan(values[0]).all()


# --- against exact arithmetic -------------------------------------------------
#
# Every float is an exact rational, so the true value of A + B (S x I - D)^{-1} C
# at the float blocks and arguments can be computed with fractions.  A complex
# matrix is held as the pair (real part, imaginary part) of object arrays.

_FRACTION = np.vectorize(Fraction, otypes=[object])
_FLOAT = np.vectorize(float, otypes=[float])
# c of the forward-error bound c * eps * sigma_max / sigma_min; the worst ratio
# of error to eps * sigma_max / sigma_min measured over 320 such points (seeds
# 0-19, N 6 and 12, generic and at 1.5, 30 and 1e4 times the guard) was 2.7.
EXACT_C = 10.0


def _q(a):
    a = np.asarray(a, dtype=complex)
    return _FRACTION(a.real), _FRACTION(a.imag)


def _qeye(n):
    return np.eye(n, dtype=object), np.zeros((n, n), dtype=object)


def _qadd(x, y):
    return x[0] + y[0], x[1] + y[1]


def _qneg(x):
    return -x[0], -x[1]


def _qmul(x, y):
    return x[0] @ y[0] - x[1] @ y[1], x[0] @ y[1] + x[1] @ y[0]


def _qkron_eye(x, m):
    return np.kron(x[0], np.eye(m, dtype=object)), np.kron(x[1], np.eye(m, dtype=object))


def _qsolve(m, rhs):
    """``m^{-1} rhs`` exactly, as the real system ``[[Re m, -Im m], [Im m,
    Re m]]`` with each row scaled to integers, by fraction-free Gauss-Jordan
    elimination: every division is exact, and the left block ends as
    ``det * I``."""
    aug = np.block([[m[0], -m[1], rhs[0]], [m[1], m[0], rhs[1]]])
    aug = np.array([[int(v * math.lcm(*(w.denominator for w in row))) for v in row] for row in aug], dtype=object)
    size, previous = len(aug), 1
    for k in range(size):
        pivot = k + next(i for i, v in enumerate(aug[k:, k]) if v != 0)
        aug[[k, pivot]] = aug[[pivot, k]]
        rest = np.arange(size) != k
        aug[rest] = (aug[k, k] * aug[rest] - np.outer(aug[rest, k], aug[k])) // previous
        previous = aug[k, k]
    x = _FRACTION(aug[:, size:], previous)
    return x[: size // 2], x[size // 2 :]


def _exact_value(real, args):
    """The value of ``real`` at the one point ``args``, in exact arithmetic."""
    a, b, c, d = (_q(block) for block in (real.a, real.b, real.c, real.d))
    n = real.d.shape[0]
    if real.form == "z":
        zr, zi = _q(args[0])

        def times_z(x):
            return zr * x[0] - zi * x[1], zr * x[1] + zi * x[0]

        return _qadd(a, times_z(_qmul(b, _qsolve(_qadd(_qeye(n), _qneg(times_z(d))), c))))
    big_s = _qkron_eye(_q(args[0]), real.m)
    if real.form == "S":
        return _qadd(a, _qmul(b, _qsolve(_qadd(big_s, _qneg(d)), c)))
    big_r = _qkron_eye(_q(args[1]), real.m)
    low, eye = _qneg(_qmul(_q(real.dt), big_r)), _qeye(n)
    core = tuple(np.block([[-d[p], big_s[p]], [low[p], eye[p]]]) for p in range(2))
    x_plus = tuple(part[:n] for part in _qsolve(core, c))
    lower = _qmul(_qmul(_q(real.bt), big_r), x_plus)
    return _qadd(a, tuple(np.vstack(parts) for parts in zip(_qmul(b, x_plus), lower)))


def test_exact_solve_leaves_no_residual():
    rng = np.random.default_rng(7)
    for n in (1, 3, 7):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if n > 1:
            m[0, 0] = 0.0  # the first pivot then swaps rows
        rhs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        residual = _qadd(_qmul(_q(m), _qsolve(_q(m), _q(rhs))), _qneg(_q(rhs)))
        assert not any(residual[0].ravel()) and not any(residual[1].ravel())


def _exact_cases(form, seed):
    """A generic point and two next to the guard, for one realization of
    ``form`` with N <= 12."""
    rng = np.random.default_rng(seed)
    if form == "z":
        col = random_colligation(2, 6, seed)
        real, pole = colligation_realization(col), 1.0 / np.linalg.eigvals(col.d)[0]
        generic, point = (_disc(rng, 1)[0],), (lambda delta: (pole + delta * 1j,))
    elif form == "S":
        real = multi_realization(random_multi(2, 4, 3, seed))
        t, g = np.linalg.eigvals(real.d)[0], _direction(rng, 3)
        generic, point = (sample_ball(rng, 3, 0.9),), (lambda delta: (t * np.eye(3) + delta * g,))
    else:
        real = dc_realization(random_multi(2, 3, 2, seed))
        r, g = sample_ball(rng, 2, 0.9), _direction(rng, 2)
        t = np.linalg.eigvals(np.linalg.solve(real.dt @ np.kron(r, np.eye(3)), real.d))[0]
        generic, point = (sample_ball(rng, 2, 0.9), r), (lambda delta: (t * np.eye(2) + delta * g, r))
    return real, [generic] + [_near_guard(real, point, factor * GUARD) for factor in (1.5, 1e4)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("form", ["z", "S", "SR"])
def test_values_are_as_accurate_as_conditioning_allows(form, seed, record_property):
    real, points = _exact_cases(form, seed)
    ratios = []
    for args in points:
        stacked = [np.asarray(arg)[None] for arg in args]
        values, _, regular = evaluate(real, stacked)
        assert regular[0]
        exact = _exact_value(real, args)
        diff = [_FLOAT(got - want) for got, want in zip(_q(values[0]), exact)]
        error = op_norm(diff[0] + 1j * diff[1]) / max(1.0, op_norm(_FLOAT(exact[0]) + 1j * _FLOAT(exact[1])))
        smin, smax = sigma_extremes(system(real, stacked)[0])
        ratios.append(error / (EXACT_C * EPS * smax / smin))
    record_property("worst_ratio_to_bound", max(ratios))
    assert max(ratios) <= 1.0, ratios
