"""Acceptance gate: one test per shipped criterion.

Every criterion runs its verification suites at 200 seeded trials with the
default tolerance profile; a suite passes when no trial's defect exceeds the
budget the suite is registered with (``Suite.budget``).  Most budgets are the
relative-defect bound of 1e-8 (ten times the residual tolerance); the others
are pinned, such as 1e-6 for the rational fits of criterion 9 and, in
criterion 6, 1e-7 for containment and 1e-9 for graph composition.  Criteria
with explicit point counts add fixed-instance spot checks on top of the
suites, held to ``DEFECT_BUDGET``.  Each test
registers its scoreboard line before asserting so a failure still prints the
complete pass/fail table.
"""

import time

import numpy as np

from conftest import record_criterion

from colligations.cli import main
from colligations.colligation import charfun_z, product
from colligations.conjugacy import tri_charfun, tri_product
from colligations.doublecoset import dc_charfun
from colligations.documents import KINDS, load_document, random_document, save_document
from colligations.linalg import op_norm, rel_defect
from colligations.multi import MultiColligation, multi_charfun, multi_product
from colligations.verify import run_suite

_T0 = time.monotonic()
TRIALS = 200
DEFECT_BUDGET = 1e-8


def _run(names: list[str]) -> tuple[dict[str, int], float]:
    reports = [run_suite(name, trials=TRIALS, seed=0) for name in names]
    bad = {report.suite: len(report.failures) for report in reports if report.failures}
    worst = max(report.max_defect for report in reports)
    return bad, worst


def _regular_point(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.55 * raw / max(op_norm(raw), 1e-12)


def _finish(number: int, label: str, ok: bool, detail: str) -> None:
    record_criterion(number, label, ok, detail)
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_01_oracle_equivalence():
    bad, worst = _run(["multi-oracle", "conjugacy-oracle", "doublecoset-oracle"])
    detail = (
        f"closed-form elimination vs full-system probe, 3 suites x {TRIALS} trials, "
        f"max relative defect {worst:.1e}"
    )
    if bad:
        detail += f", FAILED {bad}"
    _finish(1, "oracle equivalence", not bad, detail)


def test_criterion_02_multiplicativity():
    names = [
        "charfun-multiplicative",
        "multi-multiplicative",
        "conjugacy-multiplicative",
        "doublecoset-multiplicative",
        "product-welldefined",
        "product-associative",
    ]
    bad, worst = _run(names)

    rng = np.random.default_rng(2026)
    spot = 0.0
    x, y = (random_document("colligation", seed).payload for seed in (11, 12))
    xy = product(x, y)
    for _ in range(20):
        z = 0.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        got = charfun_z(xy, z).value
        want = charfun_z(x, z).value @ charfun_z(y, z).value
        spot = max(spot, rel_defect(got, want))
    mx, my = (random_document("multi", seed).payload for seed in (13, 14))
    mxy = multi_product(mx, my)
    for _ in range(20):
        s = _regular_point(rng, mx.arity)
        got = multi_charfun(mxy, s).value
        want = multi_charfun(mx, s).value @ multi_charfun(my, s).value
        spot = max(spot, rel_defect(got, want))
    tx, ty = (random_document("tri", seed).payload for seed in (15, 16))
    txy = tri_product(tx, ty)
    for _ in range(20):
        s = _regular_point(rng, tx.slots)
        got = tri_charfun(txy, s).value
        want = tri_charfun(tx, s).value @ tri_charfun(ty, s).value
        spot = max(spot, rel_defect(got, want))
    dx, dy = (random_document("doublecoset", seed).payload for seed in (17, 18))
    dxy = multi_product(dx, dy)
    for _ in range(20):
        s = _regular_point(rng, dx.arity)
        r = _regular_point(rng, dx.arity)
        got = dc_charfun(dxy, s, r).value
        want = dc_charfun(dx, s, r).value @ dc_charfun(dy, s, r).value
        spot = max(spot, rel_defect(got, want))

    ok = not bad and spot <= DEFECT_BUDGET
    detail = (
        f"{len(names)} suites x {TRIALS} trials plus 20-point spot checks on all four "
        f"products, worst defect {max(worst, spot):.1e}"
    )
    if bad:
        detail += f", FAILED {bad}"
    _finish(2, "multiplicativity", ok, detail)


def test_criterion_03_norm_laws():
    names = [
        "charfun-contractive",
        "charfun-boundary-unitary",
        "charfun-reflection",
        "multi-expanding",
        "multi-boundary-unitary",
        "multi-reflection",
        "conjugacy-expanding",
        "conjugacy-boundary-unitary",
        "doublecoset-form-increase",
        "doublecoset-pseudo-unitary",
        "doublecoset-symplectic",
        "doublecoset-transpose",
    ]
    bad, worst = _run(names)
    detail = (
        f"{len(names)} suites x {TRIALS} trials (singular values >= 1 - 1e-8 inside the "
        f"0.9 argument ball, boundary unitarity, form increase), max defect {worst:.1e}"
    )
    if bad:
        detail += f", FAILED {bad}"
    _finish(3, "norm and unitarity laws", not bad, detail)


def test_criterion_04_equivalence_invariance():
    names = [
        "charfun-conjugation-invariant",
        "multi-conjugation-invariant",
        "conjugacy-conjugation-invariant",
        "doublecoset-equivalence",
        "padding-invariance",
    ]
    bad, worst = _run(names)
    detail = (
        f"inner, simultaneous, and two-sided orthogonal actions plus padding, "
        f"{len(names)} suites x {TRIALS} trials, max defect {worst:.1e}"
    )
    if bad:
        detail += f", FAILED {bad}"
    _finish(4, "equivalence invariance", not bad, detail)


def test_criterion_05_spectral_datum():
    names = ["spectrum-union", "pole-witness", "pole-growth"]
    bad, worst = _run(names)
    detail = (
        f"multiset union of unit spectra under products and >=10x growth per halved "
        f"pole distance, 3 suites x {TRIALS} trials, max defect {worst:.1e}"
    )
    if bad:
        detail += f", FAILED {bad}"
    _finish(5, "spectral datum and poles", not bad, detail)


def test_criterion_06_relation_layer():
    names = [
        "relation-containment",
        "relation-containment-surface",
        "relation-definiteness",
        "relation-compose",
    ]
    bad, worst = _run(names)
    detail = (
        f"containment ({TRIALS} generic + {TRIALS} on-surface instances), definiteness "
        f"transfer, graph composition at 1e-9, max defect {worst:.1e}"
    )
    if bad:
        detail += f", FAILED {bad}"
    _finish(6, "relation layer", not bad, detail)


def test_criterion_07_dilation_equivariance():
    bad, worst = _run(["multi-dilation", "doublecoset-dilation"])
    control_bad, control_violation = _run(["conjugacy-dilation-control"])
    bad.update(control_bad)
    detail = (
        f"dilation identities at defect {worst:.1e} over 2 suites x {TRIALS} trials; "
        f"coupled-slot negative control violates the identity by {control_violation:.1e} "
        f"as required"
    )
    if bad:
        detail += f", FAILED {bad}"
    _finish(7, "dilation equivariance", not bad, detail)


def test_criterion_08_cross_construction():
    names = [
        "single-vs-multi",
        "relation-charfun-consistency",
        "surface-consistency",
        "multi-boundary-inverse-experiment",
        "doublecoset-adjoint-experiment",
    ]
    bad, worst = _run(names)

    rng = np.random.default_rng(808)
    col = random_document("colligation", 21).payload
    wrapped = MultiColligation([col])
    spot = 0.0
    for _ in range(20):
        s = rng.uniform(0.5, 0.8) * np.exp(2j * np.pi * rng.uniform())
        via_multi = multi_charfun(wrapped, np.array([[s]])).value
        via_single = charfun_z(col, 1.0 / s).value
        spot = max(spot, rel_defect(via_multi, via_single))

    ok = not bad and spot <= DEFECT_BUDGET
    detail = (
        f"{len(names)} suites x {TRIALS} trials plus a 20-point reciprocal-argument "
        f"check, worst defect {max(worst, spot):.1e}"
    )
    if bad:
        detail += f", FAILED {bad}"
    _finish(8, "cross-construction consistency", ok, detail)


def test_criterion_09_rational_fit():
    names = ["multi-rational", "doublecoset-rational"]
    bad, worst = _run(names)
    detail = (
        f"rational line interpolation reproducing held-out samples at 1e-6, "
        f"2 suites x {TRIALS} trials, max defect {worst:.1e}"
    )
    if bad:
        detail += f", FAILED {bad}"
    _finish(9, "rational meromorphy proxy", not bad, detail)


def test_criterion_10_cli_determinism(tmp_path):
    doc = tmp_path / "probe.json"
    save_document(random_document("colligation", 31), doc)
    grid = '{"type":"disc","resolution":115,"radius":1.0}'
    blobs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"grid-{threads}.ndjson"
        code = main(["eval", str(doc), "--grid", grid, "--threads", str(threads), "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    points = len(blobs[0].splitlines())
    grid_ok = blobs[0] == blobs[1] == blobs[2] and points >= 10_000

    stable = True
    for offset, kind in enumerate(KINDS):
        first = tmp_path / f"{kind}-a.json"
        second = tmp_path / f"{kind}-b.json"
        save_document(random_document(kind, 40 + offset), first)
        save_document(load_document(first), second)
        stable = stable and first.read_bytes() == second.read_bytes()

    elapsed = time.monotonic() - _T0
    ok = grid_ok and stable and elapsed < 300.0
    detail = (
        f"{points} grid points byte-identical across 1/2/8 threads, canonical "
        f"round-trip stable for all kinds, acceptance wall time {elapsed:.0f}s"
    )
    _finish(10, "cli determinism", ok, detail)
