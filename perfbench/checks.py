"""Output checks: digests, exit codes, verify reports and oracle samples.

Every check adds one attempted operation to a :class:`Tally` and, when it
misses, one failed operation with a one-line reason.  The oracles are kept
apart from the evaluators the CLI uses: the disc check solves
``a + z b (1 - z d)^{-1} c`` directly with ``np.linalg.solve``, the surface
check rebuilds ``kron(S, I) - blockdiag(d_j)`` here, and the matrix-argument
kinds go through the package's brute-force ``*_system`` solvers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

ORACLE_TOL = 1e-8
ORACLE_SAMPLES = 12


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _matrix(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _rel_defect(got, want) -> float:
    return float(np.linalg.norm(got - want, 2) / max(1.0, np.linalg.norm(want, 2)))


def disc_points(resolution: int, radius: float = 1.0) -> int:
    """Number of lattice points the CLI's disc grid keeps (same arithmetic)."""
    kept = 0
    for i in range(resolution):
        im = -radius + 2.0 * radius * i / (resolution - 1) if resolution > 1 else 0.0
        for j in range(resolution):
            re = -radius + 2.0 * radius * j / (resolution - 1) if resolution > 1 else 0.0
            kept += abs(complex(re, im)) <= radius * (1.0 + 1e-12)
    return kept


def expected_records(call) -> int:
    if call.command == "verify":
        return 1
    if call.grid["type"] == "disc":
        return disc_points(call.grid["resolution"], call.grid.get("radius", 1.0))
    return call.grid["count"]


def check_stream(tally: Tally, call, returncode: int, data: bytes, reference: str | None) -> None:
    """Exit code, record count, digest against ``reference`` and report content."""
    where = call.label
    tally.check(returncode == 0, f"{where}: exit code {returncode}, expected 0")
    lines = data.splitlines()
    tally.check(
        len(lines) == expected_records(call),
        f"{where}: {len(lines)} records, expected {expected_records(call)}",
    )
    if reference is not None:
        tally.check(digest(data) == reference, f"{where}: sha256 {digest(data)} != {reference}")
    if call.command == "verify":
        try:
            report = json.loads(data)
        except ValueError:
            report = {}
        ok = (
            isinstance(report, dict)
            and report.get("failures") == []
            and report.get("suite") == call.suite
            and report.get("trials") == call.trials
        )
        tally.check(ok, f"{where}: report {data[:200]!r} is not a clean pass")


def _load_members(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    payload = doc["payload"]
    if "members" in payload:
        return doc["kind"], payload, [_matrix(m) for m in payload["members"]]
    return doc["kind"], payload, [_matrix(payload["matrix"])]


def _ball_points(grid: dict, dim: int) -> list[np.ndarray]:
    from colligations.linalg import sample_ball

    rng = np.random.default_rng(grid["seed"])
    return [sample_ball(rng, dim, grid["radius"]) for _ in range(grid["count"])]


def _disc_value(payload, matrix, z):
    al = payload["alpha"]
    a, b, c, d = matrix[:al, :al], matrix[:al, al:], matrix[al:, :al], matrix[al:, al:]
    shifted = np.eye(d.shape[0]) - z * d
    value = a + z * (b @ np.linalg.solve(shifted, c))
    return value, float(np.linalg.svd(shifted, compute_uv=False)[-1])


def _elimination(members, alpha, s):
    m = members[0].shape[0] - alpha
    e = np.kron(s, np.eye(m))
    for j, g in enumerate(members):
        e[j * m : (j + 1) * m, j * m : (j + 1) * m] -= g[alpha:, alpha:]
    return e


def _system_value(kind, payload, matrices, s, fixed):
    from colligations.colligation import Colligation
    from colligations.conjugacy import TriColligation, tri_charfun_system
    from colligations.doublecoset import DoubleCosetFamily, dc_charfun_system
    from colligations.multi import MultiColligation, multi_charfun_system

    al = payload["alpha"]
    if kind == "tri":
        tc = TriColligation(matrices[0], al, payload["p"], payload["slots"])
        return tri_charfun_system(tc, s)
    members = [Colligation(m, al) for m in matrices]
    if kind == "multi":
        return multi_charfun_system(MultiColligation(members), s)
    return dc_charfun_system(DoubleCosetFamily(members), s, _matrix(fixed))


def check_oracles(tally: Tally, call, data: bytes, seed: int) -> None:
    """Recompute a seeded sample of a sweep's regular records independently."""
    from colligations.errors import ColligationError

    try:
        records = [json.loads(line) for line in data.splitlines()]
    except ValueError:
        tally.check(False, f"{call.label}: output is not NDJSON")
        return
    regular = [k for k, rec in enumerate(records) if rec.get("regular", True)]
    if not regular:
        tally.check(False, f"{call.label}: no regular record to check")
        return
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(regular, size=min(ORACLE_SAMPLES, len(regular)), replace=False))
    kind, payload, matrices = _load_members(call.document.path)
    dim = payload.get("slots") if kind == "tri" else len(matrices)
    points = _ball_points(call.grid, dim) if call.grid["type"] == "ball" else None
    for k in picks:
        rec = records[k]
        try:
            if kind == "colligation":
                z = complex(*rec["point"])
                want, smin = _disc_value(payload, matrices[0], z)
                defect = max(
                    _rel_defect(_matrix(rec["value"]), want),
                    abs(rec["sigma_min"] - smin) / max(smin, 1e-300),
                )
            elif call.command == "surface":
                e = _elimination(matrices, payload["alpha"], points[rec["point"]])
                smin = float(np.linalg.svd(e, compute_uv=False)[-1])
                det = abs(complex(np.linalg.det(e)))
                defect = max(
                    abs(rec["sigma_min"] - smin) / max(smin, 1e-300),
                    abs(rec["abs_det"] - det) / max(det, 1e-300),
                )
            else:
                want = _system_value(kind, payload, matrices, points[rec["point"]], call.fixed)
                defect = _rel_defect(_matrix(rec["value"]), want)
        except (ColligationError, KeyError, TypeError, ValueError, IndexError) as exc:
            tally.check(False, f"{call.label} record {k}: unreadable ({exc})")
            continue
        tally.check(
            defect <= ORACLE_TOL,
            f"{call.label} record {k}: oracle defect {defect:.3e} > {ORACLE_TOL:.0e}",
        )
