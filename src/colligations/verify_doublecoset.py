"""The ``verify`` suites of paired families read with the two-argument
function (``doublecoset-*``)."""

import numpy as np

from .errors import OnEigensurface
from .linalg import op_norm, rel_defect, signature_form
from . import doublecoset, realization
from .verify import (
    RATIONAL_FIT_TOL, _FLOOR, _KINDS, TrialResult, _ball, _conditioned, _draw, _evaluate, _haar, _retrying,
    _suite, _symmetric_ball, _value,
)
from .verify_matrix import (
    _at_value, _dilation, _invariant, _multiplicative, _observational, _oracle, _rational, _register,
)


def _form_increase(fam, chi, rng, tol) -> TrialResult:
    na = fam.arity * fam.alpha
    form = signature_form(na, na)
    size = form.shape[0]
    probes = np.random.default_rng(_draw(rng, 0, 2**31 - 1))
    increases = []
    for _ in range(8):  # M(chi p, chi p) - M(p, p) at random probes p
        p = probes.standard_normal(size) + 1j * probes.standard_normal(size)
        q = chi @ p
        increases.append(float(np.real(q.conj() @ form @ q)) - float(np.real(p.conj() @ form @ p)))
    smallest = min(increases)
    return TrialResult(max(0.0, -smallest), f"smallest increase {smallest:.3e}")


def _pseudo_unitary(fam, chi, rng, tol) -> TrialResult:
    na = fam.arity * fam.alpha
    form = signature_form(na, na)
    defect = op_norm(chi.conj().T @ form @ chi - form) / max(1.0, op_norm(chi) ** 2)
    return TrialResult(defect)


def _symplectic(fam, chi, rng, tol) -> TrialResult:
    skew = doublecoset.skew_form(fam.arity, fam.alpha)
    defect = op_norm(chi.T @ skew @ chi - skew) / max(1.0, op_norm(chi) ** 2)
    return TrialResult(defect)


_register("doublecoset", [
    ("doublecoset-oracle", "the two-argument value matches the coupled full-system solve", _oracle, None),
    ("doublecoset-multiplicative", "paired products multiply the two-argument values", _multiplicative, None),
    ("doublecoset-equivalence", "two-sided real orthogonal inner moves leave the value unchanged", _invariant, None),
    ("doublecoset-form-increase", "inside the bi-ball the split form never decreases",
     _at_value(_ball(0.9), _form_increase), 1e-10),
    ("doublecoset-pseudo-unitary", "unitary arguments preserve the split form",
     _at_value(_haar, _pseudo_unitary), None),
    ("doublecoset-symplectic", "symmetric arguments give values symplectic for the skew form",
     _at_value(_symmetric_ball, _symplectic), None),
    ("doublecoset-dilation", "congruence dilations of the arguments conjugate the value", _dilation, None),
    ("doublecoset-rational", "entries are rational of the sharp degree along each argument line",
     _rational, RATIONAL_FIT_TOL),
])


@_suite("doublecoset-transpose", "transposing both arguments inverts the skew-transposed value")
def _doublecoset_transpose(rng, dims, tol):
    fam, real, _, arity = _KINDS["doublecoset"].family(rng, dims, tol)

    def draw():
        (s, r), (chi,) = _KINDS["doublecoset"].args(rng, arity, [real], tol)
        (transposed,) = _evaluate([real], [s.T, r.T], tol)
        chi = _value(chi)
        _conditioned(chi, _FLOOR.surface_guard)
        return chi, _value(transposed)

    chi, transposed = _retrying(draw)
    skew = doublecoset.skew_form(fam.arity, fam.alpha)
    target = -skew @ np.linalg.inv(chi.T) @ skew
    return TrialResult(rel_defect(transposed, target))


def _adjoint_readings(fam, real, s, r, chi, tol) -> tuple[float, float]:
    """Relative defects of the reflection law chi(box(S)^{-1}, box(R)^{-1}) =
    box(chi)^{-1}, box(X) = J X* J for the signature form J, with box on the
    arguments read plain, then with an extra sign; ``chi`` is the value at
    ``(S, R)`` of the family ``fam`` realized as ``real``, and a reading
    whose point is singular is NaN."""
    na = fam.arity * fam.alpha
    jm = signature_form(na, na)
    target = np.linalg.inv(jm @ chi.conj().T @ jm)
    scale = max(1.0, op_norm(target))

    def reading(sign):
        try:
            args = np.linalg.inv(sign * s.conj().T), np.linalg.inv(sign * r.conj().T)
            return op_norm(realization.charvalue(real, args, tol).value - target) / scale
        except (OnEigensurface, np.linalg.LinAlgError):
            return float("nan")

    return reading(1.0), reading(-1.0)


@_suite(
    "doublecoset-adjoint-experiment",
    "observation: which adjoint sign convention the reflection law selects",
    aggregate=_observational,
)
def _doublecoset_adjoint_experiment(rng, dims, tol):
    fam, real, _, arity = _KINDS["doublecoset"].family(rng, dims, tol)

    def draw():
        (s, r), (chi,) = _KINDS["doublecoset"].args(rng, arity, [real], tol)
        return _adjoint_readings(fam, real, s, r, _value(chi), tol)

    plain, negated = _retrying(draw, OnEigensurface)
    detail = f"conjugate-transpose={plain:.3e} negated={negated:.3e}"
    return TrialResult(plain, detail)
