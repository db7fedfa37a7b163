import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from colligations import doublecoset, linalg, multi, realization, relations, verify, verify_matrix, verify_scalar
from colligations.errors import BadSplit, NearPole, OnEigensurface, RetriesExhausted
from colligations.linalg import Tolerances
from colligations.verify import Dims, _dc_dims, list_suites, run_suite


class TestRegistry:
    def test_suites_are_sorted_and_described(self):
        suites = list_suites()
        names = [s.name for s in suites]
        assert names == sorted(names)
        assert len(names) == len(set(names))
        assert all(s.describe for s in suites)

    def test_every_family_is_covered(self):
        names = {s.name for s in list_suites()}
        for prefix in ("charfun-", "multi-", "relation-", "conjugacy-", "doublecoset-"):
            assert any(name.startswith(prefix) for name in names)

    def test_each_suite_declares_its_budget(self):
        # A pinned budget is a float; None is ten times the residual tolerance.
        pinned = {s.name: s.budget for s in list_suites() if s.budget is not None}
        assert pinned == {
            "charfun-contractive": verify.EXPANSION_SLACK,
            "multi-expanding": verify.EXPANSION_SLACK,
            "conjugacy-expanding": verify.EXPANSION_SLACK,
            "doublecoset-form-increase": 1e-10,
            "pole-growth": 1e-9,
            "multi-rational": verify.RATIONAL_FIT_TOL,
            "doublecoset-rational": verify.RATIONAL_FIT_TOL,
            "relation-compose": verify.GRAPH_TOL,
            "relation-charfun-consistency": verify.GRAPH_TOL,
            "relation-containment": verify.CONTAINMENT_TOL,
            "relation-containment-surface": verify.CONTAINMENT_TOL,
            "spectrum-union": 0.5,
            "surface-consistency": 0.5,
            "relation-definiteness": 0.5,
            "conjugacy-dilation-control": verify.CONTROL_THRESHOLD,
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope", trials=1)

    def test_each_suite_is_registered_by_the_module_of_its_first_word(self):
        suites = list_suites()
        assert len(suites) == len(verify._SUITES) == 43
        for suite in suites:
            law = getattr(suite.run_trial, "func", suite.run_trial)  # a kind law is a partial
            assert law.__module__ == f"colligations.{verify._GROUPS[suite.name.split('-')[0]]}", suite.name

    def test_looking_up_a_suite_loads_no_other_suite_module(self):
        # One fresh process looks up a suite of each group in turn and lists
        # the suite modules loaded after each lookup.
        code = (
            "import sys\n"
            "from colligations import verify\n"
            "for name in ('pole-growth', 'relation-compose', 'single-vs-multi'):\n"
            "    assert verify._lookup(name).name == name\n"
            "    print(sorted(m for m in sys.modules if m.startswith('colligations.verify_')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).resolve().parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "['colligations.verify_scalar']",
            "['colligations.verify_relation', 'colligations.verify_scalar']",
            "['colligations.verify_matrix', 'colligations.verify_relation', 'colligations.verify_scalar']",
        ]

    def test_suites_call_the_samplers_through_linalg(self, monkeypatch):
        # A wrapper bound on ``linalg`` after the suite modules are loaded, as
        # a tracer binds one, must see the suites' draws.
        list_suites()
        calls = {}

        def count(name):
            sampler = getattr(linalg, name)
            calls[name] = 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return sampler(*args, **kwargs)

            monkeypatch.setattr(linalg, name, counted)

        count("sample_disc")
        count("sample_ball")
        for suite in ("charfun-multiplicative", "multi-expanding", "relation-definiteness"):
            run_suite(suite, trials=2, seed=0)
        assert calls["sample_disc"] > 0 and calls["sample_ball"] > 0, calls


class TestReports:
    def test_report_shape(self):
        report = run_suite("multi-oracle", trials=4, seed=1)
        obj = report.to_object()
        assert set(obj) == {"suite", "trials", "failures", "max_defect"}
        assert obj["suite"] == "multi-oracle"
        assert obj["trials"] == 4
        assert obj["failures"] == []
        assert obj["max_defect"] >= 0.0
        assert report.passed

    def test_deterministic_in_seed(self):
        first = run_suite("charfun-multiplicative", trials=6, seed=3)
        second = run_suite("charfun-multiplicative", trials=6, seed=3)
        assert first.to_object() == second.to_object()

    def test_different_seed_changes_defects(self):
        first = run_suite("multi-oracle", trials=4, seed=1)
        second = run_suite("multi-oracle", trials=4, seed=100)
        assert first.max_defect != second.max_defect

    def test_dims_are_honored(self):
        report = run_suite("conjugacy-oracle", trials=3, seed=0, dims=Dims(2, 2, 2))
        assert report.passed

    @pytest.mark.parametrize(
        "suite", ["surface-consistency", "spectrum-union", "relation-containment", "relation-containment-surface"]
    )
    def test_literal_size_caps_give_way_to_dims(self, monkeypatch, suite):
        # These suites cap some drawn sizes with a literal as well; the
        # smaller of the two must win.
        drawn = []
        random_multi, random_colligation = multi.random_multi, verify_scalar.random_colligation

        def drawn_multi(alpha, inner, arity, seed):
            drawn.append((alpha, inner, arity))
            return random_multi(alpha, inner, arity, seed)

        def drawn_colligation(alpha, inner, seed):
            drawn.append((alpha, inner))
            return random_colligation(alpha, inner, seed)

        monkeypatch.setattr(multi, "random_multi", drawn_multi)
        monkeypatch.setattr(verify_scalar, "random_colligation", drawn_colligation)
        assert run_suite(suite, trials=20, seed=0, dims=Dims(1, 1, 1)).passed
        assert drawn
        assert max(max(sizes) for sizes in drawn) == 1

    def test_failures_carry_trial_seeds(self):
        report = run_suite("charfun-contractive", trials=3, seed=5)
        assert report.passed
        # The failure-record contract is exercised through a synthetic run:
        # an impossible budget turns every trial into a failure record.
        from colligations.linalg import Tolerances

        tight = Tolerances(residual_tol=1e-300)
        failing = run_suite("multi-oracle", trials=3, seed=5, tol=tight)
        assert not failing.passed
        assert [f["seed"] for f in failing.failures] == [5, 6, 7]
        assert all({"trial", "seed", "defect", "budget"} <= set(f) for f in failing.failures)
        assert all(f["budget"] == 10.0 * 1e-300 for f in failing.failures)

    def test_nan_defect_fails(self, monkeypatch):
        name = "multi-oracle"
        nan = verify.TrialResult(float("nan"))
        monkeypatch.setitem(verify._SUITES, name, dataclasses.replace(verify._lookup(name), run_trial=lambda *_: nan))
        report = run_suite(name, trials=2, seed=0)
        assert [(f["trial"], f["budget"]) for f in report.failures] == [(0, 1e-8), (1, 1e-8)]

    @pytest.mark.parametrize(
        "evaluation_accepts, guard, detail",
        [
            # Evaluation accepts every point, and the guard flags none.
            (
                True,
                1e-300,
                "planted point not flagged by the singular-value test; "
                "planted point not flagged by the determinant test; planted point accepted by evaluation",
            ),
            # Evaluation rejects every point, and the guard flags the generic ones too.
            (False, 0.999, "generic point flagged by the determinant test; generic point rejected by evaluation"),
        ],
    )
    def test_surface_consistency_reports_every_disagreement(self, monkeypatch, evaluation_accepts, guard, detail):
        def charfun(mc, s, tol):
            if not evaluation_accepts:
                raise OnEigensurface(0.0, "rejected")

        monkeypatch.setattr(multi, "multi_charfun", charfun)
        report = run_suite("surface-consistency", trials=2, seed=0, tol=Tolerances(surface_guard=guard))
        assert report.failures == [
            {"trial": t, "seed": t, "defect": 1.0, "budget": 0.5, "detail": detail} for t in range(2)
        ]

    def test_relation_definiteness_reports_both_sides(self, monkeypatch):
        monkeypatch.setattr(relations, "form_on_subspace", lambda form, basis, tol: "indefinite")
        report = run_suite("relation-definiteness", trials=2, seed=0)
        detail = "constraint side classified indefinite; relation side classified indefinite"
        assert report.failures == [
            {"trial": t, "seed": t, "defect": 1.0, "budget": 0.5, "detail": detail} for t in range(2)
        ]

    def test_spectrum_union_reports_both_spectra(self, monkeypatch):
        planted = verify_scalar._expected_phase_spectrum
        expected = []

        def spectrum(*index_lists):
            expected.append(planted(*index_lists))
            return expected[-1]

        monkeypatch.setattr(verify_scalar, "_expected_phase_spectrum", spectrum)
        monkeypatch.setattr(verify_scalar, "unit_spectrum", lambda col, tol: [])
        report = run_suite("spectrum-union", trials=2, seed=0)
        assert report.failures == [
            {"trial": t, "seed": t, "defect": 1.0, "budget": 0.5, "detail": f"got [], expected {expected[t]}"}
            for t in range(2)
        ]
        assert all(expected)

    def test_pole_growth_reports_growth_under_the_factor(self, monkeypatch):
        # Every value has norm 1, so the blow-up toward the pole is flat.
        monkeypatch.setattr(verify_scalar, "op_norm", lambda m: 1.0)
        report = run_suite("pole-growth", trials=2, seed=0)
        defect = (verify.GROWTH_FACTOR - 1.0) / verify.GROWTH_FACTOR
        detail = "growth 1.00x over three halvings"
        assert report.failures == [
            {"trial": t, "seed": t, "defect": defect, "budget": 1e-9, "detail": detail} for t in range(2)
        ]

    def test_form_increase_reports_a_negative_increase(self, monkeypatch):
        # With the split form negated, every increase changes sign.
        form = verify_matrix.signature_form
        monkeypatch.setattr(verify_matrix, "signature_form", lambda plus, minus: -form(plus, minus))
        report = run_suite("doublecoset-form-increase", trials=2, seed=0)
        assert [(f["trial"], f["seed"], f["budget"]) for f in report.failures] == [(0, 0, 1e-10), (1, 1, 1e-10)]
        for failure in report.failures:
            assert failure["defect"] > 1e-10
            assert failure["detail"] == f"smallest increase {-failure['defect']:.3e}"


    def test_negative_control_that_never_fails_reports_one_failure(self, monkeypatch):
        # The law held on every trial: the control's aggregate must record it.
        name = "conjugacy-dilation-control"
        suite = verify._lookup(name)

        def held(rng, dims, tol):
            return verify.TrialResult(float(rng.uniform(0.0, 1e-4)))

        monkeypatch.setitem(verify._SUITES, name, dataclasses.replace(suite, run_trial=held))
        report = run_suite(name, trials=5, seed=4)
        worst = max(np.random.default_rng(4 + t).uniform(0.0, 1e-4) for t in range(5))
        message = (
            "the diagonal dilation law held on every coupled-slot instance; "
            "the slot coupling appears to be inert"
        )
        assert report.failures == [
            {"trial": -1, "seed": 4, "defect": worst, "budget": verify.CONTROL_THRESHOLD, "detail": message}
        ]
        assert report.max_defect == worst


class TestRealizations:
    def test_doublecoset_family_is_realized_once(self, monkeypatch):
        # Each member's transpose-inverse cross-check runs when its family is
        # realized, so more calls than members means a family realized twice.
        calls = []
        original = doublecoset.transpose_inverse

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(doublecoset, "transpose_inverse", counted)
        run_suite("doublecoset-rational", trials=1, seed=0)
        _, _, members = _dc_dims(np.random.default_rng(0), Dims())
        assert 0 < len(calls) <= members

    @pytest.mark.parametrize(
        "suite", ["doublecoset-dilation", "doublecoset-form-increase", "doublecoset-adjoint-experiment"]
    )
    def test_family_helpers_take_the_trial_realization(self, monkeypatch, suite):
        # The dilation and adjoint helpers and the form law evaluate through
        # the realization the trial built, so no member is realized twice.
        calls = []
        original = doublecoset.transpose_inverse

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(doublecoset, "transpose_inverse", counted)
        run_suite(suite, trials=1, seed=0)
        _, _, members = _dc_dims(np.random.default_rng(0), Dims())
        assert 0 < len(calls) <= members

    @staticmethod
    def _kernel_calls(monkeypatch, suite) -> int:
        """``realization.evaluate`` calls in one trial of ``suite`` at seed 0."""
        calls = []
        original = realization.evaluate

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(realization, "evaluate", counted)
        run_suite(suite, trials=1, seed=0)
        return len(calls)

    @pytest.mark.parametrize("suite, most", [("multi-rational", 2), ("doublecoset-rational", 4)])
    def test_rational_lines_are_evaluated_in_batches(self, monkeypatch, suite, most):
        # Each line's training points and its holdout points go through one
        # kernel call each, one line per argument.
        assert 0 < self._kernel_calls(monkeypatch, suite) <= most

    @pytest.mark.parametrize(
        "suite, most",
        [
            ("multi-dilation", 2),
            ("doublecoset-dilation", 2),
            ("doublecoset-form-increase", 2),
            ("doublecoset-adjoint-experiment", 3),
        ],
    )
    def test_drawn_point_is_evaluated_once(self, monkeypatch, suite, most):
        # The helper takes the value the draw computed at the drawn point and
        # evaluates only the other points its law needs.
        assert 0 < self._kernel_calls(monkeypatch, suite) <= most

    @pytest.mark.parametrize(
        "suite, calls",
        [
            ("product-welldefined", 2),
            ("charfun-multiplicative", 3),
            ("charfun-contractive", 1),
            ("charfun-conjugation-invariant", 2),
            ("padding-invariance", 2),
            ("pole-witness", 1),
            ("pole-growth", 1),
            ("charfun-reflection", 1),
        ],
    )
    def test_one_variable_points_are_evaluated_together(self, monkeypatch, suite, calls):
        # A trial draws its points first and evaluates each colligation at
        # all of them in one kernel call.
        assert self._kernel_calls(monkeypatch, suite) == calls

    @pytest.mark.parametrize(
        "suite",
        ["multi-dilation", "doublecoset-dilation", "doublecoset-form-increase", "doublecoset-adjoint-experiment"],
    )
    def test_value_held_as_an_error_is_raised_where_it_is_used(self, suite):
        # Under a surface guard above the draw floor, a drawn point the floor
        # accepts but the guard rejects has its value held as an error; the
        # dilation and adjoint laws draw again, the form law stops the suite.
        strict = Tolerances(surface_guard=0.5)
        if suite == "doublecoset-form-increase":
            with pytest.raises(OnEigensurface, match="arguments lie on the eigensurface"):
                run_suite(suite, trials=20, seed=0, tol=strict)
        else:
            with pytest.raises(RetriesExhausted):
                run_suite(suite, trials=20, seed=0, tol=strict)


class TestRedraw:
    @staticmethod
    def _scripted(outcomes):
        """A draw that raises or returns each of ``outcomes`` in turn, the
        last one from then on, and the list of its calls."""
        calls = []

        def draw():
            outcome = outcomes[min(len(calls), len(outcomes) - 1)]
            calls.append(outcome)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        return draw, calls

    def test_listed_error_is_drawn_again(self):
        draw, calls = self._scripted([NearPole(0.0, "pole"), verify._Retry(), BadSplit("split"), "kept"])
        assert verify._retrying(draw, NearPole, BadSplit) == "kept"
        assert len(calls) == 4

    def test_unlisted_error_escapes_the_first_draw(self):
        draw, calls = self._scripted([OnEigensurface(0.0, "surface"), "kept"])
        with pytest.raises(OnEigensurface):
            verify._retrying(draw, NearPole)
        assert len(calls) == 1

    def test_draw_that_always_fails_exhausts_the_budget(self):
        draw, calls = self._scripted([NearPole(0.0, "pole")])
        with pytest.raises(RetriesExhausted, match="exhausted retries while drawing a regular instance"):
            verify._retrying(draw, NearPole)
        assert len(calls) == verify._ATTEMPTS

    @pytest.mark.parametrize("offset", [0.0, 1e-5], ids=["on", "next-to"])
    @pytest.mark.parametrize("guard", [Tolerances().surface_guard, 0.5], ids=["default", "0.5"])
    def test_point_that_is_not_comfortably_regular_is_drawn_again(self, guard, offset):
        # mu I, with mu an eigenvalue of one member's d, lies on the
        # eigensurface, and mu I + 1e-5 I next to it: neither clears the floor
        # guard, so whatever guard the run sets, the point is drawn again.
        fam = multi.random_multi(2, 3, 2, 8)
        mu = np.linalg.eigvals(fam.members[1].d)[0]
        real = multi.multi_realization(fam)
        assert not realization.evaluate(real, [(mu + offset) * np.eye(2)[None]], verify._FLOOR)[2][0]
        with pytest.raises(verify._Retry):
            verify._evaluate([real], [(mu + offset) * np.eye(2)], Tolerances(surface_guard=guard))


class TestPolyval:
    @pytest.mark.parametrize("degree", range(8))
    def test_matches_numpy_polyval_bit_for_bit(self, degree):
        # The rational-fit suites evaluate their fitted polynomials without
        # loading numpy.polynomial; the values must not move by a bit.
        rng = np.random.default_rng(degree)
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        points = 0.7 * np.exp(2j * np.pi * (np.arange(2 * degree + 10) + rng.uniform()) / (2 * degree + 10))
        got, want = verify_matrix._polyval(points, coeffs), npoly.polyval(points, coeffs)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        for point in points:
            got, want = verify_matrix._polyval(point, coeffs), npoly.polyval(point, coeffs)
            assert (type(got), np.asarray(got).tobytes()) == (type(want), np.asarray(want).tobytes())
