import argparse
import ast
import contextlib
import copy
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import colligations
from colligations import cli
from colligations.cli import main
from colligations.colligation import Colligation, equivalent_probe
from colligations.documents import (
    KIND_TABLE,
    KINDS,
    SCHEMA_VERSION,
    Document,
    emit_document,
    load_document,
    matrix_to_json,
    random_document,
    save_document,
)
from colligations.linalg import DEFAULT_TOLERANCES, Tolerances, sigma_extremes
from colligations.realization import system

from families import SWAP, all_identity, in_fresh_process, swap_pair


@pytest.fixture()
def swap_doc(tmp_path):
    path = tmp_path / "swap.json"
    save_document(Document("colligation", Colligation(SWAP, 1), {"schema_version": SCHEMA_VERSION}), path)
    return str(path)


@pytest.fixture()
def swap_pair_doc(tmp_path):
    path = tmp_path / "swap_pair.json"
    save_document(Document("multi", swap_pair(), {"schema_version": SCHEMA_VERSION}), path)
    return str(path)


@pytest.fixture()
def all_identity_doc(tmp_path):
    path = tmp_path / "all_identity.json"
    save_document(Document("multi", all_identity(), {"schema_version": SCHEMA_VERSION}), path)
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def one_error_line(err: str) -> bool:
    return len([line for line in err.splitlines() if "error:" in line]) == 1 and "Traceback" not in err


def strict_records(out: str) -> list[dict]:
    """NDJSON records read by a parser that rejects NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return [json.loads(line, parse_constant=reject) for line in out.splitlines()]


class TestValidate:
    def test_valid_document(self, capsys, swap_doc):
        assert run(capsys, "validate", swap_doc)[0] == 0

    def test_non_unitary(self, capsys, tmp_path, swap_doc):
        doc = json.loads(open(swap_doc).read())
        doc["payload"]["matrix"][0][0] = [2.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", bad)
        assert code == 2
        assert "NotUnitary" in err

    def test_truncated(self, capsys, tmp_path):
        bad = tmp_path / "trunc.json"
        bad.write_text('{"kind": "colligation"')
        assert run(capsys, "validate", bad)[0] == 1

    def test_missing_file(self, capsys, tmp_path):
        assert run(capsys, "validate", tmp_path / "absent.json")[0] == 1


class TestProduct:
    def test_swap_squared_evaluates_to_square(self, capsys, tmp_path, swap_doc):
        out = tmp_path / "squared.json"
        assert run(capsys, "product", swap_doc, swap_doc, "--out", out)[0] == 0
        code, text, _ = run(capsys, "eval", out, "--point", "0.5")
        assert code == 0
        (record,) = records(text)
        npt.assert_allclose(np.array(record["value"]), [[[0.25, 0.0]]], atol=1e-12)

    def test_identity_factor_is_neutral(self, capsys, tmp_path, swap_doc):
        ident = tmp_path / "ident.json"
        save_document(Document("colligation", Colligation(np.eye(2), 1), {"schema_version": SCHEMA_VERSION}), ident)
        out = tmp_path / "combined.json"
        assert run(capsys, "product", swap_doc, ident, "--out", out)[0] == 0
        combined = load_document(out).payload
        assert equivalent_probe(combined, load_document(swap_doc).payload)

    def test_kind_mismatch(self, capsys, swap_doc, swap_pair_doc):
        assert run(capsys, "product", swap_doc, swap_pair_doc)[0] == 3

    def test_exposed_dimension_mismatch(self, capsys, tmp_path):
        first, second = tmp_path / "a1.json", tmp_path / "a2.json"
        assert run(capsys, "random", "colligation", "--alpha", 1, "--out", first)[0] == 0
        assert run(capsys, "random", "colligation", "--alpha", 2, "--out", second)[0] == 0
        code, out, err = run(capsys, "product", first, second)
        assert (code, out) == (3, "")
        assert one_error_line(err) and "error: exposed dimensions differ: 1 vs 2" in err

    @pytest.mark.parametrize("kind", ["multi", "doublecoset"])
    def test_family_product_keeps_the_kind(self, capsys, tmp_path, kind):
        # Both kinds hold the same family type; the kind must come from the
        # operands, not from the type of the product.
        first, second, out = (tmp_path / name for name in ("x.json", "y.json", "xy.json"))
        assert run(capsys, "random", kind, "--seed", 3, "--out", first)[0] == 0
        assert run(capsys, "random", kind, "--seed", 4, "--out", second)[0] == 0
        assert run(capsys, "product", first, second, "--out", out)[0] == 0
        assert json.loads(out.read_text())["kind"] == kind
        assert run(capsys, "validate", out)[0] == 0
        assert load_document(out).payload.inner == 4


class TestEval:
    def test_swap_at_half(self, capsys, swap_doc):
        code, out, _ = run(capsys, "eval", swap_doc, "--point", "0.5")
        assert code == 0
        (record,) = records(out)
        assert record == {
            "point": [0.5, 0.0],
            "regular": True,
            "sigma_min": 1.0,
            "value": [[[0.5, 0.0]]],
        }

    def test_swap_pair_inverts(self, capsys, swap_pair_doc):
        point = json.dumps([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
        code, out, _ = run(capsys, "eval", swap_pair_doc, "--point", point)
        assert code == 0
        (record,) = records(out)
        value = np.array(record["value"])[:, :, 0]
        npt.assert_allclose(value, SWAP, atol=1e-12)

    def test_identity_family_singular_at_identity(self, capsys, all_identity_doc):
        point = json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
        code, out, _ = run(capsys, "eval", all_identity_doc, "--point", point)
        assert code == 4
        (record,) = records(out)
        assert record["regular"] is False
        assert record["value"] is None

    def test_variable_must_match_kind(self, capsys, swap_doc):
        assert run(capsys, "eval", swap_doc, "--variable", "S", "--point", "0.5")[0] == 3

    def test_wrong_matrix_shape(self, capsys, swap_pair_doc):
        assert run(capsys, "eval", swap_pair_doc, "--point", "[[[0.5,0.0]]]")[0] == 3

    def test_point_and_grid_are_exclusive(self, capsys, swap_doc):
        code = run(capsys, "eval", swap_doc, "--point", "0.5", "--grid", '{"type":"disc","resolution":3}')[0]
        assert code == 1
        assert run(capsys, "eval", swap_doc)[0] == 1

    def test_disc_grid_rows_are_deterministic(self, capsys, swap_doc):
        grid = '{"type":"disc","resolution":5,"radius":1.0}'
        code, out, _ = run(capsys, "eval", swap_doc, "--grid", grid)
        assert code == 0
        rows = records(out)
        # 13 lattice points of the 5x5 grid lie inside the unit disc.
        assert len(rows) == 13
        assert rows[0]["point"] == [0.0, -1.0]
        assert rows[-1]["point"] == [0.0, 1.0]

    def test_segment_grid_on_matrices(self, capsys, swap_pair_doc):
        base = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        direction = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        grid = json.dumps(
            {"type": "segment", "base": base, "direction": direction,
             "t_min": 0.5, "t_max": 2.0, "resolution": 4}
        )
        code, out, _ = run(capsys, "eval", swap_pair_doc, "--grid", grid)
        assert code == 0
        rows = records(out)
        assert [r["point"] for r in rows] == [[0.5, 0.0], [1.0, 0.0], [1.5, 0.0], [2.0, 0.0]]
        for r in rows:
            t = r["point"][0]
            npt.assert_allclose(np.array(r["value"])[:, :, 0], np.eye(2) / t, atol=1e-9)

    def test_ball_grid_counts_and_labels(self, capsys, swap_pair_doc):
        grid = '{"type":"ball","count":3,"seed":9,"radius":0.8}'
        code, out, _ = run(capsys, "eval", swap_pair_doc, "--grid", grid)
        assert code == 0
        rows = records(out)
        assert [r["point"] for r in rows] == [0, 1, 2]

    def test_disc_grid_needs_scalar_documents(self, capsys, swap_pair_doc):
        code = run(capsys, "eval", swap_pair_doc, "--grid", '{"type":"disc","resolution":3}')[0]
        assert code == 3

    def test_thread_count_does_not_change_bytes(self, capsys, swap_doc):
        grid = '{"type":"disc","resolution":21,"radius":0.9}'
        outputs = []
        for threads in (1, 2, 8):
            code, out, _ = run(capsys, "eval", swap_doc, "--grid", grid, "--threads", threads)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_doublecoset_needs_fixed(self, capsys, tmp_path):
        path = tmp_path / "dc.json"
        assert run(capsys, "random", "doublecoset", "--seed", 1, "--out", path)[0] == 0
        point = json.dumps(np.zeros((2, 2, 2)).tolist())
        assert run(capsys, "eval", path, "--point", point)[0] == 3
        code, out, _ = run(capsys, "eval", path, "--point", point, "--fixed", point)
        assert code == 0
        assert records(out)[0]["regular"] is True

    @pytest.mark.parametrize("kind", [[1], {}, None, 3])
    def test_grid_type_must_be_a_name(self, capsys, swap_doc, kind):
        grid = json.dumps({"type": kind, "resolution": 3})
        code, out, err = run(capsys, "eval", swap_doc, "--grid", grid)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ('{"type":"ball","count":2,"radius":"x"}', "radius must be a number"),
            ('{"type":"ball","count":2,"radius":0}', "radius must be positive and finite"),
            ('{"type":"ball","count":2,"radius":1e999}', "radius must be positive and finite"),
            ('{"type":"ball","count":2,"radius":1%s}' % ("0" * 399), "radius must be positive and finite"),
            ('{"type":"disc","resolution":3,"foo":1}', "unknown keys ['foo'] for type 'disc'"),
        ],
        ids=["text", "zero", "infinite", "huge-integer", "unknown-key"],
    )
    def test_bad_grid_value_is_one_error_line(self, capsys, swap_doc, swap_pair_doc, grid, message):
        doc = swap_doc if '"disc"' in grid else swap_pair_doc
        code, out, err = run(capsys, "eval", doc, "--grid", grid)
        assert (code, out) == (1, "")
        assert one_error_line(err) and f"error: grid: {message}" in err

    @pytest.mark.parametrize("command", ["eval", "surface"])
    def test_doublecoset_realized_under_an_impossible_residual_is_a_mismatch(self, capsys, tmp_path, command):
        # The realization's transpose-inverse cross-check cannot pass a residual budget of 1e-300.
        path = tmp_path / "dc.json"
        assert run(capsys, "random", "doublecoset", "--seed", 1, "--out", path)[0] == 0
        point = json.dumps(np.zeros((2, 2, 2)).tolist())
        code, out, err = run(capsys, command, path, "--point", point, "--fixed", point, "--tol-residual", "1e-300")
        assert (code, out) == (3, "")
        assert one_error_line(err) and "error: transpose-inverse shortcut disagrees with direct solve" in err

    def test_negative_exponent_point_is_attached_with_equals(self, capsys, swap_doc):
        # argparse takes "-1e5" for an option; "--point=-1e5" passes it as a value.
        code, out, err = run(capsys, "eval", swap_doc, "--point=-1e5")
        assert (code, err) == (0, "")
        (record,) = records(out)
        assert record["point"] == [-1e5, 0.0] and record["value"] == [[[-1e5, 0.0]]]
        code, out, err = run(capsys, "eval", swap_doc, "--point", "-1e5")
        assert (code, out) == (1, "") and one_error_line(err)

    @pytest.mark.parametrize("resolution, radius", [(5, 1.7e308), (2, 1e308), (100, 1e307), (10**400, 1.0)])
    def test_disc_lattice_that_overflows_is_rejected(self, capsys, swap_doc, resolution, radius):
        # 2.0 * radius * (resolution - 1) is not finite: the lattice would
        # hold inf and NaN coordinates and sweep none or part of the disc.
        # A resolution too large for a float raises OverflowError there.
        grid = json.dumps({"type": "disc", "resolution": resolution, "radius": radius})
        code, out, err = run(capsys, "eval", swap_doc, "--grid", grid)
        assert (code, out) == (1, "")
        assert one_error_line(err) and "error: grid: the disc lattice overflows a float" in err

    def test_disc_lattice_too_large_to_index_is_rejected(self, capsys, tmp_path, swap_doc):
        # The span is finite, but resolution**2 points cannot be indexed.
        grid = json.dumps({"type": "disc", "resolution": 10**30, "radius": 1e-300})
        target = tmp_path / "out.ndjson"
        code, out, err = run(capsys, "eval", swap_doc, "--grid", grid, "--out", target)
        assert (code, out) == (1, "")
        assert one_error_line(err) and "error: grid: the disc lattice has more points" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "resolution, radius, points",
        [
            (3, 4e307, [[0.0, -4e307], [-4e307, 0.0], [0.0, 0.0], [4e307, 0.0], [0.0, 4e307]]),
            (1, 1.7e308, [[0.0, 0.0]]),
        ],
    )
    def test_disc_lattice_of_a_finite_span_is_swept(self, capsys, swap_doc, resolution, radius, points):
        grid = json.dumps({"type": "disc", "resolution": resolution, "radius": radius})
        code, out, err = run(capsys, "eval", swap_doc, "--grid", grid)
        assert (code, err) == (0, "")
        assert [record["point"] for record in records(out)] == points

    def test_segment_parses_both_ends_before_checking_shapes(self, capsys, swap_pair_doc):
        # A base of the wrong size is a mismatch (3), but only once the
        # direction has parsed: a direction that is not a matrix is a parse error.
        grid = json.dumps(
            {"type": "segment", "base": [[[0.5, 0.0]]], "direction": "x", "t_min": 0, "t_max": 1, "resolution": 2}
        )
        code, out, err = run(capsys, "eval", swap_pair_doc, "--grid", grid)
        assert (code, out) == (1, "")
        assert one_error_line(err)
        assert "grid direction" in err

    @pytest.mark.parametrize(
        "kind, command",
        [("colligation", "eval"), ("multi", "eval"), ("multi", "surface"), ("tri", "eval"), ("tri", "surface")],
    )
    def test_fixed_is_rejected_for_one_argument_kinds(self, capsys, tmp_path, kind, command):
        path = tmp_path / "doc.json"
        assert run(capsys, "random", kind, "--seed", 1, "--out", path)[0] == 0
        point = "0.5" if kind == "colligation" else json.dumps(np.zeros((2, 2, 2)).tolist())
        fixed = json.dumps(np.zeros((2, 2, 2)).tolist())
        code, out, err = run(capsys, command, path, "--point", point, "--fixed", fixed)
        assert (code, out) == (3, "")
        assert one_error_line(err)


class TestSurface:
    def test_segment_determinant_profile(self, capsys, swap_pair_doc):
        base = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        direction = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        grid = json.dumps(
            {"type": "segment", "base": base, "direction": direction,
             "t_min": 0.0, "t_max": 2.0, "resolution": 5}
        )
        code, out, _ = run(capsys, "surface", swap_pair_doc, "--grid", grid)
        assert code == 0
        rows = records(out)
        assert len(rows) == 5
        for row in rows:
            t = row["point"][0]
            assert row["abs_det"] == pytest.approx(t * t, abs=1e-12)

    def test_identity_family_vanishes_at_identity(self, capsys, all_identity_doc):
        point = json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
        code, out, _ = run(capsys, "surface", all_identity_doc, "--point", point)
        assert code == 0
        (row,) = records(out)
        assert row["abs_det"] == pytest.approx(0.0, abs=1e-12)
        assert row["sigma_min"] == pytest.approx(0.0, abs=1e-12)

    def test_far_point_is_regular(self, capsys, all_identity_doc):
        point = json.dumps([[[5.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5.0, 0.0]]])
        code, out, _ = run(capsys, "surface", all_identity_doc, "--point", point)
        assert code == 0
        assert records(out)[0]["sigma_min"] > 1e-8

    def test_colligations_have_no_surface(self, capsys, swap_doc):
        assert run(capsys, "surface", swap_doc, "--point", "0.5")[0] == 3


class TestVerify:
    def test_suite_runs_and_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "multi-oracle", "--trials", 5, "--seed", 1)
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "multi-oracle"
        assert report["trials"] == 5
        assert report["failures"] == []

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "nope")[0] == 3

    def test_negative_control_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "conjugacy-dilation-control", "--trials", 6)
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_property_failure_exit(self, capsys):
        code, out, _ = run(
            capsys, "verify", "multi-oracle", "--trials", 3, "--tol-residual", "1e-300"
        )
        assert code == 5
        assert len(json.loads(out)["failures"]) == 3

    def test_list_mode(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == 0
        # Pins every suite name and description of the registry.
        assert len(out.splitlines()) == 43
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "9521649e83addf3ca36a1f1e0a73ba38d886b11de5ba5141b5a18d74fb25c3e7"
        # --out takes the list in place of stdout.
        assert run(capsys, "verify", "--list", "--out", tmp_path / "list.txt") == (0, "", "")
        assert (tmp_path / "list.txt").read_text(encoding="utf-8") == out

    @pytest.mark.parametrize(
        "argv",
        [
            ("multi-oracle", "--tol-surface-guard", 0.5, "OnEigensurface"),
            ("charfun-reflection", "--tol-surface-guard", 0.9, "NearPole"),
            ("doublecoset-oracle", "--tol-residual", 1e-300, "NotUnitary"),
            ("relation-containment", "--tol-rank", 0.9, "RetriesExhausted"),
            ("pole-growth", "--tol-surface-guard", 0.5, "RetriesExhausted"),
        ],
    )
    def test_suite_that_cannot_finish_is_one_error_line(self, capsys, argv):
        # The line names the error that stopped the suite: a suite draws again
        # only on the errors it lists, so a redraw must not swallow these.
        suite, flag, value, error = argv
        code, out, err = run(capsys, "verify", suite, "--trials", 2, flag, value)
        assert (code, out) == (5, "")
        assert one_error_line(err)
        assert f"error: suite {suite}: {error}: " in err

    @pytest.mark.parametrize(
        "suite, guard, code",
        [
            ("multi-multiplicative", 0.03, 5),
            ("doublecoset-pseudo-unitary", 0.1, 5),
            ("single-vs-multi", 0.3, 0),
            ("multi-oracle", 0.5, 5),
            ("conjugacy-oracle", 0.5, 5),
            ("doublecoset-oracle", 0.5, 5),
        ],
    )
    def test_surface_guard_above_the_draw_floor(self, capsys, suite, guard, code):
        # Draws are kept where the relative sigma_min clears 1e-3; a stricter
        # guard rejects a kept draw only where the law uses its value, after
        # the draw's own retry checks (single-vs-multi retries on a pole of
        # the one-variable side first).  The error is the one the kind's
        # public function raises at that point.
        got, out, err = run(capsys, "verify", suite, "--trials", 30, "--seed", 0, "--tol-surface-guard", guard)
        assert got == code
        if code == 5:
            message = "arguments lie" if suite.startswith("doublecoset") else "argument lies"
            assert out == ""
            assert one_error_line(err)
            assert f"suite {suite}: OnEigensurface: {message} on the eigensurface (sigma_min=" in err

    def test_suite_name_required(self, capsys):
        assert run(capsys, "verify")[0] == 3

    def test_threads_flag_is_accepted_and_changes_nothing(self, capsys):
        argv = ("verify", "doublecoset-oracle", "--trials", 6, "--seed", 4)
        results = [run(capsys, *argv, *extra) for extra in ((), ("--threads", 1), ("--threads", 4))]
        assert results[0][0] == 0
        assert results[0] == results[1] == results[2]


class TestRandom:
    def test_deterministic_bytes(self, capsys):
        first = run(capsys, "random", "tri", "--seed", 5)
        second = run(capsys, "random", "tri", "--seed", 5)
        assert first == second
        assert first[0] == 0

    def test_output_validates(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        assert run(capsys, "random", "multi", "--seed", 2, "--arity", 3, "--out", path)[0] == 0
        assert run(capsys, "validate", path)[0] == 0
        assert load_document(path).payload.arity == 3

    def test_unknown_kind_is_a_usage_error(self, capsys):
        assert run(capsys, "random", "widget")[0] == 1

    @pytest.mark.parametrize("kind", ["colligation", "multi", "tri", "doublecoset"])
    @pytest.mark.parametrize("flag", ["--alpha", "--inner", "--arity"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_non_positive_dimension_is_a_usage_error(self, capsys, kind, flag, value):
        code, out, err = run(capsys, "random", kind, flag, value)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    @pytest.mark.parametrize("kind", ["colligation", "multi", "tri", "doublecoset"])
    def test_negative_seed_is_a_usage_error(self, capsys, kind):
        code, out, err = run(capsys, "random", kind, "--seed", -1)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    def test_dimensions_too_large_for_memory(self, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "random_document", no_memory)
        code, out, err = run(capsys, "random", "multi", "--inner", 100000)
        assert (code, out) == (1, "")
        assert one_error_line(err)


_TOO_LONG = "1" * 5000  # more digits than Python converts to an int
_TOO_DEEP = "[" * 3000 + "]" * 3000  # deeper than the JSON decoder can recurse


class TestUnparsableJson:
    @pytest.mark.parametrize(
        "content", [b"\xff{}", _TOO_LONG.encode(), _TOO_DEEP.encode()], ids=["not-utf8", "long-integer", "deep"]
    )
    def test_document(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    @pytest.mark.parametrize("text", [_TOO_LONG, _TOO_DEEP], ids=["long-integer", "deep"])
    @pytest.mark.parametrize("flag", ["--point", "--grid", "--fixed"])
    def test_argument(self, capsys, tmp_path, flag, text):
        # In process, so no limit on the length of a command line applies.
        path = tmp_path / "dc.json"
        assert run(capsys, "random", "doublecoset", "--seed", 1, "--out", path)[0] == 0
        point = json.dumps(np.zeros((2, 2, 2)).tolist())
        # The flag under test holds the text; the others hold a valid point.
        arguments = {"--grid" if flag == "--grid" else "--point": point, "--fixed": point, flag: text}
        code, out, err = run(capsys, "eval", path, *(item for pair in arguments.items() for item in pair))
        assert (code, out) == (1, "")
        assert one_error_line(err)
        assert f"error: {flag}: invalid JSON" in err


# Each case: the kind of document it starts from, and the message it must give.
_MALFORMED = {
    "infinite-entry": ("colligation", "colligation payload: entries must be finite"),
    "missing-key": ("colligation", "colligation payload: missing key 'inner'"),
    "payload-not-an-object": ("colligation", "payload must be an object"),
    "no-members": ("multi", "multi payload: 'members' must be a non-empty list"),
    "tri-split": ("tri", "tri payload: matrix shape (5, 5) does not match the split"),
    "not-an-object": ("colligation", "document must be a JSON object"),
    "zero-alpha": ("colligation", "colligation payload: 'alpha' must be a positive integer"),
    "boolean-inner": ("multi", "multi payload: 'inner' must be a positive integer"),
    "string-slot-dim": ("tri", "tri payload: 'p' must be a positive integer"),
}


def _malformed(doc: dict, case: str):
    """``doc`` made malformed as ``case`` says."""
    payload = doc["payload"]
    if case == "infinite-entry":
        payload["matrix"][0][0] = [float("inf"), 0.0]
    elif case == "missing-key":
        del payload["inner"]
    elif case == "payload-not-an-object":
        doc["payload"] = [payload]
    elif case == "no-members":
        payload["members"] = []
    elif case == "tri-split":
        payload["matrix"] = [row[:-1] for row in payload["matrix"][:-1]]
    elif case == "not-an-object":
        return [doc]
    elif case == "zero-alpha":
        payload["alpha"] = 0
    elif case == "boolean-inner":
        payload["inner"] = True
    elif case == "string-slot-dim":
        payload["p"] = "2"
    return doc


class TestMalformedDocument:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_is_one_parse_error_line(self, capsys, tmp_path, case):
        kind, message = _MALFORMED[case]
        path = tmp_path / f"{kind}.json"
        assert run(capsys, "random", kind, "--seed", 1, "--out", path)[0] == 0
        # json.dumps writes an infinite float as the JavaScript literal Infinity.
        path.write_text(json.dumps(_malformed(json.loads(path.read_text()), case)))
        code, out, err = run(capsys, "validate", path)
        assert (code, out, err) == (1, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("point", ["Infinity", "[0.5, -Infinity]", "NaN"])
    def test_non_finite_point_is_one_parse_error_line(self, capsys, swap_doc, point):
        code, out, err = run(capsys, "eval", swap_doc, "--point", point)
        assert (code, out, err) == (1, "", "error: --point: entries must be finite\n")


_DIAGONAL_POINT = json.dumps([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])


def _writing_argv(command: str, doc: str) -> list:
    """A small run of ``command`` that succeeds when its output can be written."""
    return {
        "random": ["random", "multi"],
        "product": ["product", doc, doc],
        "eval": ["eval", doc, "--point", _DIAGONAL_POINT],
        "surface": ["surface", doc, "--point", _DIAGONAL_POINT],
        "verify": ["verify", "multi-oracle", "--trials", 1],
        "verify-list": ["verify", "--list"],
    }[command]


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["random", "product", "eval", "surface", "verify", "verify-list"])
    @pytest.mark.parametrize("target", ["directory", "missing-parent", "/dev/full"])
    def test_is_one_error_line(self, capsys, tmp_path, swap_pair_doc, command, target):
        if target == "/dev/full" and not os.path.exists(target):
            pytest.skip("no /dev/full on this system")
        out_path = {"directory": tmp_path, "missing-parent": tmp_path / "missing" / "out"}.get(target, target)
        code, out, err = run(capsys, *_writing_argv(command, swap_pair_doc), "--out", out_path)
        assert (code, out) == (1, "")
        assert one_error_line(err)
        assert "--out" in err

    def test_broken_pipe_still_exits_zero(self, capsys, tmp_path, monkeypatch):
        def broken_pipe(*args, **kwargs):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "emit_document", broken_pipe)
        code, _, err = run(capsys, "random", "multi", "--out", tmp_path / "doc.json")
        assert (code, err) == (0, "")


def _cli_process(stdout, *argv) -> subprocess.CompletedProcess:
    """The command line in a subprocess whose stdout is buffered, so that a
    short output reaches ``stdout`` only when it is flushed."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(colligations.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "colligations.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def test_module_entry_point_reports_sweep_errors(swap_doc):
    # Under ``python -m colligations.cli`` an error raised in the sweep module
    # is still one that main reports.
    result = _cli_process(subprocess.PIPE, "eval", swap_doc, "--point", "[1, 2, 3]")
    assert result.returncode == 1 and one_error_line(result.stderr)
    assert "error: --point: expected a number or an [re, im] pair" in result.stderr


class TestStdoutWriteErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("random", "multi"),
            ("verify", "--list"),
            ("verify", "multi-oracle", "--trials", "1"),
            ("--help",),
            ("verify", "--help"),
        ],
    )
    def test_full_device_is_one_error_line(self, argv):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            result = _cli_process(full, *argv)
        assert result.returncode == 1, result.stderr
        assert one_error_line(result.stderr)
        assert "stdout" in result.stderr

    @staticmethod
    def _into_closed_pipe(*argv) -> subprocess.CompletedProcess:
        read, write = os.pipe()
        os.close(read)
        try:
            return _cli_process(write, *argv)
        finally:
            os.close(write)

    def test_closed_pipe_exits_zero(self):
        result = self._into_closed_pipe("verify", "--list")
        assert (result.returncode, result.stderr) == (0, "")

    def test_closed_pipe_after_help_exits_zero(self):
        result = self._into_closed_pipe("--help")
        assert (result.returncode, result.stderr) == (0, "")


class TestBadNumbers:
    def test_huge_integer_point(self, capsys, swap_doc):
        code, out, err = run(capsys, "eval", swap_doc, "--point", "1" + "0" * 400)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    def test_huge_integer_in_document(self, capsys, tmp_path, swap_doc):
        doc = json.loads(open(swap_doc).read())
        doc["payload"]["matrix"][0][0] = [10**400, 0]
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", bad)
        assert code == 1
        assert one_error_line(err)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["validate", "eval", "product"])
    def test_finite_entry_whose_gram_matrix_overflows_is_not_unitary(self, capsys, tmp_path, command):
        path = tmp_path / "c.json"
        assert run(capsys, "random", "colligation", "--seed", 1, "--alpha", 1, "--inner", 1, "--out", path)[0] == 0
        doc = json.loads(path.read_text())
        doc["payload"]["matrix"][0][0] = [-1e308, 0.0]
        path.write_text(json.dumps(doc))
        argv = {"validate": [path], "eval": [path, "--point", "0.5"], "product": [path, path]}[command]
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: NotUnitary: colligation matrix is not unitary (defect inf > 1.0e-10)\n"

    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_threads(self, capsys, swap_doc, value):
        code, out, err = run(capsys, "eval", swap_doc, "--point", "0.5", "--threads", value)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("random", "multi", "--inner", 10000000000000000000),
            ("random", "tri", "--arity", 4611686018427387904),
            ("verify", "charfun-contractive", "--trials", 1, "--max-inner", 100000000),
            ("verify", "charfun-contractive", "--trials", 1, "--max-inner", 4611686018427387904),
            ("verify", "charfun-contractive", "--trials", 1, "--max-inner", 10000000000000000000),
        ],
    )
    def test_dimensions_too_large_to_allocate(self, capsys, argv):
        # Each size is past int64 or past the address space (the --max-inner
        # 10**8 draw asks for 28.8 PiB), so numpy refuses it before allocating.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    @pytest.mark.parametrize("flag", ["--max-alpha", "--max-inner", "--max-arity", "--trials"])
    def test_non_positive_verify_bound(self, capsys, flag):
        code, out, err = run(capsys, "verify", "multi-oracle", "--trials", 1, flag, 0)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    def test_negative_verify_seed(self, capsys):
        code, out, err = run(capsys, "verify", "multi-oracle", "--trials", 1, "--seed", -1)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    def test_negative_grid_seed(self, capsys, swap_pair_doc):
        grid = '{"type":"ball","count":2,"seed":-1}'
        code, out, err = run(capsys, "eval", swap_pair_doc, "--grid", grid)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    @pytest.mark.parametrize("kind", ["colligation", "multi", "tri", "doublecoset"])
    @pytest.mark.parametrize("command", ["eval", "surface"])
    @pytest.mark.parametrize("scale", [1e308, 1.7e308])
    def test_huge_point_writes_strict_json(self, capsys, tmp_path, kind, command, scale):
        path = tmp_path / "doc.json"
        assert run(capsys, "random", kind, "--seed", 3, "--out", path)[0] == 0
        if kind == "colligation":
            argv = ["--point", json.dumps([scale, scale])]
        else:
            point = json.dumps([[[scale, scale], [scale, -scale]], [[-scale, scale], [scale, scale]]])
            argv = ["--point", point] + (["--fixed", point] if kind == "doublecoset" else [])
        code, out, err = run(capsys, command, path, *argv)
        if command == "surface" and kind == "colligation":
            assert code == 3
            return
        assert code in (0, 4)
        assert err == ""
        (record,) = strict_records(out)
        if command == "surface":
            assert record["abs_det"] is None

    def test_overflowing_segment_parameter(self, capsys, swap_doc):
        grid = '{"type":"segment","base":0,"direction":1,"t_min":-1e308,"t_max":1e308,"resolution":3}'
        code, out, err = run(capsys, "eval", swap_doc, "--grid", grid)
        assert (code, out) == (1, "")
        assert one_error_line(err)

    @pytest.mark.filterwarnings("error")  # a warning would print to stderr outside pytest
    def test_segment_points_that_overflow_are_not_regular_without_a_warning(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        assert run(capsys, "random", "multi", "--seed", 3, "--out", path)[0] == 0
        big = [[[1.7e308, 1.7e308], [1.7e308, -1.7e308]], [[-1.7e308, 1.7e308], [1.7e308, 1.7e308]]]
        grid = {"type": "segment", "base": big, "direction": big, "t_min": -1, "t_max": 1, "resolution": 5}
        code, out, err = run(capsys, "eval", path, "--grid", json.dumps(grid))
        assert (code, err) == (0, "")
        # At t = -1 the point is exactly 0; past it, base + t * direction
        # overflows.  At t = -0.5 and 0 the system is finite but its largest
        # singular value is not, and sigma_min is linalg.sigma_extremes's,
        # read off the rescaled SVD; the true one is 0.386, so it is rounding
        # noise below eps * sigma_max and neither point is regular.
        lines = out.splitlines()
        assert json.loads(lines[0])["regular"] is True
        assert lines[1:] == [
            '{"point":[-0.5,0.0],"regular":false,"sigma_min":7.056361085187291e+291,"value":null}',
            '{"point":[0.0,0.0],"regular":false,"sigma_min":1.4112722170374583e+292,"value":null}',
            '{"point":[0.5,0.0],"regular":false,"sigma_min":null,"value":null}',
            '{"point":[1.0,0.0],"regular":false,"sigma_min":null,"value":null}',
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["multi", "tri", "doublecoset"])
    def test_point_whose_largest_singular_value_overflows(self, capsys, tmp_path, kind):
        # The system is finite, but a singular value exceeds the float range.
        # surface reports sigma_min as linalg.sigma_extremes does, and eval
        # (from the SVD with vectors) agrees but for the last bits; inf is
        # written null.  For multi and tri, S - D is 1x1 and chi(S) -> A as S
        # grows, so the point is regular with the value at 1e308 (1 + i); the
        # double-coset system holds an identity block beside S and is singular.
        path = tmp_path / "doc.json"
        assert run(capsys, "random", kind, "--seed", 3, "--alpha", 1, "--inner", 1, "--arity", 1, "--out", path)[0] == 0
        point, fixed = np.array([[1.5e308 + 1.5e308j]]), np.array([[0.3 + 0j]])
        args = [point, fixed] if kind == "doublecoset" else [point]
        argv = []
        for flag, arg in zip(["--point", "--fixed"], args):
            argv += [flag, json.dumps(matrix_to_json(arg))]
        real = KIND_TABLE[kind].realize(load_document(path).payload, DEFAULT_TOLERANCES)
        want = sigma_extremes(system(real, [arg[None] for arg in args])[0])[0]
        want = None if math.isinf(want) else want
        code, out, err = run(capsys, "surface", path, *argv)
        assert (code, err) == (0, "") and strict_records(out)[0]["sigma_min"] == want
        code, out, err = run(capsys, "eval", path, *argv)
        (record,) = strict_records(out)
        assert err == "" and record["sigma_min"] == (None if want is None else pytest.approx(want, rel=1e-14))
        if kind == "doublecoset":
            assert code == 4 and record["regular"] is False and want is not None
        else:
            assert code == 0 and record["regular"] is True
            near = strict_records(run(capsys, "eval", path, "--point", "[[[1e308,1e308]]]")[1])[0]
            npt.assert_allclose(record["value"], near["value"], rtol=1e-12)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sigma_min_is_never_negative_zero(self, capsys, tmp_path, threads):
        # LAPACK's SVD with vectors gives -0.0 at some of these points, where
        # the values-only SVD gives 0.0.
        path = tmp_path / "doc.json"
        save_document(random_document("doublecoset", 3), path)
        grid = '{"type":"ball","count":40,"seed":4,"radius":1.7e308}'
        fixed = json.dumps(matrix_to_json(0.3 * np.eye(2)))
        code, out, err = run(capsys, "eval", path, "--threads", threads, "--grid", grid, "--fixed", fixed)
        assert (code, err) == (4, "")
        zeros = [r["sigma_min"] for r in strict_records(out) if r["sigma_min"] == 0.0]
        assert zeros and not any(math.copysign(1.0, zero) < 0 for zero in zeros)

    def test_overflowing_value_is_not_regular(self, capsys, swap_pair_doc):
        # chi(S) = S^-1 for the swap pair; at S = 1e-310 I it exceeds the float range.
        point = json.dumps([[[1e-310, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-310, 0.0]]])
        code, out, err = run(capsys, "eval", swap_pair_doc, "--point", point)
        assert (code, err) == (4, "")
        (record,) = strict_records(out)
        assert record["regular"] is False and record["value"] is None


# --- fuzzing main() -----------------------------------------------------------

_GRID_WORDS = ["type", "resolution", "radius", "base", "direction", "t_min", "t_max", "count", "seed"]
_floats = st.floats(min_value=-2.0, max_value=2.0)
_pairs = st.lists(_floats, min_size=2, max_size=2)
# Mostly 2x2, the argument size of the documents fuzzed.
_matrices = st.sampled_from([2, 2, 1, 3]).flatmap(
    lambda n: st.lists(st.lists(_pairs, min_size=n, max_size=n), min_size=n, max_size=n)
)
# Integers stay small so that any grid that parses has few points.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | _matrices
    | st.sampled_from(["disc", "segment", "ball", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_GRID_WORDS), inner, max_size=4),
    max_leaves=10,
)
# Every grid key is optional, and a value that fits it is drawn often.
_grids = st.fixed_dictionaries(
    {"type": st.sampled_from(["disc", "segment", "ball"]) | _json_values},
    optional={key: st.integers(1, 4) | _matrices | _json_values for key in _GRID_WORDS[1:]},
)

# The values each flag accepts, small where they size the work (--trials
# <= 3, --max-* and --threads <= 4), and other values: floats of any kind,
# integers that are not positive, and text without a digit.
_ACCEPTED = {
    **{f"--tol-{name}": st.floats(1e-300, 0.999) for name in ("unitarity", "residual", "rank", "surface-guard")},
    "--seed": st.integers(0, 10**30),
    "--trials": st.integers(1, 3),
    **{flag: st.integers(1, 4) for flag in ("--max-alpha", "--max-inner", "--max-arity", "--threads")},
}
_OTHER_VALUES = (
    st.floats().map(repr)
    | st.sampled_from(["nan", "-inf", "1e999", "-0.0", "1e-320"])
    | st.integers(-(10**30), 0).map(str)
    | st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
)
_FUZZ_SUITES = ["multi-oracle", "doublecoset-dilation", "charfun-contractive", "relation-containment"]
# The flags each command takes besides verify's --trials; a fuzzed run may
# add one more, which the command may not take.
_COMMAND_FLAGS = {
    "verify": [flag for flag in _ACCEPTED if flag != "--trials"],
    "eval": [flag for flag in _ACCEPTED if flag.startswith(("--tol-", "--threads"))],
    "random": [flag for flag in _ACCEPTED if flag.startswith(("--tol-", "--seed"))],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding one seeded document of each kind, ``KIND.json``."""
    path = tmp_path_factory.mktemp("fuzz")
    for kind in KINDS:
        (path / f"{kind}.json").write_text(emit_document(random_document(kind, 1)))
    return path


def _node_paths(obj, prefix=()):
    """The path of every value nested in ``obj`` through objects and lists."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _node_paths(value, prefix + (key,))


# Values near the edges of the float range and of unitarity, and integers
# past it, beside the values the other fuzz tests draw.
_entries = st.sampled_from([1.7e308, -1e308, 5e-324, -0.0, 1e-13, math.nan, math.inf, 10**400, 2**53 + 1])
_MUTATIONS = ["replace", "scale", "drop", "duplicate", "swap"]


@st.composite
def _mutated(draw, doc):
    """``doc`` (parsed JSON) with one to three mutations, each at a value
    drawn anywhere in it: replaced, a number scaled, an element or key
    dropped, a list element duplicated, or two list elements swapped.  Rows
    or members swapped, or a number scaled by one, leave a valid document."""
    doc = copy.deepcopy(doc)
    for mutation in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3)):
        paths = list(_node_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        target = doc
        for parent in parents:
            target = target[parent]
        value = target[key]
        if mutation == "replace":
            target[key] = draw(_entries | _json_values)
        elif mutation == "scale" and isinstance(value, (int, float)) and not isinstance(value, bool):
            target[key] = value * draw(st.sampled_from([1.0, 1 + 1e-12, -1.0, 0.0, 1e300]))
        elif mutation == "drop":
            del target[key]
        elif mutation == "duplicate" and isinstance(target, list):
            target.insert(key, value)
        elif mutation == "swap" and isinstance(target, list):
            other = draw(st.integers(0, len(target) - 1))
            target[key], target[other] = target[other], value
    return doc


def _error_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("error:")]


def _run_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzzMain:
    """Any input ends in a documented exit code, with one ``error:`` line for
    a failure, and never in an exception out of ``main``."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @example(kind="colligation", command="eval", argument=("--grid", '{"type":[1]}'), fixed=None)
    @example(kind="multi", command="surface", argument=("--grid", '{"type":{}}'), fixed=None)
    @example(kind="multi", command="surface", argument=(), fixed=_DIAGONAL_POINT)
    @example(kind="doublecoset", command="surface", argument=("--grid", '{"type":"ball","count":0}'), fixed=None)
    @example(kind="multi", command="surface", argument=("--point", "{"), fixed="{")
    @given(
        kind=st.sampled_from(KINDS),
        command=st.sampled_from(["eval", "surface"]),
        argument=st.tuples(st.just("--grid"), (_grids | _json_values).map(json.dumps))
        | st.tuples(st.just("--point"), (_matrices | _floats | _json_values).map(json.dumps)),
        fixed=st.none() | (_matrices | _json_values).map(json.dumps),
    )
    def test_eval_and_surface(self, fuzz_dir, kind, command, argument, fixed):
        argv = [str(fuzz_dir / f"{kind}.json"), "--threads", "1", *argument]
        if fixed is not None:
            argv += ["--fixed", fixed]
        code, _, err = _run_captured([command, *argv])
        assert code in range(6)
        if code not in (0, 4):
            assert one_error_line(err), err
        if kind != "colligation":
            # surface samples the system eval solves, at the same arguments:
            # both commands accept them, or both reject them with one error.
            other = "eval" if command == "surface" else "surface"
            other_code, _, other_err = _run_captured([other, *argv])
            if code in (0, 4):
                assert other_code in (0, 4), other_err
            else:
                assert (other_code, _error_lines(other_err)) == (code, _error_lines(err))

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        kind=st.sampled_from(KINDS),
        command=st.sampled_from(["validate", "product", "eval", "surface"]),
        data=st.data(),
    )
    def test_mutated_document(self, fuzz_dir, kind, command, data):
        doc = data.draw(_mutated(json.loads((fuzz_dir / f"{kind}.json").read_text())))
        fuzzed = fuzz_dir / "mutated.json"
        fuzzed.write_text(json.dumps(doc))
        argv = [command, str(fuzzed)]
        if command == "product":
            argv.append(str(fuzz_dir / f"{kind}.json"))
        elif command in ("eval", "surface"):
            argv += ["--threads", "1", "--grid", '{"type":"ball","count":3,"seed":1,"radius":0.9}']
            if kind == "doublecoset":
                argv += ["--fixed", _DIAGONAL_POINT]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = _run_captured(argv)
        assert not caught, [str(warning.message) for warning in caught]
        assert code in range(5)
        if code in (0, 4):
            assert err == ""
        else:
            (line,) = err.splitlines()
            assert line.startswith("error: ")

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(command=st.sampled_from(list(_COMMAND_FLAGS)), data=st.data())
    def test_flags(self, fuzz_dir, command, data):
        flags = ["--trials"] if command == "verify" else []
        flags += data.draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), unique=True, max_size=4))
        flags += data.draw(st.lists(st.sampled_from(list(_ACCEPTED)), max_size=1))
        values = [data.draw(_ACCEPTED[flag].map(str)) for flag in flags]
        if values and data.draw(st.booleans()):
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(_OTHER_VALUES)
        if command == "verify":
            argv = ["verify", data.draw(st.sampled_from(_FUZZ_SUITES))]
        elif command == "eval":
            argv = ["eval", str(fuzz_dir / "multi.json"), "--point", _DIAGONAL_POINT]
        else:
            argv = ["random", data.draw(st.sampled_from(KINDS))]
        code, out, err = _run_captured(argv + [f"{flag}={value}" for flag, value in zip(flags, values)])
        assert code in range(6)
        if code == 5 and out:
            assert "error:" not in err  # a verify report that lists failures
        elif code not in (0, 4):
            assert one_error_line(err), err


class TestTolerances:
    def test_no_environment_variable_sets_a_tolerance(self, capsys, swap_doc, monkeypatch):
        # Only the --tol-* flags set tolerances; the profile variable that
        # once did is not read.
        monkeypatch.setenv("COLLIGATION_TOL_PROFILE", "bogus")
        assert run(capsys, "validate", swap_doc)[0] == 0

    def test_flag_override_loosens_validation(self, capsys, tmp_path, swap_doc):
        doc = json.loads(open(swap_doc).read())
        doc["payload"]["matrix"][0][0] = [1e-6, 0.0]
        nearly = tmp_path / "nearly.json"
        nearly.write_text(json.dumps(doc))
        assert run(capsys, "validate", nearly)[0] == 2
        assert run(capsys, "validate", nearly, "--tol-unitarity", "1e-3")[0] == 0

    def test_invalid_override_rejected(self, capsys, swap_doc):
        assert run(capsys, "validate", swap_doc, "--tol-unitarity", "2.0")[0] == 1

    def test_every_command_has_one_flag_per_field_in_field_order(self):
        names = [field.name for field in dataclasses.fields(Tolerances)]
        flags = [["--tol-unitarity"], ["--tol-residual"], ["--tol-rank"], ["--tol-surface-guard"]]
        commands = _subcommands()
        assert set(commands) == {"validate", "product", "eval", "surface", "verify", "random"}
        for command, parser in commands.items():
            tol = [action for action in parser._actions if any(s.startswith("--tol-") for s in action.option_strings)]
            assert [action.dest for action in tol] == names, command
            assert [action.option_strings for action in tol] == flags, command

    def test_each_flag_overrides_its_field_alone(self):
        for field in dataclasses.fields(Tolerances):
            flag = "--tol-" + field.name.removesuffix("_tol").replace("_", "-")
            tol = cli._resolve_tolerances(cli._build_parser().parse_args(["validate", "doc.json", flag, "0.5"]))
            assert tol == dataclasses.replace(DEFAULT_TOLERANCES, **{field.name: 0.5})


def _subcommands() -> dict:
    """``{name: parser}`` of the command line's subcommands."""
    (sub,) = [action for action in cli._build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    return dict(sub.choices)


def test_import_does_not_load_scipy():
    in_fresh_process("import sys, colligations.cli; sys.exit('scipy' in sys.modules)")


def test_verify_runs_without_a_thread_pool():
    in_fresh_process(
        "import sys, colligations.cli\n"
        "assert colligations.cli.main(['verify', 'doublecoset-oracle', '--trials', '2']) == 0\n"
        "sys.exit('concurrent.futures' in sys.modules)\n"
    )


def test_import_does_not_load_verify():
    in_fresh_process(
        "import sys, colligations.cli\n"
        "assert 'colligations.verify' not in sys.modules\n"
    )


# Modules of the package each command loads, beyond those every command
# loads (the package and what importing the cli loads).  A case runs its
# command lines in order in one process and checks the set after each; a
# word "@KIND" stands for a document of that kind.
_CLI_MODULES = {f"colligations{name}" for name in ("", ".cli", ".documents", ".errors", ".linalg")}
_KIND_MODULES = {
    "colligation": {"colligation", "realization"},
    "multi": {"colligation", "multi", "realization"},
    "tri": {"colligation", "conjugacy", "realization"},
    "doublecoset": {"colligation", "multi", "realization"},
}
_BALL = '{"type":"ball","count":2,"radius":0.5}'
_POINT = "[[[0.1,0.0],[0.0,0.0]],[[0.0,0.0],[0.1,0.0]]]"
_COMMAND_CASES = {
    **{
        f"validate-random-product-{kind}": (
            [["validate", f"@{kind}"], ["random", kind], ["product", f"@{kind}", f"@{kind}"]],
            modules,
        )
        for kind, modules in _KIND_MODULES.items()
    },
    "eval-colligation": (
        [["eval", "@colligation", "--grid", '{"type":"disc","resolution":3}']],
        {"sweeps"} | _KIND_MODULES["colligation"],
    ),
    "eval-tri": ([["eval", "@tri", "--grid", _BALL]], {"sweeps"} | _KIND_MODULES["tri"]),
    "eval-doublecoset": (
        [["eval", "@doublecoset", "--point", _POINT, "--fixed", _POINT]],
        {"sweeps", "doublecoset"} | _KIND_MODULES["doublecoset"],
    ),
    "surface-multi": ([["surface", "@multi", "--grid", _BALL]], {"sweeps"} | _KIND_MODULES["multi"]),
    # verify loads the module of its suite's group (with the shared laws of
    # verify_matrix for a matrix kind) and the modules of the families the
    # suite draws; --list loads every group, so every family, and runs none.
    **{
        f"verify-{suite}": ([["verify", suite, "--trials", "1"]], {"colligation", "realization", "verify"} | modules)
        for suite, modules in {
            "charfun-multiplicative": {"verify_scalar"},
            "multi-oracle": {"multi", "verify_matrix", "verify_multi"},
            "conjugacy-oracle": {"conjugacy", "verify_conjugacy", "verify_matrix"},
            "doublecoset-rational": {"multi", "doublecoset", "verify_doublecoset", "verify_matrix"},
            "relation-definiteness": {"multi", "relations", "verify_relation"},
            "relation-containment": {"multi", "relations", "verify_relation"},
        }.items()
    },
    "verify-list": (
        [["verify", "--list"]],
        {"colligation", "realization", "verify", "verify_conjugacy", "verify_doublecoset", "verify_matrix",
         "verify_multi", "verify_relation", "verify_scalar", "conjugacy", "doublecoset", "multi", "relations"},
    ),
}
_LOADED = """\
import contextlib, io, json, sys
from colligations.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded.append([code, sorted(name for name in sys.modules if name.startswith("colligations"))])
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("suite", ["multi-rational", "doublecoset-rational"])
def test_rational_suites_load_no_numpy_polynomial(suite):
    code = (
        "import contextlib, io, sys\n"
        "from colligations.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['verify', '{suite}', '--trials', '1']) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.polynomial')))\n"
    )
    assert in_fresh_process(code) == "[]\n"


def test_every_name_in_a_module_all_is_bound_in_that_module():
    assert not hasattr(colligations, "__all__")  # each module declares its own names
    modules = [info.name for info in pkgutil.iter_modules(colligations.__path__)]
    assert {"cli", "linalg", "verify", "verify_scalar"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"colligations.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), (name, public)


# Why each public name that no other module of the package uses is public.
_PAPER, _COMMAND, _PERFBENCH = "part of the paper's API", "a command's entry", "held by perfbench/"
_UNUSED_PUBLIC_NAMES = {
    ("cli", "main"): _COMMAND,
    ("colligation", "charfun_z"): _PAPER,
    ("conjugacy", "tri_charfun"): _PAPER,
    ("documents", "Payload"): _PAPER,
    ("documents", "parse_document"): _PAPER,
    ("documents", "save_document"): _PERFBENCH,
    ("doublecoset", "dc_charfun"): _PAPER,
    ("doublecoset", "transpose_inverse"): _PERFBENCH,
    ("relations", "contains"): _PERFBENCH,
    ("verify", "Suite"): _PAPER,
    ("verify", "SuiteReport"): _PAPER,
}


def _names_read(tree: ast.AST) -> set[str]:
    """Every name ``tree`` imports from a module or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_that_no_other_module_uses_has_a_reason():
    package = Path(colligations.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    read = {name: _names_read(tree) for name, tree in trees.items()}
    unused = set()
    for name, tree in trees.items():
        public = next(
            (
                ast.literal_eval(node.value)
                for node in tree.body
                if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            ),
            [],
        )
        others = set().union(*(names for other, names in read.items() if other != name))
        unused.update((name, public_name) for public_name in public if public_name not in others)
    assert unused == set(_UNUSED_PUBLIC_NAMES)
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    held = set().union(*(_names_read(ast.parse(path.read_text(encoding="utf-8"))) for path in perfbench.glob("*.py")))
    assert {name for (_, name), why in _UNUSED_PUBLIC_NAMES.items() if why == _PERFBENCH} <= held


def test_import_of_the_package_loads_no_module():
    code = "import sys, colligations\nprint(sorted(name for name in sys.modules if name.startswith('colligations')))"
    assert in_fresh_process(code) == "['colligations']\n"


@pytest.mark.parametrize("case", sorted(_COMMAND_CASES))
def test_command_loads_only_its_modules(tmp_path, case):
    runs, modules = _COMMAND_CASES[case]
    documents = {}
    for kind in KINDS:
        documents[f"@{kind}"] = str(tmp_path / f"{kind}.json")
        save_document(random_document(kind, seed=1), documents[f"@{kind}"])
    runs = [[documents.get(word, word) for word in argv] for argv in runs]
    want = sorted(_CLI_MODULES | {f"colligations.{name}" for name in modules})
    for argv, (code, loaded) in zip(runs, json.loads(in_fresh_process(_LOADED, json.dumps(runs))), strict=True):
        assert (code, loaded) == (0, want), argv


def test_in_process_main_leaves_the_heap_unfrozen(capsys, swap_doc):
    frozen = gc.get_freeze_count()
    for argv in (
        ["validate", swap_doc],
        ["eval", swap_doc, "--point", "0.5"],
        ["verify", "charfun-multiplicative", "--trials", "1"],
    ):
        assert main(argv) == 0, argv
        assert gc.get_freeze_count() == frozen, argv
    capsys.readouterr()


def test_command_line_main_freezes_the_heap(swap_doc):
    code = (
        "import gc\n"
        "from colligations.cli import main\n"
        "before = gc.get_freeze_count()\n"
        "code = main()\n"
        "print(code, before, gc.get_freeze_count() > 0)\n"
    )
    assert in_fresh_process(code, "validate", swap_doc) == "0 0 True\n"


def _drawing_runs(doc: str) -> list[list[str]]:
    """Commands that load numpy.random, in order: the first writes ``doc``."""
    return [
        ["random", "multi", "--out", doc],
        ["eval", doc, "--grid", '{"type":"ball","count":3,"seed":1,"radius":0.9}'],
        ["verify", "multi-oracle", "--trials", "1"],
    ]


_HASHLIB_AFTER_MAIN = """\
import sys
from colligations.cli import main
code = main()
print(code, sys.modules.get("_hashlib"))
"""


def test_command_line_main_loads_no_openssl(tmp_path):
    src = str(Path(colligations.__file__).resolve().parents[1])
    for argv in _drawing_runs(str(tmp_path / "multi.json")):
        result = subprocess.run(
            [sys.executable, "-c", _HASHLIB_AFTER_MAIN, *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, ""), argv
        assert result.stdout.splitlines()[-1] == "0 None", argv


@pytest.mark.parametrize("loaded", [True, False], ids=["loaded", "absent"])
def test_in_process_main_leaves_hashlib_as_it_found_it(capsys, monkeypatch, tmp_path, loaded):
    if not loaded:
        monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    found = sys.modules.get("_hashlib", "absent")
    for argv in _drawing_runs(str(tmp_path / "multi.json")):
        assert main(argv) == 0, argv
        assert sys.modules.get("_hashlib", "absent") is found, argv
    capsys.readouterr()
