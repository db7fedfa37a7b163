import argparse
import dataclasses
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import colligations
from colligations import cli
from colligations.documents import KINDS, emit_document, random_document
from colligations.linalg import Tolerances

ROOT = Path(__file__).resolve().parents[1]


def test_compare_verify_finds_a_tree_identical_to_itself(tmp_path):
    (tmp_path / "multi.json").write_text(emit_document(random_document("multi", 2)))
    runs = [
        ["verify", "multi-oracle", "--trials", "2", "--seed", "3"],
        ["verify", "doublecoset-dilation", "--trials", "2", "--tol-surface-guard", "0.01"],
        ["eval", "multi.json", "--grid", '{"type":"ball","count":4,"seed":1}'],
        ["eval", "missing.json", "--point", "0.5"],
    ]
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    src = str(Path(colligations.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_verify.py"), src, src, "--argv", "runs.json"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == ["4 of 4 runs identical"]


def test_compare_verify_runs_every_suite_of_a_tree_against_itself():
    src = str(Path(colligations.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_verify.py"), src, src, "--trials", "1", "--seeds", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    # verify --list and the 43 suites.
    assert result.stdout.splitlines() == ["44 of 44 runs identical"]


def test_compare_verify_passes_dimension_caps_to_every_suite():
    src = str(Path(colligations.__file__).resolve().parents[1])
    caps = ["--max-alpha", "1", "--max-inner", "1", "--max-arity", "1"]
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_verify.py"), src, src, "--trials", "1", *caps],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == ["44 of 44 runs identical"]


def test_compare_verify_refuses_a_flag_it_cannot_pass_on():
    src = str(Path(colligations.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_verify.py"), src, src, "--tol-surface", "0.1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    # A misspelt flag would make every suite a usage error in both trees,
    # which compare as identical.
    assert (result.returncode, result.stdout) == (2, "")
    assert "expected pairs of one of --tol-unitarity, " in result.stderr


def test_compare_verify_passes_on_every_tolerance_and_cap_flag():
    # The tool runs without importing the package, so it spells the flags out;
    # a --tol-* flag the command line builds must not be missing from them.
    spec = importlib.util.spec_from_file_location("compare_verify", ROOT / "tools" / "compare_verify.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (sub,) = [action for action in cli._build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    tol_flags = {
        flag
        for parser in sub.choices.values()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--tol-")
    }
    verify = [flag for action in sub.choices["verify"]._actions for flag in action.option_strings]
    cap_flags = {flag for flag in verify if flag.startswith("--max-")}
    assert len(tol_flags) == len(dataclasses.fields(Tolerances)) and len(cap_flags) == 3
    assert tol_flags | cap_flags <= set(tool._SUITE_FLAGS)


def test_compare_verify_names_the_parts_that_differ(tmp_path):
    # Tree B is tree A with one suite renamed: its list, and the known names
    # in an unknown-suite error, differ, and each tree has one suite alone.
    src = Path(colligations.__file__).resolve().parents[1]
    renamed = tmp_path / "b"
    shutil.copytree(src, renamed, ignore=shutil.ignore_patterns("__pycache__"))
    suites_py = renamed / "colligations" / "verify_scalar.py"
    suites_py.write_text(suites_py.read_text().replace('"charfun-contractive"', '"charfun-contraction"'))
    tool = [sys.executable, str(ROOT / "tools" / "compare_verify.py"), str(src), str(renamed)]
    runs = [["verify", "--list"], ["verify", "nope"], ["verify", "multi-oracle", "--trials", "1"]]
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    result = subprocess.run([*tool, "--argv", "runs.json"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stderr
    assert result.stdout.splitlines() == [
        "differs (stdout): verify --list",
        "differs (stderr): verify nope",
        "1 of 3 runs identical",
    ]
    result = subprocess.run([*tool, "--trials", "1"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stderr
    assert result.stdout.splitlines() == [
        "differs (stdout): verify --list",
        "differs (only in A): verify charfun-contractive --trials 1 --seed 0",
        "differs (only in B): verify charfun-contraction --trials 1 --seed 0",
        "42 of 45 runs identical",
    ]


def _compare_startup(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_startup.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_compare_startup_stops_at_a_missing_document_before_timing(tmp_path):
    src = str(Path(colligations.__file__).resolve().parents[1])
    (tmp_path / "runs.json").write_text(json.dumps([["validate", "missing.json"]]))
    result = _compare_startup(src, src, "--argv", "runs.json", cwd=tmp_path)
    assert (result.returncode, result.stdout) == (1, "")
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: validate ") and "missing.json" in line


def test_compare_startup_stops_at_a_missing_document_in_a_listed_command(tmp_path):
    src = str(Path(colligations.__file__).resolve().parents[1])
    (tmp_path / "multi.json").write_text(emit_document(random_document("multi", 2)))
    runs = [["validate", "multi.json"], ["eval", "missing.json", "--point", "0.5"]]
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    result = _compare_startup(src, src, "--argv", "runs.json", cwd=tmp_path)
    assert (result.returncode, result.stdout) == (1, "")
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: eval missing.json --point 0.5 exited 1: ")


@pytest.fixture(scope="module")
def startup_run(tmp_path_factory):
    """One timed comparison of a tree against itself, shared by the tests of
    its output: ``(src, runs, result)``."""
    tmp_path = tmp_path_factory.mktemp("startup")
    src = str(Path(colligations.__file__).resolve().parents[1])
    (tmp_path / "multi.json").write_text(emit_document(random_document("multi", 2)))
    ball = json.dumps({"type": "ball", "count": 50, "seed": 1, "radius": 0.9})
    runs = [["validate", "multi.json"], ["eval", "multi.json", "--grid", ball]]
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    return src, runs, _compare_startup(src, src, "--argv", "runs.json", cwd=tmp_path)


def test_compare_startup_prints_the_cached_modules_of_each_tree(startup_run):
    src, _, result = startup_run
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    modules = len(list(Path(src, "colligations").glob("*.py")))
    for label, line in zip("AB", result.stdout.splitlines()[:2], strict=True):
        pattern = rf"{label} {re.escape(src)}: ([0-9]+) of ([0-9]+) package modules have a valid cached pyc"
        match = re.fullmatch(pattern, line)
        assert match, line
        assert int(match.group(1)) <= int(match.group(2)) == modules


def test_compare_startup_prints_time_and_peak_rss_of_each_tree(startup_run):
    src, _, result = startup_run
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    number = r"([0-9]+\.[0-9]+)"
    wins = []
    for label, line in zip("AB", result.stdout.splitlines()[2:4], strict=True):
        pattern = (
            rf"{label} {re.escape(src)}: median {number} s, quartiles {number} {number} s,"
            rf" lower in ([0-9]+) of 10 pairs; peak RSS median {number} MiB,"
            rf" quartiles {number} {number} MiB, lower in ([0-9]+) of 10 pairs"
        )
        match = re.fullmatch(pattern, line)
        assert match, line
        wall, wall_q1, wall_q3, _, rss, rss_q1, rss_q3, _ = (float(group) for group in match.groups())
        assert wall_q1 <= wall <= wall_q3 and rss_q1 <= rss <= rss_q3
        assert 1.0 < rss_q1 and rss_q3 < 1000.0
        wins.append((int(match.group(4)), int(match.group(8))))
    # A pair won by one tree is lost by the other; a tie counts for neither.
    assert all(a + b <= 10 for a, b in zip(*wins))


def test_compare_startup_prints_the_median_peak_rss_of_each_command_line(startup_run):
    _, runs, result = startup_run
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 4 + len(runs)
    for run, line in zip(runs, lines[4:]):
        match = re.fullmatch(
            r"median wall A ([0-9.]+) s, B ([0-9.]+) s;"
            r" median peak RSS A ([0-9]+\.[0-9]{2}) MiB, B ([0-9]+\.[0-9]{2}) MiB: (.*)",
            line,
        )
        assert match and match.group(5) == " ".join(run), line
        assert all(0.0 < float(match.group(i)) < 100.0 for i in (1, 2))
        assert all(1.0 < float(match.group(i)) < 1000.0 for i in (3, 4))


def test_compare_startup_refuses_fewer_than_ten_pairs(tmp_path):
    src = str(Path(colligations.__file__).resolve().parents[1])
    result = _compare_startup(src, src, "--argv", str(tmp_path / "missing.json"), "--pairs", "9")
    assert (result.returncode, result.stdout) == (2, "")
    assert "need at least 10 pairs, got 9" in result.stderr


def test_sweep_argv_corpus_is_identical_from_a_tree_against_itself(tmp_path):
    src = str(Path(colligations.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep_argv.py"), "docs"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in (tmp_path / "docs").iterdir()) == sorted(f"{kind}.json" for kind in KINDS)
    for kind in KINDS:
        assert (tmp_path / "docs" / f"{kind}.json").read_text() == emit_document(random_document(kind, 3))
    runs = json.loads(result.stdout)
    # eval and surface, four kinds, every combination of grid, point, fixed and
    # variable (3,920), then 28 large grids, 19 lines whose largest singular
    # value overflows, 16 long grids and 16 lines of labels in every repr
    # form; the last run taken is the first large grid.
    assert len(runs) == 3999
    (tmp_path / "runs.json").write_text(json.dumps(runs[::196]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_verify.py"), src, src, "--argv", "runs.json"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == ["21 of 21 runs identical"]


def test_line_coverage_lists_the_lines_a_test_file_never_runs():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_coverage.py"), "tests/test_documents.py", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert re.fullmatch(r"\d+ of \d+ executable lines run", lines[-1])
    # The document tests never import the relation suites, and every
    # document they load reads its dimensions through _natural.
    assert "src/colligations/verify_relation.py:1" in lines
    source = (ROOT / "src" / "colligations" / "documents.py").read_text().splitlines()
    natural = source.index("def _natural(obj: dict, key: str, what: str) -> int:") + 2
    assert source[natural - 1] == "    value = obj[key]"
    assert f"src/colligations/documents.py:{natural}" not in lines


def test_every_bench_file_parses_and_names_the_commits_it_compares():
    benches = sorted(ROOT.glob("BENCH_*.json"))
    assert benches
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for path in benches:
        bench = json.loads(path.read_text())
        # The change's own commit adds the file, so it is named by its src/ tree.
        assert re.fullmatch(r"[0-9a-f]{40}", bench["parent_commit"]), path.name
        assert re.fullmatch(r"[0-9a-f]{40}", bench["change_src_tree"]), path.name
        for workload in declared["workloads"]:
            for metric in declared["end_to_end"]:
                reading = bench["workloads"][workload["name"]][metric["name"]]
                assert {"parent", "change"} <= set(reading), (path.name, workload["name"], metric["name"])
