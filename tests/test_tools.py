import json
import os
import re
import subprocess
import sys
from pathlib import Path

import colligations
from colligations.documents import KINDS, emit_document, random_document

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
    result = _compare_startup(src, src, str(tmp_path / "missing.json"))
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


def test_compare_startup_prints_time_and_peak_rss_of_each_tree(tmp_path):
    src = str(Path(colligations.__file__).resolve().parents[1])
    (tmp_path / "multi.json").write_text(emit_document(random_document("multi", 2)))
    (tmp_path / "runs.json").write_text(json.dumps([["validate", "multi.json"]]))
    result = _compare_startup(src, src, "--argv", "runs.json", cwd=tmp_path)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    number = r"[0-9]+\.[0-9]+"
    for label, line in zip("AB", result.stdout.splitlines(), strict=True):
        pattern = (
            rf"{label} {re.escape(src)}: median {number} s, quartiles {number} {number} s,"
            rf" lower in [0-9]+ of 10 pairs, median peak RSS ({number}) MiB"
        )
        match = re.fullmatch(pattern, line)
        assert match, line
        assert 1.0 < float(match.group(1)) < 1000.0


def test_compare_startup_takes_documents_or_command_lines():
    src = str(Path(colligations.__file__).resolve().parents[1])
    for argv in ([src, src], [src, src, "doc.json", "--argv", "runs.json"]):
        result = _compare_startup(*argv)
        assert (result.returncode, result.stdout) == (2, ""), argv
        assert "give either DOC... or --argv FILE" in result.stderr


def test_compare_startup_refuses_fewer_than_ten_pairs(tmp_path):
    src = str(Path(colligations.__file__).resolve().parents[1])
    result = _compare_startup(src, src, str(tmp_path / "missing.json"), "--pairs", "9")
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
    # eval and surface, four kinds, every combination of grid, point, fixed and variable.
    assert len(runs) == 3920
    (tmp_path / "runs.json").write_text(json.dumps(runs[::196]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_verify.py"), src, src, "--argv", "runs.json"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == ["20 of 20 runs identical"]
