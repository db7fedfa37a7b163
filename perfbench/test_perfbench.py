"""Self-tests of the benchmark; they are not part of the package's test suite.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from colligations import cli, linalg  # noqa: E402


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


def _anchor(name: str, tmp_path: Path, seed: int = workloads.ANCHOR_SEED):
    workload = workloads.build(name, seed, tmp_path, workloads.ANCHOR)
    _, outputs = run.replay(cli, workload, tmp_path)
    return workload, outputs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(name, trace, section):
    out = _run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = run.declared_metrics(section)
    assert set(result["metrics"]) == set(declared)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == declared[metric]


def test_stops_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench(tmp_path, "--workload", "sweeps", "--seconds", "1")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_anchor_digests_match_and_corruption_fails(tmp_path):
    golden = json.loads(run.GOLDEN.read_text())
    for name in workloads.WORKLOADS:
        workload, outputs = _anchor(name, tmp_path / name)
        for call, (code, data) in zip(workload.calls, outputs):
            tally = checks.Tally()
            checks.check_stream(tally, call, code, data, golden[name][call.label])
            assert tally.failed == 0, tally.reasons
            checks.check_stream(tally, call, code, data, "0" * 64)
            checks.check_stream(tally, call, 1, data, None)
            assert tally.failed == 2


def test_failed_verify_report_is_a_failure(tmp_path):
    workload, outputs = _anchor("verify-suites", tmp_path)
    call, (code, data) = workload.calls[0], outputs[0]
    report = json.loads(data)
    report["failures"] = [{"trial": 0}]
    tally = checks.Tally()
    checks.check_stream(tally, call, code, json.dumps(report).encode() + b"\n", None)
    assert tally.failed == 1


def _perturbed(data: bytes, command: str) -> bytes:
    lines = []
    for line in data.splitlines():
        record = json.loads(line)
        if command == "surface":
            record["sigma_min"] *= 1.0 + 1e-6
        elif record["value"] is not None:
            record["value"] = [[[v * (1.0 + 1e-6) for v in pair] for pair in row] for row in record["value"]]
        lines.append(json.dumps(record))
    return ("\n".join(lines) + "\n").encode()


def test_wrong_oracle_value_is_a_failure(tmp_path):
    workload, outputs = _anchor("sweeps", tmp_path)
    for call, (_, data) in zip(workload.calls, outputs):
        tally = checks.Tally()
        checks.check_oracles(tally, call, data, seed=1)
        assert tally.attempted > 0 and tally.failed == 0, tally.reasons
        tally = checks.Tally()
        checks.check_oracles(tally, call, _perturbed(data, call.command), seed=1)
        assert tally.failed == tally.attempted > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_replay_writes_the_cli_bytes(tmp_path, name):
    workload = workloads.build(name, 5, tmp_path, workloads.ANCHOR)
    expected = [run.run_cli(call.argv(), tmp_path / "stderr.txt")["data"] for call in workload.calls]
    original_solve = linalg.solve
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        _, outputs = run.replay(cli, workload, tmp_path)
    finally:
        tracer.restore()
    assert [data for _, data in outputs] == expected
    assert tracer.spans and linalg.solve is original_solve
