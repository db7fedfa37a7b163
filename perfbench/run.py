"""Benchmark of the ``colligations`` command line, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  The program is the
package under ``src/`` of the checkout the script sits in; it is run as
``python3 -c "...cli.main()"`` subprocesses, one at a time (a closed loop
with one client), each with ``--threads 1`` and one BLAS thread.

``--trace 0`` measures the end-to-end metrics: after a warm-up pass, whole
passes of the workload, each followed by ``validate`` processes for set-up
time, run within ``--seconds``, and each metric is the median over passes.
``--trace 1`` runs one CLI pass for reference, then
replays the pass in this process through ``colligations.cli.main``, alternately
untraced and traced (see ``tracing.py``), and reports the per-layer metrics.

Every output is checked (see ``checks.py``); a miss makes ``correct`` false
and the exit code 1.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

# The child reports its own peak RSS (VmHWM, in kB) to the file named by
# PERFBENCH_HWM.  Its rusage would not do: on Linux a child's ru_maxrss also
# counts the RSS of this script at the time of the fork.
CLI_MAIN = """\
import os, sys
from colligations.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""
SETUP_PER_PASS = 2
MIN_SETUP_SAMPLES = 12
IMPORT_PROCESSES = 3
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)



def declared_metrics(section: str) -> dict:
    """Metric name -> unit for one section (``end_to_end``/``per_layer``) of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[section]}


def _child_env(hwm_path: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    if hwm_path is not None:
        env["PERFBENCH_HWM"] = str(hwm_path)
    for key in BLAS_ENV:
        env.setdefault(key, "1")
    return env


def run_cli(argv: list[str], errpath: Path) -> dict:
    """One CLI process: exit code, stdout bytes, wall to EOF, CPU and peak RSS."""
    hwm_path = errpath.with_name("hwm.txt")
    hwm_path.unlink(missing_ok=True)
    with open(errpath, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_MAIN, *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=_child_env(hwm_path),
            cwd=ROOT,
        )
        with proc.stdout:
            data = proc.stdout.read()
        wall = perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "data": data,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        # A child that died before reporting fails its exit-code check.
        "rss_mb": int(hwm_path.read_text()) / 1024.0 if hwm_path.exists() else 0.0,
    }


def run_pass(workload, rundir: Path) -> list[dict]:
    return [run_cli(call.argv(), rundir / "stderr.txt") for call in workload.calls]


def replay(cli, workload, outdir: Path) -> tuple[float, list[tuple[int, bytes]]]:
    """The pass in this process through ``cli.main``; returns wall and outputs."""
    outputs = []
    start = perf_counter()
    for call in workload.calls:
        path = outdir / f"{call.label}.out"
        code = cli.main([*call.argv(), "--out", str(path)])
        outputs.append((code, path.read_bytes()))
    return perf_counter() - start, outputs


def work_items(workload, results) -> int:
    """NDJSON records for sweeps, suite trials for verify passes."""
    if workload.calls[0].command == "verify":
        return sum(call.trials for call in workload.calls)
    return sum(len(r["data"].splitlines()) for r in results)


def check_anchors(tally, name: str, rundir: Path) -> None:
    """Tiny fixed-seed version of the pass, compared with the pinned digests."""
    from colligations import cli

    golden = json.loads(GOLDEN.read_text())[name]
    anchor = workloads.build(name, workloads.ANCHOR_SEED, rundir / "anchor", workloads.ANCHOR)
    _, outputs = replay(cli, anchor, rundir / "anchor")
    for call, (code, data) in zip(anchor.calls, outputs):
        checks.check_stream(tally, call, code, data, golden[call.label])


def check_first_pass(tally, workload, results, seed: int) -> dict:
    """Checks of the first pass; returns its digests, which later passes must match."""
    references = {}
    for k, (call, r) in enumerate(zip(workload.calls, results)):
        checks.check_stream(tally, call, r["returncode"], r["data"], None)
        references[call.label] = checks.digest(r["data"])
        if call.command != "verify":
            checks.check_oracles(tally, call, r["data"], seed + k)
    return references


def measure_setup(tally, workload, rundir: Path, count: int, first: int) -> list[float]:
    """Walls of ``count`` ``validate`` processes, cycling over the workload's documents."""
    walls = []
    for k in range(first, first + count):
        doc = workload.documents[k % len(workload.documents)]
        r = run_cli(["validate", str(doc.path)], rundir / "stderr.txt")
        tally.check(r["returncode"] == 0, f"validate {doc.path.name}: exit code {r['returncode']}")
        walls.append(r["wall"])
    return walls


def end_to_end(tally, workload, rundir: Path, seconds: float, seed: int) -> dict:
    deadline = perf_counter() + seconds
    # The first pass is a warm-up: it is checked in full and not measured.
    references = check_first_pass(tally, workload, run_pass(workload, rundir), seed)
    # Set-up samples are taken after every pass, so that they and the passes
    # see the same stretch of the host's speed.
    walls, rates, cpus, rss, setups = [], [], [], [], []
    last = 0.0
    while not walls or perf_counter() + last <= deadline:
        start = perf_counter()
        results = run_pass(workload, rundir)
        for call, r in zip(workload.calls, results):
            checks.check_stream(tally, call, r["returncode"], r["data"], references[call.label])
        walls.append(sum(r["wall"] for r in results))
        rates.append(work_items(workload, results) / walls[-1])
        cpus.append(sum(r["cpu"] for r in results))
        rss.append(max(r["rss_mb"] for r in results))
        setups += measure_setup(tally, workload, rundir, SETUP_PER_PASS, len(setups))
        last = perf_counter() - start
    if len(setups) < MIN_SETUP_SAMPLES:
        setups += measure_setup(tally, workload, rundir, MIN_SETUP_SAMPLES - len(setups), len(setups))
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setups),
        "passes": len(walls),
    }


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import colligations.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROCESSES):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), cwd=ROOT, check=True
        )
        times.append(float(out.stdout))
    return statistics.median(times)


# Per-layer metrics that are counts of work must repeat exactly across replays.
_EXACT = ("_calls", "_calls_per_point", "_calls_per_trial", "_regular_frac")


def per_layer(tally, workload, rundir: Path, seconds: float, seed: int) -> dict:
    from colligations import cli

    results = run_pass(workload, rundir)
    references = check_first_pass(tally, workload, results, seed)
    import_s = import_seconds()

    trials = sum(call.trials for call in workload.calls if call.command == "verify")
    if trials:
        kind_points = None
    else:
        kind_points = Counter()
        for call, r in zip(workload.calls, results):
            kind_points[call.document.kind] += len(r["data"].splitlines())

    def replay_checked(tracer=None):
        outdir = rundir / "replay"
        outdir.mkdir(exist_ok=True)
        if tracer is not None:
            tracing.instrument(tracer)
        try:
            wall, outputs = replay(cli, workload, outdir)
        finally:
            if tracer is not None:
                tracer.restore()
        for call, (code, data) in zip(workload.calls, outputs):
            checks.check_stream(tally, call, code, data, references[call.label])
        return wall, sum(len(data) for _, data in outputs)

    untraced, traced, layers = [], [], []
    deadline = perf_counter() + seconds
    last = 0.0
    while not layers or perf_counter() + last <= deadline:
        start = perf_counter()
        untraced.append(replay_checked()[0])
        tracer = tracing.Tracer()
        tracer.run_id = f"{workload.name}-{seed}-replay{len(layers)}"
        wall, emitted = replay_checked(tracer)
        traced.append(wall)
        layers.append(tracing.layer_metrics(tracer, workloads.SUITE_TRIALS, kind_points, trials))
        last = perf_counter() - start
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / "traces" / f"{workload.name}-seed{seed}.jsonl")

    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith(_EXACT):
            tally.check(len(set(values)) == 1, f"{name} did not repeat across replays: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.import_s"] = import_s
    metrics["cli.emit_bytes"] = emitted
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from colligations import cli

    nproc = None
    if shutil.which("nproc"):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "cli_default_threads": cli._build_parser().parse_args(["eval", "-"]).threads,
        "cli_threads": workloads.THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {key: _child_env().get(key) for key in BLAS_ENV},
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> bool:
    tally = checks.Tally()
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{name}-{seed}-{os.getpid()}"
    rundir.mkdir()
    try:
        workload = workloads.build(name, seed, rundir)
        check_anchors(tally, name, rundir)
        if traced:
            metrics = per_layer(tally, workload, rundir, seconds, seed)
            units = declared_metrics("per_layer")
        else:
            metrics = end_to_end(tally, workload, rundir, seconds, seed)
            print(f"{name}: {metrics.pop('passes')} passes of {len(workload.calls)} CLI processes")
            units = declared_metrics("end_to_end")
        env = environment(seed)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    if not traced:
        label = "trials_per_s" if workload.calls[0].command == "verify" else "points_per_s"
        print(f"  ({label} is items_per_s; failed_frac = {tally.failed}/{tally.attempted})")
    print("env " + json.dumps(env, sort_keys=True))
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in metrics},
    }
    print(json.dumps(result), flush=True)
    return correct


def write_golden() -> None:
    """Pin the anchor digests of the current program (after an intended output change)."""
    from colligations import cli

    golden = {}
    rundir = WORK / f"golden-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            anchor = workloads.build(name, workloads.ANCHOR_SEED, rundir / name, workloads.ANCHOR)
            _, outputs = replay(cli, anchor, rundir / name)
            golden[name] = {call.label: checks.digest(data) for call, (_, data) in zip(anchor.calls, outputs)}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help=write_golden.__doc__)
    args = parser.parse_args(argv)

    if not (SRC / "colligations" / "cli.py").is_file():
        print(f"error: no colligations package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.write_golden:
        write_golden()
        return 0
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ok = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
