"""Compare the process time of two source trees with alternating command-line processes.

Usage (from the repository root)::

    python3 tools/compare_startup.py SRC_A SRC_B --argv FILE [--pairs N]

``SRC_A`` and ``SRC_B`` are directories holding the ``colligations``
package, such as ``src`` of two checkouts.  A process runs
``colligations.cli.main()`` on one command line through ``python3 -c``,
with ``PYTHONPATH`` set to the tree and one BLAS thread, and its wall time
runs from its start to its exit, so it includes start-up and interpreter
shutdown.  At exit the process reports its peak resident set size (VmHWM)
through a file; the parent's ``wait4`` rusage would not do, as on Linux it
also counts the parent's own RSS at the time of the fork.

``FILE`` is a JSON list of command lines (each a list of strings, as
``tools/compare_verify.py --argv`` reads; relative paths in them are taken
from the current directory), and one sample of a tree is the total wall time
of one process per listed command line.  To time start-up alone, list
``validate`` command lines of small documents.

Every command line first runs once in each tree, untimed.  Then one line
per tree gives how many of its package's modules have a valid cached pyc
(one whose header matches the source's mtime and size), which shows whether
its processes compiled the package.  Then ``N`` (at least 10) pairs of
samples are taken, the tree that goes first alternating from pair to pair.
For each tree the median and quartiles of its samples are printed, with the
number of pairs in which its sample was the lower (ties count for neither),
and the median over its samples of the peak RSS of a sample, the largest
VmHWM of any of its processes.  Then one line per listed command line gives
the median VmHWM of its process in each tree.

The rest of the environment is passed on, so a bytecode cache is written
and read, or not, as it says (``PYTHONDONTWRITEBYTECODE``,
``PYTHONPYCACHEPREFIX``, under which the tool looks for the cache too).
The exit code is 1 if a process exits other than 0, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

_HWM = "COMPARE_STARTUP_HWM"
_MAIN = f"""\
import os, sys
from colligations.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["{_HWM}"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""
_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _Failed(Exception):
    pass


def _process(env: dict, argv: list[str]) -> tuple[float, float]:
    """Wall time and peak RSS in MiB of one process running the command line ``argv``."""
    hwm = Path(env[_HWM])
    hwm.unlink(missing_ok=True)
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _MAIN, *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    wall = perf_counter() - start
    if done.returncode != 0:
        raise _Failed(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.decode().strip()}")
    return wall, int(hwm.read_text()) / 1024.0


def _sample(env: dict, runs: list[list[str]]) -> tuple[float, tuple[float, ...]]:
    """One sample's wall time, the total of one process per run, and the peak
    RSS of each of its processes."""
    walls, rss = zip(*(_process(env, argv) for argv in runs))
    return sum(walls), rss


def _cached_modules(src: str) -> str:
    """How many modules of the package in ``src`` have a cached pyc whose
    header matches the source's mtime and size, out of how many."""
    sources = sorted(Path(src, "colligations").glob("*.py"))
    valid = 0
    for source in sources:
        stat = source.stat()
        stamp = struct.pack("<3I", 0, int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size & 0xFFFFFFFF)
        try:
            with open(importlib.util.cache_from_source(str(source)), "rb") as pyc:
                valid += pyc.read(16) == importlib.util.MAGIC_NUMBER + stamp
        except OSError:
            pass
    return f"{valid} of {len(sources)} package modules have a valid cached pyc"


def _at_least_ten(text: str) -> int:
    value = int(text)
    if value < 10:
        raise argparse.ArgumentTypeError(f"need at least 10 pairs, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--argv", required=True, metavar="FILE", help="JSON list of command lines to time")
    parser.add_argument("--pairs", type=_at_least_ten, default=10, help="pairs of samples (default 10)")
    args = parser.parse_args(argv)

    with open(args.argv, encoding="utf-8") as file:
        runs = json.load(file)
    samples = ([], [])
    with tempfile.TemporaryDirectory() as scratch:
        envs = []
        for src in (args.src_a, args.src_b):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **{_HWM: os.path.join(scratch, "hwm")})
            for key in _BLAS_ENV:
                env.setdefault(key, "1")
            envs.append(env)
        try:
            for env in envs:
                for run in runs:
                    _process(env, run)
            for label, src in zip("AB", (args.src_a, args.src_b)):
                print(f"{label} {src}: {_cached_modules(src)}")
            for pair in range(args.pairs):
                order = (0, 1) if pair % 2 == 0 else (1, 0)
                for side in order:
                    samples[side].append(_sample(envs[side], runs))
        except _Failed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    walls = [[wall for wall, _ in side] for side in samples]
    rss = [[max(peaks) for _, peaks in side] for side in samples]
    wins = [sum(mine < theirs for mine, theirs in zip(walls[side], walls[1 - side])) for side in (0, 1)]
    for label, src, side_walls, side_rss, won in zip("AB", (args.src_a, args.src_b), walls, rss, wins):
        q1, median, q3 = statistics.quantiles(side_walls, n=4)
        print(
            f"{label} {src}: median {median:.4f} s, quartiles {q1:.4f} {q3:.4f} s,"
            f" lower in {won} of {args.pairs} pairs, median peak RSS {statistics.median(side_rss):.1f} MiB"
        )
    for index, run in enumerate(runs):
        a, b = (statistics.median(peaks[index] for _, peaks in side) for side in samples)
        print(f"median peak RSS A {a:.1f} MiB, B {b:.1f} MiB: {' '.join(run)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
