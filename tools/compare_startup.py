"""Compare the process time of two source trees with alternating command-line processes.

Usage (from the repository root)::

    python3 tools/compare_startup.py SRC_A SRC_B DOC... [--pairs N] [--processes K]
    python3 tools/compare_startup.py SRC_A SRC_B --argv FILE [--pairs N]

``SRC_A`` and ``SRC_B`` are directories holding the ``colligations``
package, such as ``src`` of two checkouts.  A process runs
``colligations.cli.main()`` on one command line through ``python3 -c``,
with ``PYTHONPATH`` set to the tree and one BLAS thread, and its wall time
runs from its start to its exit, so it includes start-up and interpreter
shutdown.  At exit the process reports its peak resident set size (VmHWM)
through a file; the parent's ``wait4`` rusage would not do, as on Linux it
also counts the parent's own RSS at the time of the fork.

With ``DOC...``, each a document file both trees accept, one sample of a
tree is the median wall time of ``K`` ``validate`` processes, cycling over
the documents.  With ``--argv``, ``FILE`` is a JSON list of command lines
(each a list of strings, as ``tools/compare_verify.py --argv`` reads; relative
paths in them are taken from the current directory), and one sample of a
tree is the total wall time of one process per listed command line.

Every command line first runs once in each tree, untimed.  Then ``N`` (at
least 10) pairs of samples are taken, the tree that goes first alternating
from pair to pair.  For each tree the median and quartiles of its samples
are printed, with the number of pairs in which its sample was the lower
(ties count for neither), and the median over its samples of the peak RSS
of a sample, the largest VmHWM of any of its processes.

The rest of the environment is passed on, so a bytecode cache is written
and read, or not, as it says (``PYTHONDONTWRITEBYTECODE``,
``PYTHONPYCACHEPREFIX``).  The exit code is 1 if a process exits other
than 0, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
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


def _sample(env: dict, runs: list[list[str]], processes: int | None) -> tuple[float, float]:
    """One sample's wall time, the median of ``processes`` processes cycling
    over ``runs`` or with ``processes`` None the total of one process per run,
    and its peak RSS, the largest of its processes'."""
    argvs = runs if processes is None else [runs[k % len(runs)] for k in range(processes)]
    walls, rss = zip(*(_process(env, argv) for argv in argvs))
    return (sum(walls) if processes is None else statistics.median(walls)), max(rss)


def _at_least_ten(text: str) -> int:
    value = int(text)
    if value < 10:
        raise argparse.ArgumentTypeError(f"need at least 10 pairs, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("docs", nargs="*", metavar="DOC")
    parser.add_argument("--argv", default=None, metavar="FILE", help="JSON list of command lines to time instead")
    parser.add_argument("--pairs", type=_at_least_ten, default=10, help="pairs of samples (default 10)")
    parser.add_argument("--processes", type=_positive, default=12, help="processes per DOC sample (default 12)")
    args = parser.parse_args(argv)
    if (args.argv is None) == (not args.docs):
        parser.error("give either DOC... or --argv FILE")

    if args.argv is None:
        runs = [["validate", os.path.abspath(doc)] for doc in args.docs]
        processes = args.processes
    else:
        with open(args.argv, encoding="utf-8") as file:
            runs = json.load(file)
        processes = None
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
            for pair in range(args.pairs):
                order = (0, 1) if pair % 2 == 0 else (1, 0)
                for side in order:
                    samples[side].append(_sample(envs[side], runs, processes))
        except _Failed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    walls = [[wall for wall, _ in side] for side in samples]
    rss = [[peak for _, peak in side] for side in samples]
    wins = [sum(mine < theirs for mine, theirs in zip(walls[side], walls[1 - side])) for side in (0, 1)]
    for label, src, side_walls, side_rss, won in zip("AB", (args.src_a, args.src_b), walls, rss, wins):
        q1, median, q3 = statistics.quantiles(side_walls, n=4)
        print(
            f"{label} {src}: median {median:.4f} s, quartiles {q1:.4f} {q3:.4f} s,"
            f" lower in {won} of {args.pairs} pairs, median peak RSS {statistics.median(side_rss):.1f} MiB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
