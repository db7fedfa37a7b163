"""Compare the start-up time of two source trees with alternating ``validate`` processes.

Usage (from the repository root)::

    python3 tools/compare_startup.py SRC_A SRC_B DOC... [--pairs N] [--processes K]

``SRC_A`` and ``SRC_B`` are directories holding the ``colligations``
package, such as ``src`` of two checkouts, and each ``DOC`` is a document
file both trees accept.  One sample of a tree is the median wall time of
``K`` ``validate`` processes, cycling over the documents; a process runs
``colligations.cli.main`` through ``python3 -c`` with ``PYTHONPATH`` set to
the tree and one BLAS thread, and its wall time runs from its start to its
exit.  After one untimed process of each tree, ``N`` (at least 10) pairs of
samples are taken, the tree that goes first alternating from pair to pair.
For each tree the median and quartiles of its samples are printed, with the
number of pairs in which its sample was the lower (ties count for neither).

The rest of the environment is passed on, so a bytecode cache is written
and read, or not, as it says (``PYTHONDONTWRITEBYTECODE``,
``PYTHONPYCACHEPREFIX``).  The exit code is 1 if a ``validate`` process
fails, else 0.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from time import perf_counter

_MAIN = "import sys\nfrom colligations.cli import main\nsys.exit(main())\n"
_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _Failed(Exception):
    pass


def _validate(env: dict, doc: str) -> float:
    """Wall time of one ``validate`` process."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _MAIN, "validate", doc], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    wall = perf_counter() - start
    if done.returncode != 0:
        raise _Failed(f"validate {doc} exited {done.returncode}: {done.stderr.decode().strip()}")
    return wall


def _sample(env: dict, docs: list[str], processes: int) -> float:
    return statistics.median(_validate(env, docs[k % len(docs)]) for k in range(processes))


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
    parser.add_argument("docs", nargs="+", metavar="DOC")
    parser.add_argument("--pairs", type=_at_least_ten, default=10, help="pairs of samples (default 10)")
    parser.add_argument("--processes", type=_positive, default=12, help="processes per sample (default 12)")
    args = parser.parse_args(argv)

    docs = [os.path.abspath(doc) for doc in args.docs]
    envs = []
    for src in (args.src_a, args.src_b):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        for key in _BLAS_ENV:
            env.setdefault(key, "1")
        envs.append(env)
    samples = ([], [])
    try:
        for env in envs:
            _validate(env, docs[0])
        for pair in range(args.pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                samples[side].append(_sample(envs[side], docs, args.processes))
    except _Failed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wins = [sum(mine < theirs for mine, theirs in zip(samples[side], samples[1 - side])) for side in (0, 1)]
    for label, src, walls, won in zip("AB", (args.src_a, args.src_b), samples, wins):
        q1, median, q3 = statistics.quantiles(walls, n=4)
        print(
            f"{label} {src}: median {median:.4f} s, quartiles {q1:.4f} {q3:.4f} s,"
            f" lower in {won} of {args.pairs} pairs"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
