"""Compare every ``verify`` suite, or given command lines, between two source trees.

Usage (from the repository root)::

    python3 tools/compare_verify.py SRC_A SRC_B [--trials N] [--seeds S ...] [--tol-NAME X ...] [--max-DIM X ...]
    python3 tools/compare_verify.py SRC_A SRC_B --argv FILE

``SRC_A`` and ``SRC_B`` are directories holding the ``colligations``
package, such as ``src`` of two checkouts.  Each tree runs in one
subprocess, which imports the package from that directory and runs
``verify --list`` and then every suite it lists at every seed through
``colligations.cli.main`` in process, with the given trial count and any
``--tol-*`` overrides and ``--max-alpha``/``--max-inner``/``--max-arity``
caps.  With ``--argv``, ``FILE`` is a JSON list of command
lines (each a list of strings, such as ``["eval", "doc.json", "--point",
"0.5"]``), and those are run instead of the suites; relative paths in them
are taken from the current directory.  The exit code, stdout and stderr of
each run are compared; an exception that escapes ``main`` counts as the
run's exit code.  Each run that differs is printed with the parts that
differ (``exit code``, ``stdout``, ``stderr``, or ``only in A`` or ``B``
for a run that one tree has alone), and the exit code is 1 if there are
any, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# Runs in the child: stdin is the JSON list ``[runs, trials, seeds,
# suite_flags]``, where ``runs`` is the command lines to run, or null for the
# suites.
_WORKER = """\
import contextlib, io, json, sys
from colligations.cli import main
from colligations.verify import list_suites

runs, trials, seeds, suite_flags = json.load(sys.stdin)
if runs is None:
    runs = [["verify", "--list"]] + [
        ["verify", suite.name, "--trials", str(trials), "--seed", str(seed), *suite_flags]
        for seed in seeds
        for suite in list_suites()
    ]
results = []
for argv in runs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    results.append([" ".join(argv), code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


# The verify flags passed on to every suite, each with one value.
_SUITE_FLAGS = (
    "--tol-unitarity",
    "--tol-residual",
    "--tol-rank",
    "--tol-surface-guard",
    "--max-alpha",
    "--max-inner",
    "--max-arity",
)


def _run(src: str, spec: list) -> dict:
    """``{label: [exit code, stdout, stderr]}`` of every run in the tree ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _WORKER], env=env, input=json.dumps(spec), capture_output=True, text=True, check=True
    )
    return {label: result for label, *result in json.loads(done.stdout)}


def _parts(a, b) -> str:
    """What differs between the results of one run in the two trees."""
    if b is None:
        return "only in A"
    if a is None:
        return "only in B"
    return ", ".join(part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--argv", default=None, metavar="FILE", help="JSON list of command lines to run instead")
    args, suite_flags = parser.parse_known_args(argv)
    if len(suite_flags) % 2 or any(flag not in _SUITE_FLAGS for flag in suite_flags[::2]):
        parser.error(f"expected pairs of one of {', '.join(_SUITE_FLAGS)} and a value, got {suite_flags}")

    runs = None
    if args.argv is not None:
        with open(args.argv, encoding="utf-8") as file:
            runs = json.load(file)
    spec = [runs, args.trials, args.seeds, suite_flags]
    first, second = (_run(src, spec) for src in (args.src_a, args.src_b))
    labels = list(first) + [label for label in second if label not in first]
    differ = [label for label in labels if first.get(label) != second.get(label)]
    for label in differ:
        print(f"differs ({_parts(first.get(label), second.get(label))}): {label}")
    print(f"{len(labels) - len(differ)} of {len(labels)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
