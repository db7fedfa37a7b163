"""Benchmark workloads: CLI passes whose inputs are generated from one seed.

A *pass* is the list of ``colligations`` CLI processes that make up one unit
of a workload's work.  The benchmark seed is the only source of randomness:
documents come from ``random_document`` with seeds drawn from it, and so do
the ball-grid seeds, the held-fixed doublecoset argument and the suite seed.
The program under test only ever sees the written document files and the
grid JSON on its command line.

Workload sizes (``FULL``) are set so that one pass takes a few seconds on a
2-core machine; ``ANCHOR`` is a tiny version of every pass whose output
digests are pinned in ``golden.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweeps", "verify-suites")

# The suites run by verify-suites; the values are trials per suite at full size.
SUITE_TRIALS = {
    "charfun-multiplicative": 200,
    "spectrum-union": 200,
    "multi-oracle": 200,
    "conjugacy-oracle": 200,
    "doublecoset-rational": 12,
    "relation-containment": 120,
    "relation-definiteness": 150,
}


@dataclass(frozen=True)
class Sizes:
    disc_resolution: int
    ball_count: int
    dc_ball_count: int
    trials_divisor: int


FULL = Sizes(disc_resolution=120, ball_count=800, dc_ball_count=250, trials_divisor=1)
ANCHOR = Sizes(disc_resolution=12, ball_count=6, dc_ball_count=3, trials_divisor=60)
ANCHOR_SEED = 0

BALL_RADIUS = 0.9
DISC = {"alpha": 2, "inner": 6}
FAMILY = {"alpha": 2, "inner": 4, "arity": 3}
# One worker thread: on a few shared cores a thread pool over tiny tasks
# measures GIL hand-offs and the host's scheduler more than the program.
THREADS = 1


@dataclass(frozen=True)
class Document:
    kind: str
    path: Path


@dataclass(frozen=True)
class Call:
    """One CLI process of a pass.

    ``command`` is ``eval``, ``surface`` or ``verify``.  For the two sweep
    commands ``grid`` is the grid object passed as ``--grid`` and ``fixed``
    the nested-list matrix passed as ``--fixed`` (doublecoset only); for
    ``verify`` the suite name and trial count are in ``suite``/``trials``.
    """

    label: str
    command: str
    document: Document | None = None
    grid: dict | None = None
    fixed: list | None = None
    suite: str | None = None
    trials: int = 0
    suite_seed: int = 0

    def argv(self) -> list[str]:
        threads = ["--threads", str(THREADS)]
        if self.command == "verify":
            return ["verify", self.suite, "--trials", str(self.trials), "--seed", str(self.suite_seed), *threads]
        args = [self.command, str(self.document.path), "--grid", _compact(self.grid), *threads]
        if self.fixed is not None:
            args += ["--fixed", _compact(self.fixed)]
        return args


@dataclass
class Workload:
    name: str
    calls: list[Call]
    documents: list[Document] = field(default_factory=list)


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _seeds(seed: int, count: int) -> list[int]:
    return [int(v) for v in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _write(kind: str, seed: int, path: Path, **dims) -> Document:
    from colligations.documents import random_document, save_document

    save_document(random_document(kind, seed, **dims), path)
    return Document(kind, path)


def build(name: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> Workload:
    """Write the workload's documents under ``workdir`` and describe its pass."""
    from colligations.documents import matrix_to_json
    from colligations.linalg import sample_ball

    workdir.mkdir(parents=True, exist_ok=True)
    seeds = _seeds(seed, 8)
    if name == "sweeps":
        disc_doc = _write("colligation", seeds[7], workdir / "colligation.json", **DISC)
        disc = {"type": "disc", "resolution": sizes.disc_resolution}
        docs = {
            kind: _write(kind, seeds[i], workdir / f"{kind}.json", **FAMILY)
            for i, kind in enumerate(("multi", "tri", "doublecoset"))
        }
        ball = {"type": "ball", "count": sizes.ball_count, "seed": seeds[3], "radius": BALL_RADIUS}
        dc_ball = {"type": "ball", "count": sizes.dc_ball_count, "seed": seeds[4], "radius": BALL_RADIUS}
        fixed = sample_ball(np.random.default_rng(seeds[5]), FAMILY["arity"], BALL_RADIUS)
        calls = [
            Call("eval-colligation", "eval", disc_doc, disc),
            Call("eval-multi", "eval", docs["multi"], ball),
            Call("eval-tri", "eval", docs["tri"], ball),
            Call("eval-doublecoset", "eval", docs["doublecoset"], dc_ball, fixed=matrix_to_json(fixed)),
            Call("surface-multi", "surface", docs["multi"], ball),
        ]
        return Workload(name, calls, [disc_doc, *docs.values()])
    if name == "verify-suites":
        # The suites draw their own instances; these documents, one per kind
        # at the suites' default sizes, are what set-up time is measured on.
        docs = [
            _write(kind, seeds[i], workdir / f"{kind}.json", alpha=2, inner=3, arity=2)
            for i, kind in enumerate(("colligation", "multi", "tri", "doublecoset"))
        ]
        calls = [
            Call(
                f"verify-{suite}",
                "verify",
                suite=suite,
                trials=max(1, trials // sizes.trials_divisor),
                suite_seed=seeds[6],
            )
            for suite, trials in SUITE_TRIALS.items()
        ]
        return Workload(name, calls, docs)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
