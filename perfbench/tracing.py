"""Spans and counters recorded around calls into the package's modules.

The traced run replays a workload in the benchmark's own process through
``colligations.cli.main``.  :func:`instrument` replaces public functions by
wrappers on every ``colligations`` module that holds a reference to them, and
:meth:`Tracer.restore` puts the originals back; no library source changes.
A span is ``(id, name, start, end, parent id, run id)``; the parent is the
innermost open span of the same thread.  Spans stay in memory until the run
writes them out.  Counters record calls that are too frequent or too small
for a span (``np.linalg.svd``, ``block_diag``).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

CHARFUNS = (
    "colligation.charfun_z",
    "multi.multi_charfun",
    "conjugacy.tri_charfun",
    "doublecoset.dc_charfun",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id: str | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _count(self, key: str) -> None:
        with self._lock:
            self.counts[key] += 1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn):
        """Wrap ``fn`` so each call records a span; ``name`` may be a
        function of the call's positional arguments.  Calls that return
        normally are also counted under ``<name>.ok``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, label, start, end, parent, self.run_id))
            self._count(label + ".ok")
            return result

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_everywhere(self, fn, replacement) -> None:
        """Point every ``colligations`` module reference to ``fn`` at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if modname != "colligations" and not modname.startswith("colligations."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, run in self.spans:
                row = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "run": run}
                out.write(json.dumps(row) + "\n")


def instrument(tracer: Tracer) -> None:
    """Install spans at the layer boundaries the per-layer metrics read."""
    from colligations import (
        cli,
        colligation,
        conjugacy,
        documents,
        doublecoset,
        linalg,
        multi,
        relations,
        verify,
    )

    spans = [
        ("cli.encode", cli._emit_records),
        ("documents.load", documents.load_document),
        ("documents.matrix_to_json", documents.matrix_to_json),
        ("linalg.solve", linalg.solve),
        ("linalg.sample", linalg.sample_ball),
        ("linalg.sample", linalg.sample_disc),
        ("colligation.charfun_z", colligation.charfun_z),
        ("multi.multi_charfun", multi.multi_charfun),
        ("multi.elimination_matrix", multi.elimination_matrix),
        ("conjugacy.tri_charfun", conjugacy.tri_charfun),
        ("doublecoset.dc_charfun", doublecoset.dc_charfun),
        ("doublecoset.transpose_inverse", doublecoset.transpose_inverse),
        (lambda suite, *_: f"verify.run_suite.{suite}", verify.run_suite),
        ("verify.oracle", multi.multi_charfun_system),
        ("verify.oracle", conjugacy.tri_charfun_system),
        ("verify.oracle", doublecoset.dc_charfun_system),
        ("relations", relations.char_relation),
        ("relations", relations.compose_relations),
        ("relations", relations.contains),
    ]
    for name, fn in spans:
        tracer.wrap_everywhere(fn, tracer.span(name, fn))
    tracer._patch(np.linalg, "svd", tracer.counter("linalg.svd", np.linalg.svd))
    tracer._patch(multi, "block_diag", tracer.counter("multi.block_diag", multi.block_diag))
    tracer._patch(
        doublecoset, "block_diag", tracer.counter("doublecoset.block_diag", doublecoset.block_diag)
    )


def span_totals(spans) -> tuple[dict, dict, Counter]:
    """Inclusive time, self time (span minus its child spans) and call count per name."""
    child = defaultdict(float)
    for span_id, name, start, end, parent, run in spans:
        if parent is not None:
            child[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for span_id, name, start, end, parent, run in spans:
        total[name] += end - start
        own[name] += end - start - child.get(span_id, 0.0)
        calls[name] += 1
    return total, own, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, suites, kind_points: Counter | None, trials: int) -> dict:
    """Per-layer numbers of one traced pass.

    ``kind_points`` counts the NDJSON records of a sweep per document kind; a
    verify pass passes ``None`` and a point is then one characteristic-function
    call.  Times are seconds summed over threads.
    """
    total, own, calls = span_totals(tracer.spans)
    counts = tracer.counts
    if kind_points is None:
        kind_points = Counter(
            {name.split(".")[0]: calls[name] for name in CHARFUNS}
        )
    points = sum(kind_points.values())
    suite_times = {f"verify.run_suite_s.{s}": total[f"verify.run_suite.{s}"] for s in suites}
    return {
        "cli.encode_s": total["cli.encode"],
        "documents.load_s": total["documents.load"],
        "documents.matrix_to_json_s": total["documents.matrix_to_json"],
        "linalg.solve_s": own["linalg.solve"],
        "linalg.solve_calls": calls["linalg.solve"],
        "linalg.solve_regular_frac": _ratio(counts["linalg.solve.ok"], calls["linalg.solve"]),
        "linalg.svd_calls_per_point": _ratio(counts["linalg.svd"], points),
        "linalg.sample_s": total["linalg.sample"],
        "colligation.charfun_z_s": own["colligation.charfun_z"],
        "multi.multi_charfun_s": own["multi.multi_charfun"],
        "multi.elimination_matrix_s": total["multi.elimination_matrix"],
        "multi.block_diag_calls_per_point": _ratio(counts["multi.block_diag"], kind_points["multi"]),
        "conjugacy.tri_charfun_s": total["conjugacy.tri_charfun"],
        "doublecoset.dc_charfun_s": own["doublecoset.dc_charfun"],
        "doublecoset.transpose_inverse_s": total["doublecoset.transpose_inverse"],
        "doublecoset.transpose_inverse_calls_per_point": _ratio(
            calls["doublecoset.transpose_inverse"], kind_points["doublecoset"]
        ),
        "doublecoset.block_diag_calls_per_point": _ratio(
            counts["doublecoset.block_diag"], kind_points["doublecoset"]
        ),
        "verify.run_suite_s": sum(suite_times.values()),
        **suite_times,
        "verify.oracle_s": total["verify.oracle"],
        "verify.charfun_calls_per_trial": _ratio(sum(calls[name] for name in CHARFUNS), trials),
        "relations.s": total["relations"],
    }
