"""Span recorder that wraps resilog's public functions from outside the program.

``Tracer.installed()`` replaces each target function at every resilog module
that holds a reference to it (``resilog.residue.det_exact`` beside
``resilog.algebra.det_exact``, the package namespace, ...) and puts the
originals back on exit.  Nothing under ``src/`` changes; only the process
that installs the tracer sees the wrappers.

A span is ``[name, start, end, parent index, operation id]``, kept in memory.
A layer's self time is its spans' durations minus the time their direct
child spans cover (calls nest on one thread, so children never overlap).
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _chart_key(problem, chart, *_, **__):
    return id(problem), chart


def _point_key(cf, p, *_, **__):
    return cf.chart, tuple(p.coords)


# (span name, defining module, attribute, distinct-key function or None)
TARGETS = [
    ("parse", "resilog.parse", "parse_problem", None),
    ("foliation.chart_field", "resilog.foliation", "chart_field", _chart_key),
    ("algebra.det_exact", "resilog.algebra", "det_exact", None),
    ("algebra.solve_linear", "resilog.algebra", "solve_linear", None),
    ("algebra.rank", "resilog.algebra", "rank", None),
    ("algebra.exact_divide", "resilog.algebra", "exact_divide", None),
    ("residue.local_data", "resilog.residue", "local_data", _point_key),
    ("residue.closed_form", "resilog.residue", "simple_residues", None),
    ("residue.perturbed_residue", "resilog.residue", "perturbed_residue", None),
    ("residue.discover_numeric", "resilog.residue", "discover_zeros_numeric", None),
    ("aggregate.enumerate_singularities", "resilog.aggregate", "enumerate_singularities", None),
    ("aggregate.verify_identities", "resilog.aggregate", "verify_identities", None),
    ("birational.solve_discrepancies", "resilog.birational", "solve_discrepancies", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.error_max = 0.0
        # Id of the running operation; None between operations, when inputs
        # are generated, so that generation records nothing.
        self.op = None
        # Filled by CLI operations that run in traced child processes.
        self.children: list[dict] = []
        self.cli_samples: list[dict] = []
        self.interpreter_ms = 0.0

    def _wrap(self, name, fn, key):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if key is not None:
                self.distinct[name].add((self.op, key(*args, **kwargs)))
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            self._after(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name, result):
        if name == "residue.closed_form":
            self.counts["residue.closed_form.records"] += 1
        elif name == "residue.perturbed_residue" and result.error is not None:
            self.error_max = max(self.error_max, float(result.error))

    @contextmanager
    def installed(self):
        """Wrap every target at every resilog module that references it."""
        from resilog.algebra import MultiPoly

        restore = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "resilog" or n.startswith("resilog."))]
        for name, module_name, attr, key in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, key)
            for module in modules:
                if vars(module).get(attr) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

        original_eval = MultiPoly.eval

        def counted_eval(poly, point):
            if self.op is not None:
                self.counts["algebra.multipoly_eval.calls"] += 1
            return original_eval(poly, point)

        restore.append((MultiPoly, "eval", original_eval))
        MultiPoly.eval = counted_eval
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-layer calls, self milliseconds and distinct keys."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_ms[name] += (end - start - covered) * 1000.0
        return {
            "calls": dict(calls),
            "self_ms": dict(self_ms),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "counts": dict(self.counts),
            "error_max": self.error_max,
        }


def merge_summaries(summaries) -> dict:
    """Add per-layer summaries from several processes together."""
    out = {"calls": Counter(), "self_ms": Counter(), "distinct": Counter(),
           "counts": Counter(), "error_max": 0.0}
    for s in summaries:
        for field in ("calls", "self_ms", "distinct", "counts"):
            out[field].update(s[field])
        out["error_max"] = max(out["error_max"], s["error_max"])
    return out
