"""resilog benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload exact_diag --seed 0 --seconds 20 --trace 0

The next operation starts when the previous one finishes, in one process and
one thread (BLAS pinned to one thread for this process and its children).
Every answer is checked by the benchmark's own oracle.  With ``--trace 0``
the last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` the run measures half its time untraced and half traced and
reports the per-layer metrics.  Details, spans included, are written to
``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Set-up (import excepted) is repeated this many times; setup_s is the median.
SETUP_REPEATS = 11
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the final JSON line.  Each time metric here runs on
# every workload in BENCHMARK.json; the rest are printed in the table only.
PER_LAYER = {
    "parse.calls": "calls/op",
    "parse.self_ms": "ms/op",
    "foliation.chart_field.calls": "calls/op",
    "foliation.chart_field.self_ms": "ms/op",
    "foliation.chart_field.distinct_ratio": "ratio",
    "algebra.det_exact.calls": "calls/op",
    "algebra.det_exact.self_ms": "ms/op",
    "algebra.solve_linear.calls": "calls/op",
    "algebra.rank.calls": "calls/op",
    "algebra.exact_divide.self_ms": "ms/op",
    "algebra.multipoly_eval.calls": "calls/op",
    "residue.local_data.calls": "calls/op",
    "residue.local_data.self_ms": "ms/op",
    "residue.local_data.distinct_ratio": "ratio",
    "residue.closed_form.records": "records/op",
    "residue.discover_numeric.calls": "calls/op",
    "aggregate.enumerate_singularities.self_ms": "ms/op",
    "aggregate.verify_identities.self_ms": "ms/op",
    "birational.solve_discrepancies.calls": "calls/op",
    "birational.solve_discrepancies.self_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}

TABLE_ONLY = {
    "residue.perturbed_residue.calls": "calls/op",
    "residue.perturbed_residue.self_ms": "ms/op",
    "residue.perturbation.error_max": "abs",
    "residue.discover_numeric.self_ms": "ms/op",
    "residue.discover_numeric.recall": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.resilog_import_ms": "ms",
    "cli.compute_ms": "ms",
}


def _kernel_matrix():
    return [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(7)]
            for i in range(7)]


def kernel_ms() -> float:
    """Wall time of the reference kernel, the faster of two runs.

    The kernel is a fraction-free elimination on a fixed 7x7 rational matrix,
    written here and independent of resilog; about 1 ms on a shared 2-core
    x86-64 host.
    """
    best = float("inf")
    for _ in range(2):
        a = _kernel_matrix()
        t0 = perf_counter()
        prev = Fraction(1)
        for k in range(6):
            for i in range(k + 1, 7):
                for j in range(k + 1, 7):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            prev = a[k][k]
        best = min(best, perf_counter() - t0)
    return best * 1000.0


def start_ms() -> float:
    """Wall time of one bare ``python -c pass``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (perf_counter() - t0) * 1000.0


@dataclass(frozen=True)
class Reference:
    """Fixed work, independent of resilog, timed around each measured span.

    Reported times are wall times scaled to a machine on which the reference
    takes ``nominal_ms``, because CPU speed and process start-up on a shared
    host drift by 20% over minutes (see README: reference time).
    """
    time_ms: Callable[[], float]
    nominal_ms: float

    def scale(self, elapsed: float, before: float, after: float) -> float:
        return elapsed * self.nominal_ms * 2 / (before + after)


# In-process operations follow CPU speed; CLI calls follow process start-up.
KERNEL = Reference(kernel_ms, 1.0)
START = Reference(start_ms, 60.0)


def measure(ops, seconds: float, ref: Reference, tracer=None) -> dict:
    """Run operations from the iterator ``ops`` back to back for ``seconds``
    of wall time.  Each input is generated before its timed span starts.

    Each operation's wall time is scaled with the reference time measured
    just before and just after it.
    """
    raw, durations, labels = [], [], []
    failures: Counter = Counter()
    by_label: Counter = Counter()
    notes: Counter = Counter()
    ref_before = ref.time_ms()
    refs = [ref_before]
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        op = next(ops)
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            answer, error = op.run(tracer), None
        except Exception as exc:  # a crash is a failed operation, counted by type
            answer, error = None, type(exc).__name__
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        kind = error or op.check(answer, notes)
        ref_after = ref.time_ms()
        refs.append(ref_after)
        raw.append(elapsed)
        labels.append(op.label)
        durations.append(ref.scale(elapsed, ref_before, ref_after))
        ref_before = ref_after
        if kind:
            failures[kind] += 1
            by_label[f"{op.label}: {kind}"] += 1
        i += 1
    return {"raw": raw, "durations": durations, "labels": labels, "failures": failures,
            "failures_by_label": by_label, "notes": notes, "reference_ms": statistics.median(refs)}


def reference_call(fn, ref: Reference):
    """(result, reference seconds) of one call of ``fn``."""
    before = ref.time_ms()
    t0 = perf_counter()
    result = fn()
    elapsed = perf_counter() - t0
    return result, ref.scale(elapsed, before, ref.time_ms())


def tail(durations) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with 10 samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(stats: dict, setup_s: float, rss_mb: float) -> dict:
    attempted = len(stats["durations"])
    failed = sum(stats["failures"].values())
    tail_s, tail_pct = tail(stats["durations"])
    return {
        "ops_per_s": (attempted - failed) / sum(stats["durations"]),
        "op_p50_ms": statistics.median(stats["durations"]) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        "op_tail_percentile": tail_pct,
        "samples": attempted,
        "failed_ratio": failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "wall_ops_per_s": (attempted - failed) / sum(stats["raw"]),
        "wall_op_p50_ms": statistics.median(stats["raw"]) * 1000.0,
        "reference_ms": stats["reference_ms"],
    }


def per_layer(summary: dict, tracer, stats: dict, overhead: float) -> dict:
    """Per-layer metrics of a traced window, per operation so that runs of
    different throughput compare; times in reference milliseconds."""
    calls, self_ms, distinct = summary["calls"], summary["self_ms"], summary["distinct"]
    ops = len(stats["durations"])
    scale = sum(stats["durations"]) / sum(stats["raw"])

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in ("parse", "foliation.chart_field", "algebra.det_exact", "algebra.solve_linear",
                  "algebra.rank", "residue.local_data", "residue.perturbed_residue",
                  "residue.discover_numeric", "birational.solve_discrepancies"):
        out[f"{layer}.calls"] = ratio(calls.get(layer, 0), ops)
    for layer in ("parse", "foliation.chart_field", "algebra.det_exact", "algebra.exact_divide",
                  "residue.local_data", "residue.perturbed_residue", "residue.discover_numeric",
                  "aggregate.enumerate_singularities", "aggregate.verify_identities",
                  "birational.solve_discrepancies"):
        out[f"{layer}.self_ms"] = ratio(self_ms.get(layer, 0.0), ops) * scale
    for layer in ("foliation.chart_field", "residue.local_data"):
        out[f"{layer}.distinct_ratio"] = ratio(distinct.get(layer, 0), calls.get(layer, 0))
    for name in ("algebra.multipoly_eval.calls", "residue.closed_form.records"):
        out[name] = ratio(summary["counts"].get(name, 0), ops)
    out["residue.perturbation.error_max"] = summary["error_max"]
    out["residue.discover_numeric.recall"] = ratio(
        stats["notes"]["found_zeros"], stats["notes"]["oracle_zeros"])
    out["trace.overhead_ratio"] = overhead
    samples = tracer.cli_samples
    # The split of a CLI call stays in wall ms: in reference units the
    # interpreter's share would read START.nominal_ms by construction.
    interpreter = tracer.interpreter_ms
    out["cli.interpreter_ms"] = interpreter
    for name, key in (("numpy_import_ms", "numpy_ms"), ("resilog_import_ms", "resilog_ms")):
        out[f"cli.{name}"] = statistics.median(s[key] for s in samples) if samples else 0.0
    out["cli.compute_ms"] = statistics.median(
        s["wall_ms"] - interpreter - s["numpy_ms"] - s["resilog_ms"] for s in samples
    ) if samples else 0.0
    return out


def run_probes(probes) -> Counter:
    outcomes: Counter = Counter()
    for op in probes:
        try:
            kind = op.check(op.run(None), Counter())
        except Exception as exc:
            kind = type(exc).__name__
        outcomes[f"{op.label}: {kind or 'ok'}"] += 1
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "resilog" / "cli.py").is_file():
        print(f"error: no resilog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))

    def import_program():
        if workload.in_process:
            import resilog  # noqa: F401

    ref = KERNEL if workload.in_process else START

    def warm_up(repeat: int) -> float:
        """Reference seconds to generate and run the warm-up operations, each
        scaled on its own as in the timed window."""
        # Warm-up inputs come from fixed seeds of their own: every run sets up
        # the same work, and none of it recurs in the timed window.
        warm, _ = workload.build(f"warm{repeat}", args.small)
        return sum(reference_call(lambda: next(warm).run(None), ref)[1]
                   for _ in range(workload.warm_ops))

    _, import_s = reference_call(import_program, ref)
    setups = [warm_up(r) for r in range(SETUP_REPEATS)]
    setup_s = import_s + statistics.median(setups)
    ops, probes = workload.build(args.seed, args.small)

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    if args.trace:
        from tracer import Tracer, merge_summaries

        plain = measure(ops, args.seconds / 2, ref)
        tracer = Tracer()
        if workload.in_process:
            with tracer.installed():
                traced = measure(ops, args.seconds / 2, ref, tracer)
        else:  # operations trace themselves in their child processes
            tracer.interpreter_ms = statistics.median(start_ms() for _ in range(5))
            traced = measure(ops, args.seconds / 2, ref, tracer)
        summary = merge_summaries([tracer.summary()] + tracer.children)
        e2e_plain = end_to_end(plain, setup_s, 0.0)
        e2e_traced = end_to_end(traced, setup_s, 0.0)
        layers = per_layer(summary, tracer, traced, e2e_traced["ops_per_s"] / e2e_plain["ops_per_s"]
                           if e2e_plain["ops_per_s"] else 0.0)
        runs = [plain, traced]
    else:
        stats = measure(ops, args.seconds, ref)
        runs = [stats]
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    probe_outcomes = run_probes(probes)

    attempted = sum(len(r["durations"]) for r in runs)
    failures: Counter = Counter()
    by_label: Counter = Counter()
    for r in runs:
        failures.update(r["failures"])
        by_label.update(r["failures_by_label"])
    failed = sum(failures.values())

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "small": args.small, "attempted": attempted,
              "failed": failed, "failures": dict(failures),
              "failures_by_label": dict(by_label), "probes": dict(probe_outcomes)}
    if args.trace:
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        detail["per_layer"] = {k: {"value": layers[k], "unit": u}
                               for k, u in {**PER_LAYER, **TABLE_ONLY}.items()}
        detail["untraced"] = e2e_plain
        detail["traced"] = e2e_traced
        detail["labels"] = traced["labels"]  # operation id -> input label
        detail["spans"] = tracer.spans
        detail["child_spans"] = [c["spans"] for c in tracer.children]
        table = detail["per_layer"]
    else:
        e2e = end_to_end(stats, setup_s, rss_mb)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        detail["end_to_end"] = {**e2e, "setup_runs_s": setups, "import_s": import_s}
        table = {**metrics,
                 "failed_ratio": {"value": e2e["failed_ratio"], "unit": "ratio"},
                 "op_tail_percentile": {"value": e2e["op_tail_percentile"], "unit": "%"},
                 "samples": {"value": e2e["samples"], "unit": "count"},
                 "wall_ops_per_s": {"value": e2e["wall_ops_per_s"], "unit": "1/s"},
                 "wall_op_p50_ms": {"value": e2e["wall_op_p50_ms"], "unit": "ms"},
                 "reference_ms": {"value": e2e["reference_ms"], "unit": "ms"}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail))

    for key, m in table.items():
        print(f"{args.workload:<20} {key:<44} {m['value']:>14.6g} {m['unit']}")
    for kind, count in sorted(failures.items()):
        print(f"{args.workload:<20} failure {kind}: {count}")
    for outcome, count in sorted(probe_outcomes.items()):
        print(f"{args.workload:<20} known-defect probe {outcome} x{count}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
