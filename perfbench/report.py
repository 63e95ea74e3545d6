"""One command for the whole picture: every workload, untraced and traced.

    python3 perfbench/report.py

Runs run.py with seed 0 for ``run_seconds`` (from BENCHMARK.json) on all four
workloads: the two in BENCHMARK.json and the two report-only ones, whose known
defects make operations fail.  Then prints the end-to-end metrics with units,
failures by kind, the known-defect probes and the per-layer table.  The combined numbers go to perfbench/out/report.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import PER_LAYER, TABLE_ONLY  # noqa: E402

SEED = 0
ORDER = ("exact_diag", "degenerate_perturb", "numeric_discover", "cli_cold")
E2E = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
       ("op_tail_percentile", "%"), ("samples", "count"), ("failed_ratio", "ratio"),
       ("setup_s", "s"), ("peak_rss_mb", "MB"), ("wall_ops_per_s", "1/s"),
       ("wall_op_p50_ms", "ms"), ("reference_ms", "ms"))


def run(workload: str, seconds: float, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, timeout=900)
    path = HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    detail = json.loads(path.read_text())
    detail.pop("spans", None)
    detail.pop("child_spans", None)
    return detail


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = {w: {t: run(w, seconds, t) for t in (0, 1)} for w in ORDER}
    (HERE / "out" / "report.json").write_text(json.dumps(results, indent=1))

    width = 22
    print(f"{'end-to-end':<28}" + "".join(f"{w:>{width}}" for w in ORDER))
    for name, unit in E2E:
        row = "".join(f"{results[w][0]['end_to_end'][name]:>{width}.5g}" for w in ORDER)
        print(f"{name + ' [' + unit + ']':<28}{row}")
    print()
    for w in ORDER:
        for t in (0, 1):
            for kind, count in sorted(results[w][t]["failures_by_label"].items()):
                print(f"{w} (trace {t}) failed: {kind} x{count} "
                      f"of {results[w][t]['attempted']}")
        for outcome, count in sorted(results[w][0]["probes"].items()):
            print(f"{w} known-defect probe {outcome} x{count}")
    print()
    print(f"{'per layer (traced run)':<48}" + "".join(f"{w:>{width}}" for w in ORDER))
    for name, unit in {**PER_LAYER, **TABLE_ONLY}.items():
        row = "".join(f"{results[w][1]['per_layer'][name]['value']:>{width}.5g}" for w in ORDER)
        print(f"{name + ' [' + unit + ']':<48}{row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
