"""Steadiness check: repeat each benchmark workload over ten seeds.

    python3 perfbench/steady.py

Runs every workload in BENCHMARK.json with seeds 1-10 for ``run_seconds``
each.  For every end-to-end metric it prints the median over the runs and the
spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, beside the metric's bound.  A spread
above a third of its bound is flagged and makes the exit code 1.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    unsteady = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed operations")
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
        results[name] = values
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            unsteady += bool(flag)
            print(f"{name:<12} {m['name']:<12} median {med:12.5g} {m['unit']:<4} "
                  f"spread {spread:7.4f}  bound {m['bound']:.2f}{flag}", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
