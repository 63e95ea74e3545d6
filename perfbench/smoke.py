"""Smoke test of the benchmark itself, with tiny inputs (about a minute).

    python3 perfbench/smoke.py

1. Runs every workload for one second with ``--small``, untraced and
   traced, and checks that the last stdout line carries exactly the metric
   names and units of BENCHMARK.json.
2. Shows that each oracle accepts a correct answer and rejects a tampered
   one: a total off by 1/7, a discrepancy off by 1/7, a missing or extra
   zero, exit 1 in place of 2, a wrong document field, a traceback.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   perfbench/, where it must fail without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from oracles import chart_point  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def expect(condition: bool, what: str):
    if not condition:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_result_lines():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--small"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            expect(proc.returncode == 0, f"{name} trace {trace} exits 0")
            print(proc.stdout, end="")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace {trace}: result keys")
            expect(result["attempted"] >= 1, f"{name} trace {trace}: attempted >= 1")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{name} trace {trace}: metric names and units")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace {trace}: numeric values")


def first(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


def check_oracles():
    notes = Counter()

    ops, _ = WORKLOADS["exact_diag"].build(0, True)
    diag = first(ops, "diag_P")
    report = diag.run(None)
    expect(diag.check(report, notes) is None, "exact_diag oracle accepts the program's report")
    off = dataclasses.replace(report.checks[0], log_total=report.checks[0].log_total + Fraction(1, 7))
    bad = dataclasses.replace(report, checks={**report.checks, 0: off})
    expect(diag.check(bad, notes) == "wrong_total", "exact_diag oracle rejects a total off by 1/7")
    bad = dataclasses.replace(report, level="numeric")
    expect(diag.check(bad, notes) == "wrong_level", "exact_diag oracle rejects a wrong level")

    chain = first(ops, "chain")
    result = chain.run(None)
    expect(chain.check(result, notes) is None, "chain oracle accepts the program's answer")
    bad = dataclasses.replace(result, b=(result.b[0] + Fraction(1, 7),) + result.b[1:])
    expect(chain.check(bad, notes) == "wrong_discrepancy", "chain oracle rejects b off by 1/7")

    ops, _ = WORKLOADS["degenerate_perturb"].build(0, True)
    jordan = next(ops)
    n = int(jordan.label.rsplit("P", 1)[1])
    good = SimpleNamespace(level="numeric", checks={
        i: SimpleNamespace(records=[None] * n, ordinary_total=float(o), log_total=float(l),
                           var_total=float(v))
        for i, (o, l, v) in jordan.expected.items()})
    expect(jordan.check(good, notes) is None, "degenerate oracle accepts the exact totals")
    good.checks[0].log_total += 1 / 7
    expect(jordan.check(good, notes) == "total_off_tolerance",
           "degenerate oracle rejects a total off by 1/7")

    ops, _ = WORKLOADS["numeric_discover"].build(0, True)
    lv = next(ops)
    exact_points = []
    for z in lv.expected:
        chart, coords = chart_point(z)
        exact_points.append(SimpleNamespace(chart=chart, coords=tuple(float(c) for c in coords)))
    expect(lv.check(exact_points, notes) is None, "numeric oracle accepts the exact zero set")
    expect(lv.check(exact_points[1:], notes) == "missed_zero",
           "numeric oracle rejects a missing zero")
    extra = SimpleNamespace(chart=0, coords=(0.123, 4.56)[: len(exact_points[0].coords)])
    expect(lv.check(exact_points + [extra], notes) == "spurious_zero",
           "numeric oracle rejects an extra zero")

    ops, _ = WORKLOADS["cli_cold"].build(0, False)
    not_tangent = first(ops, "check not_tangent")
    rc, out, err = not_tangent.run(None)
    expect(not_tangent.check((rc, out, err), notes) is None,
           "cli oracle accepts 'check not_tangent' exit 2")
    expect(not_tangent.check((1, out, err), notes) == "exit_1_expected_2",
           "cli oracle rejects exit 1 in place of 2")
    expect(not_tangent.check((2, out, "Traceback (most recent call last):\n"
                              "resilog.foliation.NotTangent: x"), notes)
           == "traceback:NotTangent", "cli oracle rejects a traceback")
    verify = first(ops, "verify p2_example")
    rc, out, err = verify.run(None)
    expect(verify.check((rc, out, err), notes) is None, "cli oracle accepts 'verify p2'")
    doc = json.loads(out)
    doc["checks"][0]["totals"]["log"] = str(Fraction(doc["checks"][0]["totals"]["log"])
                                            + Fraction(1, 7))
    expect(verify.check((rc, json.dumps(doc), err), notes) == "wrong_field:totals_0",
           "cli oracle rejects a verify total off by 1/7")


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact_diag", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run without the program's sources exits non-zero")
    expect(not proc.stdout.strip(), "run without the program's sources prints no result")


if __name__ == "__main__":
    check_oracles()
    check_bare_directory()
    check_result_lines()
    print("smoke: all checks passed")
