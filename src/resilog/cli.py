"""Command-line front end.

Subcommands: check, zeros, residues, verify, poincare, surface,
discrepancy, cyclic.  Output is either a human table or a machine-readable
JSON document (schema "resilog/1"); both renderings are built from the same
document, and all runs are deterministic for fixed inputs and flags.

Exit codes: 0 success, 1 usage/parse error, 2 domain failure (not tangent,
identity violated, matrix not negative definite, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import aggregate, birational
from .algebra import DomainError, RatMatrix
from .foliation import NotTangent, chart_field, verify_tangency
from .parse import (ParseError, SchemaError, parse_points, parse_problem, parse_rational,
                    print_poly, raw_document)
from .residue import NumericConfig, SingularPoint, classify_point

SCHEMA = "resilog/1"


def fmt(value) -> object:
    """JSON-safe rendering: exact rationals as 'p/q', floats as floats."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return value
    return str(value)


def _point_doc(p: SingularPoint) -> dict:
    return {
        "chart": p.chart,
        "coords": [fmt(c) for c in p.coords],
        "exact": p.exact,
        "on_divisor": p.on_divisor,
        "simple": p.simple,
    }


def _record_doc(r) -> dict:
    doc = {
        "point": _point_doc(r.point),
        "i": r.i,
        "ordinary": fmt(r.ordinary),
        "log": fmt(r.log),
        "var": fmt(r.var),
        "method": r.method,
    }
    if r.error is not None:
        doc["error"] = r.error
    return doc


def _emit(doc: dict, fmt_name: str, lines: list[str]):
    if fmt_name == "machine":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _numeric_config(args, file_numeric: dict) -> NumericConfig:
    values = dict(file_numeric)
    for key in ("seed", "newton_tol", "newton_max_iter", "dedupe_radius",
                "search_radius", "grid_per_axis"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "eps_levels", None):
        values["eps_levels"] = tuple(float(x) for x in args.eps_levels.split(","))
    if "eps_levels" in values:
        values["eps_levels"] = tuple(values["eps_levels"])
    return NumericConfig(**values)


def _load_document(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _load_points(args, doc) -> list[SingularPoint] | None:
    entries = list(doc.points)
    if getattr(args, "points", None):
        with open(args.points, encoding="utf-8") as handle:
            raw = raw_document(handle.read())
        if "points" not in raw:
            raise SchemaError(f"{args.points}: no 'points' entry")
        entries += parse_points(*raw["points"], doc.problem.n)
    if not entries:
        return None
    fields = {c: chart_field(doc.problem, c) for c in dict.fromkeys(e["chart"] for e in entries)}
    return [classify_point(fields[e["chart"]], e["coords"], True)[0] for e in entries]


def _parse_i_list(args, n: int) -> list[int]:
    text = getattr(args, "i", None) or "all"
    if text == "all":
        return list(range(n))
    return [int(part) for part in text.split(",")]


def cmd_check(args) -> int:
    doc = _load_document(args.problem)
    try:
        cofactors = verify_tangency(doc.problem)
    except NotTangent as exc:
        _emit(
            {"schema": SCHEMA, "command": "check", "tangent": False,
             "chart": exc.chart, "remainder_of": print_poly(exc.applied)},
            args.format,
            [f"NOT TANGENT in chart {exc.chart}: v(f) = {print_poly(exc.applied)} "
             "is not divisible by f"],
        )
        return 2
    lines = ["tangent: yes"]
    table = {}
    for chart, k in sorted(cofactors.items()):
        table[str(chart)] = print_poly(k)
        lines.append(f"  chart {chart}: k = {print_poly(k)}")
    _emit({"schema": SCHEMA, "command": "check", "tangent": True, "cofactors": table},
          args.format, lines)
    return 0


def cmd_zeros(args) -> int:
    doc = _load_document(args.problem)
    cfg = _numeric_config(args, doc.numeric)
    mode = "numeric" if args.numeric else "exact_linear"
    points = aggregate.enumerate_singularities(doc.problem, mode, cfg=cfg)
    lines = [f"{len(points)} singular point(s) ({mode} discovery)"]
    for p in points:
        hom = aggregate.homogeneous_representative(doc.problem, p)
        lines.append(
            f"  [{':'.join(str(fmt(c)) for c in hom)}]  chart {p.chart}, "
            f"{'on' if p.on_divisor else 'off'} divisor, "
            f"{'simple' if p.simple else 'degenerate'}"
        )
    _emit({"schema": SCHEMA, "command": "zeros", "mode": mode,
           "points": [_point_doc(p) for p in points]}, args.format, lines)
    return 0


def cmd_residues(args) -> int:
    doc = _load_document(args.problem)
    cfg = _numeric_config(args, doc.numeric)
    points = _load_points(args, doc)
    i_list = _parse_i_list(args, doc.problem.n)
    report = aggregate.verify_identities(doc.problem, points, i_list, cfg=cfg)
    lines = []
    recs = []
    for i, check in sorted(report.checks.items()):
        for r in check.records:
            recs.append(_record_doc(r))
            hom = aggregate.homogeneous_representative(doc.problem, r.point)
            lines.append(
                f"i={i} [{':'.join(str(fmt(c)) for c in hom)}]  "
                f"ordinary={fmt(r.ordinary)}  log={fmt(r.log)}  var={fmt(r.var)}  "
                f"({r.method})"
            )
    _emit({"schema": SCHEMA, "command": "residues", "records": recs,
           "level": report.level}, args.format, lines)
    return 0


def _check_doc(check: aggregate.IdentityCheck) -> dict:
    return {
        "i": check.i,
        "records": [_record_doc(r) for r in check.records],
        "totals": {"ordinary": fmt(check.ordinary_total),
                   "log": fmt(check.log_total),
                   "var": fmt(check.var_total)},
        "expected": {"ordinary": check.expected_ordinary,
                     "log": check.expected_log,
                     "var": check.expected_var},
        "ok": {"ordinary": check.ordinary_ok, "log": check.log_ok,
               "var": check.var_ok},
    }


def cmd_verify(args) -> int:
    doc = _load_document(args.problem)
    cfg = _numeric_config(args, doc.numeric)
    points = _load_points(args, doc)
    i_list = _parse_i_list(args, doc.problem.n)
    report = aggregate.verify_identities(doc.problem, points, i_list, cfg=cfg)
    lines = [f"certification level: {report.level}"]
    for i, check in sorted(report.checks.items()):
        lines.append(
            f"i={i}: ordinary {fmt(check.ordinary_total)} vs {check.expected_ordinary} "
            f"[{'ok' if check.ordinary_ok else 'FAIL'}], "
            f"log {fmt(check.log_total)} vs {check.expected_log} "
            f"[{'ok' if check.log_ok else 'FAIL'}], "
            f"var {fmt(check.var_total)} vs {check.expected_var} "
            f"[{'ok' if check.var_ok else 'FAIL'}]"
        )
    lines.extend(report.notes)
    _emit({"schema": SCHEMA, "command": "verify", "level": report.level,
           "complete": report.complete, "all_ok": report.all_ok,
           "checks": [_check_doc(c) for _, c in sorted(report.checks.items())],
           "notes": report.notes}, args.format, lines)
    return 0 if report.all_ok else 2


def cmd_poincare(args) -> int:
    doc = _load_document(args.problem)
    cfg = _numeric_config(args, doc.numeric)
    points = _load_points(args, doc)
    verdict = aggregate.poincare_check(doc.problem, points, cfg=cfg)
    lines = [
        f"i used: {verdict.i_used} (n - i odd)",
        f"total logarithmic residue: {fmt(verdict.total_log_residue)}",
        f"all local log residues non-negative: {verdict.all_local_nonnegative}",
    ]
    if verdict.nonnegative:
        lines.append(
            f"bound asserted: m = {verdict.m} <= d + n = {verdict.d + verdict.n}"
            + (" (tight)" if verdict.equality else "")
        )
    else:
        lines.append("total negative: the bound hypothesis fails, nothing asserted")
    _emit({"schema": SCHEMA, "command": "poincare",
           **{k: fmt(v) if k == "total_log_residue" else v
              for k, v in dataclasses.asdict(verdict).items()}},
          args.format, lines)
    return 0 if verdict.nonnegative else 2


def cmd_surface(args) -> int:
    doc = _load_document(args.problem)
    cfg = _numeric_config(args, doc.numeric)
    points = _load_points(args, doc)
    report = aggregate.surface_report(doc.problem, points, cfg=cfg)
    lines = []
    rows = []
    for row in report.rows:
        hom = aggregate.homogeneous_representative(doc.problem, row.point)
        rows.append({"point": _point_doc(row.point), "gsv": fmt(row.gsv),
                     "cs": fmt(row.cs), "ordinary": fmt(row.ordinary)})
        lines.append(
            f"[{':'.join(str(fmt(c)) for c in hom)}]  GSV={fmt(row.gsv)}  "
            f"CS={fmt(row.cs)}  ordinary={fmt(row.ordinary)}"
        )
    lines.append(f"GSV total {fmt(report.gsv_total)} "
                 f"(expected {report.expected_gsv_total}); "
                 f"CS total {fmt(report.cs_total)} "
                 f"(expected {report.expected_cs_total})")
    if report.all_gsv_nonnegative:
        lines.append(f"Carnicer bound asserted: m = {report.m} <= d + 2 = {report.d + 2}")
        if report.equality_flag:
            lines.append("GSV total is zero: consistent with the generalized-curve "
                         "equality case (not certified)")
    else:
        lines.append("a GSV index is negative: the bound hypothesis fails")
    _emit({"schema": SCHEMA, "command": "surface", "rows": rows,
           "gsv_total": fmt(report.gsv_total), "cs_total": fmt(report.cs_total),
           "expected_gsv_total": report.expected_gsv_total,
           "expected_cs_total": report.expected_cs_total,
           "all_gsv_nonnegative": report.all_gsv_nonnegative,
           "carnicer_bound_holds": report.carnicer_bound_holds,
           "equality_flag": report.equality_flag}, args.format, lines)
    return 0


def cmd_discrepancy(args) -> int:
    with open(args.matrix, encoding="utf-8") as handle:
        data = json.load(handle)
    M = RatMatrix(data["M"])
    I = tuple(parse_rational(str(x)) for x in data["I"])
    genera = tuple(int(g) for g in data["g"]) if "g" in data else None
    problem = birational.DiscrepancyProblem(M=M, I=I, genera=genera)
    try:
        result = birational.solve_discrepancies(problem)
    except birational.NotNegativeDefinite as exc:
        _emit({"schema": SCHEMA, "command": "discrepancy",
               "negative_definite": False, "violating_minor": exc.k},
              args.format,
              [f"matrix is not negative definite (minor {exc.k})"])
        return 2
    lines = [
        f"b = ({', '.join(str(v) for v in result.b)})",
        f"a = ({', '.join(str(v) for v in result.a)})",
        f"classification: {result.classification}",
        "note: isolatedness and no-divisorial-zero hypotheses are attested "
        "by the input, not verified here",
    ]
    _emit({"schema": SCHEMA, "command": "discrepancy", "negative_definite": True,
           "b": [fmt(v) for v in result.b], "a": [fmt(v) for v in result.a],
           "classification": result.classification}, args.format, lines)
    return 0


def cmd_cyclic(args) -> int:
    model = birational.cyclic_quotient_model(args.m)
    lines = [f"cyclic quotient of order {model.m}"]
    for cf, rec in zip(model.charts, model.point_residues):
        lines.append(
            f"  chart {cf.chart} vars {'/'.join(cf.variables)}: field "
            f"({', '.join(print_poly(a) for a in cf.a)}), divisor {print_poly(cf.f)}, "
            f"log residue {fmt(rec.log)}"
        )
    lines.append(f"I_E = {model.I_E}")
    lines.append(f"b = {model.result.b[0]}, a = {model.result.a[0]}, "
                 f"classification: {model.result.classification}")
    _emit({"schema": SCHEMA, "command": "cyclic", "m": model.m,
           "point_log_residues": [fmt(r.log) for r in model.point_residues],
           "I_E": fmt(model.I_E), "b": fmt(model.result.b[0]),
           "a": fmt(model.result.a[0]),
           "classification": model.result.classification}, args.format, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilog",
        description="Exact logarithmic and excess residues of foliations "
                    "on projective space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problem=True):
        if problem:
            p.add_argument("problem", help="problem file")
            p.add_argument("--points", help="file with a user-attested point list")
        p.add_argument("--format", choices=("table", "machine"), default="table")
        p.add_argument("--numeric", action="store_true",
                       help="use numeric zero discovery")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--newton-tol", dest="newton_tol", type=float, default=None)
        p.add_argument("--newton-max-iter", dest="newton_max_iter", type=int,
                       default=None)
        p.add_argument("--dedupe-radius", dest="dedupe_radius", type=float,
                       default=None)
        p.add_argument("--search-radius", dest="search_radius", type=float,
                       default=None)
        p.add_argument("--eps-levels", dest="eps_levels", default=None,
                       help="comma-separated perturbation sizes")
        p.add_argument("--grid-per-axis", dest="grid_per_axis", type=int,
                       default=None)

    common(sub.add_parser("check", help="tangency check with cofactor table"))
    common(sub.add_parser("zeros", help="enumerate singular points"))
    p = sub.add_parser("residues", help="per-point residue records")
    common(p)
    p.add_argument("--i", default="all", help="comma list of i values or 'all'")
    p = sub.add_parser("verify", help="check the global residue identities")
    common(p)
    p.add_argument("--i", default="all")
    common(sub.add_parser("poincare", help="degree bound check"))
    common(sub.add_parser("surface", help="GSV / Camacho-Sad report (n = 2)"))
    p = sub.add_parser("discrepancy", help="log discrepancies from (M, I)")
    p.add_argument("matrix", help="JSON file with M, I, optional g")
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p = sub.add_parser("cyclic", help="built-in cyclic quotient model")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("table", "machine"), default="table")
    return parser


_COMMANDS = {
    "check": cmd_check,
    "zeros": cmd_zeros,
    "residues": cmd_residues,
    "verify": cmd_verify,
    "poincare": cmd_poincare,
    "surface": cmd_surface,
    "discrepancy": cmd_discrepancy,
    "cyclic": cmd_cyclic,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error at {exc.line}:{exc.column}: {exc.message}", file=sys.stderr)
        return 1
    except (SchemaError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
