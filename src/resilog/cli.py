"""Command-line front end.

Subcommands: check, zeros, residues, verify, poincare, surface,
discrepancy, cyclic.  Each command returns its exit code, its document and
its table lines; ``main`` turns the document into JSON with ``to_doc``, tags
it with the schema "resilog/1" and the command, and prints either that
(``--format machine``) or the table.  All runs are deterministic for fixed
inputs and flags.

Exit codes: 0 success, 1 usage/parse error, 2 domain failure (not tangent,
identity violated, matrix not negative definite, ...).  A reader that closes
stdout early leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from fractions import Fraction

from . import aggregate, birational
from .algebra import DomainError, RatMatrix
from .foliation import NotTangent, verify_tangency
from .parse import (ParseError, ProblemDocument, SchemaError, numeric_value, parse_points,
                    parse_problem, parse_rational, print_poly, raw_document)
from .residue import NumericConfig, SingularPoint

SCHEMA = "resilog/1"
KINDS = ("ordinary", "log", "var")
# A zero where the divisor is singular has no simplicity (``simple`` is None).
SIMPLICITY = {True: "simple", False: "degenerate", None: "divisor singular"}
Output = tuple[int, object, list[str]]  # exit code, document, table lines


def to_doc(value):
    """JSON-ready form of a result: a dataclass becomes an object of its fields
    (``error`` left out while None), a dict an object, a list or tuple a list
    and a Fraction "p/q"; every other value is left as it is."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in dataclasses.fields(value)
                if f.name != "error" or value.error is not None}
    if isinstance(value, dict):
        return {k: to_doc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_doc(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _load_document(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _inputs(args) -> tuple[ProblemDocument, list[SingularPoint] | None, NumericConfig]:
    """The problem document; its user-attested points with those of ``--points``
    (None when there are none; verify_identities classifies them); and the
    numeric config: the defaults, overridden by the file's numeric.* keys,
    then by the flags, each typed by ``numeric_value``."""
    doc = _load_document(args.problem)
    flags = {f.name: numeric_value(f.name, getattr(args, f.name))
             for f in dataclasses.fields(NumericConfig) if getattr(args, f.name) is not None}
    cfg = NumericConfig(**{**doc.numeric, **flags})
    entries = list(doc.points)
    if getattr(args, "points", None):
        with open(args.points, encoding="utf-8") as handle:
            raw = raw_document(handle.read())
        if "points" not in raw:
            raise SchemaError(f"{args.points}: no 'points' entry")
        entries += parse_points(*raw["points"], doc.problem.n)
    points = [SingularPoint(e["chart"], tuple(e["coords"])) for e in entries] or None
    return doc, points, cfg


def _hom(p: SingularPoint) -> str:
    return ":".join(str(c) for c in aggregate.homogeneous_representative(p))


def cmd_check(args) -> Output:
    doc = _load_document(args.problem)
    try:
        cofactors = verify_tangency(doc.problem)
    except NotTangent as exc:
        remainder = print_poly(exc.applied)
        return 2, {"tangent": False, "chart": exc.chart, "remainder_of": remainder}, [
            f"NOT TANGENT in chart {exc.chart}: v(f) = {remainder} is not divisible by f"]
    table = {str(chart): print_poly(k) for chart, k in sorted(cofactors.items())}
    lines = ["tangent: yes", *(f"  chart {chart}: k = {k}" for chart, k in table.items())]
    return 0, {"tangent": True, "cofactors": table}, lines


def cmd_zeros(args) -> Output:
    doc, _, cfg = _inputs(args)
    mode = "numeric" if args.numeric else "exact_linear"
    points = aggregate.enumerate_singularities(doc.problem, mode, cfg=cfg)
    lines = [f"{len(points)} singular point(s) ({mode} discovery)"]
    lines += [f"  [{_hom(p)}]  chart {p.chart}, "
              f"{'on' if p.on_divisor else 'off'} divisor, {SIMPLICITY[p.simple]}"
              for p in points]
    return 0, {"mode": mode, "points": points}, lines


def _identities(args):
    doc, points, cfg = _inputs(args)
    try:
        i_list = None if args.i == "all" else [int(part) for part in args.i.split(",")]
    except ValueError:
        raise ValueError(f"--i must be 'all' or a comma list of integers, got {args.i!r}") from None
    return aggregate.verify_identities(doc.problem, points, i_list, cfg=cfg)


def cmd_residues(args) -> Output:
    report = _identities(args)
    records = [r for _, check in sorted(report.checks.items()) for r in check.records]
    lines = [f"i={r.i} [{_hom(r.point)}]  ordinary={r.ordinary}  log={r.log}  "
             f"var={r.var}  ({r.method})" for r in records]
    return 0, {"records": records, "level": report.level}, lines


def _check_doc(c: aggregate.IdentityCheck) -> dict:
    return {"i": c.i, "records": c.records,
            "totals": {k: getattr(c, f"{k}_total") for k in KINDS},
            "expected": {k: getattr(c, f"expected_{k}") for k in KINDS},
            "ok": {k: getattr(c, f"{k}_ok") for k in KINDS}}


def cmd_verify(args) -> Output:
    report = _identities(args)
    checks = [_check_doc(c) for _, c in sorted(report.checks.items())]
    lines = [f"certification level: {report.level}"]
    for c in checks:
        lines.append(f"i={c['i']}: " + ", ".join(
            f"{k} {c['totals'][k]} vs {c['expected'][k]} [{'ok' if c['ok'][k] else 'FAIL'}]"
            for k in KINDS))
    lines.extend(report.notes)
    doc = {"level": report.level, "complete": report.complete, "all_ok": report.all_ok,
           "checks": checks, "notes": report.notes}
    return 0 if report.all_ok else 2, doc, lines


def cmd_poincare(args) -> Output:
    doc, points, cfg = _inputs(args)
    verdict = aggregate.poincare_check(doc.problem, points, cfg=cfg)
    lines = [
        f"i used: {verdict.i_used} (n - i odd)",
        f"total logarithmic residue: {verdict.total_log_residue}",
        f"all local log residues non-negative: {verdict.all_local_nonnegative}",
    ]
    if verdict.nonnegative:
        lines.append(
            f"bound asserted: m = {verdict.m} <= d + n = {verdict.d + verdict.n}"
            + (" (tight)" if verdict.equality else "")
        )
    else:
        lines.append("total negative: the bound hypothesis fails, nothing asserted")
    return 0 if verdict.nonnegative else 2, verdict, lines


def cmd_surface(args) -> Output:
    doc, points, cfg = _inputs(args)
    report = aggregate.surface_report(doc.problem, points, cfg=cfg)
    lines = [f"[{_hom(row.point)}]  GSV={row.gsv}  CS={row.cs}  "
             f"ordinary={row.ordinary}" for row in report.rows]
    lines.append(f"GSV total {report.gsv_total} (expected {report.expected_gsv_total}); "
                 f"CS total {report.cs_total} (expected {report.expected_cs_total})")
    if report.all_gsv_nonnegative:
        lines.append(f"Carnicer bound asserted: m = {doc.problem.m} <= d + 2 = {doc.problem.d + 2}")
        if report.equality_flag:
            lines.append("GSV total is zero: consistent with the generalized-curve "
                         "equality case (not certified)")
    else:
        lines.append("a GSV index is negative: the bound hypothesis fails")
    return 0, report, lines


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {value!r}")
    return value


def cmd_discrepancy(args) -> Output:
    with open(args.matrix, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "M" not in data or "I" not in data:
        raise SchemaError(f"{args.matrix}: expected a JSON object with 'M' and 'I'")
    M = RatMatrix([[parse_rational(str(x)) for x in _json_list(row, "a row of M")]
                   for row in _json_list(data["M"], "M")])
    I = tuple(parse_rational(str(x)) for x in _json_list(data["I"], "I"))
    problem = birational.DiscrepancyProblem(M=M, I=I)
    try:
        result = birational.solve_discrepancies(problem)
    except birational.NotNegativeDefinite as exc:
        return 2, {"negative_definite": False, "violating_minor": exc.k}, [
            f"matrix is not negative definite (minor {exc.k})"]
    lines = [
        f"b = ({', '.join(str(v) for v in result.b)})",
        f"a = ({', '.join(str(v) for v in result.a)})",
        f"classification: {result.classification}",
        "note: isolatedness and no-divisorial-zero hypotheses are attested "
        "by the input, not verified here",
    ]
    return 0, {"negative_definite": True, **vars(result)}, lines


def cmd_cyclic(args) -> Output:
    model = birational.cyclic_quotient_model(args.m)
    lines = [f"cyclic quotient of order {model.m}"]
    for cf, rec in zip(model.charts, model.point_residues):
        lines.append(
            f"  chart {cf.chart} vars {'/'.join(cf.variables)}: field "
            f"({', '.join(print_poly(a) for a in cf.a)}), divisor {print_poly(cf.f)}, "
            f"log residue {rec.log}"
        )
    lines.append(f"I_E = {model.I_E}")
    lines.append(f"b = {model.result.b[0]}, a = {model.result.a[0]}, "
                 f"classification: {model.result.classification}")
    doc = {"m": model.m, "point_log_residues": [r.log for r in model.point_residues],
           "I_E": model.I_E, "b": model.result.b[0], "a": model.result.a[0],
           "classification": model.result.classification}
    return 0, doc, lines


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like parse errors; argparse's 2 is the domain-failure code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="resilog", description="Exact logarithmic and excess residues of "
                                                 "foliations on projective space")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(run, summary, *flags):
        """The subcommand running ``run``, with ``--format`` and the named ``flags``:
        the problem file, ``--points``, ``--i`` and the NumericConfig fields."""
        p = sub.add_parser(run.__name__.removeprefix("cmd_"), help=summary)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("table", "machine"), default="table")
        if "problem" in flags:
            p.add_argument("problem", help="problem file")
        if "points" in flags:
            p.add_argument("--points", help="file with a user-attested point list")
        if "i" in flags:
            p.add_argument("--i", default="all", help="comma list of i values or 'all'")
        if "numeric" in flags:
            for f in dataclasses.fields(NumericConfig):
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                               help="comma-separated" if isinstance(f.default, tuple) else None)
        return p

    command(cmd_check, "tangency check with cofactor table", "problem")
    command(cmd_zeros, "enumerate singular points", "problem", "numeric").add_argument(
        "--numeric", action="store_true", help="use numeric zero discovery")
    command(cmd_residues, "per-point residue records", "problem", "points", "i", "numeric")
    command(cmd_verify, "check the global residue identities", "problem", "points", "i",
            "numeric")
    command(cmd_poincare, "degree bound check", "problem", "points", "numeric")
    command(cmd_surface, "GSV / Camacho-Sad report (n = 2)", "problem", "points", "numeric")
    command(cmd_discrepancy, "log discrepancies from (M, I)").add_argument(
        "matrix", help="JSON file with M and I")
    command(cmd_cyclic, "built-in cyclic quotient model").add_argument(
        "--m", type=int, required=True)
    return parser


def main(argv=None) -> int:
    """Run one command; each warning it raises is printed as one stderr line."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, doc, lines = args.run(args)
        except ParseError as exc:
            print(f"parse error at {exc.line}:{exc.column}: {exc.message}", file=sys.stderr)
            return 1
        except (SchemaError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    try:
        if args.format == "machine":
            print(json.dumps({"schema": SCHEMA, "command": args.command, **to_doc(doc)},
                             indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head -1``).  Pointing stdout at
        # devnull keeps the flush at interpreter exit silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
