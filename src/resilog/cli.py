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
import json
import os
import sys
import warnings
from fractions import Fraction

from . import aggregate, birational
from .algebra import DomainError, RatMatrix
from .foliation import NotTangent, chart_fields
from .parse import (ParseError, ProblemDocument, SchemaError, numeric_value, parse_integer,
                    parse_points, parse_problem, parse_rational, print_poly, quote, raw_document)
from .residue import NonLinearField, NumericConfig, SingularPoint

SCHEMA = "resilog/1"
# A zero where the divisor is singular has no simplicity (``simple`` is None).
SIMPLICITY = {True: "simple", False: "degenerate", None: "divisor singular"}
Output = tuple[int, object, list[str]]  # exit code, document, table lines
# Over a point set not certified complete no bound is asserted:
INCOMPLETE = "point set not certified complete: nothing asserted"


def to_doc(value):
    """JSON-ready form of a result: a record (a NamedTuple) becomes an object of
    its fields (``error`` left out while None), a dict an object, another list
    or tuple a list and a Fraction "p/q"; every other value is left as it is."""
    if hasattr(value, "_fields"):
        return {name: to_doc(v) for name, v in zip(value._fields, value)
                if name != "error" or v is not None}
    if isinstance(value, dict):
        return {k: to_doc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_doc(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _read(path: str) -> str:
    """The text of the file at ``path``; one that is not UTF-8 is a SchemaError naming it."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None


def _inputs(args) -> tuple[ProblemDocument, list[SingularPoint] | None, NumericConfig]:
    """The problem document; its user-attested points with those of ``--points``
    (None when there are none; verify_identities classifies them); and the
    numeric config: the defaults, overridden by the file's numeric.* keys,
    then by the flags, each typed by ``numeric_value``."""
    doc = parse_problem(_read(args.problem))
    flags = {name: numeric_value(name, getattr(args, name))
             for name in NumericConfig._fields if getattr(args, name) is not None}
    cfg = NumericConfig(**{**doc.numeric, **flags})
    points = list(doc.points)
    if getattr(args, "points", None):
        raw = raw_document(_read(args.points))
        if "points" not in raw:
            raise SchemaError(f"{args.points}: no 'points' entry")
        points += parse_points(*raw["points"], doc.problem.n)
    return doc, points or None, cfg


def _hom(p: SingularPoint) -> str:
    return ":".join(str(c) for c in aggregate.homogeneous_representative(p))


def cmd_check(args) -> Output:
    doc = parse_problem(_read(args.problem))
    try:
        fields = chart_fields(doc.problem)
    except NotTangent as exc:
        remainder = print_poly(exc.applied)
        return 2, {"tangent": False, "chart": exc.chart, "remainder_of": remainder}, [
            f"NOT TANGENT in chart {exc.chart}: v(f) = {remainder} is not divisible by f"]
    table = {str(cf.chart): print_poly(cf.k) for cf in fields}
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
        i_list = None if args.i == "all" else [parse_integer(part) for part in args.i.split(",")]
    except ValueError:
        raise ValueError("--i must be 'all' or a comma list of integers, got "
                         f"{quote(args.i)}") from None
    return aggregate.verify_identities(doc.problem, points, i_list, cfg=cfg)


def cmd_residues(args) -> Output:
    report = _identities(args)
    records = [r for _, check in sorted(report.checks.items()) for r in check.records]
    lines = [f"i={r.i} [{_hom(r.point)}]  ordinary={r.ordinary}  log={r.log}  "
             f"var={r.var}  ({r.method})" for r in records]
    return 0, {"records": records, "level": report.level}, lines


def _check_doc(c: aggregate.IdentityCheck) -> dict:
    return {"i": c.i, "records": c.records,
            "totals": {k: getattr(c, f"{k}_total") for k in aggregate.KINDS},
            "expected": {k: getattr(c, f"expected_{k}") for k in aggregate.KINDS},
            "ok": {k: c.ok(k) for k in aggregate.KINDS}}


def cmd_verify(args) -> Output:
    report = _identities(args)
    checks = [_check_doc(c) for _, c in sorted(report.checks.items())]
    lines = [f"certification level: {report.level}"]
    for c in checks:
        lines.append(f"i={c['i']}: " + ", ".join(
            f"{k} {c['totals'][k]} vs {c['expected'][k]} [{'ok' if c['ok'][k] else 'FAIL'}]"
            for k in aggregate.KINDS))
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
    if verdict.bound_holds:
        lines.append(
            f"bound asserted: m = {verdict.m} <= d + n = {verdict.d + verdict.n}"
            + (" (tight)" if verdict.equality else "")
        )
    elif verdict.nonnegative is False:
        lines.append("total negative: the bound hypothesis fails, nothing asserted")
    else:
        lines.append(INCOMPLETE)
    return 0 if verdict.bound_holds else 2, verdict, lines


def cmd_surface(args) -> Output:
    doc, points, cfg = _inputs(args)
    report = aggregate.surface_report(doc.problem, points, cfg=cfg)
    lines = [f"[{_hom(row.point)}]  GSV={row.gsv}  CS={row.cs}  "
             f"ordinary={row.ordinary}" for row in report.rows]
    lines.append(f"GSV total {report.gsv_total} (expected {report.expected_gsv_total}); "
                 f"CS total {report.cs_total} (expected {report.expected_cs_total})")
    if report.carnicer_bound_holds:
        lines.append(f"Carnicer bound asserted: m = {doc.problem.m} <= d + 2 = {doc.problem.d + 2}")
        if report.equality_flag:
            lines.append("GSV total is zero: consistent with the generalized-curve "
                         "equality case (not certified)")
    elif report.all_gsv_nonnegative:
        lines.append(INCOMPLETE)
    else:
        lines.append("a GSV index is negative: the bound hypothesis fails")
    return 0 if report.carnicer_bound_holds else 2, report, lines


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {quote(value)}")
    return value


def cmd_discrepancy(args) -> Output:
    try:
        data = json.loads(_read(args.matrix), parse_float=str, parse_int=parse_integer)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{args.matrix}: not a JSON document: {exc}") from None
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


# name: (run, help summary, arguments), in the order of ``resilog --help``.
COMMANDS = {
    "check": (cmd_check, "tangency check with cofactor table", ("problem",)),
    "zeros": (cmd_zeros, "enumerate singular points", ("problem", "numeric", "--numeric")),
    "residues": (cmd_residues, "per-point residue records", ("problem", "points", "i", "numeric")),
    "verify": (cmd_verify, "check the global residue identities",
               ("problem", "points", "i", "numeric")),
    "poincare": (cmd_poincare, "degree bound check", ("problem", "points", "numeric")),
    "surface": (cmd_surface, "GSV / Camacho-Sad report (n = 2)", ("problem", "points", "numeric")),
    "discrepancy": (cmd_discrepancy, "log discrepancies from (M, I)", ("matrix",)),
    "cyclic": (cmd_cyclic, "built-in cyclic quotient model", ("--m",)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with only ``command``'s subparser when it names one;
    its usage line still names every command, so help and errors read the same."""
    parser = _Parser(prog="resilog", description="Exact logarithmic and excess residues of "
                                                 "foliations on projective space")
    one = command in COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name in [command] if one else COMMANDS:
        run, summary, flags = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("table", "machine"), default="table")
        if "problem" in flags:
            p.add_argument("problem", help="problem file")
        if "points" in flags:
            p.add_argument("--points", help="file with a user-attested point list")
        if "i" in flags:
            p.add_argument("--i", default="all", help="comma list of i values or 'all'")
        if "numeric" in flags:
            for name, default in NumericConfig._field_defaults.items():
                p.add_argument("--" + name.replace("_", "-"), dest=name,
                               help="comma-separated" if isinstance(default, tuple) else None)
        if "--numeric" in flags:
            p.add_argument("--numeric", action="store_true", help="use numeric zero discovery")
        if "matrix" in flags:
            p.add_argument("matrix", help="JSON file with M and I")
        if "--m" in flags:
            p.add_argument("--m", type=parse_integer, required=True)
    return parser


def main(argv=None) -> int:
    """Run one command; each warning it raises is printed as one stderr line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:  # parse_args too: ``--m`` past parse.MAX_DIGITS is a SchemaError
            args = build_parser(argv[0] if argv else None).parse_args(argv)
            code, doc, lines = args.run(args)
            text = (json.dumps({"schema": SCHEMA, "command": args.command, **to_doc(doc)},
                               indent=2, sort_keys=True)
                    if args.format == "machine" else "\n".join(lines))
        except ParseError as exc:
            print(f"parse error at {exc.line}:{exc.column}: {exc.message}", file=sys.stderr)
            return 1
        except (SchemaError, OSError, ValueError) as exc:
            if "set_int_max_str_digits" in str(exc):  # Python's int-to-text limit, kept as is
                print(f"error: a result has an integer of more than {sys.get_int_max_str_digits()} "
                      "digits, Python's limit for printing one", file=sys.stderr)
                return 2
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except NonLinearField as exc:
            # The hint names only options of the command that ran.
            hint = ("give the zeros with --points or a points block (resilog zeros --numeric "
                    "lists them)" if "points" in COMMANDS[args.command][2] else "use --numeric")
            print(f"error: {exc}; {hint}", file=sys.stderr)
            return 2
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head -1``).  Pointing stdout at
        # devnull keeps the flush at interpreter exit silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
