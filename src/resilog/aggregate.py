"""Global residue bookkeeping: sum local residues, check the residue
identities against the expected Chern numbers, run the Poincare bound, and
specialize to the surface (GSV / Camacho-Sad) report.

Certification levels: "proved-on-instance" (complete point set, all values
exact), "numeric" (a point is inexact: perturbed, or given by floats;
tolerance 1e-6), "partial" (point set not certified complete by ``zero_set``).
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .foliation import ChartField, FoliationProblem, chart_fields, chern_totals
from .residue import (
    DivisorSingularAt,
    NonLinearField,
    NumericConfig,
    ResidueRecord,
    SingularPoint,
    classify_point,
    closed_forms,
    diagonal_zeros,
    discover_zeros_numeric,
    is_exact,
    is_zero,
    perturbed_residues,
)

NUMERIC_TOL = 1e-6
KINDS = ("ordinary", "log", "var")


class IncompletePointSet(Warning):
    """The supplied points may not cover the whole singular set."""


def _normalized(p: SingularPoint) -> tuple[int, tuple]:
    """The index of the first homogeneous coordinate of ``p`` that is not
    ``is_zero`` and the homogeneous coordinates scaled so that entry is 1;
    exact when the coordinates are (an int lead divides as a Fraction), as at
    a perturbed zero given exactly.  The index is the point's chart."""
    coords = list(p.coords)
    exact = is_exact(coords)
    hom = coords[: p.chart] + [Fraction(1) if exact else 1.0] + coords[p.chart :]
    lead = next(j for j, v in enumerate(hom) if not is_zero(v, exact))
    scale = hom[lead] if not exact or isinstance(hom[lead], Fraction) else Fraction(hom[lead])
    return lead, tuple(v / scale for v in hom)


def homogeneous_representative(p: SingularPoint):
    """Homogeneous coordinates scaled so the first nonzero entry is 1; exact
    when the coordinates are."""
    return _normalized(p)[1]


class ZeroSet(NamedTuple):
    """A run's (point, local data) pairs, the chart fields they were classified
    in (None where exact discovery built none), and whether they are all zeros."""

    pairs: list[tuple]
    fields: list[ChartField] | None
    complete: bool


def zero_set(
    problem: FoliationProblem,
    points: list[SingularPoint] | None = None,
    numeric: bool = False,
    cfg: NumericConfig = NumericConfig(),
) -> ZeroSet:
    """The zeros a run holds, and whether they are every zero of the field.

    No points and not ``numeric``: ``diagonal_zeros``, complete, which tests
    tangency itself (a diagonal field's by F's weights, with no division).
    Else ``chart_fields`` divides once, and the given points (ValueError
    unless each chart lies in 0..n), classified, or with ``numeric``
    Newton's zeros in each chart, which keep the flags they were found with
    (in a far chart the residual can pass the tolerance) and are never
    complete; each kept once, in its lead chart, sorted by the
    strings of its homogeneous coordinates.  Given points are complete where
    they cover, to 6 decimals, ``diagonal_zeros`` over the same charts, which
    raises PositiveDimensional where any chart shows a line of zeros.  On any
    other field they are unless all are exact with det J != 0 (multiplicity 1)
    and fewer than sum_{k<=n} d^k: with multiplicity, isolated zeros number
    c_n(TP^n(d-1)), the h^n coefficient of (1 + d*h)^(n+1) / (1 + (d-1)*h)."""
    if points is None and not numeric:
        return ZeroSet(diagonal_zeros(problem), None, True)
    fields = chart_fields(problem)
    raw = [p for cf in fields for p in discover_zeros_numeric(cf, cfg=cfg)] if numeric else points
    for p in raw:
        if not 0 <= p.chart < len(fields):
            raise ValueError(f"point chart {p.chart} is out of range 0..{len(fields) - 1}")

    def rounded(hom):
        return tuple(round(float(v), 6) for v in hom)

    seen: dict = {}
    for p in raw:
        chart, hom = _normalized(p)
        key = hom if is_exact(hom) else rounded(hom)
        if key not in seen:
            coords = hom[:chart] + hom[chart + 1 :]
            seen[key] = ((p._replace(chart=chart, coords=coords), None) if numeric
                         else classify_point(fields[chart], coords))
    pairs = [v for _, v in sorted(seen.items(), key=lambda kv: tuple(map(str, kv[0])))]
    if numeric:
        return ZeroSet(pairs, fields, False)
    try:
        zeros = diagonal_zeros(problem, fields)
        complete = {rounded(_normalized(z)[1]) for z, _ in zeros} <= set(map(rounded, seen))
    except NonLinearField:
        simple = all(p.exact and ld is not None and ld.detJ != 0 for p, ld in pairs)
        complete = not simple or len(pairs) >= sum(problem.d**k for k in range(problem.n + 1))
    return ZeroSet(pairs, fields, complete)


def enumerate_singularities(
    problem: FoliationProblem,
    mode: str = "exact_linear",
    user_points: list[SingularPoint] | None = None,
    cfg: NumericConfig = NumericConfig(),
) -> list[SingularPoint]:
    """The points of ``zero_set``: "exact_linear" (certified complete for
    affine-linear charts), "numeric" (multi-start Newton over the box
    [-2, 2]^n of each chart; may be incomplete) or "user" (``user_points``)."""
    if mode not in ("exact_linear", "numeric", "user"):
        raise ValueError(f"unknown discovery mode {mode!r}")
    if mode == "user" and user_points is None:
        raise ValueError("mode 'user' needs user_points")
    zeros = zero_set(problem, user_points if mode == "user" else None, mode == "numeric", cfg)
    return [p for p, _ in zeros.pairs]


@dataclass
class IdentityCheck:
    """One i-level of the global residue identity."""

    i: int
    records: list[ResidueRecord]
    ordinary_total: object
    log_total: object
    var_total: object
    expected_ordinary: int
    expected_log: int
    expected_var: int

    def ok(self, kind: str) -> bool:
        """Whether the ``kind`` total matches exactly, or within NUMERIC_TOL*max(1, |expected|)."""
        total, expected = getattr(self, f"{kind}_total"), getattr(self, f"expected_{kind}")
        if total is None:
            return False
        if is_exact([total]):
            return total == expected
        return abs(total - expected) <= NUMERIC_TOL * max(1.0, abs(expected))

    @property
    def all_ok(self) -> bool:
        return all(self.ok(k) for k in KINDS)


@dataclass
class GlobalReport:
    """The identity checks of every requested i-level and the certification level."""

    checks: dict[int, IdentityCheck]
    complete: bool
    level: str  # proved-on-instance | numeric | partial
    notes: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(c.all_ok for c in self.checks.values())


def _total(values):
    """Sum of values of which one is inexact: None if any is None, else a float."""
    if any(v is None for v in values):
        return None
    return float(sum(float(v) for v in values))


def verify_identities(
    problem: FoliationProblem,
    points: list[SingularPoint] | None = None,
    i_list: list[int] | None = None,
    cfg: NumericConfig = NumericConfig(),
) -> GlobalReport:
    """Check the global residue identities on this instance.

    The zeros, discovered or given, and whether they are complete come from
    ``zero_set``.  Simple zeros take the closed forms, the others the
    perturbation engine.  An exact zero discrepancy at every requested i
    certifies the identity on this instance."""
    located, fields, complete = zero_set(problem, points, cfg=cfg)
    if i_list is None:
        i_list = list(range(problem.n))

    # One call per point for all its levels: i = 0, and i >= 1 on D.  An exact
    # value is an integer N over its point's D_p; L is the lcm of all D_p.
    by_point: list[tuple] = []  # (records by level, numerators by level, D_p, then L // D_p)
    for p, ld in located:
        if ld is None:  # classification found the divisor singular at p
            raise DivisorSingularAt(p.coords)
        levels = [i for i in i_list if i == 0 or ld.detJD is not None]
        if levels:
            records, den, numerators = (
                closed_forms(ld, p, levels) if p.simple
                else (perturbed_residues(fields[p.chart], ld, p, levels, cfg), None, None))
            by_point.append((dict(zip(levels, records)),
                             den and dict(zip(levels, numerators)), den))
    L = math.lcm(*(den for *_, den in by_point if den))
    by_point = [(records, numerators, den and L // den) for records, numerators, den in by_point]
    checks: dict[int, IdentityCheck] = {}
    notes: list[str] = []
    any_numeric = False

    for i in i_list:
        here = [at_point for at_point in by_point if i in at_point[0]]
        records = [at_i[i] for at_i, _, _ in here]
        any_numeric = any_numeric or any(not r.point.exact for r in records)
        if any(r.ordinary is None for r in records):
            notes.append(
                f"i={i}: a zero with vanishing cofactor leaves the ordinary/log "
                "split undefined; only the variational total is certified"
            )
        scales = [scale for _, _, scale in here]
        if all(scales):  # the closed forms' integers: Fraction(sum N*(L//D_p), L)
            columns = [[numerators[i][j] for _, numerators, _ in here] for j in range(3)]
            totals = [None if None in N else Fraction(sum(map(operator.mul, N, scales)), L)
                      for N in columns]
        else:
            totals = [_total([getattr(r, kind) for r in records]) for kind in KINDS]
        ordinary, log, var = chern_totals(problem.n, problem.d, problem.m, i)
        checks[i] = IdentityCheck(i, records, *totals, ordinary, log, var)

    if not complete:
        level = "partial"
        notes.append("point set not certified complete; totals are lower bounds only")
        warnings.warn("point set not certified complete; identity totals may miss "
                      "contributions", IncompletePointSet, stacklevel=2)
    elif any_numeric:
        level = "numeric"
    else:
        level = "proved-on-instance"
    return GlobalReport(checks=checks, complete=complete, level=level, notes=notes)


class PoincareVerdict(NamedTuple):
    """The sign of the total logarithmic residue and the degree bound it asserts."""

    i_used: int
    total_log_residue: object
    nonnegative: bool | None  # None over a partial point set: its sum decides nothing
    bound_holds: bool  # m <= d + n, asserted when nonnegative over a complete point set
    equality: bool
    all_local_nonnegative: bool
    d: int
    n: int
    m: int


def poincare_check(
    problem: FoliationProblem,
    points: list[SingularPoint] | None = None,
    cfg: NumericConfig = NumericConfig(),
) -> PoincareVerdict:
    """Degree bound from non-negativity of the total logarithmic residue.

    Uses i = 0 for odd n and i = 1 for even n, so the relevant exponent
    n - i is odd and non-negativity of the total forces m <= d + n.  The
    bound is asserted only when the point set is certified complete.
    """
    i_used = 0 if problem.n % 2 == 1 else 1
    report = verify_identities(problem, points, [i_used], cfg=cfg)
    check = report.checks[i_used]
    total = check.log_total
    nonneg = (total is not None and total >= 0) if report.complete else None
    locals_nonneg = all(r.log is not None and r.log >= 0 for r in check.records)
    return PoincareVerdict(
        i_used=i_used,
        total_log_residue=total,
        nonnegative=nonneg,
        bound_holds=report.complete and nonneg and problem.m <= problem.d + problem.n,
        equality=total == 0,
        all_local_nonnegative=locals_nonneg,
        d=problem.d,
        n=problem.n,
        m=problem.m,
    )


class SurfacePointRow(NamedTuple):
    """GSV and Camacho-Sad indices of one point on the divisor of a surface."""

    point: SingularPoint
    gsv: object
    cs: object
    ordinary: object


class SurfaceReport(NamedTuple):
    """The per-point GSV / Camacho-Sad rows with their totals and the Carnicer bound."""

    rows: list[SurfacePointRow]
    gsv_total: object
    cs_total: object
    expected_gsv_total: int
    expected_cs_total: int
    all_gsv_nonnegative: bool
    carnicer_bound_holds: bool  # m <= d + 2, asserted when all GSV >= 0 over a complete set
    equality_flag: bool  # GSV total zero: consistent with the equality case


def surface_report(
    problem: FoliationProblem,
    points: list[SingularPoint] | None = None,
    cfg: NumericConfig = NumericConfig(),
) -> SurfaceReport:
    """GSV / Camacho-Sad table on a surface (n = 2).

    Per point on the divisor: GSV = logarithmic i=1 residue, CS = excess
    i=1 residue; GSV + CS is the ordinary i=1 residue.  The Carnicer bound
    is asserted only when the point set is certified complete.
    """
    if problem.n != 2:
        raise ValueError("surface_report needs n = 2")
    report = verify_identities(problem, points, [1], cfg=cfg)
    check = report.checks[1]
    rows = [
        SurfacePointRow(point=r.point, gsv=r.log, cs=r.var, ordinary=r.ordinary)
        for r in check.records
    ]
    all_nonneg = all(r.gsv is not None and r.gsv >= 0 for r in rows)
    return SurfaceReport(
        rows=rows,
        gsv_total=check.log_total,
        cs_total=check.var_total,
        expected_gsv_total=check.expected_log,
        expected_cs_total=check.expected_var,
        all_gsv_nonnegative=all_nonneg,
        carnicer_bound_holds=report.complete and all_nonneg and problem.m <= problem.d + 2,
        equality_flag=check.log_total == 0,
    )
