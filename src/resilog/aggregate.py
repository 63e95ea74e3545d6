"""Global residue bookkeeping: sum local residues, check the residue
identities against the expected Chern numbers, run the Poincare bound, and
specialize to the surface (GSV / Camacho-Sad) report.

Certification levels: "proved-on-instance" (complete point set, all values
exact), "numeric" (a point is inexact: perturbed, or given by floats;
tolerance 1e-6), "partial" (point set not certified complete).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .foliation import ChartField, FoliationProblem, chart_fields, chern_expectations
from .residue import (
    NonLinearField,
    NumericConfig,
    ResidueRecord,
    SingularPoint,
    classify_point,
    closed_form_residues,
    discover_zeros_numeric,
    is_exact,
    is_zero,
    linear_zeros,
    local_data,
    perturbed_residues,
)

NUMERIC_TOL = 1e-6


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
    if exact and hom[lead] == 1 and set(map(type, hom)) == {Fraction}:
        return lead, tuple(hom)  # as at a linear zero in its own chart: nothing to divide
    scale = hom[lead] if not exact or isinstance(hom[lead], Fraction) else Fraction(hom[lead])
    return lead, tuple(v / scale for v in hom)


def homogeneous_representative(p: SingularPoint):
    """Homogeneous coordinates scaled so the first nonzero entry is 1; exact
    when the coordinates are."""
    return _normalized(p)[1]


def _locate(
    problem: FoliationProblem,
    fields: list[ChartField],
    mode: str,
    user_points: list[SingularPoint] | None,
    cfg: NumericConfig,
) -> list[tuple]:
    """Deduplicated (point, chart field, local data) triples across all
    charts of ``fields`` (one chart field per chart); each point classified
    once in its lowest chart, a given point as exact as its coordinates.
    Local data is None where the divisor is singular and at numeric zeros.  A
    linear zero comes classified from the lowest chart holding it, which is
    solved first.  A given point's chart must lie in 0..n (ValueError otherwise)."""
    raw: list[tuple] = []  # (point, local data or None)
    if mode == "user":
        if user_points is None:
            raise ValueError("mode 'user' needs user_points")
        for p in user_points:
            if not 0 <= p.chart <= problem.n:
                raise ValueError(f"point chart {p.chart} is out of range 0..{problem.n}")
        raw = [(p, None) for p in user_points]
    elif mode == "exact_linear":
        for cf in fields:
            raw.extend(linear_zeros(cf))
    elif mode == "numeric":
        for cf in fields:
            raw.extend((p, None) for p in discover_zeros_numeric(cf, cfg=cfg))
    else:
        raise ValueError(f"unknown discovery mode {mode!r}")

    seen: dict = {}
    for p, ld in raw:
        chart, hom = _normalized(p)
        key = hom if is_exact(hom) else tuple(round(float(v), 6) for v in hom)
        if key in seen:
            continue
        coords = hom[:chart] + hom[chart + 1 :]
        # A numeric zero keeps the flags it was found with: rescaled into a
        # far chart, its residual can exceed the absolute zero tolerance.
        if mode != "exact_linear":
            p, ld = ((p._replace(chart=chart, coords=coords), None) if mode == "numeric"
                     else classify_point(fields[chart], coords))
        seen[key] = p, fields[chart], ld
    return [v for _, v in sorted(seen.items(), key=lambda kv: tuple(map(str, kv[0])))]


def _covers_linear_zeros(fields: list[ChartField], located: list[tuple]) -> bool:
    """Whether the located points include every zero of the chart fields when
    all of them are affine-linear; True otherwise, where nothing certifies
    the zero set.  A zero set of positive dimension raises."""
    try:
        zeros = [p for cf in fields for p, _ in linear_zeros(cf)]
    except NonLinearField:
        return True

    def key(p):
        return tuple(round(float(v), 6) for v in homogeneous_representative(p))

    return {key(z) for z in zeros} <= {key(p) for p, _, _ in located}


def enumerate_singularities(
    problem: FoliationProblem,
    mode: str = "exact_linear",
    user_points: list[SingularPoint] | None = None,
    cfg: NumericConfig = NumericConfig(),
) -> list[SingularPoint]:
    """Deduplicated singular points across all charts.

    Modes: "exact_linear" (certified complete for affine-linear charts),
    "numeric" (multi-start Newton over the box [-2, 2]^n of each chart; may
    be incomplete), "user" (ingest user-attested points).
    """
    fields = chart_fields(problem)
    return [p for p, _, _ in _locate(problem, fields, mode, user_points, cfg)]


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

    def _matches(self, total, expected) -> bool:
        if total is None:
            return False
        if is_exact([total]):
            return total == expected
        return abs(total - expected) <= NUMERIC_TOL * max(1.0, abs(expected))

    @property
    def ordinary_ok(self) -> bool:
        return self._matches(self.ordinary_total, self.expected_ordinary)

    @property
    def log_ok(self) -> bool:
        return self._matches(self.log_total, self.expected_log)

    @property
    def var_ok(self) -> bool:
        return self._matches(self.var_total, self.expected_var)

    @property
    def all_ok(self) -> bool:
        return self.ordinary_ok and self.log_ok and self.var_ok


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
    """Sum of the values: None if any is None, a Fraction if all are exact
    (summed as integers over the lcm of their denominators), else a float."""
    if any(v is None for v in values):
        return None
    if is_exact(values):
        q = math.lcm(*(v.denominator for v in values))
        return Fraction(sum(v.numerator * (q // v.denominator) for v in values), q)
    return float(sum(float(v) for v in values))


def verify_identities(
    problem: FoliationProblem,
    points: list[SingularPoint] | None = None,
    i_list: list[int] | None = None,
    cfg: NumericConfig = NumericConfig(),
) -> GlobalReport:
    """Check the global residue identities on this instance.

    With no points given, singularities are discovered exactly (affine-linear
    charts only); given points are deduplicated and classified here, whatever
    their flags, and are complete unless the charts are affine-linear and a
    zero is missing.  Simple zeros take the closed
    forms, the others the perturbation engine.  An exact zero discrepancy at
    every requested i certifies the identity on this instance."""
    fields = chart_fields(problem)
    mode = "exact_linear" if points is None else "user"
    located = _locate(problem, fields, mode, points, cfg)
    complete = points is None or _covers_linear_zeros(fields, located)
    if i_list is None:
        i_list = list(range(problem.n))

    # One call per point for all its levels: i = 0, and i >= 1 on D.
    by_point: list[dict[int, ResidueRecord]] = []
    for p, cf, ld in located:
        ld = ld if ld is not None else local_data(cf, p)
        levels = [i for i in i_list if i == 0 or ld.s is not None]
        if levels:
            by_point.append(dict(zip(levels, closed_form_residues(ld, p, levels) if p.simple
                                     else perturbed_residues(cf, ld, p, levels, cfg))))
    expect = chern_expectations(problem)
    checks: dict[int, IdentityCheck] = {}
    notes: list[str] = []
    any_numeric = False

    for i in i_list:
        records = [at_point[i] for at_point in by_point if i in at_point]
        any_numeric = any_numeric or any(not r.point.exact for r in records)
        if any(r.ordinary is None for r in records):
            notes.append(
                f"i={i}: a zero with vanishing cofactor leaves the ordinary/log "
                "split undefined; only the variational total is certified"
            )
        checks[i] = IdentityCheck(
            i=i,
            records=records,
            ordinary_total=_total([r.ordinary for r in records]),
            log_total=_total([r.log for r in records]),
            var_total=_total([r.var for r in records]),
            expected_ordinary=expect.ordinary_total(i),
            expected_log=expect.log_total(i),
            expected_var=expect.var_total(i),
        )

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
    nonnegative: bool
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
    nonneg = total is not None and total >= 0
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
