"""Foliations on projective space tangent to a divisor.

Degree bookkeeping, chart dehomogenization, tangency verification with
cofactor extraction, and the expected Chern numbers the global identities
are checked against.  ``chart_fields`` divides once: with K = V(F)/F, chart c
has the cofactor k_c = (K - m*V_c) at z_c = 1 by Euler's identity (proof
there); only a field that is not tangent is divided chart by chart.
"""

from __future__ import annotations

import random
import warnings
from typing import NamedTuple

from .algebra import DomainError, MultiPoly, RatMatrix, SchemaError, align, det_exact, exact_divide


class NotTangent(DomainError):
    """The vector field does not preserve the divisor in some chart."""

    def __init__(self, chart: int, remainder_of: MultiPoly):
        self.chart = chart
        self.applied = remainder_of
        super().__init__(f"field is not tangent to the divisor in chart {chart}: "
                         "v(f) is not divisible by f")


class FoliationProblem(NamedTuple):
    """Homogeneous vector field on P^n together with an invariant divisor.

    ``components`` are the n+1 homogeneous components, all of the same total
    degree e; the foliation degree is d = e.  ``divisor`` is homogeneous of
    degree m.
    """

    n: int
    variables: tuple[str, ...]
    components: tuple[MultiPoly, ...]
    divisor: MultiPoly
    d: int
    m: int


class ChartField(NamedTuple):
    """The affine data of a foliation problem in one standard chart.

    ``a`` are the n affine components in ``variables`` (the non-chart
    coordinates in index order), ``f`` the dehomogenized divisor, and ``k``
    the cofactor with v(f) = k*f.
    """

    chart: int
    variables: tuple[str, ...]
    a: tuple[MultiPoly, ...]
    f: MultiPoly
    k: MultiPoly | None = None

    @property
    def n(self) -> int:
        return len(self.variables)


class ChernExpectations(NamedTuple):
    """Integer Chern numbers the residue totals must reproduce."""

    n: int
    d: int
    m: int

    @property
    def c1_NF(self) -> int:
        return self.n + self.d

    @property
    def c1_Nlog(self) -> int:
        return self.n + self.d - self.m

    def ordinary_total(self, i: int) -> int:
        check_level(self.n, i)
        return self.c1_NF ** (self.n - i) * self.m**i

    def log_total(self, i: int) -> int:
        check_level(self.n, i)
        return self.c1_Nlog ** (self.n - i) * self.m**i

    def var_total(self, i: int) -> int:
        return self.ordinary_total(i) - self.log_total(i)


def check_level(n: int, i: int):
    """ValueError unless the level i of a residue on P^n lies in 0..n-1."""
    if not 0 <= i <= n - 1:
        raise ValueError(f"i must lie in 0..{n - 1}, got {i}")


def make_problem(variables, components, divisor: MultiPoly) -> FoliationProblem:
    """Validate homogeneity and degrees and assemble a FoliationProblem."""
    variables = tuple(variables)
    zero = MultiPoly.zero(variables)  # charts read exponents by their place in variables
    components = tuple(align(zero, c)[1] for c in components)
    divisor = align(zero, divisor)[1]
    n = len(variables) - 1
    if len(components) != n + 1:
        raise SchemaError(f"{len(components)} field components for {n + 1} homogeneous "
                          "coordinates")
    degrees = set()
    for idx, comp in enumerate(components):
        if comp.is_zero:
            continue
        if not comp.is_homogeneous():
            raise SchemaError(f"field component {idx} is not homogeneous")
        degrees.add(comp.degree())
    if not degrees:
        raise SchemaError("the zero vector field does not define a foliation")
    if len(degrees) > 1:
        raise SchemaError(f"field components have mixed degrees {sorted(degrees)}")
    e = degrees.pop()
    if divisor.is_zero or not divisor.is_homogeneous():
        raise SchemaError("divisor must be a nonzero homogeneous polynomial")
    m = divisor.degree()
    if m < 1:
        raise SchemaError("divisor degree must be at least 1")
    if m > 1:
        _warn_if_likely_nonreduced(divisor, m)
    return FoliationProblem(n, variables, components, divisor, d=e, m=m)


_REDUCEDNESS_LINES = 3


def _warn_if_likely_nonreduced(divisor: MultiPoly, m: int):
    """Warn unless a seeded rational line z = p + t*q proves D reduced.

    Where D(q) != 0 the restriction g(t) has degree m, and a repeated factor
    of D restricts to one of g; so Res(g, g') != 0, which says g is
    squarefree (Cox-Little-O'Shea, ch. 3 sec. 6), proves D reduced."""
    rng = random.Random(20240817)
    t = MultiPoly.variable(("t",), "t")
    for _ in range(_REDUCEDNESS_LINES):
        point = [rng.randint(-9, 9) for _ in divisor.variables]
        direction = [rng.randint(1, 9) for _ in divisor.variables]
        g = divisor.eval([p + q * t for p, q in zip(point, direction)])
        if g.degree() < m:
            continue
        # The (2m-1)x(2m-1) Sylvester matrix of g and g', leading coefficients first.
        c = [g.terms.get((k,), 0) for k in range(m, -1, -1)]
        dc = [k * x for k, x in zip(range(m, 0, -1), c)]
        rows = [[0] * j + c + [0] * (m - 2 - j) for j in range(m - 1)]
        rows += [[0] * j + dc + [0] * (m - 1 - j) for j in range(m)]
        if det_exact(RatMatrix(rows)):
            return
    warnings.warn("divisor looks non-reduced (restrictions along random lines are not "
                  "squarefree); residue output is only meaningful for reduced divisors",
                  stacklevel=3)


def _affine(p: MultiPoly, chart: int) -> dict:
    """The term dict of a homogeneous p at z_c = 1; its exponents stay distinct."""
    return {e[:chart] + e[chart + 1:]: c for e, c in p.terms.items()}


def dehomogenize_field(problem: FoliationProblem, chart: int) -> ChartField:
    """Affine chart data (without the cofactor).

    In chart c, the affine components are a_j = V_{sigma(j)} - x_j * V_c at
    z_c = 1, x_j running over the non-chart coordinates in index order.  Each
    a_j is read from the term dicts: every term drops its chart exponent, and
    the terms of V_c also gain one in x_j's exponent and change sign.  The
    divisor drops its chart exponent too.  Adding any multiple of the Euler
    field to V leaves the result unchanged.
    """
    if not 0 <= chart <= problem.n:
        raise ValueError(f"chart must lie in 0..{problem.n}, got {chart}")
    affine_vars = problem.variables[:chart] + problem.variables[chart + 1 :]
    v_c = _affine(problem.components[chart], chart).items()
    components = []
    for j in range(problem.n):
        a_j = _affine(problem.components[j + (j >= chart)], chart)
        for e, c in v_c:
            e = e[:j] + (e[j] + 1,) + e[j + 1 :]
            a_j[e] = a_j.get(e, 0) - c
        components.append(MultiPoly._of(affine_vars, a_j))
    f_aff = MultiPoly._of(affine_vars, _affine(problem.divisor, chart))
    if f_aff.is_constant and not f_aff.is_zero:
        # D misses this chart's affine origin pattern entirely; normalize.
        f_aff = MultiPoly.const(affine_vars, 1)
    return ChartField(chart=chart, variables=affine_vars, a=tuple(components), f=f_aff)


def _applied(field, f: MultiPoly) -> MultiPoly:
    """v(f) = sum_j v_j * df/dx_j, read into one term dict from the terms."""
    terms: dict = {}
    for e, c in f.terms.items():
        for j in (j for j, e_j in enumerate(e) if e_j):
            de, dc = e[:j] + (e[j] - 1,) + e[j + 1:], c * e[j]  # a term of df/dx_j
            for ea, ca in field[j].terms.items():
                prod = tuple(x + y for x, y in zip(ea, de))
                terms[prod] = terms.get(prod, 0) + ca * dc
    return MultiPoly._of(f.variables, terms)


def chart_cofactor(cf: ChartField) -> MultiPoly:
    """Cofactor k with v(f) = k*f in this chart; raises NotTangent.  Where f
    was normalized to the unit 1, v(1) = 0 and k = 0."""
    vf = _applied(cf.a, cf.f)
    if (k := exact_divide(vf, cf.f)) is None:
        raise NotTangent(cf.chart, vf)
    return k


def chart_fields(problem: FoliationProblem) -> list[ChartField]:
    """Every chart's data with its cofactor from one division, K = V(F)/F:
    chart c reads k_c = (K - m*V_c) at z_c = 1 off the term dicts.  Proof: by
    Euler's identity sum_i z_i dF/dz_i = m*F, v(f) = (V(F) - m*V_c*F) at
    z_c = 1.  F divides V(F) exactly when every chart's f divides its v(f),
    as each irreducible factor of F lies off some hyperplane z_c; so where K
    is None, ``chart_cofactor`` raises NotTangent in the first failing chart.
    Each k_c keeps a division's term order, descending lex, for float values."""
    fields = [dehomogenize_field(problem, c) for c in range(problem.n + 1)]
    K = exact_divide(_applied(problem.components, problem.divisor), problem.divisor)
    if K is None:
        for cf in fields:
            chart_cofactor(cf)
        raise AssertionError("F divides V(F) in every chart but not globally")
    for chart, cf in enumerate(fields):
        k = _affine(K, chart)
        for e, c in _affine(problem.components[chart], chart).items():
            k[e] = k.get(e, 0) - problem.m * c
        k = MultiPoly._of(cf.variables, dict(sorted(k.items(), reverse=True)))
        fields[chart] = ChartField(chart, cf.variables, cf.a, cf.f, k)
    return fields


def chart_field(problem: FoliationProblem, chart: int) -> ChartField:
    """``chart_fields(problem)[chart]``; a ValueError unless 0 <= chart <= n."""
    return chart_fields(problem)[range(problem.n + 1).index(chart)]


def verify_tangency(problem: FoliationProblem) -> dict[int, MultiPoly]:
    """Per-chart cofactors; raises NotTangent on the first failing chart."""
    return {cf.chart: cf.k for cf in chart_fields(problem)}


def chern_expectations(problem: FoliationProblem) -> ChernExpectations:
    return ChernExpectations(n=problem.n, d=problem.d, m=problem.m)
