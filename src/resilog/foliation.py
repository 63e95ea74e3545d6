"""Foliations on projective space tangent to a divisor.

Degree bookkeeping, chart dehomogenization, tangency verification with
cofactor extraction, and the expected Chern numbers the global identities
are checked against.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .algebra import DomainError, MultiPoly, exact_divide
from .parse import SchemaError


class NotTangent(DomainError):
    """The vector field does not preserve the divisor in some chart."""

    def __init__(self, chart: int, remainder_of: MultiPoly):
        self.chart = chart
        self.applied = remainder_of
        super().__init__(
            f"field is not tangent to the divisor in chart {chart}: "
            f"v(f) is not divisible by f"
        )


@dataclass(frozen=True)
class FoliationProblem:
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


@dataclass(frozen=True)
class ChartField:
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


@dataclass(frozen=True)
class ChernExpectations:
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
        self._check_i(i)
        return self.c1_NF ** (self.n - i) * self.m**i

    def log_total(self, i: int) -> int:
        self._check_i(i)
        return self.c1_Nlog ** (self.n - i) * self.m**i

    def var_total(self, i: int) -> int:
        return self.ordinary_total(i) - self.log_total(i)

    def _check_i(self, i: int):
        if not 0 <= i <= self.n - 1:
            raise ValueError(f"i must lie in 0..{self.n - 1}, got {i}")


def make_problem(variables, components, divisor: MultiPoly) -> FoliationProblem:
    """Validate homogeneity and degrees and assemble a FoliationProblem."""
    variables = tuple(variables)
    components = tuple(components)
    n = len(variables) - 1
    if len(components) != n + 1:
        raise SchemaError(
            f"{len(components)} field components for {n + 1} homogeneous coordinates"
        )
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
    _warn_if_likely_nonreduced(variables, divisor)
    return FoliationProblem(
        n=n, variables=variables, components=components, divisor=divisor, d=e, m=m
    )


def _univariate_coeffs(p: MultiPoly) -> list[Fraction]:
    if len(p.variables) != 1:
        raise ValueError("expected a univariate polynomial")
    deg = max((e[0] for e in p.terms), default=0)
    out = [Fraction(0)] * (deg + 1)
    for e, c in p.terms.items():
        out[e[0]] = c
    return out


def _univariate_squarefree(coeffs: list[Fraction]) -> bool:
    """Squarefreeness via gcd(g, g') by the Euclidean algorithm."""

    def degree(c):
        return len(c) - 1

    def normalize(c):
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        return c

    def mod(a, b):
        a = a[:]
        while degree(a) >= degree(b) and any(x != 0 for x in a):
            shift = degree(a) - degree(b)
            factor = a[-1] / b[-1]
            for j, bj in enumerate(b):
                a[j + shift] -= factor * bj
            a = normalize(a)
        return a

    g = normalize(coeffs)
    if degree(g) <= 1:
        return True
    gp = normalize([c * j for j, c in enumerate(g)][1:] or [Fraction(0)])
    a, b = g, gp
    while any(x != 0 for x in b) and degree(b) > 0:
        a, b = b, mod(a, b)
    if any(x != 0 for x in b):
        return True  # gcd is a nonzero constant
    return degree(a) == 0


def _warn_if_likely_nonreduced(variables, divisor: MultiPoly, trials: int = 3):
    """Heuristic reducedness check: restrict to random rational lines.

    A non-reduced divisor gives a non-squarefree restriction along every
    line; a reduced one is squarefree along a random line outside a measure
    zero set.  Full multivariate squarefreeness is out of scope.
    """
    rng = random.Random(20240817)
    t = MultiPoly.variable(("t",), "t")
    for _ in range(trials):
        point = [Fraction(rng.randint(-9, 9)) for _ in variables]
        direction = [Fraction(rng.randint(1, 9)) for _ in variables]
        restricted = MultiPoly.zero(("t",))
        for e, c in divisor.terms.items():
            term = MultiPoly.const(("t",), c)
            for (p0, q0), k in zip(zip(point, direction), e):
                if k:
                    term = term * (MultiPoly.const(("t",), p0) + q0 * t) ** k
            restricted = restricted + term
        if restricted.is_zero or restricted.degree() < 1:
            continue
        if _univariate_squarefree(_univariate_coeffs(restricted)):
            return
    warnings.warn(
        "divisor looks non-reduced (restrictions along random lines are not "
        "squarefree); residue output is only meaningful for reduced divisors",
        stacklevel=3,
    )


def dehomogenize_field(problem: FoliationProblem, chart: int) -> ChartField:
    """Affine chart data (without the cofactor).

    In chart i, the affine components are a_j = V_{sigma(j)} - x_j * V_i
    with the chart coordinate set to 1, where x_j runs over the non-chart
    coordinates in index order.  Adding any multiple of the Euler field to
    V leaves the result unchanged.
    """
    if not 0 <= chart <= problem.n:
        raise ValueError(f"chart must lie in 0..{problem.n}, got {chart}")
    hom_vars = problem.variables
    chart_name = hom_vars[chart]
    affine_vars = tuple(v for j, v in enumerate(hom_vars) if j != chart)
    components = []
    for j, name in enumerate(hom_vars):
        if j == chart:
            continue
        x_j = MultiPoly.variable(hom_vars, name)
        a_hom = problem.components[j] - x_j * problem.components[chart]
        a_aff = a_hom.substitute_one(chart_name, 1)
        components.append(_reorder(a_aff, affine_vars))
    f_aff = _reorder(problem.divisor.substitute_one(chart_name, 1), affine_vars)
    if f_aff.is_constant and not f_aff.is_zero:
        # D misses this chart's affine origin pattern entirely; normalize.
        f_aff = MultiPoly.const(affine_vars, 1)
    return ChartField(chart=chart, variables=affine_vars, a=tuple(components), f=f_aff)


def _reorder(p: MultiPoly, variables: tuple[str, ...]) -> MultiPoly:
    """Project p onto the given variable tuple (a permutation of p's)."""
    if p.variables == variables:
        return p
    idx = [p.variables.index(v) for v in variables]
    return MultiPoly(variables, {tuple(e[j] for j in idx): c for e, c in p.terms.items()})


def chart_cofactor(cf: ChartField) -> MultiPoly:
    """Cofactor k with v(f) = k*f in this chart; raises NotTangent."""
    vf = MultiPoly.zero(cf.variables)
    for a_j, name in zip(cf.a, cf.variables):
        vf = vf + a_j * cf.f.partial(name)
    if cf.f.is_constant:
        # f was normalized to the unit 1 here; v(1) = 0 and k = 0.
        return MultiPoly.zero(cf.variables)
    k = exact_divide(vf, cf.f)
    if k is None:
        raise NotTangent(cf.chart, vf)
    return k


def chart_field(problem: FoliationProblem, chart: int) -> ChartField:
    """Full chart data including the cofactor."""
    cf = dehomogenize_field(problem, chart)
    k = chart_cofactor(cf)
    return ChartField(chart=cf.chart, variables=cf.variables, a=cf.a, f=cf.f, k=k)


def verify_tangency(problem: FoliationProblem) -> dict[int, MultiPoly]:
    """Per-chart cofactors; raises NotTangent on the first failing chart."""
    return {chart: chart_field(problem, chart).k for chart in range(problem.n + 1)}


def chern_expectations(problem: FoliationProblem) -> ChernExpectations:
    return ChernExpectations(n=problem.n, d=problem.d, m=problem.m)
