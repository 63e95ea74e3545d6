"""Local residues at singular points.

``local_data`` is the single source of a zero's data.  One pass decides
whether the point is a zero, whether it lies on D and which entry s of
grad f borders det J_D, and gives the Jacobian trace trJ and determinant
detJ, the cofactor value k(p), and on the divisor the induced trace
trJ_D = trJ - k and determinant det J_D; classification, the closed forms
and the perturbation engine read these and decide none of them again.
Exactness (``is_exact``) and the zero test (``is_zero``) are defined once,
here, for every module.  At a zero p on D the determinants are tied,
detJ = k(p)*detJD.  Proof: differentiating
v(f) = k*f at p, where v and f vanish, gives J^T grad f = k(p) grad f, so J
keeps the tangent space ker(grad f) and acts on the quotient line by k(p).
An exact zero on D thus costs one elimination, of the bordered matrix behind
det J_D; inexact points keep two determinants, so numeric bits do not move.
The same ``LocalData`` classifies the point (``classify_point``) and feeds
the closed forms of all i-levels in one call (``closed_form_residues``): the
ordinary residue is trJ^n/detJ, and the excess (variational) residue has the
binomial numerator of ``delta_numerator``; these are the only copies of the
residue formulas.  On the divisor every numerator is homogeneous of degree
n - 1 in (trJ, trJD, k), so exact values enter as integers over one
denominator.  Degenerate zeros go through a seeded perturbation engine: it
deforms the chart field along a random field tangent to the divisor, so each
nearby perturbed zero is simple, and Richardson-extrapolates the summed
closed forms over two perturbation sizes.  ``_newton_zeros`` finds those
zeros and the zeros of numeric discovery.  numpy is imported inside the
numeric functions only, so the exact path never pays for loading it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .algebra import DomainError, MultiPoly, RatMatrix, back_substitute, det_exact, echelon
from .foliation import ChartField

if TYPE_CHECKING:
    import numpy as np


class NotAZero(DomainError):
    """The point is not a zero of the chart field."""


class DivisorSingularAt(DomainError):
    """The point lies on the singular locus of the divisor (unsupported)."""


class NotOnDivisor(DomainError):
    """A divisor-twisted residue (i >= 1) was requested off the divisor."""


class DegenerateZero(DomainError):
    """The relevant Jacobian determinant vanishes; ``perturbed_residue`` takes
    such zeros, and raises it where a perturbed zero is degenerate too."""


class ZeroCountUnstable(DomainError):
    """Perturbed zero counts disagree between the two perturbation sizes."""


class NewtonDivergence(DomainError):
    """No Newton start converged to a zero."""


class BoundaryZero(DomainError):
    """A perturbed zero sits on the search boundary; enlarge the radius."""


class NonLinearField(DomainError):
    """exact_linear zero discovery requires affine-linear components."""


class PositiveDimensional(DomainError):
    """The zero set is not isolated."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        super().__init__(f"zero set has dimension {dimension}")


@dataclass(frozen=True)
class NumericConfig:
    """Knobs for the numeric engine; deterministic by default, ValueError if out of range."""

    seed: int = 0
    newton_tol: float = 1e-12
    newton_max_iter: int = 60
    dedupe_radius: float = 1e-6
    search_radius: float = 0.5
    eps_levels: tuple[float, float] = (1e-3, 1e-4)
    grid_per_axis: int = 5

    def __post_init__(self):
        eps = self.eps_levels
        for name, ok, rule in (("newton_tol", self.newton_tol > 0, "> 0"),
                               ("newton_max_iter", self.newton_max_iter >= 1, ">= 1"),
                               ("dedupe_radius", self.dedupe_radius > 0, "> 0"),
                               ("search_radius", self.search_radius > 0, "> 0"),
                               ("grid_per_axis", self.grid_per_axis >= 2, ">= 2"),
                               ("eps_levels", len(set(eps)) == len(eps) == 2 and min(eps) > 0,
                                "two distinct values > 0")):
            if not ok:
                raise ValueError(f"numeric option {name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class SingularPoint:
    chart: int
    coords: tuple
    exact: bool = True
    on_divisor: bool = False
    simple: bool | None = None


@dataclass(frozen=True)
class LocalData:
    """Jacobian data of the field at a zero, in ambient and induced form."""

    trJ: object
    detJ: object
    k_at_p: object
    trJD: object
    detJD: object | None
    s: int | None


@dataclass(frozen=True)
class ResidueRecord:
    point: SingularPoint
    i: int
    ordinary: object  # Fraction, float, or None when unavailable
    log: object
    var: object
    method: str  # "closed_form" or "perturbation"
    error: float | None = None


def is_exact(values) -> bool:
    """Whether every value is exact: a Fraction or an int."""
    return all(isinstance(v, (Fraction, int)) for v in values)


def is_zero(value, exact: bool) -> bool:
    """The zero test: equality when exact, magnitude below 1e-9 otherwise."""
    return value == 0 if exact else abs(value) < 1e-9


def _det(rows, exact: bool):
    if exact:
        return det_exact(RatMatrix(rows))
    import numpy as np
    d = complex(np.linalg.det(np.array(rows, dtype=complex)))
    return d if d.imag else d.real


def local_data(cf: ChartField, p: SingularPoint) -> LocalData:
    """Traces, determinants, and cofactor value of the field at a zero of it,
    from one ``jet`` per component and one of f."""
    n = cf.n
    coords = tuple(p.coords)
    exact = is_exact(coords)
    values, jac = zip(*(a.jet(coords) for a in cf.a))
    if any(not is_zero(v, exact) for v in values):
        raise NotAZero(f"field does not vanish at ({', '.join(map(str, coords))})")
    trJ = sum(jac[j][j] for j in range(n))
    f_p, grad_f = cf.f.jet(coords)
    on_divisor = not cf.f.is_constant and is_zero(f_p, exact)
    if cf.k is None and on_divisor:  # off D k is not read; a constant f has k = 0
        raise ValueError("a point on the divisor needs the cofactor k; use chart_field")
    k_at_p = cf.k.eval(coords) if cf.k is not None else (Fraction(0) if exact else 0.0)
    trJD = trJ - k_at_p
    if not on_divisor:
        return LocalData(trJ, _det(jac, exact), k_at_p, trJD, detJD=None, s=None)

    s = next((j for j, g in enumerate(grad_f) if not is_zero(g, exact)), None)
    if s is None:
        raise DivisorSingularAt(f"divisor is singular at ({', '.join(map(str, coords))});"
                                " residues there are unsupported")
    rows = [jac[j] for j in range(n) if j != s] + [grad_f]
    sign = -1 if (n - 1 - s) % 2 else 1
    detJD = sign * _det(rows, exact) / grad_f[s]
    # detJ = k(p)*detJD (module docstring); inexact points keep their own bits.
    detJ = k_at_p * detJD if exact else _det(jac, exact)
    return LocalData(trJ=trJ, detJ=detJ, k_at_p=k_at_p, trJD=trJD, detJD=detJD, s=s)


def classify_point(cf: ChartField, coords) -> tuple[SingularPoint, LocalData | None]:
    """The zero at ``coords``, exact when they are, flagged on/off the divisor
    and simple or not, with its local data (None where the divisor is
    singular; simple is then unknown)."""
    coords = tuple(coords)
    exact = is_exact(coords)
    try:
        ld = local_data(cf, SingularPoint(cf.chart, coords, exact))
    except DivisorSingularAt:
        return SingularPoint(cf.chart, coords, exact, True, None), None
    on_divisor = ld.s is not None
    simple = not is_zero(ld.detJD if on_divisor else ld.detJ, exact)
    return SingularPoint(cf.chart, coords, exact, on_divisor, simple), ld


def delta_numerator(T, k, n: int, i: int):
    """Numerator of the variational residue.

    The binomial expansion of k^{i-1} * ((T+k)^{n-i} - T^{n-i}) with the
    i = 0 division by k carried out symbolically, so k = 0 is regular.
    Works for rationals, floats, and polynomials alike.
    """
    if not 0 <= i <= n - 1:
        raise ValueError(f"i must lie in 0..{n - 1}, got {i}")
    if i == 0:
        total = 0
        for l in range(1, n + 1):
            total = total + math.comb(n, l) * T ** (n - l) * k ** (l - 1)
        return total
    total = 0
    for l in range(1, n - i + 1):
        total = total + math.comb(n - i, l) * T ** (n - i - l) * k**l
    return k ** (i - 1) * total if i > 1 else total


def simple_residues(cf: ChartField, p: SingularPoint, i: int) -> ResidueRecord:
    """Closed-form ordinary/logarithmic/variational residues at a simple zero."""
    return closed_form_residues(local_data(cf, p), p, [i])[0]


def closed_form_residues(ld: LocalData, p: SingularPoint, levels: Sequence[int]) -> list:
    """One ResidueRecord per i in ``levels`` from the point's local data; raises
    DegenerateZero where the relevant determinant vanishes.  On the divisor
    the numerators are homogeneous of degree n - 1 in (trJ, trJD, k): exact
    values go in as integers a, t, c over q = lcm(den trJ, den k), found once
    for all levels, so each residue is one integer over q^(n-1)*detJD, not a
    chain of Fraction steps.  Inexact values go in unscaled, alike."""
    n = len(p.coords)
    exact = is_exact(p.coords)

    if ld.s is None:  # off the divisor
        for i in filter(None, levels):
            raise NotOnDivisor(f"i={i} residues only exist on the divisor")
        if is_zero(ld.detJ, exact):
            raise DegenerateZero("detJ = 0; fall back to perturbed_residue")
        ordinary = ld.trJ**n / ld.detJ
        record = ResidueRecord(replace(p, on_divisor=False), 0, ordinary, ordinary,
                               Fraction(0) if exact else 0.0, "closed_form")
        return [record for _ in levels]

    if is_zero(ld.detJD, exact):
        raise DegenerateZero("detJD = 0; fall back to perturbed_residue")
    point = replace(p, on_divisor=True)
    if exact:
        q = math.lcm(ld.trJ.denominator, ld.k_at_p.denominator)
        a, c = (v.numerator * (q // v.denominator) for v in (ld.trJ, ld.k_at_p))
        t, scale = a - c, q ** (n - 1) * ld.detJD
    else:
        a, t, c, scale = ld.trJ, ld.trJD, ld.k_at_p, ld.detJD
    records = []
    for i in levels:
        var = delta_numerator(t, c, n, i) / scale
        if i == 0 and is_zero(ld.k_at_p, exact):
            # detJ = k*detJD vanishes; the ordinary/log split has no closed
            # form here, only the excess is defined.
            ordinary = log = None
        elif i == 0:
            ordinary = ld.trJ**n / ld.detJ
            log = ordinary - var
        else:
            ordinary = a ** (n - i) * c ** (i - 1) / scale
            log = t ** (n - i) * c ** (i - 1) / scale
        records.append(ResidueRecord(point, i, ordinary, log, var, "closed_form"))
    return records


# -- numeric engine --------------------------------------------------------

def _newton(field: Sequence[MultiPoly], jac, x0, cfg: NumericConfig,
            center: np.ndarray | None = None, escape: float = math.inf) -> np.ndarray | None:
    """Complex Newton from one start: the zero reached, or None when the
    Jacobian turns singular, the residual stays above ``cfg.newton_tol`` for
    ``cfg.newton_max_iter`` steps, or an iterate leaves the L-inf ball of
    radius ``escape`` about ``center``."""
    import numpy as np
    m = len(field)
    x = np.array(x0, dtype=complex)
    for _ in range(cfg.newton_max_iter):
        fx = np.array([p.eval(x) for p in field], dtype=complex)
        if np.max(np.abs(fx)) < cfg.newton_tol:
            return x
        J = np.array([[jac[r][c].eval(x) for c in range(m)] for r in range(m)],
                     dtype=complex)
        try:
            x = x - np.linalg.solve(J, fx)
        except np.linalg.LinAlgError:
            return None
        if center is not None and np.max(np.abs(x - center)) > escape:
            return None
    return None


def _newton_zeros(field: Sequence[MultiPoly], starts, cfg: NumericConfig,
                  center: np.ndarray | None = None, escape: float = math.inf) -> list[np.ndarray]:
    """The distinct zeros ``_newton`` reaches from ``starts``, in start order: a
    zero is kept when it lies more than ``cfg.dedupe_radius`` (L-inf) from every
    zero kept before it.  Numeric discovery and the perturbation engine both
    search with it and differ only in their starts and filters."""
    import numpy as np
    jac = [[p.partial(v) for v in field[0].variables] for p in field]
    found: list[np.ndarray] = []
    for x0 in starts:
        x = _newton(field, jac, x0, cfg, center, escape)
        if x is not None and all(float(np.max(np.abs(x - q))) > cfg.dedupe_radius
                                 for q in found):
            found.append(x)
    return found


def _zeros_near(field: Sequence[MultiPoly], coords, radius: float, cfg: NumericConfig,
                fixed: int | None = None) -> list[np.ndarray]:
    """All zeros of the field within L-inf radius of the point ``coords``.

    Starts cover a polydisk: the center, then per axis the center plus points
    on a complex circle of radius 0.6*radius (the ``fixed`` axis keeps the
    center only); Newton runs in complex arithmetic so that conjugate zero
    pairs produced by perturbation are found too.  Raises NewtonDivergence
    when no start converges and BoundaryZero when a zero lies within
    ``cfg.dedupe_radius`` inside the boundary.
    """
    import numpy as np
    center = np.array([complex(c) for c in coords])
    g = cfg.grid_per_axis
    ring = [0.0 + 0.0j] + [
        0.6 * radius * complex(math.cos(2 * math.pi * t / (g - 1)),
                               math.sin(2 * math.pi * t / (g - 1)))
        for t in range(g - 1)
    ]
    grid = itertools.product(*([0j] if j == fixed else ring for j in range(len(field))))
    starts = [center] + [center + np.array(offsets) for offsets in grid]
    zeros = _newton_zeros(field, starts, cfg, center, 10 * radius)
    if not zeros:
        raise NewtonDivergence("no Newton start converged")
    dists = [float(np.max(np.abs(x - center))) for x in zeros]
    for dist in dists:
        if radius - cfg.dedupe_radius < dist <= radius:
            raise BoundaryZero(f"perturbed zero at distance {dist:.3g} of the search boundary")
    return [x for x, dist in zip(zeros, dists) if dist <= radius]


def _random_rational(rng: random.Random) -> Fraction:
    """A rational drawn from the unit box in steps of 1/1000."""
    return Fraction(rng.randint(-1000, 1000), 1000)


def _random_affine(variables, rng: random.Random) -> MultiPoly:
    """Affine polynomial with coefficients drawn by ``_random_rational``."""
    n = len(variables)
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    return MultiPoly(variables, {e: _random_rational(rng) for e in [(0,) * n, *units]})


def _tangent_direction(cf: ChartField, rng: random.Random):
    """A random field g tangent to the divisor and its cofactor h, g(f) = h*f.

    g = f*r + sum_{a<b} c_ab (d_b f e_a - d_a f e_b) for a random affine field
    r and random rationals c_ab; the second sum annihilates f, so
    h = sum_j r_j d_j f.  Where f is constant, g = f*r.
    """
    variables = cf.variables
    r = [_random_affine(variables, rng) for _ in variables]
    grad = [cf.f.partial(v) for v in variables]
    g = [cf.f * r_j for r_j in r]
    for a, b in itertools.combinations(range(cf.n), 2):
        c = _random_rational(rng)
        g[a] = g[a] + c * grad[b]
        g[b] = g[b] - c * grad[a]
    h = sum((r_j * d_j for r_j, d_j in zip(r, grad)), MultiPoly.zero(variables))
    return g, h


def perturbed_residue(
    cf: ChartField, p: SingularPoint, i: int, cfg: NumericConfig = NumericConfig()
) -> ResidueRecord:
    """Residues at a possibly degenerate isolated zero, numerically.

    The chart field is nudged, at two sizes eps, by a seeded random field
    tangent to the divisor, so the perturbed field is again a chart field.
    Its zeros near p are simple; ``closed_form_residues`` at each of them
    (all zeros for i = 0, those on the divisor otherwise) are summed and the
    two sums Richardson-extrapolated to eps = 0.  It starts from
    ``local_data`` at p, so a point that is not a zero raises NotAZero and one
    on the singular locus of the divisor DivisorSingularAt.
    """
    ld = local_data(cf, p)
    if i != 0 and ld.s is None:
        raise NotOnDivisor(f"i={i} residues only exist on the divisor")
    point_id = f"chart{p.chart}:" + ",".join(str(c) for c in p.coords)
    rng = random.Random(f"{cfg.seed}|{point_id}|{i}")
    g, h = _tangent_direction(cf, rng)
    # For i >= 1 the zeros on the divisor solve (a_j for j != s, f): by
    # tangency a_s vanishes there too, and starts vary off the axis s only.
    s = ld.s if i else None
    sums: list[list[complex]] = []
    counts: list[int] = []
    for eps in cfg.eps_levels:
        e = Fraction(eps).limit_denominator(10**12)
        # Without a cofactor local_data raises at perturbed zeros on the divisor.
        perturbed = replace(cf, a=tuple(a + e * g_j for a, g_j in zip(cf.a, g)),
                            k=None if cf.k is None else cf.k + e * h)
        system = perturbed.a if s is None else [
            a for j, a in enumerate(perturbed.a) if j != s] + [cf.f]
        zeros = _zeros_near(system, p.coords, cfg.search_radius, cfg, s)
        counts.append(len(zeros))
        total = [0j, 0j, 0j]
        for z in zeros:
            q = SingularPoint(p.chart, tuple(complex(c) for c in z), exact=False)
            try:
                rec = closed_form_residues(local_data(perturbed, q), q, [i])[0]
            except DegenerateZero:
                raise DegenerateZero(f"a perturbed zero near {point_id} is still degenerate "
                                     f"at eps={eps:g}") from None
            if rec.ordinary is None:
                raise DegenerateZero(f"a perturbed zero near {point_id} has a vanishing "
                                     f"cofactor at eps={eps:g}")
            total = [t + v for t, v in zip(total, (rec.ordinary, rec.log, rec.var))]
        sums.append(total)
    if counts[0] != counts[1]:
        raise ZeroCountUnstable(
            f"zero counts {counts[0]} vs {counts[1]} at eps levels {cfg.eps_levels}"
        )
    # One direction scaled by each eps: the leading error term has the same
    # coefficient at both levels and Richardson cancels it.
    eps1, eps2 = cfg.eps_levels
    values = [((eps1 * v2 - eps2 * v1) / (eps1 - eps2)).real for v1, v2 in zip(*sums)]
    err = max(abs(v1 - v2) for v1, v2 in zip(*sums))
    point = replace(p, on_divisor=ld.s is not None, exact=False)
    return ResidueRecord(point, i, *values, "perturbation", err)


# -- zero discovery --------------------------------------------------------

def linear_zeros(cf: ChartField) -> list[tuple[Fraction, ...]]:
    """Exact zeros of an affine-linear chart field a(x) = A x + b.

    One elimination of the augmented matrix [A | -b]: a pivot in the last
    column means no zero, fewer than n pivots a zero set of positive
    dimension (PositiveDimensional), otherwise the unique zero.
    """
    n = cf.n
    aug = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for r, a in enumerate(cf.a):
        for e, c in a.terms.items():
            total = sum(e)
            if total == 0:
                aug[r][n] = -c
            elif total == 1:
                aug[r][e.index(1)] = c
            else:
                raise NonLinearField(
                    f"component {r} has a degree-{total} term; use numeric discovery"
                )
    rows, pivots, _ = echelon(aug)
    if n in pivots:
        return []
    if len(pivots) < n:
        raise PositiveDimensional(n - len(pivots))
    return [tuple(back_substitute(rows, n))]


def discover_zeros_numeric(
    cf: ChartField, cfg: NumericConfig = NumericConfig()
) -> list[SingularPoint]:
    """Real zeros inside the box [-2, 2]^n by multi-start Newton from a grid; may miss some."""
    lo, hi = -2.0, 2.0
    g = cfg.grid_per_axis
    axis = [lo + (hi - lo) * t / (g - 1) for t in range(g)]
    zeros = _newton_zeros(cf.a, itertools.product(axis, repeat=cf.n), cfg)
    real = [tuple(float(c.real) for c in x) for x in zeros if max(abs(c.imag) for c in x) <= 1e-8]
    inside = [q for q in real if all(lo - 1e-9 <= c <= hi + 1e-9 for c in q)]
    return [classify_point(cf, q)[0] for q in sorted(inside)]
