"""Local residues at singular points.

Everything exact about a zero comes from one pass, ``local_data``: the
Jacobian trace trJ and determinant detJ, the cofactor value k(p), and on the
divisor the induced trace trJ_D = trJ - k and determinant det J_D.  The
same ``LocalData`` classifies the point (``classify_point``) and feeds the
closed forms of every i-level (``closed_form_residues``): the ordinary
residue is trJ^n/detJ, and the excess (variational) residue has the
binomial numerator produced by ``delta_numerator``.  Degenerate zeros go
through a seeded perturbation engine that splits the zero into simple ones
and Richardson-extrapolates the summed closed forms over two perturbation
sizes.  numpy is imported inside the numeric functions only, so the exact
path (and every CLI call but ``zeros --numeric``) never pays for loading it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

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


class DegenerateZero(Exception):
    """The relevant Jacobian determinant vanishes; use the perturbation engine."""


class NotSupported(DomainError):
    """Degenerate zero on a divisor that is not coordinate-aligned."""


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
    """Knobs for the numeric engine; defaults give deterministic runs."""

    seed: int = 0
    newton_tol: float = 1e-12
    newton_max_iter: int = 60
    dedupe_radius: float = 1e-6
    search_radius: float = 0.5
    eps_levels: tuple[float, float] = (1e-3, 1e-4)
    grid_per_axis: int = 5


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


def _coords_exact(coords) -> bool:
    return all(isinstance(c, (Fraction, int)) for c in coords)


def _is_zero(value, exact: bool, tol: float = 1e-9) -> bool:
    return value == 0 if exact else abs(value) < tol


def _det(rows, exact: bool):
    if exact:
        return det_exact(RatMatrix(rows))
    import numpy as np
    return complex(np.linalg.det(np.array(rows, dtype=complex))).real


def _on_divisor(cf: ChartField, coords, exact: bool) -> bool:
    return not cf.f.is_constant and _is_zero(cf.f.eval(coords), exact)


def _divisor_gradient(cf: ChartField, coords, exact: bool):
    """Gradient of f at a point of the divisor and the index s of its first
    nonzero entry; raises DivisorSingularAt where the gradient vanishes."""
    grad_f = [cf.f.partial(v).eval(coords) for v in cf.variables]
    s = next((j for j, g in enumerate(grad_f) if not _is_zero(g, exact)), None)
    if s is None:
        raise DivisorSingularAt(f"divisor is singular at ({', '.join(map(str, coords))});"
                                " residues there are unsupported")
    return grad_f, s


def _trace(field: Sequence[MultiPoly], variables) -> MultiPoly:
    """Divergence sum_j d a_j / d x_j of a field as a polynomial."""
    tr = MultiPoly.zero(variables)
    for a_j, v in zip(field, variables):
        tr = tr + a_j.partial(v)
    return tr


def local_data(cf: ChartField, p: SingularPoint) -> LocalData:
    """Traces, determinants, and cofactor value of the field at a zero of it."""
    n = cf.n
    coords = tuple(p.coords)
    exact = _coords_exact(coords)
    if any(not _is_zero(a.eval(coords), exact) for a in cf.a):
        raise NotAZero(f"field does not vanish at ({', '.join(map(str, coords))})")
    jac = [[cf.a[r].partial(v).eval(coords) for v in cf.variables] for r in range(n)]
    trJ = sum(jac[j][j] for j in range(n))
    detJ = _det(jac, exact)
    k_at_p = cf.k.eval(coords) if cf.k is not None else (Fraction(0) if exact else 0.0)
    trJD = trJ - k_at_p
    if not _on_divisor(cf, coords, exact):
        return LocalData(trJ=trJ, detJ=detJ, k_at_p=k_at_p, trJD=trJD, detJD=None, s=None)

    grad_f, s = _divisor_gradient(cf, coords, exact)
    rows = [jac[j] for j in range(n) if j != s] + [grad_f]
    sign = -1 if (n - 1 - s) % 2 else 1
    detJD = sign * _det(rows, exact) / grad_f[s]
    return LocalData(trJ=trJ, detJ=detJ, k_at_p=k_at_p, trJD=trJD, detJD=detJD, s=s)


def classify_point(cf: ChartField, coords, exact: bool) -> tuple[SingularPoint, LocalData | None]:
    """The zero at ``coords`` flagged on/off the divisor and simple or not,
    with its local data (None where the divisor is singular; simple is then
    unknown)."""
    coords = tuple(coords)
    try:
        ld = local_data(cf, SingularPoint(cf.chart, coords, exact))
    except DivisorSingularAt:
        return SingularPoint(cf.chart, coords, exact, True, None), None
    on_divisor = ld.s is not None
    simple = not _is_zero(ld.detJD if on_divisor else ld.detJ, exact)
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
    return closed_form_residues(local_data(cf, p), p, i)


def closed_form_residues(ld: LocalData, p: SingularPoint, i: int) -> ResidueRecord:
    """Residues at level i from the point's local data; raises DegenerateZero
    where the relevant determinant vanishes."""
    n = len(p.coords)
    exact = _coords_exact(p.coords)
    zero = Fraction(0) if exact else 0.0

    if ld.s is None:  # off the divisor
        if i != 0:
            raise NotOnDivisor(f"i={i} residues only exist on the divisor")
        if _is_zero(ld.detJ, exact):
            raise DegenerateZero("detJ = 0; fall back to perturbed_residue")
        ordinary = ld.trJ**n / ld.detJ
        return ResidueRecord(
            point=replace(p, on_divisor=False),
            i=0,
            ordinary=ordinary,
            log=ordinary,
            var=zero,
            method="closed_form",
        )

    if _is_zero(ld.detJD, exact):
        raise DegenerateZero("detJD = 0; fall back to perturbed_residue")
    point = replace(p, on_divisor=True)
    if i == 0:
        var = delta_numerator(ld.trJD, ld.k_at_p, n, 0) / ld.detJD
        if _is_zero(ld.k_at_p, exact):
            # detJ = k*detJD vanishes; the ordinary/log split has no closed
            # form here, only the excess is defined.
            return ResidueRecord(point, 0, None, None, var, "closed_form")
        ordinary = ld.trJ**n / ld.detJ
        return ResidueRecord(point, 0, ordinary, ordinary - var, var, "closed_form")

    ordinary = ld.trJ ** (n - i) * ld.k_at_p ** (i - 1) / ld.detJD
    log = ld.trJD ** (n - i) * ld.k_at_p ** (i - 1) / ld.detJD
    var = delta_numerator(ld.trJD, ld.k_at_p, n, i) / ld.detJD
    return ResidueRecord(point, i, ordinary, log, var, "closed_form")


# -- numeric engine --------------------------------------------------------

def _float_point(coords) -> np.ndarray:
    import numpy as np
    return np.array([complex(float(c), 0.0) if not isinstance(c, complex) else c
                     for c in coords])


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


def _newton_multistart(
    field: Sequence[MultiPoly],
    center: np.ndarray,
    radius: float,
    cfg: NumericConfig,
) -> list[np.ndarray]:
    """All zeros of the field within L-inf radius of center, deduped.

    Starts cover a polydisk: per axis, the center plus points on a complex
    circle of radius 0.6*radius; Newton runs in complex arithmetic so that
    conjugate zero pairs produced by perturbation are found too.
    """
    import numpy as np
    m = len(field)
    variables = field[0].variables
    jac = [[field[r].partial(v) for v in variables] for r in range(m)]

    g = max(cfg.grid_per_axis, 2)
    ring = [0.0 + 0.0j] + [
        0.6 * radius * complex(math.cos(2 * math.pi * t / (g - 1)),
                               math.sin(2 * math.pi * t / (g - 1)))
        for t in range(g - 1)
    ]
    # The center, then the Cartesian product of per-axis offsets.
    stack = [[]]
    for _ in range(m):
        stack = [prefix + [off] for prefix in stack for off in ring]
    starts = [center] + [center + np.array(offsets) for offsets in stack]

    found: list[np.ndarray] = []
    converged_any = False
    for x0 in starts:
        x = _newton(field, jac, x0, cfg, center, 10 * radius)
        if x is None:
            continue
        converged_any = True
        dist = float(np.max(np.abs(x - center)))
        if dist > radius:
            continue
        if dist > radius - cfg.dedupe_radius:
            raise BoundaryZero(
                f"perturbed zero at distance {dist:.3g} of the search boundary"
            )
        if all(float(np.max(np.abs(x - q))) > cfg.dedupe_radius for q in found):
            found.append(x)
    if not converged_any:
        raise NewtonDivergence("no Newton start converged")
    return found


def _random_affine(variables, rng: random.Random) -> MultiPoly:
    """Affine polynomial with coefficients drawn from the rational unit box."""

    def coeff():
        return Fraction(rng.randint(-1000, 1000), 1000)

    p = MultiPoly.const(variables, coeff())
    for v in variables:
        p = p + coeff() * MultiPoly.variable(variables, v)
    return p


def _perturbation_sums(
    field: Sequence[MultiPoly],
    numerators: Callable[[Sequence[MultiPoly]], list],
    center: np.ndarray,
    point_id: str,
    i: int,
    cfg: NumericConfig,
) -> tuple[list[float], float]:
    """Richardson-extrapolated residue sums over perturbed zeros.

    ``numerators`` maps the perturbed field to the list of numerator
    polynomials/callables; the return is one extrapolated value per
    numerator, plus the error estimate (two-level difference).
    """
    import numpy as np
    variables = field[0].variables
    eps1, eps2 = cfg.eps_levels
    # One perturbation direction scaled by each eps: the leading error term
    # then has the same coefficient at both levels and Richardson cancels it.
    rng = random.Random(f"{cfg.seed}|{point_id}|{i}")
    direction = [_random_affine(variables, rng) for _ in field]
    per_level: list[list[complex]] = []
    counts: list[int] = []
    for eps in (eps1, eps2):
        eps_frac = Fraction(eps).limit_denominator(10**12)
        perturbed = [a + eps_frac * g for a, g in zip(field, direction)]
        zeros = _newton_multistart(perturbed, center, cfg.search_radius, cfg)
        counts.append(len(zeros))
        nums = numerators(perturbed)
        jac = [[p.partial(v) for v in variables] for p in perturbed]
        sums = [0j] * len(nums)
        for q in zeros:
            J = np.array(
                [[jac[r][c].eval(q) for c in range(len(variables))]
                 for r in range(len(variables))],
                dtype=complex,
            )
            det = complex(np.linalg.det(J))
            for t, num in enumerate(nums):
                sums[t] += num(q) / det
        per_level.append(sums)
    if counts[0] != counts[1]:
        raise ZeroCountUnstable(
            f"zero counts {counts[0]} vs {counts[1]} at eps levels {cfg.eps_levels}"
        )
    values = []
    err = 0.0
    for v1, v2 in zip(*per_level):
        extrapolated = (eps1 * v2 - eps2 * v1) / (eps1 - eps2)
        values.append(extrapolated.real)
        err = max(err, abs(v1 - v2))
    return values, err


def _restrict_to_divisor(cf: ChartField, s: int):
    """Induced field and numerator data on a coordinate-aligned divisor.

    Requires f = c * x_s; rejects curved divisors, where perturbing within
    the hypersurface would need a parametrization this engine does not carry.
    """
    f = cf.f
    x_s_exp = tuple(1 if j == s else 0 for j in range(cf.n))
    if set(f.terms) != {x_s_exp}:
        raise NotSupported(
            "perturbation on the divisor needs a coordinate-aligned local equation"
        )
    s_name = cf.variables[s]
    induced = tuple(
        a.substitute_one(s_name, 0) for j, a in enumerate(cf.a) if j != s
    )
    tr_ambient_on_D = _trace(cf.a, cf.variables).substitute_one(s_name, 0)
    k_on_D = (cf.k if cf.k is not None else MultiPoly.zero(cf.variables)).substitute_one(
        s_name, 0
    )
    tr_induced = _trace(induced, induced[0].variables)
    return induced, tr_ambient_on_D, tr_induced, k_on_D


def perturbed_residue(
    cf: ChartField, p: SingularPoint, i: int, cfg: NumericConfig = NumericConfig()
) -> ResidueRecord:
    """Residues at a possibly degenerate isolated zero, numerically.

    The field (ambient for i = 0, induced on the divisor otherwise) is
    nudged by a seeded random affine field at two sizes; the closed-form
    simple-zero residues of all nearby perturbed zeros are summed and
    Richardson-extrapolated.
    """
    n = cf.n
    coords = tuple(p.coords)
    exact = _coords_exact(coords)
    on_divisor = _on_divisor(cf, coords, exact)
    if i != 0 and not on_divisor:
        raise NotOnDivisor(f"i={i} residues only exist on the divisor")
    point_id = f"chart{p.chart}:" + ",".join(str(c) for c in coords)
    center = _float_point(coords)
    point = replace(p, on_divisor=on_divisor, exact=False)

    def ambient_nums(perturbed):
        return [(_trace(perturbed, cf.variables) ** n).eval]

    if i == 0 and not on_divisor:
        (ordinary,), err = _perturbation_sums(cf.a, ambient_nums, center, point_id, 0, cfg)
        return ResidueRecord(point, 0, ordinary, ordinary, 0.0, "perturbation", err)

    # On the divisor: the induced field lives in the non-divisor coordinates.
    _, s = _divisor_gradient(cf, coords, exact)
    induced, trA, trD, kD = _restrict_to_divisor(cf, s)
    induced_center = _float_point(coords[:s] + coords[s + 1:])
    induced_id = point_id + "|induced"

    if i == 0:
        delta0 = delta_numerator(trD, kD, n, 0)
        (var,), err_var = _perturbation_sums(
            induced, lambda _: [delta0.eval], induced_center, induced_id, 0, cfg
        )
        (ordinary,), err_ord = _perturbation_sums(
            cf.a, ambient_nums, center, point_id, 0, cfg
        )
        err = max(err_var, err_ord)
        return ResidueRecord(point, 0, ordinary, ordinary - var, var, "perturbation", err)

    num_ord = trA ** (n - i) * kD ** (i - 1)
    num_log = trD ** (n - i) * kD ** (i - 1)
    num_var = delta_numerator(trD, kD, n, i)
    (ordinary, log, var), err = _perturbation_sums(
        induced,
        lambda _: [num_ord.eval, num_log.eval, num_var.eval],
        induced_center,
        induced_id,
        i,
        cfg,
    )
    return ResidueRecord(point, i, ordinary, log, var, "perturbation", err)


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


def discover_zeros_exact_linear(cf: ChartField) -> list[SingularPoint]:
    """The classified exact zeros of an affine-linear chart field."""
    return [classify_point(cf, x, True)[0] for x in linear_zeros(cf)]


def discover_zeros_numeric(
    cf: ChartField, box: tuple[float, float], cfg: NumericConfig = NumericConfig()
) -> list[SingularPoint]:
    """Real zeros inside a box by multi-start Newton; may miss some."""
    lo, hi = box
    n = cf.n
    jac = [[cf.a[r].partial(v) for v in cf.variables] for r in range(n)]
    g = max(cfg.grid_per_axis, 2)
    axis = [lo + (hi - lo) * t / (g - 1) for t in range(g)]
    grids = [[]]
    for _ in range(n):
        grids = [prefix + [x] for prefix in grids for x in axis]
    found: list[tuple] = []
    for start in grids:
        x = _newton(cf.a, jac, start, cfg)
        if x is None or max(abs(c.imag) for c in x) > 1e-8:
            continue
        real = tuple(float(c.real) for c in x)
        if any(not lo - 1e-9 <= c <= hi + 1e-9 for c in real):
            continue
        if all(max(abs(a - b) for a, b in zip(real, q)) > cfg.dedupe_radius for q in found):
            found.append(real)
    return [classify_point(cf, q, False)[0] for q in sorted(found)]
