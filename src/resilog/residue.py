"""Local residues at singular points.

A zero's data (``LocalData``) is four values: the Jacobian trace trJ and
determinant detJ, the cofactor value k(p), and det J_D, None off the
divisor D; trJD = trJ - k is computed where read.  ``local_data`` evaluates
the components, f and their first partials at any zero, and exact discovery
(``diagonal_zeros``) reads a diagonal field's zeros and its tangency off the
homogeneous term dicts.  At a zero p on D, detJ = k(p)*detJD.  Proof:
differentiating v(f) = k*f at p, where v and f vanish, gives
J^T grad f = k(p) grad f, so J keeps the tangent space ker(grad f) and acts
on the quotient line by k(p).  So ``local_data`` costs one elimination at a
zero on D, of the bordered matrix behind det J_D.  Exactness (``is_exact``)
and the zero test (``is_zero``) are defined once, here, for every module.
Classification (``classify_point``) and the closed forms of all i-levels in
one call (``closed_forms``) decide nothing of the data again: at level i the
ordinary residue is trJ^(n-i)*k^i/detJ, the log one has trJD for trJ, and the
excess (variational) one the numerator Delta_i = k^(i-1)*((trJD + k)^(n-i) -
trJD^(n-i)), one binomial sum for every i (``delta_numerator``).
Degenerate zeros go through a seeded perturbation engine,
``perturbed_residues``: it deforms the chart field along a random field
tangent to the divisor, so each nearby perturbed zero is simple, and
Richardson-extrapolates the summed closed forms of all levels over two sizes.
``_newton_zeros`` finds those zeros and the zeros of numeric discovery; it
compiles its system and Jacobian once into (complex(c), exponents) terms, and
at each Newton step ``_evaluate`` repeats ``MultiPoly.eval``'s float
operations in order, so no bit moves: at a complex z, Fraction c times z is
complex(c)*z, and Fraction(0) + z is 0j + z.  Points are lists of Python
``complex``.  One complex Gaussian elimination with partial pivoting
(``_eliminate``) gives both the Newton step and the inexact determinants, so
the engine needs nothing beyond the standard library.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import DomainError, MultiPoly, RatMatrix, clip, det_exact
from .foliation import (ChartField, FoliationProblem, chart_fields, check_level,
                        tangency_cofactor)


def _at(coords) -> str:
    """The coordinates of a point for a message, each ``clip``ped."""
    return f"({', '.join(clip(str(x)) for x in coords)})"


class NotAZero(DomainError):
    """The point is not a zero of the chart field."""


class DivisorSingularAt(DomainError):
    """The point lies on the singular locus of the divisor (unsupported)."""

    def __init__(self, coords):
        super().__init__(f"divisor is singular at {_at(coords)}; residues there are unsupported")


class NotOnDivisor(DomainError):
    """A divisor-twisted residue (i >= 1) was requested off the divisor."""


class DegenerateZero(DomainError):
    """The relevant Jacobian determinant vanishes; ``perturbed_residues`` takes
    such zeros, and raises it where a perturbed zero is degenerate too."""


class BoundaryZero(DomainError):
    """A perturbed zero sits on the search boundary; enlarge the radius."""


class NonLinearField(DomainError):
    """exact_linear zero discovery requires affine-linear components."""


class PositiveDimensional(DomainError):
    """The zero set is not isolated."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        super().__init__(f"zero set has dimension {dimension}")


class _NumericFields(NamedTuple):
    seed: int = 0
    newton_tol: float = 1e-12
    newton_max_iter: int = 60
    dedupe_radius: float = 1e-6
    search_radius: float = 0.5
    eps_levels: tuple[float, float] = (1e-3, 1e-4)
    grid_per_axis: int = 5


class NumericConfig(_NumericFields):
    """Knobs for the numeric engine; deterministic by default, ValueError if not
    finite or out of range, also from ``_replace`` (through ``_make``)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        eps = self.eps_levels
        for name in ("newton_tol", "dedupe_radius", "search_radius", "eps_levels"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if name == "eps_levels" else [value])):
                raise ValueError(f"numeric option {name} must be finite, got {value!r}")
        for name, ok, rule in (("newton_tol", self.newton_tol > 0, "> 0"),
                               ("newton_max_iter", self.newton_max_iter >= 1, ">= 1"),
                               ("dedupe_radius", self.dedupe_radius > 0, "> 0"),
                               ("search_radius", self.search_radius > 0, "> 0"),
                               ("grid_per_axis", self.grid_per_axis >= 2, ">= 2"),
                               ("eps_levels", len(set(eps)) == len(eps) == 2 and min(eps) > 0,
                                "two distinct values > 0")):
            if not ok:
                raise ValueError(f"numeric option {name} must be {rule}, got {getattr(self, name)!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SingularPoint(NamedTuple):
    """A zero in affine chart ``chart``, with its exactness, divisor and simplicity flags."""

    chart: int
    coords: tuple
    exact: bool = True
    on_divisor: bool = False
    simple: bool | None = None


class LocalData(NamedTuple):
    """Jacobian data of the field at a zero: trJ, detJ, the cofactor value
    k(p) and det J_D, which is None off the divisor (and only there).  From
    ``diagonal_zeros``, those of q*V, q an integer: every residue has degree 0."""

    trJ: object
    detJ: object
    k_at_p: object
    detJD: object | None


class ResidueRecord(NamedTuple):
    """The ordinary, logarithmic and variational residues of one point at level i."""

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


def _eliminate(u: list) -> int:
    """Gaussian elimination with partial pivoting, in place, on the n rows of
    ``u`` over their first n columns; a further column (a right-hand side) is
    carried along.  u ends upper triangular, its entries below the diagonal
    unread.  Returns the sign of the row swaps, or 0 at the first zero pivot."""
    n = len(u)
    sign = 1
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(u[r][c]))
        top = u[p]
        pivot = top[c]
        if pivot == 0:
            return 0
        if p != c:
            u[c], u[p] = top, u[c]
            sign = -sign
        for row in u[c + 1:]:
            m = row[c] / pivot
            for j in range(c + 1, len(top)):
                row[j] -= m * top[j]
    return sign


def _det(rows, exact: bool):
    """det of the square ``rows``: ``det_exact`` when exact, else the signed
    product of the ``_eliminate`` pivots (0.0 at a zero pivot), real when its
    imaginary part is 0."""
    if exact:
        return det_exact(RatMatrix(rows))
    u = [list(row) for row in rows]
    sign = _eliminate(u)
    if not sign:
        return 0.0
    d = complex(sign)
    for j, row in enumerate(u):
        d *= row[j]
    return d if d.imag else d.real


def _solve(rows: list, rhs: list) -> list | None:
    """x with rows*x = rhs, by ``_eliminate`` and back substitution; None at a
    zero pivot."""
    n = len(rows)
    u = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not _eliminate(u):
        return None
    x = [0j] * n
    for i in range(n - 1, -1, -1):
        row = u[i]
        s = row[n]
        for j in range(i + 1, n):
            s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def local_data(cf: ChartField, p: SingularPoint) -> LocalData:
    """Traces, determinants, and cofactor value of the field at a zero of it,
    from the values and partials (``eval`` of ``partial``) of the components
    and of f, whose gradient gives on D the axis s bordering det J_D;
    DivisorSingularAt where it is 0 on D."""
    n = cf.n
    coords = tuple(p.coords)
    exact = is_exact(coords)
    if any(not is_zero(a.eval(coords), exact) for a in cf.a):
        raise NotAZero(f"field does not vanish at {_at(coords)}")
    jac = [[a.partial(v).eval(coords) for v in cf.variables] for a in cf.a]
    trJ = sum(jac[j][j] for j in range(n))
    on_divisor = not cf.f.is_constant and is_zero(cf.f.eval(coords), exact)
    if cf.k is None and on_divisor:  # off D k is not read; a constant f has k = 0
        raise ValueError("a point on the divisor needs the cofactor k; use chart_field")
    k_at_p = cf.k.eval(coords) if cf.k is not None else (Fraction(0) if exact else 0.0)
    if not on_divisor:
        return LocalData(trJ, _det(jac, exact), k_at_p, detJD=None)
    grad_f = [cf.f.partial(v).eval(coords) for v in cf.variables]
    s = next((j for j, g in enumerate(grad_f) if not is_zero(g, exact)), None)
    if s is None:
        raise DivisorSingularAt(coords)
    rows = [jac[j] for j in range(n) if j != s] + [grad_f]
    sign = -1 if (n - 1 - s) % 2 else 1
    detJD = sign * _det(rows, exact) / grad_f[s]
    return LocalData(trJ, k_at_p * detJD, k_at_p, detJD)  # detJ = k*detJD


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
    on_divisor = ld.detJD is not None
    simple = not is_zero(ld.detJD if on_divisor else ld.detJ, exact)
    return SingularPoint(cf.chart, coords, exact, on_divisor, simple), ld


def delta_numerator(T, k, n: int, i: int):
    """Numerator k^{i-1}*((T+k)^{n-i} - T^{n-i}) of the variational residue, in
    any ring, as one sum over l = 1..n-i of C(n-i, l)*T^{n-i-l}*k^{l+i-1}; at
    i = 0 that is the division by k done symbolically, so k = 0 is regular."""
    check_level(n, i)
    total = 0
    for l in range(1, n - i + 1):
        total = total + math.comb(n - i, l) * T ** (n - i - l) * k ** (l + i - 1)
    return total


def simple_residues(cf: ChartField, p: SingularPoint, i: int) -> ResidueRecord:
    """Closed-form ordinary/logarithmic/variational residues at a simple zero."""
    return closed_forms(local_data(cf, p), p, [i])[0][0]


def closed_forms(ld: LocalData, p: SingularPoint, levels: Sequence[int]) -> tuple:
    """(records, D_p, numerators): one ResidueRecord per i in ``levels`` from
    the point's local data, each exact value Fraction(N, D_p) of the level's
    (ordinary, log, var) numerators N (None where the value is); D_p and the
    numerators are None at an inexact point.  DegenerateZero where the
    relevant determinant vanishes.  Exact data, ints or Fractions alike, give
    integers a, c of trJ and k (0 off D) over q = lcm(den trJ, den k); with
    D = q^n*detJ, level i's ordinary value is a^(n-i)*c^i*den(D)/num(D), the
    log one t = a - c for a, and D_p = num(D); where k(p) = 0 on D, detJ = 0,
    they are over q^(n-1)*detJD, the excess alone at i = 0.  Inexact values go
    in unscaled; the point is rebuilt only where its on_divisor flag changes.
    Each i must lie in 0..n-1 (ValueError)."""
    n = len(p.coords)
    if levels and not 0 <= min(levels) <= max(levels) < n:
        for i in levels:
            check_level(n, i)
    exact, on_divisor = is_exact(p.coords), ld.detJD is not None
    point = p if p.on_divisor == on_divisor else p._replace(on_divisor=on_divisor)

    if not on_divisor:
        for i in filter(None, levels):
            raise NotOnDivisor(f"i={i} residues only exist on the divisor")
        if is_zero(ld.detJ, exact):
            raise DegenerateZero("detJ = 0; fall back to perturbed_residue")
        if not exact:
            ordinary = ld.trJ**n / ld.detJ
            return [ResidueRecord(point, 0, ordinary, ordinary, 0.0, "closed_form")
                    for _ in levels], None, None
    elif is_zero(ld.detJD, exact):
        raise DegenerateZero("detJD = 0; fall back to perturbed_residue")
    elif not exact:
        a, c, detJD, records = ld.trJ, ld.k_at_p, ld.detJD, []
        t = a - c
        for i in levels:
            var = delta_numerator(t, c, n, i) / detJD
            if i == 0:
                # detJ = k*detJD vanishes with k; the ordinary/log split has no
                # closed form there, only the excess is defined.
                ordinary = None if is_zero(c, False) else ld.trJ**n / ld.detJ
                log = None if ordinary is None else ordinary - var
            else:
                ordinary = a ** (n - i) * c ** (i - 1) / detJD
                log = t ** (n - i) * c ** (i - 1) / detJD
            records.append(ResidueRecord(point, i, ordinary, log, var, "closed_form"))
        return records, None, None
    trJ, k = ld.trJ, ld.k_at_p if on_divisor else 0
    q = math.lcm(trJ.denominator, k.denominator)
    a, c = trJ.numerator * (q // trJ.denominator), k.numerator * (q // k.denominator)
    t, numerators = a - c, []
    if c or not on_divisor:
        D = q**n * ld.detJ
        den, g = D.numerator, D.denominator
        for i in levels:
            o, l = a ** (n - i) * c**i * g, t ** (n - i) * c**i * g
            numerators.append((o, l, o - l))
    else:  # k(p) = 0, so detJ = 0: over detJD (t = a), the excess alone at i = 0
        num, den = ld.detJD.denominator, q ** (n - 1) * ld.detJD.numerator
        for i in levels:
            o = a ** (n - i) * c ** (i - 1) * num if i else None
            numerators.append((o, o, 0) if i else (None, None, delta_numerator(t, c, n, 0) * num))
    return [ResidueRecord(point, i, o if o is None else Fraction(o, den),
                          l if l is None else Fraction(l, den), Fraction(v, den), "closed_form")
            for i, (o, l, v) in zip(levels, numerators)], den, numerators


# -- numeric engine --------------------------------------------------------

def _compile(p: MultiPoly) -> list:
    """The terms c*x^e of ``p`` as (complex(c), ((j, e_j) for e_j > 0)) pairs."""
    return [(complex(c), tuple((j, k) for j, k in enumerate(e) if k))
            for e, c in p.terms.items()]


def _evaluate(terms: list, x: list, powers: dict) -> complex:
    """``MultiPoly.eval`` of the compiled ``terms`` at the complex point x, bit
    for bit (module docstring); ``powers`` keeps each x[j]**k computed at this x."""
    total = 0j
    for term, support in terms:
        for jk in support:
            x_k = powers.get(jk)
            if x_k is None:
                x_k = powers[jk] = x[jk[0]] ** jk[1]
            term = term * x_k
        total = total + term
    return total


def _dist(x, y) -> float:
    """The L-inf distance of two complex points."""
    return max(abs(a - b) for a, b in zip(x, y))


def _newton(field: list, jac: list, x0, cfg: NumericConfig,
            center: list | None = None, escape: float = math.inf) -> list[complex] | None:
    """Complex Newton from one start on a compiled system, each step one
    ``_solve``: the zero reached, or None when a pivot of the Jacobian is 0,
    an iterate overflows, the residual stays above ``cfg.newton_tol`` for
    ``cfg.newton_max_iter`` steps, or an iterate leaves the L-inf ball of
    radius ``escape`` about ``center``."""
    x = [complex(c) for c in x0]
    try:
        for _ in range(cfg.newton_max_iter):
            powers: dict = {}
            fx = [_evaluate(p, x, powers) for p in field]
            if all(abs(v) < cfg.newton_tol for v in fx):  # False at a NaN
                return x
            step = _solve([[_evaluate(d, x, powers) for d in row] for row in jac], fx)
            if step is None:
                return None
            x = [a - b for a, b in zip(x, step)]
            if center is not None and _dist(x, center) > escape:
                return None
    except OverflowError:  # complex ** and abs raise where a value leaves float range
        return None
    return None


def _newton_zeros(field: Sequence[MultiPoly], starts, cfg: NumericConfig,
                  center: list | None = None, escape: float = math.inf) -> list[list[complex]]:
    """The distinct zeros ``_newton`` reaches from ``starts``, in start order: a
    zero is kept when it lies more than ``cfg.dedupe_radius`` (L-inf) from every
    zero kept before it.  Numeric discovery and the perturbation engine both
    search with it and differ only in their starts and filters."""
    compiled = [_compile(p) for p in field]
    jac = [[_compile(p.partial(v)) for v in field[0].variables] for p in field]
    found: list[list[complex]] = []
    for x0 in starts:
        x = _newton(compiled, jac, x0, cfg, center, escape)
        if x is not None and all(_dist(x, q) > cfg.dedupe_radius for q in found):
            found.append(x)
    return found


def _zeros_near(field: Sequence[MultiPoly], coords, radius: float,
                cfg: NumericConfig) -> list[list[complex]]:
    """All zeros of the field within L-inf radius of the point ``coords``.

    Starts cover a polydisk, the center first: per axis the center plus 0
    or a point on a complex circle of radius 0.6*radius; Newton runs in complex
    arithmetic so that conjugate zero pairs produced by perturbation are found
    too.  Raises DomainError when no start converges and BoundaryZero
    when a zero lies within ``cfg.dedupe_radius`` of the boundary, on either
    side: a zero just outside that is found first would hide, by
    deduplication, one just inside.
    """
    center = [complex(c) for c in coords]
    g = cfg.grid_per_axis
    angles = [2 * math.pi * t / (g - 1) for t in range(g - 1)]
    ring = [0j] + [0.6 * radius * complex(math.cos(a), math.sin(a)) for a in angles]
    grid = itertools.product(ring, repeat=len(field))
    starts = [[c + o for c, o in zip(center, offsets)] for offsets in grid]
    zeros = _newton_zeros(field, starts, cfg, center, 10 * radius)
    if not zeros:
        raise DomainError("no Newton start converged")
    dists = [_dist(x, center) for x in zeros]
    for dist in dists:
        if abs(dist - radius) <= cfg.dedupe_radius:
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


def perturbed_residues(cf: ChartField, ld: LocalData, p: SingularPoint, levels: Sequence[int],
                       cfg: NumericConfig = NumericConfig()) -> list:
    """One ResidueRecord per i in ``levels`` at a possibly degenerate zero p
    with local data ``ld``.  The chart field is nudged, at two sizes eps, by
    one seeded random field tangent to the divisor, so its zeros on the
    divisor are zeros of the whole perturbed field: one ``_zeros_near`` search
    per eps serves every level.  At each (simple) perturbed zero one
    ``closed_forms`` call gives the levels it carries, all on the
    divisor and i = 0 off it; per level the zero counts must agree between the
    two eps, and the sums are Richardson-extrapolated to eps = 0."""
    if ld.detJD is None:
        for i in filter(None, levels):
            raise NotOnDivisor(f"i={i} residues only exist on the divisor")
    point_id = f"chart{p.chart}:" + ",".join(str(c) for c in p.coords)
    g, h = _tangent_direction(cf, random.Random(f"{cfg.seed}|{point_id}|0"))
    sums: list[dict[int, list]] = []  # per eps: level -> [count, ordinary, log, var]
    for eps in cfg.eps_levels:
        e = Fraction(eps).limit_denominator(10**12)
        # Without a cofactor local_data raises at perturbed zeros on the divisor.
        perturbed = cf._replace(a=tuple(a + e * g_j for a, g_j in zip(cf.a, g)),
                               k=None if cf.k is None else cf.k + e * h)
        total = {i: [0, 0j, 0j, 0j] for i in levels}
        for z in _zeros_near(perturbed.a, p.coords, cfg.search_radius, cfg):
            q = SingularPoint(p.chart, tuple(z), exact=False)
            zld = local_data(perturbed, q)
            carried = [i for i in total if i == 0 or zld.detJD is not None]
            try:  # a vanishing cofactor leaves detJ = k*detJD = 0 at i = 0
                records = closed_forms(zld, q, carried)[0] if carried else []
                if any(rec.ordinary is None for rec in records):
                    raise DegenerateZero
            except DegenerateZero:
                raise DegenerateZero(f"a perturbed zero near {point_id} is still degenerate "
                                     f"at eps={eps:g}") from None
            for rec in records:
                total[rec.i] = [t + v for t, v in zip(total[rec.i],
                                                      (1, rec.ordinary, rec.log, rec.var))]
        sums.append(total)
    # One direction scaled by each eps: the leading error term has the same
    # coefficient at both levels and Richardson cancels it.
    eps1, eps2 = cfg.eps_levels
    point = p._replace(on_divisor=ld.detJD is not None, exact=False)
    out = []
    for i in levels:
        (n1, *at1), (n2, *at2) = (total[i] for total in sums)
        if n1 != n2:
            raise DomainError(f"zero counts {n1} vs {n2} at eps levels {cfg.eps_levels}")
        values = [((eps1 * v2 - eps2 * v1) / (eps1 - eps2)).real for v1, v2 in zip(at1, at2)]
        err = max(abs(v1 - v2) for v1, v2 in zip(at1, at2))
        out.append(ResidueRecord(point, i, *values, "perturbation", err))
    return out


def perturbed_residue(cf: ChartField, p: SingularPoint, i: int,
                      cfg: NumericConfig = NumericConfig()) -> ResidueRecord:
    """``perturbed_residues`` at the one level i, from ``local_data`` at p."""
    return perturbed_residues(cf, local_data(cf, p), p, [i], cfg)[0]


# -- zero discovery --------------------------------------------------------

def diagonal_zeros(problem: FoliationProblem, fields: list | None = None) -> list:
    """Exact zeros of a diagonal linear field, V_j = lam_j*z_j, each classified
    in its lead chart with its local data (None where D is singular), sorted by
    the strings of its homogeneous coordinates: the e_c, off the term dicts
    with no chart built and nothing divided, as the data of q*V, which has V's
    residues (q the lcm of the denominators of the lam_j, ints = q*lam):
    trJ = sum_{j != c}(ints_j - ints_c), detJ the product and k = kq - m*ints_c
    (Bott 1967), all ints, and detJD = detJ/k one Fraction on D;
    PositiveDimensional where a lam_c repeats.  V(z^e) = <lam, e>*z^e, so
    V(F) = K*F, K of degree d - 1 = 0, exactly when F's terms share one weight
    <ints, e> = kq, which is q*K; else ``tangency_cofactor`` raises NotTangent.
    F(e_c) is F's coefficient of z_c^m, and D is smooth at e_c where some
    z_c^(m-1)*z_j has one, from the same pass over F's terms.  Other fields go
    to ``linear_zeros`` in every chart, of ``fields`` if given, else of
    ``chart_fields``: PositiveDimensional where any chart shows a line, else
    the first NonLinearField, else (d = 0) the lead chart's zero (see there)."""
    n, m, zero, comps = problem.n, problem.m, Fraction(0), problem.components
    if not all(e[j] == sum(e) == 1 for j, v in enumerate(comps) for e in v.terms):
        found, refused = [], None
        for cf in fields or chart_fields(problem):
            try:
                found.append(linear_zeros(cf))
            except NonLinearField as err:
                refused = refused or err
        if refused or problem.d:
            raise refused or AssertionError("no chart refused a field of degree d > 0")
        return next(filter(None, found))
    lam = [next(iter(v.terms.values()), 0) for v in comps]
    q = math.lcm(*(v.denominator for v in lam))
    ints = [v.numerator * (q // v.denominator) for v in lam]
    f_at, smooth = [0] * (n + 1), [False] * (n + 1)  # at e_c: F, and whether grad f != 0
    weights = set()  # <ints, e> of F's terms z^e
    for e, coef in problem.divisor.terms.items():
        weight = 0
        for c, e_c in enumerate(e):
            weight += ints[c] * e_c
            if e_c == m:
                f_at[c] = coef
            elif e_c == m - 1:  # a term z_c^(m-1)*z_j, j != c: df/dx_j at e_c
                smooth[c] = True
        weights.add(weight)
    if len(weights) > 1:
        tangency_cofactor(problem)
        raise AssertionError("F's terms have two weights, and V(F) = K*F")
    kq = weights.pop()
    if len(set(ints)) <= n:  # ints hash faster than Fractions
        raise PositiveDimensional(next(r for r in (ints.count(x) - 1 for x in ints) if r))
    zeros, coords = [], (zero,) * n
    for c in range(n, -1, -1):
        on_divisor = not f_at[c]
        if on_divisor and not smooth[c]:
            zeros.append((SingularPoint(c, coords, True, True, None), None))
            continue
        alpha = [a - ints[c] for j, a in enumerate(ints) if j != c]
        det, k = math.prod(alpha), kq - m * ints[c]
        zeros.append((SingularPoint(c, coords, True, on_divisor, True), LocalData(
            sum(alpha), det, k, Fraction(det, k) if on_divisor else None)))  # detJD = detJ/k
    return zeros


def linear_zeros(cf: ChartField) -> list[tuple[SingularPoint, LocalData | None]]:
    """Exact zeros of a diagonal chart field a_j = alpha_j*x_j + beta_j,
    classified by ``classify_point``: the reference ``diagonal_zeros`` is
    tested against, and its route for every field that is not diagonal.

    Where every chart is affine-linear, the field is diagonal (d = 1),
    constant (d = 0) or g times the Euler field E, whose charts are 0.
    Proof: chart c's a_j is W = z_c*V_j - z_j*V_c at z_c = 1, of degree
    <= 1 only if W lies in z_c^d*(linear forms); as W = -(the W of chart j),
    it also lies in z_j^d*(linear forms), so for d >= 2 W = 0, V = g*E, and
    for d = 1 W = w*z_c*z_j, so V_c = lam_c*z_c for every c.  A constant
    field c has a_j = c_j - x_j*c_c, so no chart refuses; one below its lead
    (the first c_c != 0) has alpha = 0, beta_lead != 0 and no zero, and the
    lead chart the zero x_j = c_j/c_c.  One pass reads
    the terms; a term of degree > 1 in any component raises NonLinearField
    before a linear term in another variable does.  An alpha_j = 0 with
    beta_j != 0 leaves no zero; otherwise r zero alpha_j leave a zero set of
    dimension r (PositiveDimensional), and r = 0 the zero x_j = -beta_j/alpha_j.
    """
    zero = Fraction(0)
    alpha, beta = [zero] * cf.n, [zero] * cf.n
    off = None  # (j, variable) of the first term in another variable
    for j, a in enumerate(cf.a):
        for e, c in a.terms.items():
            total = sum(e)
            if total > 1:
                raise NonLinearField(f"component {j} has a degree-{total} term, and exact zero "
                                     "discovery needs affine-linear components")
            if not total:
                beta[j] = c
            elif e[j]:
                alpha[j] = c
            elif off is None:
                off = j, cf.variables[e.index(1)]
    if off is not None:
        raise NonLinearField(f"component {off[0]} has a term in {off[1]}, "
                             "and exact zero discovery needs diagonal charts")
    if any(b and not a for a, b in zip(alpha, beta)):
        return []
    if 0 in alpha:
        raise PositiveDimensional(alpha.count(0))
    return [classify_point(cf, [-b / a for a, b in zip(alpha, beta)])]


def discover_zeros_numeric(
    cf: ChartField, cfg: NumericConfig = NumericConfig()
) -> list[SingularPoint]:
    """Real zeros inside the box [-2, 2]^n by multi-start Newton from a grid; may miss some."""
    lo, hi = -2.0, 2.0
    g = cfg.grid_per_axis
    axis = [lo + (hi - lo) * t / (g - 1) for t in range(g)]
    zeros = _newton_zeros(cf.a, itertools.product(axis, repeat=cf.n), cfg)
    real = [tuple(c.real for c in x) for x in zeros if max(abs(c.imag) for c in x) <= 1e-8]
    inside = [q for q in real if all(lo - 1e-9 <= c <= hi + 1e-9 for c in q)]
    return [classify_point(cf, q)[0] for q in sorted(inside)]
