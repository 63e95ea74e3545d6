import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilog import residue
from resilog.aggregate import NUMERIC_TOL, verify_identities
from resilog.algebra import MultiPoly, RatMatrix, SingularMatrix, det_exact, rank, solve_linear
from resilog.foliation import (ChartField, FoliationProblem, chart_field, chart_fields,
                               chern_totals, dehomogenize_field, make_problem)
from resilog.parse import parse_problem
from resilog.residue import (
    BoundaryZero,
    DegenerateZero,
    DivisorSingularAt,
    LocalData,
    NonLinearField,
    NotAZero,
    NotOnDivisor,
    NumericConfig,
    PositiveDimensional,
    SingularPoint,
    _compile,
    _det,
    _eliminate,
    _evaluate,
    _newton,
    _solve,
    _zeros_near,
    classify_point,
    closed_forms,
    delta_numerator,
    discover_zeros_numeric,
    linear_zeros,
    local_data,
    perturbed_residue,
    perturbed_residues,
    simple_residues,
)

Z3 = ("z0", "z1", "z2")
Z4 = ("z0", "z1", "z2", "z3")


def zv(name, variables):
    return MultiPoly.variable(variables, name)


def diag_problem(eigs, variables):
    comps = [Fraction(e) * zv(v, variables) for e, v in zip(eigs, variables)]
    return make_problem(variables, comps, zv(variables[-1], variables))


def plane_chart(a_exprs, f_expr, variables=("x", "y")):
    """Hand-built chart field with the cofactor derived from v(f)."""
    from resilog.algebra import exact_divide

    a = tuple(a_exprs)
    f = f_expr
    vf = MultiPoly.zero(variables)
    for a_j, v in zip(a, variables):
        vf = vf + a_j * f.partial(v)
    k = exact_divide(vf, f)
    assert k is not None, "test field must be tangent"
    return ChartField(chart=0, variables=variables, a=a, f=f, k=k)


P2 = diag_problem((-3, 2, 1), Z3)
P3 = diag_problem((-4, 3, 2, -1), Z4)
ORIGIN2 = SingularPoint(0, (Fraction(0), Fraction(0)))


class TestLocalData:
    def test_rejects_nonzero_point(self, monkeypatch):
        # The components' values decide, before anything is differentiated.
        cf = chart_field(P2, 0)
        partials = []
        monkeypatch.setattr(MultiPoly, "partial", lambda p, v: partials.append(v))
        with pytest.raises(NotAZero, match=r"^field does not vanish at \(1, 1\)$"):
            local_data(cf, SingularPoint(0, (Fraction(1), Fraction(1))))
        assert partials == []

    def test_off_divisor(self):
        cf = chart_field(P2, 2)  # divisor misses this chart
        ld = local_data(cf, ORIGIN2)
        assert ld.detJD is None
        assert ld.trJ == -3 and ld.detJ == -4  # eigenvalues -4, 1

    def test_on_divisor_triangular_factorization(self):
        cf = chart_field(P2, 0)  # eigenvalues 5, 4; k = 4
        ld = local_data(cf, ORIGIN2)
        assert (ld.trJ, ld.detJ, ld.k_at_p) == (9, 20, 4)
        assert ld.trJ - ld.k_at_p == 5 and ld.detJD == 5  # trJD and detJD
        assert ld.detJ == ld.k_at_p * ld.detJD

    def test_adapted_index_invariance(self):
        # Same field and divisor x + y in both variable orders: the choice
        # of solved coordinate cannot change the induced determinant.
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf1 = plane_chart((2 * x, -x + y), x + y)
        yv, xv = (zv(v, ("y", "x")) for v in ("y", "x"))
        cf2 = plane_chart((-xv + yv, 2 * xv), yv + xv, variables=("y", "x"))
        ld1 = local_data(cf1, ORIGIN2)
        ld2 = local_data(cf2, ORIGIN2)
        assert ld1.detJD == ld2.detJD == 2
        assert ld1.trJ - ld1.k_at_p == ld2.trJ - ld2.k_at_p == 2  # trJD
        r1 = simple_residues(cf1, ORIGIN2, 1)
        r2 = simple_residues(cf2, ORIGIN2, 1)
        assert (r1.ordinary, r1.log, r1.var) == (r2.ordinary, r2.log, r2.var)

    def test_point_on_the_divisor_needs_the_cofactor(self):
        # Without k, k(p) = 0 would make detJ = k*detJD and the i >= 1
        # residues silently wrong (log 9/5, var 0 here instead of 1, 4/5).
        with pytest.raises(ValueError, match="cofactor"):
            simple_residues(dehomogenize_field(P2, 0), ORIGIN2, 1)
        r = simple_residues(chart_field(P2, 0), ORIGIN2, 1)
        assert (r.log, r.var) == (1, Fraction(4, 5))
        jordan = make_problem(Z3, [zv("z0", Z3) + zv("z1", Z3), zv("z1", Z3), 3 * zv("z2", Z3)],
                              zv("z2", Z3))
        with pytest.raises(ValueError, match="cofactor"):
            perturbed_residue(dehomogenize_field(jordan, 0), ORIGIN2, 1)

    def test_constant_divisor_needs_no_cofactor(self):
        # The divisor misses chart 2, where f = 1 and k = 0 is right.
        assert local_data(dehomogenize_field(P2, 2), ORIGIN2) == local_data(
            chart_field(P2, 2), ORIGIN2)


SMALL = st.fractions(-3, 3, max_denominator=3)


@st.composite
def tangent_fields_at_zeros(draw):
    """A chart field on P^2 or P^3 tangent by construction to a line or conic
    f through a rational point p, and p: g = f*r + sum_{a<b} c_ab (d_b f e_a -
    d_a f e_b) with linear forms c_ab vanishing at p, so g(p) = 0 and
    k = r . grad f.  Half the cases draw r vanishing at p, where k(p) = 0."""
    n = draw(st.integers(2, 3))
    variables = tuple(f"x{j}" for j in range(n))
    zero = MultiPoly.zero(variables)
    p = tuple(draw(st.lists(SMALL, min_size=n, max_size=n)))
    xs = [zv(v, variables) - c for v, c in zip(variables, p)]

    def linear():
        return sum((draw(SMALL) * x for x in xs), zero)

    f = sum((c * x for c, x in zip(draw(st.lists(SMALL, min_size=n, max_size=n).filter(any)),
                                   xs)), zero)
    if draw(st.booleans()):
        f = f + sum((draw(SMALL) * x * y for a, x in enumerate(xs) for y in xs[a:]), zero)
    k_vanishes = draw(st.booleans())
    r = [linear() + (0 if k_vanishes else draw(SMALL)) for _ in range(n)]
    df = [f.partial(v) for v in variables]
    g = [f * r_j for r_j in r]
    for a, b in itertools.combinations(range(n), 2):
        c = linear()
        g[a], g[b] = g[a] + c * df[b], g[b] - c * df[a]
    return plane_chart(g, f, variables), p, k_vanishes


@settings(max_examples=200, deadline=None)
@given(tangent_fields_at_zeros())
def test_exact_detJ_on_the_divisor_is_the_jacobian_determinant(case):
    # local_data takes detJ = k(p)*detJD at zeros on the divisor, exact or
    # not; at the rounded point that is the determinant up to rounding.
    cf, p, k_vanishes = case
    ld = local_data(cf, SingularPoint(0, p))
    assert ld.detJD is not None
    jac = [[a.partial(v).eval(p) for v in cf.variables] for a in cf.a]
    assert ld.detJ == det_exact(RatMatrix(jac)) and type(ld.detJ) is Fraction
    if k_vanishes:
        assert ld.k_at_p == 0 == ld.detJ
    rounded = local_data(cf, SingularPoint(0, tuple(map(float, p)), exact=False))
    assert rounded.detJD is not None and rounded.detJ == rounded.k_at_p * rounded.detJD
    assert rounded.detJ == pytest.approx(float(ld.detJ), rel=1e-9, abs=1e-9)


def conjugated_diagonal_problem(rng, n):
    """V = T diag(eigs) T^-1 z on P^n for a random integer T, tangent to the
    hyperplane L = (row k of T^-1) z since V(L) = eigs[k] * L.  The chart
    fields are quadratic; the zeros are the columns of T."""
    zs = tuple(f"z{i}" for i in range(n + 1))
    eigs = [Fraction(e, rng.randint(1, 5)) for e in rng.sample(range(-20, 21), n + 1)]
    while True:
        T = RatMatrix([[rng.randint(-3, 3) for _ in zs] for _ in zs])
        try:
            inv_cols = [solve_linear(T, [int(i == j) for i in range(n + 1)]) for j in range(n + 1)]
            break
        except SingularMatrix:
            continue

    def linear(row):
        return sum((c * zv(z, zs) for c, z in zip(row, zs)), MultiPoly.zero(zs))

    comps = [linear([sum(T[i, l] * eigs[l] * inv_cols[j][l] for l in range(n + 1))
                     for j in range(n + 1)]) for i in range(n + 1)]
    k = rng.randrange(n + 1)
    divisor = linear([col[k] for col in inv_cols])
    zeros = [[T[i, j] for i in range(n + 1)] for j in range(n + 1)]
    return make_problem(zs, comps, divisor), zeros


def local_data_cases():
    """(name, problem, homogeneous zeros) for the P^2 fixture and for diagonal
    and conjugated diagonal fields on P^2-P^4."""
    rng = random.Random(20261018)
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "p2_example.fol"
    units = [[int(i == j) for i in range(3)] for j in range(3)]
    yield "p2_example", parse_problem(fixture.read_text(encoding="utf-8")).problem, units
    for n in (2, 3, 4):
        zs = tuple(f"z{i}" for i in range(n + 1))
        eigs = [Fraction(e, rng.randint(1, 9)) for e in rng.sample(range(-40, 41), n + 1)]
        comps = [e * zv(z, zs) for e, z in zip(eigs, zs)]
        units = [[int(i == j) for i in range(n + 1)] for j in range(n + 1)]
        yield (f"diag_P{n}", make_problem(zs, comps, zv(zs[rng.randrange(n + 1)], zs)), units)
        yield (f"conjugated_P{n}", *conjugated_diagonal_problem(rng, n))


@pytest.mark.parametrize("name,problem,zeros", list(local_data_cases()))
def test_local_data_matches_sympy_jacobian(name, problem, zeros):
    # Second route: sympy differentiates the chart field and takes the
    # determinants, in every chart that contains each zero; detJD puts the
    # divisor gradient row in place of row s.
    sympy = pytest.importorskip("sympy")

    def rat(c):
        return sympy.Rational(c.numerator, c.denominator)

    def expr(p, xs):
        return sum((rat(c) * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                    for e, c in p.terms.items()), sympy.Integer(0))

    def frac(r):
        r = sympy.Rational(r)
        return Fraction(int(r.p), int(r.q))

    on_divisor = 0
    for chart, cf in enumerate(chart_fields(problem)):
        xs = sympy.symbols(cf.variables)
        for h in (h for h in zeros if h[chart]):
            x = tuple(Fraction(v) / h[chart] for j, v in enumerate(h) if j != chart)
            at = dict(zip(xs, map(rat, x)))
            J = sympy.Matrix([expr(a, xs) for a in cf.a]).jacobian(xs).subs(at)
            k_at_p = expr(cf.k, xs).subs(at)
            want = [J.trace(), J.det(), k_at_p, None]
            s = None
            f = expr(cf.f, xs)
            if not cf.f.is_constant and f.subs(at) == 0:
                grad = sympy.Matrix([f]).jacobian(xs).subs(at)
                s = next(j for j in range(cf.n) if grad[j] != 0)
                rows = J.copy()
                rows.row_del(s)
                sign = -1 if (cf.n - 1 - s) % 2 else 1
                want[3] = sign * rows.col_join(grad).det() / grad[s]
            ld = local_data(cf, SingularPoint(chart, x))
            assert all(isinstance(v, Fraction) for v in ld if v is not None)
            assert list(ld) == [None if v is None else frac(v) for v in want]
            on_divisor += s is not None
    assert on_divisor  # every case has zeros on its divisor


class TestDeltaNumerator:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_binomial_difference(self, n, seed):
        rng = random.Random(seed)
        T = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        k = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        for i in range(n):
            expected = k ** max(i - 1, 0) * ((T + k) ** (n - i) - T ** (n - i))
            if i == 0:
                expected = expected / k
            assert delta_numerator(T, k, n, i) == expected

    def test_regular_at_vanishing_cofactor(self):
        # i = 0 divides by k symbolically, so k = 0 is fine.
        assert delta_numerator(Fraction(3), Fraction(0), 2, 0) == 6  # 2*T

    def test_rejects_out_of_range_i(self):
        with pytest.raises(ValueError):
            delta_numerator(Fraction(1), Fraction(1), 2, 2)


RATIONALS = st.fractions(-40, 40, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-40, 40), RATIONALS), st.one_of(st.integers(-40, 40), RATIONALS),
       st.integers(1, 30), st.integers(1, 8))
def test_delta_numerator_is_homogeneous_of_degree_n_minus_1(T, k, q, n):
    # closed_forms relies on this to feed it integer numerators.
    for i in range(n):
        assert delta_numerator(q * T, q * k, n, i) == q ** (n - 1) * delta_numerator(T, k, n, i)


@st.composite
def exact_local_data(draw):
    """Exact local data at a point of P^1..P^7, on the divisor (detJ =
    k*detJD, as a chart field gives) or off it; k = 0 included."""
    n = draw(st.integers(1, 7))
    trJ = draw(st.one_of(st.integers(-40, 40), RATIONALS))
    k = draw(st.one_of(st.just(Fraction(0)), st.integers(-40, 40), RATIONALS))
    nonzero = RATIONALS.filter(lambda v: v != 0)
    point = SingularPoint(0, tuple(draw(st.lists(RATIONALS, min_size=n, max_size=n))))
    if draw(st.booleans()):
        detJD = draw(nonzero)
        ld = LocalData(trJ, k * detJD, k, detJD)
    else:
        ld = LocalData(trJ, draw(nonzero), k, None)
    return ld, point


@settings(max_examples=300, deadline=None)
@given(exact_local_data())
def test_exact_closed_forms_match_the_textbook_formulas(case):
    ld, p = case
    n, trJ, k = len(p.coords), Fraction(ld.trJ), Fraction(ld.k_at_p)
    trJD = trJ - k
    levels = range(n if ld.detJD is not None else 1)
    for i, r in zip(levels, closed_forms(ld, p, levels)[0], strict=True):
        if ld.detJD is None:
            ordinary = trJ**n / ld.detJ
            want = (ordinary, ordinary, 0)
        elif i == 0 and k == 0:
            want = (None, None, n * trJD ** (n - 1) / ld.detJD)
        elif i == 0:
            want = (trJ**n / ld.detJ, trJD**n / ld.detJ, (trJ**n - trJD**n) / ld.detJ)
        else:
            twist = k ** (i - 1) / ld.detJD
            want = (trJ ** (n - i) * twist, trJD ** (n - i) * twist,
                    (trJ ** (n - i) - trJD ** (n - i)) * twist)
        got = (r.ordinary, r.log, r.var)
        assert got == want
        # cli.to_doc prints an int as a JSON number, a Fraction as a string.
        assert all(type(v) is Fraction for v in got if v is not None)


def as_int_where_integral(v):
    """v as an int where it is integral, else as it is."""
    return int(v) if v.denominator == 1 else v


@settings(max_examples=300, deadline=None)
@given(exact_local_data(), st.integers(-12, 12).filter(bool))
def test_closed_forms_do_not_depend_on_the_scale_of_the_field(case, s):
    # diagonal_zeros hands closed_forms the integer data of q*V: s*V has trJ*s,
    # detJ*s^n, k*s and detJD*s^(n-1), and every residue has degree 0 in V.
    ld, p = case
    n = len(p.coords)
    levels = range(n if ld.detJD is not None else 1)
    scales = (s, s**n, s, s ** (n - 1))
    scaled = LocalData(*(None if v is None else as_int_where_integral(v * f)
                         for v, f in zip(ld, scales)))
    want, got = closed_forms(ld, p, levels)[0], closed_forms(scaled, p, levels)[0]
    assert got == want
    assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in want]


def reference_closed_forms(ld, n, i):
    """The on-divisor closed forms as written before exact values went in as
    integer numerators; inexact records must keep these bits."""
    trJD = ld.trJ - ld.k_at_p
    if i == 0:
        var = delta_numerator(trJD, ld.k_at_p, n, 0) / ld.detJD
        if abs(ld.k_at_p) < 1e-9:
            return None, None, var
        ordinary = ld.trJ**n / ld.detJ
        return ordinary, ordinary - var, var
    ordinary = ld.trJ ** (n - i) * ld.k_at_p ** (i - 1) / ld.detJD
    log = trJD ** (n - i) * ld.k_at_p ** (i - 1) / ld.detJD
    var = delta_numerator(trJD, ld.k_at_p, n, i) / ld.detJD
    return ordinary, log, var


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.booleans(), st.data())
def test_inexact_closed_forms_keep_their_bits(n, complex_values, data):
    if complex_values:
        scalar = st.complex_numbers(max_magnitude=40, allow_nan=False, allow_infinity=False)
    else:
        scalar = st.floats(-40, 40)
    trJ, k = data.draw(scalar), data.draw(st.one_of(st.just(0.0), scalar))
    detJD = data.draw(scalar.filter(lambda v: abs(v) > 1e-3))
    detJ = data.draw(scalar.filter(lambda v: abs(v) > 1e-3))
    point = SingularPoint(0, tuple(data.draw(st.lists(scalar, min_size=n, max_size=n))), False)
    ld = LocalData(trJ, detJ, k, detJD)
    for i, r in zip(range(n), closed_forms(ld, point, range(n))[0], strict=True):
        assert repr((r.ordinary, r.log, r.var)) == repr(reference_closed_forms(ld, n, i))


@st.composite
def newton_polys_and_points(draw):
    """A polynomial of degree <= 4 in 1-4 variables with Fraction coefficients,
    its constant term first, last or absent (zero and constant polynomials
    included), and a point of Python complex values, as ``_newton`` passes it."""
    nv = draw(st.integers(1, 4))
    monomials = [e for e in itertools.product(range(5), repeat=nv) if 0 < sum(e) <= 4]
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=8, unique=True))
    constant = (0,) * nv
    where = draw(st.sampled_from(("first", "last", "none")))
    chosen = {"first": [constant] + chosen, "last": chosen + [constant], "none": chosen}[where]
    coeffs = st.fractions(-9, 9, max_denominator=9).filter(lambda c: c != 0)
    p = MultiPoly([f"x{i}" for i in range(nv)], {e: draw(coeffs) for e in chosen})
    scalar = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
    return p, draw(st.lists(scalar, min_size=nv, max_size=nv))


@settings(max_examples=300, deadline=None)
@given(newton_polys_and_points())
def test_compiled_evaluation_matches_eval_bit_for_bit(case):
    p, x = case
    polys = [p] + [p.partial(v) for v in p.variables]
    want = [q.eval(x) for q in polys]
    powers: dict = {}  # shared, as within one Newton step
    got = [_evaluate(_compile(q), x, powers) for q in polys]
    assert [repr(v) for v in got] == [repr(complex(v)) for v in want]


def test_compiled_evaluation_of_zero_and_constant_polynomials():
    x = [0.5 - 2j, -1j]
    for p in (MultiPoly.zero(("x", "y")), MultiPoly.const(("x", "y"), Fraction(-7, 3))):
        assert repr(_evaluate(_compile(p), x, {})) == repr(complex(p.eval(x)))


def square_and_vector(entries):
    """An n x n matrix and an n-vector of ``entries``, n from 1 to 7."""
    return st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(entries, min_size=n, max_size=n)))


def inf_norm(rows) -> float:
    return max(sum(abs(a) for a in row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(square_and_vector(st.builds(Fraction, st.integers(-99, 99), st.integers(1, 9))))
def test_float_elimination_agrees_with_the_exact_one(case):
    """det and solve are exact to 1e-12 relative, with the condition number
    as the scale of the relative error; both give up (0, None) exactly when
    ``_eliminate`` meets a zero pivot."""
    rows, rhs = case
    floats = [[float(a) for a in row] for row in rows]
    d, x = _det(floats, False), _solve(floats, [float(b) for b in rhs])
    zero_pivot = _eliminate([list(row) for row in floats]) == 0
    assert (d == 0) == zero_pivot == (x is None)
    m = RatMatrix(rows)
    exact = det_exact(m)
    if exact == 0:  # rounding may leave a tiny pivot; Hadamard's bound scales it
        assert abs(d) <= 1e-12 * math.prod(sum(map(abs, row)) for row in floats)
        return
    n = len(rows)
    inverse = [solve_linear(m, [int(i == j) for i in range(n)]) for j in range(n)]
    kappa = float(inf_norm(rows) * inf_norm(list(zip(*inverse))))
    assert abs(d - exact) <= 1e-12 * kappa * abs(exact)
    want = solve_linear(m, rhs)
    assert max(abs(a - b) for a, b in zip(x, want)) <= 1e-12 * kappa * max(map(abs, want))


@settings(max_examples=300, deadline=None)
@given(square_and_vector(st.builds(complex, st.integers(-99, 99), st.integers(-99, 99))))
def test_complex_solve_leaves_a_small_residual(case):
    rows, rhs = case
    x = _solve(rows, rhs)
    if x is None:
        assert _det(rows, False) == 0
        return
    residual = max(abs(sum(a * c for a, c in zip(row, x)) - b) for row, b in zip(rows, rhs))
    assert residual <= 1e-12 * (inf_norm(rows) * max(map(abs, x)) + max(map(abs, rhs)))


def test_elimination_gives_up_at_a_zero_pivot():
    for rows in ([[1.0, 2.0], [2.0, 4.0]], [[0j, 1j], [0j, 2 + 1j]], [[0.0]]):
        assert _det(rows, False) == 0 and _solve(rows, [1.0] * len(rows)) is None


def test_newton_gives_up_when_an_iterate_overflows():
    """From x0 = 1e-160 one step of x^2 - 1 lands near 5e159, whose square
    leaves float range: complex ** raises OverflowError there, and the start
    yields no zero instead of a traceback."""
    x = MultiPoly.variable(("x",), "x")
    field = [_compile(x**2 - 1)]
    assert _newton(field, [[_compile(2 * x)]], [1e-160], NumericConfig()) is None
    assert abs(_newton(field, [[_compile(2 * x)]], [0.5], NumericConfig())[0] - 1) < 1e-12


@pytest.mark.parametrize("shear", [10, -10], ids=["outside-first", "inside-first"])
def test_zero_next_to_the_search_boundary_raises_on_either_side(shear):
    """Two zeros 0.8e-6 apart, at L-inf distance radius -+ 0.4e-6 of the
    center: dedupe keeps the one Newton reaches first from the center.  In
    u = x + shear*y that is the zero whose u is nearer the center's u, which
    the shear puts inside or outside the radius; each must raise."""
    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    inside, outside = Fraction(1, 2) - Fraction(4, 10**7), Fraction(1, 2) + Fraction(4, 10**7)
    u = x + shear * y
    field = [1000 * (u - inside) * (u - outside), y]
    with pytest.raises(BoundaryZero):
        _zeros_near(field, (0, Fraction(1, 10)), 0.5, NumericConfig())


def test_each_newton_start_runs_once(monkeypatch):
    """fixtures/p2_jordan.fol has one degenerate zero: two eps levels, one
    search each from the 5^2 grid starts, whose first is the center itself.
    A separate center start (52 runs) found nothing the grid does not."""
    runs = []

    def counted(field, jac, x0, *args):
        runs.append(list(x0))
        return _newton(field, jac, x0, *args)

    monkeypatch.setattr(residue, "_newton", counted)
    doc = parse_problem((Path(__file__).resolve().parent.parent
                         / "fixtures" / "p2_jordan.fol").read_text())
    assert verify_identities(doc.problem, doc.points).all_ok
    assert len(runs) == 2 * NumericConfig().grid_per_axis ** 2 == 50
    assert all(len({tuple(x0) for x0 in search}) == 25 for search in (runs[:25], runs[25:]))


class TestSimpleResidues:
    def test_off_divisor_ordinary(self):
        cf = chart_field(P2, 2)
        r = simple_residues(cf, ORIGIN2, 0)
        assert r.ordinary == r.log == Fraction(-9, 4)
        assert r.var == 0 and r.method == "closed_form"

    def test_off_divisor_rejects_positive_i(self):
        cf = chart_field(P2, 2)
        with pytest.raises(NotOnDivisor):
            simple_residues(cf, ORIGIN2, 1)

    @pytest.mark.parametrize("chart", [0, 2])  # on and off the divisor
    @pytest.mark.parametrize("i", [-1, 2])
    def test_rejects_i_out_of_range(self, chart, i):
        # Checked before any arithmetic: c**(i - 1) at i = -1 would be a float.
        with pytest.raises(ValueError, match=rf"^i must lie in 0\.\.1, got {i}$"):
            simple_residues(chart_field(P2, chart), ORIGIN2, i)

    def test_known_on_divisor_values(self):
        cf = chart_field(P2, 0)  # eigenvalues 5, 4; k = 4
        r0 = simple_residues(cf, ORIGIN2, 0)
        assert (r0.ordinary, r0.log, r0.var) == (
            Fraction(81, 20),
            Fraction(25, 20),
            Fraction(56, 20),
        )
        r1 = simple_residues(cf, ORIGIN2, 1)
        assert (r1.ordinary, r1.log, r1.var) == (
            Fraction(9, 5),
            Fraction(1),
            Fraction(4, 5),
        )

    def test_ordinary_minus_log_is_var(self):
        for chart, cf in enumerate(chart_fields(P2)):
            for i in (0, 1):
                if chart == 2 and i == 1:
                    continue
                r = simple_residues(cf, ORIGIN2, i)
                assert r.ordinary - r.log == r.var

    def test_chart_independence(self):
        # V = (z0^2, z1^2, 2 z0 z2) has a singular point [1:1:0] visible in
        # charts 0 and 1; both charts must report identical residues.
        comps = [
            zv("z0", Z3) ** 2,
            zv("z1", Z3) ** 2,
            2 * zv("z0", Z3) * zv("z2", Z3),
        ]
        problem = make_problem(Z3, comps, zv("z2", Z3))
        p0 = SingularPoint(0, (Fraction(1), Fraction(0)))
        p1 = SingularPoint(1, (Fraction(1), Fraction(0)))
        fields = chart_fields(problem)
        for i in (0, 1):
            r0 = simple_residues(fields[0], p0, i)
            r1 = simple_residues(fields[1], p1, i)
            assert (r0.ordinary, r0.log, r0.var) == (r1.ordinary, r1.log, r1.var)

    def test_degenerate_raises(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2, -y), MultiPoly.const(("x", "y"), 1),
                        MultiPoly.zero(("x", "y")))
        with pytest.raises(DegenerateZero):
            simple_residues(cf, ORIGIN2, 0)


class TestPerturbedResidue:
    def test_degenerate_off_divisor_oracle(self):
        # v = (x^2, -y): a double zero at the origin.  tr = 2x - 1, det = -2x.
        # The two perturbed zeros sum to tr^2/det = 4 in the limit.
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2, -y), MultiPoly.const(("x", "y"), 1),
                        MultiPoly.zero(("x", "y")))
        r = perturbed_residue(cf, ORIGIN2, 0)
        assert r.method == "perturbation"
        assert r.ordinary == pytest.approx(4.0, abs=1e-4)
        assert r.error is not None and r.error < 1e-2

    def test_matches_exact_on_simple_zeros(self):
        for problem, n in ((P2, 2), (P3, 3)):
            for chart, cf in enumerate(chart_fields(problem)):
                p = SingularPoint(chart, (Fraction(0),) * n)
                exact = simple_residues(cf, p, 0)
                approx = perturbed_residue(cf, p, 0, NumericConfig())
                assert approx.var == pytest.approx(float(exact.var),
                                                   rel=1e-6, abs=1e-6)
                assert approx.ordinary == pytest.approx(float(exact.ordinary),
                                                        rel=1e-6)

    def test_degenerate_on_divisor(self):
        # Induced field y^2 on the divisor {x = 0}: the double zero carries
        # total log residue 2 and no excess.
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = plane_chart((x, y**2), x)
        with pytest.raises(DegenerateZero):
            simple_residues(cf, ORIGIN2, 1)
        r = perturbed_residue(cf, ORIGIN2, 1)
        assert r.log == pytest.approx(2.0, abs=1e-4)
        assert r.var == pytest.approx(0.0, abs=1e-4)
        assert r.ordinary == pytest.approx(2.0, abs=1e-4)

    def test_degenerate_on_curved_divisor(self):
        # (x, y) -> (x - y^2, y) maps this field to (3x', -y^2) with D = {x' = 0}:
        # a double zero of the induced field -y^2 with cofactor 3.
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = plane_chart((3 * (x - y**2) - 2 * y**3, -(y**2)), x - y**2)
        for i, expected in ((0, (4, 0, 4)), (1, (2, 2, 0))):
            r = perturbed_residue(cf, ORIGIN2, i)
            assert r.method == "perturbation" and r.point.on_divisor
            assert (r.ordinary, r.log, r.var) == pytest.approx(expected, abs=1e-6)

    def test_matches_exact_on_a_conic(self):
        problem = make_problem(Z3, [zv("z0", Z3), 3 * zv("z1", Z3), -zv("z2", Z3)],
                               zv("z0", Z3) ** 2 - zv("z1", Z3) * zv("z2", Z3))
        report = verify_identities(problem)
        assert report.level == "proved-on-instance"
        assert [(c.ordinary_total, c.log_total, c.var_total)
                for c in report.checks.values()] == [(9, 1, 8), (6, 2, 4)]
        on_divisor = 0
        for cf in chart_fields(problem):
            for p, _ in linear_zeros(cf):
                on_divisor += p.on_divisor
                for i in range(2 if p.on_divisor else 1):
                    exact = simple_residues(cf, p, i)
                    approx = perturbed_residue(cf, p, i)
                    for name in ("ordinary", "log", "var"):
                        e = float(getattr(exact, name))
                        assert abs(getattr(approx, name) - e) <= 1e-6 * max(1.0, abs(e))
        assert on_divisor == 2  # [0:1:0] and [0:0:1]; [1:0:0] lies off the conic

    def test_not_a_zero_raises(self):
        cf = chart_field(P2, 0)
        with pytest.raises(NotAZero, match=r"does not vanish at \(1/10, 0\)"):
            perturbed_residue(cf, SingularPoint(0, (Fraction(1, 10), Fraction(0))), 0)

    def test_singular_divisor_names_the_given_point(self):
        # [0:0:1] lies on both lines of the divisor z0*z1.
        problem = make_problem(Z3, P2.components, zv("z0", Z3) * zv("z1", Z3))
        with pytest.raises(DivisorSingularAt, match=r"divisor is singular at \(0, 0\)"):
            perturbed_residue(chart_field(problem, 2), ORIGIN2, 0)

    @pytest.mark.parametrize("x, shown", [
        (Fraction(int("1" * 4000)), repr("1" * 40) + "... (4000 characters)"),
        (Fraction(-int("3" * 37), 2), "-" + "3" * 37 + "/2"),  # 40 characters: whole
        (Fraction(int("3" * 39), 2), repr("3" * 39 + "/") + "... (41 characters)"),
    ], ids=["4000 digits", "40 characters", "41 characters"])
    def test_a_long_coordinate_is_clipped(self, x, shown):
        message = str(DivisorSingularAt((x, Fraction(0))))
        assert message == f"divisor is singular at ({shown}, 0); residues there are unsupported"
        assert len(message) <= 200

    def test_seeded_determinism(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2, -y), MultiPoly.const(("x", "y"), 1),
                        MultiPoly.zero(("x", "y")))
        r1 = perturbed_residue(cf, ORIGIN2, 0, NumericConfig(seed=5))
        r2 = perturbed_residue(cf, ORIGIN2, 0, NumericConfig(seed=5))
        assert r1.ordinary == r2.ordinary and r1.error == r2.error


def p3_jordan(mu, lam2, lam3):
    """A 2x2 Jordan block of eigenvalue mu at [1:0:0:0] on the divisor z3, and
    simple zeros at [0:0:1:0] (on the divisor) and [0:0:0:1] (off it)."""
    z0, z1, z2, z3 = (zv(v, Z4) for v in Z4)
    return make_problem(Z4, [mu * z0 + z1, mu * z1, lam2 * z2, lam3 * z3], z3)


P3_JORDAN = p3_jordan(2, -1, 3)
P3_JORDAN_POINTS = [SingularPoint(c, (Fraction(0),) * 3) for c in (0, 2, 3)]


class TestPerturbedResidues:
    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return _zeros_near(*args, **kwargs)

        monkeypatch.setattr(residue, "_zeros_near", counted)
        return calls

    def test_one_search_per_eps_serves_every_level(self, searches):
        cf = chart_field(P3_JORDAN, 0)
        p = P3_JORDAN_POINTS[0]
        records = perturbed_residues(cf, local_data(cf, p), p, [0, 1, 2])
        assert len(searches) == 2
        assert [r.i for r in records] == [0, 1, 2]
        assert all(r.method == "perturbation" and r.point.on_divisor for r in records)
        single = perturbed_residue(cf, p, 0)
        assert (records[0].ordinary, records[0].log, records[0].var, records[0].error) == (
            single.ordinary, single.log, single.var, single.error)

    @pytest.mark.parametrize("problem", [
        P3_JORDAN,
        # The P^3 analogue of fixtures/p2_jordan.fol: the i = 2 var total reads
        # 0.99999898, 1.02e-6 off, the engine's error at eps = (1e-3, 1e-4).
        # It passes once the engine's accuracy is mended.
        pytest.param(p3_jordan(1, 2, 3), marks=pytest.mark.xfail(
            strict=True, reason="engine error above NUMERIC_TOL at i = 2")),
    ], ids=["mu2", "mu1"])
    def test_verify_totals_match_the_chern_numbers(self, searches, problem):
        report = verify_identities(problem, P3_JORDAN_POINTS)
        assert len(searches) == 2  # one degenerate zero, one search per eps
        assert report.level == "numeric" and sorted(report.checks) == [0, 1, 2]
        for i, check in report.checks.items():
            totals = (check.ordinary_total, check.log_total, check.var_total)
            for got, want in zip(totals, chern_totals(problem.n, problem.d, problem.m, i)):
                assert abs(got - want) <= NUMERIC_TOL * max(1, abs(want))

    def test_off_the_divisor_rejects_positive_levels(self, searches):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2, -y), MultiPoly.const(("x", "y"), 1),
                        MultiPoly.zero(("x", "y")))
        with pytest.raises(NotOnDivisor):
            perturbed_residues(cf, local_data(cf, ORIGIN2), ORIGIN2, [0, 1])
        assert searches == []


ROW_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
)


@st.composite
def affine_chart_fields(draw):
    """(chart field, alpha, beta, off) for a_j = alpha_j*x_j + beta_j on
    C^1..C^5 (denominators up to 1e9), built directly: off D (f = 1, k = 0),
    or on D = {x0 = 0}, where tangency makes beta_0 = 0 and k = alpha_0.  In a
    quarter of the cases alpha and beta may hold zeros: no zero, or a zero set
    of positive dimension.  With ``off`` set (a quarter of the cases on
    C^2..C^5) one component also has a linear term in another variable."""
    n = draw(st.integers(1, 5))
    xs = tuple(f"x{j}" for j in range(n))
    on_divisor, zeros = draw(st.booleans()), draw(st.integers(0, 3)) == 3
    entry = ROW_ENTRIES if zeros else ROW_ENTRIES.filter(bool)
    alpha = [draw(entry) for _ in range(n)]
    beta = [Fraction(0) if on_divisor and j == 0 else draw(entry) for j in range(n)]
    x = [MultiPoly.variable(xs, v) for v in xs]
    a = [c * x_j + b for c, x_j, b in zip(alpha, x, beta)]
    off = n > 1 and draw(st.integers(0, 3)) == 3
    if off:  # a_0 keeps x0 | v(x0) on D
        j = draw(st.integers(1, n - 1))
        other = draw(st.sampled_from([m for m in range(n) if m != j]))
        a[j] = a[j] + draw(ROW_ENTRIES.filter(bool)) * x[other]
    if on_divisor:
        cf = ChartField(0, xs, tuple(a), x[0], MultiPoly.const(xs, alpha[0]))
    else:
        cf = ChartField(0, xs, tuple(a), MultiPoly.const(xs, 1), MultiPoly.zero(xs))
    return cf, alpha, beta, off


@settings(max_examples=200, deadline=None)
@given(affine_chart_fields())
def test_linear_zeros_on_general_affine_fields(case):
    # A chart with a term off the diagonal raises.  On the diagonal each zero
    # three ways: the field vanishes there, solve_linear finds it, and
    # classify_point, from jets and determinants, agrees field for field.
    cf, alpha, beta, off = case
    if off:
        with pytest.raises(NonLinearField, match="needs diagonal charts"):
            linear_zeros(cf)
        return
    n = cf.n
    A = [[alpha[j] if k == j else Fraction(0) for k in range(n)] for j in range(n)]
    if det_exact(RatMatrix(A)) == 0:
        if rank(RatMatrix(A)) == rank(RatMatrix([r + [v] for r, v in zip(A, beta)])):
            with pytest.raises(PositiveDimensional) as exc:
                linear_zeros(cf)
            assert exc.value.dimension == n - rank(RatMatrix(A))
        else:
            assert linear_zeros(cf) == []
        return
    [(p, ld)] = linear_zeros(cf)
    assert all(a.eval(p.coords) == 0 for a in cf.a)
    assert list(p.coords) == solve_linear(RatMatrix(A), [-v for v in beta])
    want_p, want_ld = classify_point(cf, p.coords)
    assert p == want_p and p.simple and p.on_divisor == (not cf.f.is_constant)
    assert all(type(c) is Fraction for c in p.coords)
    for name, got, want in zip(LocalData._fields, ld, want_ld):
        assert got == want and type(got) is type(want), name


@st.composite
def sparse_homogeneous_fields(draw):
    """Homogeneous fields on P^1..P^3 of degree 0..2 with at most four nonzero
    terms, half of those of degree >= 1 plus g times the Euler field (g of at
    most two terms): sparse enough that every chart is often affine-linear."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    zs = tuple(f"z{j}" for j in range(n + 1))

    def monomials(degree):
        return [e for e in itertools.product(range(degree + 1), repeat=n + 1) if sum(e) == degree]

    coeff = st.sampled_from([1, -1, 2, Fraction(-1, 3)])
    terms: list[dict] = [{} for _ in zs]
    for j, e in draw(st.lists(st.tuples(st.integers(0, n), st.sampled_from(monomials(d))),
                              max_size=4)):
        terms[j][e] = draw(coeff)
    comps = [MultiPoly(zs, t) for t in terms]
    if d and draw(st.booleans()):
        g = MultiPoly(zs, {e: draw(coeff) for e in draw(st.lists(
            st.sampled_from(monomials(d - 1)), max_size=2))})
        comps = [c + g * zv(z, zs) for c, z in zip(comps, zs)]
    return FoliationProblem(n, zs, tuple(comps), zv("z0", zs), d, 1)


@settings(max_examples=300, deadline=None)
@given(sparse_homogeneous_fields())
def test_affine_linear_charts_are_diagonal(problem):
    # Exact discovery runs only when every chart is affine-linear; then every
    # component is alpha_j*x_j + beta_j, the only form linear_zeros reads.
    charts = [dehomogenize_field(problem, c) for c in range(problem.n + 1)]
    if all(a.degree() <= 1 for cf in charts for a in cf.a):
        for cf in charts:
            for j, a in enumerate(cf.a):
                assert all(sum(e) == e[j] for e in a.terms), (cf.chart, j, a)


class TestZeroDiscovery:
    def test_exact_linear_unique(self):
        cf = chart_field(P2, 0)
        [(p, ld)] = linear_zeros(cf)
        assert p.coords == (Fraction(0), Fraction(0))
        assert p.on_divisor and p.simple
        assert (p, ld) == classify_point(cf, p.coords)

    def test_exact_linear_rejects_nonlinear(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2, y), MultiPoly.const(("x", "y"), 1))
        with pytest.raises(NonLinearField):
            linear_zeros(cf)

    def test_exact_linear_checks_degrees_before_off_diagonal_terms(self):
        # Component 0 has a term in y, but component 1's degree-2 term is
        # reported: every degree is checked first.
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (y, x**2), MultiPoly.const(("x", "y"), 1))
        with pytest.raises(NonLinearField, match="^component 1 has a degree-2 term"):
            linear_zeros(cf)

    def test_exact_linear_positive_dimensional(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x, MultiPoly.zero(("x", "y"))),
                        MultiPoly.const(("x", "y"), 1))
        with pytest.raises(PositiveDimensional) as exc:
            linear_zeros(cf)
        assert exc.value.dimension == 1

    def test_exact_linear_inconsistent_is_empty(self):
        x = zv("x", ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x, MultiPoly.const(("x", "y"), 1)),
                        MultiPoly.const(("x", "y"), 1))
        assert linear_zeros(cf) == []

    def test_exact_linear_rejects_off_diagonal(self):
        # Chart 0 of [z0, z1 + z2, z2] is (z2, 0); chart 1 is not affine-linear.
        problem = make_problem(Z3, [zv("z0", Z3), zv("z1", Z3) + zv("z2", Z3), zv("z2", Z3)],
                               zv("z2", Z3))
        with pytest.raises(NonLinearField, match="component 0 has a term in z2"):
            linear_zeros(chart_field(problem, 0))
        with pytest.raises(NonLinearField, match="degree-2 term"):
            linear_zeros(chart_field(problem, 1))

    def test_numeric_finds_known_zeros(self):
        # (x^2 - 1, y): real zeros at (1, 0) and (-1, 0).
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2 - 1, y), MultiPoly.const(("x", "y"), 1))
        pts = discover_zeros_numeric(cf)
        found = sorted(round(p.coords[0], 6) for p in pts)
        assert found == [-1.0, 1.0]
        assert all(p.simple and not p.exact for p in pts)
