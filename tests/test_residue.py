import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilog.aggregate import verify_identities
from resilog.algebra import MultiPoly, RatMatrix, SingularMatrix, det_exact, solve_linear
from resilog.foliation import ChartField, chart_field, dehomogenize_field, make_problem
from resilog.parse import parse_problem
from resilog.residue import (
    DegenerateZero,
    DivisorSingularAt,
    LocalData,
    NonLinearField,
    NotAZero,
    NotOnDivisor,
    NumericConfig,
    PositiveDimensional,
    SingularPoint,
    classify_point,
    closed_form_residues,
    delta_numerator,
    discover_zeros_numeric,
    linear_zeros,
    local_data,
    perturbed_residue,
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
    def test_rejects_nonzero_point(self):
        cf = chart_field(P2, 0)
        with pytest.raises(NotAZero):
            local_data(cf, SingularPoint(0, (Fraction(1), Fraction(1))))

    def test_off_divisor(self):
        cf = chart_field(P2, 2)  # divisor misses this chart
        ld = local_data(cf, ORIGIN2)
        assert ld.s is None and ld.detJD is None
        assert ld.trJ == -3 and ld.detJ == -4  # eigenvalues -4, 1

    def test_on_divisor_triangular_factorization(self):
        cf = chart_field(P2, 0)  # eigenvalues 5, 4; k = 4
        ld = local_data(cf, ORIGIN2)
        assert ld.s == 1
        assert (ld.trJ, ld.detJ, ld.k_at_p) == (9, 20, 4)
        assert ld.trJD == 5 and ld.detJD == 5
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
        assert ld1.trJD == ld2.trJD == 2
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
    # local_data takes detJ = k(p)*detJD at exact zeros on the divisor.
    cf, p, k_vanishes = case
    ld = local_data(cf, SingularPoint(0, p))
    assert ld.s is not None
    jac = [[a.partial(v).eval(p) for v in cf.variables] for a in cf.a]
    assert ld.detJ == det_exact(RatMatrix(jac)) and type(ld.detJ) is Fraction
    if k_vanishes:
        assert ld.k_at_p == 0 == ld.detJ


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
    for chart in range(problem.n + 1):
        cf = chart_field(problem, chart)
        xs = sympy.symbols(cf.variables)
        for h in (h for h in zeros if h[chart]):
            x = tuple(Fraction(v) / h[chart] for j, v in enumerate(h) if j != chart)
            at = dict(zip(xs, map(rat, x)))
            J = sympy.Matrix([expr(a, xs) for a in cf.a]).jacobian(xs).subs(at)
            k_at_p = expr(cf.k, xs).subs(at)
            want = [J.trace(), J.det(), k_at_p, J.trace() - k_at_p, None]
            s = None
            f = expr(cf.f, xs)
            if not cf.f.is_constant and f.subs(at) == 0:
                grad = sympy.Matrix([f]).jacobian(xs).subs(at)
                s = next(j for j in range(cf.n) if grad[j] != 0)
                rows = J.copy()
                rows.row_del(s)
                sign = -1 if (cf.n - 1 - s) % 2 else 1
                want[4] = sign * rows.col_join(grad).det() / grad[s]
            ld = local_data(cf, SingularPoint(chart, x))
            got = [ld.trJ, ld.detJ, ld.k_at_p, ld.trJD, ld.detJD]
            assert all(isinstance(v, Fraction) for v in got if v is not None)
            assert got == [None if v is None else frac(v) for v in want]
            assert ld.s == s
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
    # closed_form_residues relies on this to feed it integer numerators.
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
        ld = LocalData(trJ, k * detJD, k, trJ - k, detJD, draw(st.integers(0, n - 1)))
    else:
        ld = LocalData(trJ, draw(nonzero), k, trJ - k, None, None)
    return ld, point


@settings(max_examples=300, deadline=None)
@given(exact_local_data())
def test_exact_closed_forms_match_the_textbook_formulas(case):
    ld, p = case
    n, trJ, k, trJD = len(p.coords), Fraction(ld.trJ), Fraction(ld.k_at_p), Fraction(ld.trJD)
    levels = range(n if ld.s is not None else 1)
    for i, r in zip(levels, closed_form_residues(ld, p, levels), strict=True):
        if ld.s is None:
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


def reference_closed_forms(ld, n, i):
    """The on-divisor closed forms as written before exact values went in as
    integer numerators; inexact records must keep these bits."""
    if i == 0:
        var = delta_numerator(ld.trJD, ld.k_at_p, n, 0) / ld.detJD
        if abs(ld.k_at_p) < 1e-9:
            return None, None, var
        ordinary = ld.trJ**n / ld.detJ
        return ordinary, ordinary - var, var
    ordinary = ld.trJ ** (n - i) * ld.k_at_p ** (i - 1) / ld.detJD
    log = ld.trJD ** (n - i) * ld.k_at_p ** (i - 1) / ld.detJD
    var = delta_numerator(ld.trJD, ld.k_at_p, n, i) / ld.detJD
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
    ld = LocalData(trJ, detJ, k, trJ - k, detJD, 0)
    for i, r in zip(range(n), closed_form_residues(ld, point, range(n)), strict=True):
        assert repr((r.ordinary, r.log, r.var)) == repr(reference_closed_forms(ld, n, i))


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
        for chart in range(3):
            cf = chart_field(P2, chart)
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
        for i in (0, 1):
            r0 = simple_residues(chart_field(problem, 0), p0, i)
            r1 = simple_residues(chart_field(problem, 1), p1, i)
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
            for chart in range(n + 1):
                cf = chart_field(problem, chart)
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
        for chart in range(3):
            cf = chart_field(problem, chart)
            for p in [classify_point(cf, x)[0] for x in linear_zeros(cf)]:
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

    def test_seeded_determinism(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2, -y), MultiPoly.const(("x", "y"), 1),
                        MultiPoly.zero(("x", "y")))
        r1 = perturbed_residue(cf, ORIGIN2, 0, NumericConfig(seed=5))
        r2 = perturbed_residue(cf, ORIGIN2, 0, NumericConfig(seed=5))
        assert r1.ordinary == r2.ordinary and r1.error == r2.error


class TestZeroDiscovery:
    def test_exact_linear_unique(self):
        cf = chart_field(P2, 0)
        pts = [classify_point(cf, x)[0] for x in linear_zeros(cf)]
        assert len(pts) == 1
        assert pts[0].coords == (Fraction(0), Fraction(0))
        assert pts[0].on_divisor and pts[0].simple

    def test_exact_linear_rejects_nonlinear(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2, y), MultiPoly.const(("x", "y"), 1))
        with pytest.raises(NonLinearField):
            [classify_point(cf, x)[0] for x in linear_zeros(cf)]

    def test_exact_linear_positive_dimensional(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x, MultiPoly.zero(("x", "y"))),
                        MultiPoly.const(("x", "y"), 1))
        with pytest.raises(PositiveDimensional) as exc:
            [classify_point(cf, x)[0] for x in linear_zeros(cf)]
        assert exc.value.dimension == 1

    def test_exact_linear_inconsistent_is_empty(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x, x + 1), MultiPoly.const(("x", "y"), 1))
        assert [classify_point(cf, x)[0] for x in linear_zeros(cf)] == []

    def test_numeric_finds_known_zeros(self):
        # (x^2 - 1, y): real zeros at (1, 0) and (-1, 0).
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2 - 1, y), MultiPoly.const(("x", "y"), 1))
        pts = discover_zeros_numeric(cf)
        found = sorted(round(p.coords[0], 6) for p in pts)
        assert found == [-1.0, 1.0]
        assert all(p.simple and not p.exact for p in pts)
