import random
from fractions import Fraction
from pathlib import Path

import pytest

from resilog.aggregate import verify_identities
from resilog.algebra import MultiPoly, RatMatrix, SingularMatrix, solve_linear
from resilog.foliation import ChartField, chart_field, make_problem
from resilog.parse import parse_problem
from resilog.residue import (
    DegenerateZero,
    NonLinearField,
    NotAZero,
    NotOnDivisor,
    NumericConfig,
    PositiveDimensional,
    SingularPoint,
    delta_numerator,
    discover_zeros_exact_linear,
    discover_zeros_numeric,
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
            for p in discover_zeros_exact_linear(cf):
                on_divisor += p.on_divisor
                for i in range(2 if p.on_divisor else 1):
                    exact = simple_residues(cf, p, i)
                    approx = perturbed_residue(cf, p, i)
                    for name in ("ordinary", "log", "var"):
                        e = float(getattr(exact, name))
                        assert abs(getattr(approx, name) - e) <= 1e-6 * max(1.0, abs(e))
        assert on_divisor == 2  # [0:1:0] and [0:0:1]; [1:0:0] lies off the conic

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
        pts = discover_zeros_exact_linear(cf)
        assert len(pts) == 1
        assert pts[0].coords == (Fraction(0), Fraction(0))
        assert pts[0].on_divisor and pts[0].simple

    def test_exact_linear_rejects_nonlinear(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2, y), MultiPoly.const(("x", "y"), 1))
        with pytest.raises(NonLinearField):
            discover_zeros_exact_linear(cf)

    def test_exact_linear_positive_dimensional(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x, MultiPoly.zero(("x", "y"))),
                        MultiPoly.const(("x", "y"), 1))
        with pytest.raises(PositiveDimensional) as exc:
            discover_zeros_exact_linear(cf)
        assert exc.value.dimension == 1

    def test_exact_linear_inconsistent_is_empty(self):
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x, x + 1), MultiPoly.const(("x", "y"), 1))
        assert discover_zeros_exact_linear(cf) == []

    def test_numeric_finds_known_zeros(self):
        # (x^2 - 1, y): real zeros at (1, 0) and (-1, 0).
        x, y = (zv(v, ("x", "y")) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2 - 1, y), MultiPoly.const(("x", "y"), 1))
        pts = discover_zeros_numeric(cf, (-2.0, 2.0))
        found = sorted(round(p.coords[0], 6) for p in pts)
        assert found == [-1.0, 1.0]
        assert all(p.simple and not p.exact for p in pts)
