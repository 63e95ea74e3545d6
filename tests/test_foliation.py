import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resilog.algebra import MultiPoly
from resilog.foliation import (
    NotTangent,
    chart_cofactor,
    chart_field,
    chart_fields,
    chern_totals,
    dehomogenize_field,
    make_problem,
)
from resilog.parse import SchemaError, parse_poly

Z = ("z0", "z1", "z2")


def zvar(name, variables=Z):
    return MultiPoly.variable(variables, name)


def diag_problem(eigs, divisor_index, variables=Z):
    comps = [Fraction(e) * zvar(v, variables) for e, v in zip(eigs, variables)]
    return make_problem(variables, comps, zvar(variables[divisor_index], variables))


def test_make_problem_degrees():
    p = diag_problem((-3, 2, 1), 2)
    assert (p.n, p.d, p.m) == (2, 1, 1)


def test_make_problem_rejects_bad_input():
    with pytest.raises(SchemaError, match="^2 field components for 3 homogeneous coordinates$"):
        make_problem(Z, [zvar("z0"), zvar("z1")], zvar("z2"))  # arity
    with pytest.raises(SchemaError):
        make_problem(Z, [zvar("z0") ** 2, zvar("z1"), zvar("z2")], zvar("z2"))  # mixed degree
    with pytest.raises(SchemaError):
        make_problem(Z, [zvar("z0") + 1, zvar("z1"), zvar("z2")], zvar("z2"))  # inhomogeneous
    with pytest.raises(SchemaError):
        make_problem(Z, [MultiPoly.zero(Z)] * 3, zvar("z2"))  # zero field
    with pytest.raises(SchemaError):
        make_problem(Z, [zvar("z0"), zvar("z1"), zvar("z2")], MultiPoly.const(Z, 1))


@pytest.mark.parametrize("variables, message", [
    (("z0", "z0", "z2"), "field.vars contains duplicate names"),
    (("x", "+", "y"), "variable '+' is not an identifier"),
    (("x", "y", "2z"), "variable '2z' is not an identifier"),
    (("x", "y", "z" + "é"), "variable 'zé' is not an identifier"),
    (("x", "y", "a" * 50 + "+"), f"variable '{'a' * 40}'... (51 characters) is not an identifier"),
])
def test_make_problem_rejects_repeated_or_non_identifier_names(variables, message):
    # A library caller's names are checked as a problem file's are: a repeated
    # name would otherwise read as a degree-2 term much later.
    z = [MultiPoly.variable(variables, v) for v in variables]
    with pytest.raises(SchemaError) as raised:
        make_problem(variables, [-3 * z[0], 2 * z[1], z[2]], z[2])
    assert str(raised.value) == message


def test_nonreduced_divisor_warns():
    with pytest.warns(UserWarning, match="non-reduced"):
        make_problem(Z, [zvar("z0"), zvar("z1"), 2 * zvar("z2")], zvar("z2") ** 2)


def warns_nonreduced(variables, divisor) -> bool:
    """Whether make_problem warns that ``divisor`` looks non-reduced."""
    if isinstance(divisor, str):
        divisor = parse_poly(divisor, variables)
    comps = [zvar(v, variables) for v in variables]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        make_problem(variables, comps, divisor)
    return any("non-reduced" in str(w.message) for w in caught)


def test_squared_line_warns_although_a_seeded_line_drops_degree():
    # The second seeded line has direction (1, 6, 1), where (z0 - z2)^2 vanishes.
    with pytest.warns(UserWarning, match="non-reduced"):
        make_problem(Z, [zvar("z0"), zvar("z1"), zvar("z2")], parse_poly("(z0 - z2)^2*z1", Z))


@pytest.mark.parametrize("variables, divisor", [
    (("z0", "z1", "z2", "z3"), "-171*z0 + 385*z1 - 119*z2 + 215*z3"),
    (Z, "z0^2 - z1*z2"),
    (Z, "z0*z1*z2"),
])
def test_reduced_divisors_do_not_warn(variables, divisor):
    assert not warns_nonreduced(variables, divisor)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_square_factor_always_warns(data):
    zs = tuple(f"z{i}" for i in range(data.draw(st.integers(3, 4))))
    g = data.draw(homogeneous(zs, data.draw(st.integers(1, 2)), min_terms=1))
    h = data.draw(homogeneous(zs, data.draw(st.integers(0, 2)), min_terms=1))
    assert warns_nonreduced(zs, g * g * h)


def test_binary_forms_warn_exactly_when_sympy_finds_a_square_factor():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240818)
    zs = ("z0", "z1")
    symbols = sympy.symbols(zs)
    non_reduced = 0
    for _ in range(200):
        degree, divisor = rng.randint(2, 6), MultiPoly.const(zs, 1)
        while divisor.degree() < degree:
            k = min(rng.randint(1, 2), degree - divisor.degree())
            f = MultiPoly(zs, {(j, k - j): rng.randint(-3, 3) or 1 for j in range(k + 1)})
            square = rng.random() < 0.2 and divisor.degree() + 2 * k <= degree
            divisor = divisor * f ** (2 if square else 1)
        poly = sympy.Poly.from_dict({e: int(c) for e, c in divisor.terms.items()}, *symbols)
        reduced = all(k == 1 for _, k in poly.sqf_list()[1])
        assert warns_nonreduced(zs, divisor) != reduced, divisor
        non_reduced += not reduced
    assert 40 < non_reduced < 160  # both kinds are well represented


def test_dehomogenize_known_chart():
    # diag(-3, 2, 1) on chart 0 gives 5x d/dx + 4y d/dy in (z1, z2).
    p = diag_problem((-3, 2, 1), 2)
    cf = dehomogenize_field(p, 0)
    assert cf.variables == ("z1", "z2")
    x, y = (MultiPoly.variable(cf.variables, v) for v in cf.variables)
    assert cf.a == (5 * x, 4 * y)
    assert cf.f == y


def test_euler_shift_invariance():
    # Adding a multiple of the radial field leaves every chart unchanged.
    p = diag_problem((-3, 2, 1), 2)
    shifted = make_problem(
        Z, [c + 7 * zvar(v) for c, v in zip(p.components, Z)], p.divisor
    )
    for chart in range(3):
        a = dehomogenize_field(p, chart)
        b = dehomogenize_field(shifted, chart)
        assert a.a == b.a and a.f == b.f


COEFFS = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 9))


@st.composite
def homogeneous(draw, variables, degree, min_terms=0):
    monomials = [e for e in itertools.product(range(degree + 1), repeat=len(variables))
                 if sum(e) == degree]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=min_terms, max_size=4,
                           unique=True))
    return MultiPoly(variables, {e: draw(COEFFS) for e in chosen})


@st.composite
def problems(draw):
    """A homogeneous field of degree 0-3 on P^1-P^4 with a divisor of degree 1-2,
    and a homogeneous g of one degree less (zero for degree 0)."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    zs = tuple(f"z{i}" for i in range(n + 1))
    comps = [draw(homogeneous(zs, d, min_terms=int(i == 0))) for i in range(n + 1)]
    divisor = draw(homogeneous(zs, draw(st.integers(1, 2)), min_terms=1))
    g = draw(homogeneous(zs, d - 1)) if d else MultiPoly.zero(zs)
    return make_problem(zs, draw(st.permutations(comps)), divisor), g


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=100, deadline=None)
@given(problems())
def test_dehomogenize_matches_textbook_route(problem_and_g):
    # a_j = (V_j - z_j V_c) at z_c = 1 by MultiPoly arithmetic, in every chart c,
    # and the same chart fields after adding g times the Euler field.
    p, g = problem_and_g
    zs, v = p.variables, p.components
    shifted = p._replace(components=tuple(c + g * zvar(z, zs) for c, z in zip(v, zs)))
    for chart, name in enumerate(zs):
        cf = dehomogenize_field(p, chart)
        # z_c = 1 by eval at polynomial coordinates; eval of 0 is Fraction(0).
        rest = tuple(z for z in zs if z != name)
        at_one = [MultiPoly.const(rest, 1) if z == name else zvar(z, rest) for z in zs]
        a = [MultiPoly.zero(rest) + (v[j] - zvar(zs[j], zs) * v[chart]).eval(at_one)
             for j in range(len(zs)) if j != chart]
        f = MultiPoly.zero(rest) + p.divisor.eval(at_one)
        if f.is_constant:
            f = MultiPoly.const(f.variables, 1)
        assert cf.variables == tuple(z for z in zs if z != name)
        assert all(x.variables == cf.variables for x in (*a, f, *cf.a, cf.f))
        assert [x.terms for x in cf.a] == [x.terms for x in a]
        assert cf.f.terms == f.terms
        moved = dehomogenize_field(shifted, chart)
        assert moved.a == cf.a and moved.f == cf.f


def test_make_problem_reads_components_in_the_declared_order():
    reversed_z = tuple(reversed(Z))
    comps = [-3 * zvar("z0"), 2 * zvar("z1") + zvar("z0"), zvar("z2")]
    p = make_problem(Z, comps, zvar("z2"))
    permuted = [MultiPoly.zero(reversed_z) + c for c in comps[:2]]
    assert all(c.variables == reversed_z for c in permuted)
    q = make_problem(Z, permuted + [MultiPoly.variable(("z2",), "z2")], zvar("z2", reversed_z))
    assert q.components == p.components and q.divisor == p.divisor
    assert all(c.variables == Z for c in (*q.components, q.divisor))
    for chart in range(3):
        assert dehomogenize_field(q, chart) == dehomogenize_field(p, chart)


def test_cofactor_and_tangency():
    p = diag_problem((-3, 2, 1), 2)
    ks = [cf.k for cf in chart_fields(p)]
    assert ks[0] == MultiPoly.const(("z1", "z2"), 4)
    assert ks[1] == MultiPoly.const(("z0", "z2"), -1)
    assert ks[2].is_zero  # divisor misses this chart; f normalized to 1


def test_not_tangent_raises():
    comps = [zvar("z1"), zvar("z0"), zvar("z0")]
    p = make_problem(Z, comps, zvar("z2"))
    with pytest.raises(NotTangent) as exc:
        chart_fields(p)
    assert exc.value.chart == 0
    assert exc.value.applied == reference_vf(dehomogenize_field(p, 0))


def reference_vf(cf):
    """v(f) = sum_j a_j * df/dx_j by MultiPoly arithmetic."""
    return sum((a * cf.f.partial(v) for a, v in zip(cf.a, cf.variables)),
               MultiPoly.zero(cf.variables))


def cofactors_by_route(p) -> tuple:
    """The cofactors from ``chart_fields`` and from a division in each chart
    in turn, each as (variables, term list) per chart, or as the chart and
    v(f) of the NotTangent the route raises."""
    routes = (lambda: chart_fields(p),
              lambda: [cf._replace(k=chart_cofactor(cf))
                       for cf in (dehomogenize_field(p, c) for c in range(p.n + 1))])
    out = []
    for route in routes:
        try:
            out.append([(cf.k.variables, list(cf.k.terms.items())) for cf in route()])
        except NotTangent as exc:
            out.append((exc.chart, exc.applied.variables, exc.applied.terms))
    return tuple(out)


def cofactors_match_reference(p) -> bool:
    """In every chart, k*f is the reference v(f), or NotTangent carries exactly
    that v(f); ``chart_fields`` agrees, term order included, or raises the same
    NotTangent.  True when every chart is tangent."""
    got, want = cofactors_by_route(p)
    assert got == want
    tangent = True
    for chart in range(p.n + 1):
        cf = dehomogenize_field(p, chart)
        want = reference_vf(cf)
        try:
            k = chart_cofactor(cf)
        except NotTangent as exc:
            assert exc.chart == chart and exc.applied == want
            tangent = False
        else:
            assert k * cf.f == want
    return tangent


def test_cofactor_on_a_conic():
    # V = [3*z0 + 2*z1, 3*z1 + z2, 3*z2] has V(F) = 6F for the conic F = z0*z2 - z1^2;
    # adding z0 to V_1 breaks tangency.
    conic = zvar("z0") * zvar("z2") - zvar("z1") ** 2
    comps = [3 * zvar("z0") + 2 * zvar("z1"), 3 * zvar("z1") + zvar("z2"), 3 * zvar("z2")]
    assert cofactors_match_reference(make_problem(Z, comps, conic))
    comps[1] = comps[1] + zvar("z0")
    assert not cofactors_match_reference(make_problem(Z, comps, conic))


@st.composite
def tangent_problems(draw):
    """A field of degree d on P^1-P^3 tangent by construction to a divisor F
    of degree m in 1..3: V_j = F*W_j + sum_i w_ij dF/dz_i + g*z_j with w
    antisymmetric, so V(F) = (W(F) + m*g)*F.  With ``noisy`` a random field
    is added, which usually breaks tangency."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d = draw(st.integers(max(m - 1, 1), m + 1))
    zs = tuple(f"z{i}" for i in range(n + 1))
    zero = MultiPoly.zero(zs)
    F = draw(homogeneous(zs, m, min_terms=1))
    W = [draw(homogeneous(zs, d - m)) if d >= m else zero for _ in zs]
    w = {(i, j): draw(homogeneous(zs, d - m + 1))
         for i, j in itertools.combinations(range(n + 1), 2)}
    g = draw(homogeneous(zs, d - 1))
    dF = [F.partial(z) for z in zs]
    comps = [F * W[j] + g * zvar(zs[j], zs)
             + sum((w[i, j] * dF[i] for i in range(j)), zero)
             - sum((w[j, i] * dF[i] for i in range(j + 1, n + 1)), zero)
             for j in range(n + 1)]
    noisy = draw(st.booleans())
    if noisy:
        comps = [c + draw(homogeneous(zs, d)) for c in comps]
    assume(any(not c.is_zero for c in comps))
    return make_problem(zs, comps, F), noisy


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=150, deadline=None)
@given(tangent_problems())
def test_cofactor_matches_multipoly_arithmetic(case):
    p, noisy = case
    assert cofactors_match_reference(p) or noisy


@st.composite
def hyperplane_problems(draw):
    """A constant (d = 0), diagonal (d = 1) or Lotka-Volterra (d = 2) field on
    P^1-P^4, V_j = z_j*L_j for d >= 1, tangent to a product of coordinate
    hyperplanes; half the time one component gains a term of degree d, which
    usually breaks tangency."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    zs = tuple(f"z{i}" for i in range(n + 1))
    planes = draw(st.lists(st.integers(0, n), min_size=1, max_size=n + 1, unique=True))
    if d == 0:  # V(z_k) = V_k: a constant field is tangent to z_k where V_k = 0
        comps = [MultiPoly.const(zs, 0 if j in planes else draw(COEFFS)) for j in range(n + 1)]
    else:
        comps = [zvar(z, zs) * draw(homogeneous(zs, d - 1)) for z in zs]
    if draw(st.booleans()):
        j = draw(st.integers(0, n))
        comps[j] = comps[j] + draw(homogeneous(zs, d, min_terms=1))
    assume(any(not c.is_zero for c in comps))
    divisor = MultiPoly.const(zs, 1)
    for k in planes:
        divisor = divisor * zvar(zs[k], zs)
    return make_problem(zs, comps, divisor)


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=300, deadline=None)
@given(hyperplane_problems())
def test_chart_fields_match_chart_by_chart_division(p):
    # One homogeneous division gives each chart the cofactor its own division
    # gives, in the same term order; a field that is not tangent raises the
    # same NotTangent (chart and v(f)) on both routes.
    got, want = cofactors_by_route(p)
    assert got == want


def test_chart_fields_report_the_first_chart_that_is_not_tangent():
    # f = x1 divides v(f) = -x1^2 in chart 0; in chart 1 f = x0 and v(f) = 1.
    comps = [zvar("z0") + zvar("z1"), zvar("z1"), 2 * zvar("z2")]
    p = make_problem(Z, comps, zvar("z0") * zvar("z1"))
    assert chart_cofactor(dehomogenize_field(p, 0)) == -zvar("z1", ("z1", "z2"))
    with pytest.raises(NotTangent) as exc:
        chart_fields(p)
    assert exc.value.chart == 1 and exc.value.applied == MultiPoly.const(("z0", "z2"), 1)


def test_chart_field_rejects_a_chart_out_of_range():
    p = diag_problem((-3, 2, 1), 2)
    assert chart_field(p, 2) == chart_fields(p)[2]
    for chart in (-1, 3):
        with pytest.raises(ValueError):
            chart_field(p, chart)


def test_nonlinear_tangent_divisor():
    # v = (x^2, xy, xz) is radial-proportional; any divisor is invariant.
    comps = [zvar("z0") * zvar(v) for v in Z]
    p = make_problem(Z, comps, zvar("z0") + zvar("z1"))
    ks = [cf.k for cf in chart_fields(p)]
    assert len(ks) == 3 and all(k is not None for k in ks)


def test_chern_expectations_values():
    # c1(N_F) = 3 and c1(N^log) = 2 on P^2 with d = m = 1.
    assert chern_totals(2, 1, 1, 0) == (9, 4, 5)
    assert chern_totals(2, 1, 1, 1) == (3, 2, 1)
    for i in (-1, 2):
        with pytest.raises(ValueError):
            chern_totals(2, 1, 1, i)


def test_chern_expectations_p3():
    assert [chern_totals(3, 1, 1, i)[2] for i in range(3)] == [37, 7, 1]


@pytest.mark.parametrize("seed", range(5))
def test_chart_field_consistency_random_diag(seed):
    rng = random.Random(seed)
    eigs = rng.sample(range(-9, 10), 3)
    p = diag_problem(eigs, 2)
    assert (p.n, p.d, p.m) == (2, 1, 1)
    for cf in chart_fields(p):
        assert cf.k is not None
        assert len(cf.a) == 2
