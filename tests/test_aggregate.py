import itertools
import math
import random
import re
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resilog import aggregate, foliation, parse, residue
from resilog.aggregate import (
    NUMERIC_TOL,
    IncompletePointSet,
    enumerate_singularities,
    homogeneous_representative,
    poincare_check,
    surface_report,
    verify_identities,
)
from resilog.algebra import DomainError, MultiPoly, RatMatrix, SingularMatrix, det_exact, solve_linear
from resilog.birational import DiscrepancyProblem, cyclic_quotient_model
from resilog.foliation import make_problem
from resilog.parse import parse_problem
from resilog.residue import PositiveDimensional, SingularPoint, classify_point
from test_residue import sparse_homogeneous_fields

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

Z3 = ("z0", "z1", "z2")
Z4 = ("z0", "z1", "z2", "z3")


def diag_problem(eigs, variables, divisor_index=None):
    if divisor_index is None:
        divisor_index = len(variables) - 1
    comps = [
        Fraction(e) * MultiPoly.variable(variables, v)
        for e, v in zip(eigs, variables)
    ]
    return make_problem(
        variables, comps, MultiPoly.variable(variables, variables[divisor_index])
    )


P2 = diag_problem((-3, 2, 1), Z3)
P3 = diag_problem((-4, 3, 2, -1), Z4)


@pytest.mark.parametrize("chart", [3, -1, 7])
def test_given_point_chart_out_of_range_raises(chart):
    with pytest.raises(ValueError, match=f"point chart {chart} is out of range 0..2"):
        verify_identities(P2, [SingularPoint(chart, (Fraction(0), Fraction(0)))])


@pytest.mark.parametrize("mode, message", [
    ("user", "mode 'user' needs user_points"),
    ("bogus", "unknown discovery mode 'bogus'"),
])
def test_enumerate_rejects_a_mode_it_cannot_run(mode, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enumerate_singularities(P2, mode)


def test_homogeneous_representative():
    p = SingularPoint(1, (Fraction(0), Fraction(2)))
    assert homogeneous_representative(p) == (Fraction(0), Fraction(1), Fraction(2))
    q = SingularPoint(2, (Fraction(0), Fraction(0)))
    assert homogeneous_representative(q) == (0, 0, 1)


def test_homogeneous_representative_unit_follows_the_coordinates():
    # A perturbed zero is inexact but keeps its exact given coordinates.
    perturbed = SingularPoint(0, (Fraction(0), Fraction(0)), exact=False)
    hom = homogeneous_representative(perturbed)
    assert hom == (1, 0, 0) and all(type(v) is Fraction for v in hom)
    numeric = SingularPoint(0, (0.0, 0.5), exact=False)
    assert [type(v) for v in homogeneous_representative(numeric)] == [float] * 3


def test_homogeneous_representative_of_int_coordinates_stays_exact():
    hom = homogeneous_representative(SingularPoint(1, (2, 0)))
    assert hom == (1, Fraction(1, 2), 0) and all(type(v) is Fraction for v in hom)


@pytest.mark.parametrize("kind", [int, Fraction])
def test_int_coordinates_keep_the_certification_level(kind):
    problem = parse_problem("space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                            "field.components = [3*z0 - 2*z1, z0, 5*z2]\n"
                            "divisor = z2\n").problem
    zeros = [(1, (1, 0)), (1, (2, 0)), (2, (0, 0))]
    report = verify_identities(problem, [SingularPoint(c, tuple(map(kind, x))) for c, x in zeros])
    assert report.level == "proved-on-instance" and report.all_ok


def test_enumerate_exact_p2():
    pts = enumerate_singularities(P2)
    assert len(pts) == 3
    homs = {homogeneous_representative(p) for p in pts}
    assert homs == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    on_d = [p for p in pts if p.on_divisor]
    assert len(on_d) == 2
    assert all(p.simple for p in pts)


def test_enumerate_dedupes_across_charts():
    # [1:1:0] lies in charts 0 and 1 and must be reported once.
    comps = [
        MultiPoly.variable(Z3, "z0") ** 2,
        MultiPoly.variable(Z3, "z1") ** 2,
        2 * MultiPoly.variable(Z3, "z0") * MultiPoly.variable(Z3, "z2"),
    ]
    problem = make_problem(Z3, comps, MultiPoly.variable(Z3, "z2"))
    user = [
        SingularPoint(0, (Fraction(1), Fraction(0))),
        SingularPoint(1, (Fraction(1), Fraction(0))),
    ]
    pts = enumerate_singularities(problem, "user", user_points=user)
    assert len(pts) == 1
    assert pts[0].chart == 0  # attributed to the lowest-index chart


def test_enumerate_numeric_matches_exact():
    exact = enumerate_singularities(P2)
    numeric = enumerate_singularities(P2, "numeric")
    user = enumerate_singularities(
        P2, "user", user_points=[SingularPoint(p.chart, p.coords) for p in exact])
    assert len(numeric) == len(exact)
    exact_homs = sorted(
        tuple(float(c) for c in homogeneous_representative(p)) for p in exact
    )
    numeric_homs = sorted(
        tuple(round(float(c), 6) for c in homogeneous_representative(p))
        for p in numeric
    )
    assert numeric_homs == pytest.approx(exact_homs)
    # Each point lies in the chart where its representative has the entry 1.
    for p in exact + numeric + user:
        assert homogeneous_representative(p)[p.chart] == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_numeric_discovery_flags_a_slow_zero_on_the_divisor():
    # At [1:0:0] Newton converges only linearly and stops 3.9e-7 from the
    # zero, outside the 1e-9 divisor test; the exact zero lies on the divisor.
    z0, z1, z2 = (MultiPoly.variable(Z3, v) for v in Z3)
    problem = make_problem(Z3, [z0 * (z0 + z1), z1 * (2 * z1 - z2), z2 * (z0 + 3 * z2)], z2)
    exact, _ = classify_point(foliation.chart_field(problem, 0), (Fraction(0), Fraction(0)))
    assert exact.on_divisor
    [near] = [p for p in enumerate_singularities(problem, "numeric")
              if p.chart == 0 and max(map(abs, p.coords)) < 1e-3]
    assert near.on_divisor


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_numeric_discovery_lists_the_jordan_double_zero_once():
    # Newton stops short of the double zero [1:0:0] from several starts, and
    # two of its stops lie more than the dedupe radius apart.
    problem = parse_problem((FIXTURES / "p2_jordan.fol").read_text()).problem
    points = enumerate_singularities(problem, "numeric")
    near = [p for p in points
            if max(abs(a - b) for a, b in zip(homogeneous_representative(p), (1, 0, 0))) < 1e-4]
    assert len(near) == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_given_point_on_a_line_of_zeros_raises_positive_dimensional():
    # On z1 = 0 the field is -3*(z0, 0, z2), a multiple of the Euler field:
    # a line of zeros, through the given [0:0:1].
    z0, z1, z2 = (MultiPoly.variable(Z3, v) for v in Z3)
    problem = make_problem(Z3, [-3 * z0 + 2 * z1, -4 * z1, -3 * z2], z2)
    with pytest.raises(PositiveDimensional):
        verify_identities(problem, points=[SingularPoint(2, (Fraction(0), Fraction(0)))])


def test_verify_identities_p2_exact():
    report = verify_identities(P2)
    assert report.level == "proved-on-instance"
    assert report.complete and report.all_ok
    c0, c1 = report.checks[0], report.checks[1]
    assert (c0.ordinary_total, c0.log_total, c0.var_total) == (9, 4, 5)
    assert (c1.ordinary_total, c1.log_total, c1.var_total) == (3, 2, 1)
    assert all(isinstance(c.var_total, Fraction) for c in (c0, c1))


def test_verify_identities_p3_exact():
    report = verify_identities(P3)
    assert report.level == "proved-on-instance" and report.all_ok
    assert [report.checks[i].var_total for i in range(3)] == [37, 7, 1]


def test_partial_point_set_warns_and_downgrades():
    pts = [SingularPoint(0, (Fraction(0), Fraction(0)))]
    with pytest.warns(IncompletePointSet):
        report = verify_identities(P2, points=pts)
    assert report.level == "partial"
    assert not report.all_ok  # one point cannot reach the global totals


def test_partial_point_set_of_linear_charts_is_detected():
    # Every chart of P2 is affine-linear, so its three zeros are known exactly.
    pts = [SingularPoint(0, (Fraction(0), Fraction(0)))]
    with pytest.warns(IncompletePointSet):
        report = verify_identities(P2, points=pts)
    assert not report.complete and report.level == "partial"
    assert verify_identities(P2, points=enumerate_singularities(P2)).level == "proved-on-instance"


def test_partial_point_set_of_a_non_diagonal_linear_field_is_detected():
    # The matrix [[1, 1, 0], [0, 2, 0], [0, 0, 3]] has the eigenvectors
    # [1:0:0], [1:1:0] and [0:0:1]; [1:1:0] is not given.
    z0, z1, z2 = (MultiPoly.variable(Z3, v) for v in Z3)
    problem = make_problem(Z3, [z0 + z1, 2 * z1, 3 * z2], z2)
    pts = [SingularPoint(c, (Fraction(0), Fraction(0))) for c in (0, 2)]
    with pytest.warns(IncompletePointSet):
        report = verify_identities(problem, points=pts)
    assert not report.complete and report.level == "partial"


def test_bezout_count_is_the_top_chern_number():
    # zero_set's count: sum_{k<=n} d^k is the h^n coefficient of
    # c(TP^n(d-1)) = (1 + d*h)^(n+1) / (1 + (d-1)*h), from the Euler sequence.
    for n, d in itertools.product(range(1, 8), range(6)):
        top = sum(math.comb(n + 1, j) * d**j * (1 - d) ** (n - j) for j in range(n + 1))
        assert top == sum(d**k for k in range(n + 1))


def lotka_volterra(L):
    """The field z_j*L_j(z) with divisor z0 and its zeros, or None unless it is
    generic: on each support S one zero, where z_j = 0 off S and the L_j with
    j in S agree, taken with z_S[0] = 1 and no other entry on S zero."""
    zs = tuple(f"z{j}" for j in range(len(L)))
    z = [MultiPoly.variable(zs, v) for v in zs]
    comps = [z_j * sum((Fraction(c) * z_k for c, z_k in zip(row, z)), MultiPoly.zero(zs))
             for z_j, row in zip(z, L)]
    zeros = []
    for size in range(1, len(L) + 1):
        for c, *rest in itertools.combinations(range(len(L)), size):
            rows = [[L[j][t] - L[c][t] for t in rest] for j in rest]
            try:
                x = solve_linear(RatMatrix(rows), [L[c][c] - L[j][c] for j in rest]) if rest else []
            except SingularMatrix:
                return None
            if 0 in x:
                return None
            at = dict(zip(rest, x))
            zeros.append(SingularPoint(c, tuple(at.get(t, Fraction(0))
                                                for t in range(len(L)) if t != c)))
    return make_problem(zs, comps, z[0]), zeros


def random_lotka_volterra(seed: int, n: int):
    """The first generic ``lotka_volterra`` field on P^n with entries in -5..5."""
    rng = random.Random(seed)
    while True:
        case = lotka_volterra([[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(n + 1)])
        if case is not None:
            return case


def assert_every_drop_is_partial(problem, zeros):
    """The full set is complete and proved; each set missing one zero is partial."""
    report = verify_identities(problem, zeros)
    assert report.complete and report.level == "proved-on-instance" and report.all_ok
    for k in range(len(zeros)):
        with pytest.warns(IncompletePointSet):
            report = verify_identities(problem, zeros[:k] + zeros[k + 1:])
        assert not report.complete and report.level == "partial", zeros[k]


@pytest.mark.parametrize("seed, n", [(seed, 2) for seed in range(6)] + [(6, 3), (7, 3)])
def test_lotka_volterra_sets_missing_one_zero_are_partial(seed, n):
    # A degree-2 field: 1 + 2 + ... + 2^n zeros, each simple and exact, so the
    # sets of one fewer fall short of the count.
    problem, zeros = random_lotka_volterra(seed, n)
    assert len(set(map(homogeneous_representative, zeros))) == 2 ** (n + 1) - 1
    assert_every_drop_is_partial(problem, zeros)


def test_a_partial_set_that_passes_every_identity_is_partial():
    # [1:0:0] lies off D with trJ = 0, so its one residue is 0: without it every
    # total still matches, and only the count sees the missing zero.
    problem, zeros = lotka_volterra([[3, 5, -3], [4, 3, -5], [2, 0, 1]])
    rest = [p for p in zeros if homogeneous_representative(p) != (1, 0, 0)]
    assert len(rest) == 6
    with pytest.warns(IncompletePointSet):
        report = verify_identities(problem, rest)
    assert report.all_ok and report.level == "partial"


def unimodular(rng: random.Random, size: int) -> list[list[int]]:
    while True:
        g = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
        if abs(det_exact(RatMatrix(g))) == 1:
            return g


@pytest.mark.parametrize("seed", range(6))
def test_conjugated_diagonal_sets_missing_one_zero_are_partial(seed):
    # A = g*diag(lam)*g^-1: the zeros are the columns of g, and a row r of g^-1
    # has r*A = lam_c*r, so the hyperplane r.z = 0 is invariant.
    rng = random.Random(seed)
    n = 2 + seed % 2
    g = unimodular(rng, n + 1)
    columns = [solve_linear(RatMatrix(g), [int(j == k) for j in range(n + 1)]) for k in range(n + 1)]
    g_inv = [[columns[k][j] for k in range(n + 1)] for j in range(n + 1)]
    lam = rng.sample(range(-9, 10), n + 1)
    A = [[sum(g[j][t] * lam[t] * g_inv[t][k] for t in range(n + 1)) for k in range(n + 1)]
         for j in range(n + 1)]
    zs = tuple(f"z{j}" for j in range(n + 1))
    z = [MultiPoly.variable(zs, v) for v in zs]

    def linear(row):
        return sum((Fraction(a) * z_k for a, z_k in zip(row, z)), MultiPoly.zero(zs))

    problem = make_problem(zs, [linear(row) for row in A], linear(g_inv[rng.randrange(n + 1)]))
    zeros = []
    for k in range(n + 1):
        h = [Fraction(g[j][k]) for j in range(n + 1)]
        c = next(j for j, v in enumerate(h) if v)
        zeros.append(SingularPoint(c, tuple(v / h[c] for j, v in enumerate(h) if j != c)))
    assert_every_drop_is_partial(problem, zeros)


def test_rotation_field_given_its_one_real_zero_is_partial():
    # The zeros [1:i:0] and [1:-i:0] are complex; [0:0:1] alone is 1 of 3.
    z0, z1, z2 = (MultiPoly.variable(Z3, v) for v in Z3)
    problem = make_problem(Z3, [-z1, z0, 2 * z2], z2)
    with pytest.warns(IncompletePointSet):
        report = verify_identities(problem, [SingularPoint(2, (Fraction(0), Fraction(0)))])
    assert report.level == "partial"


def test_the_empty_point_set_is_partial_and_asserts_no_bound():
    # Zero simple zeros fall short of any count: no bound is asserted over them.
    problem = parse_problem((FIXTURES / "p2_jordan.fol").read_text()).problem
    with pytest.warns(IncompletePointSet):
        report = verify_identities(problem, [])
        verdict = poincare_check(problem, [])
        surface = surface_report(problem, [])
    assert report.level == "partial" and report.checks[0].records == []
    assert verdict.nonnegative is None and not verdict.bound_holds
    assert surface.all_gsv_nonnegative and not surface.carnicer_bound_holds


def test_a_degenerate_zero_keeps_a_short_set_complete():
    # p2_jordan's two points fall short of 3, but its Jordan zero has det J = 0,
    # so it may count twice: nothing shows the set partial.
    doc = parse_problem((FIXTURES / "p2_jordan.fol").read_text())
    zeros = aggregate.zero_set(doc.problem, list(doc.points))
    assert len(zeros.pairs) == 2 and zeros.complete
    assert {homogeneous_representative(p): ld.detJ == 0 for p, ld in zeros.pairs} == {
        (1, 0, 0): True, (0, 0, 1): False}


def test_zero_set_is_the_one_owner_of_the_zero_set(monkeypatch):
    assert aggregate.ZeroSet._fields == ("pairs", "fields", "complete")
    calls, zero_set = Counter(), aggregate.zero_set

    def counted_zero_set(*args, **kwargs):
        calls["zero_set"] += 1
        return zero_set(*args, **kwargs)

    monkeypatch.setattr(aggregate, "zero_set", counted_zero_set)
    jordan = parse_problem((FIXTURES / "p2_jordan.fol").read_text())
    for run in (lambda: verify_identities(P2),
                lambda: verify_identities(jordan.problem, list(jordan.points)),
                lambda: enumerate_singularities(P2), lambda: enumerate_singularities(P2, "numeric"),
                lambda: enumerate_singularities(P3, "user", user_points=[])):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IncompletePointSet)
            run()
        assert calls == {"zero_set": 1}


def test_numeric_zeros_are_never_complete():
    zeros = aggregate.zero_set(P2, numeric=True)
    assert len(zeros.pairs) == 3 and not zeros.complete
    assert all(ld is None for _, ld in zeros.pairs) and zeros.fields is not None


def test_user_mode_raises_on_a_line_of_zeros_like_verify():
    # Chart 0 of [z0, z0 + 2*z1, z2] shows the line [a:-a:b] of zeros.
    z0, z1, z2 = (MultiPoly.variable(Z3, v) for v in Z3)
    problem = make_problem(Z3, [z0, z0 + 2 * z1, z2], z2)
    with pytest.raises(PositiveDimensional, match="^zero set has dimension 1$"):
        enumerate_singularities(problem, "user",
                                user_points=[SingularPoint(2, (Fraction(0), Fraction(0)))])


def test_an_unknown_mode_fails_before_the_tangency_check():
    problem = parse_problem((FIXTURES / "not_tangent.fol").read_text()).problem
    with pytest.raises(foliation.NotTangent):
        enumerate_singularities(problem)
    with pytest.raises(ValueError, match="^unknown discovery mode 'bogus'$"):
        enumerate_singularities(problem, "bogus")


def test_given_points_on_a_line_of_zeros_raise_like_discovery():
    # diag(1, 1, 2): the line z2 = 0 is a line of zeros.
    problem = diag_problem((1, 1, 2), Z3)
    with pytest.raises(PositiveDimensional):
        verify_identities(problem)
    with pytest.raises(PositiveDimensional):
        verify_identities(problem, points=[SingularPoint(2, (Fraction(0), Fraction(0)))])
    # Not diagonal, but chart 0 is: the eigenvalue 1 of [[1, 0, 0], [1, 2, 0],
    # [0, 0, 1]] has the line of eigenvectors [a:-a:b].
    z0, z1, z2 = (MultiPoly.variable(Z3, v) for v in Z3)
    problem = make_problem(Z3, [z0, z0 + 2 * z1, z2], z2)
    with pytest.raises(PositiveDimensional, match="^zero set has dimension 1$"):
        verify_identities(problem)
    with pytest.raises(PositiveDimensional, match="^zero set has dimension 1$"):
        verify_identities(problem, points=[SingularPoint(2, (Fraction(0), Fraction(0)))])


@st.composite
def permuted_linear_fields(draw):
    """A linear field z -> A*z on P^2..P^3, entries of A in -2..2, whose row h
    is diagonal so that the divisor z_h is invariant, and the same field and
    divisor after the permutation sigma of the variables: z_j becomes
    z_sigma(j), and the component V_i that of z_sigma(i)."""
    n = draw(st.integers(2, 3))
    zs = tuple(f"z{j}" for j in range(n + 1))
    z = [MultiPoly.variable(zs, v) for v in zs]
    h = draw(st.integers(0, n))
    rows = [[draw(st.integers(-2, 2)) if i == j or i != h else 0 for j in range(n + 1)]
            for i in range(n + 1)]
    assume(any(map(any, rows)))
    sigma = draw(st.permutations(range(n + 1)))
    comps, moved = [], [None] * (n + 1)
    for i, row in enumerate(rows):
        comps.append(sum((a * z[j] for j, a in enumerate(row)), MultiPoly.zero(zs)))
        moved[sigma[i]] = sum((a * z[sigma[j]] for j, a in enumerate(row)), MultiPoly.zero(zs))
    return make_problem(zs, comps, z[h]), make_problem(zs, moved, z[sigma[h]])


def discovery_outcome(problem):
    """The type ``zero_set`` raises, or its number of zeros and the
    ``verify_identities`` totals of every level."""
    try:
        zeros = aggregate.zero_set(problem)
    except DomainError as exc:
        return type(exc)
    checks = verify_identities(problem).checks.values()
    return len(zeros.pairs), [(c.ordinary_total, c.log_total, c.var_total) for c in checks]


@settings(max_examples=300, deadline=None)
@given(permuted_linear_fields())
def test_exact_discovery_does_not_depend_on_the_order_of_the_variables(pair):
    # A permutation of the variables permutes the charts; the refusing
    # component and the dimension can move with it, the outcome cannot.
    problem, moved = pair
    assert discovery_outcome(problem) == discovery_outcome(moved)


def test_float_coordinates_give_a_numeric_level():
    report = verify_identities(P2, [SingularPoint(c, (0.0, 0.0)) for c in range(3)])
    assert report.level == "numeric" and report.complete and report.all_ok
    assert all(not r.point.exact for c in report.checks.values() for r in c.records)
    assert report.checks[0].ordinary_total == pytest.approx(9)


def test_unflagged_point_on_divisor_enters_i1():
    # (1:0:0) lies on the divisor z2 = 0; the caller did not say so.
    pts = [SingularPoint(0, (Fraction(0), Fraction(0)))]
    with pytest.warns(IncompletePointSet):
        report = verify_identities(P2, points=pts)
    [record] = report.checks[1].records
    assert record.point.on_divisor


def test_unflagged_points_verify_like_classified_ones():
    problem = parse_problem((FIXTURES / "p2_example.fol").read_text()).problem
    found = enumerate_singularities(problem)
    bare = [SingularPoint(p.chart, p.coords) for p in found]
    classified, unflagged = verify_identities(problem, found), verify_identities(problem, bare)
    assert len(unflagged.checks[1].records) == 2 and unflagged.all_ok
    for i in (0, 1):
        assert ([(r.point.coords, r.point.on_divisor, r.point.simple, r.ordinary, r.log, r.var)
                 for r in unflagged.checks[i].records]
                == [(r.point.coords, r.point.on_divisor, r.point.simple, r.ordinary, r.log, r.var)
                    for r in classified.checks[i].records])


@pytest.mark.parametrize("seed", range(10))
def test_identity_random_diagonal(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    variables = Z3 if n == 2 else Z4
    eigs = rng.sample(range(-20, 21), n + 1)
    problem = diag_problem(eigs, variables, divisor_index=rng.randrange(n + 1))
    report = verify_identities(problem)
    assert report.level == "proved-on-instance"
    assert report.all_ok


@st.composite
def exact_total_cases(draw):
    """(problem, given points or None, i_list or None).  Mostly a diagonal field
    on P^2..P^7 with eigenvalues (t + l_j)/q, the l_j distinct, and a divisor
    of one weight w = sum(e_j*l_j), so invariant: a coordinate hyperplane; a
    quadric sum z_a*z_b over pairs with l_a + l_b = w, and z_c^2 with 2*l_c = w
    for an odd one out, smooth at every coordinate point; or, on P^2..P^4,
    some monomials of degree 2-3 of one weight.  Its zeros are discovered, or
    some of those where D is smooth are given exactly.  Else the field
    [z0^2, a*z0*z1 + z2^2, z2*(b*z1 + z0)] with its zero [1:0:0] given, simple
    on D = {z2 = 0} with k(p) = 0, where ordinary and log are None."""
    if draw(st.integers(0, 5)) == 0:
        a = draw(st.integers(-5, 5).filter(lambda v: v != 1))
        b = draw(st.integers(-4, 4))
        text = (f"space.dim = 2\nfield.vars = [z0, z1, z2]\nfield.components = "
                f"[z0^2, {a}*z0*z1 + z2^2, z2*({b}*z1 + z0)]\ndivisor = z2\n")
        return parse_problem(text).problem, [SingularPoint(0, (Fraction(0),) * 2)], None
    n = draw(st.integers(2, 7))
    zs = tuple(f"z{j}" for j in range(n + 1))
    units = [tuple(int(k == j) for k in range(n + 1)) for j in range(n + 1)]
    coeff = st.integers(-3, 3).filter(bool).map(Fraction) | st.just(Fraction(1, 2))
    kind = draw(st.sampled_from(["hyperplane", "quadric"] + ["weight"] * (n <= 4)))
    if kind == "quadric":
        m, w = 2, 2 * draw(st.integers(-3, 3))
        order = draw(st.permutations(range(n + 1)))
        ls = [0] * (n + 1)
        for a, b in zip(order[0::2], order[1::2]):
            ls[a] = draw(st.integers(-9, 9))
            ls[b] = w - ls[a]
        if n % 2 == 0:
            ls[order[-1]] = w // 2
        assume(len(set(ls)) == n + 1)
        monomials = [tuple(map(int.__add__, units[a], units[b]))
                     for a, b in zip(order[0::2], order[1::2])]
        square = tuple(2 * x for x in units[order[-1]])
        terms = {e: draw(coeff) for e in monomials + [square] * (n % 2 == 0)}
    else:
        m = 1 if kind == "hyperplane" else draw(st.integers(2, 3))
        ls = draw(st.lists(st.integers(-n, n), min_size=n + 1, max_size=n + 1, unique=True))
        monomials = [e for e in itertools.product(range(m + 1), repeat=n + 1) if sum(e) == m]
        seed = draw(st.sampled_from(monomials))
        weight = sum(e * v for e, v in zip(seed, ls))
        same = [e for e in monomials if e != seed and sum(a * v for a, v in zip(e, ls)) == weight]
        terms = {e: draw(coeff) for e in [seed] + draw(st.lists(st.sampled_from(same), max_size=8)
                                                       if same else st.just([]))}
    t, q = draw(st.fractions(-3, 3, max_denominator=4)), draw(st.integers(1, 5))
    comps = tuple(MultiPoly(zs, {u: (t + v) / q}) for u, v in zip(units, ls))
    problem = foliation.FoliationProblem(n, zs, comps, MultiPoly(zs, terms), 1, m)
    smooth = [c for c in range(n + 1) if any(e[c] >= m - 1 for e in terms)]
    given = st.lists(st.sampled_from(smooth), min_size=1, unique=True) if smooth else st.none()
    cs = draw(st.none() | given)
    points = cs and [SingularPoint(c, (Fraction(0),) * n) for c in cs]
    i_list = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return problem, points, i_list


@settings(max_examples=300, deadline=None)
@given(exact_total_cases())
def test_exact_totals_are_the_sums_of_their_records(case):
    # Exact totals come from the closed forms' integers over one common
    # denominator, the records from the same integers reduced.
    problem, points, i_list = case
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", aggregate.IncompletePointSet)
            report = verify_identities(problem, points, i_list)
    except (residue.DivisorSingularAt, PositiveDimensional):
        assume(False)
    for check in report.checks.values():
        for kind in aggregate.KINDS:
            values = [getattr(r, kind) for r in check.records]
            total = getattr(check, f"{kind}_total")
            assert all(v is None or type(v) is Fraction for v in values)
            if None in values:
                assert total is None
            else:
                assert type(total) is Fraction and total == sum(values, Fraction(0))


def test_the_jordan_fixture_keeps_float_totals():
    # The perturbation engine's floats at [1:0:0] make every total of its
    # level a float, the exact closed form at [0:0:1] included.
    doc = parse_problem((FIXTURES / "p2_jordan.fol").read_text())
    report = verify_identities(doc.problem, list(doc.points))
    assert report.level == "numeric"
    for check in report.checks.values():
        assert [type(getattr(check, f"{kind}_total")) for kind in aggregate.KINDS] == [float] * 3


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9), st.floats(-9, 9))))
def test_total_of_none_or_float_values(values):
    assert aggregate._total(values + [None]) is None
    floats = values + [0.5]
    assert aggregate._total(floats) == sum(map(float, floats))
    assert type(aggregate._total(floats)) is float


@pytest.mark.parametrize("total, expected, ok", [
    (Fraction(9), 9, True),
    (Fraction(17, 2), 9, False),
    (9 + 0.99 * NUMERIC_TOL * 9, 9, True),  # the bound scales with |expected| above 1
    (9 - 1.01 * NUMERIC_TOL * 9, 9, False),
    (-0.99 * NUMERIC_TOL, 0, True),  # and is NUMERIC_TOL below
    (1.01 * NUMERIC_TOL, 0, False),
    (None, 9, False),
])
@pytest.mark.parametrize("kind", aggregate.KINDS)
def test_identity_check_ok_per_kind(kind, total, expected, ok):
    # The other two kinds match exactly, so all_ok follows the one kind.
    values = {k: (Fraction(3), 3) for k in aggregate.KINDS} | {kind: (total, expected)}
    check = aggregate.IdentityCheck(0, [], *(values[k][0] for k in aggregate.KINDS),
                                    *(values[k][1] for k in aggregate.KINDS))
    assert check.ok(kind) is ok and check.all_ok is ok
    assert all(check.ok(k) for k in aggregate.KINDS if k != kind)


def test_poincare_p3():
    verdict = poincare_check(P3)
    assert verdict.i_used == 0  # n odd
    assert verdict.total_log_residue == 27
    assert verdict.nonnegative and verdict.bound_holds
    assert not verdict.equality


def test_poincare_p2_uses_i1():
    verdict = poincare_check(P2)
    assert verdict.i_used == 1  # n even, so drop to i = 1
    assert verdict.total_log_residue == 2
    assert verdict.bound_holds and verdict.all_local_nonnegative


def test_surface_report_p2():
    report = surface_report(P2)
    gsv = sorted(r.gsv for r in report.rows)
    cs = sorted(r.cs for r in report.rows)
    assert gsv == [1, 1]
    assert cs == [Fraction(1, 5), Fraction(4, 5)]
    assert report.gsv_total == report.expected_gsv_total == 2
    assert report.cs_total == report.expected_cs_total == 1
    assert report.carnicer_bound_holds and not report.equality_flag


def test_records_are_immutable_and_the_frozen_ones_hashable():
    text = (FIXTURES / "p2_example.fol").read_text()
    doc = parse_problem(text)
    cf = foliation.chart_field(P2, 0)
    record = verify_identities(P2).checks[1].records[0]
    cyclic = cyclic_quotient_model(5)
    surface = surface_report(P2)
    hashable = [residue.NumericConfig(), record.point, residue.local_data(cf, record.point),
                record, P2, cf, DiscrepancyProblem(cyclic.M, (Fraction(2),)), cyclic]
    others = [doc, poincare_check(P2), surface.rows[0], surface]
    for value in hashable + others:
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
    for value in hashable:
        assert hash(value) == hash(value._replace())


def test_surface_report_rejects_higher_dimension():
    with pytest.raises(ValueError):
        surface_report(P3)


@pytest.mark.parametrize("seed", range(20))
def test_surface_totals_random_instances(seed):
    rng = random.Random(1000 + seed)
    eigs = rng.sample(range(-15, 16), 3)
    problem = diag_problem(eigs, Z3, divisor_index=rng.randrange(3))
    report = surface_report(problem)
    assert report.gsv_total == report.expected_gsv_total
    assert report.cs_total == report.expected_cs_total


def counted(fn, counter: Counter, key):
    """``fn``, counting its calls in ``counter`` under ``key(*args)``."""
    def wrapper(*args):
        counter[key(*args)] += 1
        return fn(*args)
    return wrapper


def count_chart_work(monkeypatch, modules=()) -> tuple[Counter, Counter, Counter, Counter]:
    """Counters of the ``chart_fields`` calls (by the problem's variables), the
    ``exact_divide`` calls of the tangency check (by the divisor's variables),
    the ``local_data`` calls (by chart and point) and the charts built by
    ``dehomogenize_field`` (by chart), with the counting wrappers also set on
    ``modules`` wherever they hold one of those names."""
    fields, divisions, data, charts = Counter(), Counter(), Counter(), Counter()
    wrappers = {
        "chart_fields": counted(foliation.chart_fields, fields, lambda p, *_: p.variables),
        "exact_divide": counted(foliation.exact_divide, divisions, lambda _, f: f.variables),
        "local_data": counted(residue.local_data, data, lambda cf, p: (cf.chart, p.coords)),
        "dehomogenize_field": counted(foliation.dehomogenize_field, charts,
                                      lambda _, chart, *__: chart),
    }
    for module in (foliation, aggregate, residue, *modules):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return fields, divisions, data, charts


def test_verify_builds_no_chart_on_the_exact_path(monkeypatch):
    # No division; tangency, the zeros of a diagonal field and their local
    # data are read off the homogeneous term dicts.
    problem = parse_problem((FIXTURES / "p3_example.fol").read_text()).problem
    fields, divisions, data, charts = count_chart_work(monkeypatch)
    report = verify_identities(problem)
    assert report.all_ok and len(report.checks[0].records) == 4
    assert divisions == fields == data == charts == {}


def test_verify_evaluates_no_polynomial_on_the_exact_path(monkeypatch):
    # F and grad F at each coordinate point are coefficients of F: nothing is
    # evaluated or differentiated.
    problem = parse_problem((FIXTURES / "p3_example.fol").read_text()).problem
    calls = Counter()
    for name in ("eval", "partial"):
        monkeypatch.setattr(MultiPoly, name, counted(getattr(MultiPoly, name), calls,
                                                     lambda p, _, name=name: name))
    assert verify_identities(problem).all_ok
    assert calls == {}


CORNER = diag_problem((1, 2, 3), Z3)._replace(divisor=parse.parse_poly("z1*z2", Z3), m=2)


def test_verify_builds_no_chart_at_a_singular_point_of_the_divisor(monkeypatch):
    # z1*z2 is singular at [1:0:0]: diagonal_zeros found that, and verify
    # raises from it, with nothing divided, no chart built and no local_data
    # call.
    fields, divisions, data, charts = count_chart_work(monkeypatch)
    with pytest.raises(residue.DivisorSingularAt, match=r"^divisor is singular at \(0, 0\);"):
        verify_identities(CORNER)
    assert divisions == fields == charts == data == {}


def test_verify_raises_at_a_given_singular_point_of_the_divisor(monkeypatch):
    # Given, the corner is classified once, by the local_data call that finds
    # D singular there; verify raises the same text from that classification.
    fields, divisions, data, charts = count_chart_work(monkeypatch)
    with pytest.raises(residue.DivisorSingularAt,
                       match=r"^divisor is singular at \(0, 0\); residues there are unsupported$"):
        verify_identities(CORNER, [SingularPoint(0, (Fraction(0), Fraction(0)))])
    assert data == {(0, (0, 0)): 1}


def test_verify_given_points_takes_local_data_once_per_point(monkeypatch):
    problem = parse_problem((FIXTURES / "p3_example.fol").read_text()).problem
    points = [SingularPoint(c, (Fraction(0),) * 3) for c in range(4)]
    fields, divisions, data, charts = count_chart_work(monkeypatch)
    report = verify_identities(problem, points)
    assert report.all_ok and report.level == "proved-on-instance"
    assert fields == divisions == {problem.variables: 1}
    assert charts == {c: 1 for c in range(4)}
    assert data == {(c, p.coords): 1 for c, p in enumerate(points)}


def test_verify_given_points_of_a_non_diagonal_field_builds_each_chart_once(monkeypatch):
    # The Jordan field is neither diagonal nor constant: the coverage check
    # reads the chart fields built for the given points, and builds none.
    doc = parse_problem((FIXTURES / "p2_jordan.fol").read_text())
    fields, divisions, data, charts = count_chart_work(monkeypatch)
    report = verify_identities(doc.problem, doc.points)
    assert report.complete and report.level == "numeric"
    assert charts == {0: 1, 1: 1, 2: 1}


def test_diagonal_zeros_build_no_chart_when_given_the_chart_fields(monkeypatch):
    # The chart walk reads the given chart fields, where it refuses (the
    # Jordan field) and where it finds a constant field's zero.
    jordan = parse_problem((FIXTURES / "p2_jordan.fol").read_text()).problem
    with pytest.raises(residue.NonLinearField) as want:
        residue.diagonal_zeros(jordan)
    constant = make_problem(Z3, [MultiPoly.const(Z3, c) for c in (1, 2, 0)],
                            MultiPoly.variable(Z3, "z2"))
    [(point, ld)] = residue.diagonal_zeros(constant)
    assert (point.chart, point.coords, point.on_divisor) == (0, (2, 0), True)
    fields, fields0 = foliation.chart_fields(jordan), foliation.chart_fields(constant)
    *_, charts = count_chart_work(monkeypatch)
    with pytest.raises(residue.NonLinearField) as got:
        residue.diagonal_zeros(jordan, fields)
    assert str(got.value) == str(want.value)
    assert residue.diagonal_zeros(constant, fields0) == [(point, ld)]
    assert charts == {}


@st.composite
def diagonal_problems(draw):
    """A diagonal field on P^2..P^5 with distinct rational eigenvalues, tangent
    to one coordinate hyperplane or to the product of two: the product is
    singular at the coordinate points off both planes."""
    n = draw(st.integers(2, 5))
    eigs = draw(st.lists(st.fractions(-40, 40, max_denominator=12),
                         min_size=n + 1, max_size=n + 1, unique=True))
    planes = draw(st.lists(st.integers(0, n), min_size=1, max_size=2, unique=True))
    variables = tuple(f"z{j}" for j in range(n + 1))
    z = [MultiPoly.variable(variables, v) for v in variables]
    divisor = z[planes[0]] * z[planes[-1]] if len(planes) == 2 else z[planes[0]]
    return make_problem(variables, [e * z_j for e, z_j in zip(eigs, z)], divisor), len(planes)


@settings(max_examples=80, deadline=None)
@given(diagonal_problems())
def test_linear_route_matches_classify_point(case):
    # diagonal_zeros classifies each zero off the term dicts; classify_point,
    # which takes the jets and determinants in its chart, must agree exactly.
    # Its local data are those of q*V, ints but for det J_D.
    problem, planes = case
    K = foliation.tangency_cofactor(problem)
    fields = foliation.chart_fields(problem)
    located = residue.diagonal_zeros(problem)
    assert len(located) == problem.n + 1
    assert any(p.simple is None for p, _ in located) == (planes == 2)
    for point, ld in located:
        want_point, want_ld = residue.classify_point(fields[point.chart], point.coords)
        assert point == want_point and all(type(c) is Fraction for c in point.coords)
        if want_ld is None:
            assert ld is None and point.simple is None
            continue
        want_ld = scaled_to_integers(problem, K, want_ld)
        for name, kind in zip(("trJ", "detJ", "k_at_p", "detJD"), (int, int, int, Fraction)):
            got, want = getattr(ld, name), getattr(want_ld, name)
            assert got == want, name
            assert type(got) is type(want) is kind or got is want is None, name


def scaled_to_integers(problem, K, ld):
    """The local data ``ld`` of a diagonal field V as those of q*V, q the lcm
    of the denominators of V's eigenvalues and of K's constant term: trJ*q,
    detJ*q^n and k*q as ints, and det J_D*q^(n-1) a Fraction (None off D).
    Data of a constant field, and None, are returned as they are."""
    if ld is None or problem.d == 0:
        return ld
    n, zero = problem.n, Fraction(0)
    lam = [next(iter(v.terms.values()), zero) for v in problem.components]
    q = math.lcm(*(v.denominator for v in lam), K.terms.get((0,) * (n + 1), zero).denominator)
    scaled = [ld.trJ * q, ld.detJ * q**n, ld.k_at_p * q]
    assert all(v.denominator == 1 for v in scaled)
    return residue.LocalData(*map(int, scaled), None if ld.detJD is None else ld.detJD * q ** (n - 1))


def reference_locate(fields):
    """Exact discovery by normalizing: every chart's linear zeros scaled by
    ``homogeneous_representative``, the first chart kept for each point,
    sorted by the strings of the homogeneous coordinates.  Every chart is
    read before any refusal: the first PositiveDimensional is raised, else
    the first NonLinearField."""
    seen, refusals = {}, []
    for cf in fields:
        try:
            for p, ld in residue.linear_zeros(cf):
                seen.setdefault(homogeneous_representative(p), (p, cf, ld))
        except (residue.NonLinearField, PositiveDimensional) as exc:
            refusals.append(exc)
    lines = [exc for exc in refusals if isinstance(exc, PositiveDimensional)]
    if refusals:
        raise (lines or refusals)[0]
    return [v for _, v in sorted(seen.items(), key=lambda kv: tuple(map(str, kv[0])))]


def assert_locates_like_the_reference(problem):
    """``diagonal_zeros`` gives the reference's points, flags and local data
    (scaled to q*V on a diagonal field), in its order and types, or raises its
    error, type and text."""
    try:
        K = foliation.tangency_cofactor(problem)
    except foliation.NotTangent:
        return
    try:
        want = reference_locate(foliation.chart_fields(problem))
    except DomainError as exc:
        with pytest.raises(type(exc)) as got:
            residue.diagonal_zeros(problem)
        assert str(got.value) == str(exc)
        return
    got = residue.diagonal_zeros(problem)
    want = [(p, cf, scaled_to_integers(problem, K, ld)) for p, cf, ld in want]
    assert got == [(p, ld) for p, _, ld in want]
    for (p, ld), (want_p, _, want_ld) in zip(got, want):
        assert list(map(type, p.coords)) == list(map(type, want_p.coords))
        assert list(map(type, ld or ())) == list(map(type, want_ld or ()))


@st.composite
def readable_problems(draw):
    """Fields ``diagonal_zeros`` reads, all tangent to their divisor: a
    diagonal field on P^1..P^6 (eigenvalues from a small pool; half the time
    they need not be distinct, and then often repeat) with a product of
    coordinate hyperplanes, singular at the coordinate points off two of
    them, or, on P^2 and up, with the conic z0*z1 - z2^2, invariant as
    lam0 + lam1 = 2*lam2 and singular at the coordinate points past z2; or a
    constant field with a product of the hyperplanes z_k where c_k = 0, or
    the line c_1*z0 - c_0*z1 through its zero."""
    n = draw(st.integers(1, 6))
    zs = tuple(f"z{j}" for j in range(n + 1))
    z = [MultiPoly.variable(zs, v) for v in zs]
    kind = draw(st.sampled_from(["planes", "constant"] + ["conic"] * (n >= 2)))
    planes = draw(st.lists(st.integers(0, n), min_size=1, max_size=min(3, n), unique=True))
    divisor = math.prod(z[k] for k in planes[1:]) * z[planes[0]]
    values = st.integers(-3, 3).map(Fraction) | st.fractions(-20, 20, max_denominator=6)
    if kind == "constant":
        c = [Fraction(0) if j in planes else draw(values) for j in range(n + 1)]
        if not any(c) or draw(st.booleans()):
            c = [draw(values.filter(bool)) for _ in range(n + 1)]
            divisor = c[1] * z[0] - c[0] * z[1]
        return make_problem(zs, [MultiPoly.const(zs, v) for v in c], divisor)
    lam = draw(st.lists(values, min_size=n + 1, max_size=n + 1, unique=draw(st.booleans())))
    if kind == "conic":
        lam[1] = 2 * lam[2] - lam[0]
        divisor = z[0] * z[1] - z[2] * z[2]
    assume(any(lam))
    return make_problem(zs, [v * z_j for v, z_j in zip(lam, z)], divisor)


@settings(max_examples=400, deadline=None)
@given(readable_problems())
def test_diagonal_zeros_match_linear_zeros_chart_by_chart(problem):
    assert_locates_like_the_reference(problem)


@settings(max_examples=300, deadline=None)
@given(sparse_homogeneous_fields())
def test_lead_chart_rule_locates_like_normalizing(problem):
    # A degree-0 field's zero lies in every chart where it is nonzero; only
    # its lowest chart keeps it.
    assert_locates_like_the_reference(problem)


@st.composite
def weighted_divisor_problems(draw):
    """A diagonal field on P^2..P^5 with distinct eigenvalues lam_j = (t + l_j)/q
    (l_j distinct small integers) and a divisor of degree m = 2..4 made of
    monomials of one weight sum(e_j*l_j), so it is invariant: a seed monomial,
    z_c^m, z_c^(m-1)*z_j or any other, and some of the monomials of its
    weight, with nonzero coefficients.  A seed off two coordinates whose
    weight no other monomial has leaves the coordinate points off its support
    singular on D."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    zs = tuple(f"z{j}" for j in range(n + 1))
    ls = draw(st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1, unique=True))
    t, q = draw(st.fractions(-3, 3, max_denominator=4)), draw(st.integers(1, 5))
    lam = [(t + v) / q for v in ls]
    c, j = draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True))
    monomials = [e for e in itertools.product(range(m + 1), repeat=n + 1) if sum(e) == m]
    seed = draw(st.sampled_from([tuple(m * (k == c) for k in range(n + 1)),
                                 tuple((m - 1) * (k == c) + (k == j) for k in range(n + 1)),
                                 draw(st.sampled_from(monomials))]))
    weight = sum(e * v for e, v in zip(seed, ls))
    same = [e for e in monomials if e != seed and sum(a * v for a, v in zip(e, ls)) == weight]
    coeff = st.integers(-3, 3).filter(bool).map(Fraction) | st.sampled_from([Fraction(1, 2)])
    terms = {e: draw(coeff) for e in [seed] + draw(st.lists(st.sampled_from(same), max_size=4)
                                                   if same else st.just([]))}
    comps = tuple(MultiPoly(zs, {tuple(int(k == i) for k in range(n + 1)): v})
                  for i, v in enumerate(lam))
    return foliation.FoliationProblem(n, zs, comps, MultiPoly(zs, terms), 1, m)


@settings(max_examples=300, deadline=None)
@given(weighted_divisor_problems())
def test_diagonal_zeros_read_f_and_grad_f_off_the_coefficients(problem):
    # At e_c, F is the coefficient of z_c^m and dF/dz_j that of z_c^(m-1)*z_j,
    # whatever else of degree m the divisor holds.
    assert_locates_like_the_reference(problem)


@st.composite
def diagonal_fields_with_any_divisor(draw):
    """A diagonal field on P^1..P^4 with distinct rational eigenvalues and a
    divisor of degree m = 1..3 of random monomials with nonzero coefficients:
    half the time all of one weight sum(e_j*lam_j), so invariant, else drawn
    from every monomial of degree m, so mostly of two weights or more."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    zs = tuple(f"z{j}" for j in range(n + 1))
    lam = draw(st.lists(st.integers(-4, 4).map(Fraction) | st.fractions(-4, 4, max_denominator=6),
                        min_size=n + 1, max_size=n + 1, unique=True))
    monomials = [e for e in itertools.product(range(m + 1), repeat=n + 1) if sum(e) == m]
    seed = draw(st.sampled_from(monomials))
    if draw(st.booleans()):
        weight = sum(a * v for a, v in zip(seed, lam))
        monomials = [e for e in monomials if sum(a * v for a, v in zip(e, lam)) == weight]
    coeff = st.integers(-3, 3).filter(bool).map(Fraction) | st.sampled_from([Fraction(-5, 2)])
    terms = {e: draw(coeff) for e in [seed] + draw(st.lists(st.sampled_from(monomials), max_size=4))}
    comps = tuple(MultiPoly(zs, {tuple(int(k == i) for k in range(n + 1)): v})
                  for i, v in enumerate(lam))
    return foliation.FoliationProblem(n, zs, comps, MultiPoly(zs, terms), 1, m)


@settings(max_examples=300, deadline=None)
@given(diagonal_fields_with_any_divisor())
def test_tangency_of_a_diagonal_field_is_read_off_the_weights_of_f(problem):
    # diagonal_zeros divides nothing: F is invariant exactly when its terms
    # share one weight, and that weight is q*K.  Where the division fails,
    # the same NotTangent, chart and v(f), comes out of diagonal_zeros.
    try:
        K = foliation.tangency_cofactor(problem)
    except foliation.NotTangent as exc:
        with pytest.raises(foliation.NotTangent) as got:
            residue.diagonal_zeros(problem)
        assert (str(got.value), got.value.chart) == (str(exc), exc.chart)
        assert got.value.applied == exc.applied
        return
    lam = [next(iter(v.terms.values()), 0) for v in problem.components]
    q, K0 = math.lcm(*(v.denominator for v in lam)), K.terms.get((0,) * (problem.n + 1), 0)
    located = residue.diagonal_zeros(problem)
    assert len(located) == problem.n + 1
    for point, ld in located:
        if ld is not None:
            assert ld.k_at_p == q * (K0 - problem.m * lam[point.chart])
            assert type(ld.k_at_p) is int


@settings(max_examples=80, deadline=None)
@given(diagonal_problems())
def test_lead_chart_rule_keeps_singular_coordinate_points(case):
    # With a product divisor the coordinate points off both planes come with
    # no local data; they are kept and ordered all the same.
    assert_locates_like_the_reference(case[0])
