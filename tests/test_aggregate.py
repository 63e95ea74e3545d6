import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilog import aggregate, foliation, parse, residue
from resilog.aggregate import (
    IncompletePointSet,
    enumerate_singularities,
    homogeneous_representative,
    poincare_check,
    surface_report,
    verify_identities,
)
from resilog.algebra import MultiPoly
from resilog.birational import DiscrepancyProblem, cyclic_quotient_model
from resilog.foliation import make_problem
from resilog.parse import parse_problem
from resilog.residue import PositiveDimensional, SingularPoint

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


def test_given_points_on_a_line_of_zeros_raise_like_discovery():
    # diag(1, 1, 2): the line z2 = 0 is a line of zeros.
    problem = diag_problem((1, 1, 2), Z3)
    with pytest.raises(PositiveDimensional):
        verify_identities(problem)
    with pytest.raises(PositiveDimensional):
        verify_identities(problem, points=[SingularPoint(2, (Fraction(0), Fraction(0)))])


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-10**6, 10**6),
                          st.fractions(-100, 100, max_denominator=10**4)), max_size=12))
def test_total_of_exact_values(values):
    total = aggregate._total(values)
    assert total == sum(values, Fraction(0))
    assert type(total) is Fraction


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9), st.floats(-9, 9))))
def test_total_of_none_or_float_values(values):
    assert aggregate._total(values + [None]) is None
    floats = values + [0.5]
    assert aggregate._total(floats) == sum(map(float, floats))
    assert type(aggregate._total(floats)) is float


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
                record, P2, cf, foliation.chern_expectations(P2)]
    others = [parse._tokenize("z0")[0], doc, poincare_check(P2), surface.rows[0], surface,
              DiscrepancyProblem(cyclic.M, (Fraction(2),)), cyclic]
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


def count_chart_work(monkeypatch, modules=()) -> tuple[Counter, Counter, Counter]:
    """Counters of the ``chart_fields`` calls (by the problem's variables), the
    ``exact_divide`` calls of the tangency check (by the divisor's variables)
    and the ``local_data`` calls (by chart and point), with the counting
    wrappers also set on ``modules`` wherever they hold one of those names."""
    fields, divisions, data = Counter(), Counter(), Counter()
    wrappers = {
        "chart_fields": counted(foliation.chart_fields, fields, lambda p: p.variables),
        "exact_divide": counted(foliation.exact_divide, divisions, lambda _, f: f.variables),
        "local_data": counted(residue.local_data, data, lambda cf, p: (cf.chart, p.coords)),
    }
    for module in (foliation, aggregate, residue, *modules):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return fields, divisions, data


def test_verify_builds_each_chart_field_and_local_data_once(monkeypatch):
    # One homogeneous division gives every chart's cofactor; discovered zeros
    # take their local data from the linear solve itself.
    problem = parse_problem((FIXTURES / "p3_example.fol").read_text()).problem
    fields, divisions, data = count_chart_work(monkeypatch)
    report = verify_identities(problem)
    assert report.all_ok and len(report.checks[0].records) == 4
    assert fields == divisions == {problem.variables: 1}
    assert data == {}


def test_verify_given_points_takes_local_data_once_per_point(monkeypatch):
    problem = parse_problem((FIXTURES / "p3_example.fol").read_text()).problem
    points = [SingularPoint(c, (Fraction(0),) * 3) for c in range(4)]
    fields, divisions, data = count_chart_work(monkeypatch)
    report = verify_identities(problem, points)
    assert report.all_ok and report.level == "proved-on-instance"
    assert fields == divisions == {problem.variables: 1}
    assert data == {(c, p.coords): 1 for c, p in enumerate(points)}


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
    # The linear solve classifies each zero itself; classify_point, which
    # takes the jets and determinants again, must agree exactly.
    problem, planes = case
    fields = [foliation.chart_field(problem, c) for c in range(problem.n + 1)]
    located = aggregate._locate(problem, fields, "exact_linear", None, residue.NumericConfig())
    assert len(located) == problem.n + 1
    assert any(p.simple is None for p, _, _ in located) == (planes == 2)
    for point, cf, ld in located:
        assert cf is fields[point.chart]
        want_point, want_ld = residue.classify_point(cf, point.coords)
        assert point == want_point and all(type(c) is Fraction for c in point.coords)
        if want_ld is None:
            assert ld is None and point.simple is None
            continue
        for name in ("trJ", "detJ", "k_at_p", "trJD", "detJD", "s"):
            got, want = getattr(ld, name), getattr(want_ld, name)
            assert got == want, name
            assert type(got) is (Fraction if name != "s" else int) or got is want is None, name
