"""Acceptance suite: ten criteria, one pass/fail line each.

Each test records an ``ACCEPTANCE <k>: PASS|FAIL -- <summary>`` line; the
conftest hook prints the lines in the terminal summary, outside pytest's
output capture.  Exact criteria use zero tolerance; numeric criteria state
their tolerance inline.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from resilog.aggregate import surface_report, verify_identities
from resilog.algebra import MultiPoly, RatMatrix
from resilog.birational import (
    DiscrepancyProblem,
    NotNegativeDefinite,
    cyclic_quotient_model,
    solve_discrepancies,
)
from resilog.foliation import ChartField, chart_field, chart_fields, make_problem
from resilog.parse import parse_poly, parse_problem, print_poly
from resilog.residue import (
    NumericConfig,
    SingularPoint,
    local_data,
    perturbed_residue,
    simple_residues,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Z3 = ("z0", "z1", "z2")
Z4 = ("z0", "z1", "z2", "z3")


REPORT_LINES: list[str] = []


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        REPORT_LINES.append(f"ACCEPTANCE {number}: FAIL -- {summary}")
        raise
    REPORT_LINES.append(f"ACCEPTANCE {number}: PASS -- {summary}")


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
ORIGIN2 = SingularPoint(0, (Fraction(0), Fraction(0)))
ORIGIN3 = SingularPoint(0, (Fraction(0),) * 3)


def random_diag_instances(count=50):
    rng = random.Random(424242)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        variables = Z3 if n == 2 else Z4
        eigs = rng.sample(range(-20, 21), n + 1)
        gaps = [a - b for a in eigs for b in eigs if a != b]
        if len(set(gaps)) != len(gaps):
            continue  # require distinct eigenvalue gaps
        out.append(diag_problem(eigs, variables, rng.randrange(n + 1)))
    return out


def test_criterion_1_p2_example():
    with criterion(1, "P2 fixture: exact per-point Var and totals 5 and 1"):
        chart0 = simple_residues(chart_field(P2, 0), ORIGIN2, 0).var
        chart0_i1 = simple_residues(chart_field(P2, 0), ORIGIN2, 1).var
        chart1 = simple_residues(chart_field(P2, 1), ORIGIN2, 0).var
        chart1_i1 = simple_residues(chart_field(P2, 1), ORIGIN2, 1).var
        assert chart0 == Fraction(56, 20)
        assert chart0_i1 == Fraction(16, 20)
        assert chart1 == Fraction(11, 5)
        assert chart1_i1 == Fraction(1, 5)
        assert chart0 + chart1 == 5 == 3**2 - 2**2
        assert chart0_i1 + chart1_i1 == 1 == (3 - 2) * 1


def test_criterion_2_p3_example():
    with criterion(2, "P3 fixture: nine exact per-point Var values, totals 37/7/1"):
        expected = {
            0: {0: Fraction(1899, 126), 1: Fraction(1216, 28), 2: Fraction(-387, 18)},
            1: {0: Fraction(29, 14), 1: Fraction(80, 7), 2: Fraction(-13, 2)},
            2: {0: Fraction(9, 42), 1: Fraction(16, 7), 2: Fraction(-9, 6)},
        }
        origin = SingularPoint(0, (Fraction(0),) * 3)
        fields = chart_fields(P3)
        for i, per_chart in expected.items():
            total = Fraction(0)
            for chart, value in per_chart.items():
                cf = fields[chart]
                p = SingularPoint(chart, (Fraction(0),) * 3)
                assert simple_residues(cf, p, i).var == value
                total += value
            assert total == [37, 7, 1][i]


def test_criterion_3_identity_random_instances():
    with criterion(3, "50 random diagonal instances: exact global identities"):
        for problem in random_diag_instances(50):
            report = verify_identities(problem)
            assert report.level == "proved-on-instance"
            assert report.all_ok


def test_criterion_4_local_structure():
    with criterion(4, "detJ = k*detJD and ordinary - log = var at simple zeros"):
        instances = [P2, P3] + random_diag_instances(50)
        checked = 0
        for problem in instances:
            for chart, cf in enumerate(chart_fields(problem)):
                p = SingularPoint(chart, (Fraction(0),) * problem.n)
                ld = local_data(cf, p)
                if ld.detJD is None:
                    continue  # off the divisor
                assert ld.detJ == ld.k_at_p * ld.detJD
                for i in range(problem.n):
                    r = simple_residues(cf, p, i)
                    assert r.ordinary - r.log == r.var
                checked += 1
        assert checked >= 100


def test_criterion_5_poincare():
    from resilog.aggregate import poincare_check

    with criterion(5, "degree bounds: P2 via GSV total 2, P3 via log total 27"):
        p2 = poincare_check(P2)
        assert p2.i_used == 1 and p2.total_log_residue == 2
        assert p2.nonnegative and p2.bound_holds  # m <= d + 2
        s2 = surface_report(P2)
        assert s2.gsv_total == 2 and s2.carnicer_bound_holds
        p3 = poincare_check(P3)
        assert p3.i_used == 0 and p3.total_log_residue == 27
        assert p3.nonnegative and p3.bound_holds  # m <= d + 3


def test_criterion_6_surface_specialization():
    with criterion(6, "GSV totals (n+d-m)m and CS totals m^2, fixture + 20 random"):
        rng = random.Random(606060)
        instances = [P2]
        while len(instances) < 21:
            eigs = rng.sample(range(-15, 16), 3)
            instances.append(diag_problem(eigs, Z3, rng.randrange(3)))
        for problem in instances:
            report = surface_report(problem)
            assert report.gsv_total == (2 + problem.d - problem.m) * problem.m
            assert report.cs_total == problem.m**2


def test_criterion_7_cyclic_quotient_sweep():
    with criterion(7, "cyclic quotients m=2..12: residues (1,1), b = 2/m"):
        for m in range(2, 13):
            model = cyclic_quotient_model(m)
            assert [r.log for r in model.point_residues] == [1, 1]
            assert model.I_E == 2
            assert model.result.b == (Fraction(2, m),)
            assert model.result.a == (Fraction(2, m) - 1,)
            if m == 2:
                assert model.result.classification == "canonical"
            else:
                assert model.result.classification == "log_terminal"


def test_criterion_8_discrepancy_solver():
    with criterion(8, "A2 chain: a = (0,0) canonical, exact round trip"):
        M = RatMatrix([[-2, 1], [1, -2]])
        result = solve_discrepancies(
            DiscrepancyProblem(M=M, I=(Fraction(1), Fraction(1)))
        )
        assert result.a == (0, 0)
        assert result.classification == "canonical"
        # I = -M b, exactly
        assert [sum(a * b for a, b in zip(row, result.b)) for row in M] == [-1, -1]
        with pytest.raises(NotNegativeDefinite):
            solve_discrepancies(
                DiscrepancyProblem(M=RatMatrix([[1]]), I=(Fraction(1),))
            )


def test_criterion_9_numeric_engine():
    with criterion(9, "perturbation engine: double zero 4 +/- 1e-4, simple 1e-6 rel"):
        x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
        cf = ChartField(0, ("x", "y"), (x**2, -y),
                        MultiPoly.const(("x", "y"), 1),
                        MultiPoly.zero(("x", "y")))
        r = perturbed_residue(cf, ORIGIN2, 0, NumericConfig(seed=0))
        assert abs(r.ordinary - 4.0) < 1e-4
        for problem in (P2, P3):
            for chart, cf in enumerate(chart_fields(problem)):
                p = SingularPoint(chart, (Fraction(0),) * problem.n)
                for i in range(problem.n):
                    ld = local_data(cf, p)
                    if i > 0 and ld.detJD is None:
                        continue
                    exact = simple_residues(cf, p, i)
                    approx = perturbed_residue(cf, p, i, NumericConfig(seed=0))
                    for name in ("ordinary", "log", "var"):
                        e = getattr(exact, name)
                        a = getattr(approx, name)
                        assert abs(a - float(e)) <= 1e-6 * max(1.0, abs(float(e)))


def test_criterion_10_parser():
    with criterion(10, "500 print/parse round trips and both fixture files"):
        rng = random.Random(101010)
        variables = ("x", "y", "z")
        for _ in range(500):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                e = tuple(rng.randint(0, 4) for _ in variables)
                terms[e] = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            p = MultiPoly(variables, terms)
            assert parse_poly(print_poly(p), variables) == p

        doc2 = parse_problem((FIXTURES / "p2_example.fol").read_text())
        assert doc2.problem.n == 2 and doc2.problem.d == 1 and doc2.problem.m == 1
        assert doc2.problem.components == tuple(
            Fraction(e) * MultiPoly.variable(Z3, v)
            for e, v in zip((-3, 2, 1), Z3)
        )
        assert doc2.problem.divisor == MultiPoly.variable(Z3, "z2")

        doc3 = parse_problem((FIXTURES / "p3_example.fol").read_text())
        assert doc3.problem.n == 3 and doc3.problem.d == 1 and doc3.problem.m == 1
        assert doc3.problem.components == tuple(
            Fraction(e) * MultiPoly.variable(Z4, v)
            for e, v in zip((-4, 3, 2, -1), Z4)
        )
        assert doc3.problem.divisor == MultiPoly.variable(Z4, "z3")
