from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilog import algebra, birational
from resilog.algebra import RatMatrix, det_exact, echelon, solve_linear
from resilog.birational import (
    DiscrepancyProblem,
    NotNegativeDefinite,
    classify,
    cyclic_quotient_model,
    expected_exceptional_residues,
    solve_discrepancies,
)

A2 = RatMatrix([[-2, 1], [1, -2]])


def violation(M: RatMatrix):
    """The k of the NotNegativeDefinite that ``solve_discrepancies`` raises at M, or None."""
    try:
        solve_discrepancies(DiscrepancyProblem(M, (Fraction(1),) * M.rows))
    except NotNegativeDefinite as exc:
        return exc.k
    return None


def test_negative_definite():
    assert violation(A2) is None
    assert violation(RatMatrix([[2]])) == 1
    assert violation(RatMatrix([[-1, 2], [2, -1]])) == 2
    with pytest.raises(ValueError, match="must be symmetric"):
        violation(RatMatrix([[1, 2], [3, 4]]))


@pytest.mark.parametrize(
    "a,expected",
    [
        ([Fraction(1, 2)], "terminal"),
        ([Fraction(0)], "canonical"),
        ([Fraction(-1, 2)], "log_terminal"),
        ([Fraction(-1)], "log_canonical"),
        ([Fraction(-3, 2)], "not_log_canonical"),
        ([Fraction(1), Fraction(-1, 2)], "log_terminal"),
    ],
)
def test_classify(a, expected):
    assert classify(a) == expected


def test_a2_chain():
    result = solve_discrepancies(DiscrepancyProblem(M=A2, I=(Fraction(1), Fraction(1))))
    assert result.b == (1, 1)
    assert result.a == (0, 0)
    assert result.classification == "canonical"


def test_rejects_non_negative_definite():
    with pytest.raises(NotNegativeDefinite):
        solve_discrepancies(
            DiscrepancyProblem(M=RatMatrix([[1]]), I=(Fraction(1),))
        )


def test_expected_residues_adjunction():
    # Chain of two rational (-2)-curves: each meets the other once.
    assert expected_exceptional_residues(A2) == [1, 1]
    # Single rational curve of self-intersection -m has I = 2.
    assert expected_exceptional_residues(RatMatrix([[-5]])) == [2]
    # A genus-1 component absorbs 2 from the adjunction term.
    assert expected_exceptional_residues(RatMatrix([[-3]]), genera=[1]) == [0]
    with pytest.raises(ValueError):
        expected_exceptional_residues(RatMatrix([[-2]]), genera=[1, 0])


@pytest.mark.parametrize("m", range(2, 13))
def test_cyclic_quotient_sweep(m):
    model = cyclic_quotient_model(m)
    assert [r.log for r in model.point_residues] == [1, 1]
    assert model.I_E == 2
    assert model.result.b == (Fraction(2, m),)
    assert model.result.a == (Fraction(2, m) - 1,)
    expected = "canonical" if m == 2 else "log_terminal"
    assert model.result.classification == expected
    # The residue vector matches what adjunction forces on a rational curve.
    assert expected_exceptional_residues(model.M) == [model.I_E]


def test_cyclic_quotient_rejects_small_order():
    with pytest.raises(ValueError):
        cyclic_quotient_model(1)


def leading_minor_violation(M: RatMatrix):
    """The first k with (-1)^k * det(leading k-by-k block) <= 0, by definition."""
    return next((k for k in range(1, M.rows + 1)
                 if (-1) ** k * det_exact(RatMatrix([row[:k] for row in M.entries[:k]])) <= 0),
                None)


@st.composite
def symmetric_matrices(draw):
    """A symmetric M of size 1..6 with integer or rational entries, often
    negative definite (-(A^T A) - I), and at times with its k-th leading minor
    forced to 0 through its k-th diagonal entry, which makes echelon exchange
    rows or skip a column there."""
    r = draw(st.integers(1, 6))
    entry = st.integers(-4, 4).map(Fraction) | st.fractions(-4, 4, max_denominator=6)
    if draw(st.booleans()):
        A = [[draw(entry) for _ in range(r)] for _ in range(r)]
        M = [[-sum(A[k][i] * A[k][j] for k in range(r)) - (i == j) for j in range(r)]
             for i in range(r)]
    else:
        M = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                M[i][j] = M[j][i] = draw(entry)
    k = draw(st.integers(0, r))
    if k:  # the k-th minor is affine in M[k-1][k-1], with slope the (k-1)-th minor
        slope = det_exact(RatMatrix([row[:k - 1] for row in M[:k - 1]])) if k > 1 else 1
        minor = det_exact(RatMatrix([row[:k] for row in M[:k]]))
        if slope:
            M[k - 1][k - 1] -= minor / slope
    return RatMatrix(M)


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices(), st.data())
def test_sylvester_and_solve_match_the_leading_minor_definition(M, data):
    # One elimination of [M | -I] must find the violating minor the
    # definition finds, also where a zero minor makes echelon exchange rows.
    want = leading_minor_violation(M)
    I = tuple(data.draw(st.fractions(-6, 6, max_denominator=4)) for _ in range(M.rows))
    if want is not None:
        with pytest.raises(NotNegativeDefinite) as caught:
            solve_discrepancies(DiscrepancyProblem(M, I))
        assert caught.value.k == want
        return
    result = solve_discrepancies(DiscrepancyProblem(M, I))
    assert list(result.b) == solve_linear(M, [-v for v in I])
    assert all(type(v) is Fraction for v in result.b + result.a)
    assert result.a == tuple(v - 1 for v in result.b)
    assert result.classification == classify(result.a)


@pytest.mark.parametrize("M, k", [
    ([[0, 1], [1, -2]], 1),  # echelon exchanges rows at the first pivot
    ([[-1, 1, 0], [1, -1, 1], [0, 1, -2]], 2),  # and at the second
    ([[-1, 1, 1], [1, -1, -1], [1, -1, -2]], 2),  # column 1 has no pivot at all
])
def test_a_zero_leading_minor_is_a_violation(M, k):
    with pytest.raises(NotNegativeDefinite, match=f"minor {k} ") as caught:
        solve_discrepancies(DiscrepancyProblem(RatMatrix(M), (Fraction(1),) * len(M)))
    assert caught.value.k == k


def test_solve_discrepancies_runs_one_elimination(monkeypatch):
    # The Sylvester test and the solve share one echelon of [M | -I]; the
    # r leading minors and the solve took r + 1 before.
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(algebra, "echelon", counted)
    monkeypatch.setattr(birational, "echelon", counted)
    M = RatMatrix([[-2, 1, 0, 0], [1, -3, 1, 0], [0, 1, -2, 1], [0, 0, 1, -5]])
    result = solve_discrepancies(DiscrepancyProblem(M, (Fraction(1),) * 4))
    assert calls == [4]
    assert [sum(a * b for a, b in zip(row, result.b)) for row in M.entries] == [-1] * 4


@pytest.mark.parametrize("M, I, error, message", [
    ([[-2, 1], [1, -2]], (Fraction(1),), ValueError, "right-hand side has the wrong length"),
    ([[-2]], (1.5,), TypeError, "expected an exact rational, got float"),
    ([[1, 2], [3, 4]], (Fraction(1),) * 2, ValueError, "intersection matrix must be symmetric"),
])
def test_solve_discrepancies_errors(M, I, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        solve_discrepancies(DiscrepancyProblem(RatMatrix(M), I))


def test_the_sylvester_test_runs_before_the_length_check():
    # A matrix that is not negative definite is reported as such, whatever I is.
    with pytest.raises(NotNegativeDefinite):
        solve_discrepancies(DiscrepancyProblem(RatMatrix([[2]]), (Fraction(1), Fraction(2))))
