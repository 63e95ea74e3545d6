"""Log discrepancies of surface singularities from exceptional residues.

Given the exceptional intersection matrix M of a surface resolution and the
componentwise residue vector I, the log discrepancy vector is b = -M^{-1} I;
the discrepancies are a = b - 1 and classify the singularity.  A built-in
model realizes the cyclic quotient of weight (1, 1) end to end, computing
the residues on the two resolution charts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra import (DomainError, MultiPoly, RatMatrix, back_substitute, echelon, integer_rows,
                      solve_linear)
from .foliation import ChartField
from .residue import ResidueRecord, SingularPoint, is_exact, simple_residues


class NotNegativeDefinite(DomainError):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"leading principal minor {k} violates negative definiteness")


class DiscrepancyProblem(NamedTuple):
    """An exceptional intersection matrix M and its componentwise residues I."""

    M: RatMatrix
    I: tuple[Fraction, ...]


@dataclass(frozen=True)
class DiscrepancyResult:
    """Log discrepancies b = -M^{-1} I, discrepancies a = b - 1 and their class."""

    b: tuple[Fraction, ...]  # log discrepancies
    a: tuple[Fraction, ...]  # discrepancies, a = b - 1
    classification: str


def classify(a) -> str:
    """Finest nested class of a discrepancy vector."""
    a = [Fraction(x) for x in a]
    if any(x < -1 for x in a):
        return "not_log_canonical"
    if all(x > 0 for x in a):
        return "terminal"
    if all(x >= 0 for x in a):
        return "canonical"
    if all(x > -1 for x in a):
        return "log_terminal"
    return "log_canonical"


def solve_discrepancies(problem: DiscrepancyProblem) -> DiscrepancyResult:
    """Exact b = -M^{-1} I and the Sylvester test from one ``echelon`` of the
    integer rows of [M | -I]: NotNegativeDefinite(k) at the first k with
    (-1)^k * (k-th leading principal minor of M) <= 0.  Until a row exchange,
    which a zero minor forces, the k-th pivot is that minor times positive row
    lcms.  I = -M b is re-checked on the integer rows, with X = d*b."""
    M, I = problem
    if not M.is_symmetric():
        raise ValueError("intersection matrix must be symmetric")
    fits = len(I) == M.rows and is_exact(I)  # else solve_linear raises, after the test
    rhs = [-v for v in I] if fits else [0] * M.rows
    rows, _ = integer_rows([row + [v] for row, v in zip(M.entries, rhs)])
    u = [row[:] for row in rows]  # echelon works in place; the round trip reads rows
    _, _, order = echelon(u)
    for k in range(1, M.rows + 1):
        if order[k - 1] != k - 1 or (-1) ** k * u[k - 1][k - 1] <= 0:
            raise NotNegativeDefinite(k)
    if not fits:
        solve_linear(M, [-v for v in I])  # its ValueError or TypeError
    X, d = back_substitute(u)
    assert all(sum(map(operator.mul, row, X)) == row[-1] * d for row in rows), \
        "I = -M b round trip failed"
    b = [Fraction(x, d) for x in X]
    a = [v - 1 for v in b]
    return DiscrepancyResult(b=tuple(b), a=tuple(a), classification=classify(a))


def expected_exceptional_residues(M: RatMatrix, genera=None) -> list[Fraction]:
    """Residue vector forced by adjunction on each exceptional component.

    I_j = 2 - 2*g_j - sum_{k != j} M_{jk}: the degree of the logarithmic
    normal bundle restricted to a component, via (K+D).D_j and adjunction.
    """
    if not M.is_symmetric():
        raise ValueError("intersection matrix must be symmetric")
    r = M.rows
    genera = [0] * r if genera is None else list(genera)
    if len(genera) != r:
        raise ValueError("genera length must match the number of components")
    if any(g < 0 for g in genera):
        raise ValueError("genera must be non-negative")
    return [
        Fraction(2 - 2 * genera[j]) - sum(M[j, k] for k in range(r) if k != j)
        for j in range(r)
    ]


class CyclicQuotientModel(NamedTuple):
    """The resolved weight-(1,1) cyclic quotient of order m, chart by chart."""

    m: int
    charts: tuple[ChartField, ChartField]
    point_residues: tuple[ResidueRecord, ResidueRecord]
    I_E: Fraction
    M: RatMatrix
    result: DiscrepancyResult


def cyclic_quotient_model(m: int) -> CyclicQuotientModel:
    """The weight-(1,1) cyclic quotient of order m, resolved.

    The minimal resolution is the total space of a degree -m line bundle
    over the exceptional rational curve E.  The descending diagonal field
    lifts to (m*x, -2*b) and (-m*y, 2*c) on the two charts, with E the
    first coordinate axis in each; the induced field on E has one simple
    zero per chart, each with logarithmic residue 1, so I_E = 2 and
    b = 2/m.
    """
    if m < 2:
        raise ValueError(f"cyclic quotient order must be at least 2, got {m}")

    def chart(sign: int, names: tuple[str, str]) -> ChartField:
        x = MultiPoly.variable(names, names[0])
        t = MultiPoly.variable(names, names[1])
        return ChartField(
            chart=0 if sign > 0 else 1,
            variables=names,
            a=(sign * m * x, -sign * 2 * t),
            f=x,
            k=MultiPoly.const(names, sign * m),
        )

    charts = (chart(+1, ("x", "b")), chart(-1, ("y", "c")))
    origin = (Fraction(0), Fraction(0))
    records = tuple(
        simple_residues(cf, SingularPoint(cf.chart, origin, on_divisor=True), 1)
        for cf in charts
    )
    I_E = sum((r.log for r in records), Fraction(0))
    M = RatMatrix([[-m]])
    result = solve_discrepancies(DiscrepancyProblem(M=M, I=(I_E,)))
    return CyclicQuotientModel(
        m=m, charts=charts, point_residues=records, I_E=I_E, M=M, result=result
    )
