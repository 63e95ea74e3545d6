"""Exact oracles the benchmark computes on its own, with ``fractions.Fraction``.

Nothing here imports resilog: every expected answer is derived from the
generator's construction or from the README's definitions, so an oracle never
calls the function it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# The tolerance aggregate.py documents for numeric certification, copied rather
# than imported so that loosening the program's constant cannot loosen the oracle.
NUMERIC_TOL = 1e-6


def chern_totals(n: int, d: int, m: int) -> dict[int, tuple[int, int, int]]:
    """Expected (ordinary, log, var) residue totals for every i in 0..n-1.

    Sum ordinary = (n+d)^(n-i) m^i, sum log = (n+d-m)^(n-i) m^i, and the
    variational total is their difference.
    """
    out = {}
    for i in range(n):
        ordinary = (n + d) ** (n - i) * m**i
        log = (n + d - m) ** (n - i) * m**i
        out[i] = (ordinary, log, ordinary - log)
    return out


def classify_discrepancies(a) -> str:
    """Finest class of a discrepancy vector, from the definitions in the README."""
    if any(x < -1 for x in a):
        return "not_log_canonical"
    if all(x > 0 for x in a):
        return "terminal"
    if all(x >= 0 for x in a):
        return "canonical"
    if all(x > -1 for x in a):
        return "log_terminal"
    return "log_canonical"


def solve_tridiagonal(M, rhs) -> list[Fraction]:
    """Exact solution of M x = rhs for a tridiagonal M (Thomas algorithm)."""
    r = len(M)
    diag = [Fraction(M[j][j]) for j in range(r)]
    rhs = [Fraction(v) for v in rhs]
    for j in range(1, r):
        factor = Fraction(M[j][j - 1]) / diag[j - 1]
        diag[j] -= factor * M[j - 1][j]
        rhs[j] -= factor * rhs[j - 1]
    x = [Fraction(0)] * r
    for j in range(r - 1, -1, -1):
        upper = M[j][j + 1] * x[j + 1] if j + 1 < r else 0
        x[j] = (rhs[j] - upper) / diag[j]
    return x


def matmul(A, B):
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0)) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def inverse(M):
    """Exact inverse by Gauss-Jordan elimination; None when M is singular."""
    n = len(M)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def null_vector(rows, m: int):
    """The spanning vector of a one-dimensional null space, else None."""
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(m):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pivot = a[r][c]
        a[r] = [x / pivot for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(m) if c not in pivots]
    if len(free) != 1:
        return None
    v = [Fraction(0)] * m
    v[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        v[c] = -a[i][free[0]]
    return v


def lotka_volterra_zeros(L) -> list[tuple[Fraction, ...]] | None:
    """Exact singular set of V_j = z_j * L_j(z) on P^n, or None if not generic.

    A point is singular where V is parallel to the Euler field: on each
    support S, z_j = 0 off S and all L_j with j in S agree.  Generic draws
    give exactly one point per nonempty S, 2^(n+1) - 1 in all.  A draw is
    rejected (None) when some support has a null space of dimension other
    than one (a positive-dimensional or missing component) or a solution
    with a zero entry on S (two zeros coincide).
    """
    n1 = len(L)
    zeros = []
    for size in range(1, n1 + 1):
        for S in itertools.combinations(range(n1), size):
            rows = [[L[j][s] - L[S[0]][s] for s in S] for j in S[1:]]
            v = null_vector(rows, size) if rows else [Fraction(1)]
            if v is None or any(x == 0 for x in v):
                return None
            h = [Fraction(0)] * n1
            for s, x in zip(S, v):
                h[s] = x
            zeros.append(normalize(h))
    return zeros


def normalize(h):
    """Projective representative scaled so the first nonzero entry is 1."""
    first = next(x for x in h if x != 0)
    return tuple(x / first for x in h)


def chart_point(h):
    """(chart, affine coords) of a homogeneous point in its lowest-index chart."""
    c = next(j for j, v in enumerate(h) if v != 0)
    return c, tuple(v / h[c] for j, v in enumerate(h) if j != c)


def projective_close(exact_h, approx_h, tol: float = 1e-6) -> bool:
    """Whether an approximate homogeneous point equals an exact one.

    Both are scaled by the exact point's largest coordinate, so the
    comparison is relative and does not depend on the chart either side
    was reported in.
    """
    idx = max(range(len(exact_h)), key=lambda j: abs(exact_h[j]))
    pivot = complex(approx_h[idx])
    if abs(pivot) < 1e-12:
        return False
    scale = exact_h[idx]
    return all(
        abs(complex(a) / pivot - float(e / scale)) <= tol
        for e, a in zip(exact_h, approx_h)
    )
