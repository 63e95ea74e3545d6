"""Exact rational scalars, sparse multivariate polynomials, and exact linear algebra.

Scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms with positive denominator).  Polynomials are sparse: a map from
exponent tuples to nonzero rational coefficients.  Matrices carry exact
rational entries; one fraction-free (Bareiss) row echelon routine gives the
determinant, the rank and exact linear solves; it clears each row's
denominators and runs on Python ints.  Solves stay integral: with d the last
pivot, d*x is integral (Cramer), so back substitution divides exactly with
``//``.  ``DomainError`` is the base of every exception that reports input
outside the supported mathematics.

Everything here is immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]
Exponent = tuple[int, ...]


class DomainError(Exception):
    """Well-formed input outside the supported mathematics (CLI exit code 2)."""


class SingularMatrix(DomainError):
    """Raised when an exact linear solve meets a singular matrix."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


class MultiPoly:
    """Sparse multivariate polynomial over the rationals.

    ``variables`` is the ordered tuple of variable names; ``terms`` maps
    exponent tuples (one entry per variable) to nonzero coefficients.
    Term order, where one is needed, is lexicographic in declared variable
    order.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Scalar]):
        vs = tuple(variables)
        canon: dict[Exponent, Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(vs):
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {len(vs)}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _as_fraction(coeff)
            if c != 0:
                canon[exps] = canon.get(exps, Fraction(0)) + c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", {e: c for e, c in canon.items() if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value: Scalar) -> "MultiPoly":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self) -> tuple[Exponent, Fraction]:
        """Leading term under lex order in declared variable order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.const(self.variables, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = align(self, other)
        return a.terms == b.terms

    def __hash__(self):
        # Equal polynomials may differ in variable order and unused variables.
        return hash(frozenset(
            (frozenset((v, k) for v, k in zip(self.variables, e) if k), c)
            for e, c in self.terms.items()
        ))

    def __add__(self, other) -> "MultiPoly":
        a, b = align(self, self._coerce(other))
        out = dict(a.terms)
        for e, c in b.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(a.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        a, b = align(self, self._coerce(other))
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(a.variables, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.const(self.variables, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus and evaluation ------------------------------------------

    def partial(self, name: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``name``."""
        j = self.var_index(name)
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            de = list(e)
            de[j] -= 1
            out[tuple(de)] = out.get(tuple(de), Fraction(0)) + c * e[j]
        return MultiPoly(self.variables, out)

    def eval(self, point: Sequence):
        """Value at a point: exact at Fractions or ints, approximate at floats
        or complex values.  Polynomial coordinates compose: p.eval([q_1, ...])
        is the polynomial p(q_1, ...) in the variables of the q_j.  Each power
        x_j**k is computed once per call.
        """
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}"
            )
        powers: dict[tuple[int, int], object] = {}
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for j, k in enumerate(e):
                if k:
                    x_k = powers.get((j, k))
                    if x_k is None:
                        x_k = powers[j, k] = point[j] ** k
                    term = term * x_k
            total = total + term
        return total

    def gradient(self, point: Sequence) -> list:
        """All partial derivatives at a point in one pass over the terms, each
        power x_i**k computed once.  Each value equals partial(v).eval(point)
        bit for bit, at Fraction, float and complex points, as numeric local
        data relies on: a term is c*e_j times its powers in variable order,
        and the terms are summed from Fraction(0) in term order."""
        grad: list = [Fraction(0)] * len(self.variables)
        if len(point) != len(grad):
            raise ValueError(f"point has {len(point)} coordinates, expected {len(grad)}")
        powers: dict[tuple[int, int], object] = {}
        for e, c in self.terms.items():
            for j in (j for j, e_j in enumerate(e) if e_j):
                term = c * e[j]
                for i, k in enumerate(e):
                    k -= i == j
                    if k:
                        if (i, k) not in powers:
                            powers[i, k] = point[i] ** k
                        term = term * powers[i, k]
                grad[j] = grad[j] + term
        return grad

    def substitute_one(self, name: str, value: Scalar) -> "MultiPoly":
        """Fix one variable to a rational constant; result drops that variable."""
        j = self.var_index(name)
        val = _as_fraction(value)
        rest = self.variables[:j] + self.variables[j + 1 :]
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            re = e[:j] + e[j + 1 :]
            out[re] = out.get(re, Fraction(0)) + c * val ** e[j]
        return MultiPoly(rest, out)

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {self.terms!r})"


def align(p: MultiPoly, q: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Bring two polynomials onto the union of their variable lists.

    Shared names keep p's order; q's extra variables are appended in q's order.
    """
    if p.variables == q.variables:
        return p, q
    merged = list(p.variables) + [v for v in q.variables if v not in p.variables]
    return _extend(p, merged), _extend(q, merged)


def _extend(p: MultiPoly, variables: Sequence[str]) -> MultiPoly:
    vs = tuple(variables)
    if p.variables == vs:
        return p
    idx = [vs.index(v) for v in p.variables]
    out: dict[Exponent, Fraction] = {}
    for e, c in p.terms.items():
        ne = [0] * len(vs)
        for j, k in zip(idx, e):
            ne[j] = k
        out[tuple(ne)] = c
    return MultiPoly(vs, out)


def exact_divide(p: MultiPoly, f: MultiPoly) -> MultiPoly | None:
    """Exact polynomial quotient q with p = q*f, or None if not divisible.

    Single-divisor multivariate division under lex order: repeatedly
    eliminate the leading term of the running dividend.  The first leading
    term not divisible by f's leading term would become a remainder term
    and can never cancel, so the pair is reported not divisible right away.
    """
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    p, f = align(p, f)
    quotient = MultiPoly.zero(p.variables)
    lf, cf = f.leading()
    remainder = p
    while not remainder.is_zero:
        lp, cp = remainder.leading()
        diff = tuple(a - b for a, b in zip(lp, lf))
        if any(d < 0 for d in diff):
            return None
        step = MultiPoly(p.variables, {diff: cp / cf})
        quotient = quotient + step
        remainder = remainder - step * f
    return quotient


class RatMatrix:
    """Rectangular matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        rows = [[_as_fraction(x) for x in row] for row in entries]
        if not rows:
            raise ValueError("matrix needs at least one row")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"RatMatrix({self.entries!r})"

    def submatrix(self, k: int) -> "RatMatrix":
        """Leading principal k-by-k block."""
        return RatMatrix([row[:k] for row in self.entries[:k]])

    def mul_vector(self, x: Sequence[Scalar]) -> list[Fraction]:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        xs = [_as_fraction(v) for v in x]
        return [sum((a * b for a, b in zip(row, xs)), Fraction(0)) for row in self.entries]

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i)
        )


def echelon(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], list[int], Fraction]:
    """Fraction-free (Bareiss) row echelon form over the integers: each row is
    first multiplied by the lcm of its denominators, and each division by the
    previous pivot is exact (Bareiss, Math. Comp. 22, 1968).  Returns the
    integer echelon rows, the pivot column of each nonzero row, and the factor
    sign / (product of the row lcms), sign being that of the row permutation.
    For a square nonsingular matrix, factor times the last diagonal entry is
    the determinant; scaling rows of [A | b] leaves its solutions unchanged."""
    lcms = [math.lcm(*(x.denominator for x in row)) for row in rows]
    a = [[x.numerator * (lcm // x.denominator) for x in row] for row, lcm in zip(rows, lcms)]
    n_rows, n_cols = len(a), len(a[0])
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        piv, top = a[r][c], a[r][c + 1:]
        for row in a[r + 1:]:
            x, row[c] = row[c], 0
            row[c + 1:] = [(y * piv - x * t) // prev for y, t in zip(row[c + 1:], top)]
        prev = piv
        pivots.append(c)
    return a, pivots, Fraction(sign, math.prod(lcms))


def back_substitute(a: Sequence[Sequence[int]], n: int) -> list[Fraction]:
    """Solution x of an integer echelon system from ``echelon`` whose first n
    columns carry the pivots on the diagonal and whose column n is the
    right-hand side.  The last pivot d is +-det of the row-scaled matrix, so
    X = d*x is integral (Cramer) and each ``//`` below is exact."""
    d = a[n - 1][n - 1]
    X = [0] * n
    for k in range(n - 1, -1, -1):
        X[k] = (d * a[k][n] - sum(a[k][j] * X[j] for j in range(k + 1, n))) // a[k][k]
    return [Fraction(v, d) for v in X]


def det_exact(m: RatMatrix) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    a, pivots, factor = echelon(m.entries)
    return factor * a[-1][-1] if len(pivots) == m.rows else Fraction(0)


def solve_linear(m: RatMatrix, rhs: Sequence[Scalar]) -> list[Fraction]:
    """Exact solution of m*x = rhs by elimination of the augmented matrix."""
    if m.rows != m.cols:
        raise ValueError("solve_linear needs a square matrix")
    n = m.rows
    if len(rhs) != n:
        raise ValueError("right-hand side has the wrong length")
    a, pivots, _ = echelon([row + [_as_fraction(b)] for row, b in zip(m.entries, rhs)])
    missing = next((k for k in range(n) if k not in pivots), None)
    if missing is not None:
        raise SingularMatrix(f"no pivot in column {missing}")
    return back_substitute(a, n)


def rank(m: RatMatrix) -> int:
    """Rank over the rationals: the number of echelon pivots."""
    return len(echelon(m.entries)[1])
