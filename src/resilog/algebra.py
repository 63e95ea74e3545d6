"""Exact rational scalars, sparse multivariate polynomials, and exact linear algebra.

Scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms with positive denominator).  Polynomials are sparse: a map from
exponent tuples to nonzero rational coefficients.  A ``RatMatrix`` is the
tuple of its rows, each a tuple of Fractions; one fraction-free (Bareiss) row
echelon routine on Python ints gives the determinant, the rank and exact
linear solves, each caller clearing the rows' denominators with
``integer_rows``.  The ``MultiPoly`` constructor checks outside input;
``MultiPoly._of`` trusts a term dict built here (exponent tuples of the right
length, Fraction coefficients).  ``DomainError`` is the base of every exception
that reports input outside the supported mathematics; ``SchemaError`` reports
a malformed document.

Everything here is immutable after construction and all operations are pure,
but ``echelon``, which works in place on the integer rows it is given.
``MultiPoly.terms`` is a plain dict that the package never writes after
construction, but that nothing stops a caller from writing.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Exponent = tuple[int, ...]
IDENT = re.compile("[A-Za-z][A-Za-z0-9]*")  # a variable name: an ASCII letter, letters, digits


class DomainError(Exception):
    """Well-formed input outside the supported mathematics (CLI exit code 2)."""


class SchemaError(Exception):
    """Structurally valid document with a missing or malformed field (CLI exit code 1)."""


def clip(text: str) -> str:
    """``text`` up to 40 characters, else its first 40, quoted, and its length."""
    return text if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def quote(value) -> str:
    """``repr(value)``, for every message that echoes input; past 40 characters (of the
    repr of a value that is not a string), ``clip``'s form."""
    text = value if isinstance(value, str) else repr(value)
    return repr(value) if len(text) <= 40 else clip(text)


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
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            c = _as_fraction(coeff)
            # A mapping's keys are distinct; only keys equal as tuples merge.
            canon[exps] = canon[exps] + c if exps in canon else c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", {e: c for e, c in canon.items() if c})

    @classmethod
    def _of(cls, variables: tuple[str, ...], terms: dict[Exponent, Fraction]) -> "MultiPoly":
        """A term dict built here, unchecked (module docstring); drops zeros."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value: Scalar) -> "MultiPoly":
        vs = tuple(variables)
        return cls._of(vs, {(0,) * len(vs): _as_fraction(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"unknown variable {name!r}")
        unit, i = (0,) * len(vs), vs.index(name)
        return cls._of(vs, {unit[:i] + (1,) + unit[i + 1:]: Fraction(1)})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

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
        for e, c in b.terms.items():  # a new term enters as its own coefficient
            out[e] = out[e] + c if e in out else c
        return MultiPoly._of(a.variables, out)

    def __radd__(self, other) -> "MultiPoly":  # c + p as const(c) + p: eval's term order
        return self._coerce(other) + self

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):  # a scalar scales each coefficient
            s = _as_fraction(other)
            return MultiPoly._of(self.variables, {e: c * s for e, c in self.terms.items()})
        a, b = align(self, other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return MultiPoly._of(a.variables, out)

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
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        j = self.variables.index(name)
        # Lowering e_j by one keeps the exponents of the terms with e_j > 0 distinct.
        return MultiPoly._of(self.variables, {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                                              for e, c in self.terms.items() if e[j]})

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
    lf, cf = max(f.terms.items())  # exponents are distinct: lex order alone decides
    remainder = dict(p.terms)
    quotient: dict[Exponent, Fraction] = {}
    while remainder:
        lp = max(remainder)
        diff = tuple(a - b for a, b in zip(lp, lf))
        if min(diff, default=0) < 0:  # diff is () when there are no variables
            return None
        # Each step cancels lp exactly: leading terms fall, each diff is new.
        q = quotient[diff] = remainder[lp] / cf
        for e, c in f.terms.items():
            m = tuple(a + b for a, b in zip(diff, e))
            v = remainder.pop(m, 0) - q * c
            if v:
                remainder[m] = v
    return MultiPoly._of(p.variables, quotient)


class RatMatrix(tuple):
    """Rectangular matrix of exact rationals: the tuple of its rows."""

    __slots__ = ()

    def __new__(cls, entries: Sequence[Sequence[Scalar]]):
        rows = [tuple(map(_as_fraction, row)) for row in entries]
        if not rows:
            raise ValueError("matrix needs at least one row")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        return super().__new__(cls, rows)

    def is_symmetric(self) -> bool:
        return self == tuple(zip(*self))  # a non-square matrix has a transpose of other shape


def integer_rows(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, as ints, and those lcms."""
    lcms = [math.lcm(*(x.denominator for x in row)) for row in rows]
    return [[x.numerator * (lcm // x.denominator) for x in row]
            for row, lcm in zip(rows, lcms)], lcms


def echelon(a: list[list[int]]) -> tuple[list[int], int, list[int]]:
    """Fraction-free (Bareiss) row echelon form of the integer rows ``a``, in
    place; each division by the previous pivot is exact (Bareiss, Math. Comp.
    22, 1968).  Returns the pivot column of each nonzero row, the sign of the
    row permutation and the row order (echelon row j is input row order[j]).
    For a square nonsingular matrix, sign times the last diagonal entry is the
    determinant.  Rows are exchanged only where the pivot in place is 0; until
    then the k-th diagonal entry is the k-th leading principal minor of the rows."""
    n_rows, n_cols = len(a), len(a[0])
    order = list(range(n_rows))
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
            order[r], order[pivot_row] = order[pivot_row], order[r]
            sign = -sign
        piv, top = a[r][c], a[r][c + 1:]
        for row in a[r + 1:]:
            x, row[c] = row[c], 0
            row[c + 1:] = [(y * piv - x * t) // prev for y, t in zip(row[c + 1:], top)]
        prev = piv
        pivots.append(c)
    return pivots, sign, order


def back_substitute(a: list[list[int]]) -> tuple[list[int], int]:
    """X and d with A*(X/d) = b, from the n ``echelon`` rows of [A | b], each
    pivot on the diagonal: d = +-det of the row-scaled A (Cramer), so ``//`` is exact."""
    n = len(a)
    d = a[n - 1][n - 1]
    X = [0] * n
    for k in range(n - 1, -1, -1):
        X[k] = (d * a[k][n] - sum(a[k][j] * X[j] for j in range(k + 1, n))) // a[k][k]
    return X, d


def det_exact(m: RatMatrix) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination."""
    if len(m) != len(m[0]):
        raise ValueError("determinant of a non-square matrix")
    a, lcms = integer_rows(m)
    pivots, sign, _ = echelon(a)
    return Fraction(sign * a[-1][-1], math.prod(lcms)) if len(pivots) == len(m) else Fraction(0)


def solve_linear(m: RatMatrix, rhs: Sequence[Scalar]) -> list[Fraction]:
    """Exact solution of m*x = rhs by elimination of the augmented matrix and
    ``back_substitute``."""
    n = len(m)
    if n != len(m[0]):
        raise ValueError("solve_linear needs a square matrix")
    if len(rhs) != n:
        raise ValueError("right-hand side has the wrong length")
    a, _ = integer_rows([(*row, _as_fraction(b)) for row, b in zip(m, rhs)])
    pivots, _, _ = echelon(a)  # scaling a row of [A | b] leaves the solution as it is
    missing = next((k for k in range(n) if k not in pivots), None)
    if missing is not None:
        raise SingularMatrix(f"no pivot in column {missing}")
    X, d = back_substitute(a)
    return [Fraction(v, d) for v in X]


def rank(m: RatMatrix) -> int:
    """Rank over the rationals: the number of echelon pivots."""
    return len(echelon(integer_rows(m)[0])[0])
