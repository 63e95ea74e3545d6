import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilog.algebra import (
    MultiPoly,
    RatMatrix,
    SingularMatrix,
    align,
    det_exact,
    exact_divide,
    rank,
    solve_linear,
)

VARS = ("x", "y", "z")


def times(A: RatMatrix, x) -> list[Fraction]:
    """A*x, entry by entry."""
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in A.entries]


def random_poly(rng, variables=VARS, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(variables, terms)


def test_scalar_multiplication():
    p = MultiPoly(VARS, {(1, 0, 2): Fraction(3, 4), (0, 1, 0): Fraction(-2)})
    assert p * 3 == 3 * p == p * MultiPoly.const(VARS, 3)
    assert p * Fraction(1, 3) == MultiPoly(VARS, {(1, 0, 2): Fraction(1, 4), (0, 1, 0): Fraction(-2, 3)})
    assert (p * 0).is_zero and (p * 0).variables == VARS
    with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
        p * 1.5
    with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
        1.5 * p


def test_constructors_and_zero():
    z = MultiPoly.zero(VARS)
    assert z.is_zero and z.degree() == -1
    c = MultiPoly.const(VARS, Fraction(3, 2))
    assert c.is_constant
    x = MultiPoly.variable(VARS, "x")
    assert x.degree() == 1
    with pytest.raises(ValueError):
        MultiPoly.variable(VARS, "w")


def test_zero_coefficients_dropped():
    p = MultiPoly(VARS, {(1, 0, 0): 1}) - MultiPoly.variable(VARS, "x")
    assert p.is_zero and p.terms == {}


@pytest.mark.parametrize("seed", range(10))
def test_ring_axioms_random(seed):
    rng = random.Random(seed)
    p, q, r = (random_poly(rng) for _ in range(3))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p - p == MultiPoly.zero(VARS)
    assert (p * q) * r == p * (q * r)


def reference_add(p, q):
    """p + q with every new term entered as Fraction(0) + c, zeros dropped."""
    a, b = align(p, q)
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, Fraction(0)) + c
    return [(e, c) for e, c in out.items() if c]


def reference_mul(p, q):
    """p * q with every new term entered as Fraction(0) + c, zeros dropped."""
    a, b = align(p, q)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return [(e, c) for e, c in out.items() if c]


@st.composite
def cancelling_pairs(draw):
    """Two polynomials in x, y whose terms often meet and cancel: q takes some
    of p's terms negated, and declares x and y in either order."""
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 2),
                            st.sampled_from([1, -1, 2, Fraction(-1, 2)]), max_size=5)
    p_terms, q_terms = draw(terms), draw(terms)
    if p_terms:
        for e in draw(st.lists(st.sampled_from(sorted(p_terms)), max_size=3)):
            q_terms[e] = -p_terms[e]
    order = draw(st.sampled_from([("x", "y"), ("y", "x")]))
    return MultiPoly(("x", "y"), p_terms), MultiPoly(order, {
        e if order == ("x", "y") else e[::-1]: c for e, c in q_terms.items()})


@settings(max_examples=300)
@given(cancelling_pairs())
def test_sum_and_product_keep_the_term_order(case):
    # The order of the terms matters: eval sums them in dict order, so a
    # reordering changes float results in the last bits.
    p, q = case
    for got, want in ((p + q, reference_add(p, q)), (q + p, reference_add(q, p)),
                      (p - q, reference_add(p, -q)), (p * q, reference_mul(p, q)),
                      (q * p, reference_mul(q, p)), (p * p, reference_mul(p, p))):
        assert list(got.terms.items()) == want
        assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("seed", range(5))
def test_pow_matches_repeated_mul(seed):
    rng = random.Random(seed)
    p = random_poly(rng, max_terms=3, max_exp=2)
    prod = MultiPoly.const(VARS, 1)
    for k in range(5):
        assert p**k == prod
        prod = prod * p


def test_partial_derivative_leibniz():
    rng = random.Random(7)
    p, q = random_poly(rng), random_poly(rng)
    lhs = (p * q).partial("y")
    rhs = p.partial("y") * q + p * q.partial("y")
    assert lhs == rhs


def test_eval_exact_and_float():
    p = MultiPoly(VARS, {(2, 0, 0): 1, (0, 1, 0): Fraction(-1, 2), (0, 0, 0): 3})
    assert p.eval((Fraction(2), Fraction(4), Fraction(0))) == Fraction(5)
    assert p.eval((2.0, 4.0, 0.0)) == pytest.approx(5.0)


def termwise_eval(p, point):
    """Reference value of p at point: every power recomputed for every term."""
    total = Fraction(0)
    for e, c in p.terms.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term = term * x**k
        total = total + term
    return total


@pytest.mark.parametrize("seed", range(20))
def test_eval_reuses_powers_without_changing_values(seed):
    # Same operations in the same order: equal at Fraction points, bit-equal
    # at complex points, equal at polynomial points.
    rng = random.Random(seed)
    p = random_poly(rng, max_terms=8, max_exp=4)
    exact = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in VARS]
    approx = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in VARS]
    lines = [random_poly(rng, ("t",), max_terms=2, max_exp=1) for _ in VARS]
    for point in (exact, approx, lines):
        assert p.eval(point) == termwise_eval(p, point)


def test_align_merges_variables():
    p = MultiPoly(("x",), {(1,): 1})
    q = MultiPoly(("y",), {(1,): 1})
    a, b = align(p, q)
    assert a.variables == b.variables == ("x", "y")
    assert (a + b).eval((Fraction(2), Fraction(5))) == 7


@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 2),
        st.fractions(max_denominator=9).filter(lambda c: c != 0),
        max_size=4,
    ),
    st.permutations(["x", "y", "z"]),
)
def test_hash_agrees_with_eq_across_variable_orders(terms, order):
    # The same polynomial in x, y declared over permuted variables that also
    # carry an unused one.
    p = MultiPoly(("x", "y"), terms)
    q = MultiPoly(order, {
        tuple({"x": e[0], "y": e[1], "z": 0}[v] for v in order): c
        for e, c in terms.items()
    })
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_homogeneous_detection():
    p = MultiPoly(VARS, {(2, 0, 0): 1, (1, 1, 0): -3})
    assert p.is_homogeneous() and p.degree() == 2
    assert not (p + 1).is_homogeneous()


@pytest.mark.parametrize("seed", range(20))
def test_exact_divide_roundtrip(seed):
    rng = random.Random(seed)
    q = random_poly(rng, max_terms=4)
    f = random_poly(rng, max_terms=3)
    if f.is_zero:
        return
    assert exact_divide(q * f, f) == q


def test_exact_divide_rejects_nondivisible():
    x = MultiPoly.variable(VARS, "x")
    y = MultiPoly.variable(VARS, "y")
    assert exact_divide(x * x + y, x) is None
    assert exact_divide(x + 1, x) is None


def test_exact_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_divide(MultiPoly.variable(VARS, "x"), MultiPoly.zero(VARS))


def reference_divide(p, f):
    """Lex-order division in MultiPoly arithmetic, one polynomial per step."""
    p, f = align(p, f)
    lf = max(f.terms)
    quotient, remainder = MultiPoly.zero(p.variables), p
    while not remainder.is_zero:
        lp = max(remainder.terms)
        diff = tuple(a - b for a, b in zip(lp, lf))
        if any(d < 0 for d in diff):
            return None
        step = MultiPoly(p.variables, {diff: remainder.terms[lp] / f.terms[lf]})
        quotient, remainder = quotient + step, remainder - step * f
    return quotient


@st.composite
def division_pairs(draw):
    """(p, f) in 0-3 variables with f nonzero and p = q*f, plus a random
    polynomial half the time; constants (all of them without variables)
    included."""
    nv = draw(st.integers(0, 3))
    monomials = [e for e in itertools.product(range(3), repeat=nv) if sum(e) <= 2]
    coeffs = st.fractions(-9, 9, max_denominator=9).filter(lambda c: c != 0)

    def poly(min_size, max_size):
        chosen = draw(st.lists(st.sampled_from(monomials), min_size=min_size,
                               max_size=max_size, unique=True))
        return MultiPoly([f"x{i}" for i in range(nv)], {e: draw(coeffs) for e in chosen})

    f = poly(1, 3)
    return poly(0, 4) * f + (poly(1, 2) if draw(st.booleans()) else 0), f


@settings(max_examples=300, deadline=None)
@given(division_pairs())
def test_exact_divide_matches_multipoly_arithmetic(case):
    p, f = case
    got, want = exact_divide(p, f), reference_divide(p, f)
    assert (got is None) == (want is None)
    if got is not None:
        # Same terms in the same order: a cofactor's term order fixes the
        # bits of its value at float points.
        assert list(got.terms.items()) == list(want.terms.items())
        assert got * f == p


def test_immutability():
    p = MultiPoly.variable(VARS, "x")
    with pytest.raises(AttributeError):
        p.terms = {}
    m = RatMatrix([[1]])
    with pytest.raises(AttributeError):
        m.entries = []


def test_det_small_cases():
    assert det_exact(RatMatrix([[5]])) == 5
    assert det_exact(RatMatrix([[1, 2], [3, 4]])) == -2
    assert det_exact(RatMatrix([[int(i == j) for j in range(4)] for i in range(4)])) == 1
    assert det_exact(RatMatrix([[0, 1], [1, 0]])) == -1  # needs a row swap
    assert det_exact(RatMatrix([[1, 2], [2, 4]])) == 0


@pytest.mark.parametrize("seed", range(10))
def test_det_multiplicative(seed):
    rng = random.Random(seed)
    n = 3
    A = RatMatrix([[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
    B = RatMatrix([[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
    AB = RatMatrix(
        [
            [sum(A[i, k] * B[k, j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    )
    assert det_exact(AB) == det_exact(A) * det_exact(B)


@pytest.mark.parametrize("seed", range(10))
def test_solve_linear_roundtrip(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    while True:
        A = RatMatrix(
            [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        )
        if det_exact(A) != 0:
            break
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    assert solve_linear(A, times(A, x)) == x


def test_solve_linear_singular():
    with pytest.raises(SingularMatrix):
        solve_linear(RatMatrix([[1, 2], [2, 4]]), [1, 1])


def test_rank():
    assert rank(RatMatrix([[1, 2], [2, 4]])) == 1
    assert rank(RatMatrix([[1, 0], [0, 1]])) == 2
    assert rank(RatMatrix([[0, 0], [0, 0]])) == 0
    assert rank(RatMatrix([[1, 2, 3], [4, 5, 6]])) == 2
    # Columns without a pivot are skipped by the elimination.
    assert rank(RatMatrix([[0, 1, 1], [0, 1, 2], [0, 3, 5]])) == 2
    assert rank(RatMatrix([[0, 0, 1], [0, 0, 2]])) == 1


ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
)


@st.composite
def rational_matrices(draw, square=True):
    """Up to 5x5 rational matrices, denominators up to 1e9.  Rows are often
    zero or rational combinations of earlier rows, so rank deficiency is
    common; the rows are then shuffled."""
    n_rows = draw(st.integers(1, 5))
    n_cols = n_rows if square else draw(st.integers(1, 5))
    m = []
    for i in range(n_rows):
        kind = draw(st.sampled_from(("entries", "entries", "zero", "combination")))
        if kind == "zero":
            m.append([Fraction(0)] * n_cols)
        elif kind == "combination" and m:
            coeffs = [draw(ENTRIES) for _ in m]
            m.append([sum((c * row[j] for c, row in zip(coeffs, m)), Fraction(0))
                      for j in range(n_cols)])
        else:
            m.append([draw(ENTRIES) for _ in range(n_cols)])
    return draw(st.permutations(m))


def leibniz_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, p in enumerate(perm):
            term *= m[i][p]
        total += term
    return total


def gauss_jordan_rank(m):
    a = [list(row) for row in m]
    r = 0
    for c in range(len(a[0])):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_det_exact_matches_leibniz(m):
    d = det_exact(RatMatrix(m))
    assert isinstance(d, Fraction)
    assert d == leibniz_det(m)


@settings(max_examples=200, deadline=None)
@given(rational_matrices(square=False))
def test_rank_matches_gauss_jordan(m):
    assert rank(RatMatrix(m)) == gauss_jordan_rank(m)


@settings(max_examples=200, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_linear_roundtrip_rational(m, data):
    A = RatMatrix(m)
    x = data.draw(st.lists(st.builds(Fraction, st.integers(-10**9, 10**9),
                                     st.integers(2, 10**9)),
                           min_size=len(m), max_size=len(m)))
    if leibniz_det(m) == 0:
        with pytest.raises(SingularMatrix):
            solve_linear(A, times(A, x))
        return
    got = solve_linear(A, times(A, x))
    assert all(isinstance(v, Fraction) for v in got)
    assert got == x


def canonical(variables, terms) -> list:
    """The term list of ``MultiPoly(variables, terms)``, the checking constructor."""
    return list(MultiPoly(variables, terms).terms.items())


@settings(max_examples=300, deadline=None)
@given(division_pairs())
def test_trusted_results_match_the_checking_constructor(case):
    # Sums, products, negations, quotients and partial derivatives are built
    # through MultiPoly._of; each must equal what the checking constructor
    # makes of the same dict, built here by plain dict arithmetic, with
    # Fraction coefficients, none of them 0.
    p, f = case
    vs = p.variables
    total, product = dict(p.terms), {}
    for e, c in f.terms.items():
        total[e] = total.get(e, 0) + c
    for e1, c1 in p.terms.items():
        for e2, c2 in f.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            product[e] = product.get(e, 0) + c1 * c2
    quotient = exact_divide(p, f)
    cases = [(p + f, total), (p * f, product), (-p, {e: -c for e, c in p.terms.items()}),
             (p + 1, {**p.terms, (0,) * len(vs): p.terms.get((0,) * len(vs), 0) + 1}),
             (MultiPoly.const(vs, 2), {(0,) * len(vs): 2})]
    if quotient is not None:
        cases.append((quotient, dict(quotient.terms)))
    for j, v in enumerate(vs):
        cases.append((p.partial(v), {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                                     for e, c in p.terms.items() if e[j]}))
    for got, terms in cases:
        assert got.variables == vs
        assert list(got.terms.items()) == canonical(vs, terms)
        assert all(type(c) is Fraction and c for c in got.terms.values())
