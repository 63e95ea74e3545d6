"""A differential digest: one sha256 over what resilog returns on seeded problems.

    PYTHONPATH=src python tests/differential.py [--seed S] [--count N]

Builds N problems from seed S, cycling through the families below, and hashes
for each:

- ``verify_identities``: the level, completeness, notes, warnings, each
  record's repr and each total with its type, or the exception's type and text;
- ``enumerate_singularities`` in the modes the problem can run: the points'
  reprs, or the exception;
- ``local_data`` at zeros given exactly, as floats and as complex numbers.

The families: diagonal fields on P^1..P^4 with a plane, corner or conic
divisor, given no points, exact points, float points, a partial set or a point
that is no zero; diagonal fields conjugated by a unimodular matrix, with an
invariant hyperplane off the coordinate ones; constant fields; Lotka-Volterra fields z_j*L_j(z) on P^2 and
P^3 with their zeros computed here, the full set and every set missing one;
Jordan-block fields given their eigenvectors, whose degenerate zero runs the
perturbation engine at complex points; numeric discovery; and fields not
tangent to their divisor.  ``poincare_check`` and ``surface_report`` only read
these totals and are left out.

Two source trees that print the same digest for the same S and N return the
same values, types, texts and order on every call hashed.  The digest must not
depend on PYTHONHASHSEED.  The default count runs in well under a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import random
import warnings
from fractions import Fraction

from resilog import aggregate
from resilog.algebra import MultiPoly, RatMatrix, SingularMatrix, solve_linear
from resilog.foliation import chart_field, make_problem
from resilog.residue import SingularPoint, local_data


def variables(n: int) -> tuple[str, ...]:
    return tuple(f"z{j}" for j in range(n + 1))


def linear(zs, row) -> MultiPoly:
    return sum((Fraction(a) * MultiPoly.variable(zs, v) for a, v in zip(row, zs)),
               MultiPoly.zero(zs))


def vertex(c: int, n: int, value=Fraction(0)) -> SingularPoint:
    """e_c, in chart c, with its coordinates of the type of ``value``."""
    return SingularPoint(c, (value,) * n, exact=isinstance(value, Fraction))


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, tag: str, text: str):
        self.sha.update(f"{tag}\t{text}\n".encode())

    def call(self, tag: str, fn, show=repr):
        """Hash ``show(fn())`` and the warnings it raised, or the exception."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = show(fn())
            except Exception as exc:  # every failure is part of the behaviour
                out = f"raised {type(exc).__name__}: {exc}"
        for w in caught:
            self.add(tag, f"warning {w.category.__name__}: {w.message}")
        self.add(tag, out)

    def verify(self, tag: str, problem, points=None, i_list=None):
        self.call(tag, lambda: aggregate.verify_identities(problem, points, i_list), show_report)

    def enumerate(self, tag: str, problem, modes, points=None):
        for mode in modes:
            self.call(f"{tag}:{mode}", lambda: aggregate.enumerate_singularities(
                problem, mode, points if mode == "user" else None))

    def local(self, tag: str, problem, points):
        for p in points:
            self.call(f"{tag}:{p!r}", lambda: local_data(chart_field(problem, p.chart), p))


def typed(value) -> str:
    return f"{type(value).__name__}:{value!r}"


def show_report(report) -> str:
    lines = [report.level, repr(report.complete), *report.notes]
    for i, check in report.checks.items():
        lines.append(f"i={i} " + " ".join(map(typed, (
            check.ordinary_total, check.log_total, check.var_total,
            check.expected_ordinary, check.expected_log, check.expected_var))))
        lines.extend(map(repr, check.records))
    return "\n".join(lines)


def as_float(p: SingularPoint) -> SingularPoint:
    return p._replace(coords=tuple(float(x) for x in p.coords), exact=False)


def as_complex(p: SingularPoint) -> SingularPoint:
    return p._replace(coords=tuple(complex(x) for x in p.coords), exact=False)


def diagonal(rng: random.Random, h: Digest, tag: str):
    n = rng.randint(1, 4)
    zs = variables(n)
    lam = [rng.randint(-6, 6) for _ in range(n + 1)]
    z = [MultiPoly.variable(zs, v) for v in zs]
    shape = rng.choice(["plane", "corner", "conic"] if n >= 2 else ["plane"])
    a, b, c = rng.sample(range(n + 1), 3) if n >= 2 else (rng.randrange(n + 1), 0, 0)
    if shape == "plane":
        divisor = z[a]
    elif shape == "corner":
        divisor = z[a] * z[b]
    else:  # z_a*z_b + s*z_c^2 is invariant when lam_a + lam_b = 2*lam_c
        lam[b] = 2 * lam[c] - lam[a]
        divisor = z[a] * z[b] + rng.choice([-2, -1, 1, 3]) * z[c] ** 2
    scale = rng.choice([1, -2, 3])  # grad f at a zero is no longer 1
    problem = make_problem(zs, [Fraction(l) * z_j for l, z_j in zip(lam, z)], scale * divisor)
    exact = [vertex(j, n) for j in range(n + 1)]
    rng.shuffle(exact)
    given = rng.choice(["none", "exact", "float", "partial", "not a zero"])
    points = {"none": None, "exact": exact, "float": [as_float(p) for p in exact],
              "partial": exact[1:],
              "not a zero": exact[:-1] + [vertex(exact[-1].chart, n, Fraction(1, 3))]}[given]
    h.add(tag, f"diagonal P{n} {lam} {scale}*{shape} {given}")
    h.verify(tag, problem, points)
    h.enumerate(tag, problem, ["exact_linear", "user", "bogus"], exact)
    h.local(tag, problem, exact[:2] + [as_float(exact[0]), as_complex(exact[-1])])


def conjugated(rng: random.Random, h: Digest, tag: str):
    # A = g*diag(lam)*g^-1 with g unimodular: the zeros are the columns of g,
    # off the coordinate vertices, and a row r of g^-1 has r*A = lam_c*r, so
    # the hyperplane r.z = 0 is invariant.
    n = rng.randint(2, 3)
    zs = variables(n)
    while True:
        g = [[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(n + 1)]
        try:
            columns = [solve_linear(RatMatrix(g), [int(j == k) for j in range(n + 1)])
                       for k in range(n + 1)]
            break
        except SingularMatrix:
            continue
    g_inv = [[columns[k][j] for k in range(n + 1)] for j in range(n + 1)]
    lam = rng.sample(range(-6, 7), n + 1)
    A = [[sum(g[j][t] * lam[t] * g_inv[t][k] for t in range(n + 1)) for k in range(n + 1)]
         for j in range(n + 1)]
    problem = make_problem(zs, [linear(zs, row) for row in A], linear(zs, rng.choice(g_inv)))
    zeros = []
    for k in range(n + 1):
        v = [Fraction(g[j][k]) for j in range(n + 1)]
        c = next(j for j, x in enumerate(v) if x)
        zeros.append(SingularPoint(c, tuple(x / v[c] for j, x in enumerate(v) if j != c)))
    h.add(tag, f"conjugated P{n} {g} {lam}")
    h.verify(tag, problem, zeros)
    h.verify(f"{tag}:float", problem, [as_float(p) for p in zeros])
    h.verify(f"{tag}:partial", problem, zeros[1:])
    h.enumerate(tag, problem, ["exact_linear", "user"], zeros)
    h.local(tag, problem, zeros + [as_float(zeros[0]), as_complex(zeros[-1])])


def constant(rng: random.Random, h: Digest, tag: str):
    n = rng.randint(1, 3)
    zs = variables(n)
    c = [rng.randint(-3, 3) for _ in range(n + 1)]
    k = rng.randrange(n + 1)
    c[k] = 0  # z_k is invariant only when the field's z_k component is 0
    if not any(c):
        c[(k + 1) % (n + 1)] = 1
    problem = make_problem(zs, [MultiPoly.const(zs, v) for v in c], MultiPoly.variable(zs, zs[k]))
    h.add(tag, f"constant P{n} {c} z{k}")
    h.verify(tag, problem)
    h.enumerate(tag, problem, ["exact_linear", "numeric"])
    lead = next(j for j, v in enumerate(c) if v)
    zero = SingularPoint(lead, tuple(Fraction(v, c[lead]) for j, v in enumerate(c) if j != lead))
    h.verify(tag, problem, [as_float(zero)])
    h.local(tag, problem, [zero, as_float(zero), as_complex(zero)])


def lotka_volterra(L):
    """The field z_j*L_j(z) with divisor z0 and its zeros, or None unless it is
    generic: on each support S one zero, where z_j = 0 off S and the L_j with
    j in S agree, taken with z_S[0] = 1 and no other entry on S zero."""
    zs = variables(len(L) - 1)
    comps = [MultiPoly.variable(zs, v) * linear(zs, row) for v, row in zip(zs, L)]
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
    return make_problem(zs, comps, MultiPoly.variable(zs, "z0")), zeros


def lv(rng: random.Random, h: Digest, tag: str, n: int):
    while True:
        L = [[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(n + 1)]
        case = lotka_volterra(L)
        if case is not None:
            break
    problem, zeros = case
    h.add(tag, f"lotka-volterra P{n} {L}")
    h.verify(tag, problem, zeros)
    for k in range(len(zeros)):
        h.verify(f"{tag}:drop {k}", problem, zeros[:k] + zeros[k + 1:])
    h.enumerate(tag, problem, ["exact_linear", "user"], zeros)
    off_vertex = [p for p in zeros if any(p.coords)]
    h.local(tag, problem, off_vertex[:2] + [as_float(off_vertex[-1]), as_complex(off_vertex[0])])


def jordan(rng: random.Random, h: Digest, tag: str):
    # [l*z0 + z1, l*z1, mu*z2(, nu*z3)]: a Jordan block on (z0, z1), whose one
    # eigenvector e0 is a double zero; the divisor z1 or the last plane.
    n = rng.choice([2, 2, 3])
    zs = variables(n)
    eig = rng.sample([v for v in range(-5, 6) if v], n)
    z = [MultiPoly.variable(zs, v) for v in zs]
    comps = [eig[0] * z[0] + z[1], eig[0] * z[1]] + [e * z_j for e, z_j in zip(eig[1:], z[2:])]
    k = rng.choice([1, n])
    problem = make_problem(zs, comps, z[k])
    points = [vertex(0, n)] + [vertex(j, n) for j in range(2, n + 1)]
    h.add(tag, f"jordan P{n} {eig} z{k}")
    h.verify(tag, problem, points, [rng.randrange(n)])
    h.enumerate(tag, problem, ["user"], points)
    h.local(tag, problem, [points[0], as_complex(points[0]), as_float(points[-1])])
    # The rotation [-z1, z0, mu*z2]: its zeros [1:+-i:0] are complex.
    if n == 2:
        rot = make_problem(zs, [-z[1], z[0], eig[1] * z[2]], z[2])
        h.local(f"{tag}:rotation", rot, [SingularPoint(0, (s * 1j, 0j), exact=False)
                                         for s in (1, -1)])


def numeric(rng: random.Random, h: Digest, tag: str):
    n = rng.choice([1, 2, 2])
    zs = variables(n)
    lam = rng.sample(range(-5, 6), n + 1)
    z = [MultiPoly.variable(zs, v) for v in zs]
    problem = make_problem(zs, [l * z_j for l, z_j in zip(lam, z)], z[-1])
    h.add(tag, f"numeric P{n} {lam}")
    found = aggregate.enumerate_singularities(problem, "numeric")
    h.add(tag, repr(found))
    h.verify(tag, problem, found)
    h.local(tag, problem, found)


def not_tangent(rng: random.Random, h: Digest, tag: str):
    n = rng.randint(1, 3)
    zs = variables(n)
    lam = rng.sample(range(-5, 6), n + 1)
    z = [MultiPoly.variable(zs, v) for v in zs]
    problem = make_problem(zs, [l * z_j for l, z_j in zip(lam, z)], z[0] + z[-1])
    h.add(tag, f"not tangent P{n} {lam}")
    h.verify(tag, problem)
    h.enumerate(tag, problem, ["exact_linear", "user", "bogus"], [vertex(0, n)])


FAMILIES = [diagonal, diagonal, conjugated, constant, lambda r, h, t: lv(r, h, t, 2),
            lambda r, h, t: lv(r, h, t, 3), jordan, numeric, not_tangent]


def digest(seed: int, count: int) -> str:
    h = Digest()
    for k in range(count):
        FAMILIES[k % len(FAMILIES)](random.Random(f"{seed}:{k}"), h, str(k))
    return h.sha.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=2000)
    args = ap.parse_args(argv)
    print(digest(args.seed, args.count))


if __name__ == "__main__":
    main()
