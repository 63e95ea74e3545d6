"""Seeded workloads: input generators, operations and their oracle checks.

Each builder returns ``(ops, probes)``.  ``ops`` is an endless iterator that
generates each input afresh from the seed, so no input repeats within a run
and a cache keyed on the problem cannot hit across operations.  An ``Op`` has
a ``run(tracer)`` that calls resilog and returns its answer, and a
``check(answer, notes)`` that returns None when the oracle accepts the answer
or a failure kind otherwise.
``probes`` are inputs on which the program is known to break a README
promise; they run once after the timed window and are reported by kind, so
the defects stay visible without entering the timed loop.

Inputs are problem-file text, generated from the seed and parsed with
``parse_problem`` the way a user's file is.  resilog is reached through
module attributes at call time (``aggregate.verify_identities``), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from oracles import (
    NUMERIC_TOL,
    chart_point,
    chern_totals,
    classify_discrepancies,
    inverse,
    lotka_volterra_zeros,
    matmul,
    projective_close,
    solve_tridiagonal,
)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
FIXTURES = ROOT / "fixtures"

@dataclass
class Op:
    label: str
    run: Callable
    check: Callable
    expected: object = None  # the oracle's answer, where it is a value


def _stream(make_cycle: Callable[[], list[Op]]) -> Iterator[Op]:
    """Endless operations, one freshly generated cycle of inputs after another."""
    while True:
        yield from make_cycle()


def _problem_text(n: int, components: list[str], divisor: str) -> str:
    names = ", ".join(f"z{j}" for j in range(n + 1))
    return (f"space.dim = {n}\nfield.vars = [{names}]\n"
            f"field.components = [{', '.join(components)}]\ndivisor = {divisor}\n")


def _linear_form(coeffs) -> str:
    return " + ".join(f"{c}*z{j}" for j, c in enumerate(coeffs) if c != 0) or "0"


def check_identities(report, expected, level: str, exact: bool, points: int | None):
    """Oracle for a GlobalReport against the benchmark's own Chern integers."""
    if report.level != level:
        return "wrong_level"
    if sorted(report.checks) != sorted(expected):
        return "wrong_i_levels"
    if points is not None and len(report.checks[0].records) != points:
        return "wrong_point_count"
    for i, wanted in expected.items():
        c = report.checks[i]
        for got, want in zip((c.ordinary_total, c.log_total, c.var_total), wanted):
            if exact:
                if not isinstance(got, Fraction) or got != want:
                    return "wrong_total"
            elif got is None or abs(got - want) > NUMERIC_TOL * max(1, abs(want)):
                return "total_off_tolerance"
    return None


# -- exact_diag ------------------------------------------------------------

# Eight diagonal instances and one discrepancy chain per cycle.  P4 appears
# three times so the median operation sits inside one size class.
DIAG_SIZES = (2, 3, 4, 4, 4, 5, 6, 7)
DIAG_SIZES_SMALL = (2, 3)


def _diag_op(rng: random.Random, n: int) -> Op:
    from resilog import aggregate, parse

    eigs: list[Fraction] = []
    while len(eigs) < n + 1:
        e = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        if e not in eigs:
            eigs.append(e)
    k = rng.randrange(n + 1)
    text = _problem_text(n, [f"{e}*z{j}" for j, e in enumerate(eigs)], f"z{k}")
    expected = chern_totals(n, 1, 1)

    def run(_tracer):
        return aggregate.verify_identities(parse.parse_problem(text).problem)

    def check(report, _notes):
        return check_identities(report, expected, "proved-on-instance", True, n + 1)

    return Op(f"diag_P{n}", run, check)


def _chain_op(rng: random.Random) -> Op:
    from resilog import algebra, birational

    r = rng.randint(2, 6)
    weights = [rng.randint(2, 5) for _ in range(r)]
    M = [[-weights[j] if j == c else int(abs(j - c) == 1) for c in range(r)] for j in range(r)]
    I = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(r)]
    text = json.dumps({"M": M, "I": [str(x) for x in I]})
    b = solve_tridiagonal(M, [-x for x in I])
    a = [x - 1 for x in b]
    cls = classify_discrepancies(a)

    def run(_tracer):
        data = json.loads(text)
        problem = birational.DiscrepancyProblem(
            M=algebra.RatMatrix(data["M"]), I=tuple(Fraction(x) for x in data["I"]))
        return birational.solve_discrepancies(problem)

    def check(result, _notes):
        if tuple(result.b) != tuple(b) or tuple(result.a) != tuple(a):
            return "wrong_discrepancy"
        if result.classification != cls:
            return "wrong_classification"
        return None

    return Op("chain", run, check)


def build_exact_diag(seed, small: bool):
    rng = random.Random(f"exact_diag|{seed}")
    sizes = DIAG_SIZES_SMALL if small else DIAG_SIZES

    def cycle():
        ops = [_diag_op(rng, n) for n in sizes] + [_chain_op(rng)]
        rng.shuffle(ops)
        return ops

    return _stream(cycle), []


# -- degenerate_perturb ----------------------------------------------------

DEGENERATE_SIZES = (2, 2, 2, 3)
# The engine sums every perturbed zero within NumericConfig.search_radius
# (0.5, L-inf in the chart) of the degenerate zero, so a valid instance keeps
# all other zeros at least twice that far away.
MIN_SEPARATION = Fraction(1)


def _jordan_instance(rng: random.Random, N: int):
    """Linear field on P^N with one 2x2 Jordan block, tangent to a coordinate
    hyperplane.  Returns (text, homogeneous eigenvector points)."""

    def rat():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    while True:
        S = [[Fraction(rng.randint(-2, 2)) for _ in range(N)] for _ in range(N)]
        S_inv = inverse(S)
        if S_inv is None:
            continue
        mu = rat()
        eigs = [mu]
        while len(eigs) < N:  # N-2 further block eigenvalues, then lambda
            e = rat()
            if e not in eigs:
                eigs.append(e)
        lam = eigs[-1]
        J = [[Fraction(0)] * N for _ in range(N)]
        J[0][0] = J[1][1] = mu
        J[0][1] = Fraction(1)
        for j in range(2, N):
            J[j][j] = eigs[j - 1]
        B = matmul(matmul(S, J), S_inv)
        c = [Fraction(rng.randint(-3, 3)) for _ in range(N)]
        A = [B[i] + [c[i]] for i in range(N)] + [[Fraction(0)] * N + [lam]]
        # Eigenvectors: the Jordan vector and the other block vectors lie on
        # z_N = 0; lambda's vector solves (B - lam) x = -c with z_N = 1.
        points = [[S[i][j] for i in range(N)] + [Fraction(0)] for j in [0, *range(2, N)]]
        shifted = inverse([[B[i][j] - (lam if i == j else 0) for j in range(N)] for i in range(N)])
        points.append([-sum(shifted[i][j] * c[j] for j in range(N)) for i in range(N)] + [Fraction(1)])
        perm = list(range(N + 1))
        rng.shuffle(perm)
        A_p = [[Fraction(0)] * (N + 1) for _ in range(N + 1)]
        for i in range(N + 1):
            for j in range(N + 1):
                A_p[perm[i]][perm[j]] = A[i][j]
        points_p = []
        for h in points:
            hp = [Fraction(0)] * (N + 1)
            for j in range(N + 1):
                hp[perm[j]] = h[j]
            points_p.append(hp)
        if _separation(points_p) > MIN_SEPARATION:
            text = _problem_text(N, [_linear_form(row) for row in A_p], f"z{perm[N]}")
            return text, points_p


def _separation(points) -> Fraction:
    """L-inf distance from the degenerate zero (first) to the others, in its chart."""
    chart, center = chart_point(points[0])
    best = None
    for h in points[1:]:
        if h[chart] == 0:
            continue
        coords = [v / h[chart] for j, v in enumerate(h) if j != chart]
        d = max(abs(x - y) for x, y in zip(center, coords))
        best = d if best is None else min(best, d)
    return best if best is not None else Fraction(10**6)


def _degenerate_op(rng: random.Random, N: int) -> Op:
    from resilog import aggregate, parse, residue

    text, points = _jordan_instance(rng, N)
    problem = parse.parse_problem(text).problem
    supplied = [chart_point(h) for h in points]
    expected = chern_totals(N, 1, 1)

    def run(_tracer):
        user = [residue.SingularPoint(c, coords) for c, coords in supplied]
        found = aggregate.enumerate_singularities(problem, "user", user_points=user)
        return aggregate.verify_identities(problem, found)

    def check(report, _notes):
        return check_identities(report, expected, "numeric", False, len(points))

    return Op(f"jordan_P{N}", run, check, expected)


def build_degenerate_perturb(seed, small: bool):
    rng = random.Random(f"degenerate_perturb|{seed}")
    sizes = (2,) if small else DEGENERATE_SIZES
    return _stream(lambda: [_degenerate_op(rng, n) for n in sizes]), []


# -- numeric_discover ------------------------------------------------------

NUMERIC_SIZES = (2, 2, 2, 2, 2, 2, 2, 2, 3)


def _lotka_volterra_op(rng: random.Random, n: int) -> Op:
    from resilog import aggregate, parse

    while True:  # genericity filter: see oracles.lotka_volterra_zeros
        L = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
             for _ in range(n + 1)]
        zeros = lotka_volterra_zeros(L)
        if zeros is not None:
            break
    comps = [f"z{j}*({_linear_form(row)})" for j, row in enumerate(L)]
    problem = parse.parse_problem(_problem_text(n, comps, f"z{rng.randrange(n + 1)}")).problem

    def run(_tracer):
        return aggregate.enumerate_singularities(problem, "numeric")

    def check(points, notes):
        notes["oracle_zeros"] += len(zeros)
        matched: set[int] = set()
        spurious = 0
        for p in points:
            h = list(p.coords[: p.chart]) + [1.0] + list(p.coords[p.chart:])
            j = next((j for j, z in enumerate(zeros)
                      if j not in matched and projective_close(z, h)), None)
            if j is None:
                spurious += 1
            else:
                matched.add(j)
        notes["found_zeros"] += len(matched)
        if spurious:
            return "spurious_zero"
        if len(matched) < len(zeros):
            return "missed_zero"
        return None

    return Op(f"lotka_volterra_P{n}", run, check, zeros)


def build_numeric_discover(seed, small: bool):
    rng = random.Random(f"numeric_discover|{seed}")
    sizes = (2,) if small else NUMERIC_SIZES
    return _stream(lambda: [_lotka_volterra_op(rng, n) for n in sizes]), []


# -- cli_cold ----------------------------------------------------------------

def _diagonal_fixture(name: str):
    """Eigenvalues and divisor index of a diagonal fixture, read from its text."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    items = re.search(r"field\.components\s*=\s*\[(.*)\]", text).group(1).split(",")
    eigs = []
    for j, item in enumerate(items):
        coeff, _, var = item.strip().rpartition("*")
        if var != f"z{j}":
            raise ValueError(f"{name}: component {j} is not diagonal")
        eigs.append(Fraction(coeff) if coeff else Fraction(1))
    k = int(re.search(r"divisor\s*=\s*z(\d+)", text).group(1))
    return eigs, k


def _first_mismatch(pairs):
    return next((name for name, got, want in pairs if got != want), None)


def _fixture_checks(name: str):
    """README-derived field checks for each subcommand on a diagonal fixture."""
    eigs, k = _diagonal_fixture(name)
    n = len(eigs) - 1
    totals = chern_totals(n, 1, 1)
    cofactors = {str(c): str(eigs[k] - eigs[c]) if c != k else "0" for c in range(n + 1)}

    def points_ok(doc, mode, exact):
        if doc.get("mode") != mode or len(doc["points"]) != n + 1:
            return "points"
        for p in doc["points"]:
            c = p["chart"]
            zero = all((v == "0") if exact else abs(v) < 1e-9 for v in p["coords"])
            if not zero or p["exact"] is not exact or p["simple"] is not True \
                    or p["on_divisor"] is not (c != k):
                return "points"
        return None if sorted(p["chart"] for p in doc["points"]) == list(range(n + 1)) else "points"

    def verify(doc):
        checks = {c["i"]: c for c in doc["checks"]}
        pairs = [("level", doc["level"], "proved-on-instance"), ("all_ok", doc["all_ok"], True),
                 ("complete", doc["complete"], True), ("i_levels", sorted(checks), list(range(n)))]
        for i, (o, l, v) in totals.items():
            got = checks.get(i, {}).get("totals", {})
            pairs.append((f"totals_{i}", got, {"ordinary": str(o), "log": str(l), "var": str(v)}))
        return _first_mismatch(pairs)

    i_used = 0 if n % 2 else 1
    checks = {
        "check": lambda d: _first_mismatch([("tangent", d["tangent"], True),
                                            ("cofactors", d["cofactors"], cofactors)]),
        "zeros": lambda d: points_ok(d, "exact_linear", True),
        "zeros --numeric": lambda d: points_ok(d, "numeric", False),
        "verify": verify,
        "poincare": lambda d: _first_mismatch([
            ("i_used", d["i_used"], i_used),
            ("total_log_residue", d["total_log_residue"], str(totals[i_used][1])),
            ("nonnegative", d["nonnegative"], True), ("bound_holds", d["bound_holds"], True)]),
    }
    if n == 2:
        d = m = 1  # linear field, hyperplane divisor
        checks["surface"] = lambda doc: _first_mismatch([
            ("gsv_total", doc["gsv_total"], str((n + d - m) * m)),
            ("cs_total", doc["cs_total"], str(m * m)),
            ("carnicer_bound_holds", doc["carnicer_bound_holds"], True)])

        def residues(d):
            recs = d["records"]
            return _first_mismatch([
                ("level", d["level"], "proved-on-instance"),
                ("records", len(recs), n),
                ("ordinary_sum", sum(Fraction(r["ordinary"]) for r in recs), totals[1][0]),
                ("log_sum", sum(Fraction(r["log"]) for r in recs), totals[1][1])])

        checks["residues --i 1"] = residues
    return checks


def _cli_check(code: int, fields=None, stderr_has: str | None = None):
    def check(result, _notes):
        rc, out, err = result
        if "Traceback" in err:
            last = err.strip().splitlines()[-1]
            return "traceback:" + last.split(":")[0].rsplit(".", 1)[-1]
        if rc != code:
            return f"exit_{rc}_expected_{code}"
        if stderr_has is not None and stderr_has not in err:
            return "wrong_message"
        if fields is not None:
            try:
                doc = json.loads(out)
            except ValueError:
                return "bad_json"
            if doc.get("schema") != "resilog/1":
                return "wrong_schema"
            try:
                bad = fields(doc)
            except (KeyError, TypeError, ValueError):
                bad = "missing"
            if bad:
                return "wrong_field:" + bad
        return None

    return check


def _parse_importtime(stderr: str):
    """(numpy us, resilog-without-numpy us, stderr without importtime lines)."""
    cumulative = {}
    rest = []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        else:
            rest.append(line)
    numpy_us = cumulative.get("numpy", 0)
    resilog_us = cumulative.get("resilog", 0) - numpy_us
    return numpy_us, resilog_us, "\n".join(rest)


def _cli_op(label: str, args: list[str], check) -> Op:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")

    def run(tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "resilog.cli", *args]
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=out_dir, suffix=".json", delete=False) as f:
            summary_path = Path(f.name)
        try:
            argv = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *args]
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env={**env, "PERFBENCH_SUMMARY": str(summary_path)},
                                  capture_output=True, text=True, timeout=120)
            wall_ms = (time.perf_counter() - start) * 1000.0
            numpy_us, resilog_us, stderr = _parse_importtime(proc.stderr)
            if summary_path.stat().st_size:
                tracer.children.append(json.loads(summary_path.read_text()))
        finally:
            summary_path.unlink()
        tracer.cli_samples.append({"wall_ms": wall_ms, "numpy_ms": numpy_us / 1000.0,
                                   "resilog_ms": resilog_us / 1000.0})
        return proc.returncode, proc.stdout, stderr

    return Op(label, run, check)


def _cli_commands(cyclic_m: int):
    fmt = ["--format", "machine"]
    commands = []
    for fixture in ("p2_example.fol", "p3_example.fol"):
        path = f"fixtures/{fixture}"
        for sub, fields in _fixture_checks(fixture).items():
            words = sub.split()
            commands.append((f"{sub} {fixture}", [words[0], path, *words[1:], *fmt],
                             _cli_check(0, fields)))
    commands.append(("surface p3_example.fol", ["surface", "fixtures/p3_example.fol", *fmt],
                     _cli_check(1, stderr_has="error: surface_report needs n = 2")))

    chain = json.loads((FIXTURES / "a2_chain.json").read_text(encoding="utf-8"))
    M = [[Fraction(x) for x in row] for row in chain["M"]]
    I = [Fraction(str(x)) for x in chain["I"]]
    b = [-sum(row[j] * I[j] for j in range(len(I))) for row in inverse(M)]
    a = [x - 1 for x in b]
    commands.append(("discrepancy a2_chain.json", ["discrepancy", "fixtures/a2_chain.json", *fmt],
                     _cli_check(0, lambda d: _first_mismatch([
                         ("negative_definite", d["negative_definite"], True),
                         ("b", d["b"], [str(x) for x in b]), ("a", d["a"], [str(x) for x in a]),
                         ("classification", d["classification"], classify_discrepancies(a))]))))

    # Resolution of the 1/m(1,1) quotient: E^2 = -m, log discrepancy b = 2/m.
    b_m = Fraction(2, cyclic_m)
    commands.append((f"cyclic --m {cyclic_m}", ["cyclic", "--m", str(cyclic_m), *fmt],
                     _cli_check(0, lambda d: _first_mismatch([
                         ("I_E", d["I_E"], "2"), ("b", d["b"], str(b_m)),
                         ("a", d["a"], str(b_m - 1)),
                         ("point_log_residues", d["point_log_residues"], ["1", "1"]),
                         ("classification", d["classification"],
                          classify_discrepancies([b_m - 1]))]))))
    commands.append(("check malformed.fol", ["check", "fixtures/malformed.fol", *fmt],
                     _cli_check(1, stderr_has="parse error")))
    commands.append(("check not_tangent.fol", ["check", "fixtures/not_tangent.fol", *fmt],
                     _cli_check(2, lambda d: _first_mismatch([("tangent", d["tangent"], False),
                                                              ("chart", d["chart"], 0)]))))
    return commands


# The README promises exit 2 for a field that is not tangent; these
# subcommands raise an uncaught NotTangent instead.
CLI_DEFECT_PROBES = ("verify", "zeros", "poincare", "surface")


def build_cli_cold(seed, small: bool):
    """The README's commands are fixed, so they recur once per cycle; each is
    a fresh process, so nothing computed by one call reaches the next."""
    rng = random.Random(f"cli_cold|{seed}")

    def cycle():
        ops = [_cli_op(label, args, check)
               for label, args, check in _cli_commands(rng.randint(2, 60))]
        rng.shuffle(ops)
        return ops[:3] if small else ops

    probes = [_cli_op(f"{sub} not_tangent.fol",
                      [sub, "fixtures/not_tangent.fol", "--format", "machine"], _cli_check(2))
              for sub in CLI_DEFECT_PROBES]
    return _stream(cycle), probes


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed, small) -> (endless ops, probes)
    in_process: bool
    warm_ops: int  # operations run during set-up to fill caches


WORKLOADS = {
    "exact_diag": Workload(build_exact_diag, True, len(DIAG_SIZES) + 1),
    "cli_cold": Workload(build_cli_cold, False, 2),
    "degenerate_perturb": Workload(build_degenerate_perturb, True, 1),
    "numeric_discover": Workload(build_numeric_discover, True, 1),
}
