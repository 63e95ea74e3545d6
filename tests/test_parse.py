import random
from fractions import Fraction

import pytest

from resilog.algebra import MultiPoly
from resilog.parse import (
    ParseError,
    SchemaError,
    parse_poly,
    parse_problem,
    parse_rational,
    print_poly,
)

VARS = ("x", "y", "z")


@pytest.mark.parametrize(
    "src,expected",
    [
        ("0", MultiPoly.zero(VARS)),
        ("3/4", MultiPoly.const(VARS, Fraction(3, 4))),
        ("x", MultiPoly.variable(VARS, "x")),
        ("x + y", MultiPoly.variable(VARS, "x") + MultiPoly.variable(VARS, "y")),
        ("2*x^3", 2 * MultiPoly.variable(VARS, "x") ** 3),
        ("-x^2", -(MultiPoly.variable(VARS, "x") ** 2)),
        ("(x + y)^2", (MultiPoly.variable(VARS, "x") + MultiPoly.variable(VARS, "y")) ** 2),
        ("x - - y", MultiPoly.variable(VARS, "x") + MultiPoly.variable(VARS, "y")),
        ("1/2*x*y", Fraction(1, 2) * MultiPoly.variable(VARS, "x") * MultiPoly.variable(VARS, "y")),
    ],
)
def test_parse_cases(src, expected):
    assert parse_poly(src, VARS) == expected


def test_unary_minus_binds_looser_than_power():
    # -x^2 evaluates to -(x^2), not (-x)^2
    p = parse_poly("-x^2", VARS)
    assert p.eval((Fraction(3), Fraction(0), Fraction(0))) == -9


@pytest.mark.parametrize(
    "src",
    ["", "x +", "3x", "x y", "x ^ y", "x / y", "(x", "x)", "w", "x^-2", "1/0", "x**2",
     "2²", "x^²", "١ + x"],
)
def test_parse_rejects(src):
    with pytest.raises(ParseError):
        parse_poly(src, VARS)


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("x + w", VARS)
    assert (exc.value.line, exc.value.column) == (1, 5)
    with pytest.raises(ParseError) as exc:
        parse_poly("x +\n y $", VARS)
    assert (exc.value.line, exc.value.column) == (2, 4)


def test_print_poly_deterministic():
    p = parse_poly("y + x^2 - 3*x*y + 1/2", VARS)
    assert print_poly(p) == "x^2 - 3*x*y + y + 1/2"
    assert print_poly(MultiPoly.zero(VARS)) == "0"
    assert print_poly(MultiPoly.const(VARS, -1)) == "-1"


def random_poly(rng, variables=VARS):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = tuple(rng.randint(0, 4) for _ in variables)
        terms[e] = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return MultiPoly(variables, terms)


def test_roundtrip_500_random_polynomials():
    rng = random.Random(12345)
    for _ in range(500):
        p = random_poly(rng)
        assert parse_poly(print_poly(p), VARS) == p


def test_fuzz_invalid_character_reports_position():
    rng = random.Random(99)
    bad = "$?!@;~"
    for _ in range(100):
        p = random_poly(rng)
        src = print_poly(p)
        if src == "0":
            continue
        pos = rng.randrange(len(src))
        ch = rng.choice(bad)
        mutated = src[:pos] + ch + src[pos + 1 :]
        with pytest.raises(ParseError):
            parse_poly(mutated, VARS)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    with pytest.raises(SchemaError):
        parse_rational("a/b")
    with pytest.raises(SchemaError):
        parse_rational("1/0")


P2_SRC = """
space.dim = 2
field.vars = [z0, z1, z2]
field.components = [-3*z0, 2*z1, z2]
divisor = z2
points = [{chart: 0, coords: [0, 0]}, {chart: 1, coords: [0, 0]}]
numeric.seed = 7
numeric.newton_tol = 1e-10
"""


def test_parse_problem_document():
    doc = parse_problem(P2_SRC)
    assert doc.problem.n == 2 and doc.problem.d == 1 and doc.problem.m == 1
    assert doc.problem.variables == ("z0", "z1", "z2")
    vs = doc.problem.variables
    assert doc.problem.components[0] == -3 * MultiPoly.variable(vs, "z0")
    assert doc.problem.divisor == MultiPoly.variable(vs, "z2")
    assert doc.points == [
        {"chart": 0, "coords": [Fraction(0), Fraction(0)]},
        {"chart": 1, "coords": [Fraction(0), Fraction(0)]},
    ]
    assert doc.numeric == {"seed": 7, "newton_tol": 1e-10}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.replace("space.dim = 2", ""),
        lambda s: s.replace("space.dim = 2", "space.dim = x"),
        lambda s: s.replace("[z0, z1, z2]", "[z0, z1]"),
        lambda s: s.replace("[-3*z0, 2*z1, z2]", "[-3*z0, 2*z1]"),
        lambda s: s.replace("divisor = z2", "divisor = w"),
        lambda s: s.replace("coords: [0, 0]", "coords: [0]"),
    ],
)
def test_parse_problem_rejects_bad_documents(mutate):
    with pytest.raises((ParseError, SchemaError)):
        parse_problem(mutate(P2_SRC))


@pytest.mark.parametrize("old, new, position", [
    ("divisor = z2", "divisor = z2 $", (5, 14)),
    ("[-3*z0, 2*z1, z2]", "[-3*z0, 2*w1, z2]", (4, 30)),
    ("space.dim = 2", "  space.dim =  x", (2, 16)),
    ("{chart: 1, coords: [0, 0]}", "{chart 1}", (6, 40)),
    ("points = [", "points = {a: 1} # [", (6, 10)),
])
def test_document_errors_point_at_the_value(old, new, position):
    with pytest.raises(ParseError) as exc:
        parse_problem(P2_SRC.replace(old, new))
    assert (exc.value.line, exc.value.column) == position


def test_comments_and_blank_lines_ignored():
    doc = parse_problem("# header\n\n" + P2_SRC + "\n# trailing\n")
    assert doc.problem.n == 2
