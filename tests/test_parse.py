import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilog import parse
from resilog.algebra import MultiPoly
from resilog.parse import (
    MAX_NESTING,
    ParseError,
    SchemaError,
    parse_integer,
    parse_poly,
    parse_problem,
    parse_rational,
    print_poly,
    raw_document,
)
from resilog.residue import SingularPoint

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
        # Constant input folds to one constant polynomial.
        ("2^3", MultiPoly.const(VARS, 8)),
        ("(1/2)*4", MultiPoly.const(VARS, 2)),
        ("-(3)", MultiPoly.const(VARS, -3)),
        ("0^0", MultiPoly.const(VARS, 1)),
        ("2 - 2", MultiPoly.zero(VARS)),
    ],
)
def test_parse_cases(src, expected):
    got = parse_poly(src, VARS)
    assert got == expected and got.variables == VARS
    assert all(type(c) is Fraction for c in got.terms.values())


def test_cancelled_terms_leave_the_later_terms_in_order():
    # x - x cancels, so y enters first and the second x after it; eval sums
    # the terms in this order.
    p = parse_poly("x - x + y + x", ("x", "y"))
    assert list(p.terms.items()) == [((0, 1), Fraction(1)), ((1, 0), Fraction(1))]


def test_a_number_meets_a_variable_as_a_scalar(monkeypatch):
    # -11 stays an int until it scales z0: no constant polynomial is built, and
    # the product enters one term dict, once.
    calls, const, of = [], MultiPoly.const, MultiPoly._of
    want = MultiPoly(("z0", "z1"), {(1, 0): -11})
    monkeypatch.setattr(MultiPoly, "const", lambda *args: calls.append(("const", args)) or const(*args))
    monkeypatch.setattr(MultiPoly, "_of", lambda *args: calls.append(("_of", args)) or of(*args))
    got = parse_poly("-11*z0", ("z0", "z1"))
    assert calls == [("_of", (("z0", "z1"), {(1, 0): Fraction(-11)}))]
    assert got == want


def expression_trees(max_leaves=8):
    """(text, the same tree built with MultiPoly arithmetic), every subtree in
    parentheses: literals, variables, +, -, *, unary - and ^0..3."""
    def leaf_of(value):
        return (str(value), MultiPoly.const(VARS, value))

    leaves = (st.integers(0, 12).map(leaf_of)
              | st.fractions(0, 12, max_denominator=7).map(leaf_of)
              | st.sampled_from(VARS).map(lambda v: (v, MultiPoly.variable(VARS, v))))

    def extend(trees):
        binary = st.tuples(trees, st.sampled_from("+-*"), trees).map(lambda t: (
            f"({t[0][0]}) {t[1]} ({t[2][0]})",
            {"+": t[0][1] + t[2][1], "-": t[0][1] - t[2][1], "*": t[0][1] * t[2][1]}[t[1]]))
        power = st.tuples(trees, st.integers(0, 3)).map(
            lambda t: (f"({t[0][0]})^{t[1]}", t[0][1] ** t[1]))
        return binary | power | trees.map(lambda t: (f"-({t[0]})", -t[1]))

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@settings(max_examples=300, deadline=None)
@given(expression_trees())
def test_parse_builds_what_polynomial_arithmetic_builds(tree):
    # Numbers fold as scalars, yet every term and its place in the dict, which
    # eval sums in order, match the tree built from constant polynomials.
    text, want = tree
    got = parse_poly(text, VARS)
    assert list(got.terms.items()) == list(want.terms.items()) and got.variables == VARS
    assert all(type(c) is Fraction for c in got.terms.values())


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


def test_nesting_up_to_the_limit_parses():
    x = MultiPoly.variable(VARS, "x")
    assert MAX_NESTING == 100
    assert parse_poly("(" * 100 + "x" + ")" * 100, VARS) == x
    assert parse_poly("-" * 100 + "x", VARS) == x
    assert parse_poly("-(" * 50 + "x" + ")" * 50, VARS) == x
    # Depth counts enclosing levels only; parentheses side by side do not add up.
    assert parse_poly(" + ".join(["(x)"] * 300), VARS) == 300 * x


@pytest.mark.parametrize("src", [
    "(" * 101 + "x" + ")" * 101,
    "-" * 101 + "x",
    "-(" * 50 + "-x" + ")" * 50,
    # These two used to end in a RecursionError.
    "(" * 400 + "x" + ")" * 400,
    "-" * 1200 + "x",
])
def test_nesting_past_the_limit_is_a_parse_error_at_that_token(src):
    with pytest.raises(ParseError) as exc:
        parse_poly(src, VARS)
    assert (exc.value.line, exc.value.column) == (1, 101)
    assert exc.value.message == "more than 100 nested '(' and unary '-'"


def nested_value(depth):
    """``depth`` lists and objects nested in each other, lists outermost."""
    opening = "".join("[" if j % 2 == 0 else "{a: " for j in range(depth))
    closing = "".join("]" if j % 2 == 0 else "}" for j in reversed(range(depth)))
    return opening + "1" + closing


def test_document_nesting_up_to_the_limit_parses():
    value = raw_document("points = " + "[" * 100 + "]" * 100)["points"][0]
    for _ in range(99):
        (value,) = value
    assert value == []
    value = raw_document("points = " + nested_value(100))["points"][0]
    for j in range(100):
        value = value[0] if j % 2 == 0 else value["a"]
    assert value == "1"


@pytest.mark.parametrize("src", [
    "points = " + "[" * 101 + "]" * 101,
    # This one used to end in a RecursionError.
    "points = " + "[" * 2000 + "]" * 2000,
    "points = " + nested_value(101),
    "points = " + nested_value(2000),
])
def test_document_nesting_past_the_limit_is_a_parse_error_at_that_bracket(src):
    with pytest.raises(ParseError) as exc:
        raw_document(src)
    # The value starts at column 10; the 101st bracket follows 100 brackets,
    # and in the mixed value 50 "a: " keys too.
    column = 10 + 100 + (50 * len("a: ") if "{" in src else 0)
    assert (exc.value.line, exc.value.column) == (1, column)
    assert exc.value.message == "more than 100 nested '[' and '{'"


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
    # The position comes from the bad character's offset: only "\n" starts a
    # line, and col0 counts on the first line alone.
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
        cut = rng.randrange(pos + 1)
        broken = mutated[:cut] + "\n" + mutated[cut:]  # a newline before the bad character
        line0, col0 = rng.randint(1, 9), rng.randint(1, 40)
        for text, offsets, position in [
            (mutated, (), (1, pos + 1)),
            (broken, (), (2, pos - cut + 1)),
            (mutated, (line0, col0), (line0, col0 + pos)),
            (broken, (line0, col0), (line0 + 1, pos - cut + 1)),
        ]:
            with pytest.raises(ParseError) as exc:
                parse_poly(text, VARS, *offsets)
            assert (exc.value.line, exc.value.column) == position
            assert exc.value.message == f"unexpected character {ch!r}"


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    with pytest.raises(SchemaError):
        parse_rational("a/b")
    with pytest.raises(SchemaError):
        parse_rational("1/0")


# Forms Fraction or int accept that the number grammar does not.
OUTSIDE_THE_GRAMMAR = ["1e5", "1E-3", "1e1000000", "1_0", "+1", "\u0661", "\u0662/\u0663",
                       ".5", "5.", "3 / 4", "- 3", "nan", ""]


@pytest.mark.parametrize("text, value", [("3", 3), ("-7", -7), (" 12\n", 12), ("007", 7)])
def test_parse_integer(text, value):
    assert parse_integer(text) == value


@pytest.mark.parametrize("text", OUTSIDE_THE_GRAMMAR + ["3/4", "0.5", "-2.0"])
def test_parse_integer_rejects_what_is_not_an_ascii_integer(text):
    with pytest.raises(ValueError, match="^invalid integer literal "):
        parse_integer(text)


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("-7", -7), ("3/4", Fraction(3, 4)), ("0.5", Fraction(1, 2)), ("-2.0", -2),
    (" -6/4 ", Fraction(-3, 2)), ("0.125", Fraction(1, 8)),
])
def test_parse_rational_reads_the_grammar(text, value):
    assert parse_rational(text) == value and type(parse_rational(text)) is Fraction


@pytest.mark.parametrize("text", OUTSIDE_THE_GRAMMAR)
def test_parse_rational_rejects_other_forms_before_building_a_fraction(monkeypatch, text):
    # "1e1000000" once built a 3.3-million-bit numerator before anything failed.
    monkeypatch.setattr(parse, "Fraction", lambda *_: pytest.fail("a Fraction was built"))
    message = f"bad rational literal {text!r}: Invalid literal for Fraction: {text.strip()!r}"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        parse_rational(text)


@pytest.mark.parametrize("text, readers", [
    ("1" * 4301, (parse_integer, parse_rational)),
    (" -" + "9" * 4301, (parse_integer, parse_rational)),
    ("1/" + "2" * 4300, (parse_rational,)),
    ("3" * 2150 + "." + "4" * 2151, (parse_rational,)),
])
def test_number_literals_past_the_digit_cap_are_refused_before_int_or_fraction(
        monkeypatch, text, readers):
    # The cap holds on Python 3.10 too, which has no int_max_str_digits.
    monkeypatch.setattr(parse, "Fraction", lambda *_: pytest.fail("a Fraction was built"))
    message = f"number literal '{text.strip()[:12]}...' has 4301 digits, more than 4300"
    for read in readers:
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            read(text)


def test_number_literals_at_the_digit_cap_are_read():
    assert parse.MAX_DIGITS == 4300
    assert parse_integer("7" * 4300) == int("7" * 4300)
    assert parse_rational("1/" + "3" * 4299) == Fraction(1, int("3" * 4299))
    assert parse_poly("7" * 4300 + "*x", VARS) == parse_poly("x", VARS) * int("7" * 4300)
    with pytest.raises(ParseError, match="^1:3: number literal '777777777777...' has 4301 "):
        parse_poly("x+" + "7" * 4301, VARS)


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
    assert doc.points == [SingularPoint(0, (Fraction(0), Fraction(0))),
                          SingularPoint(1, (Fraction(0), Fraction(0)))]
    assert all(type(c) is Fraction for p in doc.points for c in p.coords)
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


@pytest.mark.parametrize("names, column, entry", [
    ("z0, z1, a+b", 23, "a+b"),
    ("z0, z1, 1x", 23, "1x"),
    ("z0, z1, \u00e9", 23, "\u00e9"),
    ("z0, , z2", 19, ""),  # the empty entry starts at the comma after it
])
def test_field_vars_entries_must_be_identifiers(names, column, entry):
    # No polynomial could name such a variable; the entry is refused where it stands.
    with pytest.raises(ParseError) as exc:
        parse_problem(P2_SRC.replace("[z0, z1, z2]", f"[{names}]"))
    assert (exc.value.line, exc.value.column) == (3, column)
    assert exc.value.message == f"field.vars entry {entry!r} is not an identifier"


@pytest.mark.parametrize("value", [
    "[z0, z1, z2]",
    "[z0, , z2]",
    "[z0, z1, z2,]",
    "[\tz0,\tz1 ,\t z2\t]",
    "[z0, z1, z2]  # a comment, [with] {brackets}",
    "[z0, 1x]",
    "[ z0 ,1x, ] # [",
])
def test_a_flat_list_reads_as_a_nested_one_does(value):
    # A list with no bracket inside is split and read in place.  With a last
    # entry [] the same entries go through the bracket-counting split and one
    # _parse_value each; they must read the same, at the same columns, and a
    # problem file must report its error at the entry's column.
    items, _, comment = value.partition("#")
    inner = items.strip()[1:-1]
    nested = f"[{inner}{'' if inner.rstrip().endswith(',') else ','}[]]"
    flat_doc, nested_doc = (P2_SRC.replace("[z0, z1, z2]", v + (comment and "#" + comment))
                            for v in (items.rstrip(), nested))
    got, got_line, got_col = raw_document(flat_doc)["field.vars"]
    want, want_line, want_col = raw_document(nested_doc)["field.vars"]
    assert want[-1] == [] and (got_line, got_col) == (want_line, want_col)
    assert got == want[:-1] and all(type(v) is parse._Text for v in got)
    assert [v.column for v in got] == [v.column for v in want[:-1]]
    bad = [v for v in want[:-1] if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v)]
    if not bad and len(got) == 3:
        assert parse_problem(flat_doc).problem.variables == tuple(want[:-1])
        return
    with pytest.raises((ParseError, SchemaError)) as exc:
        parse_problem(flat_doc)
    if bad:
        assert (exc.value.line, exc.value.column) == (3, bad[0].column)
        assert exc.value.message == f"field.vars entry {str(bad[0])!r} is not an identifier"


def test_comments_and_blank_lines_ignored():
    doc = parse_problem("# header\n\n" + P2_SRC + "\n# trailing\n")
    assert doc.problem.n == 2
