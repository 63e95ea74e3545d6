"""Text front end: polynomial grammar, canonical printing, and problem files.

Grammar (whitespace insignificant, identifiers must be declared variables):

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" nat)?
    base   := rat | ident | "(" expr ")" | "-" factor
    rat    := int ("/" nat)?

Digits and identifiers are ASCII (an identifier is a letter followed by
letters and digits); any other character that is not whitespace, a
non-ASCII digit too, is a ParseError at its position.  There are no
floating literals and no division except inside a rational literal;
implicit multiplication ("3x") is rejected.  Unary minus binds looser than
"^", so "-x^2" is -(x^2).  "(" and unary "-" nest at most MAX_NESTING deep,
and so do the "[" and "{" of a document value, and a number literal has
at most MAX_DIGITS digits on every Python version, 3.10 too.  A number
stays an int or a Fraction until it meets a variable; ``parse_poly`` wraps
a constant result in ``MultiPoly.const`` once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import MultiPoly, Scalar, SchemaError, clip
from .foliation import FoliationProblem, make_problem
from .residue import NumericConfig, SingularPoint


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{line}:{column}: {message}")


# -- tokenizer -------------------------------------------------------------

_OPS = "+-*^()/"
_DIGITS = "0123456789"
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_NAME_CHARS = _LETTERS + _DIGITS
MAX_NESTING = 100
MAX_DIGITS = 4300


def quote(value) -> str:
    """``repr(value)``, for every message that echoes input; past 40 characters (of the
    repr of a value that is not a string), ``clip``'s form."""
    text = value if isinstance(value, str) else repr(value)
    return repr(value) if len(text) <= 40 else clip(text)


def _over_cap(text: str) -> str:
    """Past MAX_DIGITS digits, the literal's error, quoting only a prefix; else ''."""
    digits = len(re.findall("[0-9]", text)) if len(text) > MAX_DIGITS else 0  # TypeError on a list
    return (f"number literal '{text.strip()[:12]}...' has {digits} digits, more than "
            f"{MAX_DIGITS}") if digits > MAX_DIGITS else ""


class _Token(NamedTuple):
    """One token with the 1-based line and column where it starts."""

    kind: str  # "int", "ident", or one of _OPS, or "end"
    text: str
    line: int
    column: int


def _tokenize(src: str, line0: int = 1, col0: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = line0, col0, 0
    while i < len(src):
        ch, j = src[i], i + 1
        if ch in _DIGITS:
            kind = "int"
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(line, col, _over_cap(src[i:j]))
        elif ch in _LETTERS:
            kind = "ident"
            while j < len(src) and src[j] in _NAME_CHARS:
                j += 1
        elif ch in _OPS:
            kind = ch
        elif ch.isspace():
            line, col, i = (line + 1, 1, j) if ch == "\n" else (line, col + 1, j)
            continue
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}")
        tokens.append(_Token(kind, src[i:j], line, col))
        col += j - i
        i = j
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.depth = 0  # open "(" and unary "-" around the current token

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, tok: _Token, message: str):
        raise ParseError(tok.line, tok.column, message)

    def expr(self) -> MultiPoly | Scalar:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self) -> MultiPoly | Scalar:
        value = self.factor()
        while self.peek().kind == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> MultiPoly | Scalar:
        base = self.base()
        if self.peek().kind == "^":
            caret = self.take()
            tok = self.peek()
            if tok.kind != "int":
                self.fail(tok if tok.kind != "end" else caret, "expected a non-negative integer exponent")
            self.take()
            base = base ** int(tok.text)
        return base

    def base(self) -> MultiPoly | Scalar:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.take()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    self.fail(den_tok, "expected an integer denominator")
                self.take()
                if int(den_tok.text) == 0:
                    self.fail(den_tok, "zero denominator")
                return Fraction(num, int(den_tok.text))
            return num
        if tok.kind == "ident":
            self.take()
            if tok.text not in self.variables:
                self.fail(tok, f"unknown variable {quote(tok.text)}")
            return MultiPoly.variable(self.variables, tok.text)
        if tok.kind in ("(", "-"):
            self.take()
            if self.depth == MAX_NESTING:
                self.fail(tok, f"more than {MAX_NESTING} nested '(' and unary '-'")
            self.depth += 1
            value = self.expr() if tok.kind == "(" else -self.factor()
            self.depth -= 1
            if tok.kind == "-":
                return value
            closing = self.peek()
            if closing.kind != ")":
                self.fail(closing, "expected ')'")
            self.take()
            return value
        if tok.kind == "/":
            self.fail(tok, "division is only allowed inside a rational literal")
        self.fail(tok, "expected a number, variable, or '('")
        raise AssertionError("unreachable")


def parse_poly(src: str, variables: Sequence[str], line0: int = 1, col0: int = 1) -> MultiPoly:
    """Parse an expression into a polynomial over the declared variables."""
    vs = tuple(variables)
    if not src.strip():
        raise ParseError(line0, col0, "empty expression")
    parser = _Parser(_tokenize(src, line0, col0), vs)
    value = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        parser.fail(trailing, "unexpected trailing input")
    return value if isinstance(value, MultiPoly) else MultiPoly.const(vs, value)


# -- canonical printing ----------------------------------------------------

def _monomial_str(variables: tuple[str, ...], exps: tuple[int, ...]) -> str:
    parts = []
    for v, e in zip(variables, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def print_poly(p: MultiPoly) -> str:
    """Deterministic rendering: lex term order, explicit '*' and '^'."""
    if p.is_zero:
        return "0"
    pieces = []
    for exps in sorted(p.terms, reverse=True):
        coeff = p.terms[exps]
        mono = _monomial_str(p.variables, exps)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)


# -- problem documents -----------------------------------------------------

class ProblemDocument(NamedTuple):
    """Parsed problem file: the foliation problem plus optional blocks."""

    problem: FoliationProblem
    points: list[SingularPoint]
    numeric: dict


class _Text(str):
    """A scalar of a document: its text, and the 1-based column where it starts."""

    def __new__(cls, text: str, column: int):
        self = super().__new__(cls, text)
        self.column = column
        return self


def _split_top_level(text: str, column: int) -> list[tuple[str, int]]:
    """The comma-separated parts of ``text`` outside brackets, each with the
    column where it starts, ``text`` starting at ``column``; an empty last
    part is dropped."""
    parts = []
    depth = start = 0
    for j, ch in enumerate(text):
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append((text[start:j], column + start))
            start = j + 1
    if text[start:].strip():
        parts.append((text[start:], column + start))
    return parts


def _parse_value(text: str, line: int, column: int, depth: int = 0):
    """A list, an object, or a scalar ``_Text`` (consumers interpret
    scalars), from ``text`` starting at ``column`` of ``line``, inside
    ``depth`` lists and objects; at most MAX_NESTING of them nest."""
    column += len(text) - len(text.lstrip())
    text = text.strip()
    brackets = text[:1] + text[-1:]
    if brackets in ("[]", "{}") and depth == MAX_NESTING:
        raise ParseError(line, column, f"more than {MAX_NESTING} nested '[' and '{{'")
    if brackets == "[]":
        return [_parse_value(part, line, col, depth + 1)
                for part, col in _split_top_level(text[1:-1], column + 1)]
    if brackets == "{}":
        obj = {}
        for part, col in _split_top_level(text[1:-1], column + 1):
            key, colon, val = part.partition(":")
            if not colon:
                col += len(part) - len(part.lstrip())
                raise ParseError(line, col, f"expected 'key: value' in object, got "
                                            f"{quote(part.strip())}")
            obj[key.strip()] = _parse_value(val, line, col + len(key) + 1, depth + 1)
        return obj
    return _Text(text, column)


def raw_document(src: str) -> dict[str, tuple[object, int, int]]:
    """Each key of a ``key = value`` document with its value (``_parse_value``),
    the value's line and the column where the value starts."""
    doc: dict[str, tuple[object, int, int]] = {}
    for lineno, raw in enumerate(src.splitlines(), start=1):
        text = raw.split("#", 1)[0]
        stripped = text.strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(lineno, 1, "expected 'key = value'")
        key, _, value = text.partition("=")
        if not key.strip():
            raise ParseError(lineno, 1, "missing key before '='")
        column = len(key) + 2 + len(value) - len(value.lstrip())
        doc[key.strip()] = (_parse_value(value.lstrip(), lineno, column), lineno, column)
    return doc


def parse_integer(text: str) -> int:
    """'-?D+' in ASCII digits, whitespace around it ignored; else ValueError
    (first a SchemaError past MAX_DIGITS digits, which no caller rewords)."""
    if message := _over_cap(text):
        raise SchemaError(message)
    if not re.fullmatch(r"\s*-?[0-9]+\s*", text):
        raise ValueError(f"invalid integer literal {quote(text)}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """'p', '-p', 'p/q' or the decimal 'p.q' in ASCII digits, whitespace around
    it ignored, as a Fraction; any other form (an exponent, '+', '_') fails
    before a Fraction is built, with Fraction's own message; past MAX_DIGITS
    digits, whatever the form, with ``_over_cap``'s."""
    if message := _over_cap(text):
        raise SchemaError(message)
    try:
        if not re.fullmatch(r"\s*-?[0-9]+(/[0-9]+|\.[0-9]+)?\s*", text):
            raise ValueError(f"Invalid literal for Fraction: {quote(text.strip())}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {quote(text)}: {exc}") from None


def numeric_value(name: str, value):
    """A ``numeric.<name>`` key or ``--<name>`` flag typed like the NumericConfig
    field ``name``; a tuple field takes a list or a comma-separated string of
    its length.  The one typing path for numeric inputs."""
    defaults = NumericConfig._field_defaults
    if name not in defaults:
        raise SchemaError(f"unknown numeric option {quote(name)}")
    default = defaults[name]
    try:
        if not isinstance(default, tuple):
            return parse_integer(value) if isinstance(default, int) else float(value)
        parts = value.split(",") if isinstance(value, str) else value
        if len(parts) == len(default):
            return tuple(float(x) for x in parts)
    except (TypeError, ValueError):
        pass
    raise SchemaError(f"bad numeric value for {name!r}: {quote(value)}")


def parse_points(value, line: int, column: int, n: int) -> list[SingularPoint]:
    """Validated {chart, coords} entries of a ``points`` value on P^n, the value
    starting at ``column`` of ``line``, as bare SingularPoint(chart, coords).
    Each error is a ParseError at the scalar it is about, else at the value."""
    if not isinstance(value, list):
        raise ParseError(line, column, "points must be a list of {chart, coords} objects")
    points = []
    for entry in value:
        if not (isinstance(entry, dict) and isinstance(entry.get("chart"), str)
                and isinstance(entry.get("coords"), list)):
            raise ParseError(line, getattr(entry, "column", column), "point entry needs "
                             f"'chart' (scalar) and 'coords' (list): {quote(entry)}")
        at_chart = getattr(entry["chart"], "column", column)
        try:
            chart = parse_integer(entry["chart"])
        except ValueError:
            raise ParseError(line, at_chart, "point chart must be an integer, got "
                             f"{quote(entry['chart'])}") from None
        coords = []
        for c in entry["coords"]:  # a nested list has no column: report the chart's
            try:
                coords.append(parse_rational(str(c)))
            except SchemaError as exc:
                raise ParseError(line, getattr(c, "column", at_chart), str(exc)) from None
        if len(coords) != n:
            raise ParseError(line, at_chart,
                             f"point in chart {chart} has {len(coords)} coordinates, expected {n}")
        points.append(SingularPoint(chart, tuple(coords)))
    return points


def parse_problem(src: str) -> ProblemDocument:
    """Parse a problem file into a FoliationProblem plus optional blocks.

    Required keys: space.dim, field.vars, field.components, divisor.
    Optional: points (list of {chart, coords}) and numeric.* overrides.
    """
    doc = raw_document(src)

    def require(key: str):
        if key not in doc:
            raise SchemaError(f"missing required field {key!r}")
        return doc[key]

    dim_text, dim_line, dim_col = require("space.dim")
    try:
        n = parse_integer(dim_text)
    except (TypeError, ValueError):
        raise ParseError(dim_line, dim_col,
                         f"space.dim must be an integer, got {quote(dim_text)}") from None
    if n < 1:
        raise SchemaError(f"space.dim must be at least 1, got {n}")

    vars_value, vars_line, vars_col = require("field.vars")
    if not isinstance(vars_value, list) or not all(isinstance(v, str) for v in vars_value):
        raise ParseError(vars_line, vars_col, "field.vars must be a list of identifiers")
    variables = tuple(str(v) for v in vars_value)
    if len(variables) != n + 1:
        raise SchemaError(
            f"field.vars has {len(variables)} entries, expected space.dim+1 = {n + 1}"
        )
    if len(set(variables)) != len(variables):
        raise SchemaError("field.vars contains duplicate names")

    comp_value, comp_line, comp_col = require("field.components")
    if not isinstance(comp_value, list) or not all(isinstance(c, str) for c in comp_value):
        raise ParseError(comp_line, comp_col, "field.components must be a list of polynomials")
    components = tuple(parse_poly(c, variables, comp_line, c.column) for c in comp_value)

    divisor_text, divisor_line, divisor_col = require("divisor")
    divisor = parse_poly(str(divisor_text), variables, divisor_line, divisor_col)

    points = parse_points(*doc["points"], n) if "points" in doc else []

    numeric: dict = {}
    for key, (value, _, _) in doc.items():
        if key.startswith("numeric."):
            name = key[len("numeric."):]
            numeric[name] = numeric_value(name, value)

    problem = make_problem(variables, components, divisor)
    return ProblemDocument(problem=problem, points=points, numeric=numeric)
