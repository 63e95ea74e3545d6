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
at most MAX_DIGITS digits on every Python version, 3.10 too.  One regex
search refuses a character no token may hold or a longer literal, one
``findall`` reads the tokens as strings, and a ParseError's position is
computed from the offset only where one is raised.  A number stays an int
or a Fraction until it meets a variable; a product of numbers and variable
powers stays one (coefficient, exponents) pair until it meets a sum, a
polynomial or the end, then enters a term dict once through
``MultiPoly._of``, and a constant result becomes one ``MultiPoly.const``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import IDENT, MultiPoly, Scalar, SchemaError, quote
from .foliation import FoliationProblem, make_problem
from .residue import NumericConfig, SingularPoint


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{line}:{column}: {message}")

    @classmethod
    def at(cls, src: str, offset: int, line0: int, col0: int, message: str) -> "ParseError":
        """The error at ``src[offset]``, ``src`` starting at column ``col0`` of line ``line0``."""
        newline = src.rfind("\n", 0, offset)  # only "\n" starts a line
        column = offset - newline if newline >= 0 else col0 + offset
        return cls(line0 + src.count("\n", 0, offset), column, message)


# -- tokenizer -------------------------------------------------------------

MAX_NESTING = 100
MAX_DIGITS = 4300
# A character no token may hold, or a number literal (not inside an identifier) too long.
_REFUSED = re.compile(r"[^\sA-Za-z0-9+\-*^()/]|(?<![A-Za-z0-9])[0-9]{%d,}" % (MAX_DIGITS + 1))
_TOKEN = re.compile(rf"[0-9]+|{IDENT.pattern}|\S")


def _over_cap(text: str) -> str:
    """Past MAX_DIGITS digits, the literal's error, quoting only a prefix; else ''."""
    digits = len(re.findall("[0-9]", text)) if len(text) > MAX_DIGITS else 0  # TypeError on a list
    return (f"number literal '{text.strip()[:12]}...' has {digits} digits, more than "
            f"{MAX_DIGITS}") if digits > MAX_DIGITS else ""


def _tokenize(src: str, line0: int = 1, col0: int = 1) -> list[str]:
    """The tokens of ``src`` and "" for its end."""
    refused = _REFUSED.search(src)
    if refused:
        text = refused.group()
        raise ParseError.at(src, refused.start(), line0, col0,
                            _over_cap(text) if len(text) > 1 else f"unexpected character {text!r}")
    return _TOKEN.findall(src) + [""]


def _times(c: Scalar, d: Scalar) -> Scalar:
    """c*d, with no Fraction arithmetic where a factor is 1 (a variable's coefficient)."""
    return c if d == 1 else d if c == 1 else c * d


class _Parser:
    """Recursive descent over the tokens of ``src``; values as in the module docstring."""

    def __init__(self, src: str, variables: tuple[str, ...], line0: int, col0: int):
        self.src, self.variables, self.line0, self.col0 = src, variables, line0, col0
        self.tokens = _tokenize(src, line0, col0)
        self.pos = self.depth = 0  # depth: open "(" and unary "-" around the current token

    def error(self, index: int, message: str) -> ParseError:
        """``message`` at token ``index``; the last index is the end."""
        starts = [m.start() for m in _TOKEN.finditer(self.src)] + [len(self.src)]
        return ParseError.at(self.src, starts[index], self.line0, self.col0, message)

    def poly(self, value):
        """A pair as its one-term polynomial; any other value as it is."""
        if type(value) is tuple:
            c, exps = value
            return MultiPoly._of(self.variables, {exps: c if type(c) is Fraction else Fraction(c)})
        return value

    def expr(self) -> MultiPoly | Scalar | tuple:
        value = self.term()
        while self.tokens[self.pos] in ("+", "-"):
            op = self.tokens[self.pos]
            self.pos += 1
            rhs = self.poly(self.term())
            value = self.poly(value) + rhs if op == "+" else self.poly(value) - rhs
        return value

    def term(self) -> MultiPoly | Scalar | tuple:
        value = self.factor()
        while self.tokens[self.pos] == "*":
            self.pos += 1
            rhs = self.factor()
            if type(value) is MultiPoly or type(rhs) is MultiPoly:
                value = self.poly(value) * self.poly(rhs)
            elif type(value) is tuple:
                value = ((_times(value[0], rhs[0]), tuple(map(operator.add, value[1], rhs[1])))
                         if type(rhs) is tuple else (_times(value[0], rhs), value[1]))
            else:
                value = (_times(value, rhs[0]), rhs[1]) if type(rhs) is tuple else value * rhs
        return value

    def factor(self) -> MultiPoly | Scalar | tuple:
        base = self.base()
        if self.tokens[self.pos] == "^":
            self.pos += 1
            exponent = self.tokens[self.pos]
            if not exponent.isdigit():
                raise self.error(self.pos if exponent else self.pos - 1,  # at the end, the "^"
                                 "expected a non-negative integer exponent")
            self.pos += 1
            k = int(exponent)
            base = ((base[0] ** k, tuple(k * e for e in base[1])) if type(base) is tuple
                    else base ** k)
        return base

    def base(self) -> MultiPoly | Scalar | tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok.isdigit():
            if self.tokens[self.pos] != "/":
                return int(tok)
            den = self.tokens[self.pos + 1]
            if not den.isdigit():
                raise self.error(self.pos + 1, "expected an integer denominator")
            self.pos += 2
            if int(den) == 0:
                raise self.error(self.pos - 1, "zero denominator")
            return Fraction(int(tok), int(den))
        if tok.isalnum():
            if tok not in self.variables:
                raise self.error(self.pos - 1, f"unknown variable {quote(tok)}")
            unit, i = (0,) * len(self.variables), self.variables.index(tok)
            return 1, unit[:i] + (1,) + unit[i + 1:]
        if tok == "(" or tok == "-":
            if self.depth == MAX_NESTING:
                raise self.error(self.pos - 1, f"more than {MAX_NESTING} nested '(' and unary '-'")
            self.depth += 1
            value = self.expr() if tok == "(" else self.factor()
            self.depth -= 1
            if tok == "-":
                return (-value[0], value[1]) if type(value) is tuple else -value
            if self.tokens[self.pos] != ")":
                raise self.error(self.pos, "expected ')'")
            self.pos += 1
            return value
        if tok == "/":
            raise self.error(self.pos - 1, "division is only allowed inside a rational literal")
        raise self.error(self.pos - 1, "expected a number, variable, or '('")


def parse_poly(src: str, variables: Sequence[str], line0: int = 1, col0: int = 1) -> MultiPoly:
    """Parse an expression into a polynomial over the declared variables."""
    vs = tuple(variables)
    if not src.strip():
        raise ParseError(line0, col0, "empty expression")
    parser = _Parser(src, vs, line0, col0)
    value = parser.poly(parser.expr())
    if parser.tokens[parser.pos]:
        raise parser.error(parser.pos, "unexpected trailing input")
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
    ``depth`` lists and objects; at most MAX_NESTING of them nest.  A list with
    no bracket inside is split on its commas, and its scalars read in place."""
    column += len(text) - len(text.lstrip())
    text = text.strip()
    brackets = text[:1] + text[-1:]
    if brackets in ("[]", "{}") and depth == MAX_NESTING:
        raise ParseError(line, column, f"more than {MAX_NESTING} nested '[' and '{{'")
    if brackets == "[]":
        inner = text[1:-1]
        if "[" in inner or "]" in inner or "{" in inner or "}" in inner:
            return [_parse_value(part, line, col, depth + 1)
                    for part, col in _split_top_level(inner, column + 1)]
        items, column = [], column + 1
        for part in inner.split(","):
            items.append(_Text(part.strip(), column + len(part) - len(part.lstrip())))
            column += len(part) + 1
        return items if items[-1] else items[:-1]
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
    for v in (v for v in vars_value if not IDENT.fullmatch(v)):
        raise ParseError(vars_line, v.column, f"field.vars entry {quote(v)} is not an identifier")
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
