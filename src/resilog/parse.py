"""Text front end: polynomial grammar, canonical printing, and problem files.

Grammar (whitespace insignificant, identifiers must be declared variables):

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" nat)?
    base   := rat | ident | "(" expr ")" | "-" factor
    rat    := int ("/" nat)?

There are no floating literals and no division except inside a rational
literal; implicit multiplication ("3x") is rejected.  Unary minus binds
looser than "^", so "-x^2" is -(x^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Sequence

from .algebra import MultiPoly


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str, snippet: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.snippet = snippet
        super().__init__(f"{line}:{column}: {message}" + (f" near {snippet!r}" if snippet else ""))


class SchemaError(Exception):
    """Structurally valid document with a missing or malformed field."""


# -- tokenizer -------------------------------------------------------------

_OPS = "+-*^()/"


@dataclass
class _Token:
    kind: str  # "int", "ident", or one of _OPS, or "end"
    text: str
    line: int
    column: int


def _tokenize(src: str, line0: int = 1, col0: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = line0, col0
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and (src[j].isalnum()):
                j += 1
            tokens.append(_Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}", ch)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, tok: _Token, message: str):
        raise ParseError(tok.line, tok.column, message, tok.text)

    def expr(self) -> MultiPoly:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self) -> MultiPoly:
        value = self.factor()
        while self.peek().kind == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> MultiPoly:
        base = self.base()
        if self.peek().kind == "^":
            caret = self.take()
            tok = self.peek()
            if tok.kind != "int":
                self.fail(tok if tok.kind != "end" else caret, "expected a non-negative integer exponent")
            self.take()
            base = base ** int(tok.text)
        return base

    def base(self) -> MultiPoly:
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
                return MultiPoly.const(self.variables, Fraction(num, int(den_tok.text)))
            return MultiPoly.const(self.variables, num)
        if tok.kind == "ident":
            self.take()
            if tok.text not in self.variables:
                self.fail(tok, f"unknown variable {tok.text!r}")
            return MultiPoly.variable(self.variables, tok.text)
        if tok.kind == "(":
            self.take()
            value = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                self.fail(closing, "expected ')'")
            self.take()
            return value
        if tok.kind == "-":
            self.take()
            return -self.factor()
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
    return value


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

@dataclass
class ProblemDocument:
    """Parsed problem file: the foliation problem plus optional blocks."""

    problem: "FoliationProblem"  # noqa: F821 (imported lazily below)
    points: list[dict] = field(default_factory=list)
    numeric: dict = field(default_factory=dict)


def _split_top_level(text: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_value(text: str, line: int):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        return [_parse_value(part, line) for part in _split_top_level(text[1:-1])]
    if text.startswith("{") and text.endswith("}"):
        obj = {}
        for part in _split_top_level(text[1:-1]):
            if ":" not in part:
                raise ParseError(line, 1, f"expected 'key: value' in object, got {part!r}", part)
            key, _, val = part.partition(":")
            obj[key.strip()] = _parse_value(val, line)
        return obj
    return text  # leave scalars as strings; consumers interpret them


def raw_document(src: str) -> dict[str, tuple[object, int]]:
    doc: dict[str, tuple[object, int]] = {}
    for lineno, raw in enumerate(src.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(lineno, 1, "expected 'key = value'", stripped)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(lineno, 1, "missing key before '='", stripped)
        doc[key] = (_parse_value(value, lineno), lineno)
    return doc


def parse_rational(text: str) -> Fraction:
    """Parse 'p', '-p', or 'p/q' into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {text!r}: {exc}") from None


def numeric_value(name: str, value):
    """A ``numeric.<name>`` override typed like the NumericConfig field ``name``;
    a tuple field takes a list or a comma-separated string of its length."""
    from .residue import NumericConfig  # local import to avoid a cycle

    defaults = {f.name: f.default for f in fields(NumericConfig)}
    if name not in defaults:
        raise SchemaError(f"unknown numeric option {name!r}")
    default = defaults[name]
    try:
        if not isinstance(default, tuple):
            return type(default)(value)
        parts = value.split(",") if isinstance(value, str) else value
        if len(parts) == len(default):
            return tuple(float(x) for x in parts)
    except (TypeError, ValueError):
        pass
    raise SchemaError(f"bad numeric value for {name!r}: {value!r}")


def parse_points(value, line: int, n: int) -> list[dict]:
    """Validated {chart, coords} entries of a ``points`` value on P^n."""
    if not isinstance(value, list):
        raise ParseError(line, 1, "points must be a list of {chart, coords} objects")
    points = []
    for entry in value:
        if not isinstance(entry, dict) or "chart" not in entry or "coords" not in entry:
            raise SchemaError(f"point entry needs 'chart' and 'coords': {entry!r}")
        chart = int(entry["chart"])
        coords = [parse_rational(str(c)) for c in entry["coords"]]
        if len(coords) != n:
            raise SchemaError(
                f"point in chart {chart} has {len(coords)} coordinates, expected {n}"
            )
        points.append({"chart": chart, "coords": coords})
    return points


def parse_problem(src: str) -> ProblemDocument:
    """Parse a problem file into a FoliationProblem plus optional blocks.

    Required keys: space.dim, field.vars, field.components, divisor.
    Optional: points (list of {chart, coords}) and numeric.* overrides.
    """
    from .foliation import make_problem  # local import to avoid a cycle

    doc = raw_document(src)

    def require(key: str):
        if key not in doc:
            raise SchemaError(f"missing required field {key!r}")
        return doc[key]

    dim_text, dim_line = require("space.dim")
    try:
        n = int(dim_text)
    except (TypeError, ValueError):
        raise ParseError(dim_line, 1, f"space.dim must be an integer, got {dim_text!r}") from None
    if n < 1:
        raise SchemaError(f"space.dim must be at least 1, got {n}")

    vars_value, vars_line = require("field.vars")
    if not isinstance(vars_value, list) or not all(isinstance(v, str) for v in vars_value):
        raise ParseError(vars_line, 1, "field.vars must be a list of identifiers")
    variables = tuple(v for v in vars_value)
    if len(variables) != n + 1:
        raise SchemaError(
            f"field.vars has {len(variables)} entries, expected space.dim+1 = {n + 1}"
        )
    if len(set(variables)) != len(variables):
        raise SchemaError("field.vars contains duplicate names")

    comp_value, comp_line = require("field.components")
    if not isinstance(comp_value, list):
        raise ParseError(comp_line, 1, "field.components must be a list of polynomials")
    if len(comp_value) != n + 1:
        raise SchemaError(
            f"field.components has {len(comp_value)} entries, expected {n + 1}"
        )
    components = tuple(parse_poly(str(c), variables, line0=comp_line) for c in comp_value)

    divisor_text, divisor_line = require("divisor")
    divisor = parse_poly(str(divisor_text), variables, line0=divisor_line)

    points = parse_points(*doc["points"], n) if "points" in doc else []

    numeric: dict = {}
    for key, (value, _line) in doc.items():
        if key.startswith("numeric."):
            name = key[len("numeric."):]
            numeric[name] = numeric_value(name, value)

    problem = make_problem(variables, components, divisor)
    return ProblemDocument(problem=problem, points=points, numeric=numeric)
