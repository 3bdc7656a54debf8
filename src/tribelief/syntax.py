"""Formula language: AST nodes, parser and printer.

Connectives are ``~`` (negation), ``&`` (conjunction), ``|`` (disjunction),
``->`` (implication) and the four plausibility-shift modalities ``<>1``,
``[]1``, ``<>2``, ``[]2``.  ``bot`` is the always-false constant and
variables are written ``x0``, ``x1``, ...

Unary operators bind tightest, then ``&``, then ``|``, then ``->``.  The
binary connectives ``&`` and ``|`` associate to the left, ``->`` to the
right.  ``render`` emits minimal parentheses and round-trips through
``parse``.
"""

from dataclasses import dataclass


class FormulaSyntaxError(ValueError):
    """Malformed formula text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class for formula nodes; nodes are immutable and compare structurally."""

    def __invert__(self) -> "Not":
        return Not(self)

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Var(Formula):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be non-negative")


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Dia1(Formula):
    operand: Formula


@dataclass(frozen=True)
class Box1(Formula):
    operand: Formula


@dataclass(frozen=True)
class Dia2(Formula):
    operand: Formula


@dataclass(frozen=True)
class Box2(Formula):
    operand: Formula


@dataclass(frozen=True)
class _Token:
    kind: str
    value: int | None
    position: int


_UNARY_NODES = {"~": Not, "<>1": Dia1, "[]1": Box1, "<>2": Dia2, "[]2": Box2}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, end = 0, len(text)
    while i < end:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "&|()~":
            tokens.append(_Token(c, None, i))
            i += 1
            continue
        if c == "-":
            if text[i : i + 2] == "->":
                tokens.append(_Token("->", None, i))
                i += 2
                continue
            raise FormulaSyntaxError("expected '->'", i)
        if c in "<[":
            lexeme = text[i : i + 3]
            if lexeme in _UNARY_NODES:
                tokens.append(_Token(lexeme, None, i))
                i += 3
                continue
            raise FormulaSyntaxError(f"unknown operator {lexeme!r}", i)
        if c.isalpha():
            j = i
            while j < end and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "bot":
                tokens.append(_Token("bot", None, i))
                i = j
                continue
            if word == "x":
                k = j
                while k < end and text[k].isdigit():
                    k += 1
                if k == j:
                    raise FormulaSyntaxError("variable index must be a decimal integer", j)
                tokens.append(_Token("var", int(text[j:k]), i))
                i = k
                continue
            raise FormulaSyntaxError(f"unknown word {word!r}", i)
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", None, end))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "end":
            self._pos += 1
        return token

    def formula(self) -> Formula:
        left = self.disjunction()
        if self._peek().kind == "->":
            self._advance()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        expr = self.conjunction()
        while self._peek().kind == "|":
            self._advance()
            expr = Or(expr, self.conjunction())
        return expr

    def conjunction(self) -> Formula:
        expr = self.unary()
        while self._peek().kind == "&":
            self._advance()
            expr = And(expr, self.unary())
        return expr

    def unary(self) -> Formula:
        token = self._peek()
        node = _UNARY_NODES.get(token.kind)
        if node is not None:
            self._advance()
            return node(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        token = self._advance()
        if token.kind == "bot":
            return Bot()
        if token.kind == "var":
            return Var(token.value)
        if token.kind == "(":
            inner = self.formula()
            closing = self._advance()
            if closing.kind != ")":
                raise FormulaSyntaxError("expected ')'", closing.position)
            return inner
        if token.kind == "end":
            raise FormulaSyntaxError("unexpected end of input", token.position)
        raise FormulaSyntaxError(f"unexpected {token.kind!r}", token.position)


def parse(text: str) -> Formula:
    """Parse formula text into its AST, raising FormulaSyntaxError on bad input."""
    parser = _Parser(_tokenize(text))
    result = parser.formula()
    trailing = parser._peek()
    if trailing.kind != "end":
        raise FormulaSyntaxError(f"unexpected {trailing.kind!r} after formula", trailing.position)
    return result


_PREC_UNARY = 4

_UNARY_PREFIXES = {node: lexeme if lexeme == "~" else lexeme + " " for lexeme, node in _UNARY_NODES.items()}

# symbol, precedence, and whether the connective associates to the right
_BINARY_SYNTAX = {And: (" & ", 3, False), Or: (" | ", 2, False), Implies: (" -> ", 1, True)}


def render(formula: Formula) -> str:
    """Minimally parenthesized text; ``parse(render(f)) == f``."""
    return _render(formula, 0)


def _render(formula: Formula, min_prec: int) -> str:
    if isinstance(formula, Bot):
        return "bot"
    if isinstance(formula, Var):
        return f"x{formula.index}"
    prefix = _UNARY_PREFIXES.get(type(formula))
    if prefix is not None:
        return _wrap(prefix + _render(formula.operand, _PREC_UNARY), _PREC_UNARY, min_prec)
    binary = _BINARY_SYNTAX.get(type(formula))
    if binary is not None:
        symbol, prec, right_assoc = binary
        left = _render(formula.left, prec + 1 if right_assoc else prec)
        right = _render(formula.right, prec if right_assoc else prec + 1)
        return _wrap(left + symbol + right, prec, min_prec)
    raise TypeError(f"not a formula node: {formula!r}")


def _wrap(text: str, prec: int, min_prec: int) -> str:
    return f"({text})" if prec < min_prec else text
