"""Formula language: AST nodes, parser and printer.

Connectives are ``~`` (negation), ``&`` (conjunction), ``|`` (disjunction),
``->`` (implication) and the four plausibility-shift modalities ``<>1``,
``[]1``, ``<>2``, ``[]2``.  ``bot`` is the always-false constant and
variables are written ``x0``, ``x1``, ...

Unary operators bind tightest, then ``&``, then ``|``, then ``->``.  The
binary connectives ``&`` and ``|`` associate to the left, ``->`` to the
right.  ``render`` emits minimal parentheses and round-trips through
``parse``.

Formula nodes are hash-consed: structurally equal formulas are one object,
so ``==`` and ``hash`` are identity and a cache keyed by node hits every
copy of a subformula, wherever and whenever it was built.
"""

import operator
import weakref
from dataclasses import dataclass


class FormulaSyntaxError(ValueError):
    """Malformed formula text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class for formula nodes.

    Nodes are immutable and hash-consed: each constructor looks its
    arguments up in one weak unique table, so structurally equal formulas
    are the same object, and ``==`` and ``hash`` are identity, O(1) at any
    depth.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        # copy, deepcopy and unpickling rebuild through the constructor,
        # which hands back the interned node
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __invert__(self) -> "Not":
        return Not(self)

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __str__(self) -> str:
        return render(self)


# The unique table: (class, id of each child) or (Var, index) -> a weak
# reference to the one live node with that content.  A live node keeps its
# children alive, so the ids in its key cannot be reused while it lives.
# The references carry no callback, which keeps a new node cheap: a dead
# entry is overwritten when its key comes up again, and all dead entries are
# purged whenever the table has doubled since the last purge.
_UNIQUE: dict[tuple, weakref.ref] = {}
_PURGE_FLOOR = 1024
_purge_at = _PURGE_FLOOR


def _absent() -> None:
    return None


def _new_node(cls: type, key: tuple) -> Formula:
    """An empty node of ``cls``, entered in the unique table under ``key``.

    Constructors look their key up inline, since a hit is the common case;
    on a miss they call this and then set the new node's fields.
    """
    global _purge_at
    node = object.__new__(cls)
    _UNIQUE[key] = weakref.ref(node)
    if len(_UNIQUE) >= _purge_at:
        for dead in [k for k, ref in _UNIQUE.items() if ref() is None]:
            del _UNIQUE[dead]
        _purge_at = max(2 * len(_UNIQUE), _PURGE_FLOOR)
    return node


class Bot(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        return _UNIQUE.get(key, _absent)() or _new_node(cls, key)


class Var(Formula):
    __slots__ = _fields = ("index",)

    def __new__(cls, index: int):
        index = operator.index(index)
        key = (cls, index)
        node = _UNIQUE.get(key, _absent)()
        if node is None:
            if index < 0:
                raise ValueError("variable index must be non-negative")
            node = _new_node(cls, key)
            object.__setattr__(node, "index", index)
        return node


class _Unary(Formula):
    __slots__ = _fields = ("operand",)

    def __new__(cls, operand: Formula):
        key = (cls, id(operand))
        node = _UNIQUE.get(key, _absent)()
        if node is None:
            node = _new_node(cls, key)
            object.__setattr__(node, "operand", operand)
        return node


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, id(left), id(right))
        node = _UNIQUE.get(key, _absent)()
        if node is None:
            node = _new_node(cls, key)
            object.__setattr__(node, "left", left)
            object.__setattr__(node, "right", right)
        return node


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Dia1(_Unary):
    __slots__ = ()


class Box1(_Unary):
    __slots__ = ()


class Dia2(_Unary):
    __slots__ = ()


class Box2(_Unary):
    __slots__ = ()


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
