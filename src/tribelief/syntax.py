"""Formula language: AST nodes, parser and printer.

Connectives are ``~`` (negation), ``&`` (conjunction), ``|`` (disjunction),
``->`` (implication) and the four plausibility-shift modalities ``<>1``,
``[]1``, ``<>2``, ``[]2``.  ``bot`` is the always-false constant and
variables are ``x`` followed by ASCII decimal digits: ``x0``, ``x1``, ...

Unary operators bind tightest, then ``&``, then ``|``, then ``->``.  The
binary connectives ``&`` and ``|`` associate to the left, ``->`` to the
right.  ``render`` emits minimal parentheses and round-trips through
``parse``.

Formula nodes are hash-consed: structurally equal formulas are one object,
so ``==`` and ``hash`` are identity and a cache keyed by node hits every
copy of a subformula, wherever and whenever it was built.
"""

import operator
import re
import weakref
from collections.abc import Iterator


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
        # copy, deepcopy and unpickling rebuild through the constructors,
        # which hand back the interned node; the plan lists each distinct
        # node once, after its children, so it is flat and as small as the DAG
        position: dict[Formula, int] = {}
        plan: list[tuple] = []
        work: list[Formula] = [self]
        while work:
            node = work[-1]
            if node in position:
                work.pop()
                continue
            values = [getattr(node, name) for name in node._fields]
            waiting = [v for v in values if isinstance(v, Formula) and v not in position]
            if waiting:
                work.extend(waiting)
                continue
            work.pop()
            position[node] = len(plan)
            plan.append((type(node), *(position[v] if isinstance(v, Formula) else v for v in values)))
        return _rebuild, (plan,)

    def __repr__(self) -> str:
        pieces: list[str] = []
        work: list = [self]  # text, or a node still to write
        while work:
            item = work.pop()
            if isinstance(item, str):
                pieces.append(item)
                continue
            pieces.append(f"{type(item).__name__}(")
            fields: list = []
            for name in item._fields:
                value = getattr(item, name)
                fields.append(f", {name}=" if fields else f"{name}=")
                fields.append(value if isinstance(value, Formula) else repr(value))
            work.append(")")
            work.extend(reversed(fields))
        return "".join(pieces)

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


def _rebuild(plan: list[tuple]) -> Formula:
    """The node a ``Formula.__reduce__`` plan describes: its last entry."""
    built: list[Formula] = []
    for cls, *args in plan:
        built.append(cls(*args) if cls is Var else cls(*(built[k] for k in args)))
    return built[-1]


class Bot(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        return _UNIQUE.get(key, _absent)() or _new_node(cls, key)


class Var(Formula):
    __slots__ = _fields = ("index",)

    def __new__(cls, index: int):
        if index.__class__ is bool:  # operator.index reads True as 1, which would hit x1's entry
            raise TypeError("'bool' object cannot be interpreted as a variable index")
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


_UNARY_NODES = {"~": Not, "<>1": Dia1, "[]1": Box1, "<>2": Dia2, "[]2": Box2}


def parse(text: str) -> Formula:
    """Parse formula text into its AST, raising FormulaSyntaxError on bad input.

    One ``findall`` splits the whole text into lexemes before parsing
    starts, so a lexical error anywhere is reported ahead of an earlier
    grammar error.  One operator-precedence loop over explicit stacks then
    dispatches on the lexeme strings, so nesting depth is bounded by memory
    alone.  Positions are worked out only for an error.
    """
    operands: list[Formula] = []
    pending = [_OPEN]  # connectives and open parentheses not yet applied
    lexemes = _LEXEME.findall(text)
    tokens = iter(lexemes)
    atoms = {"bot": Bot()}  # the node of each atom lexeme read so far
    # the outer loop reads where an operand starts, the inner one what follows it
    for lexeme in tokens:
        prefix = _PREFIX_TOKENS.get(lexeme)
        if prefix is not None:
            pending.append(prefix)
            continue
        atom = atoms.get(lexeme)
        if atom is None:
            # a variable is the one lexeme left whose tail is a run of digits
            try:
                atom = atoms[lexeme] = Var(int(lexeme[1:]))
            except ValueError:
                message = "unexpected {!r}" if lexeme else "unexpected end of input"
                raise _syntax_error(text, lexemes, tokens, message) from None
        operands.append(atom)
        for lexeme in tokens:
            binary = _BINARY_TOKENS.get(lexeme, _CLOSE)
            # apply what binds at least as tightly as the connective just read requires
            while pending[-1][1] >= binary[2]:
                applied, applied_prec, _ = pending.pop()
                if applied_prec == _PREC_UNARY:
                    operands[-1] = applied(operands[-1])
                else:
                    right = operands.pop()
                    operands[-1] = applied(operands[-1], right)
            if binary is not _CLOSE:
                pending.append(binary)
                break
            if len(pending) > 1:
                if lexeme != ")":
                    raise _syntax_error(text, lexemes, tokens, "expected ')'")
                pending.pop()
            elif not lexeme:  # the end
                return operands[0]
            else:
                raise _syntax_error(text, lexemes, tokens, "unexpected {!r} after formula")


_PREC_UNARY = 4

_UNARY_PREFIXES = {node: lexeme if lexeme == "~" else lexeme + " " for lexeme, node in _UNARY_NODES.items()}

# symbol, precedence, and whether the connective associates to the right;
# the printer reads it directly, the parser through _BINARY_TOKENS
_BINARY_SYNTAX = {And: (" & ", 3, False), Or: (" | ", 2, False), Implies: (" -> ", 1, True)}

# the parser's entry for each binary connective: its node, its precedence, and
# the least precedence a pending connective needs to be applied before it
_BINARY_TOKENS = {
    symbol.strip(): (node, prec, prec + 1 if right else prec) for node, (symbol, prec, right) in _BINARY_SYNTAX.items()
}

# The parser's mark for the bottom of its stack and each open parenthesis.
# Any other lexeme read after an operand acts as _CLOSE: it applies every
# connective above the mark.
_OPEN = _CLOSE = (None, 0, 1)

_PREFIX_TOKENS = {"(": _OPEN} | {lexeme: (node, _PREC_UNARY, False) for lexeme, node in _UNARY_NODES.items()}

_CONNECTIVES = (*_PREFIX_TOKENS, *_BINARY_TOKENS, ")")

# A letter of a word: a word character other than a digit or "_".  That is
# str.isalpha, and also numerals such as "²" or "Ⅷ".
_LETTER = r"[^\W\d_]"

# After any whitespace, one lexeme: a connective, ``bot``, a variable, any
# other single character (which starts no token, so it is a lexical error),
# or the empty string at the end.  Some alternative matches at every
# position, so the lexemes cover the text and end with at least one "".
_LEXEME = re.compile(
    r"\s*("
    + "|".join(re.escape(lexeme) for lexeme in _CONNECTIVES)
    + rf"|bot(?!{_LETTER})|x[0-9]+|\S|\Z)"
)

# Read at a lexeme of one character that starts no token: the kind of lexical
# error there, the first alternative that matches.
_LEXICAL_ERROR = re.compile(
    rf"(?P<dash>-)|(?P<operator>[<\[].{{0,2}})|x(?P<index>)(?!{_LETTER})|(?P<word>{_LETTER}+)|(?P<character>.)",
    re.DOTALL,
)

_LEXICAL_ERRORS = {
    "dash": "expected '->'",
    "operator": "unknown operator {!r}",
    "index": "variable index must be a decimal integer",
    "word": "unknown word {!r}",
    "character": "unexpected character {!r}",
}


def _kind(lexeme: str) -> str | None:
    """A connective itself, or "bot", "var" or "end"; None for a character that starts no token."""
    if lexeme in _CONNECTIVES:
        return lexeme
    if len(lexeme) > 1:
        return "bot" if lexeme == "bot" else "var"
    return None if lexeme else "end"


def _syntax_error(text: str, lexemes: list[str], tokens: Iterator[str], message: str) -> FormulaSyntaxError:
    """The error for ``message`` at the lexeme ``parse`` read last from ``tokens``.

    The first lexical error of ``text`` wins, wherever it is.  Otherwise
    ``message``, formatted with that lexeme's kind, is placed at its
    position.
    """
    at = len(lexemes) - operator.length_hint(tokens) - 1
    positions: list[int] = []
    for match in _LEXEME.finditer(text):
        lexeme, position = match[1], match.start(1)
        kind = _kind(lexeme)
        if kind is None:
            error = _LEXICAL_ERROR.match(text, position)
            found = error.lastgroup
            return FormulaSyntaxError(_LEXICAL_ERRORS[found].format(error[found]), error.start(found))
        if kind == "var":
            try:
                int(lexeme[1:])
            except ValueError:  # more digits than int() converts
                return FormulaSyntaxError("variable index has too many digits", position + 1)
        positions.append(position)
    return FormulaSyntaxError(message.format(_kind(lexemes[at])), positions[at])


def render(formula: Formula) -> str:
    """Minimally parenthesized text; ``parse(render(f)) == f``."""
    pieces: list[str] = []
    work: list = [(formula, 0)]  # text, or a node and the precedence its context needs
    while work:
        item = work.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        node, min_prec = item
        kind = type(node)
        if kind is Var:
            pieces.append(f"x{node.index}")
        elif kind is Bot:
            pieces.append("bot")
        elif kind in _UNARY_PREFIXES:
            # unary connectives bind tightest, so they never need parentheses
            pieces.append(_UNARY_PREFIXES[kind])
            work.append((node.operand, _PREC_UNARY))
        elif kind in _BINARY_SYNTAX:
            symbol, prec, right_assoc = _BINARY_SYNTAX[kind]
            if prec < min_prec:
                pieces.append("(")
                work.append(")")
            work.append((node.right, prec if right_assoc else prec + 1))
            work.append(symbol)
            work.append((node.left, prec + 1 if right_assoc else prec))
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return "".join(pieces)
