"""The formula parser as it was before lexing moved to one ``findall``: a
reference for the differential test in test_syntax.py.

``_tokenize`` classifies every token, and every lexical error, with one
named-group regex over ``finditer``; ``parse`` runs the same
operator-precedence loop over its ``(kind, index, position)`` tuples.  Only
the node classes and the error type come from ``tribelief.syntax``, so a
change to the module's own lexeme tables cannot make both sides agree.
"""

import re

from tribelief.syntax import And, Bot, Box1, Box2, Dia1, Dia2, Formula, FormulaSyntaxError, Implies, Not, Or, Var

_UNARY_NODES = {"~": Not, "<>1": Dia1, "[]1": Box1, "<>2": Dia2, "[]2": Box2}


def parse(text: str) -> Formula:
    """Parse formula text into its AST, raising FormulaSyntaxError on bad input.

    One operator-precedence loop over explicit stacks, so nesting depth is
    bounded by memory alone.
    """
    operands: list[Formula] = []
    pending = [_OPEN]  # connectives and open parentheses not yet applied
    tokens = iter(_tokenize(text))
    # the outer loop reads where an operand starts, the inner one what follows it
    for kind, index, position in tokens:
        prefix = _PREFIX_TOKENS.get(kind)
        if prefix is not None:
            pending.append(prefix)
            continue
        if kind == "bot":
            operands.append(Bot())
        elif kind == "var":
            operands.append(Var(index))
        elif kind == "end":
            raise FormulaSyntaxError("unexpected end of input", position)
        else:
            raise FormulaSyntaxError(f"unexpected {kind!r}", position)
        for kind, index, position in tokens:
            node, prec, right_assoc = _BINARY_TOKENS.get(kind, _CLOSE)
            # apply what binds tighter than the connective just read
            while pending[-1][1] > prec or (pending[-1][1] == prec and not right_assoc):
                applied, applied_prec, _ = pending.pop()
                if applied_prec == _PREC_UNARY:
                    operands[-1] = applied(operands[-1])
                else:
                    right = operands.pop()
                    operands[-1] = applied(operands[-1], right)
            if node is not None:
                pending.append((node, prec, right_assoc))
                break
            if len(pending) > 1:
                if kind != ")":
                    raise FormulaSyntaxError("expected ')'", position)
                pending.pop()
            elif kind == "end":
                return operands[0]
            else:
                raise FormulaSyntaxError(f"unexpected {kind!r} after formula", position)


_PREC_UNARY = 4

# symbol, precedence, and whether the connective associates to the right;
# the printer reads it directly, the parser through _BINARY_TOKENS
_BINARY_SYNTAX = {And: (" & ", 3, False), Or: (" | ", 2, False), Implies: (" -> ", 1, True)}

_BINARY_TOKENS = {symbol.strip(): (node, prec, right) for node, (symbol, prec, right) in _BINARY_SYNTAX.items()}

# The parser's mark for the bottom of its stack and each open parenthesis.
# Any other token read after an operand acts as _CLOSE: it applies every
# connective above the mark.
_OPEN = _CLOSE = (None, 0, True)

_PREFIX_TOKENS = {"(": _OPEN} | {lexeme: (node, _PREC_UNARY, False) for lexeme, node in _UNARY_NODES.items()}

# A letter of a word: a word character other than a digit or "_".  That is
# str.isalpha, and also numerals such as "²" or "Ⅷ".
_LETTER = r"[^\W\d_]"

# After any whitespace, one alternative per kind of token, then one per
# lexical error; the first that matches is the match's lastgroup.  Some
# alternative matches at every position, so the matches are contiguous up to
# the empty "end" match.
_TOKEN = re.compile(
    r"\s*(?:(?P<connective>"
    + "|".join(re.escape(lexeme) for lexeme in (*_PREFIX_TOKENS, *_BINARY_TOKENS, ")"))
    + rf")|(?P<bot>bot)(?!{_LETTER})|(?P<var>x[0-9]+)|(?P<end>\Z)"
    + rf"|(?P<dash>-)|(?P<operator>[<\[].{{0,2}})|x(?P<index>)(?!{_LETTER})|(?P<word>{_LETTER}+)|(?P<character>.))",
    re.DOTALL,
)

_LEXICAL_ERRORS = {
    "dash": "expected '->'",
    "operator": "unknown operator {!r}",
    "index": "variable index must be a decimal integer",
    "word": "unknown word {!r}",
    "character": "unexpected character {!r}",
}


def _tokenize(text: str) -> list[tuple[str, int | None, int]]:
    """``(kind, variable index or None, position)`` for each token of ``text``,
    ending with an ``"end"`` token.

    The whole text is read before parsing starts, so a lexical error
    anywhere is reported ahead of an earlier grammar error.
    """
    tokens: list[tuple[str, int | None, int]] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        position = match.start(kind)
        if kind == "connective":
            tokens.append((match[kind], None, position))
        elif kind == "var":
            try:
                tokens.append((kind, int(match[kind][1:]), position))
            except ValueError:  # more digits than int() converts
                raise FormulaSyntaxError("variable index has too many digits", position + 1) from None
        elif kind in _LEXICAL_ERRORS:
            raise FormulaSyntaxError(_LEXICAL_ERRORS[kind].format(match[kind]), position)
        else:
            tokens.append((kind, None, position))
            if kind == "end":
                return tokens
