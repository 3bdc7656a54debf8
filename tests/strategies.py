"""Shared hypothesis strategies for random formulas and rankings."""

import re

import hypothesis.strategies as st

from tribelief import And, Bot, Box1, Box2, Dia1, Dia2, Implies, Not, Or, Ranking, Var, render


def formulas(max_index: int = 1, modal: bool = True, allow_bot: bool = True):
    """Random formula trees over x0..x<max_index>."""
    atom_choices = [st.builds(Var, st.integers(0, max_index))]
    if allow_bot:
        atom_choices.append(st.builds(Bot))
    atoms = st.one_of(*atom_choices)
    unary = [Not] + ([Dia1, Box1, Dia2, Box2] if modal else [])

    def extend(children):
        options = [st.builds(u, children) for u in unary]
        options += [st.builds(b, children, children) for b in (And, Or, Implies)]
        return st.one_of(*options)

    return st.recursive(atoms, extend, max_leaves=12)


_LEXEME = re.compile(r"x\d+|bot|<>[12]|\[\][12]|->|[~&|()]|\s+")

# lexemes of the grammar, then near misses the tokenizer must reject
_INSERTED = ("x0", "x2", "x7", "bot", "~", "<>1", "[]2", "&", "|", "->", "(", ")", " ")
_INSERTED += ("-", "<", "[", "<>3", "x", "y", "bo", "9", "!", "\u00b2", "\u0661", "1" * 4301)


@st.composite
def formula_texts(draw, max_index: int = 2):
    """Rendered random formulas, mangled by inserting, deleting or truncating lexemes."""
    lexemes = _LEXEME.findall(render(draw(formulas(max_index))))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("insert", "delete", "truncate")))
        at = draw(st.integers(0, len(lexemes)))
        if edit == "insert":
            lexemes.insert(at, draw(st.sampled_from(_INSERTED)))
        elif edit == "delete":
            del lexemes[at : at + 1]
        else:
            del lexemes[at:]
    return "".join(lexemes)


def rankings(n: int = 1):
    return st.builds(
        Ranking,
        st.just(n),
        st.tuples(*(st.integers(1, 3) for _ in range(3**n))),
    )
