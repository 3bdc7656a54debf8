"""Three-valued semantics: interpretations, evaluation, entailment.

The values are 0 (false), u (undetermined) and 1 (true), totally ordered
0 < u < 1.  Conjunction is minimum, disjunction maximum, negation swaps the
extremes and fixes u, and implication is ``~a | b``.  The four modalities
shift a value's plausibility one way or the other:

    <>1 : 1 -> u, u -> 0, 0 -> 0        []1 : 1 -> 1, u -> 1, 0 -> u
    <>2 : 1 -> 1, u -> 0, 0 -> 0        []2 : 1 -> 1, u -> 1, 0 -> 0

Each box is the dual ``~ <>i ~`` of its diamond.
"""

import enum
import itertools
from collections.abc import Sequence
from functools import lru_cache

from .syntax import And, Bot, Box1, Box2, Dia1, Dia2, Formula, Implies, Not, Or, Var


class TruthValue(enum.IntEnum):
    """One of the logic's three values; the integer order is the semantic order."""

    FALSE = 0
    UNDET = 1
    TRUE = 2

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]

    @classmethod
    def from_symbol(cls, text: str) -> "TruthValue":
        for value, symbol in _SYMBOLS.items():
            if text == symbol:
                return value
        raise ValueError(f"not a truth value: {text!r} (expected one of 0, u, 1)")


_SYMBOLS = {TruthValue.FALSE: "0", TruthValue.UNDET: "u", TruthValue.TRUE: "1"}

VALUES = (TruthValue.FALSE, TruthValue.UNDET, TruthValue.TRUE)

Interpretation = tuple[TruthValue, ...]


F, U, T = VALUES

# Each connective's truth table.  A unary connective is the tuple of its
# values at 0, u and 1; a binary one is a function of its operands' values.
UNARY_TABLES = {
    Not: (T, U, F),
    Dia1: (F, F, U),
    Box1: (U, T, T),
    Dia2: (F, F, T),
    Box2: (F, T, T),
}


def implies(a: TruthValue, b: TruthValue) -> TruthValue:
    return max(UNARY_TABLES[Not][a], b)


BINARY_TABLES = {And: min, Or: max, Implies: implies}


# each value a world may hold, as (type, value): 0, u and 1 as TruthValues or as the ints 0, 1 and 2
_WORLD_VALUES = frozenset((kind, v) for kind in (TruthValue, int) for v in VALUES)


def _all_in(values, allowed: frozenset) -> bool:
    """Whether each value's ``(type, value)`` is in ``allowed``: a bool, float or unhashable value is not."""
    try:
        return allowed.issuperset(zip(map(type, values), values))
    except TypeError:  # an unhashable value
        return False


def _variable_count(n: int, least: int = 0, message: str = "variable count must be non-negative") -> int:
    """``n``, which must be an int (not a bool or float) of at least ``least``; ``message`` refuses a smaller one."""
    if type(n) is not int:
        raise ValueError(f"variable count must be an int, got {n!r}")
    if n < least:
        raise ValueError(message)
    return n


@lru_cache(maxsize=None, typed=True)  # typed, so True or 1.0 cannot read the entry of 1
def interpretations(n: int) -> tuple[Interpretation, ...]:
    """All 3**n interpretations of x0..x(n-1), in canonical order.

    Canonical order counts in base three with digit order 0 < u < 1 and
    position 0 most significant.
    """
    return tuple(itertools.product(VALUES, repeat=_variable_count(n)))


def _world_index(w: Interpretation, n: int | None = None) -> int:
    """``w``'s position in interpretations(n); ``w`` must be a sequence of ``n`` values from 0, u, 1
    (or the ints 0, 1 and 2; a bool or float equal to one is not), as many as it has if ``n`` is None."""
    if isinstance(w, Sequence):  # a generator has no count; a dict or set no order
        n = len(w) if n is None else n
        if len(w) == n and _all_in(w, _WORLD_VALUES):
            index = 0
            for v in w:
                index = index * 3 + v
            return index
    size = "" if n is None else f" of {n} variable(s)"
    raise ValueError(f"expected an interpretation{size}, got {format_interpretation(w)!r}")


def interpretation_index(w: Interpretation) -> int:
    """Position of ``w`` within ``interpretations(len(w))``; ``w`` is checked as every world is."""
    return _world_index(w)


def format_interpretation(w: Interpretation, sep: str = " ") -> str:
    """``w``'s values as 0, u and 1, joined by ``sep``; any other value prints as its repr."""
    return sep.join(_SYMBOLS[v] if _all_in((v,), _WORLD_VALUES) else repr(v) for v in w)


def _world_lines(n: int, labels) -> list[str]:
    """One line per interpretation in canonical order: ``d0 d1 ... dn-1 : label`` (``: label`` if n is 0)."""
    return [f"{format_interpretation(w)} : {label}".lstrip() for w, label in zip(interpretations(n), labels)]


def parse_interpretation(text: str, n: int) -> Interpretation:
    """Parse digits 0/u/1 separated by commas, whitespace, or nothing."""
    _variable_count(n)
    chunks = text.replace(",", " ").split()
    if len(chunks) == 1 and len(chunks[0]) == n:
        chunks = list(chunks[0])
    if len(chunks) != n:
        raise ValueError(f"expected {n} truth value(s), got {len(chunks)} in {text!r}")
    return tuple(TruthValue.from_symbol(c) for c in chunks)


def _profile(node: Formula, worlds: tuple[Interpretation, ...], memo: dict) -> tuple[TruthValue, ...]:
    """Values of ``node`` at each of ``worlds``, read off the connective tables.

    Walks a path down to the first operand not yet in ``memo``, so nesting
    depth is bounded by memory alone.  A module-level function rather than a
    closure, so a call leaves no reference cycle holding ``memo`` until the
    cyclic collector runs.
    """
    memo_get, unary_tables, binary_tables = memo.get, UNARY_TABLES, BINARY_TABLES
    profile = memo_get(node)
    if profile is not None:
        return profile
    path = [node]
    while path:
        node = path[-1]
        kind = type(node)
        row = unary_tables.get(kind)
        if row is not None:
            operand = memo_get(node.operand)
            if operand is None:
                path.append(node.operand)
                continue
            profile = tuple([row[v] for v in operand])
        elif (combine := binary_tables.get(kind)) is not None:
            left = memo_get(node.left)
            if left is None:
                path.append(node.left)
                continue
            right = memo_get(node.right)
            if right is None:
                path.append(node.right)
                continue
            profile = tuple(map(combine, left, right))
        elif kind is Var:
            n = len(worlds[0])
            if node.index >= n:
                raise ValueError(f"variable x{node.index} out of range for {n} variable(s)")
            profile = tuple([w[node.index] for w in worlds])
        elif kind is Bot:
            profile = (F,) * len(worlds)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[node] = profile
        path.pop()
    return profile


def eval_formula(formula: Formula, w: Interpretation) -> TruthValue:
    """Value of ``formula`` under the interpretation ``w``, whose values must be 0, u or 1
    (or the ints 0, 1 and 2); the value is read off ``w``'s TruthValues, so it is one too."""
    _world_index(w)
    return _profile(formula, (tuple(map(TruthValue, w)),), {})[0]


def value_profile(formula: Formula, n: int, memo: dict | None = None) -> tuple[TruthValue, ...]:
    """Values of ``formula`` at every interpretation of ``interpretations(n)``.

    ``memo`` caches subformula profiles keyed by node; pass the same dict
    across calls at the same ``n`` to avoid re-evaluating shared subformulas.
    Nodes are hash-consed, so an equal subformula built later hits the entry
    of an earlier one.
    """
    return _profile(formula, interpretations(n), {} if memo is None else memo)


def classify(formula: Formula, n: int) -> tuple[tuple[Interpretation, ...], tuple[Interpretation, ...], tuple[Interpretation, ...]]:
    """Partition the interpretations into (models, quasi-models, countermodels)."""
    worlds = interpretations(n)
    profile = value_profile(formula, n)
    models = tuple(w for w, v in zip(worlds, profile) if v is TruthValue.TRUE)
    quasi = tuple(w for w, v in zip(worlds, profile) if v is TruthValue.UNDET)
    counter = tuple(w for w, v in zip(worlds, profile) if v is TruthValue.FALSE)
    return models, quasi, counter


# Relations between value profiles, for the checks below and the postulate suite (same table is ==)
def _models_within(p: tuple[TruthValue, ...], q: tuple[TruthValue, ...]) -> bool:
    return all(b is T for a, b in zip(p, q) if a is T)


def _same_models(p: tuple[TruthValue, ...], q: tuple[TruthValue, ...]) -> bool:
    return [a is T for a in p] == [b is T for b in q]


def _all_false(p: tuple[TruthValue, ...]) -> bool:
    return all(v is F for v in p)


def equiv(f: Formula, g: Formula, n: int) -> bool:
    """Same truth table over the 3**n interpretations."""
    return value_profile(f, n) == value_profile(g, n)


def entails(f: Formula, g: Formula, n: int) -> bool:
    """Every model of ``f`` is a model of ``g``."""
    return _models_within(value_profile(f, n), value_profile(g, n))


def bi_entails(f: Formula, g: Formula, n: int) -> bool:
    """Same model set; weaker than ``equiv``, which compares full tables."""
    return _same_models(value_profile(f, n), value_profile(g, n))


def is_contradiction(formula: Formula, n: int) -> bool:
    """A formula with countermodels only."""
    return _all_false(value_profile(formula, n))


def is_tautology(formula: Formula, n: int) -> bool:
    return all(v is TruthValue.TRUE for v in value_profile(formula, n))


def truth_table_lines(formula: Formula, n: int) -> list[str]:
    """One line per interpretation in canonical order: ``d0 d1 ... dn-1 : v``."""
    return _world_lines(n, [v.symbol for v in value_profile(formula, n)])
