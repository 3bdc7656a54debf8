"""Three-level rankings over interpretations, and their formula encodings.

A ranking assigns every interpretation one of the plausibility levels 1, 2
or 3: level 1 holds the accepted worlds, level 2 the uncertain ones and
level 3 the rejected ones.  Every formula induces a ranking (value 1 means
level 1, u means 2, 0 means 3), and conversely every ranking is induced by
some formula, built here out of capture formulas for its level sets.
"""

import itertools
import operator
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .semantics import (
    Interpretation,
    TruthValue,
    format_interpretation,
    interpretation_index,
    interpretations,
    value_profile,
)
from .syntax import And, Bot, Box1, Dia1, Dia2, Formula, Not, Or, Var

LEVELS = (1, 2, 3)


def level_of_value(v: TruthValue) -> int:
    return 3 - v


_VALUE_OF_LEVEL = {3 - v: v for v in TruthValue}


def value_of_level(level: int) -> TruthValue:
    value = _VALUE_OF_LEVEL.get(level)
    if value is None:
        raise ValueError(f"levels must be 1, 2 or 3, got {level!r}")
    return value


def _world_count(n: int) -> int:
    """3**n, the number of interpretations of ``n`` variables."""
    if n < 0:
        raise ValueError("variable count must be non-negative")
    return 3**n


class _Record:
    """Base class for immutable value records.

    A record's fields are named in ``_fields`` (also its ``__slots__``)
    and set once by its own ``__init__`` through ``_init``.  A record
    equals only a record of the same class with equal fields, hashes as the
    tuple of its fields, prints as ``Name(field=value, ...)``, and copies
    and pickles by calling its constructor again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the tuple of a record's fields, read in C since rankings are hot
        # set members and cache keys; attrgetter of one name gives the bare value
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # the frozen __setattr__ rules out the default slot-state restore
        return type(self), self._values(self)


class Ranking(_Record):
    """Total map from the 3**n interpretations to levels 1..3.

    ``levels`` is stored as a tuple in the canonical interpretation order.
    """

    __slots__ = _fields = ("n", "levels")

    def __init__(self, n: int, levels: Iterable[int]):
        count = _world_count(n)
        levels = tuple(levels)
        if len(levels) != count:
            raise ValueError(f"expected {count} levels for n={n}, got {len(levels)}")
        if any(level not in LEVELS for level in levels):
            raise ValueError("levels must be 1, 2 or 3")
        self._init(n, levels)

    def level(self, w: Interpretation) -> int:
        if len(w) != self.n:
            raise ValueError(f"expected an interpretation of {self.n} variable(s), got {len(w)} value(s)")
        return self.levels[interpretation_index(w)]

    def level_set(self, level: int) -> tuple[Interpretation, ...]:
        """The interpretations sitting at ``level``, in canonical order."""
        if level not in LEVELS:
            raise ValueError("levels must be 1, 2 or 3")
        return tuple(w for w, l in zip(interpretations(self.n), self.levels) if l == level)

    def serialize(self) -> str:
        return "".join(str(level) for level in self.levels)

    @classmethod
    def deserialize(cls, text: str, n: int) -> "Ranking":
        count = _world_count(n)
        if len(text) != count or any(c not in "123" for c in text):
            raise ValueError(f"expected {count} characters from {{1,2,3}}, got {text!r}")
        return cls(n, tuple(int(c) for c in text))

    @classmethod
    def from_level_sets(
        cls,
        n: int,
        accepted: Iterable[Interpretation],
        uncertain: Iterable[Interpretation],
        rejected: Iterable[Interpretation],
    ) -> "Ranking":
        """Build from the three level sets, which must partition interpretations(n)."""
        count = _world_count(n)
        levels: dict[int, int] = {}
        for level, worlds in ((1, accepted), (2, uncertain), (3, rejected)):
            for w in worlds:
                index = interpretation_index(w)
                if index in levels:
                    raise ValueError(f"interpretation {format_interpretation(w)!r} assigned twice")
                levels[index] = level
        if len(levels) != count:
            raise ValueError(f"level sets cover {len(levels)} of {count} interpretations")
        return cls(n, tuple(levels[i] for i in range(count)))

    def to_lines(self) -> list[str]:
        """One line per interpretation in canonical order: ``d0 d1 ... : L``."""
        lines = []
        for w, level in zip(interpretations(self.n), self.levels):
            digits = format_interpretation(w)
            lines.append(f"{digits} : {level}" if digits else f": {level}")
        return lines

    @classmethod
    def from_lines(cls, text: str) -> "Ranking":
        """Parse the ``d0 d1 ... : L`` line format.

        The variable count is inferred from the first line.  Every
        interpretation must appear exactly once; lines may come in any order.
        """
        entries: dict[int, int] = {}
        n: int | None = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            head, sep, tail = line.partition(":")
            if not sep:
                raise ValueError(f"line {lineno}: expected 'digits : level'")
            digits = head.split()
            if n is None:
                n = len(digits)
            if len(digits) != n:
                raise ValueError(f"line {lineno}: expected {n} truth value(s)")
            try:
                w = tuple(TruthValue.from_symbol(d) for d in digits)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            level = tail.strip()
            if level not in ("1", "2", "3"):
                raise ValueError(f"line {lineno}: level must be 1, 2 or 3, got {level!r}")
            index = interpretation_index(w)
            if index in entries:
                raise ValueError(f"line {lineno}: duplicate interpretation {head.strip()!r}")
            entries[index] = int(level)
        if n is None:
            raise ValueError("empty ranking")
        if len(entries) != 3**n:
            raise ValueError(f"incomplete ranking: {len(entries)} of {3 ** n} interpretations")
        return cls(n, tuple(entries[i] for i in range(3**n)))


def all_rankings(n: int) -> Iterator[Ranking]:
    """Every ranking over interpretations(n), in serialization order."""
    return (Ranking(n, levels) for levels in itertools.product(LEVELS, repeat=_world_count(n)))


def ranking_of_formula(formula: Formula, n: int, memo: dict | None = None) -> Ranking:
    """The ranking induced by a formula's truth table (1 -> level 1, u -> 2, 0 -> 3)."""
    profile = value_profile(formula, n, memo)
    return Ranking(n, tuple(map(level_of_value, profile)))


def level_indicator(f: Formula, level: int) -> Formula:
    """A formula true exactly at the worlds where ``f`` sits at ``level``."""
    if level == 1:
        return f
    if level == 2:
        return And(Box1(f), Box1(Not(f)))
    if level == 3:
        return Not(f)
    raise ValueError("levels must be 1, 2 or 3")


@lru_cache(maxsize=None)
def capture_valuation(w: Interpretation) -> Formula:
    """A formula whose unique model is ``w`` (it may have quasi-models).

    Per variable: ``xi`` if w(xi)=1, ``~xi`` if w(xi)=0, and
    ``[]1 xi & []1 ~xi`` if w(xi)=u.  Needs at least one variable.
    """
    if not w:
        raise ValueError("capture formulas need at least one variable")
    conjuncts = [level_indicator(Var(i), level_of_value(v)) for i, v in enumerate(w)]
    out = conjuncts[0]
    for part in conjuncts[1:]:
        out = And(out, part)
    return out


def capture_set(worlds: Iterable[Interpretation], n: int) -> Formula:
    """A formula whose models are exactly ``worlds``; the empty set gives ``bot``.

    Disjuncts are ordered canonically, so equal sets give identical formulas.
    """
    if n < 1:
        raise ValueError("capture formulas need at least one variable")
    ordered = sorted(set(worlds), key=interpretation_index)
    for w in ordered:
        if len(w) != n:
            raise ValueError(f"interpretation {w!r} has {len(w)} values, expected {n}")
    if not ordered:
        return Bot()
    out: Formula = capture_valuation(ordered[0])
    for w in ordered[1:]:
        out = Or(out, capture_valuation(w))
    return out


@lru_cache(maxsize=32)
def formula_of_ranking(r: Ranking) -> Formula:
    """A formula inducing exactly the ranking ``r``.

    Capture the uncertain and rejected level sets, then forbid them with the
    matching modal strength: ``~(<>1 psi2 | <>2 psi3)``.
    """
    if r.n < 1:
        raise ValueError("ranking encodings need at least one variable")
    uncertain = capture_set(r.level_set(2), r.n)
    rejected = capture_set(r.level_set(3), r.n)
    return Not(Or(Dia1(uncertain), Dia2(rejected)))
