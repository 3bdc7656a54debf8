"""Reachability of rankings under the level operations of the connectives.

Each connective acts on induced rankings: negation flips levels 1 and 3,
disjunction takes the cell-wise minimum level, conjunction the maximum,
``[]1`` raises 3 to 2 and 2 to 1, and ``[]2`` raises 2 to 1 while fixing 1
and 3.  This module computes brute-force closures of ranking sets under
those operations and checks what stays out of reach with one box, by the
invariant it keeps: with ``[]1`` alone no two neighbouring worlds sit at
levels 1 and 3, and with ``[]2`` alone no classical world sits at level 2.
"""

import enum
from collections.abc import Iterable

from .ranking import Ranking, _Record, all_rankings, level_of_value
from .semantics import BINARY_TABLES, UNARY_TABLES, TruthValue
from .syntax import And, Box1, Box2, Not, Or


class PreorderOp(enum.Enum):
    """The ranking-level counterparts of the connectives.  Each member's value
    is its connective, whose truth table, read through the level <-> value
    correspondence, is the operation."""

    NEG = Not
    BOX1 = Box1
    BOX2 = Box2
    JOIN = Or
    MEET = And


UNARY_OPS = frozenset(op for op in PreorderOp if op.value in UNARY_TABLES)
BINARY_OPS = frozenset(op for op in PreorderOp if op.value in BINARY_TABLES)

# Ranking induced by the bare variable x0: its model is most plausible.
X0_RANKING = Ranking(1, (3, 2, 1))

# Ranking induced by bot: every world rejected.
CONTRADICTION_RANKING = Ranking(1, (3, 3, 3))


def apply_op(op: PreorderOp, r: Ranking, r2: Ranking | None = None) -> Ranking:
    """Apply one level operation; unary ops reject a second argument."""
    if op in UNARY_OPS:
        if r2 is not None:
            raise ValueError(f"{op.name.lower()} takes a single ranking")
        row = UNARY_TABLES[op.value]
        return Ranking(r.n, tuple(level_of_value(row[3 - level]) for level in r.levels))
    if op in BINARY_OPS:
        if r2 is None:
            raise ValueError(f"{op.name.lower()} takes two rankings")
        if r.n != r2.n:
            raise ValueError(f"rankings must agree on the variable count ({r.n} vs {r2.n})")
        fn = BINARY_TABLES[op.value]
        return Ranking(r.n, tuple(level_of_value(fn(3 - a, 3 - b)) for a, b in zip(r.levels, r2.levels)))
    raise TypeError(f"not a level operation: {op!r}")


def closure(generators: Iterable[Ranking], ops: Iterable[PreorderOp]) -> frozenset[Ranking]:
    """Least superset of ``generators`` closed under ``ops``.

    Semi-naive saturation: every ranking, once found, goes through each
    unary op once and each binary op once with itself and with every ranking
    found before it.  The binary ops are commutative, so each unordered pair
    is combined once.
    """
    members = set(generators)
    if not members:
        raise ValueError("closure needs at least one generator")
    if len({r.n for r in members}) != 1:
        raise ValueError("generators must agree on the variable count")
    op_set = frozenset(ops)
    # anything that is not a PreorderOp goes to apply_op's unary path, which raises TypeError
    unary, binary = op_set - BINARY_OPS, op_set & BINARY_OPS
    found = list(members)
    for index, r in enumerate(found):
        produced = [apply_op(op, r) for op in unary]
        produced += [apply_op(op, r, other) for op in binary for other in found[: index + 1]]
        for candidate in produced:
            if candidate not in members:
                members.add(candidate)
                found.append(candidate)
    return frozenset(members)


def forbidden_family_box1() -> frozenset[Ranking]:
    """Rankings unreachable from x0 with negation, disjunction and []1 alone:
    those putting two neighbouring worlds, whose values differ by at most one
    step in 0 < u < 1 at every variable, at levels 1 and 3.

    x0 puts neighbours at most one level apart and bot is constant, and
    ``~``, join, meet and ``[]1`` move a value by at most one step when each
    input moves by at most one.  ``[]2``, sending u to 1 and fixing 0, does not.
    """
    return frozenset(
        r for r in all_rankings(1)
        if any(all(abs(a - b) <= 1 for a, b in zip(w, v)) for w in r.level_set(1) for v in r.level_set(3))
    )


def forbidden_family_box2() -> frozenset[Ranking]:
    """Rankings unreachable from x0 with negation, disjunction and []2 alone:
    those putting a classical world, where no variable is u, at level 2.

    ``~``, join, meet and ``[]2`` send classical values to classical values,
    and x0 and bot are classical at classical worlds.  ``[]1``, sending 0 to
    u, does not.
    """
    return frozenset(r for r in all_rankings(1) if any(TruthValue.UNDET not in w for w in r.level_set(2)))


class NondefinabilityReport(_Record):
    """Closure of the generators under one box's operation set, against the
    family of rankings that must stay unreachable."""

    __slots__ = _fields = ("variant", "include_bot", "closure", "forbidden", "meet_invariant")

    def __init__(
        self,
        variant: str,
        include_bot: bool,
        closure: frozenset[Ranking],
        forbidden: frozenset[Ranking],
        meet_invariant: bool,
    ):
        self._init(variant, include_bot, closure, forbidden, meet_invariant)

    @property
    def intersection(self) -> frozenset[Ranking]:
        return self.closure & self.forbidden

    @property
    def unreachable(self) -> frozenset[Ranking]:
        return frozenset(all_rankings(1)) - self.closure

    @property
    def disjoint(self) -> bool:
        return not self.intersection


def verify_nondefinability(variant: str, include_bot: bool = False) -> NondefinabilityReport:
    """Compute the reachable rankings for one box and test the forbidden family.

    ``variant`` is ``box1`` or ``box2``.  The operation set is negation,
    join and the chosen box; meet is derivable from negation and join, so it
    is included and the report records that including it changes nothing.
    With ``include_bot`` the all-rejected ranking joins the generators.
    """
    if variant == "box1":
        box, family = PreorderOp.BOX1, forbidden_family_box1()
    elif variant == "box2":
        box, family = PreorderOp.BOX2, forbidden_family_box2()
    else:
        raise ValueError(f"variant must be 'box1' or 'box2', got {variant!r}")
    generators = {X0_RANKING}
    if include_bot:
        generators.add(CONTRADICTION_RANKING)
    ops = {PreorderOp.NEG, PreorderOp.JOIN, box}
    base = closure(generators, ops)
    with_meet = closure(generators, ops | {PreorderOp.MEET})
    return NondefinabilityReport(
        variant=variant,
        include_bot=include_bot,
        closure=with_meet,
        forbidden=family,
        meet_invariant=base == with_meet,
    )


def format_nondefinability_report(report: NondefinabilityReport, machine: bool = False) -> str:
    """Plain-text report; the machine variant is one ``serialization verdict``
    line per forbidden-family member (IN means reachable, a violation)."""
    family = sorted(report.forbidden, key=Ranking.serialize)
    flags = [(r.serialize(), "IN" if r in report.closure else "OUT") for r in family]
    if machine:
        return "\n".join(f"{serial} {flag}" for serial, flag in flags)
    generators = "x0 and bot" if report.include_bot else "x0"
    unreachable = " ".join(sorted(r.serialize() for r in report.unreachable))
    lines = [
        f"variant: {report.variant} (generators: {generators}; ops: neg, join, {report.variant}, meet)",
        f"closure size: {len(report.closure)} of 27",
        f"forbidden family ({len(family)} rankings):",
        *(f"  {serial} {flag}" for serial, flag in flags),
        f"unreachable rankings ({len(report.unreachable)}): {unreachable}",
        f"meet adds nothing: {'yes' if report.meet_invariant else 'NO'}",
        f"verdict: {'DISJOINT' if report.disjoint else 'INTERSECTS'}",
    ]
    return "\n".join(lines)
