import itertools
import random
from collections import deque

import pytest

from tribelief import (
    BINARY_OPS,
    Bot,
    CONTRADICTION_RANKING,
    PreorderOp,
    Ranking,
    UNARY_OPS,
    Var,
    X0_RANKING,
    all_rankings,
    apply_op,
    closure,
    forbidden_family_box1,
    forbidden_family_box2,
    format_nondefinability_report,
    ranking_of_formula,
    value_profile,
    verify_nondefinability,
)
from tribelief.semantics import BINARY_TABLES, UNARY_TABLES, VALUES
from tribelief.syntax import And, Box1, Box2, Dia1, Implies, Not, Or

def serial(text):
    return Ranking.deserialize(text, 1)


def test_generator_constants():
    assert X0_RANKING == ranking_of_formula(Var(0), 1)
    assert X0_RANKING.serialize() == "321"
    assert CONTRADICTION_RANKING == ranking_of_formula(Bot(), 1)
    assert CONTRADICTION_RANKING.serialize() == "333"


def test_op_partition():
    assert UNARY_OPS | BINARY_OPS == frozenset(PreorderOp)
    assert not UNARY_OPS & BINARY_OPS
    assert [(op.name, op.value) for op in PreorderOp] == [
        ("NEG", Not), ("BOX1", Box1), ("BOX2", Box2), ("JOIN", Or), ("MEET", And),
    ]
    assert {op.value for op in UNARY_OPS} <= UNARY_TABLES.keys()
    assert {op.value for op in BINARY_OPS} <= BINARY_TABLES.keys()


@pytest.mark.parametrize("op", sorted(BINARY_OPS, key=lambda op: op.name), ids=lambda op: op.name.lower())
def test_binary_ops_are_commutative(op):
    # closure combines each unordered pair once, which is sound only for these
    fn = BINARY_TABLES[op.value]
    assert all(fn(a, b) is fn(b, a) for a in VALUES for b in VALUES)
    rankings = list(all_rankings(1))
    assert all(apply_op(op, a, b) == apply_op(op, b, a) for a in rankings for b in rankings)


def test_apply_op_base_cases():
    assert apply_op(PreorderOp.NEG, X0_RANKING) == serial("123")
    assert apply_op(PreorderOp.BOX1, X0_RANKING) == serial("211")
    assert apply_op(PreorderOp.BOX2, X0_RANKING) == serial("311")
    assert apply_op(PreorderOp.JOIN, X0_RANKING, X0_RANKING) == X0_RANKING
    assert apply_op(PreorderOp.JOIN, serial("321"), serial("123")) == serial("121")
    assert apply_op(PreorderOp.MEET, serial("321"), serial("123")) == serial("323")


def test_apply_op_arity_errors():
    with pytest.raises(ValueError, match="^neg takes a single ranking$"):
        apply_op(PreorderOp.NEG, X0_RANKING, X0_RANKING)
    with pytest.raises(ValueError, match="^join takes two rankings$"):
        apply_op(PreorderOp.JOIN, X0_RANKING)
    with pytest.raises(ValueError):
        apply_op(PreorderOp.JOIN, X0_RANKING, Ranking(2, (1,) * 9))
    with pytest.raises(TypeError, match="^not a level operation: 'join'$"):
        apply_op("join", X0_RANKING, X0_RANKING)


def test_neg_is_an_involution():
    for r in all_rankings(1):
        assert apply_op(PreorderOp.NEG, apply_op(PreorderOp.NEG, r)) == r


def test_closure_under_negation_alone():
    assert closure({X0_RANKING}, {PreorderOp.NEG}) == {serial("321"), serial("123")}


def test_closure_input_validation():
    with pytest.raises(ValueError):
        closure([], {PreorderOp.NEG})
    with pytest.raises(ValueError):
        closure([X0_RANKING, Ranking(2, (1,) * 9)], {PreorderOp.NEG})


def test_closure_rejects_what_is_not_a_level_operation():
    with pytest.raises(TypeError, match="^not a level operation: 'neg'$"):
        closure({X0_RANKING}, {"neg"})
    with pytest.raises(TypeError, match="^not a level operation: 'join'$"):
        closure({X0_RANKING}, [PreorderOp.NEG, "join"])


_N1_RESULTS = {
    **{(op, r): apply_op(op, r) for op in UNARY_OPS for r in all_rankings(1)},
    **{(op, a, b): apply_op(op, a, b) for op in BINARY_OPS for a in all_rankings(1) for b in all_rankings(1)},
}


def reference_closure(generators, ops):
    """Worklist closure that combines each dequeued ranking with every member
    under each binary op in both argument orders, so it does not rely on
    commutativity.  It reads the n=1 results of ``apply_op`` from a table, so
    only ``closure``'s saturation is compared."""
    members = set(generators)
    op_set = frozenset(ops)
    unary = [op for op in (PreorderOp.NEG, PreorderOp.BOX1, PreorderOp.BOX2) if op in op_set]
    binary = [op for op in (PreorderOp.JOIN, PreorderOp.MEET) if op in op_set]
    queue = deque(members)
    while queue:
        r = queue.popleft()
        produced = [_N1_RESULTS[op, r] for op in unary]
        for op in binary:
            for other in members:
                produced.append(_N1_RESULTS[op, r, other])
                produced.append(_N1_RESULTS[op, other, r])
        for candidate in produced:
            if candidate not in members:
                members.add(candidate)
                queue.append(candidate)
    return frozenset(members)


_OP_SUBSETS = [
    frozenset(ops)
    for size in range(1, len(PreorderOp) + 1)
    for ops in itertools.combinations(PreorderOp, size)
]


def _generator_sets():
    rankings = list(all_rankings(1))
    rng = random.Random(20191031)
    yield from ([r] for r in rankings)
    for _ in range(20):
        yield rng.sample(rankings, rng.randint(2, 4))


@pytest.mark.parametrize("ops", _OP_SUBSETS, ids=lambda ops: "-".join(sorted(op.name.lower() for op in ops)))
def test_closure_matches_reference_closure(ops):
    for generators in _generator_sets():
        assert closure(generators, ops) == reference_closure(generators, ops), generators


def naive_closure(generators, ops):
    """Round-based saturation, an independent check on ``closure``."""
    members = frozenset(generators)
    while True:
        grown = set(members)
        for op in ops:
            if op in UNARY_OPS:
                grown.update(apply_op(op, r) for r in members)
            else:
                grown.update(apply_op(op, a, b) for a in members for b in members)
        if frozenset(grown) == members:
            return members
        members = frozenset(grown)


@pytest.mark.parametrize(
    "ops",
    [
        {PreorderOp.NEG, PreorderOp.JOIN, PreorderOp.BOX1},
        {PreorderOp.NEG, PreorderOp.JOIN, PreorderOp.BOX2},
        {PreorderOp.NEG, PreorderOp.JOIN, PreorderOp.MEET},
    ],
)
def test_closure_matches_naive_saturation(ops):
    assert closure({X0_RANKING}, ops) == naive_closure({X0_RANKING}, ops)


def test_closure_monotone_in_ops_and_generators():
    base_ops = {PreorderOp.NEG, PreorderOp.JOIN}
    small = closure({X0_RANKING}, base_ops)
    assert small <= closure({X0_RANKING}, base_ops | {PreorderOp.BOX1})
    assert small <= closure({X0_RANKING, CONTRADICTION_RANKING}, base_ops)


def test_forbidden_family_box1_matches_shape_templates():
    w0, wu, w1 = (serial("321").level_set(3)[0], serial("321").level_set(2)[0], serial("321").level_set(1)[0])
    extremes = [w0, w1]
    family = set()
    # linear with the undetermined world fully accepted or fully rejected
    for mid_level, others in ((1, (2, 3)), (3, (1, 2))):
        for a, b in itertools.permutations(others):
            family.add(Ranking.from_level_sets(
                1,
                *[
                    [w for w, l in ((wu, mid_level), (extremes[0], a), (extremes[1], b)) if l == level]
                    for level in (1, 2, 3)
                ],
            ))
    # empty middle level, split two against one
    worlds = [w0, wu, w1]
    for alone in worlds:
        rest = [w for w in worlds if w != alone]
        family.add(Ranking.from_level_sets(1, rest, [], [alone]))
        family.add(Ranking.from_level_sets(1, [alone], [], rest))
    assert forbidden_family_box1() == family
    assert len(family) == 10


def test_forbidden_family_box2_matches_shape_templates():
    w0 = serial("321").level_set(3)[0]
    wu = serial("321").level_set(2)[0]
    w1 = serial("321").level_set(1)[0]
    worlds = [w0, wu, w1]
    extremes = [w0, w1]
    family = set()
    for mid_level, others in ((1, (2, 3)), (3, (1, 2))):
        for a, b in itertools.permutations(others):
            family.add(Ranking.from_level_sets(
                1,
                *[
                    [w for w, l in ((wu, mid_level), (extremes[0], a), (extremes[1], b)) if l == level]
                    for level in (1, 2, 3)
                ],
            ))
    # everything undetermined
    family.add(Ranking.from_level_sets(1, [], worlds, []))
    # undetermined world accepted with one companion, the third undetermined
    for other in extremes:
        third = [w for w in extremes if w != other]
        family.add(Ranking.from_level_sets(1, [wu, other], third, []))
        family.add(Ranking.from_level_sets(1, [], third, [wu, other]))
    # one world decided, the other two undetermined
    for alone in worlds:
        rest = [w for w in worlds if w != alone]
        family.add(Ranking.from_level_sets(1, [alone], rest, []))
        family.add(Ranking.from_level_sets(1, [], rest, [alone]))
    assert forbidden_family_box2() == family
    assert len(family) == 15


def test_forbidden_family_membership_examples():
    f1 = forbidden_family_box1()
    assert serial("312") in f1
    assert serial("311") in f1
    assert ranking_of_formula(Box2(Var(0)), 1) in f1
    assert X0_RANKING not in f1
    f2 = forbidden_family_box2()
    assert serial("222") in f2
    assert serial("122") in f2
    assert ranking_of_formula(Box1(Var(0)), 1) in f2
    assert X0_RANKING not in f2


# Each variant's invariant as the level tuples a place may hold: a place is
# a pair of neighbouring worlds for box1 and a classical world for box2.
# Its own box is the one allowed, and the other box is the one missing.
_INVARIANTS = {
    "box1": (PreorderOp.BOX1, PreorderOp.BOX2, {(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if {a, b} != {1, 3}}),
    "box2": (PreorderOp.BOX2, PreorderOp.BOX1, {(1,), (3,)}),
}

# The places at n=1, whose worlds are 0, u and 1 at indices 0, 1 and 2.
_N1_PLACES = {"box1": [(0, 1), (1, 0), (1, 2), (2, 1)], "box2": [(0,), (2,)]}

_FAMILIES = {"box1": forbidden_family_box1, "box2": forbidden_family_box2}


def _preserves(op, allowed):
    """Whether ``op``, acting world by world, sends operands whose levels at a
    place are allowed to a result whose levels there are allowed too."""
    def at_one_world(*levels):
        return apply_op(op, *(Ranking(0, (level,)) for level in levels)).levels[0]

    arity = 1 if op in UNARY_OPS else 2
    return all(
        tuple(at_one_world(*world) for world in zip(*operands)) in allowed
        for operands in itertools.product(allowed, repeat=arity)
    )


def _keeps_invariant(variant, r):
    allowed = _INVARIANTS[variant][2]
    return all(tuple(r.levels[i] for i in place) in allowed for place in _N1_PLACES[variant])


@pytest.mark.parametrize("variant", sorted(_INVARIANTS))
def test_allowed_operations_preserve_the_invariant(variant):
    own_box, missing_box, allowed = _INVARIANTS[variant]
    for op in (PreorderOp.NEG, PreorderOp.JOIN, PreorderOp.MEET, own_box):
        assert _preserves(op, allowed), op
    assert not _preserves(missing_box, allowed)


@pytest.mark.parametrize("variant", sorted(_INVARIANTS))
def test_forbidden_family_is_what_breaks_the_invariant(variant):
    assert _keeps_invariant(variant, X0_RANKING) and _keeps_invariant(variant, CONTRADICTION_RANKING)
    broken = {r for r in all_rankings(1) if not _keeps_invariant(variant, r)}
    assert _FAMILIES[variant]() == broken


def test_nondefinability_box1():
    report = verify_nondefinability("box1")
    assert len(report.closure) == 17
    assert report.disjoint
    assert report.intersection == frozenset()
    assert report.meet_invariant
    # the closure misses exactly the forbidden rankings, nothing more
    assert report.unreachable == report.forbidden


def test_nondefinability_box2():
    report = verify_nondefinability("box2")
    assert len(report.closure) == 12
    assert report.disjoint
    assert report.meet_invariant
    assert report.unreachable == report.forbidden


def test_nondefinability_with_bot_generator():
    # regression pins for the outcome of the extra-generator runs
    for variant, size in (("box1", 17), ("box2", 12)):
        report = verify_nondefinability(variant, include_bot=True)
        assert len(report.closure) == size
        assert report.disjoint
        assert report.meet_invariant


def test_nondefinability_rejects_unknown_variant():
    with pytest.raises(ValueError):
        verify_nondefinability("box3")


def test_both_boxes_reach_everything():
    everything = frozenset(all_rankings(1))
    ops = {PreorderOp.NEG, PreorderOp.JOIN, PreorderOp.BOX1, PreorderOp.BOX2}
    assert closure({X0_RANKING}, ops) == everything
    assert closure({X0_RANKING, CONTRADICTION_RANKING}, ops | {PreorderOp.MEET}) == everything


def test_plain_connectives_reach_a_strict_subset():
    reached = closure(
        {X0_RANKING, CONTRADICTION_RANKING},
        {PreorderOp.NEG, PreorderOp.JOIN, PreorderOp.MEET},
    )
    assert reached == {serial(s) for s in ("111", "121", "123", "321", "323", "333")}
    assert reached < frozenset(all_rankings(1))


def test_formula_fragment_stays_inside_box1_closure():
    # value profiles compose, so saturating profiles up to depth 4 reaches
    # exactly the rankings of the formula trees up to that depth
    profiles = {value_profile(Var(0), 1), value_profile(Bot(), 1)}
    for _ in range(3):
        grown = set(profiles)
        for p in profiles:
            for node in (Not, Dia1, Box1):
                grown.add(tuple(UNARY_TABLES[node][v] for v in p))
        for a in profiles:
            for b in profiles:
                for node in (And, Or, Implies):
                    grown.add(tuple(map(BINARY_TABLES[node], a, b)))
        profiles = grown
    reached = {Ranking(1, tuple(3 - int(v) for v in p)) for p in profiles}
    bound = closure(
        {X0_RANKING, CONTRADICTION_RANKING},
        {PreorderOp.NEG, PreorderOp.JOIN, PreorderOp.MEET, PreorderOp.BOX1},
    )
    assert X0_RANKING in reached and CONTRADICTION_RANKING in reached
    assert reached <= bound


def test_report_formatting_human():
    text = format_nondefinability_report(verify_nondefinability("box1"))
    lines = text.splitlines()
    assert lines[0] == "variant: box1 (generators: x0; ops: neg, join, box1, meet)"
    assert lines[1] == "closure size: 17 of 27"
    assert lines[2] == "forbidden family (10 rankings):"
    assert all(line.endswith(" OUT") for line in lines[3:13])
    assert lines[13].startswith("unreachable rankings (10):")
    assert lines[14] == "meet adds nothing: yes"
    assert lines[15] == "verdict: DISJOINT"


def test_report_formatting_mentions_bot_generator():
    text = format_nondefinability_report(verify_nondefinability("box2", include_bot=True))
    assert "generators: x0 and bot" in text.splitlines()[0]


def test_report_formatting_machine():
    report = verify_nondefinability("box2")
    lines = format_nondefinability_report(report, machine=True).splitlines()
    assert len(lines) == 15
    serials = []
    for line in lines:
        s, flag = line.split()
        assert flag == "OUT"
        serials.append(s)
    assert serials == sorted(serials)
    assert {serial(s) for s in serials} == report.forbidden
