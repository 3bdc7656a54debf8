"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines as they complete.
"""

import itertools
import random
import time

from tribelief import (
    And,
    Bot,
    Box1,
    Box2,
    CONTRADICTION_RANKING,
    Dia1,
    Dia2,
    Implies,
    Not,
    OperatorTable,
    Or,
    PreorderOp,
    Ranking,
    TruthValue,
    Var,
    X0_RANKING,
    all_rankings,
    apply_op,
    apply_semantic,
    capture_valuation,
    check_characterizations,
    check_ci_postulates,
    ci1_prime_equiv_witness,
    ci_table,
    classify,
    closure,
    drastic_table,
    formula_of_ranking,
    interpretations,
    ranking_of_formula,
    sweep_all_tables,
    value_profile,
    verify_nondefinability,
)
from tribelief.semantics import BINARY_TABLES, UNARY_TABLES
import reference_tables as ref

F, U, T = TruthValue.FALSE, TruthValue.UNDET, TruthValue.TRUE


class Budget:
    """Times a criterion and prints its pass line; failing the time budget or
    any assertion inside the block fails the test."""

    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds
        self.notes = []

    def note(self, text):
        self.notes.append(text)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"criterion {self.number} FAIL ({elapsed:.2f}s): {self.description}")
            return False
        detail = f"; {'; '.join(self.notes)}" if self.notes else ""
        print(f"criterion {self.number} PASS ({elapsed:.2f}s): {self.description}{detail}")
        assert elapsed < self.seconds, (
            f"criterion {self.number} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
        )
        return False


def test_criterion_1_truth_table_fidelity():
    sym = TruthValue.from_symbol
    with Budget(1, "truth tables match the reference rows", 1.0):
        binary = [(And, ref.AND_ROWS), (Or, ref.OR_ROWS), (Implies, ref.IMPLIES_ROWS)]
        for node, rows in binary:
            assert len(rows) == 9
            for a, b, expected in rows:
                assert BINARY_TABLES[node](sym(a), sym(b)) == sym(expected)
        unary = [
            (Not, ref.NOT_ROWS),
            (Dia1, ref.DIA1_ROWS),
            (Box1, ref.BOX1_ROWS),
            (Dia2, ref.DIA2_ROWS),
            (Box2, ref.BOX2_ROWS),
        ]
        for node, rows in unary:
            assert len(rows) == 3
            for a, expected in rows:
                assert UNARY_TABLES[node][sym(a)] == sym(expected)
        # the corner the maps are easiest to get wrong
        assert UNARY_TABLES[Dia1][F] == F


def test_criterion_2_representation_round_trip():
    with Budget(2, "ranking -> formula -> ranking is the identity", 30.0) as b:
        for n, count in ((1, 27), (2, 19683)):
            checked = 0
            for r in all_rankings(n):
                assert ranking_of_formula(formula_of_ranking(r), n) == r
                checked += 1
            assert checked == count
        b.note("27 rankings at n=1 and 19683 at n=2")


def test_criterion_3_capture_formulas_have_unique_models():
    rng = random.Random(20260814)
    with Budget(3, "capture formulas have exactly one model", 10.0) as b:
        total = 0
        for n in (1, 2, 3):
            worlds = interpretations(n)
            for _ in range(200):
                w = worlds[rng.randrange(len(worlds))]
                models, _, _ = classify(capture_valuation(w), n)
                assert models == (w,)
                total += 1
        b.note(f"{total} random interpretations over n in {{1, 2, 3}}")


def test_criterion_4_ci_postulate_suite():
    with Budget(4, "the cautious operator's postulates hold", 30.0) as b:
        exhaustive = check_ci_postulates(n=1)
        assert exhaustive.ok, [r for r in exhaustive.results if not r.holds]
        assert exhaustive.pairs_checked == 729

        rng = random.Random(17)
        rankings_2 = [
            Ranking(2, tuple(rng.randint(1, 3) for _ in range(9))) for _ in range(2000)
        ]
        pairs = list(zip(rankings_2[:1000], rankings_2[1000:]))
        sampled = check_ci_postulates(n=2, pairs=pairs)
        assert sampled.ok, [r for r in sampled.results if not r.holds]
        assert sampled.pairs_checked == 1000

        # negative fact: the first primed postulate holds for model sets only,
        # not as a truth-table identity; the gap sits at the cell where the
        # old state accepts a world the new information rejects
        witness = ci1_prime_equiv_witness()
        assert witness is not None
        r_old, r_new, index = witness
        phi_value = value_profile(formula_of_ranking(r_old), 1)[index]
        theta_value = value_profile(formula_of_ranking(r_new), 1)[index]
        assert (phi_value, theta_value) == (T, F)
        b.note("729 exhaustive pairs at n=1, 1000 random pairs at n=2")


def test_criterion_5_characterization_of_all_tables():
    with Budget(5, "postulates characterize every operator table", 300.0) as b:
        sweep = sweep_all_tables(n=1)
        assert sweep.ok, sweep.failures[:3]
        assert sweep.total == 19683

        rng = random.Random(99)
        chosen = [ci_table(), drastic_table()] + [
            OperatorTable(tuple(rng.randint(1, 3) for _ in range(9))) for _ in range(50)
        ]
        results = check_characterizations(chosen, n=1)
        assert [result.table for result in results] == chosen
        for table, result in zip(chosen, results):
            assert result.ok, (table.serialize(), result.failure)
            assert result.pairs_checked == 729
        b.note("19683 tables on covering pairs, 52 tables on all 729 pairs")


def test_criterion_6_drastic_absorption_and_two_step_convergence():
    with Budget(6, "drastic revision absorbs; the cautious one converges in two steps", 5.0):
        drastic = drastic_table()
        cautious = ci_table()
        rs = tuple(all_rankings(1))
        for a, b in itertools.product(rs, repeat=2):
            assert apply_semantic(drastic, a, b) == b
            once = apply_semantic(cautious, a, b)
            assert apply_semantic(cautious, once, b) == b


def test_criterion_7_nondefinability():
    with Budget(7, "single-box closures avoid their forbidden families", 1.0) as b:
        box1_report = verify_nondefinability("box1")
        assert box1_report.disjoint and box1_report.meet_invariant
        box2_report = verify_nondefinability("box2")
        assert box2_report.disjoint and box2_report.meet_invariant

        everything = frozenset(all_rankings(1))
        both = closure(
            {X0_RANKING, CONTRADICTION_RANKING},
            {PreorderOp.NEG, PreorderOp.JOIN, PreorderOp.MEET, PreorderOp.BOX1, PreorderOp.BOX2},
        )
        assert both == everything

        plain = closure(
            {X0_RANKING, CONTRADICTION_RANKING},
            {PreorderOp.NEG, PreorderOp.JOIN, PreorderOp.MEET},
        )
        assert plain < everything

        # the extra-generator runs are executed and their outcomes reported
        outcomes = []
        for variant in ("box1", "box2"):
            report = verify_nondefinability(variant, include_bot=True)
            outcomes.append(
                f"{variant}+bot closure {len(report.closure)} "
                f"{'disjoint' if report.disjoint else 'INTERSECTS'}"
            )
        b.note(
            f"closures {len(box1_report.closure)}/{len(box2_report.closure)} of 27, "
            f"both boxes reach 27, plain connectives reach {len(plain)}; "
            + ", ".join(outcomes)
        )


def test_criterion_8_nine_world_example():
    with Budget(8, "the nine-world revision example reproduces", 1.0):
        old = Ranking(2, (1, 1, 1, 2, 2, 2, 3, 3, 3))
        new = Ranking(2, (3, 2, 1, 3, 2, 1, 3, 2, 1))
        combined = apply_semantic(ci_table(), old, new)
        worlds = interpretations(2)
        by_level = {
            level: {worlds.index(w) + 1 for w in combined.level_set(level)} for level in (1, 2, 3)
        }
        assert by_level[1] == {3, 6}
        assert by_level[2] == {1, 2, 5, 8, 9}
        assert by_level[3] == {4, 7}
        assert combined.serialize() == "221321322"


def _random_formula(rng, depth):
    if depth == 0:
        return Var(rng.randrange(2)) if rng.random() < 0.9 else Bot()
    shape = rng.randrange(9)
    if shape == 0:
        return Var(rng.randrange(2))
    child = _random_formula(rng, depth - 1)
    if shape == 1:
        return Not(child)
    if shape == 2:
        return Dia1(child)
    if shape == 3:
        return Box1(child)
    if shape == 4:
        return Dia2(child)
    if shape == 5:
        return Box2(child)
    other = _random_formula(rng, depth - 1)
    if shape == 6:
        return And(child, other)
    if shape == 7:
        return Or(child, other)
    return Implies(child, other)


def test_criterion_9_connectives_commute_with_level_operations():
    rng = random.Random(4242)

    def neg_op(r):
        return apply_op(PreorderOp.NEG, r)

    def box1_op(r):
        return apply_op(PreorderOp.BOX1, r)

    def box2_op(r):
        return apply_op(PreorderOp.BOX2, r)

    def join_op(a, b):
        return apply_op(PreorderOp.JOIN, a, b)

    def meet_op(a, b):
        return apply_op(PreorderOp.MEET, a, b)

    unary_cases = [
        (Not, neg_op),
        (Box1, box1_op),
        (Box2, box2_op),
        (Dia1, lambda r: neg_op(box1_op(neg_op(r)))),
        (Dia2, lambda r: neg_op(box2_op(neg_op(r)))),
    ]
    binary_cases = [
        (Or, join_op),
        (And, meet_op),
        (Implies, lambda a, b: join_op(neg_op(a), b)),
    ]
    with Budget(9, "every connective commutes with its level operation", 10.0) as budget:
        for _ in range(1000):
            f = _random_formula(rng, rng.randint(1, 4))
            g = _random_formula(rng, rng.randint(1, 4))
            rf = ranking_of_formula(f, 2)
            rg = ranking_of_formula(g, 2)
            for connective, op in unary_cases:
                assert ranking_of_formula(connective(f), 2) == op(rf)
            for connective, op in binary_cases:
                assert ranking_of_formula(connective(f, g), 2) == op(rf, rg)
        budget.note("1000 random formula pairs at n=2, all eight connectives")
