import gc
import itertools

import pytest
from hypothesis import given

from tribelief import (
    And,
    Bot,
    Box1,
    Box2,
    Dia1,
    Dia2,
    Implies,
    Not,
    Or,
    TruthValue,
    Var,
    bi_entails,
    classify,
    entails,
    equiv,
    eval_formula,
    format_interpretation,
    interpretation_index,
    interpretations,
    is_contradiction,
    is_tautology,
    parse_interpretation,
    truth_table_lines,
    value_profile,
)
from tribelief.semantics import BINARY_TABLES, UNARY_TABLES
import reference_tables as ref
from strategies import formulas

F, U, T = TruthValue.FALSE, TruthValue.UNDET, TruthValue.TRUE


def sym(text):
    return TruthValue.from_symbol(text)


@pytest.mark.parametrize("a,b,expected", ref.AND_ROWS)
def test_conj_matches_reference(a, b, expected):
    assert BINARY_TABLES[And](sym(a), sym(b)) == sym(expected)


@pytest.mark.parametrize("a,b,expected", ref.OR_ROWS)
def test_disj_matches_reference(a, b, expected):
    assert BINARY_TABLES[Or](sym(a), sym(b)) == sym(expected)


@pytest.mark.parametrize("a,b,expected", ref.IMPLIES_ROWS)
def test_implies_matches_reference(a, b, expected):
    assert BINARY_TABLES[Implies](sym(a), sym(b)) == sym(expected)


@pytest.mark.parametrize("a,expected", ref.NOT_ROWS)
def test_neg_matches_reference(a, expected):
    assert UNARY_TABLES[Not][sym(a)] == sym(expected)


@pytest.mark.parametrize(
    "node,rows",
    [(Dia1, ref.DIA1_ROWS), (Box1, ref.BOX1_ROWS), (Dia2, ref.DIA2_ROWS), (Box2, ref.BOX2_ROWS)],
    ids=["dia1-rows0", "box1-rows1", "dia2-rows2", "box2-rows3"],
)
def test_modal_value_maps_match_reference(node, rows):
    for a, expected in rows:
        assert UNARY_TABLES[node][sym(a)] == sym(expected)


@pytest.mark.parametrize(
    "node,rows",
    [
        (And(Var(0), Var(1)), ref.AND_ROWS),
        (Or(Var(0), Var(1)), ref.OR_ROWS),
        (Implies(Var(0), Var(1)), ref.IMPLIES_ROWS),
    ],
)
def test_eval_binary_connectives(node, rows):
    for a, b, expected in rows:
        assert eval_formula(node, (sym(a), sym(b))) == sym(expected)


@pytest.mark.parametrize(
    "wrap,rows",
    [
        (Not, ref.NOT_ROWS),
        (Dia1, ref.DIA1_ROWS),
        (Box1, ref.BOX1_ROWS),
        (Dia2, ref.DIA2_ROWS),
        (Box2, ref.BOX2_ROWS),
    ],
)
def test_eval_unary_connectives(wrap, rows):
    for a, expected in rows:
        assert eval_formula(wrap(Var(0)), (sym(a),)) == sym(expected)


def test_eval_atoms():
    assert eval_formula(Bot(), (T,)) is F
    assert eval_formula(Var(1), (F, U)) is U


def test_eval_out_of_range_variable():
    with pytest.raises(ValueError, match="out of range"):
        eval_formula(Var(2), (F, U))


def test_eval_rejects_non_formula():
    with pytest.raises(TypeError):
        eval_formula("x0", (F,))


def test_interpretations_counts():
    for n in range(4):
        assert len(interpretations(n)) == 3**n


def test_interpretations_order_n1():
    assert interpretations(1) == ((F,), (U,), (T,))


def test_interpretations_first_position_most_significant():
    worlds = interpretations(2)
    assert worlds[0] == (F, F)
    assert worlds[1] == (F, U)
    assert worlds[3] == (U, F)
    assert worlds[-1] == (T, T)


def test_interpretations_n0():
    assert interpretations(0) == ((),)


def test_interpretations_rejects_negative():
    with pytest.raises(ValueError):
        interpretations(-1)


def test_interpretations_refuses_a_bool_or_float_count_before_and_after_either_is_tried():
    # the cache used to key True and 1.0 as 1: interpretations(True) answered for n=1 and then
    # interpretations(1.0) did too, though a cold interpretations(1.0) ended in a bare TypeError
    interpretations.cache_clear()
    for n in (1.0, True, 1.0):
        with pytest.raises(ValueError, match=rf"^variable count must be an int, got {n}$"):
            interpretations(n)
    assert interpretations(1) == ((F,), (U,), (T,))


def test_interpretation_index_matches_enumeration():
    for n in (0, 1, 2, 3):
        for i, w in enumerate(interpretations(n)):
            assert interpretation_index(w) == i


def test_format_interpretation():
    assert format_interpretation((F, U, T)) == "0 u 1"
    assert format_interpretation((F, U, T), sep="") == "0u1"
    assert format_interpretation(()) == ""
    # a value that is none of 0, u and 1 (here as TruthValues or ints) prints as its repr; 5 was a bare KeyError
    assert format_interpretation((5, "u", True, 2)) == "5 'u' True 1"


@pytest.mark.parametrize("text", ["0,u,1", "0 u 1", "0u1", " 0 , u , 1 "])
def test_parse_interpretation_accepted_shapes(text):
    assert parse_interpretation(text, 3) == (F, U, T)


def test_parse_interpretation_single_value():
    assert parse_interpretation("u", 1) == (U,)


def test_parse_interpretation_errors():
    with pytest.raises(ValueError):
        parse_interpretation("0 u", 3)
    with pytest.raises(ValueError):
        parse_interpretation("0 x 1", 3)
    with pytest.raises(ValueError):
        parse_interpretation("2", 1)


def test_from_symbol_round_trip():
    for v in (F, U, T):
        assert TruthValue.from_symbol(v.symbol) is v
    with pytest.raises(ValueError):
        TruthValue.from_symbol("2")


def test_classify_single_variable():
    models, quasi, counter = classify(Var(0), 1)
    assert models == ((T,),)
    assert quasi == ((U,),)
    assert counter == ((F,),)


def test_classify_partitions_everything():
    f = Implies(And(Var(0), Var(1)), Dia1(Var(0)))
    models, quasi, counter = classify(f, 2)
    assert len(models) + len(quasi) + len(counter) == 9
    assert set(models) | set(quasi) | set(counter) == set(interpretations(2))


def test_entailment_is_directional_across_box1():
    assert entails(Var(0), Box1(Var(0)), 1)
    assert not entails(Box1(Var(0)), Var(0), 1)


def test_bi_entailment_weaker_than_equivalence():
    # <>2 x0 keeps exactly the models of x0 but pushes u down to 0
    assert bi_entails(Var(0), Dia2(Var(0)), 1)
    assert not equiv(Var(0), Dia2(Var(0)), 1)


def test_contradiction_entails_everything():
    assert entails(Bot(), Var(0), 1)
    assert entails(And(Var(0), Not(Dia2(Var(0)))), Var(1), 2)


def test_is_tautology_and_contradiction():
    assert is_contradiction(Bot(), 1)
    assert is_tautology(Not(Bot()), 1)
    assert not is_tautology(Or(Var(0), Not(Var(0))), 1)
    assert not is_contradiction(And(Var(0), Not(Var(0))), 1)


@given(formulas(max_index=1))
def test_box_dualities(f):
    assert equiv(Box1(f), Not(Dia1(Not(f))), 2)
    assert equiv(Box2(f), Not(Dia2(Not(f))), 2)
    assert equiv(Dia1(f), Not(Box1(Not(f))), 2)
    assert equiv(Dia2(f), Not(Box2(Not(f))), 2)


@given(formulas(max_index=1), formulas(max_index=1))
def test_modalities_distribute_over_lattice_connectives(f, g):
    for wrap in (Dia1, Box1, Dia2, Box2):
        assert equiv(wrap(And(f, g)), And(wrap(f), wrap(g)), 2)
        assert equiv(wrap(Or(f, g)), Or(wrap(f), wrap(g)), 2)


@given(formulas(max_index=1))
def test_double_negation(f):
    assert equiv(Not(Not(f)), f, 2)


@given(formulas(max_index=1), formulas(max_index=1))
def test_de_morgan(f, g):
    assert equiv(Not(And(f, g)), Or(Not(f), Not(g)), 2)
    assert equiv(Not(Or(f, g)), And(Not(f), Not(g)), 2)


@given(formulas(max_index=1), formulas(max_index=1))
def test_implication_reduces_to_negation_and_disjunction(f, g):
    assert equiv(Implies(f, g), Or(Not(f), g), 2)


@given(formulas(max_index=1, modal=False, allow_bot=False))
def test_modality_free_fragment_has_no_tautologies(f):
    # without modalities or bot, every connective fixes u, so the all-u
    # interpretation never yields 1 (and never 0 either)
    all_u = (U, U)
    assert eval_formula(f, all_u) is U
    assert not is_tautology(f, 2)
    assert not is_contradiction(f, 2)


@given(formulas(max_index=1))
def test_iterated_box1_is_a_tautology(f):
    assert is_tautology(Box1(Box1(f)), 2)


_UNARY_ROWS = {Not: ref.NOT_ROWS, Dia1: ref.DIA1_ROWS, Box1: ref.BOX1_ROWS, Dia2: ref.DIA2_ROWS, Box2: ref.BOX2_ROWS}
_BINARY_ROWS = {And: ref.AND_ROWS, Or: ref.OR_ROWS, Implies: ref.IMPLIES_ROWS}


def reference_value(f, w):
    """Symbol of ``f`` at ``w`` (a tuple of symbols), read off the reference rows."""
    if isinstance(f, Var):
        return w[f.index]
    if isinstance(f, Bot):
        return "0"
    if type(f) in _UNARY_ROWS:
        return dict(_UNARY_ROWS[type(f)])[reference_value(f.operand, w)]
    rows = {(a, b): v for a, b, v in _BINARY_ROWS[type(f)]}
    return rows[reference_value(f.left, w), reference_value(f.right, w)]


@given(formulas(max_index=1), formulas(max_index=2))
def test_value_profile_agrees_with_reference_evaluator(f2, f3):
    # canonical order: 0 < u < 1, position 0 most significant
    for n, f in ((2, f2), (3, f3)):
        worlds = itertools.product("0u1", repeat=n)
        assert [v.symbol for v in value_profile(f, n)] == [reference_value(f, w) for w in worlds]


def test_evaluation_leaves_no_reference_cycles():
    # a cycle would keep each call's memo alive until the cyclic collector ran
    f = Implies(And(Var(0), Dia1(Var(1))), Not(Box2(Var(0))))
    gc.disable()
    try:
        gc.collect()
        value_profile(f, 2)
        eval_formula(f, (U, T))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_value_profile_shared_memo():
    memo = {}
    f = And(Var(0), Not(Var(0)))
    first = value_profile(f, 1, memo)
    assert value_profile(f, 1, memo) == first
    # the memo is keyed by node, and subformulas land in it too
    assert f in memo and Not(Var(0)) in memo
    assert memo[f] == first
    # an equal formula built separately is the same node, so it hits the entry
    size = len(memo)
    again = And(Var(0), Not(Var(0)))
    assert again in memo
    assert value_profile(again, 1, memo) is first
    assert len(memo) == size


def test_value_profile_out_of_range_variable():
    with pytest.raises(ValueError, match="out of range"):
        value_profile(Var(1), 1)


def test_truth_table_lines_single_variable():
    assert truth_table_lines(Var(0), 1) == ["0 : 0", "u : u", "1 : 1"]


def test_truth_table_lines_box1():
    assert truth_table_lines(Box1(Var(0)), 1) == ["0 : u", "u : 1", "1 : 1"]


def test_truth_table_lines_n0():
    assert truth_table_lines(Bot(), 0) == [": 0"]


def test_truth_table_lines_two_variables():
    lines = truth_table_lines(And(Var(0), Var(1)), 2)
    assert len(lines) == 9
    assert lines[0] == "0 0 : 0"
    assert lines[-1] == "1 1 : 1"
