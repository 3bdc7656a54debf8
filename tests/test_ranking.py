import pytest
from hypothesis import given

from tribelief import (
    Bot,
    Box1,
    Not,
    Ranking,
    TruthValue,
    Var,
    all_rankings,
    capture_set,
    capture_valuation,
    classify,
    formula_of_ranking,
    interpretations,
    level_of_value,
    ranking_of_formula,
    value_of_level,
)
from strategies import rankings

F, U, T = TruthValue.FALSE, TruthValue.UNDET, TruthValue.TRUE


def test_level_value_correspondence():
    assert level_of_value(T) == 1
    assert level_of_value(U) == 2
    assert level_of_value(F) == 3
    for level in (1, 2, 3):
        assert level_of_value(value_of_level(level)) == level


@pytest.mark.parametrize("level", [0, 4, -1])
def test_value_of_level_rejects_non_levels(level):
    # 4 must not wrap round to a value, as a lookup indexed by 3 - level would
    with pytest.raises(ValueError, match="levels must be 1, 2 or 3"):
        value_of_level(level)


def test_ranking_validation():
    with pytest.raises(ValueError):
        Ranking(1, (1, 2))
    with pytest.raises(ValueError):
        Ranking(1, (1, 2, 4))
    with pytest.raises(ValueError):
        Ranking(-1, ())


def test_ranking_level_lookup():
    r = Ranking(1, (3, 2, 1))
    assert r.level((F,)) == 3
    assert r.level((U,)) == 2
    assert r.level((T,)) == 1


@pytest.mark.parametrize("w", [(T,), (T, U, F), ()], ids=["short", "long", "empty"])
def test_ranking_level_rejects_an_interpretation_of_another_size(w):
    # a short world used to read another world's level, a long one a bare IndexError
    r = Ranking(2, (1, 2, 3) * 3)
    with pytest.raises(ValueError, match=rf"^expected an interpretation of 2 variable\(s\), got {len(w)} value\(s\)$"):
        r.level(w)


def test_level_sets():
    r = Ranking(1, (3, 2, 1))
    assert r.level_set(1) == ((T,),)
    assert r.level_set(2) == ((U,),)
    assert r.level_set(3) == ((F,),)
    with pytest.raises(ValueError):
        r.level_set(0)


def test_level_sets_canonical_order():
    r = Ranking(2, (1,) * 9)
    assert r.level_set(1) == interpretations(2)
    assert r.level_set(2) == ()


def test_serialize_examples():
    assert Ranking(1, (3, 2, 1)).serialize() == "321"
    assert Ranking.deserialize("222", 1) == Ranking(1, (2, 2, 2))


def test_deserialize_errors():
    with pytest.raises(ValueError):
        Ranking.deserialize("32", 1)
    with pytest.raises(ValueError):
        Ranking.deserialize("320", 1)


def test_serialize_round_trip_all_n1():
    for r in all_rankings(1):
        assert Ranking.deserialize(r.serialize(), 1) == r


def test_all_rankings_enumeration():
    seen = list(all_rankings(1))
    assert len(seen) == 27
    assert seen[0].serialize() == "111"
    assert seen[-1].serialize() == "333"
    assert len(set(seen)) == 27


def test_all_rankings_rejects_a_negative_variable_count():
    with pytest.raises(ValueError, match="^variable count must be non-negative$"):
        all_rankings(-1)


def test_from_level_sets():
    r = Ranking.from_level_sets(1, [(T,)], [(U,)], [(F,)])
    assert r == Ranking(1, (3, 2, 1))


def test_from_level_sets_rejects_double_assignment():
    with pytest.raises(ValueError, match="twice"):
        Ranking.from_level_sets(1, [(T,)], [(T,), (U,)], [(F,)])


def test_from_level_sets_rejects_incomplete_cover():
    with pytest.raises(ValueError, match="cover"):
        Ranking.from_level_sets(1, [(T,)], [], [(F,)])


def test_to_lines_format():
    assert Ranking(1, (3, 2, 1)).to_lines() == ["0 : 3", "u : 2", "1 : 1"]


def test_lines_round_trip():
    for r in (Ranking(1, (3, 2, 1)), Ranking(2, (1, 2, 3) * 3)):
        assert Ranking.from_lines("\n".join(r.to_lines())) == r


def test_from_lines_accepts_any_order_and_blank_lines():
    text = "1 : 1\n\n0 : 3\nu : 2\n"
    assert Ranking.from_lines(text) == Ranking(1, (3, 2, 1))


def test_from_lines_n0():
    r = Ranking(0, (2,))
    assert r.to_lines() == [": 2"]
    assert Ranking.from_lines(": 2") == r


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("0 : 3\nu : 2", "incomplete"),
        ("0 : 3\n0 : 1\nu : 2\n1 : 1", "duplicate"),
        ("0 : 3\nu : 5\n1 : 1", "level"),
        ("0 : 3\nq : 2\n1 : 1", "truth value"),
        ("0 3\nu : 2\n1 : 1", "expected"),
        ("0 : 3\nu u : 2\n1 : 1", "expected 1"),
    ],
)
def test_from_lines_rejections(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        Ranking.from_lines(text)


def test_ranking_of_formula_examples():
    assert ranking_of_formula(Var(0), 1).serialize() == "321"
    assert ranking_of_formula(Bot(), 1).serialize() == "333"
    assert ranking_of_formula(Not(Bot()), 1).serialize() == "111"
    assert ranking_of_formula(Box1(Var(0)), 1).serialize() == "211"


def test_capture_valuation_unique_model():
    for n in (1, 2):
        for w in interpretations(n):
            models, _, _ = classify(capture_valuation(w), n)
            assert models == (w,)


def test_capture_valuation_undetermined_world_has_quasi_models():
    models, quasi, counter = classify(capture_valuation((U,)), 1)
    assert models == ((U,),)
    assert quasi == ((F,), (T,))
    assert counter == ()


def test_capture_valuation_rejects_empty():
    with pytest.raises(ValueError):
        capture_valuation(())


def test_capture_set_models_exactly():
    worlds = ((F, T), (U, U))
    models, _, _ = classify(capture_set(worlds, 2), 2)
    assert models == worlds


def test_capture_set_empty_is_bot():
    assert capture_set([], 1) == Bot()


def test_capture_set_order_insensitive():
    a = capture_set([(T,), (F,)], 1)
    b = capture_set([(F,), (T,), (F,)], 1)
    assert a == b


def test_capture_set_validation():
    with pytest.raises(ValueError):
        capture_set([(T,)], 0)
    with pytest.raises(ValueError):
        capture_set([(T, F)], 1)


def test_formula_of_ranking_round_trip_all_n1():
    for r in all_rankings(1):
        assert ranking_of_formula(formula_of_ranking(r), 1) == r


def test_formula_of_ranking_rejects_n0():
    with pytest.raises(ValueError):
        formula_of_ranking(Ranking(0, (1,)))


@given(rankings(n=1))
def test_encode_decode_is_identity(r):
    assert ranking_of_formula(formula_of_ranking(r), 1) == r


@given(rankings(n=1))
def test_formula_of_ranking_is_cached_and_pure(r):
    assert formula_of_ranking(r) == formula_of_ranking(r)
