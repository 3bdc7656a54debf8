import random
import re

import pytest
from hypothesis import given

from tribelief import (
    And,
    Bot,
    Box1,
    Dia1,
    Dia2,
    Not,
    Or,
    Ranking,
    TruthValue,
    Var,
    all_rankings,
    capture_set,
    capture_valuation,
    classify,
    eval_formula,
    formula_of_ranking,
    interpretation_index,
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


@pytest.mark.parametrize("first, ok", [(1.0, False), (True, False), (1, True)], ids=["float", "bool", "int"])
def test_ranking_accepts_only_int_levels(first, ok):
    # a float or bool equal to a level used to pass and serialize as "1.02True"
    if ok:
        assert Ranking(1, (first, 2, 3)).serialize() == "123"
    else:
        with pytest.raises(ValueError, match="^levels must be 1, 2 or 3$"):
            Ranking(1, (first, 2, 3))


def test_ranking_level_lookup():
    r = Ranking(1, (3, 2, 1))
    assert r.level((F,)) == 3
    assert r.level((U,)) == 2
    assert r.level((T,)) == 1


def _wrong_size(n, digits):
    """The message every check of a world's size gives, as a regex."""
    return rf"^expected an interpretation of {n} variable\(s\), got {re.escape(repr(digits))}$"


@pytest.mark.parametrize(
    "w, digits",
    [((T,), "1"), ((T, U, F), "1 u 0"), ((), ""), ((2, 1, 0), "1 u 0")],
    ids=["short", "long", "empty", "ints"],
)
def test_ranking_level_rejects_an_interpretation_of_another_size(w, digits):
    # a short world used to read another world's level, a long one a bare IndexError;
    # a world of plain ints, which lookups accept, gets the same message
    r = Ranking(2, (1, 2, 3) * 3)
    with pytest.raises(ValueError, match=_wrong_size(2, digits)):
        r.level(w)


# each entry point that takes a world, given the world under test as one world of a ranking over n=2
# (eval_formula, interpretation_index and capture_valuation take their variable count from the world)
_WORLD_SITES = {
    "eval_formula": lambda w: eval_formula(And(Var(0), Not(Var(1))), w),
    "Ranking.level": lambda w: Ranking(2, (1, 2, 3) * 3).level(w),
    "capture_set": lambda w: capture_set([(F, T), w], 2),
    "Ranking.from_level_sets": lambda w: Ranking.from_level_sets(2, [w], [], [v for v in interpretations(2) if v != w]),
    "interpretation_index": interpretation_index,
    "capture_valuation": capture_valuation,
}


@pytest.mark.parametrize(
    "w, digits",
    [
        ((0, 5), "0 5"),
        ((0, -1), "0 -1"),
        ((5, 0), "5 0"),
        ((T, None), "1 None"),
        ((True, 0), "True 0"),
        ((1.0, 0), "1.0 0"),
        ((0, [1]), "0 [1]"),
        ((0, "u"), "0 'u'"),
        ((2, 7), "1 7"),
    ],
    ids=["5-last", "negative", "5-first", "none", "bool", "float", "unhashable", "str", "7-last"],
)
@pytest.mark.parametrize("site", list(_WORLD_SITES))
def test_world_values_must_be_0_u_or_1(site, w, digits):
    # level((0, 5)) and level((0, -1)) used to read the level of another world, level((5, 0)) ended
    # in a bare IndexError, capture_set blamed the levels and from_level_sets ended in a bare KeyError;
    # a bool or float was read as the value it equals, True as u; an unhashable value ended in a bare TypeError;
    # eval_formula checked no value: at x0 & ~x1, (0, 5) ended in a bare IndexError and (5, 0) read as 1;
    # interpretation_index and capture_valuation checked none either: the index of (2, 7) was 13;
    # capture_valuation hashed the world for its cache before the check, so [1] was a bare TypeError
    with pytest.raises(ValueError, match=_wrong_size(2, digits)):
        _WORLD_SITES[site](w)


@pytest.mark.parametrize("site", list(_WORLD_SITES))
def test_a_world_with_no_length_is_refused(site):
    # eval_formula, interpretation_index and capture_valuation took len() of it first: a bare TypeError;
    # they have no count to name, the sites given n name theirs; the message reads the world, so each
    # call gets a fresh generator
    size = "" if site in ("eval_formula", "interpretation_index", "capture_valuation") else " of 2 variable(s)"
    with pytest.raises(ValueError, match=rf"^expected an interpretation{re.escape(size)}, got '1 0'$"):
        _WORLD_SITES[site](v for v in (T, F))


@pytest.mark.parametrize("w, digits", [({2: "junk", 0: "junk"}, "1 0"), ({0, 2}, "0 1")], ids=["dict", "set"])
@pytest.mark.parametrize("site", list(_WORLD_SITES))
def test_a_world_that_is_not_a_sequence_is_refused(site, w, digits):
    # a dict was read by its keys, so interpretation_index gave 6 for the one above, and a set in hash order;
    # like a generator it has no count for the sites that take theirs from the world to name
    size = "" if site in ("eval_formula", "interpretation_index", "capture_valuation") else " of 2 variable(s)"
    message = f"expected an interpretation{size}, got {digits!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _WORLD_SITES[site](w)


@pytest.mark.parametrize("site", list(_WORLD_SITES))
def test_world_values_may_be_the_ints_0_1_and_2(site):
    # eval_formula used to return an int it read off the world: x0 & ~x1 at (2, 0) was 2, not 1
    for w in interpretations(2):
        got, want = _WORLD_SITES[site](tuple(map(int, w))), _WORLD_SITES[site](w)
        assert (type(got), got) == (type(want), want)


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


_N2_WORLDS = interpretations(2)


@pytest.mark.parametrize(
    "n, accepted, digits",
    [
        # a one-value world used to be read as world 0,1, a three-value one ended in a bare KeyError
        (2, [(T,)] + [w for w in _N2_WORLDS if w != (F, T)], "1"),
        (2, [(T, U, F)] + [w for w in _N2_WORLDS if w != (T, T)], "1 u 0"),
        # an empty world used to be reported as assigned twice
        (1, [(), (T,)], ""),
    ],
    ids=["short", "long", "empty"],
)
def test_from_level_sets_rejects_a_world_of_another_size(n, accepted, digits):
    uncertain, rejected = ([(U,)], [(F,)]) if n == 1 else ([], [])
    with pytest.raises(ValueError, match=_wrong_size(n, digits)):
        Ranking.from_level_sets(n, accepted, uncertain, rejected)


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


def test_capture_valuation_checks_a_world_its_cache_holds():
    # the cache keys worlds by equality, and only a miss used to check the world: once (u,) was captured,
    # (True,) and (1.0,) read its entry
    assert capture_valuation((U,)) is capture_valuation((U,))
    for w, digits in (((True,), "True"), ((1.0,), "1.0")):
        with pytest.raises(ValueError, match=rf"^expected an interpretation of 1 variable\(s\), got '{digits}'$"):
            capture_valuation(w)


def test_a_list_world_is_captured_as_its_tuple():
    # a list is a sequence of values like a tuple; both captures used to hash it for a cache, a bare TypeError
    w = (T, U)
    assert capture_valuation(list(w)) is capture_valuation(w)
    assert capture_set([list(w)], 2) is capture_set([w], 2)


def test_capture_valuation_rejects_empty():
    with pytest.raises(ValueError):
        capture_valuation(())


def test_capture_set_models_exactly():
    worlds = ((F, T), (U, U))
    models, _, _ = classify(capture_set(worlds, 2), 2)
    assert models == worlds


def test_capture_set_rejects_a_world_of_another_size():
    with pytest.raises(ValueError, match=_wrong_size(2, "1 u 0")):
        capture_set([(T, U), (T, U, F)], 2)


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


def _seeded_rankings(n, count, seed):
    rng = random.Random(seed)
    return [Ranking(n, rng.choices((1, 2, 3), k=3**n)) for _ in range(count)]


@pytest.mark.parametrize(
    "n, ranked",
    [(1, lambda: all_rankings(1)), (2, lambda: all_rankings(2)), (4, lambda: _seeded_rankings(4, 200, 2029))],
    ids=["all-n1", "all-n2", "seeded-n4"],
)
def test_formula_of_ranking_is_the_capture_set_encoding(n, ranked):
    # formula_of_ranking folds its own level sets unchecked; capture_set checks and sorts the worlds it is given
    for r in ranked():
        expected = Not(Or(Dia1(capture_set(r.level_set(2), n)), Dia2(capture_set(r.level_set(3), n))))
        assert formula_of_ranking(r) is expected


def test_formula_of_ranking_rejects_n0():
    with pytest.raises(ValueError):
        formula_of_ranking(Ranking(0, (1,)))


@given(rankings(n=1))
def test_encode_decode_is_identity(r):
    assert ranking_of_formula(formula_of_ranking(r), 1) == r


@given(rankings(n=1))
def test_formula_of_ranking_is_cached_and_pure(r):
    assert formula_of_ranking(r) == formula_of_ranking(r)
