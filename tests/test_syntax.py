import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribelief import (
    And,
    Bot,
    Box1,
    Box2,
    Dia1,
    Dia2,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    Ranking,
    Var,
    formula_of_ranking,
    parse,
    render,
    value_profile,
)
from tribelief import syntax
import reference_syntax
from strategies import formula_texts, formulas


def test_parse_conjunction_with_negation():
    assert parse("x0 & ~x1") == And(Var(0), Not(Var(1)))


def test_parse_modalities():
    assert parse("<>1 x0") == Dia1(Var(0))
    assert parse("[]1 x0") == Box1(Var(0))
    assert parse("<>2 x0") == Dia2(Var(0))
    assert parse("[]2 x0") == Box2(Var(0))


def test_parse_bot():
    assert parse("bot") == Bot()


def test_unary_binds_tighter_than_and():
    assert parse("~x0 & x1") == And(Not(Var(0)), Var(1))
    assert parse("<>1 x0 & x1") == And(Dia1(Var(0)), Var(1))


def test_and_binds_tighter_than_or():
    assert parse("x0 & x1 | x2") == Or(And(Var(0), Var(1)), Var(2))
    assert parse("x0 | x1 & x2") == Or(Var(0), And(Var(1), Var(2)))


def test_or_binds_tighter_than_implies():
    assert parse("x0 | x1 -> x2") == Implies(Or(Var(0), Var(1)), Var(2))


def test_implies_is_right_associative():
    assert parse("x0 -> x1 -> x2") == Implies(Var(0), Implies(Var(1), Var(2)))


def test_and_or_are_left_associative():
    assert parse("x0 & x1 & x2") == And(And(Var(0), Var(1)), Var(2))
    assert parse("x0 | x1 | x2") == Or(Or(Var(0), Var(1)), Var(2))


def test_parentheses_override_precedence():
    assert parse("x0 & (x1 | x2)") == And(Var(0), Or(Var(1), Var(2)))
    assert parse("(x0 -> x1) -> x2") == Implies(Implies(Var(0), Var(1)), Var(2))


def test_nested_unaries():
    assert parse("~<>1 x0") == Not(Dia1(Var(0)))
    assert parse("[]1 ~x0") == Box1(Not(Var(0)))


def test_whitespace_is_insignificant():
    assert parse("x0&~x1") == parse("  x0  &  ~ x1 ")


def test_multidigit_variable_indices():
    assert parse("x12") == Var(12)
    assert parse("x01") == Var(1)


def test_truncated_conjunction_reports_position():
    with pytest.raises(FormulaSyntaxError) as exc_info:
        parse("x0 &")
    assert exc_info.value.position == 4


def test_variable_without_index():
    with pytest.raises(FormulaSyntaxError):
        parse("x")
    with pytest.raises(FormulaSyntaxError):
        parse("x & x0")


@pytest.mark.parametrize("index", ["\u00b2", "\u0661", "1" * 4301], ids=["superscript", "arabic", "long"])
def test_variable_index_is_a_short_run_of_ascii_digits(index):
    # "²" and "١" are digits to str.isdigit, and int() refuses more than
    # sys.get_int_max_str_digits() digits
    with pytest.raises(FormulaSyntaxError) as exc_info:
        parse("x" + index)
    assert exc_info.value.position <= 1


def test_variable_index_must_follow_immediately():
    with pytest.raises(FormulaSyntaxError):
        parse("x 0")


def test_unknown_words_and_operators():
    with pytest.raises(FormulaSyntaxError):
        parse("foo")
    with pytest.raises(FormulaSyntaxError):
        parse("<>3 x0")
    with pytest.raises(FormulaSyntaxError):
        parse("x0 <- x1")


@pytest.mark.parametrize(
    ("text", "message"),
    [(")x0 <>3", "unknown operator '<>3' (at position 4)"), ("<>1)bo!&bo", "unknown word 'bo' (at position 4)")],
)
def test_lexical_error_wins_over_an_earlier_grammar_error(text, message):
    # the whole text is tokenized before parsing starts
    with pytest.raises(FormulaSyntaxError) as exc_info:
        parse(text)
    assert str(exc_info.value) == message


def test_unbalanced_parentheses():
    with pytest.raises(FormulaSyntaxError):
        parse("(x0")
    with pytest.raises(FormulaSyntaxError):
        parse("x0)")


def test_empty_input():
    with pytest.raises(FormulaSyntaxError) as exc_info:
        parse("")
    assert exc_info.value.position == 0


def test_trailing_input_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse("x0 x1")


def test_render_examples():
    assert render(And(Var(0), Not(Var(1)))) == "x0 & ~x1"
    assert render(Bot()) == "bot"
    assert render(Dia1(Or(Var(0), Var(1)))) == "<>1 (x0 | x1)"
    assert render(And(Box1(Var(0)), Box1(Not(Var(0))))) == "[]1 x0 & []1 ~x0"
    with pytest.raises(TypeError, match="^not a formula node: 'x0'$"):
        render("x0")


def test_render_minimal_parentheses():
    assert render(Or(And(Var(0), Var(1)), Var(2))) == "x0 & x1 | x2"
    assert render(And(Var(0), Or(Var(1), Var(2)))) == "x0 & (x1 | x2)"
    assert render(Implies(Implies(Var(0), Var(1)), Var(2))) == "(x0 -> x1) -> x2"
    assert render(Implies(Var(0), Implies(Var(1), Var(2)))) == "x0 -> x1 -> x2"
    assert render(Not(And(Var(0), Var(1)))) == "~(x0 & x1)"
    assert render(And(And(Var(0), Var(1)), Var(2))) == "x0 & x1 & x2"
    assert render(And(Var(0), And(Var(1), Var(2)))) == "x0 & (x1 & x2)"


def test_var_rejects_negative_index():
    with pytest.raises(ValueError):
        Var(-1)


@pytest.mark.parametrize(
    "index, kind", [(True, "bool"), (False, "bool"), (1.0, "float")], ids=["true", "false", "float"]
)
def test_var_rejects_a_bool_or_float_index(index, kind):
    # Var(True) used to be Var(1), since the unique table already held x1 under the equal key (Var, 1)
    Var(int(index))
    with pytest.raises(TypeError, match=f"^'{kind}' object cannot be interpreted as "):
        Var(index)


def test_operator_sugar_builds_nodes():
    assert (Var(0) & ~Var(1) | Bot()) == Or(And(Var(0), Not(Var(1))), Bot())


@given(formulas(max_index=3))
def test_parse_render_round_trip(f):
    assert parse(render(f)) == f


@given(formulas(max_index=3))
def test_render_is_deterministic(f):
    assert render(f) == render(f) == str(f)


@given(st.text(alphabet="x012u&|->()~<>[] bot", max_size=30))
def test_parser_is_total(text):
    # any string either parses or raises the dedicated error, never crashes
    try:
        parse(text)
    except FormulaSyntaxError:
        pass


def test_equal_formulas_are_one_object():
    assert Var(0) is Var(0)
    assert Bot() is Bot()
    first = Implies(And(Var(0), Dia1(Var(1))), Not(Box2(Bot())))
    second = Implies(And(Var(0), Dia1(Var(1))), Not(Box2(Bot())))
    assert first is second
    assert Not(Var(0)) is not Dia1(Var(0))
    assert And(Var(0), Var(1)) is not And(Var(1), Var(0))


@given(formulas(max_index=3))
def test_parse_render_returns_the_same_node(f):
    assert parse(render(f)) is f


@given(formulas(max_index=3))
def test_copy_deepcopy_and_pickle_return_the_same_node(f):
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_nodes_are_immutable():
    f = And(Var(0), Var(1))
    with pytest.raises(AttributeError):
        f.left = Var(2)
    with pytest.raises(AttributeError):
        f.cache = None
    with pytest.raises(AttributeError):
        del Var(0).index
    assert f.left is Var(0)


def test_repr_keeps_the_dataclass_form():
    assert repr(And(Var(0), Not(Var(1)))) == "And(left=Var(index=0), right=Not(operand=Var(index=1)))"
    assert repr(Bot()) == "Bot()"
    assert repr(Box1(Implies(Var(2), Bot()))) == "Box1(operand=Implies(left=Var(index=2), right=Bot()))"


def _recursive_repr(f):
    fields = []
    for name in f._fields:
        value = getattr(f, name)
        fields.append(f"{name}={_recursive_repr(value) if isinstance(value, syntax.Formula) else repr(value)}")
    return f"{type(f).__name__}({', '.join(fields)})"


@given(formulas(max_index=12))
def test_repr_matches_the_field_by_field_form(f):
    assert repr(f) == _recursive_repr(f)


def test_deep_chain_reprs_copies_and_pickles():
    f = parse("~" * 5000 + "x0")
    assert repr(f) == "Not(operand=" * 5000 + "Var(index=0)" + ")" * 5000
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_pickle_is_as_small_as_the_dag():
    f = Var(0)
    for _ in range(40):
        f = And(f, f)  # 41 distinct nodes, 2**40 leaves as a tree
    data = pickle.dumps(f)
    assert len(data) < 1024
    assert pickle.loads(data) is f


def test_unique_table_is_weak_and_bounded():
    table = syntax._UNIQUE

    def live():
        return sum(ref() is not None for ref in table.values())

    before = live()
    for i in range(100_000):
        And(Var(i), Not(Var(i + 1)))  # distinct, and dropped at once
    after = live()
    assert after <= before  # the table pins none of them
    # the table purges its dead entries whenever it has doubled
    assert len(table) <= 2 * after + syntax._PURGE_FLOOR


@given(formula_texts())
def test_mangled_text_parses_or_names_a_position(text):
    try:
        f = parse(text)
    except FormulaSyntaxError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        assert parse(render(f)) is f


# chain links and their values at x0 = 0, u, 1, as plain integers
_LINKS = ((Bot(), (0, 0, 0)), (Var(0), (0, 1, 2)), (Not(Var(0)), (2, 1, 0)))


def _left_deep_or(length):
    """x0 | a1 | ... | a_length, and its values computed by a plain loop."""
    f, values = Var(0), [0, 1, 2]
    for i in range(length):
        link, link_values = _LINKS[i % 3]
        f = Or(f, link)
        values = [max(v, a) for v, a in zip(values, link_values)]
    return f, values


def _right_nested_implies(length):
    """a_length -> ... -> a1 -> x0, and its values computed by a plain loop."""
    f, values = Var(0), [0, 1, 2]
    for i in range(length):
        link, link_values = _LINKS[i % 3]
        f = Implies(link, f)
        values = [max(2 - a, v) for v, a in zip(values, link_values)]
    return f, values


@pytest.mark.parametrize("chain", [_left_deep_or, _right_nested_implies])
def test_long_chains_round_trip_and_evaluate(chain):
    f, values = chain(5000)
    assert parse(render(f)) is f
    assert list(value_profile(f, 1)) == values


def _outcome(parser, text):
    """The node ``parser`` returns for ``text``, or the message and position of its syntax error."""
    try:
        return parser(text)
    except FormulaSyntaxError as exc:
        return str(exc), exc.position


def _assert_parse_agrees_with_the_reference(text):
    expected, got = _outcome(reference_syntax.parse, text), _outcome(parse, text)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got is expected


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("x\u00b2", id="superscript-index"),
        pytest.param("x\u0661", id="arabic-index"),
        pytest.param("x" + "1" * 4301, id="4301-digit-index"),
        pytest.param("x0 & x" + "0" * 4301 + " &", id="long-index-before-a-grammar-error"),
        pytest.param("x 0", id="spaced-index"),
        pytest.param("xabc", id="x-word"),
        pytest.param("x12abc", id="index-then-word"),
        pytest.param("bot1", id="bot-digit"),
        pytest.param("botx", id="bot-letter"),
        pytest.param("<>3", id="unknown-diamond"),
        pytest.param("[]", id="bare-box"),
        pytest.param("-", id="lone-dash"),
        pytest.param("x0 <- x1", id="back-arrow"),
        pytest.param("<\n\t", id="operator-over-whitespace"),
        pytest.param("", id="empty"),
        pytest.param(" \u00a0\n", id="only-whitespace"),
        pytest.param("(x0", id="unclosed"),
        pytest.param("((x0) & (x1 | x2)", id="unclosed-after-a-group"),
        pytest.param("x0)", id="extra-close"),
        pytest.param("(x0))", id="extra-close-after-a-group"),
        pytest.param(")x0 <>3", id="close-then-lexical-error"),
        pytest.param("<>1)bo!&bo", id="grammar-error-then-word"),
        pytest.param("x0 x1", id="two-operands"),
        pytest.param("bot ~x0", id="prefix-after-operand"),
        pytest.param("x0 & ", id="trailing-connective"),
        pytest.param("~" * 3000 + "x0", id="3000-deep-negation"),
        pytest.param("\u2003[]1 x0 &\t<>2 (x1 -> x2 | bot)\n", id="unicode-whitespace"),
    ],
)
def test_parse_agrees_with_the_reference_parser(text):
    _assert_parse_agrees_with_the_reference(text)


@given(formula_texts())
def test_parse_agrees_with_the_reference_on_mangled_text(text):
    _assert_parse_agrees_with_the_reference(text)


@given(st.text(alphabet="x012u&|->()~<>[] bot!\u00b2\n", max_size=30))
def test_parse_agrees_with_the_reference_on_any_text(text):
    _assert_parse_agrees_with_the_reference(text)


def test_parse_agrees_with_the_reference_on_ranking_encodings():
    rng = random.Random(881)
    for _ in range(20):
        text = render(formula_of_ranking(Ranking(4, rng.choices((1, 2, 3), k=81))))
        _assert_parse_agrees_with_the_reference(text)
        cut = rng.randrange(len(text))
        _assert_parse_agrees_with_the_reference(text[:cut] + rng.choice("x)-!") + text[cut:])
