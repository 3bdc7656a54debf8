"""Value semantics of the seven records: construction, equality, hashing,
immutability, repr, copy and pickle."""

import copy
import pickle

import pytest

from tribelief import (
    CharacterizationResult,
    CiPostulateReport,
    NondefinabilityReport,
    OperatorTable,
    PostulateResult,
    Ranking,
    SweepResult,
    TruthValue,
    Var,
    all_rankings,
    capture_set,
    check_characterization,
    check_ci_postulates,
    ci_table,
    covering_ranking_pairs,
    interpretations,
    parse_interpretation,
    sweep_all_tables,
    value_profile,
)

CI = ci_table()
X0, BOT, UP = Ranking(1, (3, 2, 1)), Ranking(1, (3, 3, 3)), Ranking(1, (1, 2, 3))
CI1_FAILS = PostulateResult("CI1'", False, "old=111 new=113")

# (record, its field names in order, its exact repr)
RECORDS = [
    (X0, ("n", "levels"), "Ranking(n=1, levels=(3, 2, 1))"),
    (CI, ("cells",), "OperatorTable(cells=(1, 2, 2, 1, 2, 3, 2, 2, 3))"),
    (
        CharacterizationResult(CI, 1, 3, "x"),
        ("table", "n", "pairs_checked", "failure"),
        "CharacterizationResult(table=OperatorTable(cells=(1, 2, 2, 1, 2, 3, 2, 2, 3)), n=1, pairs_checked=3, failure='x')",
    ),
    (
        SweepResult(1, 2, (("111111111", "target 1 postulate models mismatch for old=111 new=111"),)),
        ("n", "total", "failures"),
        "SweepResult(n=1, total=2, failures=(('111111111', 'target 1 postulate models mismatch for old=111 new=111'),))",
    ),
    (CI1_FAILS, ("name", "holds", "witness"), "PostulateResult(name=\"CI1'\", holds=False, witness='old=111 new=113')"),
    (
        CiPostulateReport(1, 729, (PostulateResult("CI1", True), CI1_FAILS)),
        ("n", "pairs_checked", "results"),
        "CiPostulateReport(n=1, pairs_checked=729, results=(PostulateResult(name='CI1', holds=True, witness=None), "
        "PostulateResult(name=\"CI1'\", holds=False, witness='old=111 new=113')))",
    ),
    (
        # the frozenset prints in hash order, not in the order it was built
        NondefinabilityReport("box1", False, frozenset([X0, BOT, UP]), frozenset(), True),
        ("variant", "include_bot", "closure", "forbidden", "meet_invariant"),
        "NondefinabilityReport(variant='box1', include_bot=False, closure=frozenset({Ranking(n=1, levels=(3, 2, 1)), "
        "Ranking(n=1, levels=(1, 2, 3)), Ranking(n=1, levels=(3, 3, 3))}), forbidden=frozenset(), meet_invariant=True)",
    ),
]

each_record = pytest.mark.parametrize(
    "record, fields, text", RECORDS, ids=[type(record).__name__ for record, _, _ in RECORDS]
)


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@each_record
def test_equality_is_by_class_and_fields(record, fields, text):
    values = _values(record, fields)
    rebuilt = type(record)(*values)
    assert rebuilt == record and not rebuilt != record
    assert record != values
    subclass = type("Sub", (type(record),), {})
    assert subclass(*values) != record


def test_records_of_different_classes_with_equal_fields_differ():
    assert SweepResult(1, 3, ()) != CiPostulateReport(1, 3, ())


@each_record
def test_hash_is_the_hash_of_the_fields(record, fields, text):
    assert hash(record) == hash(_values(record, fields))
    assert hash(type(record)(*_values(record, fields))) == hash(record)


@each_record
def test_records_are_immutable(record, fields, text):
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@each_record
def test_repr(record, fields, text):
    assert repr(record) == text


@each_record
def test_copy_and_pickle_round_trip(record, fields, text):
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(record)
        assert other == record
        assert hash(other) == hash(record)


@each_record
def test_keyword_construction(record, fields, text):
    assert type(record)(**dict(zip(fields, _values(record, fields)))) == record


def test_optional_fields_default_to_none():
    assert CharacterizationResult(CI, 1, 3).failure is None
    assert CharacterizationResult(CI, 1, 3, failure="x") == CharacterizationResult(CI, 1, 3, "x")
    assert PostulateResult("CI1", True).witness is None
    assert PostulateResult(name="CI1", holds=True) == PostulateResult("CI1", True, None)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: Ranking(1), id="missing"),
        pytest.param(lambda: Ranking(1, (1, 2, 3), 4), id="extra"),
        pytest.param(lambda: Ranking(1, levels=(1, 2, 3), extra=4), id="unknown-keyword"),
        pytest.param(lambda: PostulateResult("CI1"), id="missing-no-default"),
    ],
)
def test_constructors_reject_wrong_arguments(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Ranking(-1, ()), "variable count must be non-negative", id="negative-n"),
        pytest.param(lambda: Ranking(1, (1, 2)), "expected 3 levels for n=1, got 2", id="short-levels"),
        pytest.param(lambda: Ranking(1, (1, 2, 4)), "levels must be 1, 2 or 3", id="bad-level"),
        pytest.param(lambda: OperatorTable((1,) * 8), "an operator table is 9 cells with values 1, 2 or 3", id="short-table"),
        pytest.param(
            lambda: OperatorTable((1,) * 8 + (0,)), "an operator table is 9 cells with values 1, 2 or 3", id="bad-cell"
        ),
        pytest.param(lambda: Ranking.deserialize("", -1), "variable count must be non-negative", id="deserialize-negative-n"),
        pytest.param(
            lambda: Ranking.from_level_sets(-1, [], [], []), "variable count must be non-negative", id="level-sets-negative-n"
        ),
        # a float or bool count equal to an int used to be read as that int, or to end in a bare TypeError
        pytest.param(lambda: Ranking(1.0, (1, 2, 3)), "variable count must be an int, got 1.0", id="float-n"),
        pytest.param(lambda: Ranking.deserialize("123", 1.0), "variable count must be an int, got 1.0", id="deserialize-float-n"),
        pytest.param(
            lambda: Ranking.from_level_sets(True, [(TruthValue.TRUE,)], [(TruthValue.UNDET,)], [(TruthValue.FALSE,)]),
            "variable count must be an int, got True",
            id="level-sets-bool-n",
        ),
        pytest.param(lambda: all_rankings(1.0), "variable count must be an int, got 1.0", id="all-rankings-float-n"),
        pytest.param(lambda: interpretations(1.0), "variable count must be an int, got 1.0", id="interpretations-float-n"),
        pytest.param(lambda: value_profile(Var(0), 1.0), "variable count must be an int, got 1.0", id="profile-float-n"),
        pytest.param(lambda: covering_ranking_pairs(1.5), "variable count must be an int, got 1.5", id="covering-float-n"),
        pytest.param(lambda: capture_set([(TruthValue.TRUE,)], 1.0), "variable count must be an int, got 1.0", id="capture-float-n"),
        pytest.param(
            lambda: check_characterization(ci_table(), 1.0), "variable count must be an int, got 1.0", id="charac-float-n"
        ),
        pytest.param(lambda: sweep_all_tables(2.0), "variable count must be an int, got 2.0", id="sweep-float-n"),
        pytest.param(lambda: check_ci_postulates(True), "variable count must be an int, got True", id="ci-bool-n"),
        # parse_interpretation read ("1", True) and ("1", 1.0) as (T,), and -1 as "expected -1 truth value(s)"
        pytest.param(lambda: parse_interpretation("1", True), "variable count must be an int, got True", id="parse-world-bool-n"),
        pytest.param(lambda: parse_interpretation("1", 1.0), "variable count must be an int, got 1.0", id="parse-world-float-n"),
        pytest.param(lambda: parse_interpretation("", -1), "variable count must be non-negative", id="parse-world-negative-n"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_sequence_fields_are_stored_as_tuples():
    r = Ranking(1, [3, 2, 1])
    table = OperatorTable([1, 2, 2, 1, 2, 3, 2, 2, 3])
    assert r.levels == (3, 2, 1) and type(r.levels) is tuple
    assert table.cells == CI.cells and type(table.cells) is tuple
    assert r == X0 and hash(r) == hash(X0)
    assert table == CI and hash(table) == hash(CI)
