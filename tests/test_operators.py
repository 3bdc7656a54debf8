import functools
import itertools
import random
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribelief import operators
from tribelief import (
    And,
    Bot,
    Box1,
    CI_POSTULATE_NAMES,
    Not,
    OperatorTable,
    Or,
    Ranking,
    TruthValue,
    Var,
    all_rankings,
    all_tables,
    apply_semantic,
    check_characterization,
    check_characterizations,
    check_ci_postulates,
    ci1_prime_equiv_witness,
    ci2_prime_equiv_witness,
    ci_table,
    classify,
    covering_ranking_pairs,
    drastic_table,
    formula_of_ranking,
    interpretations,
    level_indicator,
    level_of_value,
    parse,
    postulate_formula,
    ranking_of_formula,
    render,
    revise,
    sweep_all_tables,
    value_of_level,
    value_profile,
)
import reference_ci
from reference_tables import CI_VALUE_ROWS
from strategies import rankings

F, U, T = TruthValue.FALSE, TruthValue.UNDET, TruthValue.TRUE

tables = st.builds(OperatorTable, st.tuples(*(st.integers(1, 3) for _ in range(9))))


def test_table_validation():
    with pytest.raises(ValueError):
        OperatorTable((1, 2, 3))
    with pytest.raises(ValueError):
        OperatorTable((1, 2, 3, 1, 2, 3, 1, 2, 0))


@pytest.mark.parametrize("first, ok", [(1.0, False), (True, False), (1, True)], ids=["float", "bool", "int"])
def test_table_accepts_only_int_cells(first, ok):
    # a float cell used to pass, serialize as "1.022123223" and fail the check with a bare TypeError
    cells = (first, 2, 2, 1, 2, 3, 2, 2, 3)
    if ok:
        assert OperatorTable(cells) == ci_table()
    else:
        with pytest.raises(ValueError, match="^an operator table is 9 cells with values 1, 2 or 3$"):
            OperatorTable(cells)


# each entry point that takes a single level, called with the value under test as that level (both levels for k)
_SINGLE_LEVEL_SITES = {
    "value_of_level": (value_of_level, "^levels must be 1, 2 or 3, got "),
    "Ranking.level_set": (lambda level: Ranking(1, (1, 2, 3)).level_set(level), "^levels must be 1, 2 or 3$"),
    "level_indicator": (lambda level: level_indicator(Var(0), level), "^levels must be 1, 2 or 3$"),
    "postulate_formula": (
        lambda level: postulate_formula(ci_table(), level, Var(0), Var(0)),
        "^levels must be 1, 2 or 3$",
    ),
    "OperatorTable.k": (lambda level: ci_table().k(level, level), "^table cells are indexed by levels 1..3$"),
}


@pytest.mark.parametrize("level, ok", [(1.0, False), (True, False), (1, True)], ids=["float", "bool", "int"])
@pytest.mark.parametrize("site", list(_SINGLE_LEVEL_SITES))
def test_single_level_arguments_accept_only_ints(site, level, ok):
    # a float or bool equal to a level used to be read as that level, and k died with a bare TypeError
    call, message = _SINGLE_LEVEL_SITES[site]
    if ok:
        call(level)
    else:
        with pytest.raises(ValueError, match=message):
            call(level)


def test_cell_lookup_is_row_major():
    t = OperatorTable((1, 2, 3, 1, 2, 3, 2, 2, 3))
    assert t.k(1, 1) == 1
    assert t.k(1, 3) == 3
    assert t.k(3, 1) == 2
    with pytest.raises(ValueError):
        t.k(0, 1)
    with pytest.raises(ValueError):
        t.k(1, 4)


def test_builtin_tables_frozen():
    assert ci_table().serialize() == "122123223"
    assert drastic_table().serialize() == "123123123"


def test_parse_aliases_and_round_trip():
    assert OperatorTable.parse("ci") == ci_table()
    assert OperatorTable.parse("drastic") == drastic_table()
    for t in (ci_table(), drastic_table(), OperatorTable((2,) * 9)):
        assert OperatorTable.parse(t.serialize()) == t


@pytest.mark.parametrize("text", ["", "12312312", "1231231234", "123123124", "CI"])
def test_parse_rejections(text):
    with pytest.raises(ValueError):
        OperatorTable.parse(text)


@pytest.mark.parametrize("a,b,expected", CI_VALUE_ROWS)
def test_ci_combine_values_matches_reference(a, b, expected):
    # the table read at the truth-value level, through the level <-> value map, and applied to the
    # one-world rankings (n=0) at those levels, where the cell reader has one index
    sym = TruthValue.from_symbol
    old, new, out = (level_of_value(sym(v)) for v in (a, b, expected))
    assert ci_table().k(old, new) == out
    assert apply_semantic(ci_table(), Ranking(0, (old,)), Ranking(0, (new,))) == Ranking(0, (out,))


@given(st.integers(1, 3), st.integers(1, 3))
def test_drastic_combine_values_returns_new(i, j):
    assert drastic_table().k(i, j) == j


def test_all_tables_enumeration():
    seen = list(all_tables())
    assert len(seen) == 3**9
    assert seen[0].serialize() == "111111111"
    assert seen[-1].serialize() == "333333333"
    for t in seen:
        assert operators._postulate_flags(t) == tuple(bytes(c == target for c in t.cells) for target in (1, 2, 3))


def test_apply_semantic_nine_world_example():
    old = Ranking(2, (1, 1, 1, 2, 2, 2, 3, 3, 3))
    new = Ranking(2, (3, 2, 1, 3, 2, 1, 3, 2, 1))
    assert apply_semantic(ci_table(), old, new).serialize() == "221321322"


def test_apply_semantic_projection_tables():
    keep_old = OperatorTable((1, 1, 1, 2, 2, 2, 3, 3, 3))
    for a in all_rankings(1):
        b = Ranking(1, (2, 3, 1))
        assert apply_semantic(keep_old, a, b) == a
        assert apply_semantic(drastic_table(), a, b) == b
    # the characterization check reads its combined levels through apply_semantic's reader, so this is
    # what holds that reader to the table: on every pair, world w sits at k(old(w), new(w))
    worlds = interpretations(1)
    for table in [ci_table(), drastic_table(), *_seeded_block(2027, 20)]:
        for a, b in itertools.product(all_rankings(1), repeat=2):
            combined = apply_semantic(table, a, b)
            assert [combined.level(w) for w in worlds] == [table.k(a.level(w), b.level(w)) for w in worlds]


def test_apply_semantic_variable_count_mismatch():
    with pytest.raises(ValueError, match="variable count"):
        apply_semantic(ci_table(), Ranking(1, (1, 2, 3)), Ranking(2, (1,) * 9))


def test_drastic_absorption_exhaustive():
    drastic = drastic_table()
    rs = tuple(all_rankings(1))
    for a in rs:
        for b in rs:
            assert apply_semantic(drastic, a, b) == b


@given(tables, rankings(1), rankings(1), st.integers(0, 2), st.integers(1, 3))
def test_combination_is_world_local(table, a, b, index, noise):
    # changing the inputs away from ``index`` cannot move the output there
    out = apply_semantic(table, a, b)
    a2 = Ranking(1, tuple(noise if i != index else l for i, l in enumerate(a.levels)))
    out2 = apply_semantic(table, a2, b)
    assert out2.levels[index] == out.levels[index]


def test_revise_golden_example():
    star = revise(ci_table(), Var(0), Not(Var(0)), 1)
    assert ranking_of_formula(star, 1).serialize() == "222"


@given(tables, rankings(1), rankings(1))
def test_revise_agrees_with_semantic_path(table, a, b):
    star = revise(table, formula_of_ranking(a), formula_of_ranking(b), 1)
    assert ranking_of_formula(star, 1) == apply_semantic(table, a, b)


def test_level_indicator_models_are_level_sets():
    for r in all_rankings(1):
        f = formula_of_ranking(r)
        for level in (1, 2, 3):
            models, _, _ = classify(level_indicator(f, level), 1)
            assert models == r.level_set(level)


def test_level_indicator_shapes():
    f = Var(0)
    assert level_indicator(f, 1) is f
    assert level_indicator(f, 3) == Not(f)
    with pytest.raises(ValueError):
        level_indicator(f, 4)


def test_cell_formula_shapes():
    f, g = Var(0), Not(Var(0))
    cells = operators._cell_conjunctions(f, g)
    assert cells == tuple(And(level_indicator(f, i), level_indicator(g, j)) for i in (1, 2, 3) for j in (1, 2, 3))
    # a table sending only cell (1, 3) to target 1: that cell's conjunction, bot at the other eight
    t = OperatorTable((2, 2, 1, 2, 2, 2, 2, 2, 2))
    cell = And(level_indicator(f, 1), level_indicator(g, 3))
    assert postulate_formula(t, 1, f, g) == functools.reduce(Or, [Bot(), Bot(), cell] + [Bot()] * 6)
    with pytest.raises(ValueError):
        postulate_formula(t, 0, f, g)


def test_postulate_formula_models_match_combined_levels():
    t = ci_table()
    old = Ranking(1, (1, 2, 3))
    new = Ranking(1, (3, 1, 2))
    f, g = formula_of_ranking(old), formula_of_ranking(new)
    combined = apply_semantic(t, old, new)
    for target in (1, 2, 3):
        models, _, _ = classify(postulate_formula(t, target, f, g), 1)
        assert models == combined.level_set(target)


def _old_postulate_chain(table, target, f, g):
    """The postulate formula as built before cell conjunctions were shared:
    each cell formula constructed afresh, then Or-chained left to right."""
    cells = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            cell = And(level_indicator(f, i), level_indicator(g, j)) if table.k(i, j) == target else Bot()
            cells.append(cell)
    out = cells[0]
    for cell in cells[1:]:
        out = Or(out, cell)
    return out


def test_postulate_formula_matches_the_old_construction():
    block = [ci_table(), drastic_table()] + _seeded_block(8080, 2000)
    pairs = [(formula_of_ranking(a), formula_of_ranking(b)) for a, b in covering_ranking_pairs(1)]
    for t in block:
        for f, g in pairs:
            for target in (1, 2, 3):
                assert postulate_formula(t, target, f, g) is _old_postulate_chain(t, target, f, g)
    for target in (0, 4):
        with pytest.raises(ValueError):
            postulate_formula(ci_table(), target, *pairs[0])


def test_cell_conjunctions_are_shared_by_equal_inputs():
    old, new = covering_ranking_pairs(1)[1]
    f, g = formula_of_ranking(old), formula_of_ranking(new)
    first = operators._cell_conjunctions(f, g)
    assert len(first) == 9
    # built again from text, the inputs are the same interned nodes, and so is each conjunction
    again = operators._cell_conjunctions(parse(render(f)), parse(render(g)))
    assert len(again) == 9 and all(a is b for a, b in zip(again, first))


def test_postulate_formula_unreached_target_is_contradictory():
    # a constant table reaches level 1 only, so the other targets fold bots
    t = OperatorTable((1,) * 9)
    f, g = Var(0), Not(Var(0))
    for target in (2, 3):
        profile = value_profile(postulate_formula(t, target, f, g), 1)
        assert all(v is F for v in profile)
    models, _, _ = classify(postulate_formula(t, 1, f, g), 1)
    assert models == interpretations(1)


def test_covering_pairs_cover_all_cells():
    for n in (1, 2):
        pairs = covering_ranking_pairs(n)
        cells = {
            (a.levels[i], b.levels[i])
            for a, b in pairs
            for i in range(3**n)
        }
        assert cells == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    assert len(covering_ranking_pairs(2)) == 1
    with pytest.raises(ValueError):
        covering_ranking_pairs(0)


def test_characterization_ci_exhaustive():
    result = check_characterization(ci_table())
    assert result.ok and bool(result)
    assert result.pairs_checked == 729


def test_characterization_drastic_exhaustive():
    assert check_characterization(drastic_table()).ok


def test_characterization_rejects_n0():
    with pytest.raises(ValueError, match="characterization needs at least one variable"):
        check_characterization(ci_table(), 0)


def _plant_transposition(monkeypatch):
    # each table gets the postulates of its transpose, so only a symmetric table keeps its own
    def transposed(cells):
        return tuple(cells[(j - 1) * 3 + (i - 1)] for i in range(1, 4) for j in range(1, 4))

    real_flags = operators._postulate_flags
    monkeypatch.setattr(operators, "_postulate_flags", lambda t: real_flags(OperatorTable(transposed(t.cells))))


def test_characterization_reports_insufficient_coverage():
    r = Ranking(1, (1, 1, 1))
    result = check_characterization(ci_table(), pairs=[(r, r)])
    assert not result
    assert "cover" in result.failure
    assert result.pairs_checked == 1


def test_characterization_with_covering_pairs_only():
    result = check_characterization(ci_table(), pairs=covering_ranking_pairs(1))
    assert result.ok
    assert result.pairs_checked == 3


@pytest.mark.parametrize(
    "n, pairs",
    [
        (2, covering_ranking_pairs(1)),
        (1, covering_ranking_pairs(2)),
        (1, [(Ranking(1, (1, 2, 3)), Ranking(2, (1, 2, 3) * 3))]),
    ],
)
def test_checks_reject_pairs_over_another_variable_count(n, pairs):
    # n=2 with n=1 pairs used to be a false FAIL, n=1 with n=2 pairs an unrelated error
    with pytest.raises(ValueError, match=f"ranking pairs must be over {n} variable"):
        check_characterization(ci_table(), n, pairs=pairs)
    with pytest.raises(ValueError, match=f"ranking pairs must be over {n} variable"):
        check_ci_postulates(n, pairs=pairs)


_R = Ranking(1, (1, 2, 3))


@pytest.mark.parametrize("item", [("111", "222"), (_R, _R, _R), _R], ids=["strings", "triple", "ranking"])
def test_checks_reject_a_pair_that_is_not_two_rankings(item):
    # these used to end in an AttributeError, a ValueError from unpacking and a TypeError
    message = f"^a ranking pair must be two rankings, got {re.escape(repr(item))}$"
    with pytest.raises(ValueError, match=message):
        check_characterization(ci_table(), 1, pairs=[item])
    with pytest.raises(ValueError, match=message):
        check_ci_postulates(1, pairs=[(_R, _R), item])


def test_sweep_sample_of_tables():
    rng = random.Random(7)
    sample = [OperatorTable(tuple(rng.randint(1, 3) for _ in range(9))) for _ in range(100)]
    result = sweep_all_tables(1, tables=[ci_table(), drastic_table()] + sample)
    assert result.ok
    assert result.total == 102
    assert result.failures == ()


def _seeded_block(seed, size=500):
    return random.Random(seed).sample(list(all_tables()), size)


def test_sweep_agrees_with_fresh_memo_checks():
    # the sweep shares one memo per pair across its tables; each check here starts cold
    block = _seeded_block(20261)
    swept = sweep_all_tables(1, tables=block)
    pairs = covering_ranking_pairs(1)
    fresh = []
    for table in block:
        operators._pair_memo.cache_clear()
        fresh.append(check_characterization(table, 1, pairs=pairs))
    assert swept.total == len(block)
    assert all(fresh)
    assert dict(swept.failures) == {t.serialize(): r.failure for t, r in zip(block, fresh) if not r}


def test_cold_and_warm_runs_agree():
    # a pair's memos start empty, so the first run after clearing the pair cache computes every
    # profile, code and cell conjunction itself; the second reads what the first left behind only
    # where the 32-entry pair cache still holds it, so over all 729 pairs it starts cold again
    tables = [ci_table(), drastic_table()] + _seeded_block(1919, 20)
    rng, rankings_1 = random.Random(1920), list(all_rankings(1))
    # few enough pairs for the pair cache to hold them all, so the two checks share each context
    pairs = list(covering_ranking_pairs(1)) + [(rng.choice(rankings_1), rng.choice(rankings_1)) for _ in range(29)]
    runs = {
        "ci postulates": check_ci_postulates,
        "characterizations": lambda: check_characterizations(tables, 1),
        "witnesses": lambda: (ci1_prime_equiv_witness(), ci2_prime_equiv_witness()),
        "ci postulates, given pairs": lambda: check_ci_postulates(1, pairs),
        "characterizations, given pairs": lambda: check_characterizations(tables, 1, pairs),
    }
    cold = {}
    for name, run in runs.items():
        operators._pair_memo.cache_clear()
        cold[name] = run()
        assert run() == cold[name], name
    shared = ["characterizations, given pairs", "ci postulates, given pairs"]
    for order in (shared, shared[::-1]):
        operators._pair_memo.cache_clear()
        for name in order:
            assert runs[name]() == cold[name], name
        assert operators._pair_memo.cache_info().misses == len(set(pairs))  # the second check built no context
    assert cold["ci postulates"].ok and cold["ci postulates"].pairs_checked == 729
    assert all(r.ok and r.pairs_checked == 729 for r in cold["characterizations"])
    assert [(old.serialize(), new.serialize(), world) for old, new, world in cold["witnesses"]] == [
        ("111", "113", 2),
        ("113", "111", 2),
    ]


def test_sweep_reports_a_planted_defect_behind_warm_memos(monkeypatch):
    block = _seeded_block(4242)
    bad = block[450]
    # its wrong postulates are another table's, built and evaluated early in the block
    other = OperatorTable(bad.cells[:8] + (bad.cells[8] % 3 + 1,))
    block = [t for t in block if t != other]
    block.insert(10, other)
    real = operators._postulate_flags

    def planted(table):
        return real(other if table == bad else table)

    monkeypatch.setattr(operators, "_postulate_flags", planted)
    result = sweep_all_tables(1, tables=block)
    assert [serial for serial, _ in result.failures] == [bad.serialize()]
    assert result.total == len(block)
    fresh = check_characterization(bad, 1, pairs=covering_ranking_pairs(1))
    assert result.failures[0][1] == fresh.failure


def test_sweep_reports_a_planted_defect_behind_memos_warmed_by_an_earlier_sweep(monkeypatch):
    block = _seeded_block(4243)
    bad = block[300]
    other = OperatorTable(bad.cells[:8] + (bad.cells[8] % 3 + 1,))
    # the first call evaluates the other table's postulates into the pair memos
    assert sweep_all_tables(1, tables=block + [other])
    real = operators._postulate_flags

    def planted(table):
        return real(other if table == bad else table)

    monkeypatch.setattr(operators, "_postulate_flags", planted)
    result = sweep_all_tables(1, tables=block)
    assert [serial for serial, _ in result.failures] == [bad.serialize()]
    assert result.total == len(block)
    operators._pair_memo.cache_clear()
    fresh = check_characterization(bad, 1, pairs=covering_ranking_pairs(1))
    assert result.failures[0][1] == fresh.failure


def reference_check_characterization(table, n=1, pairs=None):
    """The table-major check: one table at a time over every pair, each pair
    evaluated in a memo of its own, so nothing is shared across tables."""
    covered = set()
    checked = 0

    def fail(reason):
        return operators.CharacterizationResult(table, n, checked, failure=reason)

    for r_old, r_new in itertools.product(all_rankings(n), repeat=2) if pairs is None else pairs:
        memo = {}
        checked += 1
        f = formula_of_ranking(r_old)
        g = formula_of_ranking(r_new)
        combined = operators.apply_semantic(table, r_old, r_new)
        profiles = []
        for target in (1, 2, 3):
            profile = value_profile(operators.postulate_formula(table, target, f, g), n, memo)
            models = {i for i, v in enumerate(profile) if v is T}
            wanted = {i for i, level in enumerate(combined.levels) if level == target}
            if models != wanted:
                return fail(
                    f"target {target} postulate models mismatch for "
                    f"old={r_old.serialize()} new={r_new.serialize()}"
                )
            profiles.append(profile)
        for index in range(3**n):
            cell = (r_old.levels[index], r_new.levels[index])
            covered.add(cell)
            hits = [t for t in (1, 2, 3) if profiles[t - 1][index] is T]
            if hits != [table.k(*cell)]:
                return fail(
                    f"cell {cell} rebuilt as {hits} instead of {table.k(*cell)} for "
                    f"old={r_old.serialize()} new={r_new.serialize()}"
                )
    if len(covered) < 9:
        return fail("checked pairs do not cover all nine level cells")
    return operators.CharacterizationResult(table, n, checked)


def _outcomes(results):
    return [(r.table.serialize(), r.ok, r.failure, r.pairs_checked) for r in results]


def _plant_other_postulates(monkeypatch, bad_tables):
    # each bad table gets the postulates of a table that differs in its last cell
    others = {bad: OperatorTable(bad.cells[:8] + (bad.cells[8] % 3 + 1,)) for bad in bad_tables}
    real = operators._postulate_flags
    monkeypatch.setattr(operators, "_postulate_flags", lambda t: real(others.get(t, t)))


_FEW_TABLES = [ci_table(), drastic_table(), OperatorTable((1, 1, 2, 2, 3, 3, 1, 3, 2))]


_REFERENCE_CASES = [
    (_seeded_block(31337), "covering", None),
    (_seeded_block(31337), "covering", "other postulates"),
    (_seeded_block(31337), "covering", "transposed"),
    (_seeded_block(31337), "non-covering", None),
    # all 729 pairs; the tables without a planted defect pass them all
    (_FEW_TABLES, "all", "other postulates"),
    (_FEW_TABLES, "all", "transposed"),
    # the one 9-world covering pair at n=2
    (_seeded_block(31337, 200), "covering-n2", "other postulates"),
]


@pytest.mark.parametrize(
    "tables, pairs, defect, warm",
    [(*case, warm) for case in _REFERENCE_CASES for warm in (False, True)],
    ids=[
        f"{len(tables)}-tables-{pairs}-{defect}" + ("-warm" if warm else "")
        for tables, pairs, defect in _REFERENCE_CASES
        for warm in (False, True)
    ],
)
def test_pair_major_check_matches_the_table_major_reference(monkeypatch, tables, pairs, defect, warm):
    defective = defect is not None or pairs == "non-covering"
    n, pairs = {
        "covering": (1, covering_ranking_pairs(1)),
        "non-covering": (1, [(Ranking(1, (1, 2, 2)), Ranking(1, (3, 1, 1)))]),
        "all": (1, None),
        "covering-n2": (2, covering_ranking_pairs(2)),
    }[pairs]
    if warm:
        # every node the clean check meets is evaluated and cached before the defect is planted
        check_characterizations(tables, n, pairs)
    if defect == "other postulates":
        _plant_other_postulates(monkeypatch, tables[1::3])
    elif defect == "transposed":
        _plant_transposition(monkeypatch)
    expected = _outcomes(reference_check_characterization(t, n, pairs) for t in tables)
    assert any(not ok for _, ok, _, _ in expected) == defective
    assert _outcomes(check_characterizations(tables, n, pairs)) == expected
    assert _outcomes(check_characterization(t, n, pairs) for t in tables) == expected
    if pairs == covering_ranking_pairs(n):
        swept = sweep_all_tables(n, tables=tables)
        assert swept.total == len(tables)
        assert list(swept.failures) == [(serial, failure) for serial, ok, failure, _ in expected if not ok]


def test_sweep_blocks_agree_with_the_reference(monkeypatch):
    # more tables than one sweep block, with failures in more than one block
    tables = _seeded_block(2718, 2 * operators._SWEEP_BLOCK + 100)
    _plant_other_postulates(monkeypatch, tables[::97])
    expected = [reference_check_characterization(t, 1, covering_ranking_pairs(1)) for t in tables]
    swept = sweep_all_tables(1, tables=iter(tables))
    assert swept.total == len(tables)
    assert list(swept.failures) == [(r.table.serialize(), r.failure) for r in expected if not r]
    assert len(swept.failures) == len(tables[::97])


def test_failures_are_explained_and_passes_are_not(monkeypatch):
    # a pass is one packed comparison; a failed table's reason names the first target its packed models miss
    tables = _seeded_block(1618)
    assert all(check_characterizations(tables, 1, covering_ranking_pairs(1)))
    _plant_other_postulates(monkeypatch, tables[::50])
    results = check_characterizations(tables, 1, covering_ranking_pairs(1))
    assert [r.table for r in results if not r] == tables[::50]
    # each planted table has the postulates of the table that differs in cell (3, 3), so the first covering
    # pair, which meets that cell, shows it at the lower of the cell's two levels: 1 for a 1 or a 3, 2 for a 2
    targets = {
        "121232231": 1,
        "221322131": 1,
        "312122332": 2,
        "212223232": 2,
        "222222112": 2,
        "223221131": 1,
        "233331231": 1,
        "221112212": 2,
        "122313323": 1,
        "133322321": 1,
    }
    assert {r.table.serialize(): r.failure for r in results if not r} == {
        serial: f"target {target} postulate models mismatch for old=123 new=123" for serial, target in targets.items()
    }


def test_a_warm_block_makes_no_python_call_per_table_and_pair():
    # a pass reads each table's row with C-level lookups only; the calls left are one flags call
    # per table, a few per pair (hashing its rankings as the pair cache's key; its reader is built
    # with the pair) and per call; equal copies of the pairs also compare with the cached keys through __eq__
    tables = _seeded_block(6006, operators._SWEEP_BLOCK)
    pairs = covering_ranking_pairs(1)
    operators._pair_memo.cache_clear()
    formula_of_ranking.cache_clear()
    assert operators._failures(tables, 1, pairs) == ({}, len(pairs))  # warms the pair memos
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    for counted in (pairs, covering_ranking_pairs(1)):
        calls = 0
        sys.setprofile(count)
        try:
            result = operators._failures(tables, 1, counted)
        finally:
            sys.setprofile(None)
        assert result == ({}, len(pairs))
        assert calls <= len(tables) + 7 * len(pairs)


def test_check_characterizations_edge_cases():
    assert check_characterizations([], 1) == []
    results = check_characterizations([ci_table(), ci_table()], 1, pairs=[])
    assert _outcomes(results) == [("122123223", False, "checked pairs do not cover all nine level cells", 0)] * 2
    with pytest.raises(ValueError, match="characterization needs at least one variable"):
        check_characterizations([ci_table()], 0)
    with pytest.raises(ValueError, match="ranking pairs must be over 1 variable"):
        check_characterizations([ci_table()], 1, pairs=covering_ranking_pairs(2))


def test_sweep_keeps_the_pair_state_bounded_by_its_postulate_nodes():
    # 19,683 tables on one 9-world pair; the pair caches model sets by postulate flags, not per table,
    # and all three targets draw their flags from the same 512 cell subsets
    operators._pair_memo.cache_clear()
    assert sweep_all_tables(2)
    ((old, new),) = covering_ranking_pairs(2)
    codes = operators._pair_memo(2, old, new).codes
    assert operators._pair_memo.cache_info().misses == 1  # the entry the sweep filled
    assert set(codes) == {bytes(flags) for flags in itertools.product((0, 1), repeat=9)}  # so 512 codes


def test_postulate_chains_are_the_freshly_built_nodes():
    old, new = covering_ranking_pairs(1)[2]
    f, g = formula_of_ranking(old), formula_of_ranking(new)
    for mask in range(512):
        # target 1 at the cells whose bit is set, 2 elsewhere
        table = OperatorTable(tuple(1 if mask >> (8 - k) & 1 else 2 for k in range(9)))
        cached = postulate_formula(table, 1, f, g)
        assert postulate_formula(table, 1, f, g) is cached
        assert cached is _old_postulate_chain(table, 1, f, g)


def test_ci_is_self_dual():
    # flipping both inputs upside down flips the output upside down
    flip = {1: 3, 2: 2, 3: 1}
    t = ci_table()
    rs = tuple(all_rankings(1))
    for a in rs:
        for b in rs:
            flipped = apply_semantic(
                t,
                Ranking(1, tuple(flip[l] for l in a.levels)),
                Ranking(1, tuple(flip[l] for l in b.levels)),
            )
            expected = tuple(flip[l] for l in apply_semantic(t, a, b).levels)
            assert flipped.levels == expected


def test_ci_postulates_all_pass_exhaustively():
    report = check_ci_postulates()
    assert report.ok and bool(report)
    assert report.pairs_checked == 729
    assert tuple(r.name for r in report.results) == CI_POSTULATE_NAMES
    assert all(r.witness is None for r in report.results)


def test_ci_postulates_on_explicit_pairs():
    pairs = [(Ranking(1, (1, 2, 3)), Ranking(1, (3, 2, 1)))]
    report = check_ci_postulates(pairs=pairs)
    assert report.ok
    assert report.pairs_checked == 1


def test_ci_postulates_rejects_n0():
    with pytest.raises(ValueError):
        check_ci_postulates(0)


# ci's one-cell neighbours pass some postulates and fail others; a random table fails them all
_CI = ci_table().cells
_CI_NEIGHBOURS = [OperatorTable(_CI[:k] + (v,) + _CI[k + 1 :]) for k in range(9) for v in (1, 2, 3) if v != _CI[k]]
_CI_SUITE_TABLES = [ci_table(), drastic_table()] + random.Random(2020).sample(_CI_NEIGHBOURS, 6) + _seeded_block(2020, 2)


@pytest.mark.parametrize("table", _CI_SUITE_TABLES, ids=[t.serialize() for t in _CI_SUITE_TABLES])
def test_ci_suite_agrees_with_the_inline_reference(table, monkeypatch):
    # every n=1 pair, with the table planted as the cautious operator: same pairs checked,
    # same verdicts, same first-failure witnesses, and both equivalence witnesses
    monkeypatch.setattr(operators, "ci_table", lambda: table)
    assert check_ci_postulates() == reference_ci.check_ci_postulates(table)
    assert ci1_prime_equiv_witness() == reference_ci.ci1_prime_equiv_witness(table)
    assert ci2_prime_equiv_witness() == reference_ci.ci2_prime_equiv_witness(table)


def test_ci_suite_agrees_with_the_inline_reference_at_n2():
    rng = random.Random(2002)
    pairs = [tuple(Ranking(2, [rng.choice((1, 2, 3)) for _ in range(9)]) for _ in range(2)) for _ in range(200)]
    report = check_ci_postulates(2, pairs)
    assert report.ok and report.pairs_checked == 200
    assert report == reference_ci.check_ci_postulates(ci_table(), 2, pairs)
    old, new, world = ci1_prime_equiv_witness(2)
    assert (old.serialize(), new.serialize(), world) == ("111111111", "111111113", 8)
    assert (old, new, world) == reference_ci.ci1_prime_equiv_witness(ci_table(), 2)


@pytest.mark.parametrize("witness", [ci1_prime_equiv_witness, ci2_prime_equiv_witness])
def test_equivalence_witnesses_reject_a_negative_variable_count(witness):
    with pytest.raises(ValueError, match="^variable count must be non-negative$"):
        witness(-1)


def test_ci1_prime_holds_as_models_but_not_as_equivalence():
    witness = ci1_prime_equiv_witness()
    assert witness is not None
    r_old, r_new, index = witness
    assert (r_old.serialize(), r_new.serialize(), index) == ("111", "113", 2)
    phi = formula_of_ranking(r_old)
    theta = formula_of_ranking(r_new)
    star = formula_of_ranking(apply_semantic(ci_table(), r_old, r_new))
    rhs = And(Box1(phi), theta)
    left = value_profile(star, 1)
    right = value_profile(rhs, 1)
    assert left[index] is not right[index]
    # the model sets still agree, which is the shape CI1 takes in the suite
    assert [v is T for v in left] == [v is T for v in right]


def test_ci2_prime_holds_as_models_but_not_as_equivalence():
    witness = ci2_prime_equiv_witness()
    assert witness is not None
    r_old, r_new, index = witness
    assert (r_old.serialize(), r_new.serialize(), index) == ("113", "111", 2)
    phi = formula_of_ranking(r_old)
    theta = formula_of_ranking(r_new)
    star = formula_of_ranking(apply_semantic(ci_table(), r_old, r_new))
    lhs = Not(star)
    rhs = And(Box1(Not(phi)), Not(theta))
    left = value_profile(lhs, 1)
    right = value_profile(rhs, 1)
    assert left[index] is not right[index]
    assert [v is T for v in left] == [v is T for v in right]


@given(rankings(1), rankings(1))
def test_ci_success_and_caution(a, b):
    # the combined state accepts only worlds the new information accepts,
    # and worlds the old state accepted are never outright rejected
    combined = apply_semantic(ci_table(), a, b)
    for i in range(3):
        if combined.levels[i] == 1:
            assert b.levels[i] == 1
        if a.levels[i] == 1:
            assert combined.levels[i] <= 2
