"""Table-driven belief-change operators and their syntactic postulates.

An operator table sends a pair of levels (old state, new information) to an
output level; applied cell-wise to two rankings it yields the revised
ranking.  Each of the 3**9 tables is pinned down syntactically by three
postulate formulas, one per output level, built from level indicators of the
two inputs.  This module constructs those formulas and checks them against
the semantic operator, and carries the postulate suite of the cautious
operator ``ci``.
"""

import itertools
import operator
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache, reduce

from .ranking import (
    LEVELS,
    Ranking,
    _are_levels,
    _Record,
    all_rankings,
    formula_of_ranking,
    level_indicator,
    ranking_of_formula,
)
from .semantics import TruthValue, _all_false, _models_within, _same_models, _variable_count, value_profile
from .syntax import And, Bot, Box1, Formula, Not, Or


class OperatorTable(_Record):
    """A 3x3 level table; cell (i, j) is the output level for a world at
    level i in the old state and level j in the new information.

    ``cells`` is a row-major tuple: rows are the old level, columns the new one.
    """

    __slots__ = _fields = ("cells",)

    def __init__(self, cells: Iterable[int]):
        cells = tuple(cells)
        if len(cells) != 9 or not _are_levels(cells):
            raise ValueError("an operator table is 9 cells with values 1, 2 or 3")
        self._init(cells)

    def k(self, i: int, j: int) -> int:
        if not _are_levels((i, j)):
            raise ValueError("table cells are indexed by levels 1..3")
        return self.cells[(i - 1) * 3 + (j - 1)]

    def serialize(self) -> str:
        return "".join(str(c) for c in self.cells)

    @classmethod
    def parse(cls, text: str) -> "OperatorTable":
        """Accepts the aliases ``ci`` and ``drastic`` or 9 characters from {1,2,3}."""
        if text == "ci":
            return ci_table()
        if text == "drastic":
            return drastic_table()
        if len(text) != 9 or any(c not in "123" for c in text):
            raise ValueError(
                f"operator table must be 'ci', 'drastic' or 9 characters from {{1,2,3}}, got {text!r}"
            )
        return cls(tuple(int(c) for c in text))


_CI_CELLS = (1, 2, 2, 1, 2, 3, 2, 2, 3)
_DRASTIC_CELLS = (1, 2, 3, 1, 2, 3, 1, 2, 3)
_SWEEP_BLOCK = 256  # tables per check_characterizations call in sweep_all_tables


def ci_table() -> OperatorTable:
    """The cautious operator: new information wins, but a world only reaches
    full acceptance or rejection when the old state does not flatly oppose it."""
    return OperatorTable(_CI_CELLS)


def drastic_table() -> OperatorTable:
    """Absolute priority to the new information: cell (i, j) is j."""
    return OperatorTable(_DRASTIC_CELLS)


def all_tables() -> Iterator[OperatorTable]:
    """Every operator table, in serialization order (3**9 of them)."""
    for cells in itertools.product(LEVELS, repeat=9):
        yield OperatorTable(cells)


def _cell_indices(r_old: Ranking, r_new: Ranking) -> tuple[int, ...]:
    """Each world's row-major index into a table's cells."""
    return tuple([(i - 1) * 3 + (j - 1) for i, j in zip(r_old.levels, r_new.levels)])


def _combiner(indices: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """An ``itemgetter`` of each world's combined level from a table's cells; a tuple even for one world."""
    get = operator.itemgetter(*indices)
    return get if len(indices) > 1 else lambda cells: (get(cells),)


def apply_semantic(table: OperatorTable, r_old: Ranking, r_new: Ranking) -> Ranking:
    """Combine two rankings cell-wise through the table."""
    if r_old.n != r_new.n:
        raise ValueError(f"rankings must agree on the variable count ({r_old.n} vs {r_new.n})")
    return Ranking(r_old.n, _combiner(_cell_indices(r_old, r_new))(table.cells))


def revise(table: OperatorTable, f: Formula, g: Formula, n: int) -> Formula:
    """The revised formula: encode both inputs as rankings, combine, re-encode."""
    return formula_of_ranking(apply_semantic(table, ranking_of_formula(f, n), ranking_of_formula(g, n)))


# per target, in level order, a bytes.translate table sending a cell's level to 1 if it is the target, else 0
_TARGET_FLAGS = tuple(bytes.maketrans(bytes(LEVELS), bytes([level == t for level in LEVELS])) for t in LEVELS)


def _cell_conjunctions(f: Formula, g: Formula) -> tuple[Formula, ...]:
    """The nine cell conjunctions of a pair, row-major; nodes are hash-consed, so equal inputs give the same nodes."""
    rows, columns = ([level_indicator(h, level) for level in LEVELS] for h in (f, g))
    return tuple(And(row, column) for row in rows for column in columns)


def _fold(cells: tuple[Formula, ...], flags: bytes) -> Formula:
    """The Or-chain of ``cells`` with ``bot`` standing in for each cell whose flag is 0."""
    return reduce(Or, [c if hit else Bot() for c, hit in zip(cells, flags)])


def _postulate_flags(table: OperatorTable) -> tuple[bytes, bytes, bytes]:
    """Per target, in level order, nine 0/1 bytes, row-major: 1 for each cell ``table`` sends there."""
    cells = bytes(table.cells)
    one, two, three = _TARGET_FLAGS
    return cells.translate(one), cells.translate(two), cells.translate(three)


def postulate_formula(table: OperatorTable, target: int, f: Formula, g: Formula) -> Formula:
    """Disjunction of the cell formulas for ``target`` over all nine cells.

    Its models are exactly the worlds the combined ranking puts at level
    ``target``; if no cell maps there it is a disjunction of ``bot``s.
    The chain is rebuilt on each call; nodes are hash-consed, so equal flags give one node.
    """
    if not _are_levels((target,)):
        raise ValueError("levels must be 1, 2 or 3")
    return _fold(_cell_conjunctions(f, g), _postulate_flags(table)[target - 1])


class _Pair:
    """One ranking pair as every check reads it: ``phi`` and ``theta`` encode its rankings, ``read`` reads a
    table's cells at each world's cell ``indices``, and the profile ``memo``, ``codes`` and ``cells`` fill as needed."""

    __slots__ = ("n", "old", "new", "phi", "theta", "indices", "read", "memo", "codes", "cells")

    def __init__(self, n: int, old: Ranking, new: Ranking):
        if old.n != n or new.n != n:
            raise ValueError(f"ranking pairs must be over {n} variable(s), got {old.n} and {new.n}")
        self.n, self.old, self.new = n, old, new
        self.phi, self.theta = formula_of_ranking(old), formula_of_ranking(new)
        self.indices = _cell_indices(old, new)
        self.read = _combiner(self.indices)
        self.memo, self.codes, self.cells = {}, {}, None

    def profile(self, h: Formula) -> tuple[TruthValue, ...]:
        return value_profile(h, self.n, self.memo)

    def code(self, flags: bytes) -> int:
        """The models of the postulate with ``flags`` on this pair, packed: bit 3w for each model w."""
        self.cells = self.cells or _cell_conjunctions(self.phi, self.theta)
        profile = self.profile(_fold(self.cells, flags))
        return sum(1 << 3 * w for w, v in enumerate(profile) if v is TruthValue.TRUE)

    @property
    def witness(self) -> str:
        return f"old={self.old.serialize()} new={self.new.serialize()}"

    def star(self, table: OperatorTable) -> Formula:
        return formula_of_ranking(Ranking(self.n, self.read(table.cells)))

    def revise(self, table: OperatorTable, f: Formula, g: Formula) -> Formula:
        """The revision of ``f`` by ``g`` under ``table``, their rankings read on the pair's profile memo."""
        old, new = ranking_of_formula(f, self.n, self.memo), ranking_of_formula(g, self.n, self.memo)
        return formula_of_ranking(apply_semantic(table, old, new))


# keeps the sweep's few covering pairs warm from one call to the next, and lets the checks share a pair
_pair_memo = lru_cache(maxsize=32)(_Pair)


def _pairs(n: int, pairs: Iterable[tuple[Ranking, Ranking]] | None = None) -> Iterator[_Pair]:
    """The context of each of ``pairs``, or of each ranking pair over interpretations(n)."""
    for pair in itertools.product(all_rankings(n), repeat=2) if pairs is None else pairs:
        match pair:
            case (Ranking() as r_old, Ranking() as r_new):
                yield _pair_memo(n, r_old, r_new)
            case _:
                raise ValueError(f"a ranking pair must be two rankings, got {pair!r}")


def covering_ranking_pairs(n: int) -> tuple[tuple[Ranking, Ranking], ...]:
    """A small set of ranking pairs whose worlds hit all nine level cells."""
    count = 3 ** _variable_count(n, 1, "characterization needs at least one variable")
    if count >= 9:
        a = Ranking(n, tuple((i // 3) % 3 + 1 for i in range(count)))
        b = Ranking(n, tuple(i % 3 + 1 for i in range(count)))
        return ((a, b),)
    base = Ranking(1, (1, 2, 3))
    return tuple((base, Ranking(1, shifted)) for shifted in ((1, 2, 3), (2, 3, 1), (3, 1, 2)))


class CharacterizationResult(_Record):
    """Outcome of checking the postulate formulas of one table; truthy iff they
    matched the semantic operator on every checked pair (see ``check_characterization``)."""

    __slots__ = _fields = ("table", "n", "pairs_checked", "failure")

    def __init__(self, table: OperatorTable, n: int, pairs_checked: int, failure: str | None = None):
        self._init(table, n, pairs_checked, failure)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __bool__(self) -> bool:
        return self.failure is None


def check_characterization(
    table: OperatorTable,
    n: int = 1,
    pairs: Iterable[tuple[Ranking, Ranking]] | None = None,
) -> CharacterizationResult:
    """Verify that the three postulate formulas pin down ``table``'s operator.

    For each pair of rankings the models of the target-k postulate formula must be
    exactly the level-k worlds of the combined ranking.  That rebuilds the table too:
    each world then satisfies the postulate of its combined level alone, and that level
    is the table's cell at the world, read through ``_combiner`` as ``apply_semantic``
    reads it.  With ``pairs=None`` all ranking pairs over interpretations(n) are checked;
    an item that is not two rankings over n variables raises ``ValueError``.
    """
    return check_characterizations([table], n, pairs)[0]


def _failures(
    tables: list[OperatorTable], n: int, pairs: Iterable[tuple[Ranking, Ranking]] | None
) -> tuple[dict[int, tuple[int, str]], int]:
    """The failed tables' positions, each with the pairs checked and the reason,
    and the number of pairs checked.

    Per pair, a table passes when the packed models of its three postulates,
    each shifted by its target, equal its packed combined levels; its cells
    are read once, into those levels.
    """
    failures: dict[int, tuple[int, str]] = {}
    # a row for each table that has not failed; a pass reads it with C-level lookups, no Python call
    live = [(t, table, table.cells, *_postulate_flags(table)) for t, table in enumerate(tables)]
    covered: set[int] = set()  # cell indices
    checked = 0
    places = [1 << 3 * w for w in range(3**n)]
    spread = sum(places)  # bit 3*w for each world w
    for pair in _pairs(n, pairs):
        codes, read = pair.codes, pair.read
        expected: dict[tuple[int, ...], int] = {}  # combined levels -> bit 3*w + level for each world w
        checked += 1
        covered.update(pair.indices)
        before = len(failures)
        for t, table, cells, one, two, three in live:
            combined = read(cells)
            if (want := expected.get(combined)) is None:
                want = expected[combined] = sum(map(operator.lshift, places, combined))
            try:
                packed = codes[one] << 1 | codes[two] << 2 | codes[three] << 3
            except KeyError:  # a postulate not yet met on this pair
                for key in (one, two, three):
                    if key not in codes:
                        codes[key] = pair.code(key)
                packed = codes[one] << 1 | codes[two] << 2 | codes[three] << 3
            if packed != want:  # bit 3*w + target of the difference: world w is wrong at target
                target = next(level for level in LEVELS if (packed ^ want) >> level & spread)
                failures[t] = checked, f"target {target} postulate models mismatch for {pair.witness}"
        if len(failures) != before:
            live = [row for row in live if row[0] not in failures]
        if not live:  # every table has failed
            break
    if len(covered) != 9:
        for t, *_ in live:
            failures[t] = checked, "checked pairs do not cover all nine level cells"
    return failures, checked


def check_characterizations(
    tables: Iterable[OperatorTable],
    n: int = 1,
    pairs: Iterable[tuple[Ranking, Ranking]] | None = None,
) -> list[CharacterizationResult]:
    """``check_characterization`` of each table, with the pairs as the outer loop.

    A table that fails sits out the remaining pairs, so each result is the
    one a check of that table alone gives.

    Each table's three postulate flags are computed once per call, and each
    pair reads every table through its one cell reader (``_Pair.read``).  What the
    tables share is per pair (the ``_Pair`` from ``_pair_memo``): the profile
    memo, and the ``codes``, the models of each postulate checked so far,
    packed into one int and keyed by its flags.  On one pair a postulate is the Or-chain of its flagged cells,
    a function of its flags alone, so keying by flags is keying by node, and a
    pair holds at most 512 codes however many tables it checks.  Within one
    call, a pair also keeps the packed levels of each combined-levels tuple it
    meets.  A table is still held to its own combined levels and to the models
    of the postulates named by its own flags; a table whose postulates are
    wrong has the flags of those wrong postulates, whose codes are their true
    models, so it fails as it would cold.
    """
    _variable_count(n, 1, "characterization needs at least one variable")
    tables = list(tables)
    failures, checked = _failures(tables, n, pairs)
    return [
        CharacterizationResult(table, n, *failures.get(t, (checked, None))) for t, table in enumerate(tables)
    ]


class SweepResult(_Record):
    """Characterization outcomes over a family of tables."""

    __slots__ = _fields = ("n", "total", "failures")

    def __init__(self, n: int, total: int, failures: tuple[tuple[str, str], ...]):
        self._init(n, total, failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return not self.failures


def sweep_all_tables(n: int = 1, tables: Iterable[OperatorTable] | None = None) -> SweepResult:
    """Run the characterization check over every operator table.

    Uses the covering pairs only: that exercises every table cell while
    keeping the full 3**9 sweep tractable.  ``tables`` narrows the sweep.  It
    is checked in fixed blocks and only failures are kept, so memory stays flat.
    """
    pairs = covering_ranking_pairs(n)
    tables = iter(all_tables() if tables is None else tables)
    failures = []
    total = 0
    while block := list(itertools.islice(tables, _SWEEP_BLOCK)):
        total += len(block)
        failed = _failures(block, n, pairs)[0]
        failures += [(block[t].serialize(), failed[t][1]) for t in sorted(failed)]
    return SweepResult(n, total, tuple(failures))


# The cautious operator's postulates: name -> (relation, left side, right side).  Each side builds
# a formula from a _Pair p, a table t and s = p.star(t), built once per pair and table, and the
# postulate holds on the pair when the relation holds between the two sides' value profiles.
_CI_POSTULATES = {
    "CI1": (
        _same_models,
        lambda p, s, t: s,
        lambda p, s, t: Or(And(p.phi, p.theta), And(level_indicator(p.phi, 2), p.theta)),
    ),
    "CI2": (
        _same_models,
        lambda p, s, t: Not(s),
        lambda p, s, t: Or(And(level_indicator(p.phi, 2), Not(p.theta)), And(Not(p.phi), Not(p.theta))),
    ),
    "CI3": (operator.eq, lambda p, s, t: Not(s), lambda p, s, t: p.revise(t, Not(p.phi), Not(p.theta))),
    # CI4: star is all 0 only if theta is; CI5 is success; CI6 keeps old models at least undetermined
    "CI4": (lambda left, right: _all_false(left) or not _all_false(right), lambda p, s, t: p.theta, lambda p, s, t: s),
    "CI5": (_models_within, lambda p, s, t: s, lambda p, s, t: p.theta),
    "CI6": (_models_within, lambda p, s, t: p.phi, lambda p, s, t: Box1(s)),
    "CI7": (operator.eq, lambda p, s, t: p.revise(t, s, p.theta), lambda p, s, t: p.theta),
    "CI8": (operator.eq, lambda p, s, t: p.revise(t, p.theta, p.theta), lambda p, s, t: p.theta),
    "CI1'": (_same_models, lambda p, s, t: s, lambda p, s, t: And(Box1(p.phi), p.theta)),
    "CI2'": (_same_models, lambda p, s, t: Not(s), lambda p, s, t: And(Box1(Not(p.phi)), Not(p.theta))),
}
CI_POSTULATE_NAMES = tuple(_CI_POSTULATES)


class PostulateResult(_Record):
    __slots__ = _fields = ("name", "holds", "witness")

    def __init__(self, name: str, holds: bool, witness: str | None = None):
        self._init(name, holds, witness)


class CiPostulateReport(_Record):
    __slots__ = _fields = ("n", "pairs_checked", "results")

    def __init__(self, n: int, pairs_checked: int, results: tuple[PostulateResult, ...]):
        self._init(n, pairs_checked, results)

    @property
    def ok(self) -> bool:
        return all(r.holds for r in self.results)

    def __bool__(self) -> bool:
        return self.ok


def check_ci_postulates(
    n: int = 1,
    pairs: Iterable[tuple[Ranking, Ranking]] | None = None,
) -> CiPostulateReport:
    """Check each postulate of ``_CI_POSTULATES`` over ranking pairs.

    A failed postulate's witness is the first pair it fails on.
    ``pairs=None`` checks every ranking pair over interpretations(n) exhaustively;
    an item that is not two rankings over n variables raises ``ValueError``.
    """
    _variable_count(n, 1, "the postulate suite needs at least one variable")
    table = ci_table()
    failures: dict[str, str] = {}
    checked = 0
    for pair in _pairs(n, pairs):  # every pair is counted, even once every postulate has failed
        checked += 1
        sides = pair, pair.star(table), table
        for name, (relation, left, right) in _CI_POSTULATES.items():
            if name not in failures and not relation(pair.profile(left(*sides)), pair.profile(right(*sides))):
                failures[name] = pair.witness
    results = tuple(
        PostulateResult(name, name not in failures, failures.get(name)) for name in CI_POSTULATE_NAMES
    )
    return CiPostulateReport(n, checked, results)


def _equiv_gap(name: str, n: int) -> tuple[Ranking, Ranking, int] | None:
    """The first pair and world where postulate ``name``'s two sides take different values under ``ci``."""
    _, left, right = _CI_POSTULATES[name]
    table = ci_table()
    for pair in _pairs(n):
        sides = pair, pair.star(table), table
        for index, (a, b) in enumerate(zip(pair.profile(left(*sides)), pair.profile(right(*sides)))):
            if a is not b:
                return pair.old, pair.new, index
    return None


def ci1_prime_equiv_witness(n: int = 1) -> tuple[Ranking, Ranking, int] | None:
    """A pair and world where ``old * new`` and ``[]1 old & new`` take
    different values; their model sets still agree everywhere (CI1')."""
    return _equiv_gap("CI1'", n)


def ci2_prime_equiv_witness(n: int = 1) -> tuple[Ranking, Ranking, int] | None:
    """Same gap for CI2': ``~(old * new)`` versus ``[]1 ~old & ~new``."""
    return _equiv_gap("CI2'", n)
