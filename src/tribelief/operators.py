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
from collections.abc import Iterable, Iterator
from functools import lru_cache, reduce

from .ranking import (
    LEVELS,
    Ranking,
    _Record,
    all_rankings,
    capture_valuation,
    formula_of_ranking,
    level_indicator,
    ranking_of_formula,
)
from .semantics import TruthValue, interpretations, value_profile
from .syntax import And, Bot, Box1, Formula, Not, Or


class OperatorTable(_Record):
    """A 3x3 level table; cell (i, j) is the output level for a world at
    level i in the old state and level j in the new information.

    ``cells`` is a row-major tuple: rows are the old level, columns the new one.
    """

    __slots__ = _fields = ("cells",)

    def __init__(self, cells: Iterable[int]):
        cells = tuple(cells)
        if len(cells) != 9 or any(c not in LEVELS for c in cells):
            raise ValueError("an operator table is 9 cells with values 1, 2 or 3")
        self._init(cells)

    def k(self, i: int, j: int) -> int:
        if i not in LEVELS or j not in LEVELS:
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


def _combine(table: OperatorTable, indices: tuple[int, ...]) -> tuple[int, ...]:
    """Each world's combined level, read from the table at its cell index."""
    cells = table.cells
    return tuple([cells[k] for k in indices])


def apply_semantic(table: OperatorTable, r_old: Ranking, r_new: Ranking) -> Ranking:
    """Combine two rankings cell-wise through the table."""
    if r_old.n != r_new.n:
        raise ValueError(f"rankings must agree on the variable count ({r_old.n} vs {r_new.n})")
    return Ranking(r_old.n, _combine(table, _cell_indices(r_old, r_new)))


def revise(table: OperatorTable, f: Formula, g: Formula, n: int) -> Formula:
    """The revised formula: encode both inputs as rankings, combine, re-encode."""
    return formula_of_ranking(apply_semantic(table, ranking_of_formula(f, n), ranking_of_formula(g, n)))


# per target, a bytes.translate table sending a cell's level to 1 if it is the target, else 0
_TARGET_FLAGS = {t: bytes.maketrans(bytes(LEVELS), bytes([level == t for level in LEVELS])) for t in LEVELS}


@lru_cache(maxsize=32)
def _cell_conjunctions(f: Formula, g: Formula) -> tuple[tuple[Formula, ...], dict[bytes, Formula]]:
    """The nine cell conjunctions of a pair, row-major, and its Or-chains.

    Nodes are hash-consed, so the key is by identity.  ``postulate_formula``
    fills the dict, which maps nine 0/1 bytes (row-major, 1 for a cell sent to
    the target) to the Or-chain of the flagged cells.
    """
    return tuple(And(level_indicator(f, i), level_indicator(g, j)) for i in LEVELS for j in LEVELS), {}


def cell_formula(table: OperatorTable, i: int, j: int, target: int, f: Formula, g: Formula) -> Formula:
    """Conjunction of level indicators picking out cell (i, j), if the table
    sends that cell to ``target``; ``bot`` otherwise."""
    if target not in LEVELS:
        raise ValueError("levels must be 1, 2 or 3")
    if target != table.k(i, j):
        return Bot()
    return _cell_conjunctions(f, g)[0][(i - 1) * 3 + (j - 1)]


def postulate_formula(table: OperatorTable, target: int, f: Formula, g: Formula) -> Formula:
    """Disjunction of the cell formulas for ``target`` over all nine cells.

    Its models are exactly the worlds the combined ranking puts at level
    ``target``; if no cell maps there it is a disjunction of ``bot``s.
    """
    if target not in LEVELS:
        raise ValueError("levels must be 1, 2 or 3")
    conjunctions, chains = _cell_conjunctions(f, g)
    flags = bytes(table.cells).translate(_TARGET_FLAGS[target])
    if (out := chains.get(flags)) is None:
        out = chains[flags] = reduce(Or, [c if hit else Bot() for c, hit in zip(conjunctions, flags)])
    return out


@lru_cache(maxsize=8)
def _capture_profile_seed(n: int) -> dict:
    """Profiles of every capture formula at size n; ``_pair_memo`` copies it for each pair."""
    memo: dict = {}
    for w in interpretations(n):
        value_profile(capture_valuation(w), n, memo)
    return memo


@lru_cache(maxsize=32)
def _pair_memo(n: int, r_old: Ranking, r_new: Ranking) -> tuple[dict, dict]:
    """The profile memo of one ranking pair, seeded with the capture profiles,
    and the pair's model codes of the postulate nodes checked on it.

    Both are keyed by node, so they hold correct entries for any caller.  A
    node's code has bit 3*w set for each model w.  The cache keeps the
    sweep's few covering pairs warm from one call to the next.
    """
    if r_old.n != n or r_new.n != n:
        raise ValueError(f"ranking pairs must be over {n} variable(s), got {r_old.n} and {r_new.n}")
    return dict(_capture_profile_seed(n)), {}


def covering_ranking_pairs(n: int) -> tuple[tuple[Ranking, Ranking], ...]:
    """A small set of ranking pairs whose worlds hit all nine level cells."""
    if n < 1:
        raise ValueError("characterization needs at least one variable")
    count = 3**n
    if count >= 9:
        a = Ranking(n, tuple((i // 3) % 3 + 1 for i in range(count)))
        b = Ranking(n, tuple(i % 3 + 1 for i in range(count)))
        return ((a, b),)
    base = Ranking(1, (1, 2, 3))
    return tuple((base, Ranking(1, shifted)) for shifted in ((1, 2, 3), (2, 3, 1), (3, 1, 2)))


class CharacterizationResult(_Record):
    """Outcome of checking the postulate formulas of one table; truthy iff they
    matched the semantic operator on every checked pair and rebuilt the table."""

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

    For each pair of rankings the models of the target-k postulate formula
    must be exactly the level-k worlds of the combined ranking, and reading
    the postulates cell-wise must rebuild the table (each world satisfies the
    postulate formula of exactly one target, the one its cell maps to).  With
    ``pairs=None`` all ranking pairs over interpretations(n) are checked; a
    pair over another variable count raises ``ValueError``.
    """
    return check_characterizations([table], n, pairs)[0]


def _pair_failure(table, indices, f, g, n, memo, codes, places) -> str | None:
    """Why ``table``'s postulates fail on one pair, or ``None`` if they hold.

    ``places`` holds 1 << 3*w for each world w.  The combined levels pack as
    one bit per world at 3*w + level, the postulates as each node's code (its
    models' places) shifted by its target, and the two ints must be equal.
    """
    combined = _combine(table, indices)
    packed = 0
    for target in LEVELS:
        node = postulate_formula(table, target, f, g)
        if (code := codes.get(node)) is None:
            profile = value_profile(node, n, memo)
            code = codes[node] = sum(itertools.compress(places, [v is TruthValue.TRUE for v in profile]))
        packed |= code << target
    if packed != sum(map(operator.lshift, places, combined)):
        for target in LEVELS:
            profile = value_profile(postulate_formula(table, target, f, g), n, memo)
            if [v is TruthValue.TRUE for v in profile] != [level == target for level in combined]:
                return f"target {target} postulate models mismatch"
    # the model sets match, so each world satisfies the postulate of its combined level
    # alone; the table rebuilt from them must read the same as its cells
    cells = table.cells
    if combined != tuple(map(cells.__getitem__, indices)):
        for k, level in zip(indices, combined):
            if level != cells[k]:
                return f"cell {(k // 3 + 1, k % 3 + 1)} rebuilt as {[level]} instead of {cells[k]}"
    return None


def check_characterizations(
    tables: Iterable[OperatorTable],
    n: int = 1,
    pairs: Iterable[tuple[Ranking, Ranking]] | None = None,
) -> list[CharacterizationResult]:
    """``check_characterization`` of each table, with the pairs as the outer loop.

    A table that fails sits out the remaining pairs, so each result is the
    one a check of that table alone gives.

    What the tables share is per pair (``_pair_memo``): the profile memo, and
    the models of each postulate node checked so far, packed into one int.
    A node is the Or-chain of the cells sent to its target, so a pair holds
    at most 512 of them however many tables it checks.  Each table still
    gets its own combined levels and its own three postulate nodes, and is
    held to the models of exactly those nodes; a wrong node is keyed as
    itself, so its models are its own and it fails as it would cold.
    """
    if n < 1:
        raise ValueError("characterization needs at least one variable")
    tables = list(tables)
    results: list[CharacterizationResult | None] = [None] * len(tables)
    live = range(len(tables))  # positions of the tables still without a result
    covered: set[int] = set()  # cell indices
    checked = 0
    places = [1 << 3 * w for w in range(3**n)]
    for r_old, r_new in itertools.product(all_rankings(n), repeat=2) if pairs is None else pairs:
        memo, codes = _pair_memo(n, r_old, r_new)
        checked += 1
        f, g = formula_of_ranking(r_old), formula_of_ranking(r_new)
        indices = _cell_indices(r_old, r_new)
        covered.update(indices)
        for t in live:
            if reason := _pair_failure(tables[t], indices, f, g, n, memo, codes, places):
                where = f"old={r_old.serialize()} new={r_new.serialize()}"
                results[t] = CharacterizationResult(tables[t], n, checked, f"{reason} for {where}")
        if not (live := [t for t in live if results[t] is None]):
            break
    failure = None if len(covered) == 9 else "checked pairs do not cover all nine level cells"
    return [CharacterizationResult(table, n, checked, failure) if r is None else r for table, r in zip(tables, results)]


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
        failures += [(r.table.serialize(), r.failure) for r in check_characterizations(block, n, pairs) if not r]
    return SweepResult(n, total, tuple(failures))


CI_POSTULATE_NAMES = ("CI1", "CI2", "CI3", "CI4", "CI5", "CI6", "CI7", "CI8", "CI1'", "CI2'")


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


def _models(profile: tuple[TruthValue, ...]) -> frozenset[int]:
    return frozenset(i for i, v in enumerate(profile) if v is TruthValue.TRUE)


def check_ci_postulates(
    n: int = 1,
    pairs: Iterable[tuple[Ranking, Ranking]] | None = None,
) -> CiPostulateReport:
    """Check the cautious operator's postulates over ranking pairs.

    CI1, CI2, CI1' and CI2' are model-set equalities; CI3, CI7 and CI8 are
    full truth-table identities; CI4 preserves satisfiability, CI5 is success
    and CI6 keeps old models at least undetermined.  ``pairs=None`` checks
    every ranking pair over interpretations(n) exhaustively; a pair over
    another variable count raises ``ValueError``.
    """
    if n < 1:
        raise ValueError("the postulate suite needs at least one variable")
    table = ci_table()
    failures: dict[str, str] = {}
    checked = 0

    def combine(r_a: Ranking, r_b: Ranking) -> Formula:
        return formula_of_ranking(apply_semantic(table, r_a, r_b))

    for r_old, r_new in itertools.product(all_rankings(n), repeat=2) if pairs is None else pairs:
        memo = _pair_memo(n, r_old, r_new)[0]
        checked += 1

        def prof(h: Formula) -> tuple[TruthValue, ...]:
            return value_profile(h, n, memo)

        phi = formula_of_ranking(r_old)
        theta = formula_of_ranking(r_new)
        star = combine(r_old, r_new)
        p_theta = prof(theta)
        p_star = prof(star)
        p_not_star = prof(Not(star))
        m_star = _models(p_star)
        m_not_star = _models(p_not_star)
        uncertain_phi = level_indicator(phi, 2)

        checks = {
            "CI1": _models(prof(Or(And(phi, theta), And(uncertain_phi, theta)))) == m_star,
            "CI2": _models(prof(Or(And(uncertain_phi, Not(theta)), And(Not(phi), Not(theta))))) == m_not_star,
            "CI3": p_not_star
            == prof(combine(ranking_of_formula(Not(phi), n, memo), ranking_of_formula(Not(theta), n, memo))),
            "CI4": all(v is TruthValue.FALSE for v in p_theta)
            or not all(v is TruthValue.FALSE for v in p_star),
            "CI5": m_star <= _models(p_theta),
            "CI6": _models(prof(phi)) <= _models(prof(Box1(star))),
            "CI7": prof(combine(ranking_of_formula(star, n, memo), ranking_of_formula(theta, n, memo)))
            == p_theta,
            "CI8": prof(combine(ranking_of_formula(theta, n, memo), ranking_of_formula(theta, n, memo)))
            == p_theta,
            "CI1'": m_star == _models(prof(And(Box1(phi), theta))),
            "CI2'": m_not_star == _models(prof(And(Box1(Not(phi)), Not(theta)))),
        }
        for name, holds in checks.items():
            if not holds and name not in failures:
                failures[name] = f"old={r_old.serialize()} new={r_new.serialize()}"

    results = tuple(
        PostulateResult(name, name not in failures, failures.get(name)) for name in CI_POSTULATE_NAMES
    )
    return CiPostulateReport(n, checked, results)


def _equiv_gap(lhs_of, rhs_of, n: int) -> tuple[Ranking, Ranking, int] | None:
    table = ci_table()
    for r_old, r_new in itertools.product(all_rankings(n), repeat=2):
        memo = _pair_memo(n, r_old, r_new)[0]
        phi = formula_of_ranking(r_old)
        theta = formula_of_ranking(r_new)
        star = formula_of_ranking(apply_semantic(table, r_old, r_new))
        left = value_profile(lhs_of(star), n, memo)
        right = value_profile(rhs_of(phi, theta), n, memo)
        for index, (a, b) in enumerate(zip(left, right)):
            if a is not b:
                return r_old, r_new, index
    return None


def ci1_prime_equiv_witness(n: int = 1) -> tuple[Ranking, Ranking, int] | None:
    """A pair and world where ``old * new`` and ``[]1 old & new`` take
    different values; their model sets still agree everywhere (CI1')."""
    return _equiv_gap(lambda star: star, lambda phi, theta: And(Box1(phi), theta), n)


def ci2_prime_equiv_witness(n: int = 1) -> tuple[Ranking, Ranking, int] | None:
    """Same gap for CI2': ``~(old * new)`` versus ``[]1 ~old & ~new``."""
    return _equiv_gap(Not, lambda phi, theta: And(Box1(Not(phi)), Not(theta)), n)
