"""The cautious operator's postulate suite with every postulate spelled out
inline, as it was written before the suite became a table of named
postulates.  The operator table is a parameter, and each pair gets a fresh
profile memo, so nothing here shares a cache with the library.  The
table-driven ``check_ci_postulates`` and equivalence witnesses are tested
against it.
"""

import itertools

from tribelief import (
    And,
    Box1,
    CiPostulateReport,
    Not,
    Or,
    PostulateResult,
    TruthValue,
    all_rankings,
    apply_semantic,
    formula_of_ranking,
    level_indicator,
    ranking_of_formula,
    value_profile,
)

NAMES = ("CI1", "CI2", "CI3", "CI4", "CI5", "CI6", "CI7", "CI8", "CI1'", "CI2'")


def _models(profile):
    return frozenset(i for i, v in enumerate(profile) if v is TruthValue.TRUE)


def check_ci_postulates(table, n=1, pairs=None):
    """The report ``check_ci_postulates(n, pairs)`` gives when ``table`` is the cautious operator."""
    failures = {}
    checked = 0

    def combine(r_a, r_b):
        return formula_of_ranking(apply_semantic(table, r_a, r_b))

    for r_old, r_new in itertools.product(all_rankings(n), repeat=2) if pairs is None else pairs:
        memo = {}
        checked += 1

        def prof(h):
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

    results = tuple(PostulateResult(name, name not in failures, failures.get(name)) for name in NAMES)
    return CiPostulateReport(n, checked, results)


def _equiv_gap(table, lhs_of, rhs_of, n):
    for r_old, r_new in itertools.product(all_rankings(n), repeat=2):
        memo = {}
        phi = formula_of_ranking(r_old)
        theta = formula_of_ranking(r_new)
        star = formula_of_ranking(apply_semantic(table, r_old, r_new))
        left = value_profile(lhs_of(star), n, memo)
        right = value_profile(rhs_of(phi, theta), n, memo)
        for index, (a, b) in enumerate(zip(left, right)):
            if a is not b:
                return r_old, r_new, index
    return None


def ci1_prime_equiv_witness(table, n=1):
    """The first pair and world where ``old * new`` and ``[]1 old & new`` differ."""
    return _equiv_gap(table, lambda star: star, lambda phi, theta: And(Box1(phi), theta), n)


def ci2_prime_equiv_witness(table, n=1):
    """The first pair and world where ``~(old * new)`` and ``[]1 ~old & ~new`` differ."""
    return _equiv_gap(table, Not, lambda phi, theta: And(Box1(Not(phi)), Not(theta)), n)
