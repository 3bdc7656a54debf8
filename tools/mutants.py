"""Committed source mutants: each must make its test module fail.

    python3 tools/mutants.py [--every] [NAME ...]

Each mutant is one text edit to a file of ``src/tribelief``: its anchor,
which occurs exactly once there, is replaced.  For each named mutant (all of
them by default) the script copies the checkout to a temporary directory,
applies the edit, and runs the mutant's test module with ``-x``.  A mutant
is killed when that run fails; the report names the test that failed first.
``--every`` runs each module to the end instead and names every test that
fails.  The exit code is 1 if any mutant survived.

``tests/test_mutants.py`` (tier-1) checks that every anchor still occurs
once, so a refactor that moves the code makes the list fail, not rot.
Standard library only, plus pytest for the runs themselves.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tribelief"

# name -> (file under src/tribelief, anchor, replacement, test module expected to kill it)
MUTANTS = {
    # eval_formula reads a world's values through its tables unchecked: 5 & 1 is 1, ~5 a bare IndexError
    "eval-world-unchecked": (
        "semantics.py",
        "    _world_index(w)\n    return _profile(",
        "    return _profile(",
        "tests/test_ranking.py",
    ),
    # eval_formula takes the world's length before its check: a generator world is a bare TypeError
    "world-length-taken-first": (
        "semantics.py",
        "    _world_index(w)\n    return _profile(",
        "    _world_index(w, len(w))\n    return _profile(",
        "tests/test_ranking.py",
    ),
    # eval_formula reads the world as given: at (2, 0), x0 & ~x1 is the int 2, not TruthValue.TRUE
    "eval-result-not-canonical": (
        "semantics.py",
        "(tuple(map(TruthValue, w)),)",
        "(w,)",
        "tests/test_ranking.py",
    ),
    # interpretation_index counts in base three unchecked: (2, 7) is 13, (True, 0) is 3
    "interpretation-index-unchecked": (
        "semantics.py",
        "    return _world_index(w)\n",
        "    return sum(v * 3**i for i, v in enumerate(reversed(w)))\n",
        "tests/test_ranking.py",
    ),
    # capture_valuation checks only its size: (True, 0) is captured as (u, 0), (5, 0) refused as a level
    "capture-valuation-unchecked": (
        "ranking.py",
        "    _world_index(w)\n    _variable_count(len(w), 1,",
        "    _variable_count(len(w), 1,",
        "tests/test_ranking.py",
    ),
    # capture_valuation is cached ahead of its check again: once (u,) is captured, (True,) reads its entry
    "capture-valuation-hit-unchecked": (
        "ranking.py",
        "\ndef capture_valuation(",
        "\n@lru_cache(maxsize=None)\ndef capture_valuation(",
        "tests/test_ranking.py",
    ),
    # a world need only be sized: a dict is read by its keys, a set in hash order
    "world-dict-accepted": (
        "semantics.py",
        "    if isinstance(w, Sequence):",
        "    if hasattr(w, '__len__'):",
        "tests/test_ranking.py",
    ),
    # the lexer reads "bot" at the head of a longer word: botx0 is bot then x0, not the unknown word 'botx'
    "bot-read-inside-a-word": (
        "syntax.py",
        'rf"|bot(?!{_LETTER})|x[0-9]+',
        'rf"|bot|x[0-9]+',
        "tests/test_syntax.py",
    ),
    # an index too long for int() is reported one character early, at the x instead of its first digit
    "long-index-error-one-early": (
        "syntax.py",
        '"variable index has too many digits", position + 1)',
        '"variable index has too many digits", position)',
        "tests/test_syntax.py",
    ),
    # formula_of_ranking folds each level set from its last world: the same models, another node
    "encoder-folds-level-sets-backwards": (
        "ranking.py",
        "    uncertain = _capture_all(r.level_set(2))\n",
        "    uncertain = _capture_all(r.level_set(2)[::-1])\n",
        "tests/test_ranking.py",
    ),
    # parse_interpretation takes any count: ("1", True) is (T,), and -1 is "expected -1 truth value(s)"
    "parse-interpretation-count-unchecked": (
        "semantics.py",
        "    _variable_count(n)\n    chunks =",
        "    chunks =",
        "tests/test_records.py",
    ),
    # a float count is taken for the int it equals: Ranking(1.0, (1, 2, 3)) is built
    "variable-count-accepts-float": (
        "semantics.py",
        "    if type(n) is not int:\n",
        "    if type(n) not in (int, float):\n",
        "tests/test_records.py",
    ),
    # "all 0" read as "no value is 1": an all-u profile would count as a contradiction
    "all-false-as-no-true": (
        "semantics.py",
        "    return all(v is F for v in p)\n",
        "    return all(v is not T for v in p)\n",
        "tests/test_semantics.py",
    ),
    # "q is 1 wherever p is" read as "q is not 0 wherever p is 1"
    "models-within-as-not-0": (
        "semantics.py",
        "    return all(b is T for a, b in zip(p, q) if a is T)\n",
        "    return all(b is not F for a, b in zip(p, q) if a is T)\n",
        "tests/test_semantics.py",
    ),
    "ci2-always-holds": (
        "operators.py",
        '    "CI2": (\n        _same_models,\n',
        '    "CI2": (\n        lambda left, right: True,\n',
        "tests/test_operators.py",
    ),
    "ci4-always-holds": (
        "operators.py",
        '"CI4": (lambda left, right: _all_false(left) or not _all_false(right),',
        '"CI4": (lambda left, right: True,',
        "tests/test_operators.py",
    ),
    "ci6-always-holds": (
        "operators.py",
        '"CI6": (_models_within,',
        '"CI6": (lambda left, right: True,',
        "tests/test_operators.py",
    ),
    "ci8-always-holds": (
        "operators.py",
        '"CI8": (operator.eq,',
        '"CI8": (lambda left, right: True,',
        "tests/test_operators.py",
    ),
    # the sweep's packed postulate models without their target shifts: every table fails
    "codes-not-shifted": (
        "operators.py",
        "            try:\n                packed = codes[one] << 1 | codes[two] << 2 | codes[three] << 3\n",
        "            try:\n                packed = codes[one] | codes[two] | codes[three]\n",
        "tests/test_operators.py",
    ),
    # the failing target is read off a shift one too low, so a failure can name the wrong target
    "failing-target-off-by-one-shift": (
        "operators.py",
        "(packed ^ want) >> level & spread",
        "(packed ^ want) >> level - 1 & spread",
        "tests/test_operators.py",
    ),
    # each world reads the cell of the next world
    "reader-off-by-one-index": (
        "operators.py",
        "    get = operator.itemgetter(*indices)\n    return get if",
        "    get = operator.itemgetter(*indices[1:], indices[0])\n    return get if",
        "tests/test_operators.py",
    ),
    "flags-for-wrong-target": (
        "operators.py",
        "    return cells.translate(one), cells.translate(two), cells.translate(three)\n",
        "    return cells.translate(two), cells.translate(one), cells.translate(three)\n",
        "tests/test_operators.py",
    ),
    # every failure names the new ranking as the old one and the old as the new
    "witness-old-and-new-swapped": (
        "operators.py",
        'return f"old={self.old.serialize()} new={self.new.serialize()}"',
        'return f"old={self.new.serialize()} new={self.old.serialize()}"',
        "tests/test_cli.py",
    ),
}


def mutate(text: str, name: str) -> str:
    """``text`` with mutant ``name``'s anchor replaced; the anchor must occur once."""
    _, anchor, replacement, _ = MUTANTS[name]
    if text.count(anchor) != 1:
        raise ValueError(f"mutant {name}: its anchor occurs {text.count(anchor)} times, not once")
    return text.replace(anchor, replacement)


def run(name: str, every: bool) -> tuple[bool, list[str], float]:
    """Whether mutant ``name`` was killed, the failing test ids, and the seconds taken."""
    path, _, _, module = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "out", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, copy, ignore=ignore)
        target = copy / "src" / "tribelief" / path
        target.write_text(mutate(target.read_text(), name))
        # a failing hypothesis test imports libcst to suggest a patch, and that import's
        # DeprecationWarning, an error under the suite's filterwarnings, aborts the run
        quiet = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
        cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "-W", quiet, module]
        if not every:
            cmd.insert(3, "-x")
        start = time.perf_counter()
        done = subprocess.run(
            cmd, cwd=copy, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True
        )
        seconds = time.perf_counter() - start
    failed = re.findall(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
    if done.returncode not in (0, 1):  # an error before any test ran kills nothing
        raise RuntimeError(f"mutant {name}: pytest exited with {done.returncode}\n{done.stdout}{done.stderr}")
    return done.returncode == 1, failed, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--every", action="store_true", help="run each module to the end and name every failure")
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
    survived = 0
    for name in args.names or MUTANTS:
        killed, failed, seconds = run(name, args.every)
        survived += not killed
        verdict = f"killed by {', '.join(failed)}" if killed else "SURVIVED"
        print(f"{name}: {verdict} ({MUTANTS[name][3]}, {seconds:.1f} s)", flush=True)
    print(f"{len(args.names or MUTANTS) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
