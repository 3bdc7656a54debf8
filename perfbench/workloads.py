"""The benchmark's three workloads: seeded inputs, the op each runs, its check.

Each workload draws its inputs from ``random.Random(seed)`` only, so a seed
fixes the whole op sequence; tribelief receives nothing but those inputs.
An op's check returns ``None`` when the output is right and a one-line
witness otherwise.  tribelief is imported inside the workloads, after the
worker has put the checkout's ``src`` first on ``sys.path``.  Why each
workload exists is recorded in README.md next to this file.
"""

import io
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import reference as ref

SWEEP_BLOCK = 256  # operator tables per sweep op
ROUNDTRIP_N = 4  # variables per round-trip ranking: 81 worlds
ROUNDTRIP_STRATA = 16  # rankings per block of stratified level proportions
DEEP_CHAIN = 3000  # negations in the cli workload's deep-input commands
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    kind: str
    payload: Any
    expect: Callable[[Any], str | None] | None = None


class Sweep:
    """``sweep_all_tables(1, tables=block)`` over a seeded permutation of all
    3**9 tables, SWEEP_BLOCK tables per op."""

    def __init__(self, seed):
        from tribelief import operators

        self.operators = operators
        self.order = list(range(3**9))
        random.Random(seed).shuffle(self.order)
        self.pos = 0

    def warm_up(self):
        self.operators.sweep_all_tables(1, tables=[self.operators.ci_table()])

    def next_op(self):
        block = []
        for _ in range(SWEEP_BLOCK):
            index = self.order[self.pos % len(self.order)]
            self.pos += 1
            cells = tuple(index // 3**k % 3 + 1 for k in range(8, -1, -1))
            block.append(self.operators.OperatorTable(cells))
        return Op("block", block)

    def run(self, op):
        return self.operators.sweep_all_tables(1, tables=op.payload)

    def check(self, op, result):
        # The paper's claim: every table's postulates characterize it.
        if result.failures:
            serial, reason = result.failures[0]
            return f"table {serial} fails: {reason}"
        if result.total != len(op.payload):
            return f"swept {result.total} of {len(op.payload)} tables"
        return None

    def work(self, op):
        return len(op.payload)


class Roundtrip:
    """formula_of_ranking -> render -> parse -> ranking_of_formula on seeded
    random rankings at n=ROUNDTRIP_N; each ranking draws its own level
    proportions, so level sets run from empty to every world.  The two cut
    points of the proportions are stratified over blocks of ROUNDTRIP_STRATA
    rankings, so that every seed gets about the same mix of small and large
    formulas and runs differ by the machine, not by the draw."""

    def __init__(self, seed):
        from tribelief import ranking, semantics, syntax

        self.ranking, self.semantics, self.syntax = ranking, semantics, syntax
        self.rng = random.Random(seed)
        self.seen = set()
        self.repeats = 0
        self.strata = []

    def warm_up(self):
        self.semantics.interpretations(ROUNDTRIP_N)
        # an n=1 ranking, so the warm-up leaves no n=4 entry in any cache
        self._round_trip(self.ranking.Ranking(1, (3, 2, 1)))

    def next_op(self):
        if not self.strata:
            cuts = [list(range(ROUNDTRIP_STRATA)) for _ in range(2)]
            for column in cuts:
                self.rng.shuffle(column)
            self.strata = list(zip(*cuts))
        a, b = sorted((stratum + self.rng.random()) / ROUNDTRIP_STRATA for stratum in self.strata.pop())
        levels = tuple(self.rng.choices((1, 2, 3), weights=(a, b - a, 1 - b), k=3**ROUNDTRIP_N))
        if levels in self.seen:
            self.repeats += 1
        self.seen.add(levels)
        return Op("ranking", levels)

    def _round_trip(self, r):
        text = self.syntax.render(self.ranking.formula_of_ranking(r))
        return self.ranking.ranking_of_formula(self.syntax.parse(text), r.n)

    def run(self, op):
        return self._round_trip(self.ranking.Ranking(ROUNDTRIP_N, op.payload))

    def check(self, op, result):
        if result.levels != op.payload:
            return f"{''.join(map(str, op.payload))} came back as {''.join(map(str, result.levels))}"
        return None

    def work(self, op):
        return 1


# One block of the cli mix; each block is shuffled by the seed.  check charac
# is three in twenty so that the tail percentile falls inside one command kind.
CLI_MIX = (
    ("eval",) * 3
    + ("table",) * 2
    + ("classify",) * 2
    + ("capture",) * 2
    + ("revise",) * 2
    + ("encode",) * 2
    + ("ci",)
    + ("charac",) * 3
    + ("closure",) * 2
    + ("deep",)
)

# Commands that fail today because of a known defect, with the documented
# (exit code, stderr) of that failure: a 3000-deep `~` chain is refused by the
# recursive parser and evaluator.  Any other failure of these commands, a
# wrong answer included, is counted as failed.
KNOWN_DEFECTS = {"deep": (2, "tri: error: input too deeply nested\n")}


def _lines_equal(wanted):
    def expect(lines):
        for i in range(max(len(lines), len(wanted))):
            got = lines[i] if i < len(lines) else None
            want = wanted[i] if i < len(wanted) else None
            if got != want:
                return f"line {i + 1} is {got!r}, expected {want!r}"
        return None

    return expect


def _single_line(check):
    def expect(lines):
        if len(lines) != 1:
            return f"expected one line, got {len(lines)}"
        return check(lines[0])

    return expect


class Cli:
    """A seeded mix of ``python -m tribelief`` commands, one at a time.

    With ``env`` each command runs as a subprocess with that environment;
    without it, the same argv goes through ``tribelief.cli.main`` in this
    process (the traced run's view of the same commands).
    """

    def __init__(self, seed, root, env):
        self.rng = random.Random(seed)
        self.root, self.env = root, env
        self.pending = []
        if env is None:
            from tribelief import cli

            self.cli = cli

    def warm_up(self):
        op = self._build("eval")
        witness = self.check(op, self.run(op))
        if witness is not None:
            raise RuntimeError(f"warm-up command failed: {witness}")

    def next_op(self):
        if not self.pending:
            self.pending = list(CLI_MIX)
            self.rng.shuffle(self.pending)
        return self._build(self.pending.pop())

    def _formula(self, n):
        return ref.random_formula(self.rng, n, self.rng.randint(1, 10))

    def _build(self, kind):
        rng = self.rng
        n = rng.randint(1, 3)
        if kind == "eval":
            f, w = self._formula(n), tuple(rng.randrange(3) for _ in range(n))
            return Op(kind, (["eval", "-n", str(n), "--at", ref.literal(w), ref.text(f)], None), _lines_equal(ref.eval_lines(f, w)))
        if kind == "table":
            f = self._formula(n)
            return Op(kind, (["table", "-n", str(n), ref.text(f)], None), _lines_equal(ref.table_lines(f, n)))
        if kind == "classify":
            f = self._formula(n)
            return Op(kind, (["classify", "-n", str(n), ref.text(f)], None), _lines_equal(ref.classify_lines(f, n)))
        if kind == "capture":
            chosen = rng.sample(ref.worlds(n), rng.randint(1, min(4, 3**n)))
            argv = ["capture", "-n", str(n), *(ref.literal(w) for w in chosen)]
            return Op(kind, (argv, None), _single_line(lambda line: ref.models_witness(line, n, chosen)))
        if kind == "revise":
            name = rng.choice(("ci", "drastic", None, None))
            cells = ref.NAMED_TABLES[name] if name else tuple(rng.randint(1, 3) for _ in range(9))
            op_text = name or "".join(map(str, cells))
            f, g = self._formula(n), self._formula(n)
            argv = ["revise", "-n", str(n), "--op", op_text, ref.text(f), ref.text(g)]
            return Op(kind, (argv, None), _lines_equal(ref.revise_lines(cells, f, g, n)))
        if kind == "encode":
            levels = [rng.randint(1, 3) for _ in range(3**n)]
            lines = [f"{ref.literal(w, ' ')} : {level}" for w, level in zip(ref.worlds(n), levels)]
            rng.shuffle(lines)
            expect = _single_line(lambda line: ref.ranking_witness(line, n, levels))
            return Op(kind, (["encode-ranking", "-"], "\n".join(lines) + "\n"), expect)
        if kind == "ci":
            return Op(kind, (["check", "ci"], None), _lines_equal(ref.ci_lines()))
        if kind == "charac":
            serial = "".join(str(rng.randint(1, 3)) for _ in range(9))
            return Op(kind, (["check", "charac", "--op", serial], None), _lines_equal(ref.charac_lines(serial)))
        if kind == "closure":
            argv = ["closure", "--variant", rng.choice(("box1", "box2"))]
            if rng.random() < 0.5:
                argv.append("--include-bot")
            return Op(kind, (argv, None), ref.closure_witness)
        if kind == "deep":
            # the answer follows from the parity of the chain
            depth, at = DEEP_CHAIN + rng.randrange(2), rng.randrange(3)
            value = at if depth % 2 == 0 else 2 - at
            argv = ["eval", "-n", "1", "--at", ref.SYMBOLS[at], "~" * depth + "x0"]
            return Op(kind, (argv, None), _lines_equal([ref.SYMBOLS[value]]))
        raise ValueError(f"unknown cli command kind {kind!r}")

    def run(self, op):
        """Run one command; returns (exit code, stdout, stderr)."""
        argv, stdin = op.payload
        if self.env is None:
            return self._run_in_process(argv, stdin)
        done = subprocess.run(
            [sys.executable, "-m", "tribelief", *argv],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=self.root,
            env=self.env,
            timeout=CLI_TIMEOUT_S,
        )
        return done.returncode, done.stdout, done.stderr

    def _run_in_process(self, argv, stdin):
        out, err = io.StringIO(), io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(stdin or "")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result):
        code, stdout, stderr = result
        if code != 0:
            return f"exit {code}: {(stderr.strip() or stdout.strip())[:160]}"
        return op.expect(stdout.splitlines())

    def work(self, op):
        return 1


def known_defect(op, result):
    """Whether a failed op failed with exactly its kind's documented known-defect witness."""
    if op.kind not in KNOWN_DEFECTS or result is None:
        return False
    code, stdout, stderr = result
    return (code, stderr) == KNOWN_DEFECTS[op.kind] and not stdout


def describe(op):
    """A short label for an op in failure listings."""
    if op.kind in ("block", "ranking"):
        return op.kind
    argv = re.sub(r"~{10,}", lambda chain: f"~{{{len(chain.group())}}}", " ".join(op.payload[0]))
    return f"{op.kind}: tri {argv[:70]}{'...' if len(argv) > 70 else ''}"
