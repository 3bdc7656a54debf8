import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tribelief
from tribelief import (
    CI_POSTULATE_NAMES,
    OperatorTable,
    SweepResult,
    TruthValue,
    X0_RANKING,
    capture_set,
    ci_table,
    classify,
    drastic_table,
    formula_of_ranking,
    parse,
    render,
)
from tribelief import operators
from tribelief.cli import main
from strategies import formula_texts, formulas, rankings

F, U, T = TruthValue.FALSE, TruthValue.UNDET, TruthValue.TRUE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_success(capsys):
    code, out, err = run_cli(capsys, "eval", "-n", "1", "--at", "u", "x0 & ~x0")
    assert (code, out, err) == (0, "u\n", "")


def test_eval_two_variables(capsys):
    code, out, _ = run_cli(capsys, "eval", "-n", "2", "--at", "1,0", "x0 -> x1")
    assert (code, out) == (0, "0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "-n", "1", "--at", "u", "x0 &"),
        ("eval", "-n", "1", "--at", "2", "x0"),
        ("eval", "-n", "1", "--at", "u", "x1"),
        ("eval", "-n", "1", "x0"),
        ("table", "-n", "1", "x0 | | x0"),
        ("revise", "-n", "1", "--op", "124123123", "x0", "~x0"),
        ("closure", "--variant", "box3"),
        ("check",),
        ("frobnicate",),
    ],
)
def test_malformed_input_exits_2_with_clean_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("tri: error:")
    assert err.count("\n") == 1


def test_deeply_nested_formula_evaluates(capsys):
    text = "(" * 20000 + "x0" + ")" * 20000
    code, out, err = run_cli(capsys, "eval", "-n", "1", "--at", "u", text)
    assert (code, out, err) == (0, "u\n", "")


@pytest.mark.parametrize("depth", [3000, 3001])
@pytest.mark.parametrize("at", ["0", "u", "1"])
def test_deep_negation_chain_follows_parity(capsys, depth, at):
    expected = at if depth % 2 == 0 else {"0": "1", "u": "u", "1": "0"}[at]
    code, out, err = run_cli(capsys, "eval", "-n", "1", "--at", at, "~" * depth + "x0")
    assert (code, out, err) == (0, expected + "\n", "")


def _run_quietly(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, err):
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("tri: error:") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


_OPERATOR_TEXTS = st.one_of(
    st.sampled_from(["ci", "drastic"]),
    st.text("123", min_size=9, max_size=9),
    st.text("0123", max_size=10),
    st.text(max_size=12),
)


@st.composite
def _formula_commands(draw):
    command = draw(st.sampled_from(["eval", "table", "classify", "capture", "revise"]))
    n = draw(st.integers(1, 3))
    formula_text = st.one_of(formulas(n - 1).map(render), formula_texts(), st.text(max_size=24))
    formula = draw(formula_text)
    world = st.one_of(st.lists(st.sampled_from("01u"), min_size=n, max_size=n).map(",".join), st.text(max_size=8))
    worlds = draw(st.lists(world, min_size=1, max_size=3))
    # the texts follow "--" or "=", so they reach the command as data
    if command == "eval":
        return ["eval", "-n", str(n), f"--at={worlds[0]}", "--", formula]
    if command == "capture":
        return ["capture", "-n", str(n), "--", *worlds]
    if command == "revise":
        return ["revise", "-n", str(n), f"--op={draw(_OPERATOR_TEXTS)}", "--", formula, draw(formula_text)]
    return [command, "-n", str(n), "--", formula]


@given(_formula_commands())
def test_formula_commands_exit_0_or_2_without_traceback(argv):
    """Any formula, interpretation or operator text ends in exit 0, or exit 2
    with one ``tri: error:`` line and an empty stdout; nothing is raised.

    As an option, ``-h`` means help, which exits through SystemExit(0) by
    design, so the drawn texts are passed as data.  ``-n`` stays at 1-3:
    ``table -n 30`` still ends in a MemoryError traceback, and exhaustive
    ``check ci``/``check charac`` at ``-n 2`` run for hours.  Both are still
    open.
    """
    _assert_clean_exit(*_run_quietly(argv))


_RANKING_LINE = st.builds(
    "{} : {}".format,
    st.lists(st.sampled_from("0u1x"), max_size=3).map(" ".join),
    st.sampled_from(["1", "2", "3", "4", ""]),
)


@given(
    st.one_of(
        st.text(max_size=60),
        st.lists(_RANKING_LINE, max_size=10).map("\n".join),
        st.one_of(rankings(1), rankings(2)).map(lambda r: "\n".join(r.to_lines())),
    )
)
def test_encode_ranking_from_any_stdin_exits_0_or_2_without_traceback(text):
    _assert_clean_exit(*_run_quietly(["encode-ranking", "-"], stdin=text))


def test_table_output(capsys):
    code, out, _ = run_cli(capsys, "table", "-n", "1", "x0")
    assert code == 0
    assert out == "0 : 0\nu : u\n1 : 1\n"


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "-n", "1", "[]1 x0")
    assert code == 0
    assert out == "models: u 1\nquasi-models: 0\ncountermodels:\n"


def test_capture_round_trip(capsys):
    code, out, _ = run_cli(capsys, "capture", "-n", "2", "0,1", "u,u")
    assert code == 0
    printed = out.strip()
    assert printed == render(capture_set([(F, T), (U, U)], 2))
    models, _, _ = classify(parse(printed), 2)
    assert models == ((F, T), (U, U))


def test_encode_ranking_from_file(tmp_path, capsys):
    path = tmp_path / "ranking.txt"
    path.write_text("0 : 3\nu : 2\n1 : 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "encode-ranking", str(path))
    assert code == 0
    assert out.strip() == render(formula_of_ranking(X0_RANKING))


def test_encode_ranking_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 : 1\n0 : 3\nu : 2\n"))
    code, out, _ = run_cli(capsys, "encode-ranking", "-")
    assert code == 0
    assert out.strip() == render(formula_of_ranking(X0_RANKING))


def test_encode_ranking_missing_file(capsys):
    code, out, err = run_cli(capsys, "encode-ranking", "/nonexistent/ranking.txt")
    assert (code, out) == (2, "")
    assert err.startswith("tri: error:")


def test_encode_ranking_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "ranking.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "encode-ranking", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("tri: error:") and err.count("\n") == 1


def test_encode_ranking_bad_content(tmp_path, capsys):
    path = tmp_path / "ranking.txt"
    path.write_text("0 : 3\n0 : 1\nu : 2\n1 : 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "encode-ranking", str(path))
    assert (code, out) == (2, "")
    assert "duplicate" in err


def test_revise_golden(capsys):
    code, out, _ = run_cli(capsys, "revise", "-n", "1", "--op", "ci", "x0", "~x0")
    assert (code, out) == (0, "0:2 u:2 1:2\n")


def test_revise_drastic_keeps_new(capsys):
    code, out, _ = run_cli(capsys, "revise", "-n", "1", "--op", "123123123", "x0", "~x0")
    assert (code, out) == (0, "0:1 u:2 1:3\n")


def test_check_ci(capsys):
    code, out, _ = run_cli(capsys, "check", "ci")
    assert code == 0
    lines = out.splitlines()
    assert lines[:-1] == [f"{name} PASS" for name in CI_POSTULATE_NAMES]
    assert lines[-1] == "checked 729 ranking pair(s)"


def test_check_charac(capsys):
    code, out, _ = run_cli(capsys, "check", "charac", "--op", "ci")
    assert code == 0
    assert out == "table 122123223: characterization PASS (729 pair(s))\n"


def test_check_ci_prints_failure_witnesses(monkeypatch, capsys):
    # the drastic operator checked against the cautious suite
    monkeypatch.setattr(operators, "ci_table", drastic_table)
    code, out, err = run_cli(capsys, "check", "ci")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "CI1 FAIL old=113 new=111",
        "CI2 FAIL old=111 new=113",
        "CI3 PASS",
        "CI4 PASS",
        "CI5 PASS",
        "CI6 FAIL old=111 new=113",
        "CI7 PASS",
        "CI8 PASS",
        "CI1' FAIL old=113 new=111",
        "CI2' FAIL old=111 new=113",
        "checked 729 ranking pair(s)",
    ]


def test_check_charac_prints_the_failure(monkeypatch, capsys):
    # ci's postulates are planted with those of a table that differs in cell (3, 3)
    other = OperatorTable((1, 2, 2, 1, 2, 3, 2, 2, 1))
    real = operators._postulate_flags

    def planted(table):
        return real(other if table == ci_table() else table)

    monkeypatch.setattr(operators, "_postulate_flags", planted)
    code, out, err = run_cli(capsys, "check", "charac", "--op", "ci")
    assert (code, err) == (1, "")
    assert out == "table 122123223: characterization FAIL: target 1 postulate models mismatch for old=113 new=113\n"


def test_check_all_operators_summary(monkeypatch, capsys):
    monkeypatch.setattr("tribelief.cli.sweep_all_tables", lambda n: SweepResult(n, 19683, ()))
    code, out, _ = run_cli(capsys, "check", "all-operators")
    assert code == 0
    assert out == "all 19683 operator tables pass characterization at n=1\n"


def test_check_all_operators_failure_lines(monkeypatch, capsys):
    result = SweepResult(1, 3, (("111111112", "cell (1, 1) rebuilt wrong"),))
    monkeypatch.setattr("tribelief.cli.sweep_all_tables", lambda n: result)
    code, out, _ = run_cli(capsys, "check", "all-operators")
    assert code == 1
    assert out.splitlines() == [
        "table 111111112: cell (1, 1) rebuilt wrong",
        "1 of 3 operator tables fail characterization at n=1",
    ]


def test_check_all_operators_machine(monkeypatch, capsys):
    result = SweepResult(1, 3, (("111111112", "boom"),))
    monkeypatch.setattr("tribelief.cli.sweep_all_tables", lambda n: result)
    code, out, _ = run_cli(capsys, "check", "all-operators", "--machine")
    assert code == 1
    assert out.splitlines() == ["111111112 FAIL", "checked 3 failed 1"]


@pytest.mark.parametrize("argv", [("eval", "-n", "-1", "--at", "1", "x0"), ("capture", "-n", "-1", "1")])
def test_a_negative_count_is_refused_by_name(capsys, argv):
    # the world parser used to ask for "-1 truth value(s)"
    assert run_cli(capsys, *argv) == (2, "", "tri: error: variable count must be non-negative\n")


def test_closure_human(capsys):
    code, out, _ = run_cli(capsys, "closure", "--variant", "box1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("variant: box1")
    assert lines[1] == "closure size: 17 of 27"
    assert lines[-1] == "verdict: DISJOINT"


def test_closure_machine(capsys):
    code, out, _ = run_cli(capsys, "closure", "--variant", "box2", "--machine")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    assert all(line.endswith(" OUT") for line in lines)


def test_closure_include_bot(capsys):
    code, out, _ = run_cli(capsys, "closure", "--variant", "box1", "--include-bot")
    assert code == 0
    assert "generators: x0 and bot" in out.splitlines()[0]


_CLOSURE_HUMAN = {
    "box1": """\
variant: box1 (generators: x0; ops: neg, join, box1, meet)
closure size: 17 of 27
forbidden family (10 rankings):
  113 OUT
  131 OUT
  132 OUT
  133 OUT
  213 OUT
  231 OUT
  311 OUT
  312 OUT
  313 OUT
  331 OUT
unreachable rankings (10): 113 131 132 133 213 231 311 312 313 331
meet adds nothing: yes
verdict: DISJOINT
""",
    "box2": """\
variant: box2 (generators: x0; ops: neg, join, box2, meet)
closure size: 12 of 27
forbidden family (15 rankings):
  112 OUT
  122 OUT
  132 OUT
  211 OUT
  212 OUT
  213 OUT
  221 OUT
  222 OUT
  223 OUT
  231 OUT
  232 OUT
  233 OUT
  312 OUT
  322 OUT
  332 OUT
unreachable rankings (15): 112 122 132 211 212 213 221 222 223 231 232 233 312 322 332
meet adds nothing: yes
verdict: DISJOINT
""",
}


@pytest.mark.parametrize("variant", ["box1", "box2"])
@pytest.mark.parametrize("include_bot", [False, True])
@pytest.mark.parametrize("machine", [False, True])
def test_closure_golden(capsys, variant, include_bot, machine):
    # bot adds no ranking to either closure, so only the generators line changes
    human = _CLOSURE_HUMAN[variant]
    if include_bot:
        human = human.replace("(generators: x0;", "(generators: x0 and bot;")
    if machine:
        expected = "".join(line.strip() + "\n" for line in human.splitlines() if line.startswith("  "))
    else:
        expected = human
    argv = ["closure", "--variant", variant]
    argv += ["--include-bot"] * include_bot + ["--machine"] * machine
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "closure", "--variant", "box2")
    second = run_cli(capsys, "closure", "--variant", "box2")
    assert first == second


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    for name in ("eval", "table", "classify", "capture", "encode-ranking", "revise", "check", "closure"):
        assert name in out


def declared_console_script(name):
    """The `module:function` target of `name` in pyproject.toml's [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def test_console_script_installed(tmp_path):
    # An installed `tri` is run as it is. Without one (the suite runs from
    # source), write the wrapper an installer would generate from the declared
    # entry point and put it first on PATH, importing this checkout's package.
    env = None
    if shutil.which("tri") is None:
        module, func = declared_console_script("tri").split(":")
        script = tmp_path / "tri"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        script.chmod(0o755)
        env = dict(
            os.environ,
            PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", os.defpath)]),
            PYTHONPATH=str(Path(tribelief.__file__).resolve().parent.parent),
        )
    proc = subprocess.run(
        ["tri", "eval", "-n", "1", "--at", "u", "x0 & ~x0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "u\n"


def test_module_entry_point():
    # the child imports the package under test, wherever pytest found it
    source = str(Path(tribelief.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "tribelief", "revise", "-n", "1", "--op", "ci", "x0", "~x0"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))),
    )
    assert proc.returncode == 0
    assert proc.stdout == "0:2 u:2 1:2\n"


def test_cli_import_stays_light():
    # python -S keeps site-packages' own imports out of the picture; every
    # tri command pays for what this import pulls in, and perfbench's tracer
    # needs all six modules loaded once tribelief.cli is imported
    source = str(Path(tribelief.__file__).resolve().parent.parent)
    code = "import sys; sys.path.insert(0, sys.argv[1]); import tribelief.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code, source], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    modules = ("syntax", "semantics", "ranking", "operators", "definability", "cli")
    assert {f"tribelief.{name}" for name in modules} <= loaded
