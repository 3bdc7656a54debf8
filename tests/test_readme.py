"""The README's examples, run as written: each ``$ tri ...`` example that
shows output goes through ``cli.main``, and the Library snippet runs with
its commented values checked."""

import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from tribelief import CI_POSTULATE_NAMES, parse, ranking_of_formula
from tribelief.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def _cli_examples():
    """(command line, expected stdout) for each ``$`` line followed by output."""
    examples = []
    for _, body in BLOCKS:
        for chunk in re.split(r"^(?=\$ )", body, flags=re.MULTILINE):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ ") and output.strip():
                examples.append((command[2:], output.rstrip("\n") + "\n"))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_shows_six_cli_examples():
    assert [shlex.split(command.split(" | ")[-1])[1] for command, _ in CLI_EXAMPLES] == [
        "eval", "table", "classify", "capture", "encode-ranking", "revise",
    ]


@pytest.mark.parametrize("command, expected", CLI_EXAMPLES, ids=[command for command, _ in CLI_EXAMPLES])
def test_readme_cli_example(command, expected, monkeypatch, capsys):
    stdin = ""
    if " | " in command:
        feeder, command = command.split(" | ")
        program, text = shlex.split(feeder)
        assert program == "printf"
        stdin = text.replace("\\n", "\n")
    program, *argv = shlex.split(command)
    assert program == "tri"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_snippet(capsys):
    (snippet,) = [body for lang, body in BLOCKS if lang == "python"]
    namespace = {}
    exec(snippet, namespace)
    serialized, formula = capsys.readouterr().out.splitlines()
    assert "# Ranking(n=1, levels=(3, 2, 1))" in snippet
    assert repr(namespace["old"]) == "Ranking(n=1, levels=(3, 2, 1))"
    assert "# 222" in snippet
    assert serialized == "222"
    assert ranking_of_formula(parse(formula), 1) == namespace["revised"]


def test_readme_lists_the_ci_postulates_in_suite_order():
    assert tuple(re.findall(r"^\| (CI\S*) \|", README, re.MULTILINE)) == CI_POSTULATE_NAMES
