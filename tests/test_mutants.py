"""The committed mutant list in tools/mutants.py still applies to the source:
running the mutants is outside tier-1, but a refactor that moves a mutant's
anchor text fails here instead of leaving the list to rot."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tribelief"

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", list(mutants.MUTANTS))
def test_mutant_anchor_occurs_once_and_its_module_exists(name):
    path, _, _, module = mutants.MUTANTS[name]
    source = (SRC / path).read_text()
    mutated = mutants.mutate(source, name)  # raises unless the anchor occurs exactly once
    assert mutated != source
    compile(mutated, path, "exec")
    assert (ROOT / module).is_file()


def test_mutate_refuses_a_missing_anchor():
    with pytest.raises(ValueError, match="^mutant codes-not-shifted: its anchor occurs 0 times, not once$"):
        mutants.mutate("", "codes-not-shifted")
