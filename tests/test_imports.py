"""Every module of the package uses each name it imports, and each name it
defines is read somewhere; there is no linter to say so."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tribelief"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_only_the_unread_names():
    source = "import os.path\nimport sys as system\nfrom re import compile, escape\nescape(system.argv)\n"
    assert unused_imports(source) == ["compile", "os"]


# __init__.py imports names only to re-export them
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def top_level_names(source: str) -> set[str]:
    """The names ``source`` defines at module level: functions, classes and assignment targets."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def read_names(source: str, package: bool = True) -> set[str]:
    """The names ``source`` reads, as an attribute or as a bare name; outside the
    package a bare name counts only if it was imported from the package, so a
    test's own helper does not keep a package name of the same spelling alive."""
    tree = ast.parse(source)
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    if not package:
        loads &= {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "tribelief"
            for alias in node.names
        }
    return read | loads


def test_top_level_and_read_names():
    source = "import os\nA, (B, C) = 1, (2, 3)\nD: int = A\ndef f(): return os.sep\nclass K: pass\nK.attr\n"
    assert top_level_names(source) == {"A", "B", "C", "D", "f", "K"}
    assert read_names(source) == {"A", "int", "os", "sep", "K", "attr"}
    test = "from tribelief import f, g as h\ndef A(): pass\nA(f(), h, K.attr)\n"
    assert read_names(test, package=False) == {"f", "h", "attr"}


def test_every_defined_name_is_read():
    # __init__.py only re-exports; a name defined elsewhere in the package and read by no module,
    # test, benchmark or README line is dead
    modules = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    outside = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(read_names(p.read_text()) for p in modules))
    read |= set().union(*(read_names(p.read_text(), package=False) for p in outside))
    read |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    defined = {name: p.name for p in modules for name in top_level_names(p.read_text())}
    assert sorted(f"{module}: {name}" for name, module in defined.items() if name not in read) == []
