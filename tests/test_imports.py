"""No module imports a name that it never reads, and no simulator
module imports another module's private name."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tregsim").glob("*.py"))
MODULES = sorted([p for p in SOURCES if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")))


def unused_imports(source):
    """The names that source's import statements bind and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport a.b\nfrom c import d as e\na.b.f()\n") == [
        (1, "os"), (3, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source):
    """The underscore names that source's from-imports take from other modules."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name.startswith("_"))


def test_detects_a_private_import():
    assert private_imports("from a import b, _c\nfrom .d import _e as f\nimport _g\n") == [
        (1, "_c"), (2, "_e")]


# tests may reach into a module's private names; the simulator's modules
# share only public ones
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_name_is_imported(path):
    assert private_imports(path.read_text()) == []
