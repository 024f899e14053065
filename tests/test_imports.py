"""No module imports a name that it never reads."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([p for p in (ROOT / "src" / "tregsim").glob("*.py") if p.name != "__init__.py"]
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
