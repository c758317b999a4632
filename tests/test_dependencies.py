"""The package runs on the standard library alone: ``dependencies = []``,
and each of its modules, and each test module, uses every name it imports."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_package_imports_only_the_standard_library():
    imported = set()
    for path in sorted((ROOT / "src" / "dhtvote").glob("*.py")):
        imported |= absolute_imports(path)
    assert imported  # the walk found the package
    outside = sorted(name for name in imported
                     if name.partition(".")[0] not in sys.stdlib_module_names)
    assert outside == []
    if sys.version_info >= (3, 11):  # tomllib is new in 3.11
        import tomllib

        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        assert project["dependencies"] == []


def test_package_parses_at_the_declared_python_floor():
    """pyproject says ``requires-python = ">=3.10"``: no newer syntax."""
    paths = sorted((ROOT / "src" / "dhtvote").glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def unused_imports(path: Path) -> list[str]:
    """The names that path imports and never reads; ``from __future__`` is exempt."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # ``import a.b`` binds a
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_module_uses_what_it_imports():
    """The package's modules and the tests, conftest included. The package's
    __init__ is exempt: its imports are the package's exports."""
    paths = [path for path in sorted((ROOT / "src" / "dhtvote").glob("*.py"))
             if path.name != "__init__.py"]
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert paths and ROOT / "tests" / "conftest.py" in tests
    paths += tests
    assert ({str(path.relative_to(ROOT)): unused_imports(path) for path in paths}
            == {str(path.relative_to(ROOT)): [] for path in paths})
