"""The package runs on the standard library alone: ``dependencies = []``,
and each of its modules, and each test module, uses every name it imports.
Every class, function and module-level name that the package defines is
named somewhere else, and no module edits a contact. The package root binds
no names, and a node command never loads the simulator."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dhtvote"


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
    """The package's modules and the tests, conftest included."""
    paths = sorted((ROOT / "src" / "dhtvote").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert paths and ROOT / "tests" / "conftest.py" in tests
    paths += tests
    assert ({str(path.relative_to(ROOT)): unused_imports(path) for path in paths}
            == {str(path.relative_to(ROOT)): [] for path in paths})


def test_package_root_is_only_its_docstring():
    """The modules are the API: ``import dhtvote`` imports and binds nothing."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1


def test_node_commands_never_load_the_simulator():
    """``run``, ``vote`` and ``get`` need only dhtvote.cli and dhtvote.udp,
    and those load neither the simulator nor ``statistics``, which only the
    simulator uses. A fresh interpreter sees what an import really loads."""
    code = ("import sys, dhtvote.cli, dhtvote.udp; "
            "print(sorted({'dhtvote.sim', 'statistics'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def references(tree: ast.AST) -> Counter:
    """How often each name is read in tree: as a ``Name``, as an ``Attribute``
    or as a string that is an identifier (``getattr`` and patching by name)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names[node.value] += 1
    return names


def source_trees() -> dict[Path, ast.AST]:
    """Every module in src/, tests/ and perfbench/, parsed."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    assert PACKAGE / "sketch.py" in trees and ROOT / "perfbench" / "layers.py" in trees
    return trees


def unreferenced(trees: dict[Path, ast.AST], bindings: list[tuple[Path, ast.AST, str]]) -> list[str]:
    """Each (path, node, name) whose name is read nowhere outside node."""
    used = sum(map(references, trees.values()), Counter())
    return [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
            for path, node, name in bindings if used[name] == references(node)[name]]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced():
    """Each class and function in the package is named in src/, tests/ or
    perfbench/ outside its own definition, so a helper left behind when its
    callers go fails here. Dunder methods are exempt: Python calls them."""
    trees = source_trees()
    definitions = [
        (path, node, node.name)
        for path, tree in trees.items() if path.parent == PACKAGE
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not is_dunder(node.name)
    ]
    assert len(definitions) > 100
    assert unreferenced(trees, definitions) == []


def test_every_module_level_name_is_referenced():
    """Each name that a top-level assignment in the package binds is named
    outside that assignment, so a constant left behind when its readers go
    fails here. Dunders such as ``__all__`` are exempt."""
    trees = source_trees()
    bindings = [
        (path, node, name.id)
        for path, tree in trees.items() if path.parent == PACKAGE
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and not is_dunder(name.id)
    ]
    assert len(bindings) > 30
    assert unreferenced(trees, bindings) == []


def test_no_module_edits_a_contact():
    """A contact is a value: the routing table swaps a newer one in and
    never assigns to a contact's ``id``, ``ip`` or ``port``, so a contact
    handed out keeps its address and a reader outside the table's lock
    never sees a new ip with an old port. This stands in for
    ``frozen=True``, which doubles the cost of building a Contact."""
    edits = [
        f"{path.relative_to(ROOT)}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
        and node.attr in ("id", "ip", "port")
    ]
    assert edits == []
