"""Every name a module of the package or a test module imports is used in
that module, and every top-level function and class of the package is
named outside its own definition.

__init__.py is exempt: it imports names to re-export them. So is
test_acceptance.py, which is kept byte for byte as written. A dotted
`import a.b` counts as used only where `a.b` itself is read, and a name
counts as read only in code (a quoted annotation does not read it).

A definition counts as named where code of the package, the tests or
perfbench reads or imports its name; __init__.py's re-exports do not
count. A click command (@main.command) is called by click, so it is
exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "tridrive"
PERFBENCH = TESTS.parent / "perfbench"
EXEMPT = {PACKAGE / "__init__.py", TESTS / "test_acceptance.py"}


def _dotted(node) -> str | None:
    """'a.b.c' for the expression a.b.c, None for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = set(map(_dotted, ast.walk(tree)))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")] if p not in EXEMPT),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from functools import cached_property, lru_cache\n"
        "import urllib.error\n"
        "import urllib.request\n"
        "@lru_cache\n"
        "def f(x):\n"
        "    return urllib.request.urlopen(x)\n"
    )
    assert sorted(unused_imports(source)) == ["cached_property", "urllib.error"]


def _names(tree) -> Counter:
    """How often the tree reads or imports each name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def unnamed_definitions(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """'module: name' of each top-level function and class of the package
    modules ({module: source}) that no module, of the package or the
    others, names outside the definition itself. Click commands are
    exempt."""
    trees = {name: ast.parse(source) for name, source in {**others, **package}.items()}
    named = sum(map(_names, trees.values()), Counter())
    found = []
    for module in package:
        for node in trees[module].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if "main.command" in map(_dotted, decorators):
                continue
            if named[node.name] == _names(node)[node.name]:
                found.append(f"{module}: {node.name}")
    return found


def _sources(paths) -> dict[str, str]:
    return {path.relative_to(TESTS.parent).as_posix(): path.read_text(encoding="utf-8")
            for path in paths}


def test_every_definition_is_named():
    package = [p for p in PACKAGE.glob("*.py") if p not in EXEMPT]
    others = [*TESTS.glob("*.py"), *PERFBENCH.glob("*.py")]
    assert unnamed_definitions(_sources(package), _sources(others)) == []


def test_the_check_finds_an_unnamed_definition():
    package = {
        "mod.py": (
            "def used(): ...\n"
            "def unused(): ...\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Helper: ...\n"
            "@main.command()\n"
            "def cmd(): ...\n"
        ),
    }
    others = {"test_mod.py": "from mod import Helper\nused()\n"}
    assert unnamed_definitions(package, others) == ["mod.py: unused", "mod.py: recursive"]
