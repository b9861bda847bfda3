"""Every name a module of the package or a test module imports is used in
that module.

__init__.py is exempt: it imports names to re-export them. So is
test_acceptance.py, which is kept byte for byte as written. A dotted
`import a.b` counts as used only where `a.b` itself is read, and a name
counts as read only in code (a quoted annotation does not read it).
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "tridrive"
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
