"""Source hygiene: every name a module or a test file imports is used."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "vessiot").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source):
    """Names bound by import statements that nothing else in the source
    refers to; ``__all__`` entries count as uses, ``from __future__``
    imports are not names, and an import whose line carries
    ``# noqa: F401`` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and "# noqa: F401" in lines[node.lineno - 1]):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            }
    return sorted(
        f"{name} (line {line})" for name, line in imported.items()
        if name not in used
    )


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm\n"
        "from fractions import Fraction\n"
        "from itertools import chain  # noqa: F401\n"
        "__all__ = ['Fraction']\n"
        "print(os.path.sep, gcd(2, 4))\n"
    )
    assert unused_imports(source) == ["lcm (line 3)"]


@pytest.mark.parametrize(
    "path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES]
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
