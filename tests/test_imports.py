"""No module under src/bdtw, scripts/ or tests/ imports a name it never
uses.

The package's `__init__` imports names to re-export them, so it is exempt.
A name counts as used when the module reads it anywhere, annotations
included; a mention in a string or comment does not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in (ROOT / "src" / "bdtw", ROOT / "scripts", ROOT / "tests")
                 for p in folder.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each name the source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from typing import Callable, Sequence\n\nx: Sequence[int] = regex.findall('', '')\n")
    assert unused_imports(source) == ["line 2: os", "line 4: Callable"]


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"monotonize.py", "cli.py", "bench_pairs.py", "oracles.py", "test_imports.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
