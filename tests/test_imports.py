"""No module under src/bdtw, scripts/ or tests/ imports a name it never
uses, and no function or class of src/bdtw outlives its last caller.

The package's `__init__` imports names to re-export them, so it is exempt.
A name counts as used when the module reads it anywhere, annotations
included; a mention in a string or comment does not count.

A function or method of src/bdtw whose name starts with one underscore
must be named on some line other than its `def` in src/, scripts/, tests/
or perfbench/, so a helper that a refactor leaves without callers fails
here.  So must each public function, method or class of src/bdtw, but for
the cli.cmd_* commands, which cli.main looks up in globals().
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in (ROOT / "src" / "bdtw", ROOT / "scripts", ROOT / "tests")
                 for p in folder.glob("*.py") if p.name != "__init__.py")
MENTIONING = sorted(p for folder in ("src", "scripts", "tests", "perfbench")
                    for p in (ROOT / folder).rglob("*.py"))


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


def private_defs(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function or method whose name starts with one
    underscore."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def public_defs(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function, method or class whose name starts
    with neither an underscore nor cmd_."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith(("_", "cmd_"))]


def orphaned_defs(defs: dict[str, str], texts: dict[str, str], find=private_defs) -> list[str]:
    """'path:line: name' for each def that `find` lists in the sources
    `defs` (path -> text) and that no line of `texts` (path -> text) other
    than the def's own names as a whole word."""
    lines = [(path, i, line) for path, text in texts.items()
             for i, line in enumerate(text.splitlines(), 1)]
    out = []
    for path, source in defs.items():
        for lineno, name in find(source):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) and (other, i) != (path, lineno)
                       for other, i, line in lines):
                out.append(f"{path}:{lineno}: {name}")
    return out


def test_finds_an_orphaned_private_def():
    lib = "def _used():\n    pass\n\n\ndef _orphan():\n    return _used()\n"
    caller = "from lib import _used\n_used_twice = None\n"
    texts = {"lib.py": lib, "caller.py": caller}
    assert orphaned_defs({"lib.py": lib}, texts) == ["lib.py:5: _orphan"]


def library_orphans(find) -> list[str]:
    """orphaned_defs over src/bdtw against every mentioning module."""
    texts = {str(p.relative_to(ROOT)): p.read_text() for p in MENTIONING}
    defs = {path: text for path, text in texts.items() if path.startswith("src/bdtw/")}
    return orphaned_defs(defs, texts, find)


def test_every_private_def_is_named_elsewhere():
    assert library_orphans(private_defs) == []


def test_finds_an_unreferenced_public_name():
    lib = ("class Used:\n    def method(self):\n        pass\n\n\n"
           "def orphan():\n    pass\n\n\ndef cmd_run(args):\n    pass\n")
    caller = "from lib import Used\nUsed().method()\n"
    texts = {"lib.py": lib, "caller.py": caller}
    assert orphaned_defs({"lib.py": lib}, texts, public_defs) == ["lib.py:6: orphan"]


def test_every_public_name_is_named_elsewhere():
    assert library_orphans(public_defs) == []
