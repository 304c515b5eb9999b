"""No module-level import that its file never reads.

Scans the package modules (except ``__init__.py``, whose imports are its
exports), the tests and the scripts with the standard ``ast`` module: every
name bound by a top-level ``import`` or ``from ... import`` must occur as a
name somewhere in the same file.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "dimlab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_sees_files():
    assert {p.parent.name for p in FILES} == {"dimlab", "tests", "scripts"}


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport re as regex\nfrom a import b, c\nc()\n") == [
        "os", "regex", "b"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
