"""Checks on dholc's own source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dholc"


def unread_imports(source: str) -> list[str]:
    """The names that an import statement of the module binds and that the
    module never reads, as ``line: name``.  An import statement with a line
    marked ``# noqa: F401`` is exempt: it imports for another module's sake,
    as a package re-exports its API."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds a
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unread_import():
    source = (
        "import os.path\n"
        "import sys as system\n"
        "from json import dumps, loads\n"
        "from re import compile  # noqa: F401\n"
        "from typing import (  # noqa: F401\n"
        "    Any,\n"
        ")\n"
        "print(loads, system.argv)\n"
    )
    assert unread_imports(source) == ["1: os", "3: dumps"]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    unread = {p.name: unread_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unread.items() if found} == {}
