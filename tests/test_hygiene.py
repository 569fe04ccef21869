"""Source hygiene: no library module imports a name it never reads.

A stdlib ``ast`` scan, so the check needs no linter.  The package's
``__init__.py`` is exempt, since its imports are its public surface.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in read)


def test_scan_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import json\nfrom math import comb, gcd\nprint(gcd(4, 6))\n")
    assert unused_imports(src) == ["line 2: json", "line 3: comb"]


def test_scan_counts_attribute_roots_and_annotations_as_reads():
    src = "import json\nfrom fractions import Fraction\n" \
          "def f(x: Fraction) -> str:\n    return json.dumps(x)\n"
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
