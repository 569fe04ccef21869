"""Source hygiene: no library module imports a name it never reads, no
function takes a retired tuning option, and the mod-p modulus stays inside
the linear algebra and the two certificates built on it.

Stdlib ``ast`` scans, so the checks need no linter.  The package's
``__init__.py`` is exempt from the import scan, since its imports are its
public surface.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# options that no caller set; the library fixes their values instead
RETIRED_PARAMS = {"prime", "max_steps", "burnside_threshold", "generating_only"}

# the only readers of the mod-p modulus: None allows the whole module
PRIME_READERS = {"linalg.py": None, "spanops.py": {"burnside_full"},
                 "modules.py": {"submodule_generated"}}


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


def retired_params(source: str) -> list[str]:
    tree = ast.parse(source)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in RETIRED_PARAMS:
                    out.append(f"line {arg.lineno}: {arg.arg}")
    return out


def readers_of(source: str, name: str) -> set[str]:
    """Top-level definitions (or "<module>") that read or import the name,
    bare or as an attribute."""
    found = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute) and node.attr == name):
                found.add(owner)
            elif isinstance(node, ast.ImportFrom) and any(
                    (a.asname or a.name) == name for a in node.names):
                found.add(owner)
    return found


def test_scans_flag_retired_options_and_prime_readers():
    src = ("from .linalg import DEFAULT_PRIME\n"
           "def f(m, prime=DEFAULT_PRIME, *, max_steps=None):\n"
           "    return m\n"
           "def g(m):\n    return rank(m, DEFAULT_PRIME)\n"
           "def h(primes, steps):\n    return primes\n"
           "def k():\n    return linalg.DEFAULT_PRIME\n")
    assert retired_params(src) == ["line 2: prime", "line 2: max_steps"]
    assert readers_of(src, "DEFAULT_PRIME") == {"<module>", "f", "g", "k"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_a_retired_option(path):
    assert retired_params(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_certificates_read_the_modulus(path):
    found = readers_of(path.read_text(), "DEFAULT_PRIME")
    if path.name not in PRIME_READERS:
        assert found == set()
    elif PRIME_READERS[path.name] is not None:
        assert found - {"<module>"} <= PRIME_READERS[path.name]
