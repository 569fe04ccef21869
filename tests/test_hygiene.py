"""Source hygiene: no library module imports a name it never reads, no
function takes a retired tuning option, the mod-p modulus and the mod-p
echelon stay inside the two oracles built on them, and no library function
calls a test oracle.

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

# oracles the tests compare against; the library decides without them
ORACLES = {"burnside_full", "rank_mod_p"}

# names of retired paths that must not come back
RETIRED_NAMES = {"BURNSIDE_MAX_DIM"}

# the only readers of the mod-p modulus
PRIME_READERS = {"linalg.py": {"rank_mod_p"}, "spanops.py": {"burnside_full"}}

# the mod-p echelon and reduction, and the only definitions that use them:
# their own, and the two oracles
MOD_P_NAMES = ("ModPEchelon", "vec_mod")
MOD_P_USERS = {"linalg.py": {"ModPEchelon", "vec_mod", "rank_mod_p"},
               "spanops.py": {"burnside_full"}}

# the closure that ran mod p before its exact pass, as it stood in the
# library; the scans below must flag both functions
MOD_P_CLOSURE = """
from .linalg import DEFAULT_PRIME, ModPEchelon, RationalEchelon, vec_mod

def closed_span(seeds, ops, p=None):
    ech = ModPEchelon(p) if p else RationalEchelon()
    queue = []
    for s in seeds:
        if p:
            s = vec_mod(s, p)
        piv = ech.insert(s)
        if piv is not None:
            queue.append(ech.rows[piv])
    while queue:
        v = queue.pop()
        for op in ops:
            w = op(v)
            if not w:
                continue
            if p:
                w = vec_mod(w, p)
            piv = ech.insert(w)
            if piv is not None:
                queue.append(ech.rows[piv])
    return ech

def submodule_generated(m, seeds):
    seeds = list(seeds)
    gens = local_terms(m.rank)
    mod = module_closure(m, gens, seeds, p=DEFAULT_PRIME)
    if mod.dim == m.dim:
        return Submodule(parent=m, echelon=RationalEchelon(), full=True)
    ech = module_closure(m, gens, seeds, p=None)
    return Submodule(parent=m, echelon=ech, full=ech.dim == m.dim)
"""


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


def stray_readers(source: str, names, allowed: set[str]) -> set[str]:
    """Top-level definitions that read or import one of the names but are
    not allowed to; a module-level import is allowed where some definition
    is."""
    found = set().union(*(readers_of(source, name) for name in names))
    if allowed:
        found.discard("<module>")
    return found - allowed


def test_scans_flag_the_mod_p_closure():
    assert stray_readers(MOD_P_CLOSURE, ["DEFAULT_PRIME"], set()) == {
        "<module>", "submodule_generated"}
    assert stray_readers(MOD_P_CLOSURE, ["DEFAULT_PRIME"],
                         PRIME_READERS["spanops.py"]) == {"submodule_generated"}
    assert stray_readers(MOD_P_CLOSURE, MOD_P_NAMES,
                         MOD_P_USERS["linalg.py"]) == {"closed_span"}
    assert stray_readers(MOD_P_CLOSURE, MOD_P_NAMES, {"closed_span"}) == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_certificates_read_the_modulus(path):
    allowed = PRIME_READERS.get(path.name, set())
    assert stray_readers(path.read_text(), ["DEFAULT_PRIME"], allowed) == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_oracles_use_the_mod_p_echelon(path):
    allowed = MOD_P_USERS.get(path.name, set())
    assert stray_readers(path.read_text(), MOD_P_NAMES, allowed) == set()


def calls_to(source: str, names: set[str]) -> list[str]:
    """Calls of the names, bare or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                out.append(f"line {node.lineno}: {name}")
    return out


def identifiers(source: str) -> set[str]:
    """Every name the source binds, reads, imports or defines."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
    return out


def test_scans_flag_oracle_calls_and_retired_names():
    src = ("from .spanops import burnside_full\n"
           "BURNSIDE_MAX_DIM = 96\n"
           "def f(m):\n"
           "    if m.dim <= BURNSIDE_MAX_DIM and burnside_full(m, []):\n"
           "        return linalg.rank_mod_p(m.rows)\n"
           "    return rank_mod_p\n")
    assert calls_to(src, ORACLES) == ["line 4: burnside_full", "line 5: rank_mod_p"]
    assert RETIRED_NAMES <= identifiers(src)
    assert calls_to("def rank_mod_p(rows):\n    return len(rows)\n", ORACLES) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_library_function_calls_an_oracle(path):
    assert calls_to(path.read_text(), ORACLES) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_retired_name_comes_back(path):
    assert identifiers(path.read_text()) & RETIRED_NAMES == set()
