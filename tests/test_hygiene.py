"""Source hygiene: no library module imports a name it never reads, no
function takes a retired tuning option, the mod-p modulus and the mod-p
echelon stay inside the two oracles built on them, no library function
calls a test oracle, only the bracket check reads the three lowest
degrees, no sign outside ``grassmann`` but the negative control's comes
from ``merge_sign``, the bracket and the Jacobi checks share one kernel,
only the two seeded property samplers draw random numbers, only
``modules.py`` defines a class with action columns, which stores
none of them, no module but ``weights.py`` reads a private member of
``Weight``, whose hash and equality stay the tuple's, and every library
function has a caller outside the tests.

Stdlib ``ast`` scans, so the checks need no linter.  The package's
``__init__.py`` is exempt from the import scan, since its imports are its
public surface.
"""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

from superw import suite, walgebra
from superw.weights import Weight

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "superw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# options that no caller set; the library fixes their values instead.  The
# layer filters of the singular scan (``zdegs``, ``degrees``) went too: a
# caller after one layer names a weight, which fixes it (``singular_space``)
RETIRED_PARAMS = {"prime", "max_steps", "burnside_threshold", "generating_only",
                  "term_fn", "labels", "zdegs", "degrees"}

# oracles the tests compare against; the library decides without them
ORACLES = {"burnside_full", "rank_mod_p", "hom_basis"}

# names of retired paths that must not come back: the Burnside threshold,
# the hom-space isomorphism check's error and rank loop, the L- extraction
# that closed a span even when it filled the tensor fields
# (``helpers.extract_L_minus_oracle`` now), the packed block codes and the
# block-position index, second encodings of a block's weight, and the
# primitive search that filtered a singular scan by layer, the per-vector
# gradings a module stored beside its weights, the coordinate and hash
# slots of the weight object that wrapped its tuple, the action on
# Grassmann elements that Lambda(n) = T(C) took over
# (``helpers.w_apply_oracle`` now), and the Grassmann element class and
# its formatter, whose term dicts are Lambda(n)'s vectors
# (``helpers.GrassmannElement`` and ``helpers.format_element`` now), and
# the second dimension formula for a shape and the second natural weight
# of a partition pair, which ``weyl_dim`` and ``stable_highest_weight`` give,
# and the tableau counter of Littlewood-Richardson numbers, which the
# character fold gives (``helpers.lr_tableau_oracle`` now)
RETIRED_NAMES = {"BURNSIDE_MAX_DIM", "IsomorphismUndecidedError", "_full_rank",
                 "extract_L_minus_submodule", "_Targets", "block_index",
                 "find_primitive", "zdegs", "parities", "_coords", "_hash",
                 "w_apply", "GrassmannElement", "format_element",
                 "schur_dim", "mixed_weight", "_lr_count"}

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

# the basis terms of the three lowest degrees stay the bracket check's
# default pairs on a W-module, read by FiniteWModule.check_keys; spans and
# hom spaces run over a module's generator keys
LOCAL_TERMS_READERS = {"modules.py": {"FiniteWModule"}}

# the closure as it stood in the library, over the three lowest degrees;
# the scan below must flag it
LOCAL_TERMS_CLOSURE = """
def submodule_generated(m: FiniteWModule, seeds: Iterable[Vec]) -> Submodule:
    return Submodule(parent=m, echelon=module_closure(m, local_terms(m.rank), seeds))
"""

# outside grassmann, the one reader of the two-call sign wrapper: the
# sign-bugged bracket, the negative control; every other sign is one
# popcount of the inversion kernel
MERGE_SIGN_READERS = {"suite.py": {"sign_bugged_bracket"}}

# the tensor-field column builder as it stood in the library, two sign
# calls per hit; the scan below must flag it
TWO_CALL_TENSOR_FIELD = """
from .grassmann import indices_of, merge_sign, removal_sign

def tensor_field(x, n):
    dx = x.dim

    def col(term, j):
        f, v = divmod(j, dx)
        a, tj = term
        out = {}
        bitj = 1 << (tj - 1)
        if f & bitj:
            s = removal_sign(tj, f) * merge_sign(a, f ^ bitj)
            if s:
                out[(a | (f ^ bitj)) * dx + v] = s
        sgn = -1 if term_parity(term) else 1
        rest_bits = a
        while rest_bits:
            bit = rest_bits & -rest_bits
            rest_bits ^= bit
            ms = merge_sign(a ^ bit, f)
            if not ms:
                continue
            c0 = sgn * removal_sign(bit.bit_length(), a) * ms
            for r, c in x.column((bit, tj), v).items():
                out[((a ^ bit) | f) * dx + r] = c0 * c
        return out

    return FiniteWModule(n, weights(x, n), col_fn=col)
"""

# the only modules that draw random numbers: both seed the property
# sampling of `superw check` and the suite's Jacobi triples; every verdict
# elsewhere is a certificate
RANDOM_IMPORTERS = {"cli.py", "suite.py"}

# the isomorphism search as it stood in the library; the scan below must
# flag it
RANDOM_ISO_SEARCH = """
import random

def invertible_combination(m1, m2, homs, seed=0):
    for phi in homs:
        if is_invertible(phi):
            return phi
    rng = random.Random(seed)
    for _ in range(12):
        combo = {}
        for phi in homs:
            c = rng.randint(-3, 3)
            for key, a in phi.items():
                combo[key] = combo.get(key, 0) + c * a
        if combo and is_invertible(combo):
            return combo
    return None
"""

# FiniteWModule.column as it stood in the library, storing every column it
# read; the scan below must flag both stores
CACHED_COLUMN = """
class FiniteWModule:
    def column(self, term, j):
        cols = self._cols.get(term)
        if cols is None:
            cols = self._cols[term] = {}
        elif j in cols:
            return cols[j]
        v = cols[j] = self._col_fn(term, j) or {}
        return v
"""


# the one module class that builds action columns; a gl module is one of
# them, over the degree-zero terms
COLUMN_CLASSES = {"modules.py": ["FiniteWModule"]}

# the gl module class as it stood in glmodules, with eager (i, j)-keyed
# columns of its own; the scan below must flag it
EAGER_GL_MODULE = """
class GlModule:
    __slots__ = ("rank", "weights", "_cols", "name", "_blocks")

    def __init__(self, rank, weights, cols, name=""):
        self.rank = rank
        self.weights = weights
        self._cols = cols
        self.name = name
        self._blocks = None

    def gen_keys(self):
        n = self.rank
        return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    def column(self, gen, j):
        return self._cols.get(gen, {}).get(j, {})

    def act(self, gen, vec):
        return apply_gen(self, gen, vec)
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
           "def k():\n    return linalg.DEFAULT_PRIME\n"
           "def singular_vectors(m, b, zdegs=None):\n    return m\n"
           "def find_primitive(m, b, degrees=None):\n    return m\n")
    assert retired_params(src) == ["line 2: prime", "line 2: max_steps",
                                   "line 10: zdegs", "line 12: degrees"]
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


def test_scan_flags_a_closure_over_the_lowest_degrees():
    assert stray_readers(LOCAL_TERMS_CLOSURE, ["local_terms"],
                         LOCAL_TERMS_READERS["modules.py"]) == {"submodule_generated"}
    assert stray_readers("from .modules import local_terms\n", ["local_terms"],
                         set()) == {"<module>"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_bracket_check_reads_the_lowest_degrees(path):
    allowed = LOCAL_TERMS_READERS.get(path.name, set())
    assert stray_readers(path.read_text(), ["local_terms"], allowed) == set()


def test_scan_flags_the_two_call_tensor_field():
    assert stray_readers(TWO_CALL_TENSOR_FIELD, ["merge_sign"],
                         MERGE_SIGN_READERS.get("tensorfields.py", set())) == {
        "<module>", "tensor_field"}
    assert stray_readers(TWO_CALL_TENSOR_FIELD, ["merge_sign"],
                         {"tensor_field"}) == set()


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grassmann.py"],
                         ids=lambda p: p.name)
def test_only_the_negative_control_reads_the_two_call_sign(path):
    allowed = MERGE_SIGN_READERS.get(path.name, set())
    assert stray_readers(path.read_text(), ["merge_sign"], allowed) == set()


def test_one_bracket_kernel(monkeypatch):
    # bracket, the Jacobi defect and the Jacobi sweep reach one term-dict
    # kernel: the two defaults are it, and bracket looks it up by name
    kernel = walgebra.term_bracket
    assert inspect.signature(walgebra.graded_jacobi_defect).parameters["kernel"].default is kernel
    assert inspect.signature(suite.jacobi_failures).parameters["kernel"].default is kernel
    reads = []

    def spy(xt, yt):
        reads.append((xt, yt))
        return kernel(xt, yt)

    monkeypatch.setattr(walgebra, "term_bracket", spy)
    x = walgebra.WElement.matrix_unit(2, 1, 2)
    assert walgebra.bracket(x, x) == walgebra.WElement(2)
    assert reads == [(x.terms, x.terms)]


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
           "    return rank_mod_p\n"
           "def iso_check(a, b):\n"
           "    homs = spanops.hom_basis(a, b, a.gen_keys())\n"
           "    if not any(_full_rank(phi) for phi in homs):\n"
           "        raise IsomorphismUndecidedError(len(homs))\n"
           "def extract_L_minus(lam, mu, n):\n"
           "    return extract_L_minus_submodule(lam, mu, n).module()\n"
           "class _Targets:\n    pass\n"
           "def closure(m, b):\n"
           "    block_of = spanops.block_index(m)\n"
           "    return find_primitive(m, b, degrees=[1]), _Targets(m), block_of\n"
           "def grading(m, w):\n"
           "    return m.zdegs, m.parities, w._coords, w._hash\n"
           "def leibniz(x, f):\n"
           "    return format_element(GrassmannElement(walgebra.w_apply(x, f)))\n"
           "def socle(lam, mu, n):\n"
           "    return schur_dim(lam, n), mixed_weight(lam, mu, n)\n"
           "def lr_coefficient(lam, mu, nu):\n"
           "    return _lr_count(lam, mu, nu)\n")
    assert sorted(calls_to(src, ORACLES)) == [
        "line 4: burnside_full", "line 5: rank_mod_p", "line 8: hom_basis"]
    assert RETIRED_NAMES <= identifiers(src)
    assert calls_to("def rank_mod_p(rows):\n    return len(rows)\n", ORACLES) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_library_function_calls_an_oracle(path):
    assert calls_to(path.read_text(), ORACLES) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_retired_name_comes_back(path):
    assert identifiers(path.read_text()) & RETIRED_NAMES == set()


def imports_random(source: str) -> bool:
    """Whether the source imports the random module or a name from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "random" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            return True
    return False


def test_scan_flags_the_random_iso_search():
    assert imports_random(RANDOM_ISO_SEARCH)
    assert imports_random("from random import Random\n")
    assert not imports_random("from .suite import random_homogeneous\n")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_property_samplers_draw_random_numbers(path):
    assert path.name in RANDOM_IMPORTERS or not imports_random(path.read_text())


def column_classes(source: str) -> list[str]:
    """Classes that define a ``column`` method."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef) and any(
                      isinstance(f, ast.FunctionDef) and f.name == "column"
                      for f in node.body))


def test_scan_flags_the_eager_gl_module():
    assert column_classes(EAGER_GL_MODULE) == ["GlModule"]
    assert column_classes("class GlModule(FiniteWModule):\n"
                          "    def gen_keys(self):\n        return []\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_module_class_builds_columns(path):
    assert column_classes(path.read_text()) == COLUMN_CLASSES.get(path.name, [])


def column_stores(source: str) -> list[str] | None:
    """The attributes and subscripts that ``FiniteWModule.column`` assigns
    to, in source order, or None when there is no such method."""
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "FiniteWModule"):
            continue
        for f in cls.body:
            if isinstance(f, ast.FunctionDef) and f.name == "column":
                stores = [node for node in ast.walk(f)
                          if isinstance(node, (ast.Attribute, ast.Subscript))
                          and isinstance(node.ctx, ast.Store)]
                stores.sort(key=lambda node: (node.lineno, node.col_offset))
                return [ast.unparse(node) for node in stores]
    return None


def test_scan_flags_the_cached_column():
    assert column_stores(CACHED_COLUMN) == ["self._cols[term]", "cols[j]"]
    stash = ("class FiniteWModule:\n    def column(self, term, j):\n"
             "        self.last, n = self._col_fn(term, j), 1\n"
             "        self.hits += n\n        return self.last\n")
    assert column_stores(stash) == ["self.last", "self.hits"]
    assert column_stores("class FiniteWModule:\n    def column(self, term, j):\n"
                         "        return self._col_fn(term, j)\n") == []
    assert column_stores("class GlModule:\n    pass\n") is None


def test_the_module_stores_no_column():
    # closed-form sources are recomputed; costly ones memoize themselves
    assert column_stores((SRC / "modules.py").read_text()) == []


def private_members(source: str, cls: str) -> set[str]:
    """The class's ``__slots__`` and its private methods."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in item.targets):
                    out |= set(ast.literal_eval(item.value))
                elif (isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                      and not item.name.endswith("__")):
                    out.add(item.name)
    return out


def private_reads(source: str, names: set[str]) -> list[str]:
    """Each attribute among the names that the source reads or assigns."""
    return sorted(f"line {node.lineno}: {node.attr}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in names)


# a code packed from a weight's coordinates, as the span engine once keyed
# its blocks by, and a shifted weight built past the constructor both read
# off a weight's internals: the retired coordinate slot, which the
# retired-name scan flags, and the private constructor, which the scan
# below must flag
PRIVATE_WEIGHT_CODES = """
def code(w, k):
    return sum(c << k * i for i, c in enumerate(w._coords))

def shifted(w, d):
    return Weight._dense(w.dense(len(d)) + d)
"""

# the private members of Weight: its slots, its private methods, and the
# sparse pairs it held before dense coordinates
WEIGHT_PRIVATE = private_members((SRC / "weights.py").read_text(), "Weight") | {"_items"}


def test_scan_flags_a_read_of_weight_internals():
    assert WEIGHT_PRIVATE == {"_dense", "_items"}
    assert private_reads(PRIVATE_WEIGHT_CODES, WEIGHT_PRIVATE) == ["line 6: _dense"]
    assert identifiers(PRIVATE_WEIGHT_CODES) & RETIRED_NAMES == {"_coords"}
    assert private_reads("def f(w):\n    return tuple(w), w.items()\n",
                         WEIGHT_PRIVATE) == []


def test_weight_lookups_stay_in_the_tuple():
    # a weight keys every block dict; its hash and equality are the
    # tuple's own, run in C, not a Python method on each probe
    assert Weight.__hash__ is tuple.__hash__
    assert Weight.__eq__ is tuple.__eq__


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "weights.py"],
                         ids=lambda p: p.name)
def test_no_module_reads_weight_internals(path):
    # every other module goes through the public surface: the tuple, items,
    # dense, from_dense and the arithmetic
    assert private_reads(path.read_text(), WEIGHT_PRIVATE) == []


def library_functions(source: str) -> list[str]:
    """Module-level functions and the methods of module-level classes, as
    ``f`` or ``Class.method``; dunder methods are called by the language."""
    out = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(top.name)
        elif isinstance(top, ast.ClassDef):
            out += [f"{top.name}.{f.name}" for f in top.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (f.name.startswith("__") and f.name.endswith("__"))]
    return out


def references(source: str, strings: bool = False) -> set[str]:
    """Names read, bare or as an attribute, outside a definition of the same
    name, so recursion is no caller.  With strings, identifier-like string
    constants count too: the benchmark's tracer patches functions it names."""
    out = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.update({node.id} - enclosing)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.update({node.attr} - enclosing)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            out.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return out


# methods whose name another library definition also defines, so a read
# of the name may mean the other one: each names the definition outside
# the tests that calls it, as "file stem.definition"
SHARED_NAME_CALLERS = {
    "glmodules.SocleReport.to_json": "cli.cmd_socle",
    "induction.Typicality.to_json": "cli.cmd_kac",
    "linalg.ModPEchelon.dim": "linalg.rank_mod_p",
    "linalg.ModPEchelon.insert": "linalg.rank_mod_p",
    "linalg.ModPEchelon.reduce": "linalg.ModPEchelon.insert",
    "linalg.RationalEchelon.dim": "linalg.kernel_basis",
    "linalg.RationalEchelon.insert": "linalg.kernel_basis",
    "linalg.RationalEchelon.reduce": "linalg.RationalEchelon.insert",
    "modules.FiniteWModule.check_keys": "modules.check_representation",
    "modules.FiniteWModule.dim": "modules.is_simple",
    "modules.FiniteWModule.gen_keys": "modules.submodule_generated",
    "modules.GlModule.check_keys": "modules.check_representation",
    "modules.GlModule.gen_keys": "modules.submodule_generated",
    "modules.Submodule.dim": "cli.cmd_tensorfield",
    "stability.StabilizationReport.to_json": "cli.cmd_stabilize",
    "suite.Criterion.to_json": "cli.cmd_suite",
    "weights.Weight.to_json": "induction.Typicality.to_json",
}


def definitions(stem: str, source: str) -> dict[str, ast.AST]:
    """Module-level functions and the methods of module-level classes,
    dunders included, keyed ``stem.f`` or ``stem.Class.method``."""
    out = {}
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[f"{stem}.{top.name}"] = top
        elif isinstance(top, ast.ClassDef):
            out.update({f"{stem}.{top.name}.{f.name}": f for f in top.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))})
    return out


def shared_methods(library: list[str]) -> list[str]:
    """The methods among ``stem.f`` and ``stem.Class.method`` entries whose
    name another entry also defines."""
    count = Counter(f.rsplit(".", 1)[-1] for f in library)
    return [f for f in library
            if f.count(".") == 2 and count[f.rsplit(".", 1)[-1]] > 1]


def uncalled(library: list[str], callers: set[str],
             defs: dict[str, ast.AST] = {},
             shared_callers: dict[str, str] = {}) -> list[str]:
    """Library functions and methods with no caller.  A name read by some
    caller counts, unless it is a method whose name another library entry
    also defines: such a method counts only when ``shared_callers`` names
    another definition in ``defs`` that reads it.  Outside that table the
    match is by name, so the scan is a floor, not a proof."""
    shared = set(shared_methods(library))
    out = []
    for f in library:
        name = f.rsplit(".", 1)[-1]
        if f in shared:
            caller = shared_callers.get(f)
            if caller == f or caller not in defs or name not in {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(defs[caller])
                    if isinstance(n, (ast.Name, ast.Attribute))
                    and isinstance(n.ctx, ast.Load)}:
                out.append(f)
        elif name not in callers:
            out.append(f)
    return out


def exported_names() -> set[str]:
    """The names in the package's ``__all__``."""
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def readme_code_names(text: str) -> set[str]:
    """Identifiers in the README's code: fenced blocks and inline spans."""
    code = re.findall(r"```.*?```", text, re.S)
    code += re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


# a module whose functions only a test calls, beside ones the library uses
TEST_ONLY_FUNCTIONS = """
def public_entry(x):
    return _helper(x) + Counter().tally()

def _helper(x):
    return x

def grading_element(n):
    return grading_element(n - 1) if n else None

class Counter:
    def tally(self):
        return self._step()

    def _step(self):
        return 1

    def restrict(self):
        return self

    def __repr__(self):
        return "Counter"
"""


def test_scan_flags_a_test_only_function():
    library = library_functions(TEST_ONLY_FUNCTIONS)
    callers = references(TEST_ONLY_FUNCTIONS)
    assert uncalled(library, callers) == [
        "public_entry", "grading_element", "Counter.restrict"]
    # an __all__ entry that the README shows counts as called
    assert uncalled(library, callers | {"public_entry"}) == [
        "grading_element", "Counter.restrict"]
    assert "grading_element" in references(
        "def f():\n    return grading_element(3)\n")
    # a called method name shared by another definition is no caller of
    # it: each such method needs its caller in the table
    library += ["Echelon.restrict"]
    assert uncalled(library, callers) == [
        "public_entry", "grading_element", "Counter.restrict", "Echelon.restrict"]
    traced = 'TRACED = [("modules", "restrict")]\n'
    assert "restrict" not in references(traced)
    assert "restrict" in references(traced, strings=True)
    assert readme_code_names(
        "use `kac_plus(x)` and\n```\nsuperw check\n```\nbracket") == {
        "kac_plus", "x", "superw", "check"}


# the echelon membership test as it stood in the library, which only tests
# called, beside the partition containment that the library's tableau
# counter called
ECHELON_CONTAINS = {
    "linalg": """
class RationalEchelon:
    def reduce(self, v):
        return v

    def contains(self, v):
        return not self.reduce(v)
""",
    "partitions": """
class Partition:
    def contains(self, other):
        return True

def lr_coefficient(lam, mu, nu):
    return nu.contains(lam)
""",
}


def test_scan_flags_a_method_that_shares_a_called_name():
    library = [f"{stem}.{f}" for stem, text in ECHELON_CONTAINS.items()
               for f in library_functions(text)]
    callers = set().union(*map(references, ECHELON_CONTAINS.values()))
    defs = {k: v for stem, text in ECHELON_CONTAINS.items()
            for k, v in definitions(stem, text).items()}
    callers.add("lr_coefficient")  # as if exported and shown
    assert shared_methods(library) == ["linalg.RationalEchelon.contains",
                                       "partitions.Partition.contains"]
    # by name alone, the partition's caller covers the echelon's method
    assert {f.rsplit(".", 1)[-1] for f in library} <= callers
    table = {"partitions.Partition.contains": "partitions.lr_coefficient"}
    assert uncalled(library, callers, defs, table) == [
        "linalg.RationalEchelon.contains"]
    # a caller that is gone, does not read the name, or is the method
    # itself counts for nothing
    for caller in ("partitions.gone", "linalg.RationalEchelon.reduce",
                   "linalg.RationalEchelon.contains"):
        table["linalg.RationalEchelon.contains"] = caller
        assert uncalled(library, callers, defs, table) == [
            "linalg.RationalEchelon.contains"], caller


def test_every_library_function_has_a_caller_outside_the_tests():
    """A library function or method needs a caller in the library, the
    scripts or the benchmark, or an ``__all__`` entry that the README
    shows; one that only tests call belongs in ``tests/helpers.py``.  A
    method whose name another library definition shares needs the caller
    that ``SHARED_NAME_CALLERS`` names."""
    callers = set().union(
        *(references(p.read_text()) for p in MODULES + SCRIPTS),
        *(references(p.read_text(), strings=True) for p in PERFBENCH))
    callers |= exported_names() & readme_code_names((ROOT / "README.md").read_text())
    library = [f"{p.stem}.{f}" for p in MODULES for f in library_functions(p.read_text())]
    defs = {k: v for p in MODULES + SCRIPTS + PERFBENCH
            for k, v in definitions(p.stem, p.read_text()).items()}
    assert sorted(SHARED_NAME_CALLERS) == sorted(shared_methods(library))
    assert uncalled(library, callers, defs, SHARED_NAME_CALLERS) == []
