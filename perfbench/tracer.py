"""Layer tracing for superw, installed from outside the library.

``install()`` replaces each traced function with a timing wrapper in every
``superw`` namespace that holds it, since ``from .x import f`` binds its
own name, and in the default arguments of module-level functions
(``graded_jacobi_defect`` takes ``bracket`` as one).  Methods are patched
on their class, and the column builders of induced and tensor-field
modules are wrapped on each module that ``kac_plus``,
``kac_minus_truncated`` and ``tensor_field`` return.

Two kinds of wrapper share one stack of open calls:

* a span records name, start, end, enclosing span and task, kept in
  memory and written out by ``write_spans``;
* an aggregate only adds to a call count and a self time, for the
  kernels called millions of times (``merge_sign``, ``column``, echelon
  inserts).

Self time is a call's duration minus the time of the traced calls it
made, so every nanosecond is attributed to exactly one layer.  Wrapper
bookkeeping lands in the caller's self time; ``trace_overhead_ratio``
reports the total cost.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# (module, function) pairs wrapped with an aggregate
AGGREGATED = [
    ("grassmann", "merge_sign"),
    ("walgebra", "bracket"),
    ("partitions", "schur_weights"),
    ("partitions", "lr_coefficient"),
]

# (module, function) pairs wrapped with a span
SPANNED = [
    ("glmodules", "gl_simple"),
    ("glmodules", "decompose_character"),
    ("modules", "is_simple"),
    ("modules", "submodule_generated"),
    ("spanops", "burnside_full"),
    ("spanops", "module_closure"),
    ("spanops", "singular_blocks"),
    ("spanops", "hom_basis"),
    ("linalg", "kernel_basis"),
    ("linalg", "rank_mod_p"),
    ("tensorfields", "extract_L_minus"),
    ("stability", "restricted_character"),
]

# builders whose modules get their column function wrapped, by layer
COLUMN_BUILDERS = [
    ("induction", "kac_plus", "induction.column"),
    ("induction", "kac_minus_truncated", "induction.column"),
    ("tensorfields", "tensor_field", "tensorfields.column"),
]

IS_SIMPLE_METHODS = ("operator-span", "highest-weight", "witness")


class Tracer:
    """Spans, per-layer call statistics and counters of one process."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        # time spent in traced callees, one accumulator per open call;
        # the first entry is the root
        self.child_ns = [0]
        # ids of the enclosing spans; 0 is the root
        self.open_spans = [0]
        self.next_id = 1
        self.task = 0
        # (id, parent id, task, name, start ns, end ns, attrs)
        self.spans: list[tuple] = []
        # layer name -> [calls, self ns]
        self.stats: dict[str, list[int]] = {}
        self.counters: Counter = Counter()

    def stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0])

    def aggregate(self, name: str, fn, on_result=None):
        stat = self.stat(name)
        child_ns = self.child_ns
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child_ns.pop()
                child_ns[-1] += dt
                stat[0] += 1
                stat[1] += dt - inner
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def span(self, name: str, fn, attrs=None, on_result=None):
        """Wrap fn in a span; attrs(*args, **kwargs) returns a dict kept on
        the span, computed outside the timed interval."""
        stat = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call_span(name, stat, fn, args, kwargs,
                                  attrs(*args, **kwargs) if attrs else None,
                                  on_result)

        return wrapper

    def call_span(self, name, stat, fn, args, kwargs, attrs, on_result=None):
        sid = self.next_id
        self.next_id += 1
        parent = self.open_spans[-1]
        self.open_spans.append(sid)
        self.child_ns.append(0)
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            dt = t1 - t0
            inner = self.child_ns.pop()
            self.child_ns[-1] += dt
            self.open_spans.pop()
            stat[0] += 1
            stat[1] += dt - inner
            self.spans.append((sid, parent, self.task, name, t0, t1, attrs))
        if on_result is not None:
            on_result(result)
        return result

    def run_task(self, index: int, label: str, fn):
        """Run one benchmark task as the root span of its own trace."""
        self.task = index
        return self.call_span("task", self.stat("task"), fn, (), {},
                              {"label": label})

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, task, name, t0, t1, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "task": task, "name": name,
                       "start_ns": t0, "end_ns": t1}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def _superw_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "superw" or name.startswith("superw."))]


def _replace(orig, wrapper) -> None:
    """Rebind every reference to orig that superw looks up at call time:
    module globals and the default arguments of module-level functions."""
    found = 0
    for mod in _superw_modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
                found += 1
            elif inspect.isfunction(val) and val.__defaults__ and any(
                    d is orig for d in val.__defaults__):
                val.__defaults__ = tuple(wrapper if d is orig else d
                                         for d in val.__defaults__)
                found += 1
    if not found:
        raise RuntimeError(f"no reference to {orig.__qualname__} to trace")


def _unknowns(m1, m2, *_args, **_kwargs) -> dict:
    b1, b2 = m1.weight_blocks(), m2.weight_blocks()
    return {"unknowns": sum(len(c) * len(b2[k]) for k, c in b1.items() if k in b2)}


def _cells(rows, ncols, *_args, **_kwargs) -> dict:
    return {"cells": sum(1 for r in rows if r) * ncols}


def _closure_prime(m, gen_keys, seeds, p=None, max_steps=None) -> dict:
    return {"exact": not p}


def install() -> Tracer:
    """Trace the imported superw package; returns the tracer."""
    import superw  # noqa: F401  (loads every submodule)
    mods = sys.modules
    tr = Tracer()

    for mod, fname in AGGREGATED:
        orig = getattr(mods[f"superw.{mod}"], fname)
        _replace(orig, tr.aggregate(f"{mod}.{fname}", orig))

    attrs = {"hom_basis": _unknowns, "kernel_basis": _cells,
             "module_closure": _closure_prime}

    def count_method(verdict):
        tr.counters[f"is_simple.{verdict.method}"] += 1

    for mod, fname in SPANNED:
        orig = getattr(mods[f"superw.{mod}"], fname)
        on_result = count_method if fname == "is_simple" else None
        _replace(orig, tr.span(f"{mod}.{fname}", orig, attrs.get(fname), on_result))

    modules_mod = mods["superw.modules"]
    linalg_mod = mods["superw.linalg"]

    def accepted(name):
        def on_result(pivot):
            if pivot is not None:
                tr.counters[name] += 1
        return on_result

    linalg_mod.ModPEchelon.insert = tr.aggregate(
        "linalg.modp_insert", linalg_mod.ModPEchelon.insert,
        accepted("linalg.modp_insert.accepted"))
    linalg_mod.RationalEchelon.insert = tr.aggregate(
        "linalg.rational_insert", linalg_mod.RationalEchelon.insert,
        accepted("linalg.rational_insert.accepted"))

    # every FiniteWModule.column call, and the distinct (module, term, j)
    # keys among them; the key set lives on the module and dies with it
    column = tr.aggregate("modules.column", modules_mod.FiniteWModule.column)

    @functools.wraps(modules_mod.FiniteWModule.column)
    def counted_column(self, term, j):
        seen = self.__dict__.get("_perfbench_seen")
        if seen is None:
            seen = self.__dict__["_perfbench_seen"] = set()
        key = (term, j)
        if key not in seen:
            seen.add(key)
            tr.counters["modules.column.distinct"] += 1
        return column(self, term, j)

    modules_mod.FiniteWModule.column = counted_column

    for mod, fname, layer in COLUMN_BUILDERS:
        orig = getattr(mods[f"superw.{mod}"], fname)
        _replace(orig, _wrap_columns(tr, orig, layer))
    return tr


def _wrap_columns(tr: Tracer, builder, layer: str):
    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        m = builder(*args, **kwargs)
        m._col_fn = tr.aggregate(layer, m._col_fn)
        return m

    return wrapper


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    import superw.induction as induction

    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        return tr.stats.get(name, [0, 0])[0]

    def self_s(name):
        return tr.stats.get(name, [0, 0])[1] / 1e9

    def put(name, value, unit):
        out[name] = (value, unit)

    def calls_and_self(layer, metric=None):
        put(f"{metric or layer}.calls", calls(layer), "count")
        put(f"{metric or layer}.self_s", self_s(layer), "s")

    names = {sid: name for sid, _p, _t, name, *_ in tr.spans}
    under: Counter = Counter()  # (child, parent) -> spans
    closures = Counter()
    unknowns = cells = 0
    for _sid, parent, _task, name, _t0, _t1, attrs in tr.spans:
        under[(name, names.get(parent))] += 1
        if name == "spanops.module_closure":
            closures["exact" if attrs["exact"] else "modp"] += 1
            if attrs["exact"] and names.get(parent) == "modules.submodule_generated":
                closures["fallback"] += 1
        elif name == "spanops.hom_basis":
            unknowns += attrs["unknowns"]
        elif name == "linalg.kernel_basis":
            cells += attrs["cells"]

    calls_and_self("grassmann.merge_sign")
    calls_and_self("walgebra.bracket")
    calls_and_self("partitions.schur_weights")
    calls_and_self("partitions.lr_coefficient")
    calls_and_self("glmodules.decompose_character")
    calls_and_self("glmodules.gl_simple")
    put("induction.column.misses", calls("induction.column"), "count")
    put("induction.column.self_s", self_s("induction.column"), "s")
    put("induction.bracket_cache.size", len(induction._BRACKETS), "count")
    put("tensorfields.column.misses", calls("tensorfields.column"), "count")
    put("tensorfields.column.self_s", self_s("tensorfields.column"), "s")
    put("tensorfields.extract_L_minus.self_s", self_s("tensorfields.extract_L_minus"), "s")
    col_calls = calls("modules.column")
    put("modules.column.calls", col_calls, "count")
    put("modules.column.hit_ratio",
        1.0 - _ratio(tr.counters["modules.column.distinct"], col_calls) if col_calls else 0.0,
        "ratio")
    for method in IS_SIMPLE_METHODS:
        put(f"modules.is_simple.by_method.{method.replace('-', '_')}",
            tr.counters[f"is_simple.{method}"], "count")
    put("modules.submodule_generated.exact_fallbacks", closures["fallback"], "count")
    calls_and_self("spanops.burnside_full")
    put("spanops.module_closure.calls_modp", closures["modp"], "count")
    put("spanops.module_closure.calls_exact", closures["exact"], "count")
    put("spanops.module_closure.self_s", self_s("spanops.module_closure"), "s")
    put("spanops.singular_blocks.blocks_tested",
        under[("linalg.rank_mod_p", "spanops.singular_blocks")], "count")
    put("spanops.singular_blocks.blocks_exact",
        under[("linalg.kernel_basis", "spanops.singular_blocks")], "count")
    put("spanops.singular_blocks.self_s", self_s("spanops.singular_blocks"), "s")
    put("spanops.hom_basis.calls", calls("spanops.hom_basis"), "count")
    put("spanops.hom_basis.unknowns", unknowns, "count")
    put("spanops.hom_basis.self_s", self_s("spanops.hom_basis"), "s")
    for kind in ("modp", "rational"):
        layer = f"linalg.{kind}_insert"
        put(f"{layer}.calls", calls(layer), "count")
        put(f"{layer}.accept_ratio",
            _ratio(tr.counters[f"{layer}.accepted"], calls(layer)), "ratio")
        put(f"{layer}.self_s", self_s(layer), "s")
    put("linalg.kernel_basis.calls", calls("linalg.kernel_basis"), "count")
    put("linalg.kernel_basis.cells", cells, "count")
    put("linalg.kernel_basis.self_s", self_s("linalg.kernel_basis"), "s")
    calls_and_self("linalg.rank_mod_p")
    put("stability.restricted_character.self_s", self_s("stability.restricted_character"), "s")
    return out
