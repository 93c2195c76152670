"""Spans around the public functions of each quiverinv layer, from outside.

install() replaces each traced function, in every quiverinv.* namespace
that binds it, with a wrapper that records a span (name, start, end,
parent) in memory.  CacheStore.get and put are wrapped on the class.  No
file of the package changes.  A traced function that does not exist is
skipped, so its metrics are absent rather than the run failing.  The
metrics of a layer that the workload never calls read 0.

Self time is a span's duration minus the durations of its direct
children.  aggregate() folds the spans of one process into sums that can
be added across processes (merge) and turned into the per-layer metrics
(layer_metrics), and tell how much of the time the layers' spans explain
(covered_s).  quiver and stability are not traced: their time lands
in their callers.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict


def _count_nonzero(tr, args, kwargs, result):
    if result:
        tr.counters["u_coeff.nonzero"] += 1


def _count_brackets(tr, args, kwargs, result):
    tr.counters["lie_normalize.words"] += len(args[0])
    tr.counters["lie_normalize.brackets"] += len(result)


def _count_basis(tr, args, kwargs, result):
    tr.counters["basis_dim_max"] = max(tr.counters["basis_dim_max"], len(result))


def _count_support(tr, args, kwargs, result):
    # share of the target-weight monomial basis the output is supported on
    j = args[1] if len(args) > 1 else kwargs["j"]
    if j <= 0 or result.degree < 0 or tr.basis_fn is None:
        return
    tr.counters["divided_translation.support"] += len(result.functional)
    tr.counters["divided_translation.basis"] += len(tr.basis_fn(result.ring, result.degree // 2))


def _count_cache_get(tr, args, kwargs, result):
    tr.counters["cache_get.misses" if result is None else "cache_get.hits"] += 1


def _count_cache_put(tr, args, kwargs, result):
    store = args[0]
    path_fn = getattr(store, "_path", None)
    if path_fn is not None:
        tr.counters["cache_put.bytes"] += os.path.getsize(path_fn(*args[1:4]))


# span name -> (module, attribute or Class.method, observer run after the call)
TRACED = {
    "wallcoeff.u_coeff": ("quiverinv.wallcoeff", "u_coeff", _count_nonzero),
    "wallcoeff.s_coeff": ("quiverinv.wallcoeff", "s_coeff", None),
    "wallcoeff.lie_normalize": ("quiverinv.wallcoeff", "lie_normalize", _count_brackets),
    "charclass.chern_kclass": ("quiverinv.charclass", "chern_kclass", None),
    "charclass.direct_sum_pullback": ("quiverinv.charclass", "direct_sum_pullback", None),
    "charclass.merge_pullback": ("quiverinv.charclass", "merge_pullback", None),
    "charclass.correction_top_class": ("quiverinv.charclass", "correction_top_class", None),
    "charclass.monomial_basis": ("quiverinv.charclass", "monomial_basis", _count_basis),
    "vertexalg.lie_bracket": ("quiverinv.vertexalg", "lie_bracket", None),
    "vertexalg.state_field": ("quiverinv.vertexalg", "state_field", None),
    "vertexalg.kunneth": ("quiverinv.vertexalg", "kunneth", None),
    "vertexalg.cap": ("quiverinv.vertexalg", "cap", None),
    "vertexalg.divided_translation": ("quiverinv.vertexalg", "divided_translation", _count_support),
    "vertexalg.direct_sum_pushforward": ("quiverinv.vertexalg", "direct_sum_pushforward", None),
    "vertexalg.merge_pushforward": ("quiverinv.vertexalg", "merge_pushforward", None),
    "vertexalg.pl_equal": ("quiverinv.vertexalg", "pl_equal", None),
    "vertexalg.pl_is_zero": ("quiverinv.vertexalg", "pl_is_zero", None),
    "vertexalg.is_translation_image": ("quiverinv.vertexalg", "is_translation_image", None),
    "vertexalg.canonical_coordinates": ("quiverinv.vertexalg", "canonical_coordinates", None),
    "vertexalg.weight_zero_basis": ("quiverinv.vertexalg", "weight_zero_basis", None),
    "invariants.invariant": ("quiverinv.invariants", "invariant", None),
    "invariants.build_invariant_table": ("quiverinv.invariants", "build_invariant_table", None),
    "invariants.wallcross_transform": ("quiverinv.invariants", "wallcross_transform", None),
    "invariants.check_wallcross": ("quiverinv.invariants", "check_wallcross", None),
    "invariants.induced_pl_map": ("quiverinv.invariants", "induced_pl_map", None),
    "invariants.check_morphism_identity": ("quiverinv.invariants", "check_morphism_identity", None),
    "invariants.pair_invariant_report": ("quiverinv.invariants", "pair_invariant_report", None),
    "invariants.pl_class_json": ("quiverinv.invariants", "pl_class_json", None),
    "invariants.cache_get": ("quiverinv.invariants", "CacheStore.get", _count_cache_get),
    "invariants.cache_put": ("quiverinv.invariants", "CacheStore.put", _count_cache_put),
    "cli.main": ("quiverinv.cli", "main", None),
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.installed: list[str] = []
        self.basis_fn = None

    def wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def aggregate(self, import_s: float | None = None) -> dict:
        """Per-name self time and calls, counters, and the import time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return {
            "installed": sorted(self.installed),
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "import_s": [] if import_s is None else [import_s],
        }


def install() -> Tracer:
    """Wrap every traced function that exists in the imported package."""
    importlib.import_module("quiverinv")
    importlib.import_module("quiverinv.cli")
    modules = [m for n, m in sys.modules.items() if n == "quiverinv" or n.startswith("quiverinv.")]
    tr = Tracer()
    charclass = sys.modules.get("quiverinv.charclass")
    tr.basis_fn = getattr(charclass, "monomial_basis", None)
    for name, (modname, attr, observe) in TRACED.items():
        owner = sys.modules.get(modname)
        if "." in attr:
            owner_name, attr = attr.split(".")
            owner = getattr(owner, owner_name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            continue
        wrapper = tr.wrap(name, fn, observe)
        setattr(owner, attr, wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
        tr.installed.append(name)
    return tr


_MAX_COUNTERS = {"basis_dim_max"}


def merge(aggs: list[dict]) -> dict:
    """Add the aggregates of several processes of one repetition."""
    out = {"installed": set(), "self_s": defaultdict(float), "calls": defaultdict(int),
           "counters": defaultdict(int), "import_s": []}
    for agg in aggs:
        out["installed"].update(agg["installed"])
        for key, value in agg["self_s"].items():
            out["self_s"][key] += value
        for key, value in agg["calls"].items():
            out["calls"][key] += value
        for key, value in agg["counters"].items():
            if key in _MAX_COUNTERS:
                out["counters"][key] = max(out["counters"][key], value)
            else:
                out["counters"][key] += value
        out["import_s"] += agg["import_s"]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# metric -> (unit, spans it needs, value from the merged aggregate)
LAYER_METRICS = {
    "wallcoeff.u_coeff.self_s": ("s", ["wallcoeff.u_coeff"], lambda a: a["self_s"]["wallcoeff.u_coeff"]),
    "wallcoeff.u_coeff.calls": ("count", ["wallcoeff.u_coeff"], lambda a: a["calls"]["wallcoeff.u_coeff"]),
    "wallcoeff.u_coeff.nonzero_ratio": (
        "ratio", ["wallcoeff.u_coeff"],
        lambda a: _ratio(a["counters"]["u_coeff.nonzero"], a["calls"]["wallcoeff.u_coeff"])),
    "wallcoeff.s_coeff.calls": ("count", ["wallcoeff.s_coeff"], lambda a: a["calls"]["wallcoeff.s_coeff"]),
    "wallcoeff.lie_normalize.self_s": (
        "s", ["wallcoeff.lie_normalize"], lambda a: a["self_s"]["wallcoeff.lie_normalize"]),
    "wallcoeff.lie_normalize.brackets_per_word": (
        "ratio", ["wallcoeff.lie_normalize"],
        lambda a: _ratio(a["counters"]["lie_normalize.brackets"], a["counters"]["lie_normalize.words"])),
    "charclass.chern_kclass.self_s": (
        "s", ["charclass.chern_kclass"], lambda a: a["self_s"]["charclass.chern_kclass"]),
    "charclass.direct_sum_pullback.self_s": (
        "s", ["charclass.direct_sum_pullback"], lambda a: a["self_s"]["charclass.direct_sum_pullback"]),
    "charclass.direct_sum_pullback.calls": (
        "count", ["charclass.direct_sum_pullback"], lambda a: a["calls"]["charclass.direct_sum_pullback"]),
    "charclass.monomial_basis.calls": (
        "count", ["charclass.monomial_basis"], lambda a: a["calls"]["charclass.monomial_basis"]),
    "vertexalg.lie_bracket.calls": (
        "count", ["vertexalg.lie_bracket"], lambda a: a["calls"]["vertexalg.lie_bracket"]),
    **{
        f"vertexalg.{fn}.self_s": ("s", [f"vertexalg.{fn}"], lambda a, fn=fn: a["self_s"][f"vertexalg.{fn}"])
        for fn in ("state_field", "kunneth", "cap", "direct_sum_pushforward", "merge_pushforward",
                   "divided_translation")
    },
    "vertexalg.divided_translation.calls": (
        "count", ["vertexalg.divided_translation"], lambda a: a["calls"]["vertexalg.divided_translation"]),
    "vertexalg.divided_translation.support_ratio": (
        "ratio", ["vertexalg.divided_translation", "charclass.monomial_basis"],
        lambda a: _ratio(a["counters"]["divided_translation.support"],
                         a["counters"]["divided_translation.basis"])),
    "vertexalg.basis_dim_max": (
        "count", ["charclass.monomial_basis"], lambda a: a["counters"]["basis_dim_max"]),
    "vertexalg.zero_test.self_s": (
        "s", ["vertexalg.pl_equal", "vertexalg.pl_is_zero", "vertexalg.is_translation_image"],
        lambda a: a["self_s"]["vertexalg.pl_equal"] + a["self_s"]["vertexalg.pl_is_zero"]
        + a["self_s"]["vertexalg.is_translation_image"]),
    "vertexalg.pl_equal.calls": ("count", ["vertexalg.pl_equal"], lambda a: a["calls"]["vertexalg.pl_equal"]),
    "vertexalg.canonical.self_s": (
        "s", ["vertexalg.canonical_coordinates", "vertexalg.weight_zero_basis"],
        lambda a: a["self_s"]["vertexalg.canonical_coordinates"]
        + a["self_s"]["vertexalg.weight_zero_basis"]),
    "vertexalg.weight_zero_basis.calls": (
        "count", ["vertexalg.weight_zero_basis"], lambda a: a["calls"]["vertexalg.weight_zero_basis"]),
    "invariants.invariant.calls": (
        "count", ["invariants.invariant"], lambda a: a["calls"]["invariants.invariant"]),
    **{
        f"invariants.{fn}.self_s": (
            "s", [f"invariants.{fn}"], lambda a, fn=fn: a["self_s"][f"invariants.{fn}"])
        for fn in ("wallcross_transform", "induced_pl_map", "pl_class_json", "cache_get", "cache_put")
    },
    "invariants.cache_get.hits": (
        "count", ["invariants.cache_get"], lambda a: a["counters"]["cache_get.hits"]),
    "invariants.cache_get.misses": (
        "count", ["invariants.cache_get"], lambda a: a["counters"]["cache_get.misses"]),
    "invariants.cache_put.bytes": (
        "bytes", ["invariants.cache_put"], lambda a: a["counters"]["cache_put.bytes"]),
    # the CLI figures need a traced CLI process, which always runs cli.main
    "cli.import_s": ("s", ["cli.main"], lambda a: statistics.median(a["import_s"] or [0.0])),
    "cli.main.self_s": ("s", ["cli.main"], lambda a: a["self_s"]["cli.main"]),
    "cli.processes": ("count", ["cli.main"], lambda a: a["counters"]["cli.processes"]),
    "cli.stdout_bytes": ("bytes", ["cli.main"], lambda a: a["counters"]["cli.stdout_bytes"]),
}

# Entry points hold the self time of whatever runs unwrapped below them, so
# their spans do not count as explained by a layer.
ENTRY_POINTS = {"invariants.check_wallcross", "invariants.check_morphism_identity",
                "invariants.pair_invariant_report", "invariants.build_invariant_table", "cli.main"}
COVERED = set(TRACED) - ENTRY_POINTS


def layer_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one merged aggregate.  A metric is absent when a
    span it needs is not installed; it reads 0 when none of its spans ran."""
    agg = {key: defaultdict(int, value) if isinstance(value, dict) else value for key, value in agg.items()}
    out = {}
    for metric, (unit, needs, value) in LAYER_METRICS.items():
        if all(name in agg["installed"] for name in needs):
            out[metric] = (value(agg), unit)
    return out


def covered_s(agg: dict) -> float:
    """Self time of the wrapped layer functions, entry points left out, plus
    the timed CLI imports."""
    return sum(agg["self_s"].get(name, 0.0) for name in COVERED) + sum(agg["import_s"])
