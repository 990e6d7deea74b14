"""Spans and counts around qflag's layers, recorded from outside the package.

``Tracer.install`` wraps every public function of the seven modules
(root_system, weyl, quantum, degrees, compare, cache, cli) and every public
method of the classes they define, plus ``WeylElement.__mul__``.  It rebinds
each wrapped function in every module namespace that holds it, so calls
between and within modules are caught.  The program's own code is not
touched.

A span is (name, start, end, parent), timed by the clock the tracer is
given (the worker's stops while its speed probe runs).  Spans stay in
memory until ``summary`` turns them into per-layer self times (span time
minus the time of child spans) and the counts below.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array

LAYERS = ("root_system", "weyl", "quantum", "degrees", "compare", "cache", "cli")

# per-layer call counts: metric name -> wrapped names it adds up
CALL_COUNTS = {
    "root_system.build_calls": ("build_root_system",),
    "root_system.pairing_calls": ("RootSystem.pairing", "pairing"),
    "root_system.highest_root_calls": ("RootSystem.highest_root_in",),
    "weyl.enumerate_calls": ("enumerate_min_reps", "enumerate_subgroup"),
    "weyl.min_coset_rep_calls": ("min_coset_rep",),
    "weyl.longest_element_calls": ("longest_element",),
    "weyl.mul_calls": ("WeylElement.__mul__",),
    "quantum.product_calls": ("quantum_product",),
    "quantum.chevalley_calls": ("chevalley_multiply",),
    "quantum.gw_calls": ("gw_invariant",),
    "degrees.lift_calls": ("peterson_lift",),
    "degrees.alcove_spec_calls": ("AlcoveSpec.for_parabolic",),
    "degrees.derived_parabolic_calls": ("derived_parabolic",),
    "compare.comparison_data_calls": ("comparison_data",),
    "compare.parabolic_product_calls": ("parabolic_quantum_product",),
    "compare.parabolic_gw_calls": ("parabolic_gw_invariant",),
    "cli.commands": ("main",),
}

# inclusive span times: metric name -> wrapped name
SPAN_TIMES = {
    "degrees.lift_s": "peterson_lift",
    "compare.parabolic_product_s": "parabolic_quantum_product",
    "cache.load_s": "load_document",
    "cache.store_s": "store_document",
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.names = []  # name id -> (layer, wrapped name)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.values = {
            "quantum.product_distinct": 0,
            "quantum.gw_nonzero": 0,
            "degrees.lift_distinct": 0,
            "cache.bytes_read": 0,
            "cache.bytes_written": 0,
            "cache.hits": 0,
            "cli.stdout_bytes": 0,
        }
        self._products = set()
        self._lifts = set()

    # -- observers at wrapped boundaries ------------------------------------

    def _observe_product(self, args, result):
        self._products.add((args[1], args[2]))

    def _observe_gw(self, args, result):
        self.values["quantum.gw_nonzero"] += result != 0

    def _observe_lift(self, args, result):
        self._lifts.add((args[1], tuple(args[2])))

    def _observe_load(self, args, result):
        if os.path.exists(args[0]):
            self.values["cache.bytes_read"] += os.path.getsize(args[0])
        self.values["cache.hits"] += result[0] is not None

    def _observe_store(self, args, result):
        self.values["cache.bytes_written"] += os.path.getsize(args[0])

    def end_command(self, stdout_bytes):
        """Close one CLI command: distinct keys are counted per command,
        since each command is its own process for a user."""
        self.values["quantum.product_distinct"] += len(self._products)
        self.values["degrees.lift_distinct"] += len(self._lifts)
        self.values["cli.stdout_bytes"] += stdout_bytes
        self._products.clear()
        self._lifts.clear()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, layer, name, fn, observe=None):
        nid = len(self.names)
        self.names.append((layer, name))
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self):
        observers = {
            "quantum_product": self._observe_product,
            "gw_invariant": self._observe_gw,
            "peterson_lift": self._observe_lift,
            "load_document": self._observe_load,
            "store_document": self._observe_store,
        }
        package = importlib.import_module("qflag")
        modules = [importlib.import_module(f"qflag.{layer}") for layer in LAYERS]
        replaced = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(layer, name, obj, observers.get(name))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for namespace in [package, *modules]:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(namespace, name, replaced[obj])

    def _wrap_methods(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__mul__":
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                setattr(cls, attr, type(val)(self.wrap(layer, name, val.__func__)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self.wrap(layer, name, val))

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per-layer self times, call counts, inclusive times and ratios."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            dur = ends[i] - starts[i]
            self_s[self.names[nid][0]] += dur - child[i]
            calls[nid] += 1
            inclusive[nid] += dur
        by_name = {}
        for nid, (_, name) in enumerate(self.names):
            got = by_name.setdefault(name, [0, 0.0])
            got[0] += calls[nid]
            got[1] += inclusive[nid]

        def count(name):
            return by_name.get(name, [0, 0.0])[0]

        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(count(name) for name in names)
        for metric, name in SPAN_TIMES.items():
            out[metric] = by_name.get(name, [0, 0.0])[1]
        v = self.values

        def ratio(num, den):
            return num / den if den else 0.0

        out["quantum.product_distinct_ratio"] = ratio(
            v["quantum.product_distinct"], out["quantum.product_calls"]
        )
        out["quantum.gw_nonzero_ratio"] = ratio(v["quantum.gw_nonzero"], out["quantum.gw_calls"])
        out["degrees.lift_distinct_ratio"] = ratio(v["degrees.lift_distinct"], out["degrees.lift_calls"])
        out["cache.bytes_read"] = v["cache.bytes_read"]
        out["cache.bytes_written"] = v["cache.bytes_written"]
        out["cache.hit_ratio"] = ratio(v["cache.hits"], count("load_document"))
        out["cli.stdout_bytes"] = v["cli.stdout_bytes"]
        return out
