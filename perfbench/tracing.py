"""Per-layer tracing, recorded from the benchmark's side of each call.

The layers are the package's modules.  `Tracer.install` replaces public
functions of `gradedorders` and of its submodules with timing wrappers.  It
must run before `gradedorders.cli` is imported, so that the CLI binds the
wrapped names as well.  Order builders are wrapped so that the relation they
return times its `apply`; orders that the order modules compose internally
(the tie-break inside a graded order, the reference orders inside
`matrix_for`) are left bare and count towards the outer call.

Every wrapped call pushes a frame; a layer's self time is its frames' time
minus the time of the frames nested in them.  Hot calls (order `apply`,
each enumerated entry) are only aggregated; the rest are also kept as spans
and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

LAYERS = ("cli", "multi_index", "families", "graded", "weighted", "poly", "relations")
SCHEMES = ("lex", "colex", "symlex")
FAMILY_ORDERS = ("lex", "colex", "symlex", "revlex")
GRADED_ORDERS = ("grlex", "grcolex", "grsymlex", "grevlex")

# Callers whose order builds are composition inside the program.
_COMPOSING = {"gradedorders.families", "gradedorders.graded", "gradedorders.weighted"}

# (module, public function, terms handled by a call) wrapped as spans; the
# module is the layer.
_SPANNED = (
    ("poly", "parse_poly", lambda args, result: len(result.terms)),
    ("poly", "leading_term", lambda args, result: len(args[0].terms)),
    ("poly", "monomial_mul", None),
    ("poly", "format_poly", lambda args, result: len(args[0])),
    ("weighted", "load_matrix", None),
    ("weighted", "matrix_for", None),
    ("weighted", "find_incomparable", None),
    ("graded", "is_monomial_order", None),
    ("relations", "carrier_range", None),
)


class Tracer:
    """Frames, counters and spans of one traced run."""

    def __init__(self):
        self.stack = [["root", 0, None]]
        self.stats = defaultdict(lambda: [0, 0])  # (layer, name) -> [calls, ns]
        self.self_ns = defaultdict(int)
        self.spans = []
        self.counts = defaultdict(int)
        self.request = None
        self.first_line_ns = []

    def reset(self) -> None:
        """Forget what was recorded so far (the warm-up); wrappers keep
        their counters, which are zeroed in place."""
        for stat in self.stats.values():
            stat[0] = stat[1] = 0
        self.self_ns.clear()
        self.spans.clear()
        self.counts.clear()
        self.first_line_ns.clear()

    # -- frames ---------------------------------------------------------

    def _call(self, layer, name, fn, args, kwargs, keep):
        frame = [layer, 0, len(self.spans) if keep else None]
        stack = self.stack
        if keep:
            self.spans.append(None)
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter_ns() - start
            stack.pop()
            stack[-1][1] += took
            self.self_ns[layer] += took - frame[1]
            stat = self.stats[(layer, name)]
            stat[0] += 1
            stat[1] += took
            if keep:
                self.spans[frame[2]] = (self.request, stack[-1][2], layer, name, start, took)

    def span(self, layer, name, fn, *args, **kwargs):
        return self._call(layer, name, fn, args, kwargs, True)

    def exclude(self, ns: int) -> None:
        """Time spent in the benchmark's own checker inside the open frame."""
        self.stack[-1][1] += ns

    def _spanned(self, layer, name, fn, terms=None):
        def wrapper(*args, **kwargs):
            result = self._call(layer, name, fn, args, kwargs, True)
            if terms is not None:
                self.counts[name + "_terms"] += terms(args, result)
            return result

        return wrapper

    def _hot(self, layer, name, fn):
        stats = self.stats[(layer, name)]
        self_ns = self.self_ns
        stack = self.stack

        def wrapper(*args):
            frame = [layer, 0, None]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                took = perf_counter_ns() - start
                stack.pop()
                stack[-1][1] += took
                self_ns[layer] += took - frame[1]
                stats[0] += 1
                stats[1] += took

        return wrapper

    def _order_builder(self, layer, order_name, build):
        def wrapper(*args, **kwargs):
            relation = build(*args, **kwargs)
            if sys._getframe(1).f_globals.get("__name__") in _COMPOSING:
                return relation
            return dataclasses.replace(relation, apply=self._hot(layer, "apply." + order_name, relation.apply))

        return wrapper

    def _entries(self, fn):
        tracer = self

        def wrapper(d, k, scheme="symlex"):
            stats = tracer.stats[("multi_index", "entries." + scheme)]
            stack = tracer.stack
            it = fn(d, k, scheme)
            while True:
                frame = ["multi_index", 0, None]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    entry = next(it)
                except StopIteration:
                    return
                finally:
                    took = perf_counter_ns() - start
                    stack.pop()
                    stack[-1][1] += took
                    tracer.self_ns["multi_index"] += took - frame[1]
                    stats[1] += took
                stats[0] += 1
                yield entry

        return wrapper

    def _witness(self, fn):
        tracer = self

        def counted(apply):
            def call(x, y):
                tracer.counts["relation_calls"] += 1
                return apply(x, y)

            return call

        def wrapper(name, r, c):
            before = tracer.counts["relation_calls"]
            result = tracer._call("relations", "property_witness", fn,
                                  (name, dataclasses.replace(r, apply=counted(r.apply)), c), {}, True)
            tracer.counts["witness_calls"] += tracer.counts["relation_calls"] - before
            tracer.counts["checks"] += 1
            return result

        return wrapper

    def _sorter(self, fn):
        tracer = self

        def wrapper(p, order):
            before = tracer.order_calls()
            result = tracer._call("poly", "sort_terms", fn, (p, order), {}, True)
            tracer.counts["sort_compares"] += tracer.order_calls() - before
            tracer.counts["sorted_terms"] += len(p.terms)
            return result

        return wrapper

    def order_calls(self) -> int:
        return sum(calls for (layer, name), (calls, _) in self.stats.items() if name.startswith("apply"))

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public names of `package` (gradedorders) in place."""
        if "gradedorders.cli" in sys.modules:
            raise RuntimeError("install the tracer before gradedorders.cli is imported")
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS[1:]}

        def put(module, name, wrapper):
            original = getattr(modules[module], name)
            setattr(modules[module], name, wrapper)
            if getattr(package, name, None) is original:
                setattr(package, name, wrapper)

        for module, name, terms in _SPANNED:
            put(module, name, self._spanned(module, name, getattr(modules[module], name), terms))
        put("poly", "sort_terms", self._sorter(modules["poly"].sort_terms))
        for name in FAMILY_ORDERS:
            put("families", name, self._order_builder("families", name, getattr(modules["families"], name)))
        for name in GRADED_ORDERS:
            put("graded", name, self._order_builder("graded", name, getattr(modules["graded"], name)))
        weighted_relation = modules["weighted"].weighted_relation

        def traced_weighted_relation(*args, **kwargs):
            relation = weighted_relation(*args, **kwargs)
            return dataclasses.replace(relation, apply=self._hot("weighted", "apply", relation.apply))

        put("weighted", "weighted_relation", traced_weighted_relation)
        put("multi_index", "iter_multi_index_set", self._entries(modules["multi_index"].iter_multi_index_set))
        put("relations", "property_witness", self._witness(modules["relations"].property_witness))
        package.Carrier = self._spanned("relations", "Carrier", package.Carrier)

    # -- results --------------------------------------------------------

    def metrics(self, cli_requests: int, overhead_pct: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}; 0 where a layer did
        not run."""
        counts = self.counts

        def per(num, den, scale=1.0):
            return num / den / scale if den else 0.0

        def total(layer, name):
            return self.stats.get((layer, name), (0, 0))

        def per_call(layer, name, scale):
            calls, ns = total(layer, name)
            return per(ns, calls, scale)

        m = {}
        for scheme in SCHEMES:
            m[f"multi_index.ns_per_entry.{scheme}"] = (per_call("multi_index", "entries." + scheme, 1), "ns")
        m["multi_index.entries"] = (sum(total("multi_index", "entries." + s)[0] for s in SCHEMES), "count")
        m["cli.self_ms"] = (per(self.self_ns["cli"], cli_requests, 1e6), "ms")
        m["cli.first_line_ms"] = (median(self.first_line_ns) / 1e6 if self.first_line_ns else 0.0, "ms")
        for name in FAMILY_ORDERS:
            m[f"families.apply_ns.{name}"] = (per_call("families", "apply." + name, 1), "ns")
        for name in GRADED_ORDERS:
            m[f"graded.apply_ns.{name}"] = (per_call("graded", "apply." + name, 1), "ns")
        m["graded.monomial_check_ms"] = (per_call("graded", "is_monomial_order", 1e6), "ms")
        m["weighted.apply_ns"] = (per_call("weighted", "apply", 1), "ns")
        m["weighted.load_us"] = (per_call("weighted", "load_matrix", 1e3), "us")
        m["weighted.find_incomparable_ms"] = (per_call("weighted", "find_incomparable", 1e6), "ms")
        m["poly.compares_per_term"] = (per(counts["sort_compares"], counts["sorted_terms"]), "count")
        m["poly.sort_us_per_term"] = (per(total("poly", "sort_terms")[1], counts["sorted_terms"], 1e3), "us")
        for name, stat in (("parse", "parse_poly"), ("leading_term", "leading_term"), ("format", "format_poly")):
            m[f"poly.{name}_us_per_term"] = (per(total("poly", stat)[1], counts[stat + "_terms"], 1e3), "us")
        m["relations.calls_per_check"] = (per(counts["witness_calls"], counts["checks"]), "count")
        m["relations.ns_per_call"] = (per(total("relations", "property_witness")[1], counts["witness_calls"]), "ns")
        m["relations.carrier_build_ms"] = (per_call("relations", "carrier_range", 1e6), "ms")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_ns[layer] / 1e9, "s")
        m["trace.overhead_pct"] = (overhead_pct, "%")
        return m

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, (request, parent, layer, name, start, took) in enumerate(self.spans):
                out.write(json.dumps({"id": span_id, "request": request, "parent": parent, "layer": layer,
                                      "name": name, "start_ns": start, "ns": took}) + "\n")
