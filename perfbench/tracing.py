"""Per-layer tracing of bichroma from outside its source.

A layer is a module of the package.  Each public function is wrapped
where it is called: the name is rebound in the module that calls it,
because enumeration and invariance import engine and roots functions by
name, so rebinding the defining module alone would miss those calls.
Calls the workload makes itself go through wrapped copies as well.

Every call adds its self time (its time minus the time of the traced
calls it makes) to its layer.  Each request of the workload is a span of
the "client" layer, the root of the spans of that request.  Spans, (id,
parent id, name, start, end), are kept in memory and written out when
the run ends: all spans down to KEEP_DEPTH (the requests and the calls
they make), and deeper ones down to SPAN_DEPTH while fewer than
MAX_SPANS are kept.
"""

import gc
import inspect
import json
import time
from collections import defaultdict

MAX_SPANS = 100_000
KEEP_DEPTH = 2
SPAN_DEPTH = 3

# calling module -> (layer, function) pairs it imports by name
CALL_SITES = {
    "engine": [("graphs", "shadow"), ("graphs", "bichromatic_pairs"),
               ("graphs", "census"), ("graphs", "add_flexible"),
               ("graphs", "identify"), ("polynomial", "interpolate"),
               ("engine", "count_colourings")],
    "enumeration": [("engine", "poly_recursive"), ("engine", "poly_partition"),
                    ("engine", "poly_interpolated"),
                    ("engine", "classical_chromatic"),
                    ("engine", "audit_coefficients"), ("roots", "find_roots"),
                    ("invariance", "is_invariant_structural"),
                    ("invariance", "independent_pair_witness"),
                    ("graphs", "shadow"), ("enumeration", "connected_graphs"),
                    ("enumeration", "colourings_of")],
    "invariance": [("engine", "classical_chromatic"), ("engine", "poly_partition"),
                   ("graphs", "shadow")],
}

ENGINE_ENTRIES = ("poly_recursive", "poly_partition", "poly_interpolated",
                  "count_colourings", "classical_chromatic", "audit_coefficients")


class Tracer:
    """Call counts, self times and spans of one traced phase."""

    def __init__(self):
        self.stack = []  # open frames: [layer, child seconds, span id]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)      # "layer.function" -> calls
        self.entries = defaultdict(int)    # "layer.function" -> calls from another layer
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.gc_s = 0.0
        self._gc_start = None
        self.root_coeffs = set()
        self.root_max_degree = 0
        self.root_worst_residual = 0.0
        self.records = 0
        self.csv_bytes = 0
        self._patched = []

    # -- spans -------------------------------------------------------------
    def _count(self, layer, name):
        caller = self.stack[-1][0] if self.stack else "client"
        self.calls[name] += 1
        if caller != layer:
            self.entries[name] += 1

    def _open(self, layer, name):
        self.next_id += 1
        frame = [layer, 0.0, self.next_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame, name, start, end):
        self.stack.pop()
        duration = end - start
        self.self_s[frame[0]] += duration - frame[1]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += duration
        depth = len(self.stack) + 1
        if depth <= KEEP_DEPTH or (depth <= SPAN_DEPTH and len(self.spans) < MAX_SPANS):
            self.spans.append((frame[2], parent[2] if parent else 0,
                               name, start, end))
        elif depth <= SPAN_DEPTH:
            self.dropped += 1

    def wrap(self, layer, fname, fn):
        """fn with every call recorded as a span of the given layer."""
        name = layer + "." + fname
        after = getattr(self, "_after_" + fname, None)
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                self._count(layer, name)
                return self._iterate(layer, name, fn(*args, **kwargs))
            return traced_gen

        def traced(*args, **kwargs):
            self._count(layer, name)
            frame = self._open(layer, name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name, start, clock())
            if after is not None:
                after(args, result)
            return result
        return traced

    def _iterate(self, layer, name, gen):
        # each resumption of the generator is one span of its layer
        clock = time.perf_counter
        while True:
            frame = self._open(layer, name)
            start = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(frame, name, start, clock())
            yield item

    # -- values read off results -----------------------------------------
    def _after_find_roots(self, args, rootset):
        poly = args[0]
        self.root_coeffs.add(tuple(poly.coeffs))
        self.root_max_degree = max(self.root_max_degree, poly.degree)
        residuals = [r[1] for r in rootset.real_roots]
        residuals += [r[2] for r in rootset.complex_roots]
        if residuals:
            self.root_worst_residual = max(self.root_worst_residual, max(residuals))

    def _after_root_cloud(self, args, records):
        self.records += len(records)

    def _after_records_to_csv(self, args, text):
        self.csv_bytes += len(text.encode())

    # -- patching ------------------------------------------------------------
    def install(self, modules):
        """Rebind every call site named in CALL_SITES; modules maps a
        module name to the imported module."""
        for caller, targets in CALL_SITES.items():
            module = modules[caller]
            for layer, fname in targets:
                fn = getattr(module, fname, None)
                if fn is not None:
                    self._patched.append((module, fname, fn))
                    setattr(module, fname, self.wrap(layer, fname, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for module, fname, fn in reversed(self._patched):
            setattr(module, fname, fn)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            self.gc_s += now - self._gc_start
            self._gc_start = None

    # -- report --------------------------------------------------------------
    def count(self, layer, fnames, external=False):
        table = self.entries if external else self.calls
        return sum(table[layer + "." + f] for f in fnames)

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.entries.items() if k.startswith(prefix))

    def metrics(self, cpu_s, overhead):
        """The per-layer metrics, by name: (value, unit)."""
        root_calls = self.calls["roots.find_roots"]
        return {
            "engine.self_s": (self.self_s["engine"], "s"),
            "engine.calls": (self.count("engine", ENGINE_ENTRIES, external=True), "count"),
            "engine.recurrence_nodes": (self.count("graphs", ("add_flexible", "identify")), "count"),
            "engine.count_colourings_calls": (self.calls["engine.count_colourings"], "count"),
            "polynomial.self_s": (self.self_s["polynomial"], "s"),
            "polynomial.interpolate_calls": (self.calls["polynomial.interpolate"], "count"),
            "graphs.self_s": (self.self_s["graphs"], "s"),
            "graphs.census_calls": (self.calls["graphs.census"], "count"),
            "roots.self_s": (self.self_s["roots"], "s"),
            "roots.calls": (root_calls, "count"),
            "roots.max_degree": (self.root_max_degree, "count"),
            "roots.worst_residual": (self.root_worst_residual, "abs"),
            "roots.distinct_ratio": (len(self.root_coeffs) / root_calls if root_calls else 0.0, "ratio"),
            "enumeration.self_s": (self.self_s["enumeration"], "s"),
            "enumeration.records": (self.records, "count"),
            "enumeration.csv_bytes": (self.csv_bytes, "B"),
            "invariance.self_s": (self.self_s["invariance"], "s"),
            "invariance.calls": (self.layer_calls("invariance"), "count"),
            "process.cpu_s": (cpu_s, "s"),
            "process.gc_s": (self.gc_s, "s"),
            "trace.overhead": (overhead, "ratio"),
        }

    def write_spans(self, path, meta):
        with open(path, "w") as fh:
            json.dump(dict(meta, dropped=self.dropped,
                           fields=["id", "parent", "name", "start", "end"],
                           spans=self.spans), fh)
