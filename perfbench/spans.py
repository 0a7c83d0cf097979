"""Span recording for the traced run, installed on ``sympbw`` from outside.

``Tracer.install`` wraps the layer functions listed in ``TRACED`` and the
``IncrementalBasis`` methods in ``BASIS_METHODS``.  Each wrapper replaces the
original under every name a ``sympbw`` module binds it to (``oracle`` imports
``enumerate_points`` by name, ``grmod`` reaches ``polytope.contains`` through
the module), so callers find the wrapper wherever they look.

A span is one call: its name, its job, its parent span, its start and its end.
Spans live in flat arrays until the pass ends and are then written out.  The
self time of a span is its duration minus the durations of its children; the
program is single-threaded, so children never overlap.

The per-element helpers of ``rootsys``, ``polytope.weight_of``,
``grmod.order_key`` and the sparse-vector helpers of ``linalg`` are left
unwrapped: they run millions of times per pass and cost less than a span, so
their time counts as self time of the layer function that called them.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

TRACED = {
    "rootsys": ("chevalley_realization",),
    "dyck": ("enumerate_paths",),
    "polytope": ("inequalities", "contains", "enumerate_points", "character",
                 "graded_character", "weyl_dim", "freudenthal_multiplicities",
                 "max_point_degree"),
    "decomp": ("fundamental_points", "fundamental_count", "minimal_marker",
               "peel", "peel_completely", "binomial_identity_check"),
    "grmod": ("base_relations", "ideal_generators", "quotient_graded_dims",
              "minimal_violations", "straightening_plan", "straightening_element",
              "violated_inequality", "normal_form", "partial_op",
              "apply_partial_power"),
    "oracle": ("build_module", "pbw_filtration_dims", "graded_action",
               "monomial_vector", "monomial_rank", "tensor_cartan_dims",
               "apply_root_vector"),
    "cli": ("main",),
}
BASIS_METHODS = ("add", "contains", "combination")

# Result -> work count stored on the span, for the spans that carry one.
MEASURES = {
    "dyck.enumerate_paths": len,
    "polytope.inequalities": len,
    "polytope.contains": int,
    "polytope.enumerate_points": len,
    "polytope.freudenthal_multiplicities": len,
    "grmod.ideal_generators": lambda gens: len(gens.closure),
    "grmod.quotient_graded_dims": len,
    "oracle.build_module": lambda space: space.dimension,
    "linalg.add": int,
}

FIELDS = (("name", "H"), ("job", "H"), ("parent", "i"), ("start_ns", "q"),
          ("end_ns", "q"), ("value", "q"))


class Tracer:
    """Records spans of wrapped ``sympbw`` calls into flat arrays."""

    def __init__(self):
        self.names = []
        self.columns = {field: array(code) for field, code in FIELDS}
        self.stack = [-1]
        self.job = 0

    def install(self):
        """Wrap every traced callable; returns a function that undoes it."""
        from sympbw import linalg

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "sympbw" or name.startswith("sympbw.")]
        undo = []
        for layer, names in TRACED.items():
            module = sys.modules[f"sympbw.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(original, f"{layer}.{name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
        basis = linalg.IncrementalBasis
        for name in BASIS_METHODS:
            original = vars(basis)[name]
            setattr(basis, name, self._wrap(original, f"linalg.{name}"))
            undo.append((basis, name, original))

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)
        cols = self.columns
        names, jobs, parents = cols["name"], cols["job"], cols["parent"]
        starts, ends, values = cols["start_ns"], cols["end_ns"], cols["value"]
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            i = len(names)
            names.append(nid)
            jobs.append(tracer.job)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            values.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if measure is not None:
                values[i] = measure(result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.perfbench_span = name
        return span

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds, summed work count."""
        cols = self.columns
        starts, ends, parents = cols["start_ns"], cols["end_ns"], cols["parent"]
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "value": 0})
        for i, nid in enumerate(cols["name"]):
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["total_ns"] += dur[i]
            rec["self_ns"] += dur[i] - child[i]
            rec["value"] += cols["value"][i]
        return dict(out)

    def write(self, path) -> None:
        """One JSON header line, then each column's raw bytes in FIELDS order."""
        header = {
            "names": self.names,
            "fields": [[field, code] for field, code in FIELDS],
            "count": len(self.columns["name"]),
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                self.columns[field].tofile(fh)


def patched() -> list:
    """Names under which a ``sympbw`` module or class now holds a span wrapper."""
    owners = [(name, mod) for name, mod in sorted(sys.modules.items())
              if name == "sympbw" or name.startswith("sympbw.")]
    linalg = sys.modules.get("sympbw.linalg")
    if linalg is not None:
        owners.append(("sympbw.linalg.IncrementalBasis", linalg.IncrementalBasis))
    return [f"{owner}.{attr}" for owner, obj in owners
            for attr, value in vars(obj).items() if hasattr(value, "perfbench_span")]


def read_spans(path) -> tuple:
    """Load a file written by ``Tracer.write``: (names, {field: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for field, code in header["fields"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            columns[field] = col
    return header["names"], columns
