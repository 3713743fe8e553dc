"""Span recorder for the traced run.

The traced run calls `dixtrace.cli.main(argv)` in-process with wrappers
installed around the public entry points of each layer.  A wrapper goes on
the name the *calling* module binds: `from .x import y` copies the binding,
so patching only the defining module would miss those calls.  Generator
functions (the shell and dual streams) get one span per `next()` call.

Spans are kept in memory as (name, start, end, parent index) and written
out when the run ends.  A layer's self time is the length of its spans
minus the part covered by their child spans, so the self times of one job
add up to its root span, the `cli.main` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time


def _points(counters, point):
    counters["geometry.points"] += 1


def _shells(counters, chunk):
    counters["geometry.chunks"] += 1
    counters["geometry.shells"] += int(chunk[0].size)


def _scalar_elems(counters, values):
    counters["symbol.scalar_elems"] += int(values.size)


def _blocks(counters, block):
    counters["symbol.blocks"] += 1
    counters["symbol.block_bytes"] += int(block.nbytes)
    counters["symbol.max_block_d"] = max(counters["symbol.max_block_d"], int(block.shape[0]))


def _total_dim(counters, op):
    counters["oracle.total_dim"] += int(op.total_dim)


def _boundary_points(counters, sym):
    counters["boundary.points"] += len(sym)


# wrapped name (module suffix under dixtrace, then attributes) -> span, counter
WRAPS = {
    "cli.main": ("cli.self", None),
    "cli.parse_symbol": ("symbol.parse", None),
    "cli.partial_sums": ("summation.self", None),
    "cli.counting_series": ("summation.self", None),
    "summation.partial_sums": ("summation.self", None),
    "cli.weyl_fit": ("trace.fit", None),
    "cli.dixmier_estimate": ("trace.fit", None),
    "cli.quasinorm": ("trace.fit", None),
    "cli.residue_factored": ("trace.fit", None),
    "boundary._estimate": ("trace.fit", None),
    "summation.radial_shells": ("geometry.shells", _shells),
    "summation.enumerate_dual": ("geometry.enumerate", _points),
    "geometry.enumerate_dual": ("geometry.enumerate", _points),
    "oracle.enumerate_dual": ("geometry.enumerate", _points),
    "oracle.counting_function": ("geometry.count", None),
    "summation.scalar_values": ("symbol.scalar", _scalar_elems),
    "summation.eval_symbol": ("symbol.eval", _blocks),
    "oracle.eval_symbol": ("symbol.eval", _blocks),
    "summation.nuclear_trace_abs": ("symbol.nuclear", None),
    "oracle.singular_values": ("symbol.svd", None),
    "cli.compare_symbol_vs_oracle": ("oracle.compare", None),
    "oracle.truncate_operator": ("oracle.truncate", _total_dim),
    "oracle.operator_singular_values": ("oracle.lapack", None),
    "cli.BoundarySymbol.inverse_spectrum": ("boundary.spectrum", _boundary_points),
    "cli.BoundarySymbol.spectrum_symbol": ("boundary.spectrum", _boundary_points),
    "cli.BoundarySymbol.from_callable": ("boundary.spectrum", _boundary_points),
    "cli.BoundarySymbol.from_file": ("boundary.spectrum", _boundary_points),
    "cli.boundary_series": ("boundary.series", None),
    "cli.boundary_weyl_series": ("boundary.series", None),
    "cli.boundary_dixmier": ("boundary.series", None),
    "cli.boundary_dixmier_weyl": ("boundary.series", None),
    "cli.parametrix_trace": ("boundary.series", None),
    "boundary.boundary_series": ("boundary.series", None),
    "boundary.boundary_weyl_series": ("boundary.series", None),
}

SPANS = sorted({span for span, _ in WRAPS.values()})
COUNTERS = ("geometry.shells", "geometry.chunks", "geometry.points",
            "symbol.scalar_elems", "symbol.blocks", "symbol.block_bytes",
            "symbol.max_block_d", "boundary.points", "oracle.total_dim")


def _resolve(key):
    """(owner, attribute) for a WRAPS key; raises if the name is gone."""
    parts = key.split(".")
    owner = importlib.import_module("dixtrace." + parts[0])
    for attr in parts[1:-1]:
        owner = getattr(owner, attr)
    if not hasattr(owner, parts[-1]):
        raise RuntimeError("traced name dixtrace.%s no longer exists" % key)
    return owner, parts[-1]


class Tracer:
    """Wraps the layer entry points and records spans and counters."""

    def __init__(self):
        self.spans = []
        self.calls = dict.fromkeys(WRAPS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._saved = []

    def reset(self):
        """Drop spans and counters, keeping the call totals."""
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def install(self):
        """Wrap every name in WRAPS; nothing is patched if one is missing."""
        targets = [(key, *_resolve(key)) for key in WRAPS]
        for key, owner, attr in targets:
            span, count = WRAPS[key]
            raw = vars(owner)[attr]
            fn = getattr(owner, attr)
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_generator(key, span, fn, count)
            else:
                wrapped = self._wrap_call(key, span, fn, count)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap_call(self, key, span, fn, count):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            spans = self.spans
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[i] = (span, t0, clock(), parent)
                stack.pop()
            if count is not None:
                count(self.counters, out)
            return out
        return wrapper

    def _wrap_generator(self, key, span, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return self._iterate(span, fn(*args, **kwargs), count)
        return wrapper

    def _iterate(self, span, it, count):
        stack, clock = self._stack, time.perf_counter
        try:
            while True:
                spans = self.spans
                i = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(i)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spans[i] = (span, t0, clock(), parent)
                    stack.pop()
                if count is not None:
                    count(self.counters, item)
                yield item
        finally:
            it.close()

    def self_times(self) -> dict:
        """Self time per span name over the recorded spans."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(SPANS, 0.0)
        for (name, t0, t1, _parent), covered in zip(self.spans, child):
            out[name] += (t1 - t0) - covered
        return out

    def root_seconds(self) -> float:
        _name, t0, t1, _parent = self.spans[0]
        return t1 - t0

    def require_calls(self, keys):
        """Fail loudly when a name expected on this workload was never called."""
        missing = [k for k in keys if self.calls[k] == 0]
        if missing:
            raise RuntimeError("traced names got zero calls: %s"
                               % ", ".join("dixtrace." + k for k in missing))
