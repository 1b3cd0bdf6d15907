"""Spans around calls into netmoments' public functions.

`Tracer.instrument()` replaces every module-level binding of the functions in
TRACED (and the one traced method) with a wrapper that records a span, and
restores the originals on exit.  Spans are kept in memory as plain lists:
[name, start, end, parent index, op id, attrs].  Calls to `canonicalize`
only bump a counter on the innermost open span, because there are thousands
of them per operation.  lru_cache statistics are read, never reset.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) -> span name
TRACED = {
    ("graphs", "parse_graph"): "graphs.parse",
    ("classes", "universe"): "classes.universe",
    ("counting", "full_counts"): "counting.full_counts",
    ("counting", "count_connected"): "counting.count_connected",
    ("counting", "derive_disconnected"): "counting.derive",
    ("moments", "moments"): "moments.moments",
    ("moments", "moments_from_counts"): "moments.normalize",
    ("cumulants", "moments_to_cumulants"): "cumulants.to_cumulants",
    ("cumulants", "scale_cumulants"): "cumulants.scale",
    ("cumulants", "clustering_coefficients"): "cumulants.clustering",
    ("unbiased", "unbiased_cumulants"): "unbiased.kappa_check",
    ("unbiased", "partial_unbiased_moments"): "unbiased.partial",
    ("ergm", "enumerate_classes"): "ergm.enumerate",
    ("ergm", "fit_ergm"): "ergm.fit",
    ("ergm", "ergm_distribution"): "ergm.dist",
    ("editgraph", "build_edit_graph"): "editgraph.build",
    ("editgraph", "laplacian_spectrum"): "editgraph.spectrum",
}
TRACED_METHODS = {("ergm", "GraphClassTable", "statistic_counts"):
                  "ergm.stat_matrix"}
COUNTED = ("canonical", "canonicalize")
# span name -> attributes taken from the call's positional arguments
ARG_ATTRS = {
    "counting.count_connected": lambda G, r_max, *_: {"r": r_max},
    "ergm.enumerate": lambda n, *_: {"n": n},
}

# lru_cache objects whose hit ratios are reported
CACHES = {
    "split": ("counting", "_split_coefficients"),
    "universe": ("classes", "universe"),
    "expansion": ("cumulants", "_expansion_for_graph"),
    "poly": ("unbiased", "cumulant_moment_polynomial"),
}

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _module(short):
    return sys.modules["netmoments." + short]


def cache_stats():
    """{cache name: [hits, misses]} for the caches in CACHES."""
    out = {}
    for key, (mod, fn) in CACHES.items():
        info = getattr(_module(mod), fn).cache_info()
        out[key] = [info.hits, info.misses]
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.monotonic(), None, parent, self.op, {}])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.monotonic()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def add(self, name, start, end, op=None, **attrs):
        """Record a finished span that has no parent."""
        self.spans.append([name, start, end, None,
                           self.op if op is None else op, attrs])

    def _wrap(self, name, fn):
        tracer = self
        universe = name == "classes.universe"
        arg_attrs = ARG_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            if arg_attrs is not None:
                tracer.spans[idx][ATTRS].update(arg_attrs(*args))
            misses = fn.cache_info().misses if universe else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if universe:
                    tracer.spans[idx][ATTRS]["miss"] = \
                        fn.cache_info().misses > misses
                tracer.close(idx)
        return wrapper

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack:
                attrs = tracer.spans[tracer.stack[-1]][ATTRS]
                attrs["canon"] = attrs.get("canon", 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def instrument(self):
        return _Instrumented(self)


class _Instrumented:
    """Context manager that swaps the wrappers in and out."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if m is not None
                   and (k == "netmoments" or k.startswith("netmoments."))]
        targets = {}
        for (mod, fn), name in TRACED.items():
            orig = getattr(_module(mod), fn)
            targets[id(orig)] = (orig, self.tracer._wrap(name, orig))
        orig = getattr(_module(COUNTED[0]), COUNTED[1])
        targets[id(orig)] = (orig, self.tracer._count(orig))
        for m in modules:
            for attr, val in list(vars(m).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    self.saved.append((m, attr, val))
                    setattr(m, attr, hit[1])
        for (mod, cls, meth), name in TRACED_METHODS.items():
            klass = getattr(_module(mod), cls)
            orig = vars(klass)[meth]
            self.saved.append((klass, meth, orig))
            setattr(klass, meth, self.tracer._wrap(name, orig))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, val in reversed(self.saved):
            setattr(owner, attr, val)
        self.saved.clear()
        return False
