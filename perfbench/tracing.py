"""Spans around the program's public entry points, recorded from outside.

The traced run swaps selected module attributes of ``qespectra`` for
wrappers that record a span (name, start, end, parent) per call.  Calls
that the program makes through a module attribute, such as the CLI calling
``oracle.verify_root`` or ``recurrence.exact_solution`` calling
``exact_chain``, pass through the wrappers too.  Spans stay in memory until
the run ends.  A layer's self time is its spans' time minus the time of
their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module, attribute) pairs wrapped in the traced run; the span is named
# "<module>.<attribute>".
ENTRY_POINTS = (
    ("cli", "main"),
    ("models", "make"),
    ("recurrence", "build_baseline"),
    ("recurrence", "run_ttrr"),
    ("recurrence", "exact_chain"),
    ("recurrence", "exact_solution"),
    ("recurrence", "assemble_solution"),
    ("polynomials", "to_canonical_ttrr"),
    ("polynomials", "real_roots"),
    ("polynomials", "exact_gcd"),
    ("wavefunctions", "sample"),
    ("oracle", "verify_root"),
)
# The oracle's eigenvalue queries go through its own `sla` binding of
# scipy.linalg; they are recorded as this span.
EIG_SPAN = "oracle.eig"
OP_SPAN = "op"
# `exact_chain` replays the chain by calling `run_ttrr` on Fraction tables;
# that nested call is booked to `exact_chain`, so `run_ttrr` is the float
# chain alone.
ABSORBED = {"recurrence.run_ttrr": "recurrence.exact_chain"}

SPAN_NAMES = tuple(f"{m}.{a}" for m, a in ENTRY_POINTS) + (EIG_SPAN, OP_SPAN)


class _LinalgProxy:
    """scipy.linalg as the oracle sees it, with one function replaced."""

    def __init__(self, real, eigvalsh_tridiagonal):
        self._real = real
        self.eigvalsh_tridiagonal = eigvalsh_tridiagonal

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans and counts while installed; restores the program after."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self._restore = []

    def _record(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        absorber = ABSORBED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            own = name
            if absorber is not None and parent >= 0 and spans[parent][0] == absorber:
                own = absorber
            spans.append([own, clock(), 0.0, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span of its own."""
        return self._record(name, fn)(*args)

    def install(self):
        import qespectra

        counts = self.counts
        for module_name, attr in ENTRY_POINTS:
            module = getattr(qespectra, module_name)
            fn = getattr(module, attr)
            name = f"{module_name}.{attr}"
            after = None
            if name == "recurrence.exact_chain" and hasattr(fn, "cache_info"):
                after = _cache_counter(fn, counts)
            elif name == "recurrence.exact_solution":
                def after(result, args):
                    counts["recurrence.exact_solution_calls"] += 1
            elif name == "wavefunctions.sample":
                def after(result, args):
                    counts["wavefunctions.sample_calls"] += 1
                    counts["wavefunctions.points"] += len(result.xs)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._record(name, fn, after))

        oracle = qespectra.oracle
        real = oracle.sla

        def after_eig(result, args):
            counts["oracle.eig_queries"] += 1
            counts["oracle.eig_values"] += len(result)
            counts["oracle.grid_points"] += len(args[0])

        eig = self._record(EIG_SPAN, real.eigvalsh_tridiagonal, after_eig)
        self._restore.append((oracle, "sla", real))
        oracle.sla = _LinalgProxy(real, eig)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out


def _cache_counter(fn, counts):
    """Count the calls of an lru_cache'd function that its cache served."""
    state = {"hits": fn.cache_info().hits}

    def after(result, args):
        hits = fn.cache_info().hits
        if hits < state["hits"]:  # the cache was cleared since the last call
            state["hits"] = 0
        counts["recurrence.exact_chain_calls"] += 1
        counts["recurrence.exact_chain_hits"] += hits - state["hits"]
        state["hits"] = hits

    return after


def span_overhead(calls=20000):
    """Seconds one wrapper adds per call, measured on an empty function."""

    def empty():
        return None

    tracer = Tracer()
    traced = tracer._record("calibrate", empty)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        empty()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    wrapped = clock() - start
    return max(0.0, (wrapped - bare) / calls)
