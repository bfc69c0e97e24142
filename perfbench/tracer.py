"""In-memory span recorder wrapped around renewalrisk's layers from outside.

`install` replaces each traced public function (and the sampler and
quantile methods) with a wrapper that records a span: name, kind, start,
end, parent, thread CPU time and a work count.  Names that no longer
exist are returned as absent instead of failing the run, so later changes
may move or merge them.  `summarize` turns the spans into per-kind
totals, including self time (a span's duration minus the part of it its
child spans cover).

The recorder is thread-safe: simulation batches run in worker threads,
each thread keeps its own stack of open spans, and a batch span's parent
is the span that was open where the batch runner was called.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import resource
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: module-level function name -> span kind; looked up in whichever
#: renewalrisk module defines it
FUNCTIONS = {
    "parse_config": "cli.parse",
    "renewal_function": "renewal.solve",
    "tilted_measure": "renewal.tilt",
    "theorem_rhs": "asymptotics.rhs",
    "uniformity_scan": "scan",
    "scaled_local_prob": "marginals.local_prob",
    "local_prob": "marginals.local_prob",
    "simulate_grid": "simulate.call",
    "simulate_discounted_claims": "simulate.call",
    "lemma33_check": "simulate.call",
}
#: (base class, method) -> span kind; wrapped on every subclass defining it
METHODS = {
    ("Marginal", "quantile"): "marginals.quantile",
    ("DependenceSpec", "sample_uniform"): "copulas.sample",
}
#: runner(worker, ...) whose worker callback gets one "simulate.batch" span per batch
BATCH_RUNNER = "_run_batches"
#: span kind -> (argument, its work count)
COUNT_ARG = {"simulate.call": ("n_paths", int), "copulas.sample": ("n", int),
             "marginals.quantile": ("p", np.size)}

SPAN_FIELDS = ("id", "parent", "name", "kind", "start_ns", "end_ns", "cpu_ns", "count", "thread")


class Recorder:
    """Collects spans from any thread; `dump` returns them as plain lists."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans = []
        self.rss_before_sim_kb = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, kind, fn, args, kwargs, parent=None, count_of=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
            if kind == "simulate.call" and self.rss_before_sim_kb is None:
                self.rss_before_sim_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        stack.append(sid)
        count = None
        c0, t0 = time.thread_time_ns(), time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if count_of is not None:
                count = count_of(args, kwargs, result)
            return result
        finally:
            t1, c1 = time.perf_counter_ns(), time.thread_time_ns()
            stack.pop()
            with self._lock:
                self._spans.append((sid, parent, name, kind, t0, t1, c1 - c0, count, threading.get_ident()))

    def dump(self) -> list:
        with self._lock:
            return [list(s) for s in self._spans]


def _counter(fn, kind):
    if kind == "renewal.solve":
        return lambda args, kwargs, result: int(len(result.lambda_values))
    if kind not in COUNT_ARG:
        return None
    arg, size = COUNT_ARG[kind]
    sig = inspect.signature(fn)
    if arg not in sig.parameters:
        return None

    def count_of(args, kwargs, result):
        return int(size(sig.bind(*args, **kwargs).arguments[arg]))

    return count_of


def _wrap(rec: Recorder, fn, name: str, kind: str):
    count_of = _counter(fn, kind)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, kind, fn, args, kwargs, count_of=count_of)

    return wrapper


def _wrap_runner(rec: Recorder, runner):
    @functools.wraps(runner)
    def wrapper(worker, *args, **kwargs):
        parent = rec.current()

        def traced_worker(*a, **k):
            return rec.call("batch", "simulate.batch", worker, a, k, parent=parent)

        return runner(traced_worker, *args, **kwargs)

    return wrapper


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "renewalrisk" or n.startswith("renewalrisk.")]


def _defined(modules, name: str, predicate):
    for mod in modules:
        obj = vars(mod).get(name)
        if predicate(obj) and obj.__module__ == mod.__name__:
            return obj
    return None


def _replace(modules, orig, wrapper) -> None:
    """Point every module attribute bound to `orig` (re-exports too) at `wrapper`."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(rec: Recorder) -> list[str]:
    """Wrap every traced name of the imported renewalrisk modules; return the absent ones."""
    modules = _package_modules()
    absent = []
    for name, kind in FUNCTIONS.items():
        fn = _defined(modules, name, inspect.isfunction)
        if fn is None:
            absent.append(name)
        else:
            _replace(modules, fn, _wrap(rec, fn, name, kind))
    for (base_name, method), kind in METHODS.items():
        base = _defined(modules, base_name, inspect.isclass)
        subs = [c for c in _subclasses(base) if method in vars(c)] if base is not None else []
        for cls in subs:
            setattr(cls, method, _wrap(rec, vars(cls)[method], f"{cls.__name__}.{method}", kind))
        if not subs:
            absent.append(f"{base_name}.{method}")
    runner = _defined(modules, BATCH_RUNNER, inspect.isfunction)
    if runner is None:
        absent.append(BATCH_RUNNER)
    else:
        _replace(modules, runner, _wrap_runner(rec, runner))
    return absent


def _covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list) -> dict:
    """Per-kind totals: calls, wall_s, self_s, cpu_s (all thread-seconds) and count.

    Kind "simulate.top" holds the simulate calls not nested in another
    simulate call, i.e. one entry per simulation the CLI asked for.
    """
    rows = [dict(zip(SPAN_FIELDS, s)) for s in spans]
    by_id = {r["id"]: r for r in rows}
    children = defaultdict(list)
    for r in rows:
        if r["parent"] is not None:
            children[r["parent"]].append((r["start_ns"], r["end_ns"]))

    def nested_in_simulate(r) -> bool:
        parent = by_id.get(r["parent"])
        while parent is not None:
            if parent["kind"] == "simulate.call":
                return True
            parent = by_id.get(parent["parent"])
        return False

    out = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "count": 0})
    for r in rows:
        kinds = [r["kind"]]
        if r["kind"] == "simulate.call" and not nested_in_simulate(r):
            kinds.append("simulate.top")
        dur = r["end_ns"] - r["start_ns"]
        own = dur - _covered_ns(r["start_ns"], r["end_ns"], children.get(r["id"], ()))
        for kind in kinds:
            agg = out[kind]
            agg["calls"] += 1
            agg["wall_s"] += dur * 1e-9
            agg["self_s"] += own * 1e-9
            agg["cpu_s"] += r["cpu_ns"] * 1e-9
            agg["count"] += r["count"] or 0
    return dict(out)
