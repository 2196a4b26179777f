"""Per-layer tracing for the csdp benchmark.

A Tracer wraps every public module-level function of the csdp modules
(the layers) and `scipy.optimize.linprog` as called from `csdp.bounds`,
and counts calls to the `evaluate` callables of the built-in queries.
Wrapping rebinds each
name in every csdp module that imports it, so calls nested inside
`run_sweep`, `solve_p1` and the acceptance criteria are seen too.  Nothing
in the program itself changes; `uninstall` restores every binding.

Each wrapped call records a span (name, start, end, parent span, request
id), its inclusive time ("busy") and its self time (busy minus wrapped
children).  Self time is summed per layer on the main thread only: a
worker thread's calls overlap the main thread's wait for them.  Counters
are kept per pass so per-pass figures do not depend on how many passes a
run fits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

from catalog import LAYERS

MAX_SPANS = 50_000
# Functions whose busy time is also kept per benchmark operation.
PER_OP = ("sweeps.run_sweep", "cli.main")


def _digest(*arrays) -> bytes:
    h = hashlib.sha1()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).view(np.uint8))
    return h.digest()


def _model_key(model, *args, **kwargs):
    return (model.space, _digest(model.transitions, model.weights))


def _kernel_age_key(kernel, age, *args, **kwargs):
    return (_digest(kernel.matrix), repr(np.asarray(age).tolist()))


# What counts as distinct work for the functions that report a useful ratio.
WORK_KEYS = {
    "kernel.joint_kernel": _model_key,
    "kernel.aged_joint": _kernel_age_key,
    "bounds.bounded_aged_correlation": _kernel_age_key,
}


class Counters:
    """Calls, busy time, distinct work keys and layer self time of one phase."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.keys = defaultdict(set)
        self.self_time = defaultdict(float)
        self.op_busy = defaultdict(float)  # (function, op label) -> seconds


class Tracer:
    def __init__(self):
        self.active = False
        self.counters = Counters()
        self.spans = []
        self.spans_dropped = 0
        self._op = None  # (request id, label) of the benchmark operation running
        self._span_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every csdp module to a wrapper."""
        modules = [importlib.import_module(f"csdp.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if attr == "builtin_queries":
                    wrappers[value] = self._wrap(self._wrap_queries(value), name, layer)
                else:
                    wrappers[value] = self._wrap(value, name, layer, WORK_KEYS.get(name))
        bounds = importlib.import_module("csdp.bounds")
        wrappers[bounds.linprog] = self._wrap(bounds.linprog, "bounds.linprog", "bounds")
        for mod in modules + [importlib.import_module("csdp")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap_queries(self, builtin_queries):
        """Return query specs whose `evaluate` is traced as queries.evaluate."""
        tracer = self

        @functools.wraps(builtin_queries)
        def traced_queries(space):
            specs = builtin_queries(space)
            return {key: dataclasses.replace(spec, evaluate=tracer._count(spec.evaluate))
                    for key, spec in specs.items()}
        return traced_queries

    def _count(self, evaluate):
        """Count query evaluations without timing them: each takes a few
        microseconds, so a span per call would mostly measure the tracer.
        Their time stays in the caller's self time."""
        tracer = self

        @functools.wraps(evaluate)
        def counted(x):
            if tracer.active:
                with tracer._lock:
                    tracer.counters.calls["queries.evaluate"] += 1
            return evaluate(x)
        return counted

    def _wrap(self, fn, name, layer, key_fn=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            key = key_fn(*args, **kwargs) if key_fn else None
            stack = tracer._stack()
            frame = [0.0, next(tracer._span_ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._record(name, layer, start, end, frame, stack, key)
        return wrapper

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, layer, start, end, frame, stack, key) -> None:
        busy = end - start
        child, span_id = frame
        if stack:
            stack[-1][0] += busy
        parent = stack[-1][1] if stack else None
        main = threading.current_thread() is threading.main_thread()
        c = self.counters
        with self._lock:
            c.calls[name] += 1
            c.busy[name] += busy
            if key is not None:
                c.keys[name].add(key)
            if main:
                c.self_time[layer] += busy - child
            if self._op is not None and (name in PER_OP or layer == "unattributed"):
                c.op_busy[(name, self._op[1])] += busy
            if len(self.spans) < MAX_SPANS:
                request = self._op[0] if self._op else None
                self.spans.append((span_id, parent, request, name, start, end))
            else:
                self.spans_dropped += 1

    @contextlib.contextmanager
    def op(self, request: int, label: str):
        """Span around one benchmark operation; its self time is unattributed."""
        self._op = (request, label)
        stack = self._stack()
        frame = [0.0, next(self._span_ids)]
        stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self._record(f"bench.{label}", "unattributed", start, end, frame, stack, None)
            self._op = None

    @contextlib.contextmanager
    def paused(self):
        """Leave calls made by the benchmark's own checks out of the counts."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def take(self) -> Counters:
        """Return the counters gathered so far and start a fresh set."""
        taken, self.counters = self.counters, Counters()
        return taken

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")
