"""Span tracer for the qcollapse layers, installed from outside the package.

A function is wrapped at every name a caller looks it up by: ``from .x
import y`` copies the binding into the importing module, and the lazy
``from .diagnostics import order_parameters`` inside ``measurement`` reads
the defining module's attribute at call time, so every ``qcollapse`` module
binding of the function is replaced.

Every call is counted.  A call opens a timed span only when it crosses a
layer boundary, that is when the innermost open span belongs to another
layer (or none is open); a call inside the same layer stays in that span's
self time.  Spans are aggregated as they close, per name: number of spans,
inclusive time, and self time (inclusive time minus that of child spans).
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

LAYERS = ("grid", "propagate", "diagnostics", "collapse", "measurement",
          "scenarios", "cli")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.spans: Counter = Counter()
        self.span_s: Counter = Counter()
        self.self_s: Counter = Counter()
        # Counted quantities other than calls, e.g. bytes or steps, added
        # after each call returns.
        self.tally: Counter = Counter()
        self.names: set = set()  # every traced or counted name
        self._stack: list = []   # open spans: [layer, time in child spans]
        self._patches: list = []

    def reset(self) -> None:
        for c in (self.calls, self.spans, self.span_s, self.self_s, self.tally):
            c.clear()
        self._stack.clear()

    def snapshot(self) -> dict:
        """Copies of the counters; a name never seen reads 0."""
        return {"calls": Counter(self.calls), "spans": Counter(self.spans),
                "span_s": Counter(self.span_s), "self_s": Counter(self.self_s),
                "tally": Counter(self.tally)}

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, layer: str, fn: Callable,
              tally: Optional[Callable] = None) -> Callable:
        self.names.add(name)
        calls, stack = self.calls, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    stack.pop()
                    self.spans[name] += 1
                    self.span_s[name] += elapsed
                    self.self_s[name] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if tally is not None:
                self.tally[name] += tally(*args, **kwargs)
            return result
        return traced

    def _count(self, name: str, fn: Callable,
               tally: Optional[Callable] = None) -> Callable:
        self.names.add(name)
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if tally is not None:
                self.tally[name] += tally(*args, **kwargs)
            return result
        return counted

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original: Callable, new: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qcollapse" and not mod_name.startswith("qcollapse."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def _install(self) -> None:
        modules = {layer: sys.modules[f"qcollapse.{layer}"] for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._rebind(fn, self._span(f"{layer}.{attr}", layer, fn,
                                            _TALLIES.get(f"{layer}.{attr}")))
        self._patch(modules["grid"].WaveFunction, "__post_init__",
                    self._count("grid.wavefunction",
                                modules["grid"].WaveFunction.__post_init__))
        self._patch(modules["propagate"].Potential, "values",
                    self._count("propagate.potential_values",
                                modules["propagate"].Potential.values))
        for attr in ("fft", "ifft"):
            self._patch(np.fft, attr, self._count(
                "numpy.fft", getattr(np.fft, attr), _fft_bytes))


def _fft_bytes(a, *args, **kwargs) -> int:
    # Computed, not measured: one complex128 array read and one written.
    return 2 * 16 * np.size(a)


def _evolve_steps(psi, v, params, cfg, *args, **kwargs) -> int:
    return cfg.n_steps


def _snapshot_bytes(psi, path) -> int:
    return os.path.getsize(path)


_TALLIES = {"propagate.evolve": _evolve_steps,
            "grid.write_snapshot": _snapshot_bytes}
