"""Spans recorded from the benchmark's own files.

A span is [name, parent index, start ns, end ns, count]. The benchmark
opens spans around its own calls into hyplevy, and `instrument` swaps
chosen module attributes of hyplevy for recording wrappers for the length
of a `with` block, so the calls hyplevy makes through those names (the cf
inside the density inversion, the quadratures inside the moment
integrals) become child spans too. Quadrature wrappers count the
integrand points they pass. Spans stay in memory until `write`.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, 0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter_ns()

    def _wrap(self, name: str, fn, counts_points: bool):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                if not counts_points:
                    return fn(*args, **kwargs)
                f, rest = args[0], args[1:]

                def counted(x, *more):
                    rec[4] += np.size(x)
                    return f(x, *more)

                return fn(counted, *rest, **kwargs)

        return wrapper

    @contextmanager
    def instrument(self, targets):
        """targets: (module name, attribute, span name) triples; attributes
        named tanh_sinh or exp_sinh also count integrand points."""
        saved = []
        try:
            for mod_name, attr, name in targets:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, attr in ("tanh_sinh", "exp_sinh")))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed counts."""
        child = [0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, _, t0, t1, count) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
            s["calls"] += 1
            s["total_s"] += (t1 - t0) * 1e-9
            s["self_s"] += (t1 - t0 - child[i]) * 1e-9
            s["count"] += count
        return out

    def write(self, path: Path, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["name", "parent", "start_ns", "end_ns", "count"]
        payload["summary"] = self.summary()
        payload["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
