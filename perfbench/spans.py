"""Spans around calls into metricgeom's public functions, recorded from outside.

``Tracer.wrap(module, name)`` rebinds ``module.name`` to a wrapper that
records one span (name, start, end, parent, op) per call.  The wrapper
restores the original binding while the call runs, so a function that
calls itself through its module global (``cli.dumps`` does) records one
span per outermost call.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, module, name: str, label: str | None = None) -> None:
        orig = getattr(module, name)
        label = label or f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            setattr(module, name, orig)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                setattr(module, name, wrapper)
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1

        setattr(module, name, wrapper)

    def add(self, label: str, t0: float, t1: float, parent: int = -1) -> int:
        """Record a span timed by the caller; returns its index."""
        self.spans.append([label, t0, t1, parent, self.op])
        return len(self.spans) - 1

    def extend(self, spans: list[list], parent: int) -> None:
        """Adopt spans recorded in another process under the span ``parent``."""
        base = len(self.spans)
        for name, t0, t1, par, _ in spans:
            self.spans.append([name, t0, t1, parent if par < 0 else base + par, self.op])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def totals(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per name: (calls, summed self time)."""
    out: dict[str, tuple[int, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        n, total = out.get(s[0], (0, 0.0))
        out[s[0]] = (n + 1, total + own)
    return out
