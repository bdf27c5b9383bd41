"""Spans and counters recorded around qhead's entry points, from outside the package.

The benchmark never edits qhead. It replaces module attributes (and attributes
of live objects) with wrappers for the length of one traced unit of work and
puts the originals back afterwards. A span is (name, start, end, parent,
request): spans of one unit share the request id, and the parent is the span
that was open when the call began, so self time is a span's duration minus
the time its direct children cover.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict


def patch(stack: contextlib.ExitStack, owner, attr: str, make_wrapper) -> None:
    """Replace ``owner.attr`` by ``make_wrapper(original)`` until ``stack`` closes."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    stack.callback(setattr, owner, attr, original)


class Tracer:
    """In-memory spans and counters."""

    def __init__(self, request: int = 0):
        self.request = request
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    # ---- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn, on_return=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``on_return(result, *args, **kwargs)`` runs after the span closes and
        may add to the counters.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.request)
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, fn, on_call):
        """Wrap a hot kernel with a counter only (no span, to keep overhead low)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # ---- aggregation ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration, self time and call count."""
        child_time = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0}
        )
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["total"] += end - start
            row["self"] += end - start - child_time[index]
            row["calls"] += 1
        return dict(out)

    def child_total(self, parents: set[str], children: set[str]) -> float:
        """Time covered by spans named in ``children`` directly under ``parents``."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name in children and parent >= 0 and self.spans[parent][0] in parents:
                total += end - start
        return total

    def span_records(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start_s": start - origin, "end_s": end - origin,
             "parent": parent, "request": request}
            for name, start, end, parent, request in self.spans
        ]
