"""In-memory spans recorded around calls into the rfmpc layers.

A span is ``[name, start_ns, end_ns, parent]``, where ``parent`` is the index
of the span that was open when it began (-1 for none).  Spans stay in memory
until the run ends.  Self time is a span's duration minus its children's; the
benchmark is single-threaded, so children never overlap.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        """``fn`` with each call recorded as a span called ``name``."""
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def self_ns(self) -> list:
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def check(self) -> list:
        """Violations of span sanity: negative self time, child outside parent."""
        problems = []
        for i, ((name, start, end, parent), own) in enumerate(zip(self.spans, self.self_ns())):
            if end < start or own < 0:
                problems.append(f"span {i} {name}: duration {end - start} ns, self {own} ns")
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    problems.append(f"span {i} {name} lies outside its parent {parent}")
        return problems

    def totals(self) -> tuple:
        """``(total_ns, self_ns)`` per span name."""
        total, own = defaultdict(int), defaultdict(int)
        for (name, start, end, _), s in zip(self.spans, self.self_ns()):
            total[name] += end - start
            own[name] += s
        return total, own

    def durations_ns(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace each ``(owner, attribute, span_name)`` by a traced wrapper.

    ``owner`` may be a module or an instance; an attribute that only the
    instance's class defined is removed from the instance again on exit.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            own = attr in vars(owner)
            saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
