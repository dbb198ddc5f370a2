"""Spans and counters recorded around calls into bibrank, from outside it.

The benchmark replaces the names that bibrank's modules look up at call
time (``bibrank.cli.parse_jsonl``, ``bibrank.collaboration.icp_count`` ...)
with wrappers, runs one operation, and puts the originals back. Each
wrapped call becomes a span ``[name, start, end, parent, op]``; a span's
self time is its duration minus that of its direct children. Functions
called hundreds of thousands of times per operation only bump a counter,
so their time stays in their caller's self time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable


class Tracer(object):
    """Records the spans and counters of one operation, ``op``."""

    def __init__(self, op: int = 0) -> None:
        self.op = op
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, open_ = self.spans, self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, perf_counter(), 0.0, open_[-1] if open_ else -1, self.op]
            open_.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_.pop()

        return traced

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner: Any, attr: str, wrap: Callable[[Callable[..., Any]], Any]) -> None:
        """Replace ``owner.attr`` with ``wrap(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over this tracer's spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def summary(self) -> dict[str, Any]:
        return {"self_s": self.self_times(), "counts": dict(self.counts)}
