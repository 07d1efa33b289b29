"""In-memory span recorder for the traced benchmark run.

A span is one timed call the benchmark makes into a layer of matroot:
``[name, start_ns, end_ns, parent, op]``.  ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the benchmark operation the
span belongs to (-1 outside the measured loop, as in the layer probes).
Spans stay in memory until the run ends; ``write`` then dumps them with
their per-name summary.

Span names starting with ``bench.`` mark the benchmark's own checking work
(for example counting which candidates really are roots).  Their time is
excluded from operation times and from trace coverage.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

BENCH_PREFIX = "bench."


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self.excluded_ns = 0
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self time, median duration."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        grouped: dict[str, tuple[list, list]] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            durations, selfs = grouped.setdefault(name, ([], []))
            durations.append(end - start)
            selfs.append(end - start - child_ns[i])
        return {
            name: {
                "calls": len(durations),
                "self_ns": sum(selfs),
                "median_ns": statistics.median(durations),
            }
            for name, (durations, selfs) in grouped.items()
        }

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "spans": [[index[s[0]], *s[1:]] for s in self.spans],
            "counts": self.counts,
            "summary": self.summary(),
        }


def write(path, meta: dict, **tracers: Tracer) -> None:
    """Write every tracer's spans, counts and summary to one JSON file."""
    payload = {"meta": meta, **{name: t.dump() for name, t in tracers.items()}}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        t.spans.append([self.name, 0, 0, parent, t.op])
        t._stack.append(self.index)
        t.spans[self.index][1] = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = perf_counter_ns()
        t = self.tracer
        record = t.spans[self.index]
        record[2] = end
        t._stack.pop()
        if self.name.startswith(BENCH_PREFIX):
            t.excluded_ns += end - record[1]
        return False
