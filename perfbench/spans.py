"""In-memory spans around the benchmark's calls into mhjump, and the
self-time arithmetic that turns them into per-layer numbers.

A span is named "<layer>.<function>"; its layer is the part before the
first dot. Spans of one workload iteration share a run id. Nothing is
written until the benchmark ends (write_jsonl).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class Span:
    span_id: int
    name: str
    label: str
    run_id: str
    parent: Optional[int]
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records one span per `span()` block; nesting follows the block stack."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, label=""):
        parent = self._open[-1].span_id if self._open else None
        s = Span(len(self.spans), name, label, self.run_id, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()


class _Discarded:
    __slots__ = ("attrs",)

    def __init__(self):
        self.attrs = {}


class NullTracer:
    """Tracing off: no clock reads, nothing kept."""

    @contextmanager
    def span(self, name, label=""):
        yield _Discarded()


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """span_id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.span_id: s.duration - _covered(children[s.span_id], s.start, s.end) for s in spans}


def layer_self_times(spans):
    """layer -> summed self time of its spans."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.span_id]
    return dict(out)


def layer_busy(spans, name=None, label=None, layer=None):
    """Summed duration of the matching spans that no other matching span
    encloses, so a layer's nested calls are not counted twice."""
    def match(s):
        return ((name is None or s.name == name) and (label is None or s.label == label)
                and (layer is None or s.layer == layer))

    by_id = {s.span_id: s for s in spans}
    total = 0.0
    for s in spans:
        if not match(s):
            continue
        up = by_id.get(s.parent)
        while up is not None and not match(up):
            up = by_id.get(up.parent)
        if up is None:
            total += s.duration
    return total


def write_jsonl(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")
