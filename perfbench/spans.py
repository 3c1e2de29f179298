"""Spans the benchmark records around calls into the program's layers.

Each span has a name, a start and an end (``time.perf_counter`` seconds), the
span that contains it and the operation it belongs to.  Spans are kept in
memory and written out once, as Chrome trace-event JSON, when the run ends.

Two kinds of child span exist:

* spans the benchmark times itself (:meth:`Tracer.span`);
* *reported* spans (:meth:`Tracer.add_parts`), built from the durations a
  layer returns (an iteration's search / apply / rebuild seconds, the
  extraction stages, a service response's queue / optimize seconds).  Their
  start times are not reported, so they are laid end to end from the start
  of their parent, in the order given.

A span's *self time* is its duration minus the part of it its children
cover.  The self time of a *container* span -- one opened only to hold the
spans of the layers below it -- is time no layer accounts for, so the share
of operation time outside container self time is the trace's coverage.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

#: The name of the span that wraps one timed operation.
OP = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    tid: int = 0
    container: bool = False
    reported: bool = False
    index: int = -1
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: Sequence[Sequence[float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start))
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span, in the order given (parents index ``spans``)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return [
        span.duration - covered(span.start, span.end, [(c.start, c.end) for c in children.get(i, ())])
        for i, span in enumerate(spans)
    ]


def coverage(spans: Sequence[Span]) -> float:
    """Share of the wall time of :data:`OP` spans that no container's self time holds."""
    selfs = self_times(spans)
    total = 0.0
    unattributed = 0.0
    for i, span in enumerate(spans):
        root = i
        while spans[root].parent is not None:
            root = spans[root].parent
        if spans[root].name != OP:
            continue
        if i == root:
            total += span.duration
        if i == root or span.container:
            unattributed += selfs[i]
    return 1.0 - unattributed / total if total > 0 else 0.0


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span: Span) -> Span:
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, op: Optional[int] = None, container: bool = False, **args) -> Iterator[Span]:
        """Time the body as a child of the innermost open span of this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = self._append(
            Span(name, time.perf_counter(), parent=parent, op=op, tid=threading.get_ident(),
                 container=container, args=dict(args))
        )
        stack.append(span.index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add_parts(self, parent: Span, parts: Mapping[str, float]) -> None:
        """Add reported child spans of ``parent``, laid end to end from its start."""
        cursor = parent.start
        for name, seconds in parts.items():
            end = min(cursor + max(seconds, 0.0), parent.end)
            self._append(Span(name, cursor, end, parent=parent.index, op=parent.op, tid=parent.tid, reported=True))
            cursor = end

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (complete ``"X"`` events, microseconds)."""
        selfs = self_times(self.spans)
        tids: Dict[int, int] = {}
        events = []
        for span, self_s in zip(self.spans, selfs):
            args = dict(span.args, op=span.op, parent=span.parent, self_us=round(self_s * 1e6, 3))
            if span.reported:
                args["reported"] = True
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": tids.setdefault(span.tid, len(tids) + 1),
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
