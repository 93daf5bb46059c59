"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the package's public functions where one module calls
into another: it replaces the name in the calling module's namespace with
a wrapper that records a span. Nothing under ``src/`` changes, and an
untraced run never creates a tracer, so it installs no wrapper.

A span is (name, via, start, end, parent, thread, run id, attrs). ``name``
is ``<layer>.<function>`` of the callee, ``via`` the module whose call was
wrapped. Spans stay in memory and are written once, by ``write``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "via", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name, via, start, parent, thread):
        self.name = name
        self.via = via
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from every thread; call ``unpatch_all`` when done."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        # a worker thread started inside a traced call has an empty stack;
        # its spans hang under the span open in the thread that made the tracer
        self._home = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, via: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._home:
            parent = self._home[-1]
        else:
            parent = None
        ident = threading.get_ident()
        with self._lock:
            thread = self._threads.setdefault(ident, len(self._threads))
            idx = len(self.spans)
            self.spans.append(Span(name, via, time.perf_counter(), parent, thread))
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, via: str = "bench"):
        """Span around a block run by the benchmark; yields its attrs."""
        idx = self._open(name, via)
        try:
            yield self.spans[idx].attrs
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, via: str, observe=None):
        """Wrapper of fn recording one span per call. observe(result, args,
        kwargs) returns attrs to attach; it runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, via)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                self.spans[idx].attrs.update(observe(result, args, kwargs))
            return result

        return traced

    def patch(self, module, attr: str, name: str, observe=None) -> None:
        original = getattr(module, attr)
        via = module.__name__.rsplit(".", 1)[-1]
        setattr(module, attr, self.wrap(original, name, via, observe))
        self._patches.append((module, attr, original))

    def unpatch_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """All spans as JSON lines, start and end in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "run": self.run_id, "name": s.name, "via": s.via,
                    "start": s.start - t0, "end": s.end - t0, "parent": s.parent,
                    "thread": s.thread, "attrs": s.attrs}, default=float) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children from worker threads may overlap each other, so the covered
    part is the union of the children's intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, ())]
        covered = _union_length([k for k in kids if k[1] > k[0]])
        out.append(max(s.duration - covered, 0.0))
    return out


def is_bench(span: Span) -> bool:
    """The benchmark's own spans (phases, checks) are named bench.*."""
    return span.name.startswith("bench.")


def coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of [start, end] covered by the outermost spans of the program:
    spans not named bench.* whose parent is none or a bench.* span."""
    tops = [(max(s.start, start), min(s.end, end)) for s in spans
            if not is_bench(s) and (s.parent is None or is_bench(spans[s.parent]))]
    return _union_length([t for t in tops if t[1] > t[0]]) / (end - start)
