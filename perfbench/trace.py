"""In-memory spans recorded around calls into the program, and self times.

The benchmark never edits the program to trace it: :class:`Wrapping`
replaces a public method (on a class, an instance or a module) with a
timing shim for the length of a traced run and puts the original back
afterwards.  Each shim opens a :class:`Span` with a name, a layer, start
and end times, the span that caused it and the request it belongs to.

Parent links follow the caller: a span opened inside another span on the
same thread (or asyncio task) is its child.  Work that a fan-out span
hands to pool threads has no enclosing span on its own thread, so it is
parented to the open fan-out span instead (only one is ever open: every
workload drives its index from a single caller thread).  Spans are kept
in memory and written out as JSON lines when the run ends.

A span's self time is its duration minus the part of its interval that
its children cover (:func:`self_times`); :func:`shim_cost_s` measures
what one shim adds to a call, from which the tracing overhead follows.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One timed call."""

    __slots__ = (
        "name", "layer", "phase", "start", "end", "id", "parent", "request", "thread", "attrs"
    )

    def __init__(
        self,
        name: str,
        layer: str,
        start: float,
        span_id: int,
        parent: Optional[int],
        request: int,
        thread: int,
        phase: str = "measure",
    ) -> None:
        self.name = name
        self.layer = layer
        self.phase = phase
        self.start = start
        self.end = start
        self.id = span_id
        self.parent = parent
        self.request = request
        self.thread = thread
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "layer": self.layer,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "id": self.id,
            "parent": self.parent,
            "request": self.request,
            "thread": self.thread,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Recorder:
    """Keeps every closed span of a traced run in memory.  ``phase``
    labels the spans opened while it is set (set-up or measurement)."""

    def __init__(self) -> None:
        self.phase = "measure"
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._stack: contextvars.ContextVar[Tuple[Span, ...]] = contextvars.ContextVar(
            f"perfbench_stack_{id(self)}", default=()
        )
        self._anchor: Optional[Span] = None

    def new_request(self) -> int:
        return next(self._requests)

    def open(self, name: str, layer: str, *, root: bool = False, fan_out: bool = False):
        """Start a span; returns the handle :meth:`close` needs."""
        stack = self._stack.get()
        if root:
            parent, request = None, self.new_request()
        elif stack:
            parent, request = stack[-1].id, stack[-1].request
        elif self._anchor is not None:
            parent, request = self._anchor.id, self._anchor.request
        else:
            parent, request = None, self.new_request()
        span = Span(
            name,
            layer,
            time.perf_counter(),
            next(self._ids),
            parent,
            request,
            threading.get_ident(),
            self.phase,
        )
        token = self._stack.set(stack + (span,))
        previous_anchor = self._anchor
        if fan_out:
            self._anchor = span
        return span, token, fan_out, previous_anchor

    def close(self, handle) -> Span:
        span, token, fan_out, previous_anchor = handle
        span.end = time.perf_counter()
        self._stack.reset(token)
        if fan_out:
            self._anchor = previous_anchor
        self.spans.append(span)
        return span

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


_MISSING = object()


class Wrapping:
    """Timing shims over program callables, undone by :meth:`undo`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        *,
        annotate: Optional[Callable[[Span, tuple, Any], None]] = None,
        root: bool = False,
        fan_out: bool = False,
    ) -> None:
        """Shim ``owner.attr`` (class, instance or module attribute).

        *annotate(span, args, result)* may record counts on the span.  A
        coroutine function gets an async shim, so the span covers the
        awaited call.
        """
        recorder = self.recorder
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def shim(*args, **kwargs):
                handle = recorder.open(name, layer, root=root, fan_out=fan_out)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    span = recorder.close(handle)
                if annotate is not None:
                    annotate(span, args, result)
                return result

        else:

            @functools.wraps(original)
            def shim(*args, **kwargs):
                handle = recorder.open(name, layer, root=root, fan_out=fan_out)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span = recorder.close(handle)
                if annotate is not None:
                    annotate(span, args, result)
                return result

        setattr(owner, attr, shim)

        def restore() -> None:
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

        self._undo.append(restore)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: duration minus the union of its children's intervals
    (clipped to the span's own interval)."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end > span.start and child.start < span.end
        ]
        result[span.id] = span.duration - union_length(clipped)
    return result


def shim_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one timing shim adds to a call: a shimmed no-op method
    against the bare one, medians of *repeats* timings of *calls* calls."""

    class Probe:
        def call(self) -> None:
            return None

    probe = Probe()
    bare, shimmed = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            probe.call()
        bare.append(time.perf_counter() - start)
        wrapping = Wrapping(Recorder())
        wrapping.wrap(Probe, "call", "call", "probe")
        try:
            start = time.perf_counter()
            for _ in range(calls):
                probe.call()
            shimmed.append(time.perf_counter() - start)
        finally:
            wrapping.undo()
    return max(0.0, statistics.median(shimmed) - statistics.median(bare)) / calls
