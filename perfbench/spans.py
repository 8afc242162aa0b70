"""Outside-in span tracing: wrap a module's callables, keep spans in memory.

The benchmark never edits the program to trace it.  A
:class:`SpanRecorder` replaces a function or method *attribute* with a
wrapper that opens a span, calls the original and closes the span;
:meth:`SpanRecorder.uninstall` puts every original back.  A function
imported by name into several modules (``from ..kernels import f``) is
wrapped at each importing module's attribute, all under one span name,
so every call site is seen.

A span records its name, start, end, the span open on the same thread
when it started (its parent) and the recorder's current ``trace`` id
(one per sort or job).  A span's *self time* is its duration minus the
durations of its children, which nest inside it on one thread.

Finished spans are plain tuples of numbers and strings, which the
cyclic garbage collector stops tracking.  A traced run holds hundreds
of thousands of them; as tracked objects they slowed every later
collection, and the traced round wall of ``wide`` was 1.35 times the
untraced one instead of 1.10.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    """One finished span; ``parent`` is the parent's ``id``, or -1."""

    id: int
    name: str
    start: float
    end: float
    parent: int
    trace: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Installs span wrappers and holds the spans they record."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.trace: Any = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[tuple[int, str, float, int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[int, str, float, int, Any]:
        stack = self._stack()
        frame = (next(self._ids), name, self.clock(),
                 stack[-1][0] if stack else -1, self.trace)
        stack.append(frame)
        return frame

    def close(self, frame: tuple[int, str, float, int, Any]) -> Span:
        end = self.clock()
        self._stack().pop()
        sid, name, start, parent, trace = frame
        span = Span(sid, name, start, end, parent, trace)
        self.spans.append(span)  # list.append is atomic across threads
        return span

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str) -> bool:
        """Wrap ``owner.attr`` (a module or class attribute) as ``name``.

        Returns ``False`` when ``owner`` has no such attribute of its
        own, so a renamed call site shows up as missing rather than
        crashing the run.  Wrapping one attribute twice is a no-op.
        """
        own = vars(owner)
        if attr not in own:
            return False
        original = own[attr]
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return True
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = recorder.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(frame)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, **meta: Any) -> None:
        """Write the finished spans as JSON rows, with ``meta`` beside."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **meta}, fh)


def load_spans(path: str) -> tuple[list[Span], dict[str, Any]]:
    """Read spans and metadata written by :meth:`SpanRecorder.dump`."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [Span(*row) for row in doc.pop("spans")], doc


def self_times(spans: Iterable[Span]) -> list[tuple[Span, float]]:
    """Each span with its self time: duration minus its children's."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [(s, s.duration - covered[s.id]) for s in spans]


def layer_totals(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """``{name: {"self_s": total self time, "calls": span count}}``."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0})
    for s, own in self_times(spans):
        out[s.name]["self_s"] += own
        out[s.name]["calls"] += 1
    return dict(out)
