"""Span-based request tracing.

A *span* covers one timed region of the request path; spans nest, so a
completed root span is a tree: ``http.request`` over
``controller.handle`` over ``store.read_value`` over ``kinetic.get``.
Each span carries attributes (operation, key, byte counts), a
wall-clock duration, and — when the tracer has a virtual clock, as the
discrete-event benchmarks do — a virtual-time duration as well.

The tracer keeps a bounded ring of recent completed traces plus a
separate *slow log* of root spans that exceeded a configurable
threshold, so an operator can always answer "what did the last slow
request spend its time on" from the ``/_traces`` admin endpoint.

Single-threaded by design, like the controller it instruments: the
active-span stack is a plain list, not a contextvar.
"""

from __future__ import annotations

import itertools
import time
from collections import deque


class Span:
    """One timed region; completed spans form a tree via ``children``."""

    __slots__ = (
        "name", "attributes", "children", "trace_id", "error",
        "start_wall", "end_wall", "start_virtual", "end_virtual",
        "_tracer",
    )

    def __init__(self, name: str, tracer: "Tracer", trace_id: int,
                 attributes: dict):
        self.name = name
        self.attributes = attributes
        self.children: list[Span] = []
        self.trace_id = trace_id
        self.error = ""
        self.start_wall = 0.0
        self.end_wall = 0.0
        self.start_virtual: float | None = None
        self.end_virtual: float | None = None
        self._tracer = tracer

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None and not self.error:
            self.error = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self)
        return False

    # -- recording --------------------------------------------------------

    def set(self, key: str, value) -> None:
        self.attributes[key] = value

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while the span is still open)."""
        return max(0.0, self.end_wall - self.start_wall)

    @property
    def virtual_duration(self) -> float | None:
        if self.start_virtual is None or self.end_virtual is None:
            return None
        return self.end_virtual - self.start_virtual

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def op(self) -> str:
        """Operation / request-class label for slow-log attribution.

        Root spans of the request path carry the method as an
        attribute (``http.request`` sets ``method``; explicit ``op``
        wins); the span name is the fallback so infrastructure spans
        stay attributable too.
        """
        value = self.attributes.get("op") or self.attributes.get("method")
        return str(value) if value else self.name

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "op": self.op,
            "duration_s": self.duration,
            "attributes": self.attributes,
            "children": [child.to_dict() for child in self.children],
        }
        if self.virtual_duration is not None:
            record["virtual_duration_s"] = self.virtual_duration
        if self.error:
            record["error"] = self.error
        return record


class _NullSpan:
    """Reusable no-op span so disabled tracing costs one attr lookup."""

    __slots__ = ()
    attributes: dict = {}
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Builds span trees and retains recent / slow completed traces."""

    def __init__(
        self,
        clock=time.perf_counter,
        virtual_clock=None,
        ring_size: int = 128,
        slow_threshold: float | None = None,
        slow_log_size: int = 64,
    ):
        self.clock = clock
        #: Optional zero-argument callable returning virtual time (the
        #: benchmark environment's ``env.now``); may be (re)attached at
        #: any point via :meth:`set_virtual_clock`.
        self.virtual_clock = virtual_clock
        self.slow_threshold = slow_threshold
        self._stack: list[Span] = []
        self._recent: deque[Span] = deque(maxlen=ring_size)
        self._slow: deque[Span] = deque(maxlen=slow_log_size)
        self._trace_ids = itertools.count(1)
        self.spans_started = 0
        self.traces_completed = 0

    def set_virtual_clock(self, virtual_clock) -> None:
        self.virtual_clock = virtual_clock

    # -- span lifecycle ---------------------------------------------------

    def span(self, name: str, **attributes) -> Span:
        """Create a span; use as ``with tracer.span("x") as span:``."""
        if self._stack:
            trace_id = self._stack[-1].trace_id
        else:
            trace_id = next(self._trace_ids)
        return Span(name, self, trace_id, attributes)

    def _push(self, span: Span) -> None:
        span.start_wall = self.clock()
        if self.virtual_clock is not None:
            span.start_virtual = self.virtual_clock()
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        self.spans_started += 1

    def _pop(self, span: Span) -> None:
        span.end_wall = self.clock()
        if self.virtual_clock is not None:
            span.end_virtual = self.virtual_clock()
        # Unwind to the matching frame; tolerates a child left open by
        # an exception the parent's __exit__ is already handling.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if not self._stack:
            self._complete(span)

    def _complete(self, root: Span) -> None:
        self._recent.append(root)
        self.traces_completed += 1
        if (
            self.slow_threshold is not None
            and root.duration >= self.slow_threshold
        ):
            self._slow.append(root)

    # -- inspection --------------------------------------------------------

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def recent(self, limit: int | None = None) -> list:
        """Most recent completed traces, newest last."""
        traces = list(self._recent)
        return traces if limit is None else traces[-limit:]

    def slow(self) -> list:
        """Slow-log contents, newest last."""
        return list(self._slow)

    def find(self, trace_id: int) -> Span | None:
        """Resolve a retained trace by id (SLO exemplars point here)."""
        for span in reversed(self._recent):
            if span.trace_id == trace_id:
                return span
        for span in reversed(self._slow):
            if span.trace_id == trace_id:
                return span
        return None
