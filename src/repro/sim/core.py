"""Event loop, events, and generator-based processes.

The design follows the classic SimPy model: a process is a Python
generator that yields :class:`Event` objects; the environment resumes it
when the yielded event fires.  Determinism is guaranteed by a strict
(time, sequence) ordering on the event heap — two events scheduled for
the same instant fire in scheduling order.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import PesosError


class SimulationError(PesosError):
    """Misuse of the simulation kernel (double trigger, bad yield...)."""


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* with either a value (:meth:`succeed`) or an
    exception (:meth:`fail`).  Processes waiting on it are resumed at the
    current simulation instant.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._triggered = False
        self._processed = False
        self._defused = False  # failure was delivered to a waiter

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._triggered = True
        self._exception = exception
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units in the future."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """Wraps a generator; itself an event that fires on generator exit."""

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        self._generator = generator
        # Bootstrap: resume the generator at the current instant.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap._triggered = True
        env._schedule(bootstrap)

    # -- internals ----------------------------------------------------

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return
        try:
            if event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(
                    event._value if event is not self else None
                )
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            self._finish_error(exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._finish_error(
                SimulationError(f"process yielded non-event {target!r}")
            )
            return
        if target._processed:
            # Already fired: resume immediately at this instant.
            immediate = Event(self.env)
            immediate.callbacks.append(self._resume)
            immediate._triggered = True
            immediate._value = target._value
            immediate._exception = target._exception
            self.env._schedule(immediate)
        else:
            target.callbacks.append(self._resume)

    def __call__(self, event: Event) -> None:
        # Used as a callback on the awaited event.
        self._resume(event)

    def _finish(self, value: Any) -> None:
        self._triggered = True
        self._value = value
        self.env._schedule(self)

    def _finish_error(self, exc: BaseException) -> None:
        self._triggered = True
        self._exception = exc
        self.env._schedule(self)
        self.env._record_failure(self, exc)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    def __init__(self, env: "Environment", events: list[Event]):
        super().__init__(env)
        self.events = list(events)
        self._pending = 0
        for ev in self.events:
            if ev._processed or ev._triggered:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)
                self._pending += 1
        self._check_after_init()

    def _check_after_init(self) -> None:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of ``events`` fires; value is that event."""

    def _check_after_init(self) -> None:
        for ev in self.events:
            if ev._triggered and not self._triggered:
                self.succeed(ev)
                return

    def _on_child(self, event: Event) -> None:
        if not self._triggered:
            if event._exception is not None:
                self.fail(event._exception)
            else:
                self.succeed(event)


class AllOf(_Condition):
    """Fires when every event has fired; value is the list of values."""

    def _check_after_init(self) -> None:
        self._maybe_finish()

    def _on_child(self, event: Event) -> None:
        if event._exception is not None and not self._triggered:
            self.fail(event._exception)
            return
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._triggered:
            return
        if all(ev._triggered for ev in self.events):
            values = []
            for ev in self.events:
                if ev._exception is not None:
                    self.fail(ev._exception)
                    return
                values.append(ev._value)
            self.succeed(values)


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = initial_time
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._failures: list[tuple[Process, BaseException]] = []

    @property
    def now(self) -> float:
        return self._now

    # -- factory helpers ------------------------------------------------

    def process(self, generator: Generator) -> Process:
        """Register a generator as a process starting now."""
        return Process(self, generator)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def any_of(self, events: list[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ------------------------------------------------------

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap drains, ``until`` time passes, or event fires."""
        stop_event: Event | None = None
        deadline: float | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError("until lies in the past")

        while self._heap:
            when, _seq, event = self._heap[0]
            if deadline is not None and when > deadline:
                self._now = deadline
                return None
            heapq.heappop(self._heap)
            self._now = when
            self._process_event(event)
            if stop_event is not None and stop_event._processed:
                return stop_event.value
        if deadline is not None:
            self._now = deadline
        if stop_event is not None and not stop_event._triggered:
            raise SimulationError("simulation ended before stop event fired")
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    # -- internals ------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def _process_event(self, event: Event) -> None:
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        if callbacks and event._exception is not None:
            event._defused = True
        for callback in callbacks:
            callback(event)
        if event._exception is not None and not callbacks:
            if not isinstance(event, Process):
                raise event._exception

    def _record_failure(self, process: Process, exc: BaseException) -> None:
        self._failures.append((process, exc))

    def check_failures(self) -> None:
        """Re-raise the first unhandled process failure, if any."""
        for process, exc in self._failures:
            if not process._defused:  # nobody waited on it
                raise exc
