"""Unified telemetry: metrics registry + request tracer + exposition.

One :class:`Telemetry` object bundles what a component needs to be
observable — a :class:`~repro.telemetry.metrics.MetricsRegistry` for
counters/gauges/histograms and a :class:`~repro.telemetry.tracing.Tracer`
for span trees — behind a facade small enough to thread through every
layer of the request path.

:class:`NullTelemetry` is the default everywhere: every instrument it
hands out is a shared no-op and :meth:`NullTelemetry.derived` drops
its reader, so the uninstrumented hot path costs a constant attribute
lookup and benchmark numbers are unaffected.  Recording and
registration are therefore never guarded — code just records, and the
null objects swallow it.  What ``telemetry.enabled`` *does* guard is
work done only to feed an instrument: a ``perf_counter()`` pair around
a drive operation, the span-plus-counters wrappers around the request
cycle in ``WebServer.handle_bytes`` and ``PesosController.handle``,
reading ``telemetry.tracer`` or ``.slo`` (``None`` on the null object,
and ``.slo`` on a live one until a caller attaches an engine built from
:mod:`repro.telemetry.slo`, which this package does not import).

Usage::

    telemetry = Telemetry()
    controller = PesosController(clients, telemetry=telemetry, enclave=enclave)
    server = WebServer(controller)          # inherits the telemetry
    ...
    print(render_prometheus(telemetry.registry))
"""

from __future__ import annotations

from repro.telemetry.exposition import (
    registry_to_dict,
    render_json,
    render_prometheus,
    render_traces_json,
    traces_to_dict,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import NULL_SPAN, Span, Tracer


class Telemetry:
    """A live registry + tracer pair handed through the request path."""

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        slow_threshold: float | None = None,
    ):
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or Tracer(slow_threshold=slow_threshold)
        #: Optional SLO engine (:mod:`repro.telemetry.slo`); attach one
        #: to make ``record_request`` fold completions into error
        #: budgets and to land budget/burn gauges on ``/_metrics``.
        self.slo = None

    def attach_slo(self, slo):
        """Attach ``slo`` (an :class:`~repro.telemetry.slo.SloEngine`)
        and register its gauges; returns it."""
        self.slo = slo
        slo.register(self.registry)
        return slo

    def record_request(
        self,
        method: str,
        ok: bool,
        latency: float,
        vnow: float,
        trace_id=None,
    ) -> None:
        """Fold one finished request into the SLO engine (if attached)."""
        if self.slo is not None:
            self.slo.record(method, ok, latency, vnow, trace_id)

    # -- instruments -----------------------------------------------------

    def counter(self, name: str, help_text: str = "",
                labelnames: tuple = ()) -> Counter:
        return self.registry.counter(name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: tuple = ()) -> Gauge:
        return self.registry.gauge(name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: tuple = (),
                  buckets: tuple | None = None) -> Histogram:
        return self.registry.histogram(name, help_text, labelnames, buckets)

    def derived(self, name: str, kind: str, help_text: str, reader,
                labelnames: tuple = ()) -> None:
        """A family read at scrape time; see
        :meth:`MetricsRegistry.derived`."""
        self.registry.derived(name, kind, help_text, reader, labelnames)

    # -- tracing ----------------------------------------------------------

    def span(self, name: str, **attributes) -> Span:
        return self.tracer.span(name, **attributes)


class _NullInstrument:
    """One shared object impersonating every disabled instrument."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def labels(self, *_values) -> "_NullInstrument":
        return self

    def inc(self, _amount: float = 1) -> None:
        pass

    def dec(self, _amount: float = 1) -> None:
        pass

    def set(self, _value: float) -> None:
        pass

    def observe(self, _value: float) -> None:
        pass

    def percentile(self, _pct: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullTelemetry:
    """Disabled telemetry: all instruments and spans are no-ops."""

    enabled = False
    registry = None
    tracer = None
    slo = None

    def attach_slo(self, _slo=None) -> None:
        return None

    def record_request(self, *_args, **_kwargs) -> None:
        pass

    def counter(self, *_args, **_kwargs) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, *_args, **_kwargs) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, *_args, **_kwargs) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def derived(self, *_args, **_kwargs) -> None:
        pass

    def span(self, _name: str, **_attributes):
        return NULL_SPAN


#: Shared default instance; components fall back to this when no
#: telemetry is passed, keeping the hot path free of real recording.
NULL_TELEMETRY = NullTelemetry()


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "Tracer",
    "registry_to_dict",
    "render_json",
    "render_prometheus",
    "render_traces_json",
    "traces_to_dict",
]
