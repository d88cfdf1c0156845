"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the single collection point for every instrument a
process (or one controller) exposes.  Instruments are get-or-create —
asking twice for the same name returns the same object — and support
Prometheus-style labels: ``counter.labels("get").inc()`` maintains one
monotonic series per label combination.

Design constraints, in order:

1. *Hot-path cost.*  Recording must be a dict lookup plus a float add;
   no locks, no string formatting, no timestamping.  Rendering
   (exposition) does all the expensive work at scrape time.
2. *Derived values stay lazy.*  Hit ratios, queue depths, and memory
   footprints are read at collection time through
   :meth:`MetricsRegistry.derived`, so components never pay to keep a
   gauge in sync on the hot path.  That call is also the only place a
   scrape-time label is built, which is what lets the secrecy-flow
   analyzer treat it as a ``metric-label`` sink like ``.labels()``.
3. *Bounded error percentiles.*  Histograms use a fixed list of upper
   bounds (Prometheus ``le`` semantics); percentile readout linearly
   interpolates inside the winning bucket.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Default histogram upper bounds (seconds) spanning sub-microsecond
#: policy checks to multi-second tail latencies.
DEFAULT_LATENCY_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


@dataclass
class Sample:
    """One exposition-ready series: ``name{labels} value``."""

    name: str
    labels: dict
    value: float
    #: Histogram extras ride along so renderers can emit
    #: ``_bucket``/``_sum``/``_count`` without re-reading the source.
    extra: dict = field(default_factory=dict)


@dataclass
class MetricFamily:
    """All samples for one instrument name, plus its metadata."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    samples: list = field(default_factory=list)


class _Instrument:
    """Base: a named instrument with zero or more label dimensions."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: tuple = ()):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple, object] = {}

    def _child_key(self, values: tuple) -> tuple:
        if len(values) != len(self.labelnames):
            raise ConfigurationError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {values!r}"
            )
        return tuple(str(value) for value in values)

    def labels(self, *values):
        key = self._child_key(values)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self):
        raise NotImplementedError

    def _label_dict(self, key: tuple) -> dict:
        return dict(zip(self.labelnames, key))

    def reset(self) -> None:
        """Drop every series (test/ad-hoc use; exposition never resets)."""
        self._children.clear()

    def samples(self):
        raise NotImplementedError


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only increase")
        self.value += amount


class _Scalar(_Instrument):
    """What counters and gauges share: one number per label set."""

    @property
    def value(self) -> float:
        """Sum over every label combination."""
        return sum(child.value for child in self._children.values())

    def samples(self):
        if not self._children and not self.labelnames:
            yield Sample(self.name, {}, 0.0)
        for key, child in self._children.items():
            yield Sample(self.name, self._label_dict(key), child.value)


class Counter(_Scalar):
    """Monotonically increasing value, optionally per label set."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1) -> None:
        """Increment the unlabeled series."""
        self.labels().inc(amount)

    def series(self) -> dict:
        """Snapshot of label tuple -> value (read-only view helper)."""
        return {key: child.value for key, child in self._children.items()}


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Gauge(_Scalar):
    """A value that can go up and down (sizes, depths, ratios)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self.labels().set(value)

    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self.labels().dec(amount)



class _HistogramChild:
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def percentile(self, pct: float) -> float:
        """Percentile estimate with linear interpolation in-bucket.

        An empty histogram has no percentiles: the readout is ``NaN``
        (never a raise, and never a fake ``0.0`` that dashboards would
        plot as a perfect latency).  Observations beyond the last bound
        report the top bound (the histogram cannot know how far past
        it they landed).
        """
        if not 0 < pct <= 100:
            raise ConfigurationError("percentile must be in (0, 100]")
        if not self.count:
            return math.nan
        target = self.count * pct / 100.0
        running = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if running + bucket_count >= target:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index else 0.0
                fraction = (target - running) / bucket_count
                return lower + (upper - lower) * fraction
            running += bucket_count
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram(_Instrument):
    """Fixed-bucket histogram with percentile readout."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: tuple = (), buckets: tuple | None = None):
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(buckets or DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        self.bounds = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def percentile(self, pct: float) -> float:
        """Percentile over every label combination (``NaN`` when empty)."""
        if not self.labelnames:
            return self.labels().percentile(pct)
        merged = _HistogramChild(self.bounds)
        for child in self._children.values():
            merged.counts = [
                a + b for a, b in zip(merged.counts, child.counts)
            ]
            merged.sum += child.sum
            merged.count += child.count
        return merged.percentile(pct)

    @property
    def count(self) -> int:
        return sum(child.count for child in self._children.values())

    @property
    def sum(self) -> float:
        return sum(child.sum for child in self._children.values())

    def samples(self):
        if not self._children and not self.labelnames:
            # Expose the empty unlabeled histogram so scrapers see it.
            self.labels()
        for key, child in self._children.items():
            cumulative = []
            running = 0
            for bound, bucket_count in zip(child.bounds, child.counts):
                running += bucket_count
                cumulative.append((bound, running))
            yield Sample(
                self.name,
                self._label_dict(key),
                child.count,
                extra={
                    "buckets": cumulative,
                    "sum": child.sum,
                    "count": child.count,
                },
            )


class MetricsRegistry:
    """Named instruments plus families read at collection time."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._derived: list[tuple] = []

    # -- instrument factories (get-or-create) ---------------------------

    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: tuple, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls) or (
                tuple(labelnames) != instrument.labelnames
            ):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind} with labels {instrument.labelnames}"
                )
            return instrument
        instrument = cls(name, help_text, tuple(labelnames), **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "",
                labelnames: tuple = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: tuple = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: tuple = (),
                  buckets: tuple | None = None) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    # -- values computed at collection time -----------------------------

    def derived(self, name: str, kind: str, help_text: str, reader,
                labelnames: tuple = ()) -> None:
        """Publish one family whose samples are read at every collect.

        ``reader()`` returns a number when ``labelnames`` is empty,
        otherwise ``(label values, number)`` pairs, one per series in
        exposition order; a single label's value need not be wrapped
        in a tuple.  The one way to expose state a component already
        keeps (hit ratios, queue depths, chain heads) without hot-path
        bookkeeping.  Families render after the instruments, in
        registration order.
        """
        self._derived.append(
            (name, kind, help_text, reader, tuple(labelnames))
        )

    # -- collection ------------------------------------------------------

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def collect(self) -> list:
        """Snapshot every family, instruments first then derived."""
        families = [
            MetricFamily(
                name=instrument.name,
                kind=instrument.kind,
                help=instrument.help,
                samples=list(instrument.samples()),
            )
            for _name, instrument in sorted(self._instruments.items())
        ]
        for name, kind, help_text, reader, labelnames in self._derived:
            series = reader() if labelnames else [((), reader())]
            samples = []
            for values, value in series:
                if not isinstance(values, tuple):
                    values = (values,)
                labels = dict(zip(labelnames, map(str, values), strict=True))
                samples.append(Sample(name, labels, value))
            families.append(MetricFamily(name, kind, help_text, samples))
        return families
