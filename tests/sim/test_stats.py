"""Metric classes: Welford, histograms, throughput meters."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import Counter, Histogram, ThroughputMeter, WelfordStats


def test_counter_increments():
    counter = Counter("ops")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_counter_rejects_negative():
    counter = Counter("ops")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_welford_matches_closed_form():
    values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    stats = WelfordStats()
    for value in values:
        stats.add(value)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert stats.mean == pytest.approx(mean)
    assert stats.variance == pytest.approx(var)
    assert stats.min == 2.0
    assert stats.max == 9.0


def test_welford_empty_is_zero():
    stats = WelfordStats()
    assert stats.mean == 0.0
    assert stats.variance == 0.0


def test_relative_stddev():
    stats = WelfordStats()
    for value in (10.0, 10.0, 10.0):
        stats.add(value)
    assert stats.relative_stddev == 0.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2))
def test_welford_mean_property(values):
    stats = WelfordStats()
    for value in values:
        stats.add(value)
    assert stats.mean == pytest.approx(sum(values) / len(values), abs=1e-6)


def test_histogram_percentiles_bounded_error():
    rng = random.Random(7)
    hist = Histogram(min_value=1e-5, max_value=10.0, growth=1.05)
    samples = sorted(rng.uniform(0.001, 1.0) for _ in range(5000))
    for sample in samples:
        hist.add(sample)
    exact_p50 = samples[len(samples) // 2]
    approx_p50 = hist.percentile(50)
    assert approx_p50 == pytest.approx(exact_p50, rel=0.10)
    assert hist.percentile(100) >= hist.percentile(50)


def test_histogram_mean_tracks_stats():
    hist = Histogram()
    for value in (0.1, 0.2, 0.3):
        hist.add(value)
    assert hist.mean == pytest.approx(0.2)
    assert hist.count == 3


def test_histogram_invalid_params():
    with pytest.raises(ValueError):
        Histogram(min_value=0)
    with pytest.raises(ValueError):
        Histogram(growth=1.0)


def test_histogram_percentile_validation():
    hist = Histogram()
    with pytest.raises(ValueError):
        hist.percentile(0)
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_histogram_empty_percentile_zero():
    assert Histogram().percentile(99) == 0.0


def test_histogram_out_of_range_values_clamped():
    hist = Histogram(min_value=1e-3, max_value=1.0)
    hist.add(100.0)  # beyond max bucket
    assert hist.percentile(100) == 100.0
    assert math.isclose(hist.mean, 100.0)


def test_throughput_meter_window():
    meter = ThroughputMeter()
    meter.record()  # warmup op, before the window opens
    meter.open_window(now=10.0)
    for _ in range(50):
        meter.record()
    meter.close_window(now=15.0)
    assert meter.rate() == pytest.approx(10.0)


def test_throughput_meter_without_window():
    meter = ThroughputMeter()
    meter.record()
    assert meter.rate(now=5.0) == 0.0


def test_throughput_meter_live_rate():
    meter = ThroughputMeter()
    meter.open_window(now=0.0)
    meter.record()
    meter.record()
    assert meter.rate(now=4.0) == pytest.approx(0.5)
