"""Metrics registry: instruments, labels, and histogram math."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


# -- counters ---------------------------------------------------------------

def test_counter_increments(registry):
    counter = registry.counter("ops_total")
    counter.inc()
    counter.inc(2)
    assert counter.value == 3


def test_counter_rejects_negative(registry):
    counter = registry.counter("ops_total")
    with pytest.raises(ConfigurationError):
        counter.inc(-1)


def test_labeled_counter_keeps_independent_series(registry):
    counter = registry.counter("reqs_total", labelnames=("method",))
    counter.labels("get").inc(5)
    counter.labels("put").inc(2)
    assert counter.labels("get").value == 5
    assert counter.labels("put").value == 2
    assert counter.value == 7
    assert counter.series() == {("get",): 5, ("put",): 2}


def test_label_values_coerced_to_strings(registry):
    counter = registry.counter("status_total", labelnames=("status",))
    counter.labels(200).inc()
    assert counter.labels("200").value == 1


def test_wrong_label_arity_rejected(registry):
    counter = registry.counter("reqs_total", labelnames=("method",))
    with pytest.raises(ConfigurationError):
        counter.labels("get", "extra")


def test_get_or_create_returns_same_instrument(registry):
    first = registry.counter("ops_total", "help")
    second = registry.counter("ops_total")
    assert first is second


def test_kind_mismatch_rejected(registry):
    registry.counter("ops_total")
    with pytest.raises(ConfigurationError):
        registry.gauge("ops_total")


def test_label_mismatch_rejected(registry):
    registry.counter("ops_total", labelnames=("method",))
    with pytest.raises(ConfigurationError):
        registry.counter("ops_total", labelnames=("verb",))


# -- gauges -----------------------------------------------------------------

def test_gauge_set_inc_dec(registry):
    gauge = registry.gauge("depth")
    gauge.set(10)
    gauge.inc(5)
    gauge.dec(3)
    assert gauge.value == 12


# -- histograms -------------------------------------------------------------

def test_histogram_le_bucket_semantics(registry):
    histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 2.0, 3.0, 9.0):
        histogram.observe(value)
    child = histogram.labels()
    # le semantics: an observation equal to a bound lands in that bucket.
    assert child.counts == [2, 2, 1, 1]  # [<=1, <=2, <=4, +Inf]
    assert child.count == 6
    assert child.sum == pytest.approx(17.0)


def test_histogram_percentile_interpolates(registry):
    histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
    for _ in range(50):
        histogram.observe(0.5)
    for _ in range(50):
        histogram.observe(1.5)
    assert histogram.percentile(50) == pytest.approx(1.0)
    assert histogram.percentile(75) == pytest.approx(1.5)
    assert histogram.percentile(100) == pytest.approx(2.0)


def test_histogram_overflow_reports_top_bound(registry):
    histogram = registry.histogram("lat", buckets=(1.0, 2.0))
    histogram.observe(50.0)
    assert histogram.percentile(99) == 2.0


def test_histogram_empty_and_bad_percentile(registry):
    # An empty histogram has no percentiles: NaN, never a fake 0.0
    # that a dashboard would plot as perfect latency.
    histogram = registry.histogram("lat", buckets=(1.0,))
    assert math.isnan(histogram.percentile(99))
    with pytest.raises(ConfigurationError):
        histogram.percentile(0)
    with pytest.raises(ConfigurationError):
        histogram.percentile(101)


def test_histogram_empty_labeled_percentile_is_nan(registry):
    histogram = registry.histogram("lat", labelnames=("op",), buckets=(1.0,))
    assert math.isnan(histogram.percentile(50))


def test_histogram_single_bucket_percentile(registry):
    histogram = registry.histogram("lat", buckets=(1.0,))
    histogram.observe(0.25)
    # One bucket: every percentile interpolates inside (0, 1.0].
    assert 0.0 < histogram.percentile(50) <= 1.0
    assert histogram.percentile(100) == pytest.approx(1.0)


def test_histogram_all_overflow_percentile_reports_top_bound(registry):
    histogram = registry.histogram("lat", buckets=(1.0, 2.0))
    for _ in range(5):
        histogram.observe(100.0)  # everything lands in +Inf
    assert histogram.percentile(50) == 2.0
    assert histogram.percentile(99) == 2.0


def test_histogram_percentile_merges_label_children(registry):
    histogram = registry.histogram("lat", labelnames=("op",),
                                   buckets=(1.0, 2.0, 4.0))
    for _ in range(50):
        histogram.labels("get").observe(0.5)
    for _ in range(50):
        histogram.labels("put").observe(1.5)
    assert histogram.percentile(50) == pytest.approx(1.0)


def test_histogram_empty_buckets_fall_back_to_defaults():
    from repro.telemetry import DEFAULT_LATENCY_BUCKETS

    histogram = MetricsRegistry().histogram("lat", buckets=())
    assert histogram.bounds == tuple(sorted(DEFAULT_LATENCY_BUCKETS))


def test_histogram_mean(registry):
    histogram = registry.histogram("lat", buckets=(10.0,))
    histogram.observe(1.0)
    histogram.observe(3.0)
    assert histogram.labels().mean == pytest.approx(2.0)


# -- collection -------------------------------------------------------------

def test_collect_is_sorted_and_typed(registry):
    registry.counter("b_total", "bees")
    registry.gauge("a_depth", "depth")
    families = registry.collect()
    assert [family.name for family in families] == ["a_depth", "b_total"]
    assert [family.kind for family in families] == ["gauge", "counter"]


def test_callback_families_collected(registry):
    state = {"object": 0.5}
    registry.derived(
        "hit_ratio", "gauge", "", lambda: list(state.items()), ("region",)
    )
    state["object"] = 0.75  # read at collect time, not at registration
    families = {family.name: family for family in registry.collect()}
    (sample,) = families["hit_ratio"].samples
    assert sample.labels == {"region": "object"}
    assert sample.value == 0.75


def test_derived_family_shapes(registry):
    registry.counter("z_total").inc()
    registry.derived("depth", "gauge", "Queue depth.", lambda: 3)
    registry.derived(
        "events_total", "counter", "",
        lambda: [(("get", 200), 7), (("put", 503), 1)],
        ("method", "status"),
    )
    z_total, depth, events = registry.collect()
    # Instruments first, then derived families in registration order.
    assert z_total.name == "z_total"
    assert (depth.kind, depth.help) == ("gauge", "Queue depth.")
    assert [(s.labels, s.value) for s in depth.samples] == [({}, 3)]
    assert [(s.labels, s.value) for s in events.samples] == [
        ({"method": "get", "status": "200"}, 7),
        ({"method": "put", "status": "503"}, 1),
    ]


def test_derived_label_count_mismatch_raises(registry):
    registry.derived("bad", "gauge", "", lambda: [(("a", "b"), 1)], ("only",))
    with pytest.raises(ValueError):
        registry.collect()


# ---------------------------------------------------------------------------
# One way to publish state (AST guard over src/repro)
# ---------------------------------------------------------------------------

def _package_trees():
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def test_only_the_registry_builds_families_and_samples():
    """Scrape-time values go through ``derived`` — the call the taint
    pass watches — never through a hand-built family."""
    import ast

    builders = {
        rel
        for rel, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in ("MetricFamily", "Sample")
    }
    assert builders == {"telemetry/metrics.py"}


def test_the_second_audit_module_and_wire_path_stay_gone():
    import ast

    for rel, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                imported = []
            assert "repro.telemetry.audit" not in imported, rel
            # No assignment target, parameter or keyword named so.
            names = (
                getattr(node, "id", None),
                getattr(node, "attr", None),
                getattr(node, "arg", None),
            )
            assert "wire_codec" not in names, rel
