"""Exposition: Prometheus text format and JSON renderers."""

import json

import pytest

from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    registry_to_dict,
    render_json,
    render_prometheus,
    render_traces_json,
    traces_to_dict,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


def test_help_and_type_preamble(registry):
    registry.counter("ops_total", "Operations handled.")
    text = render_prometheus(registry)
    assert "# HELP ops_total Operations handled." in text
    assert "# TYPE ops_total counter" in text
    assert text.endswith("\n")


def test_unlabeled_counter_renders_zero_before_first_inc(registry):
    registry.counter("ops_total")
    assert "ops_total 0" in render_prometheus(registry)


def test_labels_sorted_and_values_formatted(registry):
    counter = registry.counter("reqs_total", labelnames=("method", "code"))
    counter.labels("get", "200").inc(3)
    text = render_prometheus(registry)
    # Label names render alphabetically regardless of declaration order.
    assert 'reqs_total{code="200",method="get"} 3' in text


def test_label_value_escaping(registry):
    counter = registry.counter("odd_total", labelnames=("path",))
    counter.labels('a\\b"c\nd').inc()
    text = render_prometheus(registry)
    assert 'path="a\\\\b\\"c\\nd"' in text


def test_help_escaping(registry):
    registry.counter("ops_total", "line one\nline two \\ slash")
    text = render_prometheus(registry)
    assert "# HELP ops_total line one\\nline two \\\\ slash" in text


def test_histogram_rendering_cumulative(registry):
    histogram = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(5.0)
    text = render_prometheus(registry)
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert "lat_seconds_sum 5.55" in text
    assert "lat_seconds_count 3" in text


def test_labeled_histogram_keeps_labels_on_all_series(registry):
    histogram = registry.histogram(
        "op_seconds", labelnames=("op",), buckets=(1.0,)
    )
    histogram.labels("read").observe(0.5)
    text = render_prometheus(registry)
    assert 'op_seconds_bucket{le="1",op="read"} 1' in text
    assert 'op_seconds_sum{op="read"} 0.5' in text
    assert 'op_seconds_count{op="read"} 1' in text


def test_json_rendering_roundtrips(registry):
    registry.counter("ops_total", "ops").inc(2)
    histogram = registry.histogram("lat", buckets=(1.0,))
    histogram.observe(0.5)
    data = json.loads(render_json(registry))
    assert data["ops_total"]["kind"] == "counter"
    assert data["ops_total"]["samples"][0]["value"] == 2
    lat = data["lat"]["samples"][0]
    assert lat["count"] == 1
    assert lat["buckets"] == [{"le": 1.0, "cumulative": 1}]
    assert data == registry_to_dict(registry)


def test_callback_families_render(registry):
    registry.derived(
        "ratio", "gauge", "derived", lambda: [("object", 0.5)], ("region",)
    )
    text = render_prometheus(registry)
    assert 'ratio{region="object"} 0.5' in text


def test_float_formatting_shortest_roundtrip():
    from repro.telemetry.exposition import _format_value

    # Shortest decimal that parses back to the exact value.
    assert _format_value(0.3) == "0.3"
    assert float(_format_value(0.1 + 0.2)) == 0.1 + 0.2
    assert _format_value(0.025) == "0.025"
    assert _format_value(2.5e-06) == "2.5e-06"
    assert _format_value(1.0) == "1"
    assert _format_value(-4.0) == "-4"
    assert _format_value(float("nan")) == "NaN"
    assert _format_value(float("inf")) == "+Inf"
    assert _format_value(float("-inf")) == "-Inf"


def test_float_formatting_roundtrips_default_buckets():
    from repro.telemetry import DEFAULT_LATENCY_BUCKETS
    from repro.telemetry.exposition import _format_value

    for bound in DEFAULT_LATENCY_BUCKETS:
        assert float(_format_value(bound)) == bound


def test_nan_gauge_renders_as_nan(registry):
    registry.derived("p99", "gauge", "", lambda: float("nan"))
    assert "p99 NaN" in render_prometheus(registry)


def test_traces_to_dict_shape():
    tracer = Tracer(slow_threshold=0.0)
    with tracer.span("root", method="get"):
        with tracer.span("child"):
            pass
    dump = traces_to_dict(tracer)
    assert dump["spans_started"] == 2
    assert dump["traces_completed"] == 1
    assert dump["slow_threshold_s"] == 0.0
    (root,) = dump["recent"]
    assert root["name"] == "root"
    assert root["attributes"] == {"method": "get"}
    assert root["children"][0]["name"] == "child"
    # threshold 0.0 puts everything in the slow log
    assert dump["slow"][0]["name"] == "root"
    json.loads(render_traces_json(tracer))


def test_traces_slow_only_drops_recent_ring():
    tracer = Tracer(slow_threshold=0.0)
    with tracer.span("http.request", method="put"):
        pass
    dump = traces_to_dict(tracer, slow_only=True)
    assert "recent" not in dump
    (slow,) = dump["slow"]
    # Slow entries are attributable: op label + trace id for /_traces.
    assert slow["op"] == "put"
    assert slow["trace_id"]


def test_traces_limit():
    tracer = Tracer()
    for index in range(5):
        with tracer.span(f"t{index}"):
            pass
    dump = traces_to_dict(tracer, limit=2)
    assert [span["name"] for span in dump["recent"]] == ["t3", "t4"]
