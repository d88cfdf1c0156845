"""Renderers: Prometheus text exposition format and JSON.

``render_prometheus`` follows the text format rules scrape pipelines
expect: ``# HELP`` / ``# TYPE`` preamble per family, label values with
backslash/quote/newline escaping, and histograms expanded into
cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
"""

from __future__ import annotations

import json
import math


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_float(value: float) -> str:
    """Shortest ``%g``-style string that round-trips to ``value``.

    ``repr`` already picks the shortest decimal digits but keeps
    artifacts like ``0.30000000000000004`` verbose where a scrape
    pipeline only needs a parseable round-trip; probing ``.1g``
    upward returns the first precision that survives ``float()``.
    """
    for precision in range(1, 18):
        text = format(value, f".{precision}g")
        if float(text) == value:
            return text
    return repr(float(value))


def _format_value(value: float) -> str:
    if value != value:  # NaN (empty-histogram percentile readouts)
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return _format_float(float(value))


def render_prometheus(registry) -> str:
    """Render every family in ``registry`` as Prometheus text format."""
    lines: list[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples:
            if family.kind == "histogram":
                _render_histogram_sample(lines, family.name, sample)
            else:
                lines.append(
                    f"{family.name}{_format_labels(sample.labels)} "
                    f"{_format_value(sample.value)}"
                )
    return "\n".join(lines) + "\n"


def _render_histogram_sample(lines: list, name: str, sample) -> None:
    cumulative = sample.extra.get("buckets", [])
    running = 0
    for bound, running in cumulative:
        labels = dict(sample.labels)
        labels["le"] = _format_value(bound)
        lines.append(
            f"{name}_bucket{_format_labels(labels)} {running}"
        )
    labels = dict(sample.labels)
    labels["le"] = "+Inf"
    count = sample.extra.get("count", 0)
    lines.append(f"{name}_bucket{_format_labels(labels)} {count}")
    lines.append(
        f"{name}_sum{_format_labels(sample.labels)} "
        f"{_format_value(sample.extra.get('sum', 0.0))}"
    )
    lines.append(f"{name}_count{_format_labels(sample.labels)} {count}")


def registry_to_dict(registry) -> dict:
    """JSON-ready snapshot of every metric family."""
    families = {}
    for family in registry.collect():
        entries = []
        for sample in family.samples:
            entry: dict = {"labels": sample.labels, "value": sample.value}
            if family.kind == "histogram":
                entry["sum"] = sample.extra.get("sum", 0.0)
                entry["count"] = sample.extra.get("count", 0)
                entry["buckets"] = [
                    {"le": bound, "cumulative": running}
                    for bound, running in sample.extra.get("buckets", [])
                ]
            entries.append(entry)
        families[family.name] = {
            "kind": family.kind,
            "help": family.help,
            "samples": entries,
        }
    return families


def render_json(registry) -> str:
    return json.dumps(registry_to_dict(registry), indent=2, sort_keys=True)


def traces_to_dict(
    tracer, limit: int = 32, slow_only: bool = False
) -> dict:
    """JSON-ready dump of recent traces and the slow-request log.

    ``slow_only`` drops the recent ring from the payload —
    ``GET /_traces?slow=1`` — so an operator chasing a burning latency
    SLO sees only attributable offenders (each slow entry carries the
    root span's ``op`` label and ``trace_id``).
    """
    payload = {
        "spans_started": tracer.spans_started,
        "traces_completed": tracer.traces_completed,
        "slow_threshold_s": tracer.slow_threshold,
        "slow": [span.to_dict() for span in tracer.slow()],
    }
    if not slow_only:
        payload["recent"] = [span.to_dict() for span in tracer.recent(limit)]
    return payload


def render_traces_json(
    tracer, limit: int = 32, slow_only: bool = False
) -> str:
    return json.dumps(traces_to_dict(tracer, limit, slow_only), indent=2)
