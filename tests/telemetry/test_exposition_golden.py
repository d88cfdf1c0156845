"""The admin surface reproduces the payloads captured at 8bef8ef.

``/_metrics`` (text and JSON) and ``/_slo?format=prometheus`` must
match byte for byte — family order, sample order, label order, integer
versus float rendering; ``/_audit`` and ``/_health`` as parsed JSON.
See :mod:`tests.telemetry.exposition_scenario` for the run.
"""

import json

import pytest

from tests.telemetry.exposition_scenario import GOLDEN_DIR, run_scenario


@pytest.fixture(scope="module")
def payloads():
    return run_scenario()


@pytest.mark.parametrize("name", ["metrics.txt", "metrics.json", "slo.txt"])
def test_exposition_bytes_match_golden(payloads, name):
    assert payloads[name] == (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("name", ["audit.json", "health.json"])
def test_admin_json_matches_golden(payloads, name):
    assert json.loads(payloads[name]) == json.loads(
        (GOLDEN_DIR / name).read_text()
    )


def test_slo_exposition_is_exactly_its_four_families(payloads):
    types = [
        line.split()[2]
        for line in payloads["slo.txt"].splitlines()
        if line.startswith("# TYPE")
    ]
    assert types == [
        "pesos_slo_error_budget_remaining",
        "pesos_slo_burn_rate",
        "pesos_slo_state",
        "pesos_slo_events_total",
    ]
