"""Production traffic models over the YCSB machinery.

The bench suite so far measures *steady* offered load (the overload
sweep holds one rate per point).  Real million-user traffic is not
steady: it breathes diurnally, spikes when a link goes viral, and
focuses on a handful of hot keys during a storm.  This package models
those shapes deterministically on the virtual clock:

- :mod:`repro.workload.arrival` — arrival-rate curves (steady,
  diurnal sinusoid, flash-crowd step, hot-key storm) and the open-loop
  arrival-time integrator.
- :mod:`repro.workload.scenarios` — one curve through the open-loop
  driver (:func:`repro.bench.overload.run_open_loop`), read off as
  goodput, per-class p99 latency, shed rate, and SLO burn.
- :mod:`repro.workload.sessions` — session-churn soak: millions of
  session lifecycles against the :class:`~repro.core.session.SessionManager`,
  bounding the per-live-session state footprint.
- :mod:`repro.workload.bench` — the headline bench behind
  ``BENCH_workload.json`` and the CI regression gate.
"""

from repro.workload.arrival import (
    DiurnalCurve,
    FlashCrowdCurve,
    HotKeyStorm,
    SteadyCurve,
    generate_arrivals,
)
from repro.workload.bench import run_workload_bench
from repro.workload.scenarios import ScenarioConfig, ScenarioResult, run_scenario
from repro.workload.sessions import ChurnConfig, ChurnReport, run_session_churn

__all__ = [
    "SteadyCurve",
    "DiurnalCurve",
    "FlashCrowdCurve",
    "HotKeyStorm",
    "generate_arrivals",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "ChurnConfig",
    "ChurnReport",
    "run_session_churn",
    "run_workload_bench",
]
