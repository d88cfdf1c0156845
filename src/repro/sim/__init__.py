"""Deterministic discrete-event simulation kernel.

Benchmarks model clients, controller threads, NICs, and drives as
generator-based processes in a shared :class:`Environment`.  Only virtual
time advances; all functional code (policy checks, encryption, the
Kinetic keyspace) runs for real inside process steps.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.stats import Counter, Histogram, ThroughputMeter, WelfordStats

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "Histogram",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "ThroughputMeter",
    "Timeout",
    "WelfordStats",
]
