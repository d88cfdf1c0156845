"""Timing models: relative magnitudes the evaluation depends on."""

import random

from repro.kinetic.timing import (
    OP_RANGE,
    OP_READ,
    OP_WRITE,
    DriveTiming,
    HddTiming,
    SimulatorTiming,
)


def _mean(timing, op, nbytes, samples=2000, seed=11):
    rng = random.Random(seed)
    return sum(
        timing.service_time(op, nbytes, rng) for _ in range(samples)
    ) / samples


def test_fixed_timing_is_constant():
    timing = DriveTiming(fixed_seconds=0.5)
    rng = random.Random(1)
    assert timing.service_time(OP_READ, 1024, rng) == 0.5


def test_simulator_orders_of_magnitude_faster_than_hdd():
    # In visits per second: the simulator's per-visit latency floor is
    # only ~2x below the HDD's, its capacity two orders above.
    sim, hdd = SimulatorTiming(), HddTiming()
    sim_rate = sim.concurrency / _mean(sim, OP_READ, 1024)
    hdd_rate = hdd.concurrency / _mean(hdd, OP_READ, 1024)
    assert sim_rate > 100 * hdd_rate
    assert _mean(sim, OP_READ, 1024) < _mean(hdd, OP_READ, 1024)


def test_simulator_mean_is_the_latency_floor():
    # ~0.47 ms per visit: what puts single-client latency at the
    # paper's ~0.75 ms (Fig. 4).
    mean = _mean(SimulatorTiming(), OP_WRITE, 1024)
    assert 400e-6 < mean < 550e-6


def test_hdd_supports_roughly_800_iops_at_1kb():
    # A visit is one frame; YCSB-A costs ~1.25 visits per client op,
    # so ~1,000 visits/s is the paper's 823 client-ops/s.
    mean = _mean(HddTiming(), OP_WRITE, 1024)
    rate = 1.0 / mean
    assert 900 < rate < 1150


def test_larger_payloads_cost_more():
    sim = SimulatorTiming(jitter=0.0)
    rng = random.Random(0)
    small = sim.service_time(OP_READ, 128, rng)
    large = sim.service_time(OP_READ, 64 * 1024, rng)
    assert large > small


def test_range_scan_costs_more_than_point_read():
    sim = SimulatorTiming(jitter=0.0)
    rng = random.Random(0)
    assert sim.service_time(OP_RANGE, 1024, rng) > sim.service_time(
        OP_READ, 1024, rng
    )
    hdd = HddTiming(jitter=0.0, read_miss_rate=0.0)
    assert hdd.service_time(OP_RANGE, 1024, rng) > hdd.service_time(
        OP_READ, 1024, rng
    )


def test_hdd_seeks_create_latency_tail():
    hdd = HddTiming(jitter=0.0, read_miss_rate=0.5)
    rng = random.Random(3)
    samples = [hdd.service_time(OP_READ, 1024, rng) for _ in range(500)]
    assert max(samples) > 5 * min(samples)


def test_timing_deterministic_given_seed():
    hdd = HddTiming()
    a = [hdd.service_time(OP_WRITE, 1024, random.Random(42)) for _ in range(5)]
    b = [hdd.service_time(OP_WRITE, 1024, random.Random(42)) for _ in range(5)]
    assert a == b


def test_concurrency_defaults():
    assert HddTiming().concurrency == 1
    assert SimulatorTiming().concurrency >= 1
