"""The calibration's oracle: the paper's operating points, tightly.

The figure files beside this one assert *shape* with bounds wide enough
to survive sampling noise (``600 < disk < 2000``); a mis-calibrated
model passes them.  This file holds the constants of
``repro.sgx.costs``, ``repro.kinetic.timing`` and
``repro.bench.configs`` to the operating points they were calibrated
against (DESIGN.md §6), at the suite's ``REPRO_BENCH_SCALE=0.5``.  A
constant that moves must move these numbers back inside their
intervals, or say in DESIGN.md which point it gave up.
"""

from repro.bench.experiments import (
    fig3_fig4,
    fig5_scalability,
    fig7_replication,
    fig10_mal,
)


def _within(value, target, tolerance):
    return abs(value - target) <= tolerance * target


def test_fig3_fig4_operating_points(regenerate):
    fig3, fig4 = regenerate(fig3_fig4)
    native = fig3.peak("native-sim")
    pesos = fig3.peak("sgx-sim")
    # Paper: ~95 and ~85 kIOP/s, Pesos at >= 85 % of native.
    assert _within(native, 95_000, 0.05), native
    assert _within(pesos, 85_000, 0.05), pesos
    assert pesos >= 0.85 * native
    # Paper: three HDDs behind the shared enclosure uplink, 1,080 IOP/s.
    assert _within(fig3.peak("sgx-disk"), 1_080, 0.05), fig3.peak("sgx-disk")
    # Paper: 0.75-0.86 ms for a single client against the simulator.
    single = dict(fig4.series["sgx-sim"])[1].mean_latency
    assert 0.65e-3 <= single <= 0.86e-3, single


def test_fig5_dedicated_hdd(regenerate):
    figure = regenerate(fig5_scalability)
    # Paper: 823 IOP/s from one Kinetic HDD with its own port.
    one = figure.throughput_of("sgx-disk", 1)
    assert _within(one, 823, 0.10), one


def test_fig7_replication_slopes(regenerate):
    figure = regenerate(fig7_replication)
    native = [figure.throughput_of("native-sim", n) for n in (1, 2, 3, 4)]
    pesos = [figure.throughput_of("sgx-sim", n) for n in (1, 2, 3, 4)]
    # Paper: Pesos drops ~30 % on the first added replica ...
    assert 0.25 <= 1 - pesos[1] / pesos[0] <= 0.35, pesos
    # ... and native ~12 % per replica.
    for before, after in zip(native, native[1:]):
        assert 0.08 <= 1 - after / before <= 0.16, native


def test_fig10_log_granularity(regenerate):
    figure = regenerate(fig10_mal, granularities=[0, 1, 10])
    for series in ("native-sim", "sgx-sim"):
        baseline = figure.throughput_of(series, 0)
        # Paper: logging every write costs ~35 %, every tenth ~5 %.
        assert figure.throughput_of(series, 1) <= 0.80 * baseline, series
        assert figure.throughput_of(series, 10) >= 0.88 * baseline, series
