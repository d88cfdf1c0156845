"""One cost model at two concurrency shapes: the engine against the DES.

Both clocks charge the constants of ``repro.sgx.costs`` and
``repro.kinetic.timing``; they differ in what may overlap.  The
concurrency sweep's own workload (4 drives, RF 2, 512 B values, tiny
caches: a GET is an ``m/`` read and a ``v/`` read, a PUT an ``m/`` read
and one frame per replica, so k = 2.5 frames a request) is run through
both:

- the DES on **one** core — the engine's serial-CPU assumption — with
  the engine's 32 requests in flight.  Drive visits overlap completely,
  so it saturates on CPU, at

      t_des = P + k (D + 2 s) + r R + 2 s + e            ~ 165 us

  per request (P ``request_parse``, D ``disk_op_cpu``, s
  ``syscall_async``, R the SGX ``replica_write_cpu`` paid by the r = 0.5
  second-replica frames per request, e ~ 7 us of copies, boundary
  bytes, AEAD and policy predicates);
- the engine at 8 hardware threads.  CPU is as serial, but a round
  lasts as long as its slowest drive batch and nothing runs meanwhile:

      t_eng = g P / 2 + q B (1 + n / c) + (s per submission)   ~ 205 us

  with g segments a request (k + 1, plus 0.5 yields spent waiting for
  a key lock), q rounds a request (1/8 were there no lock waits; 0.2
  here), B and c the simulator's ``base_seconds`` and ``concurrency``,
  n ~ 3 operations in a drive's batch.

The expected throughput ratio engine : DES is t_des / t_eng ~ 0.8
(4.85 against 6.04 kops/s).  Without lock waits (g = 3.5, q = 1/8 plus
pipeline fill) t_eng would be ~ 161 us: at 8 threads and free of
contention the engine is the DES's single core to within 3 %.
"""

from repro.bench.concurrency import (
    ConcurrencyConfig,
    build_concurrency_system,
    make_workload,
)
from repro.bench.configs import make_config
from repro.bench.model import SystemModel
from repro.core.engine import ENGINE_TIMING, ConcurrentEngine
from repro.kinetic.timing import SimulatorTiming
from repro.sgx.costs import SGX_COSTS
from repro.sim import Environment

CONFIG = ConcurrencyConfig()
#: CPU per request the closed form leaves out (copies, boundary bytes,
#: AEAD, policy predicates): ~7 us of 165.
SMALL_TERMS = 7e-6


def _des_on_one_core():
    """Requests per virtual second, and the CPU charged per request."""
    controller = build_concurrency_system(CONFIG)
    env = Environment()
    model = SystemModel(
        env,
        controller,
        make_config(
            "sgx", "sim",
            num_drives=CONFIG.num_drives,
            replication_factor=CONFIG.replication_factor,
            controller_cores=1,
        ),
        seed=CONFIG.seed,
    )
    requests = iter(make_workload(CONFIG))
    served = []

    def client():
        for request in requests:
            response = yield from model.request(
                lambda request=request: controller.handle(request, "fp-bench"),
                96 + len(request.value or b""),
            )
            served.append(response.ok)

    for _ in range(CONFIG.max_inflight):
        env.process(client())
    env.run()
    assert all(served) and len(served) == CONFIG.operations
    return len(served) / env.now, model.cpu_seconds_charged / len(served)


def _engine_at_eight_threads():
    controller = build_concurrency_system(CONFIG)
    with ConcurrentEngine(
        controller,
        seed=CONFIG.seed,
        hardware_threads=8,
        max_inflight=CONFIG.max_inflight,
    ) as engine:
        responses = engine.run_batch(make_workload(CONFIG), "fp-bench")
        assert all(response.ok for response in responses)
        return engine.stats


def test_engine_and_des_are_one_model_at_two_shapes():
    des_rate, des_cpu = _des_on_one_core()
    stats = _engine_at_eight_threads()
    ops = CONFIG.operations
    engine_rate = ops / stats.virtual_seconds

    frames = stats.drive_ops / ops
    sgx = make_config("sgx", "sim")
    cost, sim = SGX_COSTS, SimulatorTiming()
    t_des = (
        cost.request_parse
        + frames * (sgx.disk_op_cpu + 2 * cost.syscall_async)
        + (1 - CONFIG.read_fraction) * sgx.replica_write_cpu
        + 2 * cost.syscall_async
        + SMALL_TERMS
    )
    # The closed form is the CPU the DES charged, and one core saturates.
    assert abs(t_des - des_cpu) < 0.05 * des_cpu
    assert abs(des_rate * des_cpu - 1.0) < 0.05

    batch = stats.drive_ops / stats.rounds / CONFIG.num_drives
    t_eng = (
        stats.context_switches / ops * cost.request_parse / 2
        + stats.rounds / ops
        * sim.base_seconds * (1 + batch / sim.concurrency)
        + stats.batched_submissions / ops * cost.syscall_async
    )
    assert ENGINE_TIMING.cpu_per_segment == cost.request_parse / 2
    assert ENGINE_TIMING.drive_base == sim.base_seconds
    assert ENGINE_TIMING.drive_per_op == sim.base_seconds / sim.concurrency
    assert ENGINE_TIMING.syscall_submit == cost.syscall_async

    expected = t_des / t_eng
    assert 0.7 < expected < 0.9  # lock waits; see the docstring
    measured = engine_rate / des_rate
    assert abs(measured - expected) < 0.25 * expected, (measured, expected)
