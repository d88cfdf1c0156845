"""The concurrent request engine: correctness, batching, determinism."""

from __future__ import annotations

import pytest

from repro.core.cache import CacheConfig
from repro.core.controller import ControllerConfig
from repro.core.engine import ConcurrentEngine, ThreadTask
from repro.core.request import (
    Request,
    build_http_request,
    parse_http_response,
)
from repro.core.webserver import WebServer
from repro.errors import ConfigurationError
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from tests.enclave import boot


def build_controller(num_drives=4, telemetry=None, **config_overrides):
    cluster = DriveCluster(num_drives=num_drives)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return boot(
        clients,
        storage_key=b"engine-test-key".ljust(32, b"\0"),
        config=ControllerConfig(
            replication_factor=2,
            cache=CacheConfig(
                object_bytes=1024, key_bytes=256, policy_bytes=4096
            ),
            **config_overrides,
        ),
        telemetry=telemetry,
    )


def workload(n=16, keys=8):
    requests = []
    for i in range(n):
        requests.append(
            Request(method="put", key=f"k{i % keys}", value=f"v{i}".encode())
        )
    return requests


class TestThreadTask:
    def test_behaves_like_a_generator(self):
        def fn(handle):
            a = handle.emit("first")
            b = handle.emit(("syscall", "op", (a,)))
            return a + b

        task = ThreadTask(fn)
        assert task.send(None) == "first"
        assert task.send(3) == ("syscall", "op", (3,))
        with pytest.raises(StopIteration) as info:
            task.send(4)
        assert info.value.value == 7

    def test_throw_propagates_into_the_task(self):
        seen = []

        def fn(handle):
            try:
                handle.emit("waiting")
            except ValueError as exc:
                seen.append(exc)
            return "recovered"

        task = ThreadTask(fn)
        assert task.send(None) == "waiting"
        with pytest.raises(StopIteration) as info:
            task.throw(ValueError("boom"))
        assert info.value.value == "recovered"
        assert len(seen) == 1

    def test_task_exception_surfaces_to_sender(self):
        def fn(handle):
            raise RuntimeError("inside")

        task = ThreadTask(fn)
        with pytest.raises(RuntimeError, match="inside"):
            task.send(None)


class TestEngineExecution:
    def test_batch_of_puts_then_gets(self):
        controller = build_controller()
        with ConcurrentEngine(controller, seed=3) as engine:
            responses = engine.run_batch(workload(16))
        assert all(r.status == 200 for r in responses)
        # Every key readable afterwards through the plain path.
        for i in range(8):
            assert controller.get("fp", f"k{i}").ok
        assert controller.txns.locked_keys() == set()

    def test_overlapping_requests_share_rounds(self):
        wide = build_controller()
        with ConcurrentEngine(wide, seed=3, hardware_threads=8) as engine:
            engine.run_batch(workload(24))
            wide_rounds = engine.stats.rounds
        narrow = build_controller()
        with ConcurrentEngine(narrow, seed=3, hardware_threads=1) as engine:
            engine.run_batch(workload(24))
            narrow_rounds = engine.stats.rounds
        assert wide_rounds < narrow_rounds

    def test_drive_ops_travel_through_syscall_interface(self):
        controller = build_controller()
        with ConcurrentEngine(controller, seed=3) as engine:
            engine.run_batch(workload(8))
            assert engine.stats.drive_ops > 0
            assert engine.syscalls.submitted == engine.stats.drive_ops
            assert engine.syscalls.completed == engine.stats.drive_ops
            assert engine.syscalls.in_flight == 0

    def test_close_restores_inline_execution(self):
        controller = build_controller()
        engine = ConcurrentEngine(controller, seed=3)
        engine.run_batch(workload(4))
        engine.close()
        submitted = engine.syscalls.submitted
        assert controller.put("fp", "after", b"x").ok
        assert engine.syscalls.submitted == submitted

    def test_request_crash_maps_to_500_response(self):
        controller = build_controller()
        with ConcurrentEngine(controller, seed=3) as engine:
            engine.submit(Request(method="put", key="ok", value=b"v"))
            index = engine.submit(Request(method="put", key="boom", value=b"v"))
            original = controller.handle

            def exploding(request, fingerprint, now=0.0):
                if request.key == "boom":
                    raise RuntimeError("handler blew up")
                return original(request, fingerprint, now)

            controller.handle = exploding
            responses = engine.run()
        assert responses[0].status == 200
        assert responses[index].status == 500
        assert "handler blew up" in responses[index].error
        assert controller.txns.locked_keys() == set()

    def test_rejects_zero_inflight(self):
        controller = build_controller()
        with pytest.raises(ConfigurationError):
            ConcurrentEngine(controller, max_inflight=0)

    def test_admission_window_bounds_live_threads(self):
        controller = build_controller()
        with ConcurrentEngine(controller, seed=3, max_inflight=4) as engine:
            responses = engine.run_batch(workload(20))
        assert all(r.status == 200 for r in responses)
        assert engine.scheduler._next_tid == 20


class TestCoalescing:
    def test_adjacent_same_drive_ops_batch(self):
        controller = build_controller()
        with ConcurrentEngine(controller, seed=3, hardware_threads=8) as engine:
            engine.run_batch(workload(24))
        assert engine.stats.coalesced_calls > 0
        assert engine.stats.batched_submissions < engine.stats.drive_ops

    def test_coalescing_preserves_results(self):
        plain = build_controller()
        with ConcurrentEngine(plain, seed=3, coalesce=False) as engine:
            baseline = [
                (r.status, r.version) for r in engine.run_batch(workload(16))
            ]
            assert engine.stats.coalesced_calls == 0
        batched = build_controller()
        with ConcurrentEngine(batched, seed=3, coalesce=True) as engine:
            grouped = [
                (r.status, r.version) for r in engine.run_batch(workload(16))
            ]
        assert grouped == baseline


class TestDeterminism:
    def run_once(self, seed):
        controller = build_controller()
        with ConcurrentEngine(controller, seed=seed) as engine:
            engine.run_batch(workload(20))
            return engine.trace_bytes()

    def test_same_seed_byte_identical(self):
        assert self.run_once(7) == self.run_once(7)

    def test_seed_changes_interleaving(self):
        traces = {self.run_once(seed) for seed in (7, 8, 9)}
        assert len(traces) > 1

    def test_dispatch_log_records_every_decision(self):
        controller = build_controller()
        with ConcurrentEngine(controller, seed=7) as engine:
            engine.run_batch(workload(8))
            log = engine.dispatch_trace()
        assert sum(1 for event, _ in log if event == "dispatch") >= 8
        assert any(event == "resume" for event, _ in log)


class TestWebServerBatch:
    def test_handle_batch_serves_raw_http_concurrently(self):
        controller = build_controller()
        server = WebServer(controller)
        items = [
            (
                build_http_request(
                    Request(method="put", key=f"w{i}", value=b"payload")
                ),
                f"client-{i % 3}",
            )
            for i in range(6)
        ]
        items.append((b"BOGUS / HTTP/1.1\r\n\r\n", "client-0"))
        raw_responses = server.handle_batch(items, seed=5, workers=4)
        assert len(raw_responses) == len(items)
        parsed = [parse_http_response(raw) for raw in raw_responses]
        assert all(r.status == 200 for r in parsed[:-1])
        assert parsed[-1].status == 400  # parse failure answered inline
        # The engine uninstalled its hook: the plain path still works.
        assert server.handle_bytes(
            build_http_request(Request(method="get", key="w0")), "client-0"
        ).startswith(b"HTTP/1.1 200")
