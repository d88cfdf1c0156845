"""Async syscall interface: slots, queues, errors."""

import pytest

from repro.errors import ConfigurationError, PesosError
from repro.sgx.syscalls import (
    AsyncSyscallInterface,
    SyscallQueueFull,
)


def _interface(**kwargs):
    iface = AsyncSyscallInterface(**kwargs)
    iface.register_handler("add", lambda a, b: a + b)
    iface.register_handler("echo", lambda x: x)
    return iface


def test_call_roundtrip():
    assert _interface().call("add", 2, 3) == 5


def test_unknown_operation_raises():
    iface = _interface()
    with pytest.raises(PesosError, match="ENOSYS"):
        iface.call("mystery")


def test_handler_exception_propagates():
    iface = _interface()
    iface.register_handler("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        iface.call("boom")


def test_slots_are_reused():
    iface = _interface(num_slots=1)
    for _ in range(5):
        assert iface.call("echo", "x") == "x"
    assert iface.in_flight == 0


def test_queue_full_when_slots_exhausted():
    iface = _interface(num_slots=2)
    iface.submit("echo", 1)
    iface.submit("echo", 2)
    with pytest.raises(SyscallQueueFull):
        iface.submit("echo", 3)


def test_results_return_in_completion_order():
    iface = _interface(num_slots=4)
    iface.submit("echo", "first")
    iface.submit("echo", "second")
    iface.run_worker()
    assert iface.poll().result == "first"
    assert iface.poll().result == "second"
    assert iface.poll() is None


def test_worker_respects_max_calls():
    iface = _interface(num_slots=4)
    iface.submit("echo", 1)
    iface.submit("echo", 2)
    assert iface.run_worker(max_calls=1) == 1
    assert iface.poll().result == 1
    assert iface.poll() is None


def test_counters():
    iface = _interface()
    iface.call("echo", 1)
    iface.call("echo", 2)
    assert iface.submitted == 2
    assert iface.completed == 2


def test_needs_at_least_one_slot():
    with pytest.raises(ConfigurationError):
        AsyncSyscallInterface(num_slots=0)
