"""DES kernel: event ordering, processes, conditions."""

import pytest

from repro.sim import (
    Environment,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5]


def test_events_fire_in_time_order():
    env = Environment()
    log = []

    def proc(delay, name):
        yield env.timeout(delay)
        log.append(name)

    env.process(proc(3, "c"))
    env.process(proc(1, "a"))
    env.process(proc(2, "b"))
    env.run()
    assert log == ["a", "b", "c"]


def test_same_time_fifo_order():
    env = Environment()
    log = []

    def proc(name):
        yield env.timeout(1)
        log.append(name)

    for name in "abc":
        env.process(proc(name))
    env.run()
    assert log == ["a", "b", "c"]


def test_run_until_time_stops_clock():
    env = Environment()

    def proc():
        yield env.timeout(100)

    env.process(proc())
    env.run(until=10)
    assert env.now == 10


def test_run_until_event():
    env = Environment()
    done = env.event()

    def proc():
        yield env.timeout(7)
        done.succeed("finished")
        yield env.timeout(100)

    env.process(proc())
    result = env.run(until=done)
    assert result == "finished"
    assert env.now == 7


def test_process_return_value():
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 42

    def outer(results):
        value = yield env.process(inner())
        results.append(value)

    results = []
    env.process(outer(results))
    env.run()
    assert results == [42]


def test_event_value_passing():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append(value)

    def trigger():
        yield env.timeout(2)
        gate.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == ["payload"]


def test_event_failure_propagates_into_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    env.run()
    with pytest.raises(SimulationError):
        env.check_failures()


def test_unhandled_process_exception_surfaces():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("oops")

    env.process(bad())
    env.run()
    with pytest.raises(ValueError):
        env.check_failures()


def test_waited_on_failure_is_not_unhandled():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("oops")

    def guardian():
        try:
            yield env.process(bad())
        except ValueError:
            pass

    env.process(guardian())
    env.run()
    env.check_failures()  # should not raise


def test_any_of_returns_first():
    env = Environment()
    winners = []

    def proc():
        fast = env.timeout(1, value="fast")
        slow = env.timeout(5, value="slow")
        first = yield env.any_of([fast, slow])
        winners.append(first.value)

    env.process(proc())
    env.run()
    assert winners == ["fast"]
    assert env.now == 5  # slow timeout still drains


def test_all_of_collects_values():
    env = Environment()
    collected = []

    def proc():
        values = yield env.all_of(
            [env.timeout(1, value="a"), env.timeout(2, value="b")]
        )
        collected.append(values)

    env.process(proc())
    env.run()
    assert collected == [["a", "b"]]


def test_yield_already_processed_event():
    env = Environment()
    log = []
    gate = env.event()
    gate.succeed("early")

    def late_waiter():
        yield env.timeout(5)
        value = yield gate
        log.append(value)

    env.process(late_waiter())
    env.run()
    assert log == ["early"]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(9)
    assert env.peek() == 9


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_determinism_across_runs():
    def build_and_run():
        env = Environment()
        log = []

        def proc(pid):
            for step in range(3):
                yield env.timeout(pid * 0.5 + 1)
                log.append((env.now, pid, step))

        for pid in range(4):
            env.process(proc(pid))
        env.run()
        return log

    assert build_and_run() == build_and_run()
