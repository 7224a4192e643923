"""Discrete-event engine tests: ordering, determinism, limits."""

import pytest

from repro.errors import SimulationError
from repro.netsim.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, order.append, "b")
        sim.schedule_at(1.0, order.append, "a")
        sim.schedule_at(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for name in "abcde":
            sim.schedule_at(1.0, order.append, name)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        times = []
        def chain():
            times.append(sim.now)
            if len(times) < 3:
                sim.schedule_in(0.5, chain)
        sim.schedule_in(1.0, chain)
        sim.run()
        assert times == [1.0, 1.5, 2.0]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_in(-0.1, lambda: None)


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, order.append, "early")
        sim.schedule_at(10.0, order.append, "late")
        sim.run(until=5.0)
        assert order == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert order == ["early", "late"]

    def test_run_until_advances_clock_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_limits_execution(self):
        sim = Simulator()
        count = []
        for i in range(10):
            sim.schedule_at(float(i), count.append, i)
        executed = sim.run(max_events=4)
        assert executed == 4
        assert count == [0, 1, 2, 3]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, fired.append, "x")
        event.cancel()
        sim.schedule_at(2.0, fired.append, "y")
        sim.run()
        assert fired == ["y"]

    def test_step_executes_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, 1)
        sim.schedule_at(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_pending_and_executed_counts(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert sim.executed_events == 1


class TestDeterminism:
    def test_same_seed_same_streams(self):
        a = Simulator(seed=42)
        b = Simulator(seed=42)
        draws_a = [a.streams.stream("x").random() for _ in range(5)]
        draws_b = [b.streams.stream("x").random() for _ in range(5)]
        assert draws_a == draws_b

    def test_different_names_different_streams(self):
        sim = Simulator(seed=42)
        xs = [sim.streams.stream("x").random() for _ in range(5)]
        ys = [sim.streams.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_stream_independent_of_creation_order(self):
        a = Simulator(seed=1)
        b = Simulator(seed=1)
        a.streams.stream("first")
        value_a = a.streams.stream("second").random()
        value_b = b.streams.stream("second").random()
        assert value_a == value_b

    def test_fork_produces_distinct_family(self):
        sim = Simulator(seed=1)
        child = sim.streams.fork("run-1")
        assert child.master_seed != sim.streams.master_seed
        again = sim.streams.fork("run-1")
        assert again.master_seed == child.master_seed


class TestCancelledHeapHead:
    """Cancelled entries at the heap head must not disturb tie order."""

    @staticmethod
    def _schedule(sim, order):
        early = [sim.schedule_at(1.0, order.append, f"dead{i}")
                 for i in range(3)]
        for name in "abcd":
            sim.schedule_at(2.0, order.append, name)
        ties = [sim.schedule_at(2.0, order.append, f"dead-tie{i}")
                for i in range(2)]
        sim.schedule_at(2.0, order.append, "e")
        for event in early + ties:
            event.cancel()
        return early + ties

    def test_run_keeps_scheduling_order(self):
        sim = Simulator()
        order = []
        cancelled = self._schedule(sim, order)
        assert sim.pending_events == 5
        assert sim.run() == 5
        assert order == list("abcde")
        assert sim.pending_events == 0
        assert all(event.consumed for event in cancelled)

    def test_step_keeps_scheduling_order(self):
        sim = Simulator()
        order = []
        self._schedule(sim, order)
        steps = 0
        while sim.step():
            steps += 1
        assert steps == 5
        assert order == list("abcde")
        assert sim.pending_events == 0
        assert sim.executed_events == 5
