"""Crash/restart injection tests for the asynchronous runtime."""

import pytest

from repro.sim import trace as tr
from repro.sim.async_runtime import AsyncRuntime
from repro.sim.failures import CrashPlan
from repro.sim.network import ConstantDelay, NetworkConfig
from repro.sim.ops import Broadcast, Decide, Receive, Send, SetTimer, TimerFired
from repro.sim.process import FunctionProcess, Process


def run(protocols, **kwargs):
    processes = [
        p if isinstance(p, Process) else FunctionProcess(p) for p in protocols
    ]
    kwargs.setdefault("seed", 1)
    kwargs.setdefault("network", NetworkConfig(delay_model=ConstantDelay(1.0)))
    return AsyncRuntime(processes, **kwargs).run()


class TestCrashPlanValidation:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            CrashPlan(0)
        with pytest.raises(ValueError):
            CrashPlan(0, at_time=1.0, after_sends=2)

    def test_restart_must_follow_crash(self):
        with pytest.raises(ValueError):
            CrashPlan(0, at_time=5.0, restart_at=4.0)

    def test_negative_after_sends_rejected(self):
        with pytest.raises(ValueError):
            CrashPlan(0, after_sends=-1)

    def test_zero_after_sends_rejected(self):
        # after_sends is 1-based: the smallest meaningful plan crashes the
        # victim right after its first send.
        with pytest.raises(ValueError):
            CrashPlan(0, after_sends=0)

    def test_negative_at_time_rejected(self):
        with pytest.raises(ValueError):
            CrashPlan(0, at_time=-1.0)

    def test_restart_must_be_positive_with_after_sends(self):
        with pytest.raises(ValueError):
            CrashPlan(0, after_sends=2, restart_at=0.0)
        with pytest.raises(ValueError):
            CrashPlan(0, after_sends=2, restart_at=-3.0)

    def test_restart_with_after_sends_accepts_positive_times(self):
        plan = CrashPlan(0, after_sends=2, restart_at=10.0)
        assert plan.restart_at == 10.0

    def test_unknown_pid_rejected(self):
        def proto(api):
            yield Decide(1)

        with pytest.raises(ValueError):
            run([proto], crash_plans=[CrashPlan(9, at_time=1.0)])


class TestTimedCrash:
    def test_crashed_process_stops_sending(self):
        def chatty(api):
            while True:
                yield SetTimer(1.0, "tick")
                yield Receive(count=1, predicate=lambda e: isinstance(e.payload, TimerFired))
                yield Send(1, "tick")

        def passive(api):
            while True:
                yield Receive(count=1)

        result = run(
            [chatty, passive],
            crash_plans=[CrashPlan(0, at_time=5.5)],
            max_time=50.0,
            stop_when="all_halted",
        )
        sends = [e for e in result.trace.of_kind(tr.SEND) if e.pid == 0]
        assert len(sends) == 5  # ticks at 1..5 only
        assert result.trace.crashed_pids() == [0]

    def test_messages_to_crashed_process_are_dropped(self):
        def sender(api):
            yield Receive(count=1, predicate=lambda e: isinstance(e.payload, TimerFired))
            yield Send(1, "late")
            yield Decide("sent")

        def sender_init(api):
            yield SetTimer(10.0, "go")
            yield from sender(api)

        def victim(api):
            while True:
                yield Receive(count=1)

        result = run(
            [sender_init, victim],
            crash_plans=[CrashPlan(1, at_time=5.0)],
            stop_when="queue_empty",
        )
        drops = [e for e in result.trace.of_kind(tr.DROP) if e.pid == 1]
        assert len(drops) == 1


class TestSendCountCrash:
    def test_crash_mid_broadcast_delivers_prefix_only(self):
        def broadcaster(api):
            yield Broadcast("v", include_self=False)
            yield Decide("done")

        def listener(api):
            yield Receive(count=1)
            yield Decide("got")

        # n = 5; broadcaster sends to 1,2,3,4 but crashes after 2 sends.
        result = run(
            [broadcaster, listener, listener, listener, listener],
            crash_plans=[CrashPlan(0, after_sends=2)],
            stop_when="queue_empty",
        )
        delivered = {e.pid for e in result.trace.of_kind(tr.DELIVER)}
        assert delivered == {1, 2}
        assert result.trace.crashed_pids() == [0]
        assert 0 not in result.decisions

    def test_crash_after_first_send_prevents_later_steps(self):
        def proto(api):
            yield Send(1, "x")
            yield Decide("never")

        def sink(api):
            while True:
                yield Receive(count=1)

        result = run(
            [proto, sink],
            crash_plans=[CrashPlan(0, after_sends=1)],
            stop_when="queue_empty",
        )
        assert 0 not in result.decisions


class TestRestart:
    def test_restart_reruns_the_process(self):
        class Counter(Process):
            def __init__(self):
                self.incarnations = 0

            def run(self, api):
                self.incarnations += 1
                yield Decide(self.incarnations) if self.incarnations >= 2 else SetTimer(100.0, "idle")
                while True:
                    yield Receive(count=1)

        counter = Counter()
        result = run(
            [counter],
            crash_plans=[CrashPlan(0, at_time=5.0, restart_at=10.0)],
            max_time=30.0,
            stop_when="all_halted",
        )
        assert counter.incarnations == 2
        restarts = list(result.trace.of_kind(tr.RESTART))
        assert len(restarts) == 1
        assert result.decisions == {0: 2}

    def test_on_restart_hook_invoked(self):
        calls = []

        class Hooked(Process):
            def run(self, api):
                while True:
                    yield Receive(count=1)

            def on_restart(self, api):
                calls.append(api.pid)

        result = run(
            [Hooked()],
            crash_plans=[CrashPlan(0, at_time=2.0, restart_at=4.0)],
            max_time=10.0,
            stop_when="all_halted",
        )
        assert calls == [0]

    def test_a_timer_from_before_the_crash_never_fires_after_restart(self):
        # Both incarnations arm "t" once; the first one's timer (due at
        # 10) must not pass for the second's (due at 12).
        def proto(api):
            yield SetTimer(10.0, "t")
            yield Receive(count=1, predicate=lambda e: isinstance(e.payload, TimerFired))
            yield Decide(api.now)

        result = run([proto], crash_plans=[CrashPlan(0, at_time=1.0, restart_at=2.0)])
        assert result.decisions == {0: 12.0}

    def test_mailbox_cleared_on_crash(self):
        def sender(api):
            yield Send(1, "before-crash")
            yield Decide("s")

        def victim(api):
            # Waits for two messages.  The first incarnation receives only
            # "before-crash" and blocks; the crash wipes the mailbox, so
            # after the restart both received messages must be post-restart.
            envs = yield Receive(count=2)
            yield Decide(tuple(sorted(e.payload for e in envs)))

        def late_sender(api):
            yield SetTimer(10.0, "go")
            yield Receive(count=1, predicate=lambda e: isinstance(e.payload, TimerFired))
            yield Send(1, "after-restart-1")
            yield Send(1, "after-restart-2")
            yield Decide("s")

        result = run(
            [sender, victim, late_sender],
            crash_plans=[CrashPlan(1, at_time=3.0, restart_at=5.0)],
            max_time=30.0,
        )
        assert result.decisions[1] == ("after-restart-1", "after-restart-2")


class TestStopConditionWithCrashes:
    def test_all_alive_decided_ignores_crashed(self):
        def proto(api):
            yield SetTimer(float(api.pid + 1) * 2, "wait")
            yield Receive(count=1, predicate=lambda e: isinstance(e.payload, TimerFired))
            yield Decide(api.pid)
            while True:
                yield Receive(count=1)

        result = run(
            [proto, proto, proto],
            crash_plans=[CrashPlan(2, at_time=1.0)],
            max_time=60.0,
        )
        assert result.stop_reason == "stop_condition"
        assert set(result.decisions) == {0, 1}
