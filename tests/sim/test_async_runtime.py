"""Behavioural tests for the asynchronous virtual-time runtime."""

import pytest

from repro.sim import trace as tr
from repro.sim.async_runtime import AsyncRuntime, SimulationError
from repro.sim.network import ConstantDelay, NetworkConfig
from repro.sim.ops import (
    Annotate,
    Broadcast,
    CancelTimer,
    Decide,
    Halt,
    Receive,
    Send,
    SetTimer,
    TimerFired,
)
from repro.sim.process import FunctionProcess


def run(protocols, **kwargs):
    processes = [FunctionProcess(p) for p in protocols]
    kwargs.setdefault("seed", 1)
    return AsyncRuntime(processes, **kwargs).run()


def is_timer(envelope):
    return isinstance(envelope.payload, TimerFired)


class TestMessaging:
    def test_send_and_receive(self):
        def sender(api):
            yield Send(1, "ping")
            yield Decide("sent")

        def receiver(api):
            envs = yield Receive(count=1)
            yield Decide(envs[0].payload)

        result = run([sender, receiver])
        assert result.decisions == {0: "sent", 1: "ping"}

    def test_broadcast_includes_self_by_default(self):
        def proto(api):
            yield Broadcast("hi")
            envs = yield Receive(count=api.n)
            yield Decide(sorted(e.src for e in envs))

        result = run([proto, proto, proto])
        assert result.decisions[0] == [0, 1, 2]

    def test_broadcast_can_exclude_self(self):
        def proto(api):
            yield Broadcast("hi", include_self=False)
            envs = yield Receive(count=api.n - 1)
            yield Decide(sorted(e.src for e in envs))

        result = run([proto, proto, proto])
        assert result.decisions[1] == [0, 2]

    def test_receive_predicate_filters_and_buffers(self):
        def sender(api):
            yield Send(1, ("b", 2))
            yield Send(1, ("a", 1))
            yield Send(1, ("b", 3))
            yield Decide("done")

        def receiver(api):
            a_msgs = yield Receive(count=1, predicate=lambda e: e.payload[0] == "a")
            b_msgs = yield Receive(count=2, predicate=lambda e: e.payload[0] == "b")
            yield Decide((a_msgs[0].payload, sorted(e.payload for e in b_msgs)))

        result = run([sender, receiver], network=NetworkConfig(delay_model=ConstantDelay(1.0)))
        assert result.decisions[1] == (("a", 1), [("b", 2), ("b", 3)])

    def test_non_consuming_receive_leaves_mailbox_intact(self):
        def sender(api):
            yield Send(1, "x")
            yield Decide("done")

        def receiver(api):
            peeked = yield Receive(count=1, consume=False)
            consumed = yield Receive(count=1)
            assert peeked[0].payload == consumed[0].payload == "x"
            yield Decide("ok")

        result = run([sender, receiver])
        assert result.decisions[1] == "ok"

    def test_receive_blocks_until_count_met(self):
        def sender(api):
            yield Send(2, "one")
            yield Decide("s")

        def sender2(api):
            yield Send(2, "two")
            yield Decide("s")

        def receiver(api):
            envs = yield Receive(count=2)
            yield Decide(len(envs))

        result = run([sender, sender2, receiver])
        assert result.decisions[2] == 2

    def test_receive_zero_count_rejected(self):
        def proto(api):
            yield Receive(count=0)

        with pytest.raises(SimulationError):
            run([proto], stop_when="all_halted")

    def test_constant_delay_sets_delivery_time(self):
        def sender(api):
            yield Send(1, "x")
            yield Decide("s")

        def receiver(api):
            envs = yield Receive(count=1)
            yield Decide(envs[0].deliver_time - envs[0].send_time)

        result = run(
            [sender, receiver],
            network=NetworkConfig(delay_model=ConstantDelay(3.0)),
        )
        assert result.decisions[1] == pytest.approx(3.0)


class TestTimers:
    def test_timer_fires_after_delay(self):
        def proto(api):
            yield SetTimer(5.0, "t")
            envs = yield Receive(count=1, predicate=is_timer)
            yield Decide((envs[0].payload.name, api.now))

        result = run([proto])
        name, when = result.decisions[0]
        assert name == "t"
        assert when == pytest.approx(5.0)

    def test_rearming_timer_cancels_previous(self):
        def proto(api):
            yield SetTimer(1.0, "t")
            yield SetTimer(10.0, "t")  # re-arm before the first fires
            envs = yield Receive(count=1, predicate=is_timer)
            yield Decide(api.now)

        result = run([proto])
        assert result.decisions[0] == pytest.approx(10.0)

    def test_cancel_timer_prevents_fire(self):
        def proto(api):
            yield SetTimer(1.0, "boom")
            yield CancelTimer("boom")
            yield SetTimer(5.0, "ok")
            envs = yield Receive(count=1, predicate=is_timer)
            yield Decide(envs[0].payload.name)

        result = run([proto])
        assert result.decisions[0] == "ok"

    def test_two_named_timers_independent(self):
        def proto(api):
            yield SetTimer(2.0, "a")
            yield SetTimer(1.0, "b")
            first = yield Receive(count=1, predicate=is_timer)
            second = yield Receive(count=1, predicate=is_timer)
            yield Decide((first[0].payload.name, second[0].payload.name))

        result = run([proto])
        assert result.decisions[0] == ("b", "a")

    def test_negative_timer_rejected(self):
        def proto(api):
            yield SetTimer(-1.0, "t")

        with pytest.raises(SimulationError):
            run([proto], stop_when="all_halted")


class TestDecideAndHalt:
    def test_decide_twice_same_value_is_fine(self):
        def proto(api):
            yield Decide(7)
            yield Decide(7)

        result = run([proto])
        assert result.decisions == {0: 7}

    def test_decide_twice_different_values_raises(self):
        def proto(api):
            yield Decide(1)
            yield Decide(2)

        with pytest.raises(SimulationError):
            run([proto], stop_when="all_halted")

    def test_halt_stops_the_process(self):
        def proto(api):
            yield Decide("v")
            yield Halt()
            yield Decide("never")  # unreachable

        result = run([proto], stop_when="all_halted")
        assert result.decisions == {0: "v"}

    def test_generator_return_counts_as_halt(self):
        def proto(api):
            yield Annotate("step", 1)

        result = run([proto], stop_when="all_halted")
        halts = list(result.trace.of_kind(tr.HALT))
        assert len(halts) == 1

    def test_decided_value_raises_on_disagreement(self):
        def proto_a(api):
            yield Decide("a")

        def proto_b(api):
            yield Decide("b")

        result = run([proto_a, proto_b])
        with pytest.raises(SimulationError):
            result.decided_value()


class TestStopConditions:
    def test_stop_when_all_alive_decided(self):
        def proto(api):
            yield Decide(api.pid)
            while True:  # keeps running forever
                yield Receive(count=1)

        result = run([proto, proto])
        assert result.stop_reason == "stop_condition"
        assert set(result.decisions) == {0, 1}

    def test_queue_empty_stop(self):
        def proto(api):
            yield Annotate("x", 1)
            envs = yield Receive(count=1)  # never satisfied

        result = run([proto], stop_when="queue_empty")
        assert result.stop_reason == "queue_empty"

    def test_max_time_stop(self):
        def proto(api):
            while True:
                yield SetTimer(1.0, "tick")
                yield Receive(count=1, predicate=is_timer)

        result = run([proto], max_time=10.0, stop_when="all_halted")
        assert result.stop_reason == "max_time"
        assert result.final_time <= 10.0

    def test_max_events_stop(self):
        def proto(api):
            while True:
                yield SetTimer(0.1, "tick")
                yield Receive(count=1, predicate=is_timer)

        result = run([proto], max_events=50, stop_when="all_halted")
        assert result.stop_reason == "max_events"

    def test_custom_stop_predicate(self):
        def proto(api):
            while True:
                yield SetTimer(1.0, "tick")
                yield Receive(count=1, predicate=is_timer)

        result = run(
            [proto],
            stop_when=lambda runtime: runtime.now >= 5.0,
        )
        assert result.final_time >= 5.0

    def test_unknown_stop_when_rejected(self):
        def proto(api):
            yield Decide(1)

        with pytest.raises(ValueError):
            run([proto], stop_when="bogus")


class TestDeterminism:
    def _battery(self, seed):
        def proto(api):
            yield Broadcast(("v", api.pid, api.rng.random()))
            envs = yield Receive(count=api.n)
            yield Decide(tuple(sorted(e.payload[2] for e in envs)))

        return run([proto] * 4, seed=seed)

    def test_same_seed_same_execution(self):
        first = self._battery(123)
        second = self._battery(123)
        assert first.decisions == second.decisions
        assert first.final_time == second.final_time
        assert len(first.trace) == len(second.trace)

    def test_different_seed_different_randomness(self):
        first = self._battery(1)
        second = self._battery(2)
        assert first.decisions != second.decisions

    @staticmethod
    def _flood(record_trace, n=8, rounds=30):
        """E10's flood: every round, everyone broadcasts and hears all."""

        def proto(api):
            for round_no in range(rounds):
                yield Broadcast(("flood", round_no))
                yield Receive(
                    count=api.n,
                    predicate=lambda e, r=round_no: e.payload == ("flood", r),
                )
            yield Decide("done")

        return run([proto] * n, seed=0, record_trace=record_trace)

    def test_tracing_off_changes_nothing_but_the_trace(self):
        traced = self._flood(True)
        untraced = self._flood(False)
        assert untraced.events_processed == traced.events_processed
        assert untraced.final_time == traced.final_time
        assert untraced.decisions == traced.decisions
        assert len(untraced.trace) == 0
        assert len(traced.trace) > 0

    def test_same_seed_replays_the_identical_trace(self):
        def events(result):
            return [(e.time, e.kind, e.pid, e.detail) for e in result.trace.events]

        first, again = self._flood(True), self._flood(True)
        assert events(again) == events(first)


class TestValidation:
    def test_needs_at_least_one_process(self):
        with pytest.raises(ValueError):
            AsyncRuntime([])

    def test_init_values_length_checked(self):
        def proto(api):
            yield Decide(1)

        with pytest.raises(ValueError):
            AsyncRuntime([FunctionProcess(proto)], init_values=[1, 2])

    def test_sync_ops_rejected(self):
        from repro.sim.ops import Exchange

        def proto(api):
            yield Exchange("v")

        with pytest.raises(SimulationError):
            run([proto], stop_when="all_halted")

    def test_api_exposes_parameters(self):
        seen = {}

        def proto(api):
            seen.update(pid=api.pid, n=api.n, t=api.t, init=api.init_value)
            seen["majority"] = api.majority()
            seen["quorum"] = api.quorum()
            yield Decide(1)

        run([proto], init_values=["x"], t=0)
        assert seen == {
            "pid": 0, "n": 1, "t": 0, "init": "x", "majority": 1, "quorum": 1,
        }
