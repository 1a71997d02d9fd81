"""Unit tests for the engine-independent read path (repro.algorithms.readpath).

The live conformance suite proves the tiers end-to-end; this file pins
the arithmetic they rest on — drift-clock rebasing, the lease/drift
inequality, follower stickiness, the read-sequence echo and freshness
marks, and the fresh-leader epoch guard — with no cluster in sight.
"""

import math

import pytest

from repro.algorithms.readpath import (
    DriftClock,
    ReadConfig,
    ReadLedger,
    required_drift_bound,
)


class TestDriftClock:
    def test_perfect_clock_tracks_real_time(self):
        clock = DriftClock()
        assert clock.now(10.0) == pytest.approx(10.0)
        assert clock.now(17.5) == pytest.approx(17.5)

    def test_slow_clock_under_measures_real_time(self):
        clock = DriftClock(4.0)
        clock.now(100.0)  # anchor
        # 8 real seconds pass; the slow clock sees a quarter of them.
        assert clock.now(108.0) - clock.now(100.0) == pytest.approx(2.0)

    def test_set_factor_rebases_continuously(self):
        clock = DriftClock()
        before = clock.now(50.0)
        clock.set_factor(4.0, 50.0)
        # No jump at the switch point, only a rate change afterwards.
        assert clock.now(50.0) == pytest.approx(before)
        assert clock.now(54.0) - before == pytest.approx(1.0)

    def test_rejects_fast_clocks(self):
        with pytest.raises(ValueError):
            DriftClock(0.5)
        clock = DriftClock()
        with pytest.raises(ValueError):
            clock.set_factor(0.9, 0.0)


class TestRequiredDriftBound:
    def test_matches_the_inequality(self):
        # The chaos campaign's numbers: W=0.3, clocks up to 4x slow.
        assert required_drift_bound(0.3, 4.0) == pytest.approx(0.225)

    def test_perfect_clocks_need_no_bound(self):
        assert required_drift_bound(0.3, 1.0) == 0.0

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            required_drift_bound(0.3, 0.5)


class TestStickiness:
    def test_disabled_by_default(self):
        ledger = ReadLedger()
        assert not ledger.enabled
        ledger.note_leader_contact(1.0)
        assert not ledger.sticky(1.0)

    def test_sticky_within_window_then_lapses(self):
        ledger = ReadLedger(ReadConfig(lease_duration=0.3))
        ledger.note_leader_contact(10.0)
        assert ledger.sticky(10.0)
        assert ledger.sticky(10.29)
        assert not ledger.sticky(10.31)

    def test_slow_clock_stretches_stickiness(self):
        # A follower whose clock runs slow refuses *longer* in real time,
        # which is the safe direction (its refusal covers the leader's
        # over-extended lease).
        ledger = ReadLedger(ReadConfig(lease_duration=0.3))
        ledger.clock = DriftClock(4.0)
        ledger.note_leader_contact(10.0)
        assert ledger.sticky(11.0)  # 1s real = 0.25s local < 0.3
        assert not ledger.sticky(11.3)


class TestReadSequence:
    """The follower half of a barrier: which read sequence a reply
    echoes, and which confirmed sequence proves the follower fresh."""

    def test_echo_is_the_highest_sequence_taken_this_epoch(self):
        ledger = ReadLedger()
        assert ledger.note_append(3, 0, 1, 1.0) == 0
        assert ledger.note_append(3, 2, 1, 1.1) == 2
        # A reordered older append never lowers the echo.
        assert ledger.note_append(3, 1, 1, 1.2) == 2

    def test_new_epoch_restarts_the_sequence(self):
        # A sequence belongs to one leader: the next epoch's leader counts
        # from zero, and an echo carried over would confirm its barriers
        # on the old leader's evidence.
        ledger = ReadLedger()
        ledger.note_append(3, 7, 1, 1.0)
        assert ledger.note_append(4, 0, 1, 2.0) == 0
        assert ledger.note_append(4, 1, 1, 2.1) == 1

    def test_confirmed_mark_proves_freshness_as_of_receipt(self):
        ledger = ReadLedger()
        ledger.note_append(3, 1, 5, 10.0)
        ledger.note_append(3, 1, 6, 10.2)  # same sequence: first receipt stands
        ledger.note_confirmed(1, applied=5)
        assert ledger.staleness(10.5) == pytest.approx(0.5)

    def test_unconfirmed_or_unapplied_marks_prove_nothing(self):
        ledger = ReadLedger()
        ledger.note_append(3, 1, 5, 10.0)
        ledger.note_confirmed(0, applied=9)  # not confirmed yet
        assert math.isinf(ledger.staleness(10.5))
        ledger.note_confirmed(1, applied=4)  # the barrier's index not applied
        assert math.isinf(ledger.staleness(10.5))
        ledger.note_confirmed(1, applied=5)
        assert ledger.staleness(10.5) == pytest.approx(0.5)

    def test_newest_satisfied_mark_wins(self):
        ledger = ReadLedger()
        ledger.note_append(3, 1, 5, 10.0)
        ledger.note_append(3, 2, 6, 10.1)
        ledger.note_append(3, 3, 9, 10.2)
        # Sequence 3 is confirmed but its commit index is not applied:
        # sequence 2 is the newest proof, and stays consumed.
        ledger.note_confirmed(3, applied=6)
        assert ledger.staleness(11.0) == pytest.approx(0.9)
        ledger.note_confirmed(3, applied=9)
        assert ledger.staleness(11.0) == pytest.approx(0.8)

    def test_marks_of_an_old_epoch_are_discarded(self):
        ledger = ReadLedger()
        ledger.note_append(3, 1, 5, 10.0)
        ledger.note_append(4, 0, 5, 10.1)
        ledger.note_confirmed(1, applied=9)
        assert math.isinf(ledger.staleness(10.5))


class TestLease:
    def _extend(self, ledger, real):
        # One peer acks an append sent at ``real``: with the leader, a
        # majority of three.
        ledger.note_ack_time(1, real, majority=2, real=real)

    def test_lease_runs_from_the_acked_send(self):
        ledger = ReadLedger(ReadConfig(lease_duration=0.3, drift_bound=0.05))
        self._extend(ledger, 10.0)
        assert ledger.lease_remaining(10.0) == pytest.approx(0.25)
        assert ledger.lease_valid(10.2)
        assert not ledger.lease_valid(10.26)

    def test_lease_needs_a_majority_of_acks(self):
        # Five members: two peers beyond the leader must ack, and the
        # lease anchors at the older of their sends.
        ledger = ReadLedger(ReadConfig(lease_duration=0.3))
        assert not ledger.note_ack_time(1, 10.0, majority=3, real=10.0)
        assert not ledger.lease_valid(10.0)
        assert ledger.note_ack_time(2, 10.1, majority=3, real=10.1)
        assert ledger.lease_remaining(10.1) == pytest.approx(0.2)

    def test_drift_bound_saves_a_slow_clocked_leader(self):
        # The campaign scenario: W=0.3, leader clock 4x slow.  A correct
        # bound (0.25 >= 0.225 required) stops serving before the real
        # 0.3s window closes; the canary's bound of 0 keeps serving for
        # 4 * 0.3 = 1.2 real seconds — long after a rival can commit.
        safe = ReadLedger(ReadConfig(lease_duration=0.3, drift_bound=0.25))
        safe.clock = DriftClock(4.0)
        self._extend(safe, 10.0)
        assert not safe.lease_valid(10.0 + 0.3)

        unsafe = ReadLedger(ReadConfig(lease_duration=0.3, drift_bound=0.0))
        unsafe.clock = DriftClock(4.0)
        self._extend(unsafe, 10.0)
        assert unsafe.lease_valid(10.0 + 1.1)  # still serving: the bug
        assert not unsafe.lease_valid(10.0 + 1.3)

    def test_acks_only_extend_forward(self):
        ledger = ReadLedger(ReadConfig(lease_duration=0.3))
        self._extend(ledger, 10.0)
        remaining = ledger.lease_remaining(10.0)
        # An ack for an *earlier* send cannot shorten the lease.
        assert not ledger.note_ack_time(1, 9.0, majority=2, real=10.0)
        assert ledger.lease_remaining(10.0) == pytest.approx(remaining)

    def test_dropped_acks_stop_counting(self):
        ledger = ReadLedger(ReadConfig(lease_duration=0.3))
        ledger.note_ack_time(1, 10.0, majority=3, real=10.0)
        ledger.drop_acks()  # leadership lost: that ack was another epoch's
        assert not ledger.note_ack_time(2, 10.1, majority=3, real=10.1)


class TestFreshness:
    def test_staleness_is_infinite_until_proven(self):
        ledger = ReadLedger()
        assert math.isinf(ledger.staleness(5.0))
        ledger.note_fresh(5.0)
        assert ledger.staleness(5.2) == pytest.approx(0.2)

    def test_reset_forgets_state_but_keeps_the_clock(self):
        ledger = ReadLedger(ReadConfig(lease_duration=0.3))
        ledger.clock.set_factor(4.0, 0.0)
        ledger.note_leader_contact(1.0)
        ledger.note_fresh(1.0)
        ledger.note_ack_time(1, 1.0, majority=2, real=1.0)
        ledger.reset()
        assert not ledger.sticky(1.0)
        assert not ledger.lease_valid(1.0)
        assert math.isinf(ledger.staleness(1.0))
        # Restarting a process does not repair its oscillator.
        assert ledger.clock.factor == 4.0


class FakeLog:
    def __init__(self, terms):
        self._terms = terms

    def term_at(self, index):
        return self._terms[index]


class TestEpochReady:
    def test_requires_a_commit_in_the_current_epoch(self):
        log = FakeLog({1: 2, 2: 3})
        assert not ReadLedger.epoch_ready(log, 0, 3)  # nothing committed
        assert not ReadLedger.epoch_ready(log, 1, 3)  # predecessor's entry
        assert ReadLedger.epoch_ready(log, 2, 3)

    def test_malformed_logs_fail_closed(self):
        assert not ReadLedger.epoch_ready(object(), 5, 3)
        assert not ReadLedger.epoch_ready(FakeLog({}), 5, 3)
