"""Checker self-tests: hand-built histories with known verdicts.

The linearizability checker is itself test infrastructure, so it gets the
adversarial treatment: known-good histories it must accept, classic
violations (stale read, lost update, split-brain double observation) it
must reject with the right witness, and ambiguous open-ended ops it must
allow to have happened — or not.
"""

from repro.chaos import History, OpRecord, check_history
from repro.chaos.checker import UNWRITTEN, _Budget, _entries
from repro.chaos.history import GET, PUT


def put(op_id, client, key, value, inv, ret):
    return OpRecord(op_id, client, PUT, key, value, inv=inv, ret=ret, ok=True)


def get(op_id, client, key, value, inv, ret, found=True):
    return OpRecord(
        op_id, client, GET, key, value if found else None,
        inv=inv, ret=ret, ok=True, found=found,
    )


def open_put(op_id, client, key, value, inv):
    return OpRecord(op_id, client, PUT, key, value, inv=inv, ret=None, ok=None)


def check(*ops, time_budget=10.0):
    return check_history(History.from_ops(list(ops)), time_budget=time_budget)


class TestAccepts:
    def test_empty_history(self):
        assert check().ok is True

    def test_sequential_write_then_read(self):
        report = check(
            put("1", 0, "x", "a", 0.0, 1.0),
            get("2", 1, "x", "a", 2.0, 3.0),
        )
        assert report.ok is True

    def test_read_before_any_write_sees_nothing(self):
        assert check(get("1", 0, "x", None, 0.0, 1.0, found=False)).ok is True

    def test_concurrent_writes_any_order(self):
        # w(a) and w(b) overlap: a later read may see either winner.
        for winner in ("a", "b"):
            report = check(
                put("1", 0, "x", "a", 0.0, 2.0),
                put("2", 1, "x", "b", 0.5, 1.8),
                get("3", 2, "x", winner, 2.5, 3.0),
            )
            assert report.ok is True, winner

    def test_read_concurrent_with_write_sees_old_or_new(self):
        for seen in ("a", "n"):
            report = check(
                put("1", 0, "x", "a", 0.0, 1.0),
                put("2", 0, "x", "n", 2.0, 4.0),
                get("3", 1, "x", seen, 2.5, 3.5),  # overlaps the new write
            )
            assert report.ok is True, seen

    def test_keys_are_independent(self):
        report = check(
            put("1", 0, "x", "a", 0.0, 1.0),
            put("2", 0, "y", "b", 2.0, 3.0),
            get("3", 1, "x", "a", 4.0, 5.0),
            get("4", 1, "y", "b", 4.0, 5.0),
        )
        assert report.ok is True
        assert {r.key for r in report.results} == {"x", "y"}

    def test_failed_reads_constrain_nothing(self):
        bad_read = OpRecord(
            "2", 1, GET, "x", None, inv=2.0, ret=3.0, ok=False
        )
        report = check(put("1", 0, "x", "a", 0.0, 1.0), bad_read)
        assert report.ok is True


class TestAmbiguousOps:
    """An open-ended put may take effect at any point after inv, or never."""

    def test_open_put_observed_later(self):
        report = check(
            put("1", 0, "x", "a", 0.0, 1.0),
            open_put("2", 0, "x", "b", 1.5),
            get("3", 1, "x", "b", 5.0, 6.0),
        )
        assert report.ok is True

    def test_open_put_never_applied(self):
        report = check(
            put("1", 0, "x", "a", 0.0, 1.0),
            open_put("2", 0, "x", "b", 1.5),
            get("3", 1, "x", "a", 5.0, 6.0),
        )
        assert report.ok is True

    def test_open_put_cannot_apply_before_invocation(self):
        # The read completes before the ambiguous put was even invoked,
        # so "it took effect early" is not a legal explanation.
        report = check(
            put("1", 0, "x", "a", 0.0, 1.0),
            get("2", 1, "x", "b", 2.0, 3.0),
            open_put("3", 0, "x", "b", 4.0),
        )
        assert report.ok is False

    def test_open_put_cannot_unapply(self):
        # Once observed, an ambiguous write is fixed in the order: a later
        # read cannot roll back to the pre-write value (no second w(a)).
        report = check(
            put("1", 0, "x", "a", 0.0, 1.0),
            open_put("2", 0, "x", "b", 1.5),
            get("3", 1, "x", "b", 2.0, 3.0),
            get("4", 1, "x", "a", 3.5, 4.5),
        )
        assert report.ok is False

    def test_open_get_is_dropped(self):
        ops = [
            put("1", 0, "x", "a", 0.0, 1.0),
            OpRecord("2", 1, GET, "x", None, inv=2.0, ret=None, ok=None),
        ]
        assert len(_entries(ops)) == 1
        assert check(*ops).ok is True


class TestRejects:
    def test_stale_read(self):
        # The write of "a" completed; a later read must not miss it.
        report = check(
            put("1", 0, "x", "a", 0.0, 1.0),
            get("2", 1, "x", None, 2.0, 3.0, found=False),
        )
        assert report.ok is False
        [violation] = report.violations
        assert violation.key == "x"
        assert len(violation.witness) == 2
        assert "read of nothing" in violation.reason

    def test_stale_read_of_overwritten_value(self):
        report = check(
            put("1", 0, "x", "old", 0.0, 1.0),
            put("2", 0, "x", "new", 2.0, 3.0),
            get("3", 1, "x", "old", 4.0, 5.0),
        )
        assert report.ok is False

    def test_lost_update(self):
        # Both writes acknowledged sequentially; the second vanished.
        report = check(
            put("1", 0, "x", "a", 0.0, 1.0),
            put("2", 1, "x", "b", 2.0, 3.0),
            get("3", 2, "x", "a", 4.0, 5.0),
            get("4", 2, "x", "a", 6.0, 7.0),
        )
        assert report.ok is False

    def test_split_brain_double_observation(self):
        # Two sequential reads observe the two writes in *reverse* write
        # order — the signature of split-brain serving from two logs.
        report = check(
            put("1", 0, "x", "a", 0.0, 0.5),
            put("2", 0, "x", "b", 1.0, 1.5),
            get("3", 1, "x", "b", 2.0, 2.5),
            get("4", 2, "x", "a", 3.0, 3.5),
        )
        assert report.ok is False
        [violation] = report.violations
        # Minimal witness: all four ops are needed to exhibit the cycle.
        assert len(violation.witness) == 4

    def test_witness_is_minimal_prefix(self):
        # A long healthy run followed by one stale read: the witness must
        # stop at the violation, not drag in the later ops.
        ops = []
        t = 0.0
        for i in range(50):
            ops.append(put(f"w{i}", 0, "x", f"v{i}", t, t + 0.5))
            t += 1.0
        ops.append(get("bad", 1, "x", "v10", t, t + 0.5))  # long overwritten
        t += 1.0
        for i in range(50, 60):
            ops.append(put(f"w{i}", 0, "x", f"v{i}", t, t + 0.5))
            t += 1.0
        report = check(*ops)
        assert report.ok is False
        [violation] = report.violations
        assert violation.witness[-1].op_id == "bad"
        assert len(violation.witness) == 51  # 50 earlier puts + the bad read

    def test_witness_blames_the_illegal_read_not_a_legal_one(self):
        # get→b legally observes put b, which is still in flight when get→b
        # returns; the contradiction is get→a after put b returned.  The
        # prefix ending at get→b must count put b as in flight, so the
        # witness runs to get→a and blames it.
        report = check(
            put("pa", 0, "x", "a", 0.0, 1.0),
            put("pb", 1, "x", "b", 2.0, 6.0),
            get("gb", 2, "x", "b", 3.0, 4.0),
            get("ga", 3, "x", "a", 7.0, 8.0),
        )
        assert report.ok is False
        [violation] = report.violations
        assert [op.op_id for op in violation.witness] == ["pa", "pb", "gb", "ga"]
        assert violation.reason.startswith("read of 'a' at [7.000,8.000]")

    def test_one_bad_key_does_not_taint_others(self):
        report = check(
            put("1", 0, "x", "a", 0.0, 1.0),
            get("2", 1, "x", None, 2.0, 3.0, found=False),
            put("3", 0, "y", "b", 0.0, 1.0),
            get("4", 1, "y", "b", 2.0, 3.0),
        )
        assert report.ok is False
        assert [v.key for v in report.violations] == ["x"]
        good = [r for r in report.results if r.key == "y"]
        assert good[0].ok is True


class TestBudget:
    def test_exhausted_budget_reports_unknown_not_violation(self):
        # Enough ops that the search crosses a budget-check stride.
        ops = [
            put(f"w{i}", i % 4, "x", f"v{i}", float(i), i + 0.5)
            for i in range(600)
        ]
        report = check(*ops, time_budget=0.0)
        assert report.ok is None
        assert report.budget_exhausted
        assert not report.violations
        assert "unknown" in report.summary()

    def test_budget_object_trips_after_deadline(self):
        budget = _Budget(0.0)
        assert any(budget.spent() for _ in range(10_000))

    def test_large_history_within_budget(self):
        # 2k sequential ops must check in well under a second (the search
        # is near-linear for low-contention histories).
        ops, value, t = [], None, 0.0
        for i in range(2000):
            t += 1.0
            if i % 3 == 0:
                value = f"v{i}"
                ops.append(put(f"w{i}", i % 4, "x", value, t, t + 0.5))
            else:
                ops.append(get(f"r{i}", i % 4, "x", value, t, t + 0.5,
                               found=value is not None))
        report = check(*ops, time_budget=10.0)
        assert report.ok is True


def test_unwritten_sentinel_is_not_a_value():
    assert UNWRITTEN is not None
    report = check_history(
        History.from_ops([get("1", 0, "x", None, 0.0, 1.0, found=True)])
    )
    # found=True with value None: legal only if someone wrote None — nobody
    # did, and "unwritten" must not compare equal to the None value.
    assert report.ok is False
