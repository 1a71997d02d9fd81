"""Power-failure chaos campaigns — durability's acceptance criteria.

A seeded campaign of power failures (single-node, whole-cluster, torn
final frames, flipped bits) against a cluster persisting to real data
directories must produce a linearizable history: every restart is WAL
crash recovery, so acked writes either survive or the checker screams.
The same campaign with the ``lost-ack`` bug injected (writes acked
before fsync) must FAIL with a minimal witness.  Marked ``chaos``:
opt in with ``pytest -m chaos``.
"""

import pytest

from repro.chaos import FaultPlan, campaign, check_history
from repro.core.runtime import AsyncioRuntime

pytestmark = pytest.mark.chaos


def _campaign(
    *,
    seed,
    data_dir,
    duration=12.0,
    kinds=("power-fail", "power-fail-all", "torn-tail", "bit-flip"),
    lost_ack_bug=False,
):
    """Run the shared campaign on a real data dir; returns the report."""
    rt = AsyncioRuntime()
    result = rt.run(
        campaign.run(
            rt,
            FaultPlan.random_campaign(
                seed, duration=duration, period=3.0, kinds=kinds
            ),
            nodes=5,
            shards=2,
            seed=seed,
            duration=duration,
            grace=2.0,  # post-heal reads: recovered state reads consistently
            data_dir=data_dir,
            lost_ack_bug=lost_ack_bug,
        ),
        timeout=300.0,
    )
    assert len(result.history) > 100, "campaign produced too little history"
    return check_history(result.history, time_budget=60.0)


class TestDurabilityCampaigns:
    def test_power_failure_campaign_is_linearizable(self, tmp_path):
        """Correct WAL + fsync barriers survive every power-failure kind,
        including full-cluster outages that restart from disk alone,
        with the fsync on the durability-watermark thread."""
        report = _campaign(seed=5, data_dir=str(tmp_path))
        assert report.ok is True, report.summary()

    def test_lost_ack_bug_is_caught_with_witness(self, tmp_path):
        """Acking before fsync must fail the check after a full power
        loss: the cluster forgets writes it confirmed, and the checker
        produces a witness proving it.  The threaded barrier must not
        mask the bug: with fsync skipped the watermark still advances,
        so acks escape and the canary still fires."""
        report = _campaign(
            seed=5,
            data_dir=str(tmp_path),
            kinds=("power-fail-all",),
            lost_ack_bug=True,
        )
        assert report.ok is False, report.summary()
        violation = report.violations[0]
        assert violation.witness, "violations must carry a witness"
        # Same witness-quality bar as the stale-reads canary: ordered,
        # minimal, and it names the contradiction.
        assert violation.witness == sorted(
            violation.witness, key=lambda o: o.inv
        )
        assert len(violation.witness) <= violation.ops
        assert "linearized" in violation.reason or "linearization" in (
            violation.reason
        )
