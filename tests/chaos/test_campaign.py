"""End-to-end chaos campaigns.

A seeded campaign (leader kills + partitions against a 5-node, 2-shard
cluster) must produce a history the checker verifies linearizable; the
same campaign with a known consistency bug injected (lin reads served
from a deposed leader's local state) must FAIL the check with a minimal
witness.  The same runner on ``SimRuntime`` pins availability under
leader kills on every engine.  The campaigns are marked ``chaos`` (opt
in with ``pytest -m chaos``); the knob tests are tier-1.
"""

import pytest

from repro.chaos import FaultPlan, campaign, check_history
from repro.chaos.cli import main as chaos_main
from repro.core.runtime import AsyncioRuntime, SimRuntime
from repro.live import ENGINES


def _run(rt, plan, **kwargs):
    """Run the shared campaign on ``rt``; returns the result and its check."""
    result = rt.run(
        campaign.run(
            rt,
            plan,
            grace=2.0,  # post-heal reads: every key must read consistently
            clients=4,
            **kwargs,
        ),
        timeout=300.0,
    )
    assert len(result.history) > 100, "campaign produced too little history"
    return result, check_history(result.history, time_budget=60.0)


def _availability(stats):
    return stats["ok"] / sum(stats.values())


def _campaign(
    *,
    seed,
    duration=10.0,
    kinds=("kill-leader", "partition", "partition-leader"),
    nodes=5,
    shards=2,
    lease_attack=False,
    **cluster_kwargs,
):
    """Run the shared campaign on real sockets; returns the check report."""
    if lease_attack:
        plan = FaultPlan.lease_attack_campaign(
            seed, duration=duration, period=3.0
        )
    else:
        plan = FaultPlan.random_campaign(
            seed, duration=duration, period=3.0, kinds=kinds
        )
    _, report = _run(
        AsyncioRuntime(),
        plan,
        nodes=nodes,
        shards=shards,
        seed=seed,
        duration=duration,
        **cluster_kwargs,
    )
    return report


class TestCampaignKnobs:
    """The pure halves of a campaign: bug -> cluster keywords, --kinds."""

    def test_correct_cluster_passes_tier_and_bound_through(self):
        options, needs_disk = campaign.cluster_options(
            None, "readindex", 0.25, ("kill-leader", "partition")
        )
        assert options == dict(
            unsafe_lin_reads=False,
            lost_ack_bug=False,
            read_tier="readindex",
            drift_bound=0.25,
        )
        assert needs_disk is False

    def test_unbounded_lease_forces_lease_tier_and_zero_bound(self):
        options, _ = campaign.cluster_options(
            "unbounded-lease", "safe", 0.25, ()
        )
        assert options["read_tier"] == "lease"
        assert options["drift_bound"] == 0.0
        # A faster tier the caller chose is kept; only the bound goes.
        options, _ = campaign.cluster_options(
            "unbounded-lease", "follower", 0.25, ()
        )
        assert options["read_tier"] == "follower"
        assert options["drift_bound"] == 0.0

    def test_stale_reads_sets_unsafe_lin_reads(self):
        options, needs_disk = campaign.cluster_options(
            "stale-reads", "safe", 0.03, ("partition-leader",)
        )
        assert options["unsafe_lin_reads"] is True
        assert options["lost_ack_bug"] is False
        assert needs_disk is False

    @pytest.mark.parametrize(
        "bug, kinds",
        [
            ("lost-ack", ("kill-leader",)),
            (None, ("partition", "torn-tail")),
            ("", ("power-fail-all",)),
        ],
    )
    def test_lost_ack_or_any_durability_kind_needs_a_data_dir(self, bug, kinds):
        options, needs_disk = campaign.cluster_options(bug, "safe", 0.03, kinds)
        assert needs_disk is True
        assert options["lost_ack_bug"] is (bug == "lost-ack")

    def test_parse_kinds(self):
        assert campaign.parse_kinds(" drop, delay ,") == ("drop", "delay")
        with pytest.raises(ValueError, match="unknown fault kind 'bogus'"):
            campaign.parse_kinds("drop,bogus")

    @pytest.mark.parametrize(
        "spec, message",
        [("bogus", "unknown fault kind 'bogus' (choose from"),
         (",", "need at least one fault kind")],
    )
    def test_cli_rejects_bad_kinds(self, capsys, spec, message):
        with pytest.raises(SystemExit) as exc:
            chaos_main(["chaos", "--kinds", spec])
        assert exc.value.code == 2
        assert f"error: argument --kinds: {message}" in capsys.readouterr().err


@pytest.mark.chaos
class TestCampaigns:
    def test_seeded_campaign_is_linearizable(self):
        """A correct cluster survives leader kills and partitions."""
        report = _campaign(seed=7)
        assert report.ok is True, report.summary()

    def test_stale_read_bug_is_caught_with_witness(self):
        """The injected deposed-leader bug must fail the check."""
        report = _campaign(
            seed=7,
            kinds=("partition-leader",),
            unsafe_lin_reads=True,
        )
        assert report.ok is False, report.summary()
        violation = report.violations[0]
        assert violation.witness, "violations must carry a witness"
        # The witness is a usable artifact: ordered, ends at the
        # contradiction, and far smaller than the whole history.
        assert violation.witness == sorted(
            violation.witness, key=lambda o: o.inv
        )
        assert len(violation.witness) <= violation.ops
        assert "linearized" in violation.reason or "linearization" in (
            violation.reason
        )

    def test_lease_attack_with_drift_bound_is_linearizable(self):
        """Clock-skewed, isolated leaseholders with a correct drift
        bound stop serving before a rival can commit past them."""
        report = _campaign(
            seed=11,
            nodes=3,
            shards=1,
            lease_attack=True,
            read_tier="lease",
            drift_bound=0.25,
        )
        assert report.ok is True, report.summary()

    def test_unbounded_lease_is_caught_with_witness(self):
        """A lease that ignores clock drift serves stale reads after
        deposition; the checker must reject the history."""
        report = _campaign(
            seed=11,
            nodes=3,
            shards=1,
            lease_attack=True,
            read_tier="lease",
            drift_bound=0.0,
        )
        assert report.ok is False, report.summary()
        violation = report.violations[0]
        assert violation.witness, "violations must carry a witness"
        assert len(violation.witness) <= violation.ops


@pytest.mark.chaos
class TestVirtualTimeCampaigns:
    """The same campaign on :class:`SimRuntime`: a leader kill per engine on
    3 nodes, and kills plus partitions on 5 nodes x 2 shards.  Every answer
    must be linearizable, a killed leader may stall only its shard for an
    election, and the healed cluster must serve essentially every request."""

    @pytest.mark.parametrize(
        "engine, nodes, shards, seed, duration, period, kinds",
        [
            *(
                pytest.param(
                    engine, 3, 1, 17, 6.0, 2.0, ("kill-leader",),
                    id=f"{engine}-3x1",
                )
                for engine in ENGINES
            ),
            pytest.param(
                "raft", 5, 2, 15, 8.0, 2.5, ("kill-leader", "partition"),
                id="raft-5x2",
            ),
        ],
    )
    def test_available_and_linearizable(
        self, engine, nodes, shards, seed, duration, period, kinds
    ):
        rt = SimRuntime()
        try:
            result, report = _run(
                rt,
                FaultPlan.random_campaign(
                    seed, duration=duration, period=period, kinds=kinds
                ),
                nodes=nodes,
                shards=shards,
                seed=seed,
                duration=duration,
                deterministic_ids=True,
                engine=engine,
            )
        finally:
            rt.close()
        assert report.ok is True, report.summary()
        assert any(a.kind == "kill-leader" for a in result.nemesis_log)
        assert sum(result.fault_stats.values()) >= 200, result.fault_stats
        assert _availability(result.fault_stats) >= 0.3, result.fault_stats
        assert _availability(result.post_heal_stats) >= 0.9, (
            result.post_heal_stats
        )
