"""DST over the live production stack (``repro.dst.livestack``).

The acceptance bar for live-stack DST is *byte identity*: the same
:class:`~repro.dst.livestack.LiveScenario` — a full 3-node × 2-shard
``KVServer`` cluster with real framing, redirects, batching, a seeded
nemesis and a recorded workload, all in virtual time — must replay to
the identical client history, the identical merged node trace, the
identical nemesis log and the identical checker verdict, run after run.
Everything else (shrinking, the corpus, CLI sweeps) stands on that.
"""

import json
import os

import pytest

from repro.chaos.nemesis import FaultEvent
from repro.dst import explore, load_case, shrink
from repro.dst.cli import main as dst_main
from repro.dst.livestack import (
    LiveScenario,
    generate_live_scenarios,
    run_live,
)

#: Short but not trivial: two fault-heal cycles, a couple hundred ops.
SCENARIO = LiveScenario(
    n=3,
    shards=2,
    seed=42,
    duration=3.0,
    clients=3,
    op_pause=0.01,
    grace=1.0,
    faults=(
        FaultEvent(0.8, "partition-leader", (("roll", 0.31),)),
        FaultEvent(1.6, "heal"),
        FaultEvent(1.6, "restart"),
        FaultEvent(2.2, "kill-leader", (("roll", 0.77),)),
        FaultEvent(2.8, "heal"),
        FaultEvent(2.8, "restart"),
    ),
)


class TestByteIdentity:
    def test_same_scenario_replays_byte_identical(self):
        """The tentpole assertion: every artifact of a run — history,
        trace, nemesis log, verdict, and the fingerprint over them all —
        is a pure function of the scenario."""
        a = run_live(SCENARIO)
        b = run_live(SCENARIO)
        assert a.outcome.status == "ok", a.outcome
        assert a.history_jsonl == b.history_jsonl
        assert a.trace_text == b.trace_text
        assert a.nemesis_log == b.nemesis_log
        assert a.stats == b.stats
        assert a.fingerprint == b.fingerprint

    def test_run_produced_real_work(self):
        """Guard against vacuous determinism: the campaign must commit
        operations, survive its faults, and record nemesis actions."""
        result = run_live(SCENARIO)
        assert result.outcome.status == "ok"
        assert result.outcome.events > 100
        assert result.stats["ok"] > 50
        kinds = [kind for _, kind, _ in result.nemesis_log]
        assert "partition-leader" in kinds and "kill-leader" in kinds
        # The merged node trace carries the consensus-level events too:
        # leadership changes and applied batches, on the same time axis.
        assert "'leader'" in result.trace_text
        assert "'applied'" in result.trace_text

    def test_different_seeds_diverge(self):
        """The fingerprint must actually discriminate executions."""
        from dataclasses import replace

        a = run_live(SCENARIO)
        b = run_live(replace(SCENARIO, seed=43))
        assert a.fingerprint != b.fingerprint

    def test_explore_sweep_digest_is_deterministic(self):
        base = LiveScenario(duration=2.0, clients=2, grace=0.8)
        scenarios = generate_live_scenarios(2, 9, base=base, fault_period=1.0)
        sweeps = [explore("live", scenarios=scenarios) for _ in range(2)]
        assert sweeps[0].digest() == sweeps[1].digest()
        assert sweeps[0].fingerprints == sweeps[1].fingerprints
        assert sweeps[0].schedules == 2

    def test_pool_sweep_matches_in_process(self):
        """``--workers`` means the same thing on both stacks: scenarios
        cross the pool as dicts, results come back in generation order,
        and the sink still sees every one."""
        base = LiveScenario(duration=1.5, clients=2, grace=0.5)
        scenarios = generate_live_scenarios(4, 3, base=base, fault_period=0.7)
        seen = []
        pooled = explore(
            "live",
            scenarios=scenarios,
            workers=2,
            trace_sink=lambda i, s, r: seen.append((i, s.seed, r.fingerprint)),
        )
        local = explore("live", scenarios=scenarios)
        assert pooled.digest() == local.digest()
        assert pooled.outcomes == local.outcomes == {"ok": 4}
        assert seen == [
            (i, s.seed, f)
            for i, (s, f) in enumerate(zip(scenarios, local.fingerprints))
        ]


class TestEngineRotation:
    def test_sweep_rotates_through_every_engine(self):
        from repro.live.engine import ENGINES

        engines = [s.engine for s in generate_live_scenarios(6, meta_seed=5)]
        assert engines == list(ENGINES) * 2  # schedule 0 stays raft
        only_ct = generate_live_scenarios(3, meta_seed=5, engines=("ct",))
        assert [s.engine for s in only_ct] == ["ct"] * 3

    def test_deposed_ct_leader_does_not_wedge_the_shard(self):
        """A ct leader deposed through an ack kept ``leader_hint``
        pointing at itself, so Ω naming it again never made it campaign
        and the healed cluster stayed leaderless (``no leader for shard 0
        within 30.0s``).  The core's one step-down clears the hint."""
        scenario = LiveScenario(
            n=3,
            shards=2,
            seed=1006443827,
            engine="ct",
            duration=4.0,
            faults=(
                FaultEvent(1.5, "partition", (("roll", 0.8090961772408721),)),
                FaultEvent(2.4, "heal"),
                FaultEvent(2.4, "restart"),
                FaultEvent(3.0, "kill-leader", (("roll", 0.9410857179826054),)),
                FaultEvent(3.9, "heal"),
                FaultEvent(3.9, "restart"),
            ),
        )
        result = run_live(scenario)
        assert result.outcome.status == "ok", result.outcome


@pytest.mark.dst
@pytest.mark.parametrize("tier", ["readindex", "lease", "follower"])
def test_fast_read_tiers_survive_the_sweep(tier):
    """Every default sweep runs the safe tier; this one drives barriers,
    leases and freshness proofs through the same seeded fault schedules
    (30 per tier, every engine in rotation)."""
    scenarios = generate_live_scenarios(
        30, 9, base=LiveScenario(read_tier=tier, duration=3.0)
    )
    sweep = explore("live", scenarios=scenarios, workers=2)
    assert sweep.outcomes == {"ok": 30}, sweep.outcomes


class TestScenarioSerialization:
    def test_round_trip_through_json(self):
        data = json.loads(json.dumps(SCENARIO.to_dict()))
        assert data["stack"] == "live"
        restored = LiveScenario.from_dict(data)
        assert restored == SCENARIO  # FaultEvent args survive list->tuple

    def test_generated_scenarios_are_deterministic(self):
        a = generate_live_scenarios(3, meta_seed=5)
        b = generate_live_scenarios(3, meta_seed=5)
        assert a == b
        assert len({s.seed for s in a}) == 3

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            LiveScenario(inject_bug="nonsense")

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            LiveScenario(faults=(FaultEvent(1.0, "meteor-strike"),))


class TestInjectedBugCanary:
    def test_stale_reads_bug_violates(self):
        """A deliberately broken cluster must produce a violation —
        the oracle path from live history to checker verdict works."""
        scenario = LiveScenario(
            n=3,
            shards=1,
            seed=13,
            duration=4.0,
            clients=3,
            op_pause=0.005,
            inject_bug="stale-reads",
            faults=(
                FaultEvent(1.0, "partition-leader", (("roll", 0.2),)),
                FaultEvent(3.0, "heal"),
                FaultEvent(3.0, "restart"),
            ),
        )
        outcome = scenario.run().outcome
        assert outcome.status == "violation", outcome
        assert outcome.violation.kind == "linearizability"
        assert outcome.violation.event_index >= 0


class TestSharedPipeline:
    """The live stack rides the ordinary shrink / CLI / replay code."""

    CASE = os.path.join(
        os.path.dirname(__file__), "..", "regressions", "corpus",
        "live-unbounded-lease-linearizability-n3-seed11.json",
    )

    def test_shrink_keeps_the_kind_and_never_grows(self):
        case = load_case(self.CASE)
        result = shrink(case.scenario, case.violation, max_attempts=4)
        assert result.attempts <= 4
        assert result.violation.kind == case.violation.kind
        small, big = result.scenario, case.scenario
        assert len(small.faults) <= len(big.faults)
        assert small.duration <= big.duration
        assert small.clients <= big.clients

    def test_cli_sweep_prints_a_digest(self, capsys):
        argv = ["explore", "--stack", "live", "--schedules", "2",
                "--duration", "2", "--quiet"]
        assert dst_main(argv) == 0
        out = capsys.readouterr().out
        assert "live: {'ok': 2}" in out
        assert "sweep digest: " in out

    def test_cli_replays_a_live_corpus_file(self, capsys):
        assert dst_main(["replay", self.CASE]) == 0
        assert "recorded violation reproduces" in capsys.readouterr().out

    def test_cli_fails_closed_on_harness_errors(self, capsys, monkeypatch):
        """An errored schedule verified nothing: the sweep must not exit
        0, and two all-error sweeps must not match on the hash of no
        fingerprints at all."""

        def boom(*_args, **_kwargs):
            raise TimeoutError("no leader for shard 0 within 30.0s")

        monkeypatch.setattr("repro.chaos.campaign.LiveKVCluster", boom)
        argv = ["explore", "--stack", "live", "--schedules", "3", "--quiet"]
        assert dst_main(argv) == 2
        out = capsys.readouterr().out
        assert "live: {'error': 3}" in out
        empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        assert "sweep digest: " in out and empty not in out
        # Canary sweeps are no exception.
        assert dst_main(argv + ["--inject-bug", "stale-reads"]) == 2

    def test_cli_rejects_an_unknown_fault_kind(self, capsys):
        argv = ["explore", "--stack", "live", "--kinds", "bogus"]
        assert dst_main(argv) == 2
        assert "unknown fault kind 'bogus'" in capsys.readouterr().err
