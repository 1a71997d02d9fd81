"""The nemesis: timed fault campaigns against a live KV cluster.

A :class:`FaultPlan` is a declarative, seed-reproducible schedule of
:class:`FaultEvent`\\ s — *when* to do *what* — and :class:`Nemesis`
executes one against a running
:class:`~repro.live.harness.LiveKVCluster`, using the harness for
process faults (kill/restart) and the transport fault hooks
(:meth:`~repro.live.transport.PeerTransport.set_link_fault`) for network
faults.  Everything the nemesis does is appended to ``log`` with a
wall-clock timestamp, so campaign timelines can overlay faults on the
recorded client history.

Fault kinds
-----------
``kill-leader``       kill shard 0's current leader (crash, no warning)
``kill-random``       kill a random live node (never breaking majority)
``restart``           restart every killed node
``partition``         symmetric split: a random minority is black-holed
                      from the rest, both directions, every live node
``partition-leader``  isolate a shard's current leader from all peers —
                      the deposed-leader scenario that exposes stale-read
                      bugs (the majority elects a new leader; the old
                      one, alone, still believes it leads)
``asym-partition``    one-way black-hole: a random node stops *sending*
                      (its peers still reach it) — the asymmetric case
                      that breaks naive failure detectors
``drop``              probabilistic loss on every link of one random node
``delay``             extra one-way latency on every link of one node
``timeout-skew``      scale one node's election-timeout ranges (a slow or
                      hasty clock), restored on ``heal``; skipped on an
                      engine without an election timer (``ct``)
``clock-skew``        slow a node's *drift clock* by ``factor`` — the
                      clock the read path's leader lease is measured on
                      — preferring the current leader (the dangerous
                      victim: a slow-clocked leaseholder under-measures
                      how much real time its lease has burned);
                      restored on ``heal``
``heal``              clear every link fault and timeout skew
``power-fail``        cut one node's power: an abrupt kill where WAL
                      state not yet fsynced is really lost; ``restart``
                      later cold-starts it from its data directory
``power-fail-all``    cut the *whole cluster's* power at once — the one
                      fault that deliberately bypasses the majority
                      guard, because with durable storage even a full
                      outage must preserve every acknowledged write
                      (requires a cluster ``data_dir``)
``torn-tail``         power-fail one node mid-write: a strict prefix of
                      its last WAL frame lands on disk, so recovery must
                      truncate the torn tail
``bit-flip``          power-fail one node and flip a bit inside its WAL
                      segment body (silent disk corruption); recovery
                      truncates from the damage or quarantines the
                      directory and the node rejoins empty

The nemesis never kills more than a strict minority (``power-fail-all``
excepted, by design), so a correct cluster must keep committing through
the whole campaign — which is exactly what the availability checks
(E15) measure and the linearizability checker verifies.
"""

from __future__ import annotations

import asyncio
import os
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.trigger import TimerTrigger
from repro.live.harness import LiveKVCluster
from repro.storage.wal import flip_bit

#: Every fault kind a plan may schedule.  New kinds are appended at the
#: end: :meth:`FaultPlan.random_campaign` draws are position-sensitive,
#: and seeded plans must stay reproducible across versions.
FAULT_KINDS = (
    "kill-leader",
    "kill-random",
    "restart",
    "partition",
    "partition-leader",
    "asym-partition",
    "drop",
    "delay",
    "timeout-skew",
    "heal",
    "power-fail",
    "power-fail-all",
    "torn-tail",
    "bit-flip",
    "clock-skew",
)

#: The default campaign mix: each cycle injects one disruptive fault,
#: lets it bite, then heals/restarts so the cluster must re-converge.
DEFAULT_KINDS = (
    "kill-leader",
    "partition",
    "partition-leader",
    "kill-random",
    "asym-partition",
)

#: The power-failure campaign mix for clusters with durable storage:
#: every fault forces at least one node through WAL crash recovery.
DURABILITY_KINDS = (
    "power-fail",
    "power-fail-all",
    "torn-tail",
    "bit-flip",
)

#: The lease-attack mix: skew the leaseholder's clock, isolate deposed
#: leaders, and stretch election timers — the faults that break a
#: mis-bounded clock lease (``--read-tier lease``, see docs/reads.md).
LEASE_ATTACK_KINDS = (
    "clock-skew",
    "partition-leader",
    "timeout-skew",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled nemesis action at ``at`` seconds into the campaign."""

    at: float
    kind: str
    args: Tuple[Tuple[str, Any], ...] = ()

    def arg(self, name: str, default: Any = None) -> Any:
        return dict(self.args).get(name, default)


@dataclass(frozen=True)
class FaultPlan:
    """A validated, time-ordered schedule of fault events."""

    events: Tuple[FaultEvent, ...]
    seed: Optional[int] = None

    def __post_init__(self):
        last = -1.0
        for event in self.events:
            if event.kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {event.kind!r} "
                    f"(choose from {FAULT_KINDS})"
                )
            if event.at < 0:
                raise ValueError(f"fault time must be >= 0, got {event.at}")
            if event.at < last:
                raise ValueError("fault events must be time-ordered")
            last = event.at

    @property
    def duration(self) -> float:
        return self.events[-1].at if self.events else 0.0

    @classmethod
    def random_campaign(
        cls,
        seed: int,
        *,
        duration: float = 30.0,
        period: float = 3.0,
        kinds: Sequence[str] = DEFAULT_KINDS,
        heal_fraction: float = 0.6,
        drop_prob: float = 0.4,
        delay: float = 0.05,
        skew_factor: float = 3.0,
        clock_factor: float = 4.0,
    ) -> "FaultPlan":
        """A seeded disrupt→heal cycle schedule.

        Deterministic: the same ``(seed, parameters)`` always yields the
        identical plan (the determinism test pins this).  Each ``period``
        starts one randomly chosen disruption; ``heal_fraction`` of the
        way through the period the damage is repaired (``heal`` plus
        ``restart``), so the cluster alternates between surviving a fault
        and recovering from it.
        """
        if not kinds:
            raise ValueError("need at least one fault kind")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        if period <= 0:
            raise ValueError("period must be positive")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        at = period
        while at < duration:
            kind = kinds[rng.randrange(len(kinds))]
            args: Tuple[Tuple[str, Any], ...] = ()
            if kind == "drop":
                args = (("prob", drop_prob),)
            elif kind == "delay":
                args = (("delay", delay),)
            elif kind == "timeout-skew":
                args = (("factor", skew_factor),)
            elif kind == "clock-skew":
                args = (("factor", clock_factor),)
            # One random draw reserved per event for victim selection, so
            # inserting new kinds upstream never shifts later victims.
            victim_roll = rng.random()
            events.append(
                FaultEvent(round(at, 6), kind, args + (("roll", victim_roll),))
            )
            heal_at = at + heal_fraction * period
            if heal_at < duration:
                events.append(FaultEvent(round(heal_at, 6), "heal"))
                events.append(FaultEvent(round(heal_at, 6), "restart"))
            at += period
        return cls(tuple(events), seed=seed)

    @classmethod
    def lease_attack_campaign(
        cls,
        seed: int,
        *,
        duration: float = 20.0,
        period: float = 3.0,
        clock_factor: float = 4.0,
        skew_factor: float = 3.0,
        heal_fraction: float = 0.6,
    ) -> "FaultPlan":
        """The compound attack on clock-based leases.

        Unlike :meth:`random_campaign`, faults here are *stacked*, not
        independent: each cycle slows the current leaseholder's drift
        clock, stretches a random node's election timers, and only
        *then* isolates the (still skewed) leader from its peers.  The
        deposed leader's lease now burns real time ``clock_factor``
        times faster than it measures — with a correctly sized drift
        bound it stops serving before the majority's new leader can
        commit; with ``drift_bound = 0`` it keeps answering long after,
        which is the stale read the checker must catch.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        at = period
        while at < duration:
            roll = rng.random()
            events.append(
                FaultEvent(
                    round(at, 6),
                    "clock-skew",
                    (("factor", clock_factor), ("roll", roll)),
                )
            )
            events.append(
                FaultEvent(
                    round(at + 0.2, 6),
                    "timeout-skew",
                    (("factor", skew_factor), ("roll", roll)),
                )
            )
            events.append(
                FaultEvent(
                    round(at + 0.4, 6),
                    "partition-leader",
                    (("roll", roll),),
                )
            )
            heal_at = at + heal_fraction * period
            if heal_at < duration:
                events.append(FaultEvent(round(heal_at, 6), "heal"))
                events.append(FaultEvent(round(heal_at, 6), "restart"))
            at += period
        return cls(tuple(events), seed=seed)


@dataclass
class NemesisAction:
    """What the nemesis actually did (for logs and timeline overlays)."""

    at: float
    kind: str
    detail: str


class Nemesis:
    """Execute a :class:`FaultPlan` against a live cluster harness.

    Args:
        cluster: the running harness (nodes may already be missing).
        plan: the schedule to execute.
        seed: randomness for victim selection beyond the plan's
            pre-rolled choices (defaults to the plan's own seed).
    """

    def __init__(
        self,
        cluster: LiveKVCluster,
        plan: FaultPlan,
        *,
        seed: Optional[int] = None,
    ):
        self.cluster = cluster
        self.plan = plan
        self.rng = random.Random(plan.seed if seed is None else seed)
        self.log: List[NemesisAction] = []
        #: Per victim, each shard's election-timeout range before the skew.
        self._skewed: Dict[int, Dict[int, Tuple[float, float]]] = {}
        self._clock_skewed: set = set()
        self._epoch: Optional[float] = None

    # ------------------------------------------------------------------
    # Campaign loop
    # ------------------------------------------------------------------

    async def run(self) -> List[NemesisAction]:
        """Execute the whole plan; returns the action log.

        Sleeps are relative to the campaign start, so event times in the
        log line up with history timestamps recorded on the same loop.
        """
        loop = asyncio.get_event_loop()
        start = loop.time()
        self._epoch = start
        for event in self.plan.events:
            delay = start + event.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await self.apply(event)
        return self.log

    async def apply(self, event: FaultEvent) -> None:
        """Apply one event now (dispatch by kind)."""
        handler = {
            "kill-leader": self._kill_leader,
            "kill-random": self._kill_random,
            "restart": self._restart_all,
            "partition": self._partition,
            "partition-leader": self._partition_leader,
            "asym-partition": self._asym_partition,
            "drop": self._drop,
            "delay": self._delay,
            "timeout-skew": self._timeout_skew,
            "clock-skew": self._clock_skew,
            "heal": self._heal,
            "power-fail": self._power_fail,
            "power-fail-all": self._power_fail_all,
            "torn-tail": self._torn_tail,
            "bit-flip": self._bit_flip,
        }[event.kind]
        await handler(event)

    def _note(self, kind: str, detail: str) -> None:
        loop = asyncio.get_event_loop()
        at = loop.time() - self._epoch if self._epoch is not None else 0.0
        self.log.append(NemesisAction(at, kind, detail))

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def _alive(self) -> List[int]:
        return self.cluster.alive()

    def _may_kill(self) -> bool:
        n = len(self.cluster.servers)
        dead = n - len(self._alive())
        return dead + 1 <= (n - 1) // 2

    def _pick(self, candidates: Sequence[int], event: FaultEvent) -> int:
        roll = event.arg("roll")
        if roll is None:
            roll = self.rng.random()
        return candidates[int(roll * len(candidates)) % len(candidates)]

    # ------------------------------------------------------------------
    # Process faults
    # ------------------------------------------------------------------

    async def _kill_leader(self, event: FaultEvent) -> None:
        if not self._may_kill():
            self._note("kill-leader", "skipped: would break majority")
            return
        shard = event.arg("shard", 0)
        leader = self.cluster.leader_pid(shard)
        if leader is None:
            self._note("kill-leader", f"skipped: shard {shard} has no leader")
            return
        await self.cluster.kill(leader)
        self._note("kill-leader", f"killed node {leader} (shard {shard} leader)")

    async def _kill_random(self, event: FaultEvent) -> None:
        if not self._may_kill():
            self._note("kill-random", "skipped: would break majority")
            return
        alive = self._alive()
        if not alive:
            self._note("kill-random", "skipped: nothing alive")
            return
        victim = self._pick(alive, event)
        await self.cluster.kill(victim)
        self._note("kill-random", f"killed node {victim}")

    async def _restart_all(self, event: FaultEvent) -> None:
        revived = []
        for pid, server in enumerate(self.cluster.servers):
            if server is None:
                await self.cluster.restart(pid)
                revived.append(pid)
        self._note(
            "restart",
            f"restarted nodes {revived}" if revived else "nothing to restart",
        )

    # ------------------------------------------------------------------
    # Power-failure faults (durable storage + WAL recovery)
    # ------------------------------------------------------------------

    def _shard_dirs(self, pid: int) -> List[str]:
        """Node ``pid``'s per-shard storage directories (may be empty)."""
        base = self.cluster.node_data_dir(pid)
        if base is None or not os.path.isdir(base):
            return []
        return sorted(
            os.path.join(base, name)
            for name in os.listdir(base)
            if name.startswith("shard-")
        )

    async def _power_fail(self, event: FaultEvent) -> None:
        if not self._may_kill():
            self._note("power-fail", "skipped: would break majority")
            return
        alive = self._alive()
        if not alive:
            self._note("power-fail", "skipped: nothing alive")
            return
        victim = self._pick(alive, event)
        await self.cluster.kill(victim)
        self._note("power-fail", f"node {victim} lost power")

    async def _power_fail_all(self, event: FaultEvent) -> None:
        """Full-cluster outage — the durability acid test.

        Deliberately bypasses the majority guard: with fsynced WALs a
        simultaneous power loss of every node must still preserve every
        acknowledged write, and with the ``lost-ack`` bug injected this
        is the fault that makes acked-but-unsynced state vanish
        *everywhere* so the checker can catch it.
        """
        if self.cluster.data_dir is None:
            self._note(
                "power-fail-all", "skipped: cluster has no data dir"
            )
            return
        alive = self._alive()
        if not alive:
            self._note("power-fail-all", "skipped: nothing alive")
            return
        for pid in alive:
            await self.cluster.kill(pid)
        self._note(
            "power-fail-all", f"whole cluster lost power: nodes {alive}"
        )

    async def _torn_tail(self, event: FaultEvent) -> None:
        if self.cluster.data_dir is None:
            self._note("torn-tail", "skipped: cluster has no data dir")
            return
        if not self._may_kill():
            self._note("torn-tail", "skipped: would break majority")
            return
        alive = self._alive()
        if not alive:
            self._note("torn-tail", "skipped: nothing alive")
            return
        victim = self._pick(alive, event)
        await self.cluster.kill(victim, torn=True)
        self._note(
            "torn-tail",
            f"node {victim} lost power mid-write (torn last WAL frame)",
        )

    async def _bit_flip(self, event: FaultEvent) -> None:
        if self.cluster.data_dir is None:
            self._note("bit-flip", "skipped: cluster has no data dir")
            return
        if not self._may_kill():
            self._note("bit-flip", "skipped: would break majority")
            return
        alive = self._alive()
        if not alive:
            self._note("bit-flip", "skipped: nothing alive")
            return
        victim = self._pick(alive, event)
        await self.cluster.kill(victim)
        damaged = [
            os.path.basename(path)
            for directory in self._shard_dirs(victim)
            for path in [flip_bit(directory)]
            if path is not None
        ]
        self._note(
            "bit-flip",
            f"node {victim} down, corrupted {damaged or 'no segments'}",
        )

    # ------------------------------------------------------------------
    # Network faults (transport hooks)
    # ------------------------------------------------------------------

    def _transports(self):
        for server in self.cluster.servers:
            if server is not None:
                yield server.pid, server.transport

    def _split(self, kind: str, alive: List[int], minority: set) -> None:
        """Black-hole every link between ``minority`` and the rest."""
        majority = [pid for pid in alive if pid not in minority]
        for pid, transport in self._transports():
            others = minority if pid not in minority else majority
            for peer in others:
                if peer != pid:
                    transport.set_link_fault(peer, blackhole=True)
        self._note(kind, f"split {sorted(minority)} | {sorted(majority)}")

    async def _partition(self, event: FaultEvent) -> None:
        """Symmetric split: a random strict minority vs the rest."""
        alive = self._alive()
        if len(alive) < 2:
            self._note("partition", "skipped: fewer than two nodes alive")
            return
        n = len(self.cluster.servers)
        minority_size = max(1, (n - 1) // 2)
        seed_pid = self._pick(alive, event)
        rotation = alive[alive.index(seed_pid):] + alive[:alive.index(seed_pid)]
        self._split("partition", alive, set(rotation[:minority_size]))

    async def _partition_leader(self, event: FaultEvent) -> None:
        """Isolate a shard's current leader from every peer, alone.

        With no minority partner to outvote it and no check-quorum, the
        old leader keeps believing it leads for the whole partition while
        the majority elects a replacement and commits past it — the
        deposed-leader scenario where only committed (read-as-log-entry)
        lin reads stay safe, and where ``unsafe_lin_reads`` produces the
        stale reads the checker must catch.
        """
        alive = self._alive()
        if len(alive) < 2:
            self._note(
                "partition-leader", "skipped: fewer than two nodes alive"
            )
            return
        shards = self.cluster.shard_count
        roll = event.arg("roll")
        shard = (
            int(roll * shards) % shards if roll is not None
            else self.rng.randrange(shards)
        )
        leader = self.cluster.leader_pid(shard)
        if leader is None or leader not in alive:
            self._note(
                "partition-leader", f"skipped: shard {shard} has no live leader"
            )
            return
        self._split("partition-leader", alive, {leader})

    async def _asym_partition(self, event: FaultEvent) -> None:
        """One node's outbound links go dark; inbound still works."""
        alive = self._alive()
        if len(alive) < 2:
            self._note("asym-partition", "skipped: fewer than two nodes alive")
            return
        victim = self._pick(alive, event)
        server = self.cluster.servers[victim]
        for peer in alive:
            if peer != victim:
                server.transport.set_link_fault(
                    peer, blackhole=True, direction="out"
                )
        self._note("asym-partition", f"node {victim} sends into the void")

    async def _drop(self, event: FaultEvent) -> None:
        alive = self._alive()
        if len(alive) < 2:
            self._note("drop", "skipped: fewer than two nodes alive")
            return
        prob = float(event.arg("prob", 0.4))
        victim = self._pick(alive, event)
        server = self.cluster.servers[victim]
        for peer in alive:
            if peer != victim:
                server.transport.set_link_fault(peer, drop=prob)
        self._note("drop", f"node {victim} loses {prob:.0%} of frames")

    async def _delay(self, event: FaultEvent) -> None:
        alive = self._alive()
        if len(alive) < 2:
            self._note("delay", "skipped: fewer than two nodes alive")
            return
        extra = float(event.arg("delay", 0.05))
        victim = self._pick(alive, event)
        server = self.cluster.servers[victim]
        for peer in alive:
            if peer != victim:
                server.transport.set_link_fault(peer, delay=extra)
        self._note("delay", f"node {victim} links +{extra * 1e3:.0f}ms")

    async def _timeout_skew(self, event: FaultEvent) -> None:
        alive = self._alive()
        if not alive:
            self._note("timeout-skew", "skipped: nothing alive")
            return
        factor = float(event.arg("factor", 3.0))
        victim = self._pick(alive, event)
        timers = {
            shard.shard_id: shard.node.trigger
            for shard in self.cluster.servers[victim].shards
            if isinstance(shard.node.trigger, TimerTrigger)
        }
        if not timers:
            self._note("timeout-skew", "skipped: engine has no election timer")
            return
        # Ranges are per shard (staggered so leadership spreads): save,
        # scale and restore each shard's own.
        base = self._skewed.setdefault(
            victim,
            {shard_id: timer.election_timeout for shard_id, timer in timers.items()},
        )
        for shard_id, timer in timers.items():
            lo, hi = base[shard_id]
            timer.election_timeout = (lo * factor, hi * factor)
        self._note(
            "timeout-skew", f"node {victim} election timeout x{factor:g}"
        )

    async def _clock_skew(self, event: FaultEvent) -> None:
        """Slow a node's drift clock — preferring the current leader.

        Slowing the *leaseholder's* clock is the attack the drift bound
        exists for: the leader under-measures elapsed real time, so its
        lease outlives the followers' stickiness window unless
        ``drift_bound >= lease * (1 - 1/factor)``.  Skewing a follower
        merely stretches its refusal window, which is safe — hence the
        leader preference.
        """
        alive = self._alive()
        if not alive:
            self._note("clock-skew", "skipped: nothing alive")
            return
        factor = float(event.arg("factor", 4.0))
        shard_id = event.arg("shard", 0)
        victim = self.cluster.leader_pid(shard_id)
        if victim is None or victim not in alive:
            victim = self._pick(alive, event)
        server = self.cluster.servers[victim]
        for shard in server.shards:
            shard.node.reads.clock.set_factor(factor, shard.runtime.now)
        self._clock_skewed.add(victim)
        self._note(
            "clock-skew", f"node {victim} drift clock x{factor:g} slow"
        )

    async def _heal(self, event: FaultEvent) -> None:
        for _pid, transport in self._transports():
            transport.heal_link()
        for pid, base in list(self._skewed.items()):
            server = self.cluster.servers[pid]
            if server is not None:
                for shard in server.shards:
                    if shard.shard_id in base:
                        shard.node.trigger.election_timeout = base[shard.shard_id]
            del self._skewed[pid]
        for pid in list(self._clock_skewed):
            server = self.cluster.servers[pid]
            if server is not None:
                for shard in server.shards:
                    shard.node.reads.clock.set_factor(1.0, shard.runtime.now)
            self._clock_skewed.discard(pid)
        self._note("heal", "all link faults cleared, clocks restored")


def partition_cluster(
    cluster: LiveKVCluster, side_a: Sequence[int], side_b: Sequence[int]
) -> None:
    """Black-hole every link between ``side_a`` and ``side_b`` (both
    directions on both sides — also usable directly from tests)."""
    for pid in side_a:
        server = cluster.servers[pid]
        if server is None:
            continue
        for peer in side_b:
            if peer != pid:
                server.transport.set_link_fault(peer, blackhole=True)
    for pid in side_b:
        server = cluster.servers[pid]
        if server is None:
            continue
        for peer in side_a:
            if peer != pid:
                server.transport.set_link_fault(peer, blackhole=True)


def heal_cluster(cluster: LiveKVCluster) -> None:
    """Clear every link fault on every live node."""
    for server in cluster.servers:
        if server is not None:
            server.transport.heal_link()
