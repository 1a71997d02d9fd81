"""The nemesis: timed fault campaigns against a live KV cluster.

A :class:`FaultPlan` is a declarative, seed-reproducible schedule of
:class:`FaultEvent`\\ s — *when* to do *what* — and :class:`Nemesis`
executes one against a running
:class:`~repro.live.harness.LiveKVCluster`, using the harness for
process faults (kill/restart) and the transport fault hooks
(:meth:`~repro.live.transport.PeerTransport.set_link_fault`) for network
faults.  Everything the nemesis does is appended to ``log`` with a
timestamp on the cluster's runtime clock, so campaign timelines can
overlay faults on the recorded client history.

Every fault kind is one :data:`KINDS` row: what it needs before it acts,
the :class:`Nemesis` method that acts, and the arguments plans give it.
The method's docstring says what the kind does; ``docs/chaos.md`` has
the table.  The nemesis never kills more than a strict minority
(``power-fail-all`` excepted, by design), so a correct cluster must keep
committing through the whole campaign — which is exactly what the
availability checks (E15) measure and the linearizability checker
verifies.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithms.trigger import TimerTrigger
from repro.live.harness import LiveKVCluster
from repro.options import check_non_negative, check_positive
from repro.storage.wal import flip_bit

Args = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class FaultKind:
    """One fault kind: what it needs before it acts, and how it acts.

    :meth:`Nemesis.apply` checks the needs in this order and logs the
    first one unmet as a skip: ``disk`` (the cluster has a data dir),
    ``guarded`` (one more dead node still leaves a majority alive),
    ``min_alive`` (live nodes).  Then it calls the :class:`Nemesis`
    method named ``act`` with ``(event, alive)``.  ``args`` are the
    default arguments: plans attach them, and acts fall back to them.
    """

    act: str
    disk: bool = False
    guarded: bool = False
    min_alive: int = 0
    args: Args = ()


#: Every fault kind a plan may schedule.  New kinds are appended at the
#: end: :meth:`FaultPlan.random_campaign` draws are position-sensitive,
#: and seeded plans must stay reproducible across versions.
KINDS: Dict[str, FaultKind] = {
    "kill-leader": FaultKind("_kill_leader", guarded=True),
    "kill-random": FaultKind("_kill_random", guarded=True, min_alive=1),
    "restart": FaultKind("_restart"),
    "partition": FaultKind("_partition", min_alive=2),
    "partition-leader": FaultKind("_partition_leader", min_alive=2),
    "asym-partition": FaultKind("_asym_partition", min_alive=2),
    "drop": FaultKind("_drop", min_alive=2, args=(("prob", 0.4),)),
    "delay": FaultKind("_delay", min_alive=2, args=(("delay", 0.05),)),
    "timeout-skew": FaultKind("_timeout_skew", min_alive=1, args=(("factor", 3.0),)),
    "heal": FaultKind("_heal"),
    "power-fail": FaultKind("_power_fail", disk=True, guarded=True, min_alive=1),
    "power-fail-all": FaultKind("_power_fail_all", disk=True, min_alive=1),
    "torn-tail": FaultKind("_torn_tail", disk=True, guarded=True, min_alive=1),
    "bit-flip": FaultKind("_bit_flip", disk=True, guarded=True, min_alive=1),
    "clock-skew": FaultKind("_clock_skew", min_alive=1, args=(("factor", 4.0),)),
}

FAULT_KINDS = tuple(KINDS)

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
DURABILITY_KINDS = tuple(name for name, kind in KINDS.items() if kind.disk)

#: The lease-attack cycle, in the order and at the spacing it strikes:
#: skew the leaseholder's clock, stretch election timers, then isolate
#: the (still skewed) leader — the faults that break a mis-bounded clock
#: lease (``--read-tier lease``, see docs/reads.md).
LEASE_ATTACK_KINDS = ("clock-skew", "timeout-skew", "partition-leader")
LEASE_ATTACK_STAGGER = 0.2

#: How far into each period the generators heal and restart.
HEAL_POINT = 0.6


def check_kind(kind: str) -> str:
    """``kind`` if it names a fault kind, else ``ValueError``."""
    if kind not in KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} "
            f"(choose from {', '.join(FAULT_KINDS)})"
        )
    return kind


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled nemesis action at ``at`` seconds into the campaign."""

    at: float
    kind: str
    args: Args = ()

    def arg(self, name: str, default: Any = None) -> Any:
        return dict(self.args).get(name, default)


def _rolled(at: float, kind: str, roll: float) -> FaultEvent:
    """A ``kind`` event with its default arguments and a victim roll."""
    return FaultEvent(round(at, 6), kind, KINDS[kind].args + (("roll", roll),))


@dataclass(frozen=True)
class FaultPlan:
    """A validated, time-ordered schedule of fault events."""

    events: Tuple[FaultEvent, ...]
    seed: Optional[int] = None

    def __post_init__(self):
        last = -1.0
        for event in self.events:
            check_kind(event.kind)
            check_non_negative("at", event.at)
            if event.at < last:
                raise ValueError("fault events must be time-ordered")
            last = event.at

    @property
    def duration(self) -> float:
        return self.events[-1].at if self.events else 0.0

    @classmethod
    def _cycles(
        cls, seed: int, duration: float, period: float,
        disrupt: Callable[[random.Random, float], List[FaultEvent]],
    ) -> "FaultPlan":
        """One ``disrupt(rng, at)`` per ``period``, each healed and
        restarted :data:`HEAL_POINT` of the way into its period."""
        check_positive("period", period)
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        at = period
        while at < duration:
            events += disrupt(rng, at)
            heal_at = at + HEAL_POINT * period
            if heal_at < duration:
                events.append(FaultEvent(round(heal_at, 6), "heal"))
                events.append(FaultEvent(round(heal_at, 6), "restart"))
            at += period
        return cls(tuple(events), seed=seed)

    @classmethod
    def random_campaign(
        cls,
        seed: int,
        *,
        duration: float = 30.0,
        period: float = 3.0,
        kinds: Sequence[str] = DEFAULT_KINDS,
    ) -> "FaultPlan":
        """A seeded disrupt→heal cycle schedule.

        Deterministic: the same ``(seed, parameters)`` always yields the
        identical plan (the determinism test pins this).  Each ``period``
        starts one randomly chosen disruption, repaired (``heal`` plus
        ``restart``) :data:`HEAL_POINT` of the way through the period, so
        the cluster alternates between surviving a fault and recovering
        from it.
        """
        if not kinds:
            raise ValueError("need at least one fault kind")
        for kind in kinds:
            check_kind(kind)

        def disrupt(rng: random.Random, at: float) -> List[FaultEvent]:
            kind = kinds[rng.randrange(len(kinds))]
            # One random draw reserved per event for victim selection, so
            # inserting new kinds upstream never shifts later victims.
            return [_rolled(at, kind, rng.random())]

        return cls._cycles(seed, duration, period, disrupt)

    @classmethod
    def lease_attack_campaign(
        cls, seed: int, *, duration: float = 20.0, period: float = 3.0
    ) -> "FaultPlan":
        """The compound attack on clock-based leases.

        Unlike :meth:`random_campaign`, faults here are *stacked*, not
        independent: each cycle slows the current leaseholder's drift
        clock, stretches a random node's election timers, and only
        *then* isolates the (still skewed) leader from its peers.  The
        deposed leader's lease now burns real time ``factor`` times
        faster than it measures — with a correctly sized drift bound it
        stops serving before the majority's new leader can commit; with
        ``drift_bound = 0`` it keeps answering long after, which is the
        stale read the checker must catch.
        """

        def disrupt(rng: random.Random, at: float) -> List[FaultEvent]:
            roll = rng.random()
            return [
                _rolled(at + i * LEASE_ATTACK_STAGGER, kind, roll)
                for i, kind in enumerate(LEASE_ATTACK_KINDS)
            ]

        return cls._cycles(seed, duration, period, disrupt)


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
        self._clock_skewed: Set[int] = set()
        self._epoch: Optional[float] = None

    # ------------------------------------------------------------------
    # Campaign loop
    # ------------------------------------------------------------------

    async def run(self) -> List[NemesisAction]:
        """Execute the whole plan; returns the action log.

        Sleeps are relative to the campaign start, so event times in the
        log line up with history timestamps recorded on the same runtime.
        """
        rt = self.cluster.rt
        start = self._epoch = rt.now()
        for event in self.plan.events:
            delay = start + event.at - rt.now()
            if delay > 0:
                await rt.sleep(delay)
            await self.apply(event)
        return self.log

    async def apply(self, event: FaultEvent) -> None:
        """Apply one event now: check its kind's needs, then act."""
        kind = KINDS[event.kind]
        alive = self.cluster.alive()
        if kind.disk and self.cluster.data_dir is None:
            detail = "skipped: cluster has no data dir"
        elif kind.guarded and not self._may_kill(alive):
            detail = "skipped: would break majority"
        elif len(alive) < kind.min_alive:
            detail = (
                "skipped: nothing alive" if kind.min_alive == 1
                else "skipped: fewer than two nodes alive"
            )
        else:
            detail = await getattr(self, kind.act)(event, alive)
        at = 0.0 if self._epoch is None else self.cluster.rt.now() - self._epoch
        self.log.append(NemesisAction(at, event.kind, detail))

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def _may_kill(self, alive: List[int]) -> bool:
        n = len(self.cluster.servers)
        return n - len(alive) + 1 <= (n - 1) // 2

    def _pick(self, candidates: Sequence[int], event: FaultEvent) -> int:
        roll = event.arg("roll")
        if roll is None:
            roll = self.rng.random()
        return candidates[int(roll * len(candidates)) % len(candidates)]

    @staticmethod
    def _setting(event: FaultEvent) -> float:
        """The event's one numeric argument, else its kind's default."""
        ((name, default),) = KINDS[event.kind].args
        return float(event.arg(name, default))

    # ------------------------------------------------------------------
    # Process faults
    # ------------------------------------------------------------------

    async def _kill_leader(self, event: FaultEvent, alive: List[int]) -> str:
        """Kill a shard's current leader (crash, no warning)."""
        shard = event.arg("shard", 0)
        leader = self.cluster.leader_pid(shard)
        if leader is None:
            return f"skipped: shard {shard} has no leader"
        await self.cluster.kill(leader)
        return f"killed node {leader} (shard {shard} leader)"

    async def _kill_victim(
        self, event: FaultEvent, alive: List[int], *, torn: bool = False
    ) -> int:
        victim = self._pick(alive, event)
        await self.cluster.kill(victim, torn=torn)
        return victim

    async def _kill_random(self, event: FaultEvent, alive: List[int]) -> str:
        """Kill a random live node."""
        return f"killed node {await self._kill_victim(event, alive)}"

    async def _restart(self, event: FaultEvent, alive: List[int]) -> str:
        """Restart every killed node."""
        revived = [
            pid for pid in range(len(self.cluster.servers)) if pid not in alive
        ]
        for pid in revived:
            await self.cluster.restart(pid)
        return f"restarted nodes {revived}" if revived else "nothing to restart"

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

    async def _power_fail(self, event: FaultEvent, alive: List[int]) -> str:
        """Cut one node's power: WAL state not yet fsynced is lost, and
        ``restart`` later cold-starts it from its data directory."""
        return f"node {await self._kill_victim(event, alive)} lost power"

    async def _power_fail_all(self, event: FaultEvent, alive: List[int]) -> str:
        """Full-cluster outage — the durability acid test.

        Deliberately unguarded: with fsynced WALs a simultaneous power
        loss of every node must still preserve every acknowledged write,
        and with the ``lost-ack`` bug injected this is the fault that
        makes acked-but-unsynced state vanish *everywhere* so the
        checker can catch it.
        """
        for pid in alive:
            await self.cluster.kill(pid)
        return f"whole cluster lost power: nodes {alive}"

    async def _torn_tail(self, event: FaultEvent, alive: List[int]) -> str:
        """Power-fail one node mid-write: a strict prefix of its last WAL
        frame lands on disk, so recovery must truncate the torn tail."""
        victim = await self._kill_victim(event, alive, torn=True)
        return f"node {victim} lost power mid-write (torn last WAL frame)"

    async def _bit_flip(self, event: FaultEvent, alive: List[int]) -> str:
        """Power-fail one node and flip a bit inside its WAL segment body;
        recovery truncates from the damage or quarantines the directory
        and the node rejoins empty."""
        victim = await self._kill_victim(event, alive)
        damaged = [
            os.path.basename(path)
            for directory in self._shard_dirs(victim)
            for path in [flip_bit(directory)]
            if path is not None
        ]
        return f"node {victim} down, corrupted {damaged or 'no segments'}"

    # ------------------------------------------------------------------
    # Network faults (transport hooks)
    # ------------------------------------------------------------------

    def _split(self, minority: Set[int], alive: List[int]) -> str:
        """Black-hole every link between ``minority`` and the rest."""
        side_a = sorted(minority)
        side_b = [pid for pid in alive if pid not in minority]
        partition_cluster(self.cluster, side_a, side_b)
        return f"split {side_a} | {side_b}"

    async def _partition(self, event: FaultEvent, alive: List[int]) -> str:
        """Symmetric split: a random strict minority vs the rest."""
        size = max(1, (len(self.cluster.servers) - 1) // 2)
        first = alive.index(self._pick(alive, event))
        rotation = alive[first:] + alive[:first]
        return self._split(set(rotation[:size]), alive)

    async def _partition_leader(self, event: FaultEvent, alive: List[int]) -> str:
        """Isolate a shard's current leader from every peer, alone.

        With no minority partner to outvote it and no check-quorum, the
        old leader keeps believing it leads for the whole partition while
        the majority elects a replacement and commits past it — the
        deposed-leader scenario where only committed (read-as-log-entry)
        lin reads stay safe, and where ``unsafe_lin_reads`` produces the
        stale reads the checker must catch.
        """
        shards = self.cluster.shard_count
        roll = event.arg("roll")
        shard = (
            int(roll * shards) % shards if roll is not None
            else self.rng.randrange(shards)
        )
        leader = self.cluster.leader_pid(shard)
        if leader is None or leader not in alive:
            return f"skipped: shard {shard} has no live leader"
        return self._split({leader}, alive)

    def _fault_links(self, event: FaultEvent, alive: List[int], **fault: Any) -> int:
        """Put ``fault`` on every link of a picked victim; returns it."""
        victim = self._pick(alive, event)
        transport = self.cluster.servers[victim].transport
        for peer in alive:
            if peer != victim:
                transport.set_link_fault(peer, **fault)
        return victim

    async def _asym_partition(self, event: FaultEvent, alive: List[int]) -> str:
        """One node's outbound links go dark; inbound still works — the
        asymmetric case that breaks naive failure detectors."""
        victim = self._fault_links(event, alive, blackhole=True, direction="out")
        return f"node {victim} sends into the void"

    async def _drop(self, event: FaultEvent, alive: List[int]) -> str:
        """Probabilistic loss on every link of one node."""
        prob = self._setting(event)
        victim = self._fault_links(event, alive, drop=prob)
        return f"node {victim} loses {prob:.0%} of frames"

    async def _delay(self, event: FaultEvent, alive: List[int]) -> str:
        """Extra one-way latency on every link of one node."""
        extra = self._setting(event)
        victim = self._fault_links(event, alive, delay=extra)
        return f"node {victim} links +{extra * 1e3:.0f}ms"

    async def _timeout_skew(self, event: FaultEvent, alive: List[int]) -> str:
        """Scale one node's election-timeout ranges (a slow or hasty
        clock) until ``heal``; an Ω-triggered shard has none to scale."""
        factor = self._setting(event)
        victim = self._pick(alive, event)
        timers = {
            shard.shard_id: shard.node.trigger
            for shard in self.cluster.servers[victim].shards
            if isinstance(shard.node.trigger, TimerTrigger)
        }
        if not timers:
            return "skipped: engine has no election timer"
        # Ranges are per shard (staggered so leadership spreads): save,
        # scale and restore each shard's own.
        base = self._skewed.setdefault(
            victim,
            {shard_id: timer.election_timeout for shard_id, timer in timers.items()},
        )
        for shard_id, timer in timers.items():
            lo, hi = base[shard_id]
            timer.election_timeout = (lo * factor, hi * factor)
        return f"node {victim} election timeout x{factor:g}"

    async def _clock_skew(self, event: FaultEvent, alive: List[int]) -> str:
        """Slow a node's drift clock until ``heal`` — preferring the
        current leader.

        Slowing the *leaseholder's* clock is the attack the drift bound
        exists for: the leader under-measures elapsed real time, so its
        lease outlives the followers' stickiness window unless
        ``drift_bound >= lease * (1 - 1/factor)``.  Skewing a follower
        merely stretches its refusal window, which is safe — hence the
        leader preference.
        """
        factor = self._setting(event)
        victim = self.cluster.leader_pid(event.arg("shard", 0))
        if victim is None or victim not in alive:
            victim = self._pick(alive, event)
        for shard in self.cluster.servers[victim].shards:
            shard.node.reads.clock.set_factor(factor, shard.runtime.now)
        self._clock_skewed.add(victim)
        return f"node {victim} drift clock x{factor:g} slow"

    async def _heal(self, event: FaultEvent, alive: List[int]) -> str:
        """Clear every link fault, timeout skew and clock skew."""
        heal_cluster(self.cluster)
        for pid in alive:
            base = self._skewed.get(pid, {})
            for shard in self.cluster.servers[pid].shards:
                if shard.shard_id in base:
                    shard.node.trigger.election_timeout = base[shard.shard_id]
                if pid in self._clock_skewed:
                    shard.node.reads.clock.set_factor(1.0, shard.runtime.now)
        # A dead victim restarts with fresh timers and clocks.
        self._skewed.clear()
        self._clock_skewed.clear()
        return "all link faults cleared, clocks restored"


def partition_cluster(
    cluster: LiveKVCluster, side_a: Sequence[int], side_b: Sequence[int]
) -> None:
    """Black-hole every link between ``side_a`` and ``side_b`` (both
    directions on both sides — also usable directly from tests)."""
    for here, there in ((side_a, side_b), (side_b, side_a)):
        for pid in here:
            server = cluster.servers[pid]
            if server is not None:
                for peer in there:
                    if peer != pid:
                        server.transport.set_link_fault(peer, blackhole=True)


def heal_cluster(cluster: LiveKVCluster) -> None:
    """Clear every link fault on every live node."""
    for server in cluster.servers:
        if server is not None:
            server.transport.heal_link()
