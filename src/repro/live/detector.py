"""Heartbeat-based Ω / ◇S failure detector for the live transport.

The paper treats the failure detector as a first-class *object* that
consensus composes with; this module is that object for the live stack.
:class:`OmegaDetector` is a pure-state component — a host process (the
Chandra-Toueg engine node, or the standalone :class:`DetectorProcess`
used by the unit suite) broadcasts :class:`FdHeartbeat` frames on a
periodic ``fd:tick`` timer, feeds arrivals and tick times in, and reads
out *suspect/trust* transitions plus the Ω output :meth:`leader`.

Design, per link (each peer tracked independently):

* **Adaptive timeout.**  Inter-arrival gaps feed an EWMA (TCP
  RTT-estimator style, ``alpha = 1/8``); a peer is suspected when
  nothing has arrived for ``factor * ewma + margin``.  Per-link state
  means one slow or skewed peer (nemesis ``timeout-skew`` stretches a
  victim's timers, so its heartbeats genuinely arrive slower) raises
  only *its own* threshold — the ◇S accuracy argument needs eventual
  per-link adaptation, not a global clock model.
* **Refutation doubling.**  A heartbeat from a currently suspected peer
  refutes the suspicion: the peer is trusted again and its ``margin``
  doubles (capped).  After a partition heals, each false suspicion
  therefore at least doubles the slack, so a live peer can be falsely
  suspected only O(log(max_margin / margin)) more times — the bounded
  oscillation the unit suite pins, and the standard route from ◇S
  accuracy to an eventually stable Ω.
* **Ω output.**  :meth:`leader` returns the first *trusted* member by
  rank rotated around ``preferred`` — all correct processes converge to
  the same choice once suspicion stabilizes, and per-shard ``preferred``
  values keep shard leaders staggered across nodes exactly like the
  Raft/Paxos engines' staggered election timeouts.

Everything is driven by the host's clock (``api.now`` — maintained by
both the live asyncio runtime and the deterministic simulator), so the
unit suite replays identical histories from a seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.sim.messages import Pid
from repro.sim.ops import Annotate, Broadcast, Receive, SetTimer, TimerFired
from repro.sim.process import Process, ProcessAPI, ProtocolGenerator

#: Timer name hosts must arm/dispatch for :meth:`OmegaDetector.on_tick`.
FD_TICK = "fd:tick"

#: EWMA smoothing for inter-arrival estimation (TCP RTT style).
EWMA_ALPHA = 0.125

#: Bounded transition memory: enough for any test window, O(1) for soaks.
EVENT_MEMORY = 4096


@dataclass(frozen=True, slots=True)
class FdHeartbeat:
    """Periodic liveness beacon (``seq`` strictly increases per sender)."""

    sender: Pid
    seq: int


@dataclass(frozen=True)
class FdEvent:
    """One suspect/trust transition, as observed by one node."""

    time: float
    kind: str  # "suspect" | "trust"
    peer: Pid


class OmegaDetector:
    """Per-link adaptive-timeout Ω/◇S detector state.

    Pure state + arithmetic: the host process owns all timers and I/O.
    Call :meth:`start` once, :meth:`note_heartbeat` on every arrival,
    :meth:`check` on every tick; read :meth:`leader`, :meth:`suspects`,
    and :attr:`events`.

    Args:
        n: cluster size (pids ``0..n-1``).
        pid: the host's own pid (never suspected).
        interval: heartbeat broadcast period — also the initial
            inter-arrival estimate.
        factor: suspicion threshold multiplier over the EWMA estimate.
        margin: initial additive slack; doubles on every refuted
            suspicion up to ``max_margin``.
        max_margin: cap on the per-link margin (bounds how long a truly
            crashed peer can be trusted after a history of refutations).
        preferred: Ω rank rotation — the first choice when trusted.
    """

    def __init__(
        self,
        n: int,
        pid: Pid,
        *,
        interval: float = 0.5,
        factor: float = 2.0,
        margin: Optional[float] = None,
        max_margin: Optional[float] = None,
        preferred: Pid = 0,
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        if interval <= 0:
            raise ValueError("interval must be positive")
        if factor < 1.0:
            raise ValueError("factor must be >= 1.0")
        self.n = n
        self.pid = pid
        self.interval = interval
        self.factor = factor
        self.init_margin = margin if margin is not None else 2.0 * interval
        self.max_margin = (
            max_margin if max_margin is not None else 40.0 * self.init_margin
        )
        self.preferred = preferred % n if n else 0
        self.seq = 0
        self._last: Dict[Pid, float] = {}
        self._ewma: Dict[Pid, float] = {}
        self._margin: Dict[Pid, float] = {}
        self._suspected: Dict[Pid, bool] = {}
        self.suspect_counts: Dict[Pid, int] = {}
        self.events: Deque[FdEvent] = deque(maxlen=EVENT_MEMORY)
        self._started = False

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def start(self, now: float) -> None:
        """Begin tracking: every peer is trusted as if heard at ``now``."""
        self._started = True
        for peer in range(self.n):
            if peer == self.pid:
                continue
            self._last[peer] = now
            self._ewma[peer] = self.interval
            self._margin.setdefault(peer, self.init_margin)
            self._suspected[peer] = False
            self.suspect_counts.setdefault(peer, 0)

    def note_heartbeat(self, src: Pid, now: float) -> List[FdEvent]:
        """Record an arrival; returns any *trust* transition it caused."""
        if not self._started or src == self.pid or src not in self._last:
            return []
        gap = now - self._last[src]
        self._last[src] = now
        if gap > 0:
            self._ewma[src] += EWMA_ALPHA * (gap - self._ewma[src])
        transitions: List[FdEvent] = []
        if self._suspected[src]:
            # Refuted: trust again, and double the slack so a live peer
            # is falsely suspected at most O(log) more times.
            self._suspected[src] = False
            self._margin[src] = min(2.0 * self._margin[src], self.max_margin)
            transitions.append(FdEvent(now, "trust", src))
            self.events.append(transitions[-1])
        return transitions

    def check(self, now: float) -> List[FdEvent]:
        """Time-based sweep; returns any new *suspect* transitions."""
        if not self._started:
            return []
        transitions: List[FdEvent] = []
        for peer, last in self._last.items():
            if self._suspected[peer]:
                continue
            if now - last > self.timeout_for(peer):
                self._suspected[peer] = True
                self.suspect_counts[peer] += 1
                transitions.append(FdEvent(now, "suspect", peer))
                self.events.append(transitions[-1])
        return transitions

    def heartbeat(self) -> FdHeartbeat:
        """The next beacon to broadcast (host sends it on each tick)."""
        self.seq += 1
        return FdHeartbeat(self.pid, self.seq)

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------

    def timeout_for(self, peer: Pid) -> float:
        """Current suspicion threshold for ``peer``'s link."""
        return self.factor * self._ewma[peer] + self._margin[peer]

    def is_suspected(self, peer: Pid) -> bool:
        return self._suspected.get(peer, False)

    def suspects(self) -> Tuple[Pid, ...]:
        """Currently suspected peers (the ◇S output), ascending."""
        return tuple(sorted(p for p, s in self._suspected.items() if s))

    def trusted(self) -> Tuple[Pid, ...]:
        """Currently trusted members including self, ascending."""
        return tuple(
            p
            for p in range(self.n)
            if p == self.pid or not self._suspected.get(p, False)
        )

    def leader(self) -> Pid:
        """The Ω output: first trusted member by rank rotated around
        ``preferred``.  Never empty — self is always trusted."""
        return min(
            self.trusted(), key=lambda p: (p - self.preferred) % self.n
        )

    def transitions_since(self, since: float) -> List[FdEvent]:
        """Recorded transitions at or after ``since`` (oscillation tests)."""
        return [e for e in self.events if e.time >= since]


class DetectorProcess(Process):
    """A standalone process running *only* the detector.

    The unit suite drives clusters of these under the deterministic
    simulator: partitions, drops, and skew come from the sim network
    layer, and every suspect/trust transition plus each tick's Ω choice
    is visible in the trace (``fd`` / ``omega`` annotations).
    """

    def __init__(
        self,
        *,
        interval: float = 0.5,
        factor: float = 2.0,
        margin: Optional[float] = None,
        max_margin: Optional[float] = None,
        preferred: Pid = 0,
        cluster_size: Optional[int] = None,
    ):
        self.interval = interval
        self.factor = factor
        self.margin = margin
        self.max_margin = max_margin
        self.preferred = preferred
        self.cluster_size = cluster_size
        self.detector: Optional[OmegaDetector] = None

    def run(self, api: ProcessAPI) -> ProtocolGenerator:
        n = self.cluster_size if self.cluster_size is not None else api.n
        fd = OmegaDetector(
            n,
            api.pid,
            interval=self.interval,
            factor=self.factor,
            margin=self.margin,
            max_margin=self.max_margin,
            preferred=self.preferred,
        )
        self.detector = fd
        fd.start(api.now)
        yield Broadcast(fd.heartbeat())
        yield SetTimer(self.interval, FD_TICK)
        while True:
            envelopes = yield Receive(count=1)
            payload = envelopes[0].payload
            src = envelopes[0].src
            if isinstance(payload, TimerFired):
                if payload.name != FD_TICK:
                    continue
                yield Broadcast(fd.heartbeat())
                for event in fd.check(api.now):
                    yield Annotate("fd", (event.kind, event.peer))
                yield Annotate("omega", fd.leader())
                yield SetTimer(self.interval, FD_TICK)
            elif isinstance(payload, FdHeartbeat):
                for event in fd.note_heartbeat(payload.sender, api.now):
                    yield Annotate("fd", (event.kind, event.peer))


def omega_converged(
    leaders_by_pid: Dict[Pid, Sequence[Pid]], live: Sequence[Pid]
) -> Optional[Pid]:
    """Test helper: the common final Ω choice of all ``live`` pids, or
    ``None`` if they have not converged to one live leader."""
    finals = set()
    for pid in live:
        choices = leaders_by_pid.get(pid)
        if not choices:
            return None
        finals.add(choices[-1])
    if len(finals) != 1:
        return None
    leader = finals.pop()
    return leader if leader in live else None
