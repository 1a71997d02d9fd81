"""Seeded request streams and the loops that send them.

Every client owns a disjoint key range (``c<client>-k<0..511>``) and
waits for each reply before sending again, so the last acknowledged value
of a key is unambiguous: every linearizable get — in the measured window
or in the read-back pass — has exactly one correct answer, and a wrong
one fails the run.

The loops run unchanged on the wall clock and on ``SimRuntime``'s virtual
clock: they read time from the ``clock`` they are given and sleep with
``asyncio.sleep``.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.live.client import AsyncKVClient, ClusterUnavailableError

PUT, GET = "put", "get"

KEYS_PER_CLIENT = 512
VALUE_BYTES = 64

_FAILURES = (ClusterUnavailableError, ConnectionError, OSError, asyncio.TimeoutError)


@dataclass(frozen=True)
class Op:
    kind: str
    key: str
    value: Optional[str]
    #: Seconds the client pauses right before sending.
    pause: float = 0.0
    #: Scheduled ops: offset from the start of the run at which it is due.
    due: float = 0.0


def client_seed(seed: int, client: int, phase: str) -> int:
    return random.Random(f"{seed}/{client}/{phase}").getrandbits(63)


def make_ops(
    seed: int,
    client: int,
    count: int,
    *,
    phase: str,
    read_ratio: float = 0.0,
    think: float = 0.0,
) -> List[Op]:
    """``count`` ops for one client of a closed loop.

    ``think`` is the upper end of a uniform pause before each send.  The
    simulated workloads set it: with none, closed-loop clients on a
    virtual clock run in lock-step, which no real client population does.
    """
    rng = random.Random(client_seed(seed, client, phase))
    ops = []
    for i in range(count):
        key = f"c{client}-k{rng.randrange(KEYS_PER_CLIENT)}"
        pause = rng.random() * think if think else 0.0
        if rng.random() < read_ratio:
            ops.append(Op(GET, key, None, pause))
        else:
            stem = f"{phase}{client}:{i}:"
            pad = VALUE_BYTES - len(stem)
            ops.append(
                Op(PUT, key, stem + format(rng.getrandbits(4 * pad), f"0{pad}x"), pause)
            )
    return ops


def make_schedule(
    seed: int, client: int, clients: int, duration: float, period: float,
    *, think: float = 0.0,
) -> List[Op]:
    """Puts due every ``period`` seconds across ``clients`` clients.

    Client ``c`` owns slots ``c, c + clients, ...``.  ``think`` is the
    upper end of a uniform pause between an op falling due and its send:
    the generator running late, which the op's latency includes.
    """
    rng = random.Random(client_seed(seed, client, "sched"))
    ops = []
    slot = client
    while slot * period < duration:
        key = f"c{client}-k{rng.randrange(KEYS_PER_CLIENT)}"
        pause = rng.random() * think if think else 0.0
        ops.append(Op(PUT, key, f"s{client}:{slot}", pause, slot * period))
        slot += clients
    return ops


@dataclass
class OpLog:
    """What the clients observed, in completion order."""

    #: ``(start, end)`` per acknowledged op; ``start`` is the due time for
    #: a scheduled op.
    puts: List[Tuple[float, float]] = field(default_factory=list)
    gets: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Gets whose answer differed from the last acknowledged put.
    wrong: List[str] = field(default_factory=list)
    #: Last acknowledged value per key.
    expected: Dict[str, str] = field(default_factory=dict)
    #: ``"read"`` field of every get reply (``None`` = through the log).
    served_by: Dict[Optional[str], int] = field(default_factory=dict)
    #: With a list here, every op is also kept as ``(client, kind, key,
    #: value, sent, returned, acknowledged)`` for the linearizability
    #: checker (``value`` of a get is what it observed, ``None`` = absent).
    records: Optional[List[Tuple[int, str, str, Any, float, float, bool]]] = None

    @property
    def acked(self) -> int:
        return len(self.puts) + len(self.gets)

    def successor(self) -> "OpLog":
        """An empty log for the next phase of the same run: it knows what
        this phase wrote and goes on appending to the same records."""
        return OpLog(expected=dict(self.expected), records=self.records)

    def put_ms(self) -> List[float]:
        return [(end - start) * 1e3 for start, end in self.puts]

    def get_ms(self) -> List[float]:
        return [(end - start) * 1e3 for start, end in self.gets]

    def check_get(self, key: str, response: Dict[str, Any]) -> None:
        want = self.expected.get(key)
        got = response.get("value") if response.get("found") else None
        if got != want:
            self.wrong.append(f"{key}: got {got!r}, last acknowledged {want!r}")
        via = response.get("read")
        self.served_by[via] = self.served_by.get(via, 0) + 1


async def _send(
    number: int,
    client: AsyncKVClient,
    op: Op,
    op_id: str,
    log: OpLog,
    tier: Optional[str],
    clock: Callable[[], float],
) -> Tuple[float, Optional[float]]:
    """Send one op; returns when it was sent and when its reply arrived
    (``None`` = it failed)."""
    log.attempted += 1
    sent = clock()
    value = op.value
    try:
        if op.kind == PUT:
            await client.put(op.key, op.value, op_id=op_id)
            log.expected[op.key] = op.value
        else:
            response = await client.get(
                op.key, linearizable=True, tier=tier, op_id=op_id
            )
            log.check_get(op.key, response)
            value = response.get("value") if response.get("found") else None
        done: Optional[float] = clock()
    except _FAILURES:
        log.failed += 1
        done = None
    if log.records is not None:
        log.records.append(
            (
                number, op.kind, op.key, value, sent,
                clock() if done is None else done, done is not None,
            )
        )
    return sent, done


async def closed_loop(
    clients: Sequence[AsyncKVClient],
    streams: Sequence[Sequence[Op]],
    clock: Callable[[], float],
    log: OpLog,
    *,
    tag: str,
    tier: Optional[str] = None,
) -> None:
    """Each client sends its stream one op at a time, waiting for every
    reply (after the op's think time, if any)."""

    async def one(number: int, client: AsyncKVClient, ops: Sequence[Op]) -> None:
        for i, op in enumerate(ops):
            if op.pause:
                await asyncio.sleep(op.pause)
            sent, done = await _send(
                number, client, op, f"{tag}{number}-{i}", log, tier, clock
            )
            if done is not None:
                (log.puts if op.kind == PUT else log.gets).append((sent, done))

    await asyncio.gather(
        *(one(i, client, ops) for i, (client, ops) in enumerate(zip(clients, streams)))
    )


async def scheduled(
    clients: Sequence[AsyncKVClient],
    streams: Sequence[Sequence[Op]],
    clock: Callable[[], float],
    log: OpLog,
    *,
    tag: str,
) -> None:
    """Each client sends its ops at their due times, or as soon after as
    its previous reply allows, and times each **from its due time** — so
    a stall is charged to every request that had to wait behind it."""
    origin = clock()

    async def one(number: int, client: AsyncKVClient, ops: Sequence[Op]) -> None:
        for i, op in enumerate(ops):
            due = origin + op.due
            wait = due + op.pause - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            _sent, done = await _send(
                number, client, op, f"{tag}{number}-{i}", log, None, clock
            )
            if done is not None:
                log.puts.append((due, done))

    await asyncio.gather(
        *(one(i, client, ops) for i, (client, ops) in enumerate(zip(clients, streams)))
    )


async def read_back(
    clients: Sequence[AsyncKVClient],
    written: OpLog,
    clock: Callable[[], float],
    *,
    tag: str,
    tier: Optional[str],
    think: float = 0.0,
    seed: int = 0,
) -> OpLog:
    """Linearizable get of every key ``written`` acknowledged a put for,
    each by the client that owns it, compared with the last acknowledged
    value."""
    log = written.successor()
    streams = []
    for number in range(len(clients)):
        rng = random.Random(client_seed(seed, number, "readback"))
        keys = sorted(k for k in written.expected if k.startswith(f"c{number}-"))
        streams.append(
            [Op(GET, key, None, rng.random() * think if think else 0.0) for key in keys]
        )
    await closed_loop(clients, streams, clock, log, tag=tag, tier=tier)
    return log
