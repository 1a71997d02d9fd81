"""The load generator for the live KV service: closed loop, open loop, campaigns.

* **Closed loop** (:func:`drive`, :func:`run_closed_loop`): every worker
  client issues its next op as soon as the previous one returns, until an
  op count is claimed or a deadline passes.  At a fixed op count it
  measures the service's saturation throughput at a fixed
  multiprogramming level; at a deadline, with read-only clients and a
  pause between ops, it is the chaos campaign's recorded workload
  (:func:`repro.chaos.campaign.run`).
* **Open loop** (:func:`run_open_loop`): arrivals are *scheduled* at a
  fixed rate regardless of completions (each arrival is its own task),
  which is the methodology that exposes queueing delay — a closed loop
  hides latency spikes by slowing its own arrival rate (coordinated
  omission).

Both share one op draw (:meth:`Mix.draw`: the key, then the read coin)
and one issue-and-classify step (:meth:`Mix.issue`: ``ok``, a definite
failure, or an ambiguous put).  A *recorder* sees each op's start, end
and outcome: :class:`LoadReport` turns them into throughput and
commit-latency percentiles (:func:`repro.analysis.metrics.latency_summary`),
:class:`repro.chaos.history.History` into a checkable history.

Clients are *shard-aware*: each routes every op to the shard owning its
key, so against a sharded cluster the load spreads across all shard
leaders.  The shard count is discovered once (one ``status`` round trip)
and handed to every worker client.

Mixed workloads: ``read_ratio`` turns that fraction of operations into
linearizable gets (drawn from the same key distribution, so a Zipf mix
reads the hot keys it writes).  ``read_tier`` picks the serving tier per
read (safe / readindex / lease — see docs/reads.md); ``read_staleness``
switches reads to the bounded-stale follower tier instead.

Key distributions: ``uniform`` (the default) draws keys uniformly from
the keyspace; ``zipf`` draws rank ``k`` with probability proportional to
``1 / k**s`` (:class:`ZipfSampler`), the standard model for hot-key
skew — with sharding it concentrates load on the hot keys' shards, which
is exactly the behaviour worth measuring.

Times come from ``current_runtime()`` (``now()``, ``sleep()``): wall-clock
seconds under ``AsyncioRuntime``, exact virtual seconds under ``SimRuntime``.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.analysis.metrics import latency_summary
from repro.core.runtime import current_runtime
from repro.live.client import AsyncKVClient, ClusterUnavailableError
from repro.live.config import ClusterConfig
from repro.options import check_fraction, check_positive

KEY_DISTRIBUTIONS = ("uniform", "zipf")

#: Operation kinds.
PUT, GET = "put", "get"

#: Op outcomes: acknowledged; a failed get (it observed nothing, so it
#: constrains nothing); a failed put (some retry may still have committed).
OK, FAILED, AMBIGUOUS = "ok", "failed", "ambiguous"

#: Client errors that end one op; anything else (a refusal) propagates.
CLIENT_ERRORS = (ClusterUnavailableError, OSError, TimeoutError)

#: Per-request deadline of a load-generator client and of the shard probe.
REQUEST_TIMEOUT = 5.0

#: Campaign clients fail over fast: under a nemesis the interesting
#: outcome of an unreachable node is a quick failover (or an *ambiguous*
#: op in the history), not a client that blocks half the campaign on a
#: black hole — a writer stuck on an isolated leader commits nothing, and
#: commits are what give the checker contradictions to find.
FAIL_FAST = dict(request_timeout=1.0, max_attempts=8, retry_delay=0.1)

#: Open loop: arrivals beyond this many in flight are shed (counted as
#: errors) instead of queueing without bound inside the generator.
MAX_OUTSTANDING = 512

#: Open loop: connections opened at most.
MAX_CONNECTIONS = 64


class ZipfSampler:
    """Zipf(s) ranks over ``0 .. n-1``: ``P(k) ∝ 1 / (k + 1)**s``.

    Rank 0 is the hottest key.  Sampling is inverse-CDF over a
    precomputed table (O(log n) per draw, exact — no rejection), driven
    by the caller's ``random.Random`` so runs stay seed-deterministic.
    """

    def __init__(self, n: int, s: float = 1.1):
        check_positive("rank count", n)
        check_positive("zipf exponent", s)
        self.n = n
        self.s = s
        cdf: List[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank**s
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """Draw one rank in ``0 .. n-1``."""
        return bisect.bisect_left(self._cdf, rng.random() * self._total)

    def probability(self, rank: int) -> float:
        """The exact probability of ``rank`` (for tests and reports)."""
        return (1.0 / (rank + 1) ** self.s) / self._total


def make_key_sampler(
    key_dist: str, key_space: int, zipf_s: float = 1.1
) -> Callable[[random.Random], str]:
    """A ``rng -> key`` function for the named distribution."""
    check_positive("key_space", key_space)
    if key_dist == "uniform":
        return lambda rng: f"k{rng.randrange(key_space)}"
    if key_dist == "zipf":
        sampler = ZipfSampler(key_space, zipf_s)
        return lambda rng: f"k{sampler.sample(rng)}"
    raise ValueError(
        f"unknown key distribution {key_dist!r} "
        f"(choose from {KEY_DISTRIBUTIONS})"
    )


def make_clients(
    cluster: ClusterConfig,
    count: int,
    *,
    shards: Optional[int] = None,
    fail_fast: bool = False,
    deterministic_ids: bool = False,
) -> List[AsyncKVClient]:
    """``count`` worker clients; ``shards=None`` discovers the count.

    ``fail_fast`` gives them the campaign's :data:`FAIL_FAST` timings
    instead of :data:`REQUEST_TIMEOUT`.  ``deterministic_ids=True`` gives
    client ``i`` the ``op_id_prefix`` ``"c<i>"`` instead of a random one
    — required for byte-identical replays, safe when every client lives
    in one process.
    """
    options = FAIL_FAST if fail_fast else dict(request_timeout=REQUEST_TIMEOUT)
    return [
        AsyncKVClient(
            cluster,
            shards=shards,
            op_id_prefix=f"c{cid}" if deterministic_ids else None,
            **options,
        )
        for cid in range(count)
    ]


@dataclass(frozen=True)
class Mix:
    """What the workers send: the key draw, the read share, the read tier."""

    sample_key: Callable[[random.Random], str]
    read_ratio: float = 0.0
    read_tier: Optional[str] = None
    read_staleness: Optional[float] = None

    def draw(self, rng: random.Random, readonly: bool = False) -> Tuple[str, str]:
        """One op's kind and key: the key first, then the read coin,
        which a read-only client does not toss."""
        key = self.sample_key(rng)
        if readonly or rng.random() < self.read_ratio:
            return GET, key
        return PUT, key

    async def issue(
        self, client: AsyncKVClient, kind: str, key: str, value: Optional[str]
    ) -> Tuple[str, Any]:
        """Send one op; returns its outcome and the reply (``None`` unless ok).

        A put's reply is its commit index; a get's is the response dict.
        Gets are linearizable unless ``read_staleness`` is set.
        """
        try:
            if kind == GET:
                return OK, await client.get(
                    key, linearizable=True, tier=self.read_tier,
                    staleness=self.read_staleness,
                )
            return OK, await client.put(key, value)
        except CLIENT_ERRORS:
            return (FAILED if kind == GET else AMBIGUOUS), None


class Recorder(Protocol):
    """What sees each op: :class:`LoadReport` or the checker's ``History``."""

    def begin(self, client: int, kind: str, key: Any, value: Any = None) -> Any:
        """The op starts now; returns the token :meth:`end` gets back."""

    def end(self, op: Any, outcome: str, reply: Any) -> None:
        """The op ended now with ``outcome`` (``OK``, ``FAILED``, ``AMBIGUOUS``)."""


@dataclass
class LoadReport:
    """Outcome of one load-generation run (times in seconds).

    It is the run's :class:`Recorder`: every acknowledged op adds its
    latency and counts as a read or a write (a put's value lands in
    ``acked``); every other op is an error.
    """

    mode: str
    concurrency: int = 0
    target_rate: Optional[float] = None
    key_dist: str = "uniform"
    shards: int = 1
    duration: float = 0.0
    errors: int = 0
    reads: int = 0
    writes: int = 0
    acked: Dict[Any, Any] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list, repr=False)

    def begin(self, client: int, kind: str, key: Any, value: Any = None) -> Any:
        return current_runtime().now(), kind, key, value

    def end(self, op: Any, outcome: str, reply: Any) -> None:
        begin, kind, key, value = op
        if outcome != OK:
            self.errors += 1
            return
        self.latencies.append(current_runtime().now() - begin)
        if kind == GET:
            self.reads += 1
        else:
            self.writes += 1
            self.acked[key] = value

    @property
    def ops(self) -> int:
        """Acknowledged operations."""
        return self.reads + self.writes

    @property
    def latency(self) -> Dict[str, float]:
        """Latency percentiles of the acknowledged operations."""
        return latency_summary(self.latencies)

    @property
    def throughput(self) -> float:
        """Acknowledged operations per second."""
        return self.ops / self.duration if self.duration > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "ops": self.ops,
            "errors": self.errors,
            "duration_s": self.duration,
            "concurrency": self.concurrency,
            "target_rate": self.target_rate,
            "throughput_ops_s": self.throughput,
            "latency_s": self.latency,
            "key_dist": self.key_dist,
            "shards": self.shards,
            "reads": self.reads,
            "writes": self.writes,
        }

    def summary(self) -> str:
        lat = self.latency
        mix = f" ({self.reads}r/{self.writes}w)" if self.reads else ""
        return (
            f"{self.mode}: {self.ops} ops{mix} in {self.duration:.2f}s "
            f"({self.throughput:.0f} ops/s, {self.errors} errors); "
            f"commit latency p50={lat.get('p50', 0) * 1e3:.1f}ms "
            f"p95={lat.get('p95', 0) * 1e3:.1f}ms "
            f"p99={lat.get('p99', 0) * 1e3:.1f}ms"
        )


async def drive(
    clients: Sequence[AsyncKVClient],
    recorder: Recorder,
    mix: Mix,
    *,
    value: Callable[[int, int, int], str],
    seed: int,
    ops: Optional[int] = None,
    duration: Optional[float] = None,
    readonly: int = 0,
    pause: float = 0.0,
) -> Dict[str, int]:
    """Run every client back-to-back until ``ops`` ops are claimed or,
    per client, ``duration`` seconds pass; returns the outcome counts.

    Client ``cid`` draws from its own ``Random((seed << 8) | cid)``, so
    each client's op stream is reproducible per seed whatever the
    interleaving; the first ``readonly`` clients never write.  A put's
    value is ``value(cid, puts, i)``: the client, its put count (this one
    included) and the op's number in the run.  ``pause`` seconds pass
    between a client's ops.
    """
    rt = current_runtime()
    counter = itertools.count() if ops is None else iter(range(ops))
    outcomes = dict.fromkeys((OK, AMBIGUOUS, FAILED), 0)

    async def run(cid: int, client: AsyncKVClient) -> None:
        rng = random.Random((seed << 8) | cid)
        deadline = math.inf if duration is None else rt.now() + duration
        puts = 0
        while rt.now() < deadline:
            i = next(counter, None)
            if i is None:
                return
            kind, key = mix.draw(rng, readonly=cid < readonly)
            put_value = None
            if kind == PUT:
                puts += 1
                put_value = value(cid, puts, i)
            op = recorder.begin(cid, kind, key, put_value)
            outcome, reply = await mix.issue(client, kind, key, put_value)
            recorder.end(op, outcome, reply)
            outcomes[outcome] += 1
            if pause > 0:
                await rt.sleep(pause)

    await asyncio.gather(*(run(cid, c) for cid, c in enumerate(clients)))
    return outcomes


def _value(i: int, value_size: int) -> str:
    return f"{i}-" + "x" * max(0, value_size - len(str(i)) - 1)


async def _discover_shards(cluster: ClusterConfig, shards: Optional[int]) -> int:
    """Resolve the shard count once so every worker client skips discovery."""
    if shards is not None:
        return shards
    (probe,) = make_clients(cluster, 1)
    try:
        return await probe.shard_count()
    finally:
        await probe.close()


async def run_closed_loop(
    cluster: ClusterConfig,
    *,
    ops: int = 200,
    concurrency: int = 4,
    key_space: int = 128,
    value_size: int = 16,
    seed: int = 0,
    key_dist: str = "uniform",
    zipf_s: float = 1.1,
    shards: Optional[int] = None,
    read_ratio: float = 0.0,
    read_tier: Optional[str] = None,
    read_staleness: Optional[float] = None,
) -> LoadReport:
    """``concurrency`` workers each issue ops back-to-back, ``ops`` total.

    Each operation is a linearizable get with probability ``read_ratio``
    (served at ``read_tier``, or bounded-stale if ``read_staleness`` is
    set) and a put otherwise.
    """
    check_fraction("read_ratio", read_ratio)
    mix = Mix(
        make_key_sampler(key_dist, key_space, zipf_s),
        read_ratio, read_tier, read_staleness,
    )
    shard_count = await _discover_shards(cluster, shards)
    clients = make_clients(cluster, concurrency, shards=shard_count)
    report = LoadReport(
        "closed-loop", concurrency=concurrency, key_dist=key_dist,
        shards=shard_count,
    )
    rt = current_runtime()
    start = rt.now()
    try:
        await drive(
            clients, report, mix,
            value=lambda _cid, _puts, i: _value(i, value_size),
            seed=seed, ops=ops,
        )
    finally:
        for client in clients:
            await client.close()
    report.duration = rt.now() - start
    return report


async def run_open_loop(
    cluster: ClusterConfig,
    *,
    rate: float = 200.0,
    duration: float = 2.0,
    key_space: int = 128,
    value_size: int = 16,
    seed: int = 0,
    key_dist: str = "uniform",
    zipf_s: float = 1.1,
    shards: Optional[int] = None,
    read_ratio: float = 0.0,
    read_tier: Optional[str] = None,
    read_staleness: Optional[float] = None,
) -> LoadReport:
    """Schedule arrivals at ``rate``/s for ``duration`` seconds.

    Arrivals beyond :data:`MAX_OUTSTANDING` in-flight requests are
    counted as errors (load shedding).  ``read_ratio``/``read_tier``/
    ``read_staleness`` mix in reads exactly as in :func:`run_closed_loop`.
    """
    check_positive("rate", rate)
    check_positive("duration", duration)
    check_fraction("read_ratio", read_ratio)
    mix = Mix(
        make_key_sampler(key_dist, key_space, zipf_s),
        read_ratio, read_tier, read_staleness,
    )
    shard_count = await _discover_shards(cluster, shards)
    report = LoadReport(
        "open-loop", target_rate=rate, key_dist=key_dist, shards=shard_count
    )
    rng = random.Random(seed)
    rt = current_runtime()
    # Each connection carries one request at a time, so arrivals take an
    # idle connection (or open a new one, up to MAX_CONNECTIONS) rather
    # than being pinned to a fixed slot: a pinned arrival queues behind one
    # slow request while other connections sit idle, which silently turns
    # the generator closed-loop at exactly the loads it is meant to expose.
    pool: List[AsyncKVClient] = []
    free: asyncio.Queue = asyncio.Queue()
    tasks: List[asyncio.Task] = []
    outstanding = 0

    async def acquire() -> AsyncKVClient:
        if not free.empty():
            return free.get_nowait()
        if len(pool) < MAX_CONNECTIONS:
            pool.extend(make_clients(cluster, 1, shards=shard_count))
            return pool[-1]
        return await free.get()

    async def one(i: int) -> None:
        nonlocal outstanding
        kind, key = mix.draw(rng)
        value = _value(i, value_size) if kind == PUT else None
        op = report.begin(0, kind, key, value)
        client = await acquire()
        try:
            outcome, reply = await mix.issue(client, kind, key, value)
        finally:
            outstanding -= 1
            free.put_nowait(client)
        report.end(op, outcome, reply)

    interval = 1.0 / rate
    total = int(rate * duration)
    start = rt.now()
    for i in range(total):
        target = start + i * interval
        delay = target - rt.now()
        if delay > 0:
            await rt.sleep(delay)
        else:
            # Behind schedule: stay cooperative while catching up.
            await rt.sleep(0)
        if outstanding >= MAX_OUTSTANDING:
            report.errors += 1
            continue
        outstanding += 1
        tasks.append(asyncio.ensure_future(one(i)))
    if tasks:
        await asyncio.gather(*tasks)
    report.duration = rt.now() - start
    for client in pool:
        await client.close()
    report.concurrency = len(pool)
    return report
