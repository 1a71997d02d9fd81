"""Closed- and open-loop load generators for the live KV service.

* **Closed loop** (:func:`run_closed_loop`): ``concurrency`` workers, each
  with its own connection, issue the next ``put`` as soon as the previous
  one is acknowledged.  Measures the service's saturation throughput at a
  fixed multiprogramming level.
* **Open loop** (:func:`run_open_loop`): writes are *scheduled* at a fixed
  arrival rate regardless of completions (each arrival is its own task),
  which is the methodology that exposes queueing delay — a closed loop
  hides latency spikes by slowing its own arrival rate (coordinated
  omission).

Both are *shard-aware*: each worker's :class:`AsyncKVClient` routes every
put to the shard owning its key, so against a sharded cluster the load
spreads across all shard leaders.  The shard count is discovered once
(one ``status`` round trip) and handed to every worker client.

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

Both return a :class:`LoadReport` with throughput and commit-latency
percentiles computed by :func:`repro.analysis.metrics.latency_summary`,
so live numbers live in the same shape the simulation benchmarks use.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.metrics import latency_summary
from repro.live.client import AsyncKVClient, ClusterUnavailableError
from repro.live.config import ClusterConfig

KEY_DISTRIBUTIONS = ("uniform", "zipf")


class ZipfSampler:
    """Zipf(s) ranks over ``0 .. n-1``: ``P(k) ∝ 1 / (k + 1)**s``.

    Rank 0 is the hottest key.  Sampling is inverse-CDF over a
    precomputed table (O(log n) per draw, exact — no rejection), driven
    by the caller's ``random.Random`` so runs stay seed-deterministic.
    """

    def __init__(self, n: int, s: float = 1.1):
        if n < 1:
            raise ValueError(f"need at least one rank, got n={n}")
        if s <= 0:
            raise ValueError(f"zipf exponent must be > 0, got s={s}")
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
    if key_dist == "uniform":
        return lambda rng: f"k{rng.randrange(key_space)}"
    if key_dist == "zipf":
        sampler = ZipfSampler(key_space, zipf_s)
        return lambda rng: f"k{sampler.sample(rng)}"
    raise ValueError(
        f"unknown key distribution {key_dist!r} "
        f"(choose from {KEY_DISTRIBUTIONS})"
    )


@dataclass
class LoadReport:
    """Outcome of one load-generation run (times in seconds)."""

    mode: str
    ops: int
    errors: int
    duration: float
    concurrency: int
    target_rate: Optional[float] = None
    latency: Dict[str, float] = field(default_factory=dict)
    acked: Dict[Any, Any] = field(default_factory=dict)
    key_dist: str = "uniform"
    shards: int = 1
    reads: int = 0
    writes: int = 0

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


def _value(i: int, value_size: int) -> str:
    return f"{i}-" + "x" * max(0, value_size - len(str(i)) - 1)


async def _discover_shards(
    cluster: ClusterConfig, shards: Optional[int], *, request_timeout: float
) -> int:
    """Resolve the shard count once so every worker client skips discovery."""
    if shards is not None:
        return shards
    probe = AsyncKVClient(cluster, request_timeout=request_timeout)
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
    request_timeout: float = 5.0,
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
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError(f"read_ratio must be in [0, 1], got {read_ratio}")
    sample_key = make_key_sampler(key_dist, key_space, zipf_s)
    shard_count = await _discover_shards(
        cluster, shards, request_timeout=request_timeout
    )
    latencies: List[float] = []
    acked: Dict[Any, Any] = {}
    errors = 0
    reads = writes = 0
    counter = iter(range(ops))
    lock = asyncio.Lock()

    async def worker(worker_id: int) -> None:
        nonlocal errors, reads, writes
        rng = random.Random((seed << 8) | worker_id)
        client = AsyncKVClient(
            cluster, request_timeout=request_timeout, shards=shard_count
        )
        try:
            while True:
                async with lock:
                    try:
                        i = next(counter)
                    except StopIteration:
                        return
                key = sample_key(rng)
                is_read = rng.random() < read_ratio
                begin = time.monotonic()
                try:
                    if is_read:
                        await client.get(
                            key, linearizable=True, tier=read_tier,
                            staleness=read_staleness,
                        )
                    else:
                        value = _value(i, value_size)
                        await client.put(key, value)
                except ClusterUnavailableError:
                    errors += 1
                    continue
                latencies.append(time.monotonic() - begin)
                if is_read:
                    reads += 1
                else:
                    writes += 1
                    acked[key] = value
        finally:
            await client.close()

    start = time.monotonic()
    await asyncio.gather(*(worker(w) for w in range(concurrency)))
    duration = time.monotonic() - start
    return LoadReport(
        mode="closed-loop",
        ops=len(latencies),
        errors=errors,
        duration=duration,
        concurrency=concurrency,
        latency=latency_summary(latencies),
        acked=acked,
        key_dist=key_dist,
        shards=shard_count,
        reads=reads,
        writes=writes,
    )


async def run_open_loop(
    cluster: ClusterConfig,
    *,
    rate: float = 200.0,
    duration: float = 2.0,
    key_space: int = 128,
    value_size: int = 16,
    seed: int = 0,
    max_outstanding: int = 512,
    max_connections: int = 64,
    request_timeout: float = 5.0,
    key_dist: str = "uniform",
    zipf_s: float = 1.1,
    shards: Optional[int] = None,
    read_ratio: float = 0.0,
    read_tier: Optional[str] = None,
    read_staleness: Optional[float] = None,
) -> LoadReport:
    """Schedule arrivals at ``rate``/s for ``duration`` seconds.

    Arrivals beyond ``max_outstanding`` in-flight requests are counted as
    errors (load shedding) instead of queueing without bound inside the
    generator itself.  ``read_ratio``/``read_tier``/``read_staleness``
    mix in reads exactly as in :func:`run_closed_loop`.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError(f"read_ratio must be in [0, 1], got {read_ratio}")
    sample_key = make_key_sampler(key_dist, key_space, zipf_s)
    shard_count = await _discover_shards(
        cluster, shards, request_timeout=request_timeout
    )
    latencies: List[float] = []
    acked: Dict[Any, Any] = {}
    errors = 0
    reads = writes = 0
    rng = random.Random(seed)
    # Each connection carries one request at a time, so arrivals take an
    # idle connection (or open a new one, up to ``max_connections``) rather
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
        if len(pool) < max_connections:
            client = AsyncKVClient(
                cluster, request_timeout=request_timeout, shards=shard_count
            )
            pool.append(client)
            return client
        return await free.get()

    async def one(i: int) -> None:
        nonlocal errors, outstanding, reads, writes
        key, value = sample_key(rng), _value(i, value_size)
        is_read = rng.random() < read_ratio
        begin = time.monotonic()
        client = await acquire()
        try:
            if is_read:
                await client.get(
                    key, linearizable=True, tier=read_tier,
                    staleness=read_staleness,
                )
            else:
                await client.put(key, value)
        except ClusterUnavailableError:
            errors += 1
            return
        finally:
            outstanding -= 1
            free.put_nowait(client)
        latencies.append(time.monotonic() - begin)
        if is_read:
            reads += 1
        else:
            writes += 1
            acked[key] = value

    interval = 1.0 / rate
    total = int(rate * duration)
    start = time.monotonic()
    for i in range(total):
        target = start + i * interval
        delay = target - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            # Behind schedule: stay cooperative while catching up.
            await asyncio.sleep(0)
        if outstanding >= max_outstanding:
            errors += 1
            continue
        outstanding += 1
        tasks.append(asyncio.ensure_future(one(i)))
    if tasks:
        await asyncio.gather(*tasks)
    elapsed = time.monotonic() - start
    for client in pool:
        await client.close()
    return LoadReport(
        mode="open-loop",
        ops=len(latencies),
        errors=errors,
        duration=elapsed,
        concurrency=len(pool),
        target_rate=rate,
        latency=latency_summary(latencies),
        acked=acked,
        key_dist=key_dist,
        shards=shard_count,
        reads=reads,
        writes=writes,
    )
