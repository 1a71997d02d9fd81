"""Live cluster runtime: the simulator's processes over real sockets.

:class:`~repro.live.runtime.LiveRuntime` executes the *same* generator
coroutines (``yield Send/Broadcast/Receive/SetTimer`` — see
:mod:`repro.sim.ops`) that :class:`~repro.sim.async_runtime.AsyncRuntime`
drives under virtual time, but over real asyncio TCP connections with
wall-clock timers.  An algorithm written once runs unchanged in three
regimes: deterministic simulation, schedule exploration (``repro.dst``),
and a real localhost/network cluster.

Layers, bottom up:

* :mod:`repro.live.wire` — length-prefixed framing in the binary codec.
* :mod:`repro.live.codec` — registers every algorithm message with the
  lossless wire codec in :mod:`repro.sim.serialize`.
* :mod:`repro.live.transport` — per-peer connections, reconnect with
  backoff, heartbeats.
* :mod:`repro.live.runtime` — drives one process coroutine; emits the
  same :class:`~repro.sim.trace.Trace` events as the simulator.
* :mod:`repro.live.sharding` — process-stable key->shard hashing,
  staggered leader placement, and the client-side shard router.
* :mod:`repro.live.detector` — heartbeat-based Ω/◇S failure detector
  (suspect/trust events, adaptive per-link timeouts).
* :mod:`repro.live.engine` — the pluggable :class:`ConsensusEngine`
  seam: ``raft``/``paxos``/``ct`` backends behind one node contract.
* :mod:`repro.live.kv` / :mod:`repro.live.client` — a replicated KV
  service over any engine (``shards`` independent groups multiplexed
  over the shared transport), and its shard-aware redirect-following
  client.
* :mod:`repro.live.harness` — in-process multi-node clusters for tests
  and benchmarks.
* :mod:`repro.live.loadgen` — closed- and open-loop load generation.
* :mod:`repro.live.cli` — ``python -m repro serve|client|loadgen``.

See ``docs/live.md`` for the architecture and wire protocol.
"""

from repro.live import codec as _codec  # registers wire types on import
from repro.live.client import AsyncKVClient, ClusterUnavailableError, RequestRefusedError
from repro.live.config import ClusterConfig, NodeSpec
from repro.live.detector import FdEvent, FdHeartbeat, OmegaDetector
from repro.live.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    ConsensusEngine,
    EngineError,
    get_engine,
    parse_engine_spec,
)
from repro.live.harness import LiveCluster, LiveKVCluster, merge_traces
from repro.live.kv import (
    READ_TIERS,
    KVServer,
    KVShard,
    KvBatch,
    KvRead,
    NotLeaderError,
    TaggedPut,
)
from repro.live.loadgen import (
    LoadReport,
    ZipfSampler,
    make_key_sampler,
    run_closed_loop,
    run_open_loop,
)
from repro.live.runtime import LiveRuntime, LiveRuntimeError, derive_process_seed
from repro.live.sharding import (
    ShardRouter,
    preferred_leader,
    shard_of,
    staggered_election_timeout,
)
from repro.live.transport import LinkFault, PeerTransport, TransportStats
from repro.live.wire import MAX_FRAME_BYTES, FrameError, read_frame, write_frame

del _codec

__all__ = [
    "AsyncKVClient",
    "ClusterConfig",
    "ClusterUnavailableError",
    "ConsensusEngine",
    "DEFAULT_ENGINE",
    "ENGINES",
    "EngineError",
    "FdEvent",
    "FdHeartbeat",
    "FrameError",
    "get_engine",
    "OmegaDetector",
    "parse_engine_spec",
    "KVServer",
    "KVShard",
    "KvBatch",
    "KvRead",
    "LinkFault",
    "LiveCluster",
    "LiveKVCluster",
    "LiveRuntime",
    "LiveRuntimeError",
    "LoadReport",
    "MAX_FRAME_BYTES",
    "NodeSpec",
    "NotLeaderError",
    "PeerTransport",
    "READ_TIERS",
    "RequestRefusedError",
    "ShardRouter",
    "TaggedPut",
    "TransportStats",
    "ZipfSampler",
    "derive_process_seed",
    "make_key_sampler",
    "merge_traces",
    "preferred_leader",
    "read_frame",
    "run_closed_loop",
    "run_open_loop",
    "shard_of",
    "staggered_election_timeout",
    "write_frame",
]
