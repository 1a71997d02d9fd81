"""Key→shard routing for multi-group (sharded) KV clusters.

A sharded cluster runs ``S`` independent Raft groups on the same node set,
multiplexed over one peer connection per node pair (shard-tagged frames,
see :mod:`repro.live.wire`).  The keyspace is hash-partitioned: every key
deterministically belongs to exactly one shard, so a ``put``/``get`` never
crosses groups and ``S`` leaders commit in parallel.

The hash is computed identically by servers and clients — and must be
*stable across processes and Python versions*, which rules out the
builtin ``hash()`` (salted per process for strings).  :func:`shard_of`
therefore hashes a canonical byte encoding of the key with BLAKE2b.

Leader placement is *staggered*: shard ``i`` prefers starting leadership
on node ``i mod n`` (the preferred node gets the configured election
timeout range; the others get a strictly later range), so the ``S``
leaders spread across the cluster instead of piling onto whichever node's
timer fires first.  This is a preference, not a constraint — after a
crash any node can win the shard's election, exactly as in plain Raft.
The two placement functions live with the campaign triggers that apply
them (:mod:`repro.algorithms.trigger`) and are re-exported here.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Dict, Optional, Tuple

from repro.algorithms.trigger import preferred_leader, staggered_election_timeout
from repro.live.config import ClusterConfig
from repro.options import check_shards

__all__ = [
    "ShardRouter",
    "preferred_leader",
    "shard_of",
    "staggered_election_timeout",
]


def _key_bytes(key: Any) -> bytes:
    """A canonical, process-independent byte encoding of a KV key.

    Distinct leading type tags keep ``"1"`` and ``1`` (and ``b"x"`` and
    ``"x"``) from colliding by construction.
    """
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, bytes):
        return b"b" + key
    if isinstance(key, bool):
        return b"?1" if key else b"?0"
    if isinstance(key, int):
        return b"i" + str(key).encode("ascii")
    return b"r" + repr(key).encode("utf-8")


def shard_of(key: Any, shards: int) -> int:
    """The shard owning ``key`` in a ``shards``-group cluster.

    Deterministic across processes, machines and Python versions — the
    router on a client must agree with every server forever.
    """
    if shards <= 1:
        return 0
    digest = hashlib.blake2b(_key_bytes(key), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


class ShardRouter:
    """Client-side routing state: key→shard plus per-shard leader hints.

    Args:
        cluster: the cluster membership (client addresses are used).
        shards: number of Raft groups the cluster runs.

    The router starts each shard's hint at its preferred leader's address
    (right on a cleanly started cluster), then learns from redirects
    (:meth:`note_leader`) and connection failures (:meth:`note_failure`,
    which rotates that shard — and only that shard — to another node).
    """

    def __init__(self, cluster: ClusterConfig, shards: int):
        self.cluster = cluster
        self.shards = check_shards("shards", shards)
        self._hints: Dict[int, Tuple[str, int]] = {}
        self._rotation = itertools.cycle(range(cluster.n))

    def shard_of(self, key: Any) -> int:
        """The shard owning ``key``."""
        return shard_of(key, self.shards)

    def target(self, shard: int) -> Tuple[str, int]:
        """The client address to try next for ``shard``."""
        hint = self._hints.get(shard)
        if hint is not None:
            return hint
        spec = self.cluster[preferred_leader(shard, self.cluster.n)]
        return spec.client_addr

    def note_leader(self, shard: int, addr: Tuple[str, int]) -> None:
        """A redirect named ``addr`` as ``shard``'s leader."""
        if 0 <= shard < self.shards:
            self._hints[shard] = addr

    def note_failure(
        self, shard: int, failed: Optional[Tuple[str, int]] = None
    ) -> None:
        """``shard``'s target failed: rotate it to some other node.

        Pass the address that actually failed as ``failed`` when the
        shard's hint may already have been cleared (say, by
        :meth:`invalidate_addr`) — otherwise the rotation computes the
        failed address from the *fallback* target and can land the shard
        right back on the dead node.
        """
        if failed is None:
            failed = self.target(shard)
        for _ in range(self.cluster.n):
            candidate = self.cluster[next(self._rotation)].client_addr
            if candidate != failed:
                self._hints[shard] = candidate
                return
        self._hints.pop(shard, None)

    def invalidate_addr(self, addr: Tuple[str, int]) -> None:
        """Forget every hint naming ``addr`` (its connection just reset).

        A node restart invalidates *all* leaderships it held, not only the
        shard whose request happened to hit the reset — without this, a
        shard whose hint still names the restarted node keeps retrying a
        deposed (or freshly rebooted, follower) server until its own
        request fails too, leaking one stale hint per shard.
        """
        stale = [shard for shard, hint in self._hints.items() if hint == addr]
        for shard in stale:
            del self._hints[shard]

    def hint(self, shard: int) -> Optional[Tuple[str, int]]:
        """The learned hint for ``shard`` (``None`` if still the default)."""
        return self._hints.get(shard)
