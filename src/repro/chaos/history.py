"""Client-observed histories: the raw material of linearizability checking.

A :class:`History` is a totally-ordered (by wall clock) record of every
operation a set of clients *invoked* against the cluster and what each one
*returned* — including the awkward cases a real client cannot avoid:

* a ``put`` that timed out after exhausting its retries is **ambiguous** —
  some attempt may have committed after the client gave up — and is
  recorded as an *open-ended* op (no return time).  The checker must
  allow it to have taken effect at any point after its invocation, or
  never;
* a ``get`` that failed constrains nothing (it observed no value) and is
  recorded as failed so it can be discarded before checking.

:class:`HistoryClient` wraps :class:`~repro.live.client.AsyncKVClient`
with exactly this bookkeeping.  All clients of one campaign share one
``History`` and one ``time.monotonic`` clock (they run in one process),
so invocation/return timestamps are mutually comparable — which is what
lets the checker use real-time order, the defining constraint of
linearizability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.runtime import Runtime, current_runtime
from repro.live.client import AsyncKVClient, ClusterUnavailableError

#: Operation kinds recorded in a history.
PUT, GET = "put", "get"


@dataclass
class OpRecord:
    """One client operation: invocation, and (maybe) its response.

    ``ret`` is ``None`` while the op is in flight or ambiguous (an
    open-ended op — it *may* have taken effect any time after ``inv``).
    ``ok`` is ``True`` for an acknowledged op, ``False`` for a definite
    failure (a failed read — constrains nothing), ``None`` for ambiguous.
    """

    op_id: str
    client: int
    kind: str  # PUT or GET
    key: Any
    value: Any = None  # put: value written; get: value observed (or None)
    inv: float = 0.0
    ret: Optional[float] = None
    ok: Optional[bool] = None
    found: Optional[bool] = None  # get only
    index: Optional[int] = None  # commit/applied index when known

    @property
    def open(self) -> bool:
        """Whether the op never returned (ambiguous timeout)."""
        return self.ret is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op_id": self.op_id,
            "client": self.client,
            "kind": self.kind,
            "key": self.key,
            "value": self.value,
            "inv": self.inv,
            "ret": self.ret,
            "ok": self.ok,
            "found": self.found,
            "index": self.index,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OpRecord":
        return cls(**{k: data.get(k) for k in (
            "op_id", "client", "kind", "key", "value", "inv", "ret", "ok",
            "found", "index",
        )})


class History:
    """An append-only, shared record of client operations.

    Single-threaded by construction (one asyncio event loop), so no
    locking: ``begin`` appends, the completion methods mutate in place.
    """

    def __init__(
        self,
        epoch: Optional[float] = None,
        *,
        runtime: Optional[Runtime] = None,
    ):
        self.rt = runtime if runtime is not None else current_runtime()
        self.epoch = self.rt.now() if epoch is None else epoch
        self.ops: List[OpRecord] = []
        self._counter = 0

    def now(self) -> float:
        return self.rt.now() - self.epoch

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin(self, client: int, kind: str, key: Any, value: Any = None) -> OpRecord:
        """Record an invocation; returns the open record to complete."""
        self._counter += 1
        op = OpRecord(
            op_id=f"op-{self._counter}",
            client=client,
            kind=kind,
            key=key,
            value=value,
            inv=self.now(),
        )
        self.ops.append(op)
        return op

    def complete_put(self, op: OpRecord, index: int) -> None:
        op.ret = self.now()
        op.ok = True
        op.index = index

    def complete_get(
        self, op: OpRecord, found: bool, value: Any, index: Optional[int] = None
    ) -> None:
        op.ret = self.now()
        op.ok = True
        op.found = found
        op.value = value
        op.index = index

    def fail(self, op: OpRecord) -> None:
        """A definite failure (failed read): constrains nothing."""
        op.ret = self.now()
        op.ok = False

    def ambiguous(self, op: OpRecord) -> None:
        """An ambiguous timeout: the op stays open-ended (``ret=None``)."""
        op.ok = None
        op.ret = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def completed(self) -> List[OpRecord]:
        return [op for op in self.ops if op.ok]

    def open_ops(self) -> List[OpRecord]:
        return [op for op in self.ops if op.open and op.ok is not False]

    def per_key(self) -> Dict[Any, List[OpRecord]]:
        """Ops grouped by key, each group sorted by invocation time.

        Checking per key is sound because the KV model is a map of
        independent registers: an interleaving exists for the whole
        history iff one exists per key (operations on different keys
        commute).
        """
        groups: Dict[Any, List[OpRecord]] = {}
        for op in sorted(self.ops, key=lambda o: o.inv):
            groups.setdefault(op.key, []).append(op)
        return groups

    # ------------------------------------------------------------------
    # Serialization (witness files, offline re-checking)
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(op.to_dict()) for op in self.ops) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "History":
        history = cls(epoch=0.0)
        for line in text.splitlines():
            line = line.strip()
            if line:
                history.ops.append(OpRecord.from_dict(json.loads(line)))
        history._counter = len(history.ops)
        return history

    @classmethod
    def from_ops(cls, ops: Iterable[OpRecord]) -> "History":
        history = cls(epoch=0.0)
        history.ops = list(ops)
        history._counter = len(history.ops)
        return history


@dataclass
class HistoryClient:
    """An :class:`AsyncKVClient` wrapper that records everything it does.

    Puts are retried inside the wrapped client and applied once; from the
    history's point of view one ``put`` call is one operation spanning all
    its retries, which is exactly the window in which it may take effect.
    Reads are linearizable (:class:`~repro.live.kv.KvRead` markers) so the
    recorded history is checkable against the register model.
    """

    client: AsyncKVClient
    history: History
    client_id: int
    stats: Dict[str, int] = field(
        default_factory=lambda: {"ok": 0, "ambiguous": 0, "failed": 0}
    )

    async def put(self, key: Any, value: Any) -> Optional[int]:
        op = self.history.begin(self.client_id, PUT, key, value)
        try:
            index = await self.client.put(key, value)
        except (ClusterUnavailableError, ConnectionError, OSError, TimeoutError):
            # Ambiguous: some retry may have committed server-side.
            self.history.ambiguous(op)
            self.stats["ambiguous"] += 1
            return None
        self.history.complete_put(op, index)
        self.stats["ok"] += 1
        return index

    async def get(self, key: Any) -> Optional[Dict[str, Any]]:
        op = self.history.begin(self.client_id, GET, key)
        try:
            response = await self.client.get(key, linearizable=True)
        except (ClusterUnavailableError, ConnectionError, OSError, TimeoutError):
            # A read that observed nothing constrains nothing.
            self.history.fail(op)
            self.stats["failed"] += 1
            return None
        self.history.complete_get(
            op, bool(response.get("found")), response.get("value"),
            response.get("applied"),
        )
        self.stats["ok"] += 1
        return response

    async def close(self) -> None:
        await self.client.close()
