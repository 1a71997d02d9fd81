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

A ``History`` is a recorder of :mod:`repro.live.loadgen`: the campaign's
workload (:func:`repro.live.loadgen.drive`) calls :meth:`History.begin`
and :meth:`History.end` around every op.  A put's retries happen inside
the client, so one recorded put spans them all — exactly the window in
which it may take effect.  All clients of one campaign share one
``History`` and one clock (they run in one process), so invocation/return
timestamps are mutually comparable — which is what lets the checker use
real-time order, the defining constraint of linearizability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.core.runtime import Runtime, current_runtime
from repro.live.loadgen import AMBIGUOUS, GET, OK, PUT


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
    locking: ``begin`` appends, ``end`` completes the record in place.
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

    def end(self, op: OpRecord, outcome: str, reply: Any) -> None:
        """Complete ``op`` with a :mod:`repro.live.loadgen` outcome.

        ``OK`` closes it with the reply (a put's commit index, a get's
        response); ``FAILED`` (a failed read) closes it not ok — it
        constrains nothing; ``AMBIGUOUS`` (a failed put) leaves it
        open-ended (``ret=None``), since some retry may have committed.
        """
        if outcome == AMBIGUOUS:
            return
        op.ret = self.now()
        op.ok = outcome == OK
        if op.ok and op.kind == PUT:
            op.index = reply
        elif op.ok:
            op.found = bool(reply.get("found"))
            op.value = reply.get("value")
            op.index = reply.get("applied")

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
