"""A Wing & Gill-style linearizability checker for KV register histories.

Model: each key is an independent atomic register (``put`` writes, ``get``
reads).  A history is linearizable iff every operation can be assigned a
single linearization point inside its invocation→return window such that
the points, taken in order, describe a legal register execution.  Keys
are checked independently (:meth:`History.per_key` explains why that is
sound), which turns one exponential search into many small ones — the
standard decomposition every practical checker (Knossos, Porcupine) uses.

Per key the search is Wing & Gill's: repeatedly pick a *minimal* pending
operation — one invoked before every pending operation's return, so
linearizing it first cannot violate real-time order — apply it to the
register, and recurse; backtrack when a read doesn't match the register.
Two refinements keep it tractable:

* **memoization** on ``(bitmask of linearized ops, register value)``
  (Lowe's cache): two search paths that linearized the same set of ops
  and produced the same value are interchangeable, so each such
  configuration is explored once;
* a **time budget**: the problem is NP-complete, so the checker gives up
  (verdict ``None`` — unknown, *not* a violation) rather than hang CI.

Open-ended operations (ambiguous client timeouts) have no return time:
they are allowed to linearize at any point after invocation *or never*
(the classic crashed-operation rule) — so the checker accepts a history
whether a lost ``put`` took effect or not, and rejects only genuinely
contradictory observations.

On violation the checker reports a **minimal witness**: the shortest
prefix of the key's history (by completion order) that is already
non-linearizable, with the failing operation last — small enough to read,
and stable enough to paste into a regression test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.history import GET, PUT, History, OpRecord

#: Register value of a key never written (reads expect found=False).
UNWRITTEN = object()

#: How many search steps between time-budget checks.
_BUDGET_STRIDE = 256


@dataclass
class KeyResult:
    """Verdict for one key: ``ok`` is True/False/None (None = budget hit)."""

    key: Any
    ok: Optional[bool]
    ops: int
    states_explored: int = 0
    witness: List[OpRecord] = field(default_factory=list)
    reason: str = ""


@dataclass
class CheckReport:
    """Verdict for a whole history."""

    results: List[KeyResult]
    elapsed: float
    budget_exhausted: bool = False

    @property
    def ok(self) -> Optional[bool]:
        """True if every key checked out, False on any violation, None if
        the only blemish is an exhausted budget."""
        if any(r.ok is False for r in self.results):
            return False
        if any(r.ok is None for r in self.results):
            return None
        return True

    @property
    def violations(self) -> List[KeyResult]:
        return [r for r in self.results if r.ok is False]

    def summary(self) -> str:
        total_ops = sum(r.ops for r in self.results)
        if self.ok is True:
            return (
                f"linearizable: {total_ops} ops over {len(self.results)} "
                f"keys in {self.elapsed:.2f}s"
            )
        if self.ok is None:
            pending = sum(1 for r in self.results if r.ok is None)
            return (
                f"unknown: budget exhausted on {pending} key(s) "
                f"({total_ops} ops, {self.elapsed:.2f}s)"
            )
        bad = self.violations
        lines = [
            f"NOT linearizable: {len(bad)} key(s) violate "
            f"({total_ops} ops, {self.elapsed:.2f}s)"
        ]
        for result in bad:
            lines.append(
                f"  key {result.key!r}: {result.reason} "
                f"(witness: {len(result.witness)} ops)"
            )
        return "\n".join(lines)


class _Budget:
    """A shared wall-clock budget across all per-key searches."""

    def __init__(self, seconds: Optional[float]):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.steps = 0
        self.exhausted = False

    def spent(self) -> bool:
        if self.exhausted:
            return True
        self.steps += 1
        if (
            self.deadline is not None
            and self.steps % _BUDGET_STRIDE == 0
            and time.monotonic() > self.deadline
        ):
            self.exhausted = True
        return self.exhausted


def _entries(ops: List[OpRecord]) -> List[OpRecord]:
    """The checkable ops of one key: acked + open (failed reads dropped)."""
    out = []
    for op in ops:
        if op.ok is False:
            continue  # a definite failure observed nothing
        if op.kind == GET and op.open:
            continue  # an unreturned read constrains nothing either
        out.append(op)
    return out


def _observed(op: OpRecord) -> Any:
    """The register value a completed read claims to have seen."""
    return op.value if op.found else UNWRITTEN


class _KeySearch:
    """Wing & Gill search over one key's operations.

    Iterative DFS with two intrusive doubly-linked lists over the pending
    ops (Porcupine's representation): one sorted by *invocation* — scanned
    from the head to enumerate candidates, stopping at the first op
    invoked after the bound — and one of completed ops sorted by *return*,
    whose head is the bound (the earliest pending return) in O(1).
    Linearizing an op unlinks it from both lists; backtracking relinks it
    (dancing links), so each level's scan resumes where it stopped.  The
    memo key is ``(bitmask of linearized ops, register value)``.  Per-step
    cost is O(concurrent ops), so a low-contention history checks in
    near-linear time.
    """

    def __init__(self, ops: List[OpRecord], budget: _Budget):
        self.ops = ops
        self.budget = budget
        self.states = 0

    def check(self) -> Optional[bool]:
        """True = linearizable, False = not, None = budget exhausted."""
        ops = self.ops
        n = len(ops)
        if n == 0:
            return True
        head, tail = n, n + 1  # sentinel indices for both lists
        nxt = [0] * (n + 2)
        prv = [0] * (n + 2)
        seq = [head] + sorted(range(n), key=lambda i: ops[i].inv) + [tail]
        for a, b in zip(seq, seq[1:]):
            nxt[a], prv[b] = b, a
        rnxt = [0] * (n + 2)
        rprv = [0] * (n + 2)
        rseq = (
            [head]
            + sorted(
                (i for i in range(n) if not ops[i].open),
                key=lambda i: ops[i].ret,
            )
            + [tail]
        )
        for a, b in zip(rseq, rseq[1:]):
            rnxt[a], rprv[b] = b, a

        def unlink(i: int) -> None:
            nxt[prv[i]], prv[nxt[i]] = nxt[i], prv[i]
            if not ops[i].open:
                rnxt[rprv[i]], rprv[rnxt[i]] = rnxt[i], rprv[i]

        def relink(i: int) -> None:
            nxt[prv[i]] = prv[nxt[i]] = i
            if not ops[i].open:
                rnxt[rprv[i]] = rprv[rnxt[i]] = i

        memo: set = set()
        mask = 0
        value: Any = UNWRITTEN
        stack: List[Tuple[int, Any]] = []  # (op linearized, prior value)
        cur = nxt[head]  # scan position at the current level
        while True:
            if self.budget.spent():
                return None
            if rnxt[head] == tail:
                return True  # only open ops pend; they may never linearize
            if (mask, value) in memo:
                cur = tail  # a known dead configuration: force backtrack
            # The earliest pending return bounds candidates: an op invoked
            # after it would have to follow that completed op in real time.
            bound = ops[rnxt[head]].ret
            chosen = -1
            while cur != tail:
                op = ops[cur]
                if op.inv > bound:
                    break  # inv-sorted: nothing further can linearize yet
                if op.kind != GET or _observed(op) == value:
                    chosen = cur
                    break
                cur = nxt[cur]
            if chosen >= 0:
                self.states += 1
                unlink(chosen)
                stack.append((chosen, value))
                mask |= 1 << chosen
                if ops[chosen].kind == PUT:
                    value = ops[chosen].value
                cur = nxt[head]
                continue
            # Level exhausted: this configuration cannot be completed.
            memo.add((mask, value))
            if not stack:
                return False
            i, value = stack.pop()
            mask &= ~(1 << i)
            relink(i)
            cur = nxt[i]  # resume the parent level's scan past i


def check_key(
    key: Any, ops: List[OpRecord], budget: _Budget
) -> KeyResult:
    """Check one key's ops; on violation attach a minimal witness."""
    entries = _entries(ops)
    search = _KeySearch(entries, budget)
    verdict = search.check()
    result = KeyResult(
        key=key, ok=verdict, ops=len(entries), states_explored=search.states
    )
    if verdict is False:
        result.witness, result.reason = _minimal_witness(entries, budget)
    elif verdict is None:
        result.reason = "time budget exhausted"
    return result


def _minimal_witness(
    entries: List[OpRecord], budget: _Budget
) -> Tuple[List[OpRecord], str]:
    """A minimal non-linearizable prefix, by completion order.

    Prefix ``k`` contains the first ``k`` completed ops (by return time)
    plus, as open-ended ops, every put invoked by the ``k``-th return
    that had not returned by then — an open op, or a completed put that
    returns later.  Either might have taken effect inside the prefix: a
    read there may legally observe a write still in flight, and must not
    be blamed for it.  (A later-returning read is left out: in flight, it
    constrains nothing.)  Because the full history is
    non-linearizable and prefix ``0`` is trivially linearizable, some
    failing ``k`` exists.  Doubling finds a failing prefix in
    O(log) checks, then binary search narrows to the smallest ``k``
    whose prefix fails — the exact minimum whenever failing is monotone
    in ``k``, which it is unless an open op past one horizon rescues an
    earlier contradiction (rare; the result is still a genuine failing
    prefix).
    """
    completed = sorted(
        (op for op in entries if not op.open), key=lambda o: (o.ret, o.inv)
    )
    opens = [op for op in entries if op.open]

    def in_flight(k: int) -> List[OpRecord]:
        horizon = completed[k - 1].ret
        return [
            op for op in completed[k:] + opens
            if op.kind == PUT and op.inv <= horizon
        ]

    def fails(k: int) -> Optional[bool]:
        ops = completed[:k] + [replace(op, ret=None) for op in in_flight(k)]
        verdict = _KeySearch(ops, budget).check()
        return None if verdict is None else (verdict is False)

    total = len(completed)
    # Doubling: find some failing prefix size fast.  fails(total) is
    # guaranteed True — dropping open ops (optional rescuing writes) from
    # a failing history cannot make it pass.
    lo, hi = 0, 1
    while True:
        verdict = fails(hi)
        if verdict is None:
            everything = sorted(entries, key=lambda o: o.inv)
            return (
                everything,
                "non-linearizable (witness not minimized: budget hit)",
            )
        if verdict:
            break
        if hi >= total:  # cannot happen (see above); stay safe regardless
            everything = sorted(entries, key=lambda o: o.inv)
            return everything, "non-linearizable (full history only)"
        lo = hi
        hi = min(hi * 2, total)
    # Invariant: prefix(hi) fails, prefix(lo) passes; binary search.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        verdict = fails(mid)
        if verdict is None:
            break  # budget hit: hi is still a known-failing prefix
        if verdict:
            hi = mid
        else:
            lo = mid
    witness = sorted(completed[:hi] + in_flight(hi), key=lambda o: o.inv)
    return witness, _describe_violation(witness, completed[hi - 1])


def _describe_violation(prefix: List[OpRecord], last: OpRecord) -> str:
    if last.kind == GET:
        seen = "nothing" if not last.found else repr(last.value)
        return (
            f"read of {seen} at [{last.inv:.3f},{last.ret:.3f}] cannot be "
            f"linearized against any write order"
        )
    return (
        f"write of {last.value!r} completing at {last.ret:.3f} admits no "
        f"legal linearization"
    )


def check_history(
    history: History, *, time_budget: Optional[float] = 30.0
) -> CheckReport:
    """Check a whole history key by key under one shared time budget.

    Returns a :class:`CheckReport`; ``report.ok`` is ``True`` (all keys
    linearizable), ``False`` (at least one violation, each with a minimal
    witness), or ``None`` (budget exhausted before any violation).
    """
    start = time.monotonic()
    budget = _Budget(time_budget)
    results = []
    # Check the busiest keys first: they are the likeliest to violate and
    # the costliest, so they get the freshest budget.
    groups = sorted(
        history.per_key().items(), key=lambda kv: -len(kv[1])
    )
    for key, ops in groups:
        results.append(check_key(key, ops, budget))
    return CheckReport(
        results=results,
        elapsed=time.monotonic() - start,
        budget_exhausted=budget.exhausted,
    )
