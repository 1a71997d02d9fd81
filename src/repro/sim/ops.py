"""Operations a process coroutine may yield to the runtime.

A process is a generator.  Each ``yield`` hands the runtime an operation
object from this module; the runtime performs it and resumes the generator
with the operation's result (``None`` for fire-and-forget operations such as
:class:`Send`).

Two operation families exist:

* **Asynchronous operations** (:class:`Send`, :class:`Broadcast`,
  :class:`Receive`, :class:`SetTimer`, :class:`CancelTimer`) are understood
  by :class:`repro.sim.async_runtime.AsyncRuntime`.
* **Synchronous operations** (:class:`Exchange`, :class:`ExchangeTo`) are
  understood by :class:`repro.sim.sync_runtime.SyncRuntime` and act as the
  per-round barrier.

:class:`Decide`, :class:`Annotate` and :class:`Halt` are common to both.

The asynchronous family is also understood by the live cluster runtime
(:class:`repro.live.runtime.LiveRuntime`), which performs the same
operations over real asyncio TCP connections — the same process generator
runs unmodified on either substrate.  :func:`match_mailbox` is the single
shared implementation of :class:`Receive` matching, so blocking semantics
are identical in simulation and live execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.messages import Envelope, Pid


class Op:
    """Marker base class for all operations a process may yield."""

    __slots__ = ()


@dataclass(frozen=True)
class Send(Op):
    """Send ``payload`` to process ``dst``.  Result: ``None``."""

    dst: Pid
    payload: Any


@dataclass(frozen=True)
class Broadcast(Op):
    """Send ``payload`` to every process.

    ``include_self`` defaults to ``True`` because the paper's algorithms
    ("send to all") count the sender's own message — e.g. Ben-Or's processes
    count their own ``<1, v>`` among the ``n - t`` they wait for.

    Result: ``None``.
    """

    payload: Any
    include_self: bool = True


@dataclass(frozen=True)
class Receive(Op):
    """Block until ``count`` mailbox entries match ``predicate``; consume them.

    The predicate receives each :class:`~repro.sim.messages.Envelope` and
    returns whether it matches.  ``predicate=None`` matches everything,
    including :class:`TimerFired` pseudo-envelopes.  Matching entries are
    removed from the mailbox and returned as a list (in delivery order);
    non-matching entries stay buffered for later receives — this is how a
    process in protocol round ``m`` ignores stragglers from round ``m - 1``
    and early arrivals from round ``m + 1``.

    With ``consume=False`` the matched entries are returned but left in the
    mailbox (a blocking *peek*).  The decentralized-Raft reconciliator uses
    this to eavesdrop on the next round's proposals without stealing them
    from the VAC that will need them.

    Result: ``list[Envelope]`` of length ``count``.
    """

    count: int = 1
    predicate: Optional[Callable[[Envelope], bool]] = None
    consume: bool = True


@dataclass(frozen=True)
class SetTimer(Op):
    """Arm (or re-arm) the timer called ``name`` to fire after ``delay``.

    When the timer fires, a :class:`TimerFired` payload is delivered through
    the process's own mailbox, so ``Receive`` can wait for messages and
    timers uniformly.  Re-arming a pending timer cancels the previous one.

    Result: ``None``.
    """

    delay: float
    name: str = "timer"


@dataclass(frozen=True)
class CancelTimer(Op):
    """Cancel the pending timer called ``name`` (no-op if not armed).

    Result: ``None``.
    """

    name: str = "timer"


@dataclass(frozen=True, slots=True)
class TimerFired:
    """Payload delivered to a process when one of its timers fires."""

    name: str


@dataclass(frozen=True)
class Exchange(Op):
    """Synchronous-round barrier: broadcast ``payload``, receive the round.

    Every live process must reach an exchange for the round to complete.
    ``payload=None`` means "participate but send nothing" (used e.g. by
    non-king processes during Phase-King's conciliator round).

    Result: ``dict[Pid, Any]`` mapping each sender that sent something this
    round to the payload *this* process received from it.
    """

    payload: Any = None


@dataclass(frozen=True)
class ExchangeTo(Op):
    """Synchronous-round barrier with per-recipient payloads (equivocation).

    Only Byzantine processes use this: it lets a faulty process send a
    different value to each recipient in the same round.  Recipients absent
    from ``payloads`` receive nothing from this sender.

    Result: ``dict[Pid, Any]`` as for :class:`Exchange`.
    """

    payloads: Dict[Pid, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Decide(Op):
    """Record that this process decided ``value``.

    Deciding does **not** halt the process: several of the paper's protocols
    (Phase-King explicitly, Ben-Or implicitly) require processes to keep
    participating after deciding so that slower processes still receive
    enough messages.  A process that should stop yields :class:`Halt` (or
    simply returns).  Deciding twice with different values raises — the
    runtime enforces decision irrevocability.

    Result: ``None``.
    """

    value: Any


@dataclass(frozen=True)
class Annotate(Op):
    """Attach ``(key, value)`` to the trace at the current virtual time.

    Annotations are the hook the property checkers use: e.g. the consensus
    templates annotate every VAC/AC outcome so coherence and convergence can
    be verified per round after the run.

    Result: ``None``.
    """

    key: str
    value: Any


@dataclass(frozen=True)
class Halt(Op):
    """Stop this process immediately.  The generator is not resumed again."""


def match_mailbox(
    mailbox: List[Envelope], receive: "Receive"
) -> Optional[List[Envelope]]:
    """Try to satisfy ``receive`` against ``mailbox``.

    Returns ``receive.count`` matching envelopes in delivery order, removing
    them from the mailbox when ``receive.consume`` is set — or ``None`` when
    fewer than ``count`` entries match (the caller stays blocked).  Both the
    virtual-time and the live runtimes route every ``Receive`` through this
    function, so message-selection semantics cannot drift between
    substrates.
    """
    if len(mailbox) < receive.count:
        return None  # cannot possibly be satisfied; skip the scan
    predicate = receive.predicate
    if predicate is None and receive.count == 1 and receive.consume:
        return [mailbox.pop(0)]  # hottest shape: take the oldest envelope
    matches: List[int] = []
    for idx, envelope in enumerate(mailbox):
        if predicate is None or predicate(envelope):
            matches.append(idx)
            if len(matches) == receive.count:
                break
    if len(matches) < receive.count:
        return None
    result = [mailbox[i] for i in matches]
    if receive.consume:
        for i in reversed(matches):
            del mailbox[i]
    return result
