"""Asynchronous, virtual-time, discrete-event simulator.

:class:`AsyncRuntime` executes a set of :class:`~repro.sim.process.Process`
coroutines over a :class:`~repro.sim.network.NetworkConfig`.  Virtual time
advances event by event; message latencies, drops and partitions come from
the network model, timers fire exactly when armed, and crash/restart plans
(:class:`~repro.sim.failures.CrashPlan`) are injected at the scheduled
moments — including crashes *in the middle of a broadcast*, which deliver the
message to only a prefix of the recipients.

Determinism
-----------
All randomness (latencies, drops, per-process algorithm RNGs) derives from a
single integer seed, and simultaneous events fire in schedule order, so a run
is a pure function of ``(processes, config, seed)``.  Experiment E4 relies on
this to compare the monolithic and decomposed variants of an algorithm under
literally identical schedules.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.sim import trace as tr
from repro.sim.events import (
    CrashProcess,
    DeliverMessage,
    EventQueue,
    FireTimer,
    RestartProcess,
)
from repro.sim.failures import CrashPlan
from repro.sim.messages import Envelope, Message, Pid
from repro.sim.network import NetworkConfig
from repro.sim.ops import (
    Annotate,
    Broadcast,
    CancelTimer,
    Decide,
    Halt,
    Op,
    Receive,
    Send,
    SetTimer,
    TimerFired,
    match_mailbox,
)
from repro.sim.process import Process, ProcessAPI

_UNDECIDED = object()

#: Reasons a run can stop.
STOP_CONDITION = "stop_condition"
QUEUE_EMPTY = "queue_empty"
MAX_TIME = "max_time"
MAX_EVENTS = "max_events"


class SimulationError(RuntimeError):
    """Raised on protocol violations (e.g. a process deciding twice)."""


@dataclass
class RunResult:
    """Outcome of one asynchronous run.

    Attributes:
        trace: the full execution trace.
        decisions: pid -> decided value, for every process that decided.
        final_time: virtual time when the run stopped.
        events_processed: number of simulator events handled.
        stop_reason: one of ``stop_condition``, ``queue_empty``,
            ``max_time``, ``max_events``.
    """

    trace: tr.Trace
    decisions: Dict[Pid, Any]
    final_time: float
    events_processed: int
    stop_reason: str

    def decided_value(self) -> Any:
        """The unique decided value; raises if processes disagree or none decided."""
        values = set(self.decisions.values())
        if len(values) != 1:
            raise SimulationError(f"no unique decision: {self.decisions}")
        return next(iter(values))


class _ProcState:
    """Internal per-process bookkeeping."""

    __slots__ = (
        "process",
        "api",
        "gen",
        "mailbox",
        "pending",
        "alive",
        "halted",
        "decided",
        "sends",
        "crash_after_sends",
        "timer_gen",
    )

    def __init__(self, process: Process, api: ProcessAPI):
        self.process = process
        self.api = api
        self.gen = None
        self.mailbox: List[Envelope] = []
        self.pending: Optional[Receive] = None
        self.alive = True
        self.halted = False
        self.decided: Any = _UNDECIDED
        self.sends = 0
        self.crash_after_sends: Optional[int] = None
        self.timer_gen: Dict[str, int] = {}

    @property
    def runnable(self) -> bool:
        return self.alive and not self.halted


class AsyncRuntime:
    """Run a set of processes under the asynchronous message-passing model.

    Args:
        processes: one :class:`~repro.sim.process.Process` per pid.
        init_values: per-process consensus inputs (defaults to ``None``).
        t: resilience parameter exposed through
            :class:`~repro.sim.process.ProcessAPI` (quorum sizes); defaults
            to the number of crash plans.
        network: network behaviour; defaults to reliable links with
            uniform latencies.
        seed: master seed for every random choice in the run.
        crash_plans: crash/restart schedule.
        max_time: stop once virtual time would exceed this.
        max_events: hard cap on processed events (guards non-termination).
        stop_when: ``"all_alive_decided"`` (default — stop as soon as every
            live, started process has decided), ``"all_halted"``,
            ``"queue_empty"``, or a custom predicate over the runtime.
        observers: trace listeners invoked on every recorded event — the
            online invariant checkers of :mod:`repro.dst` plug in here.  An
            observer that raises aborts the run at the offending event; the
            prefix recorded so far stays available as ``runtime.trace``.
        record_trace: with ``False`` the trace is a no-op sink — events are
            not stored (observers still fire), which removes per-event
            allocation from the kernel's hot path.  Scheduling is
            unaffected: a run is byte-identical whether or not it records.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        *,
        init_values: Optional[Sequence[Any]] = None,
        t: Optional[int] = None,
        network: Optional[NetworkConfig] = None,
        seed: int = 0,
        crash_plans: Sequence[CrashPlan] = (),
        max_time: float = math.inf,
        max_events: int = 2_000_000,
        stop_when: Union[str, Callable[["AsyncRuntime"], bool]] = "all_alive_decided",
        observers: Sequence[tr.TraceListener] = (),
        record_trace: bool = True,
    ):
        n = len(processes)
        if n == 0:
            raise ValueError("need at least one process")
        if init_values is None:
            init_values = [None] * n
        if len(init_values) != n:
            raise ValueError("init_values length must match processes")
        self.n = n
        self.t = t if t is not None else len(crash_plans)
        self.network = network or NetworkConfig()
        self.seed = seed
        self.max_time = max_time
        self.max_events = max_events
        self.stop_when = stop_when
        self.trace = tr.Trace(tuple(observers), record=record_trace)
        self.now = 0.0
        self._queue = EventQueue()
        self._net_rng = random.Random(seed * 2654435761 % (2**63) + 1)
        master = random.Random(seed)
        proc_seeds = [master.randrange(2**63) for _ in range(n)]
        self._states: List[_ProcState] = []
        for pid, process in enumerate(processes):
            api = ProcessAPI(
                pid, n, self.t, init_values[pid], random.Random(proc_seeds[pid])
            )
            self._states.append(_ProcState(process, api))
        self._crash_plans = list(crash_plans)
        self._pending_restarts: set = set()
        self._events_processed = 0
        self._seq = 0
        # The string stop conditions depend only on per-process liveness /
        # decision state, so they are re-evaluated lazily: only after an
        # event that could have changed the answer (decide, crash, restart,
        # halt).  Callable ``stop_when`` predicates are opaque and keep
        # being evaluated every iteration.
        self._stop_dirty = True

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the simulation to completion and return its result."""
        self._schedule_failures()
        for state in self._states:
            self._start(state)
        reason = QUEUE_EMPTY
        stop_is_callable = callable(self.stop_when)
        while True:
            if stop_is_callable:
                if self._stop_condition():
                    reason = STOP_CONDITION
                    break
            elif self._stop_dirty:
                self._stop_dirty = False
                if self._stop_condition():
                    reason = STOP_CONDITION
                    break
            if not self._queue:
                reason = QUEUE_EMPTY
                break
            if self._events_processed >= self.max_events:
                reason = MAX_EVENTS
                break
            time, event = self._queue.pop()
            if time > self.max_time:
                reason = MAX_TIME
                break
            self.now = time
            self._events_processed += 1
            self._dispatch(event)
        return RunResult(
            trace=self.trace,
            decisions=self.decisions(),
            final_time=self.now,
            events_processed=self._events_processed,
            stop_reason=reason,
        )

    def decisions(self) -> Dict[Pid, Any]:
        """pid -> decided value for every process that has decided so far."""
        return {
            state.api.pid: state.decided
            for state in self._states
            if state.decided is not _UNDECIDED
        }

    @property
    def pending_restarts(self) -> frozenset:
        """Pids crashed now but scheduled to restart later.

        Custom ``stop_when`` predicates usually want to keep the run alive
        while this is non-empty, so restarted processes get to rejoin.
        """
        return frozenset(self._pending_restarts)

    def is_alive(self, pid: Pid) -> bool:
        """Whether ``pid`` is currently running (not crashed)."""
        return self._states[pid].alive

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, event: Any) -> None:
        if isinstance(event, DeliverMessage):
            self._deliver(event.envelope)
        elif isinstance(event, FireTimer):
            self._fire_timer(event)
        elif isinstance(event, CrashProcess):
            self._crash(event.pid)
        elif isinstance(event, RestartProcess):
            self._restart(event.pid)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event {event!r}")

    def _deliver(self, envelope: Envelope) -> None:
        state = self._states[envelope.dst]
        if not (state.alive and not state.halted):
            self.trace.record(self.now, tr.DROP, envelope.dst, envelope)
            return
        delivered = Envelope(
            envelope.message, envelope.send_time, self.now, envelope.seq
        )
        self.trace.record(self.now, tr.DELIVER, envelope.dst, delivered)
        state.mailbox.append(delivered)
        self._try_unblock(state)

    def _fire_timer(self, event: FireTimer) -> None:
        state = self._states[event.pid]
        if not state.runnable:
            return
        if state.timer_gen.get(event.name, 0) != event.gen:
            return  # stale: timer was re-armed or cancelled since
        self.trace.record(self.now, tr.TIMER, event.pid, event.name)
        envelope = Envelope(
            Message(event.pid, event.pid, TimerFired(event.name)),
            self.now,
            self.now,
            self._next_seq(),
        )
        state.mailbox.append(envelope)
        self._try_unblock(state)

    def _crash(self, pid: Pid) -> None:
        state = self._states[pid]
        if not state.alive:
            return
        state.alive = False
        state.pending = None
        state.mailbox.clear()
        if state.gen is not None:
            state.gen.close()
            state.gen = None
        self._stop_dirty = True
        self.trace.record(self.now, tr.CRASH, pid)

    def _restart(self, pid: Pid) -> None:
        state = self._states[pid]
        self._pending_restarts.discard(pid)
        if state.alive:
            return
        state.alive = True
        state.halted = False
        # Cancel the last incarnation's timers without reusing a
        # generation: a pre-crash timer must not match a fresh re-arm.
        for name in state.timer_gen:
            state.timer_gen[name] += 1
        state.crash_after_sends = None
        self._stop_dirty = True
        state.process.on_restart(state.api)
        self.trace.record(self.now, tr.RESTART, pid)
        self._start(state)

    # ------------------------------------------------------------------
    # Process execution
    # ------------------------------------------------------------------

    def _start(self, state: _ProcState) -> None:
        state.gen = state.process.run(state.api)
        self._resume(state, None)

    def _try_unblock(self, state: _ProcState) -> None:
        if state.pending is None or not state.runnable:
            return
        matched = self._try_match(state)
        if matched is not None:
            state.pending = None
            self._resume(state, matched)

    def _try_match(self, state: _ProcState) -> Optional[List[Envelope]]:
        """Extract ``pending.count`` matching envelopes from the mailbox."""
        receive = state.pending
        assert receive is not None
        return match_mailbox(state.mailbox, receive)

    def _resume(self, state: _ProcState, value: Any) -> None:
        """Drive one process until it blocks, halts, or crashes."""
        while state.runnable:
            state.api.now = self.now
            assert state.gen is not None
            try:
                op = state.gen.send(value)
            except StopIteration:
                state.halted = True
                self._stop_dirty = True
                self.trace.record(self.now, tr.HALT, state.api.pid)
                return
            value = None
            if isinstance(op, Receive):
                if op.count < 1:
                    raise SimulationError("Receive.count must be >= 1")
                state.pending = op
                matched = self._try_match(state)
                if matched is None:
                    return  # blocked until delivery
                state.pending = None
                value = matched
            else:
                value = self._perform(state, op)

    def _perform(self, state: _ProcState, op: Op) -> Any:
        pid = state.api.pid
        if isinstance(op, Send):
            self._send(state, op.dst, op.payload)
        elif isinstance(op, Broadcast):
            for dst in range(self.n):
                if dst == pid and not op.include_self:
                    continue
                if not state.alive:
                    break  # crashed mid-broadcast: remaining sends are lost
                self._send(state, dst, op.payload)
        elif isinstance(op, SetTimer):
            if op.delay < 0:
                raise SimulationError("timer delay must be >= 0")
            gen = state.timer_gen.get(op.name, 0) + 1
            state.timer_gen[op.name] = gen
            self._queue.push(self.now + op.delay, FireTimer(pid, op.name, gen))
        elif isinstance(op, CancelTimer):
            state.timer_gen[op.name] = state.timer_gen.get(op.name, 0) + 1
        elif isinstance(op, Decide):
            if state.decided is not _UNDECIDED and state.decided != op.value:
                raise SimulationError(
                    f"process {pid} decided {op.value!r} after {state.decided!r}"
                )
            if state.decided is _UNDECIDED:
                state.decided = op.value
                self._stop_dirty = True
                self.trace.record(self.now, tr.DECIDE, pid, op.value)
        elif isinstance(op, Annotate):
            self.trace.record(self.now, tr.ANNOTATE, pid, (op.key, op.value))
        elif isinstance(op, Halt):
            state.halted = True
            self._stop_dirty = True
            self.trace.record(self.now, tr.HALT, pid)
        else:
            raise SimulationError(
                f"operation {op!r} is not valid under the asynchronous runtime"
            )
        return None

    def _send(self, state: _ProcState, dst: Pid, payload: Any) -> None:
        pid = state.api.pid
        state.sends += 1
        latency = self.network.route(self._net_rng, pid, dst, self.now, payload)
        message = Message(pid, dst, payload)
        if latency is None:
            self.trace.record(self.now, tr.DROP, pid, message)
        else:
            envelope = Envelope(message, self.now, self.now + latency, self._next_seq())
            self.trace.record(self.now, tr.SEND, pid, envelope)
            self._queue.push(self.now + latency, DeliverMessage(envelope))
        if (
            state.crash_after_sends is not None
            and state.sends >= state.crash_after_sends
        ):
            self._crash(pid)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # Failure and stop plumbing
    # ------------------------------------------------------------------

    def _schedule_failures(self) -> None:
        for plan in self._crash_plans:
            if not 0 <= plan.pid < self.n:
                raise ValueError(f"crash plan for unknown pid {plan.pid}")
            if plan.at_time is not None:
                self._queue.push(plan.at_time, CrashProcess(plan.pid))
            else:
                self._states[plan.pid].crash_after_sends = plan.after_sends
            if plan.restart_at is not None:
                self._pending_restarts.add(plan.pid)
                self._queue.push(plan.restart_at, RestartProcess(plan.pid))

    def _stop_condition(self) -> bool:
        if callable(self.stop_when):
            return self.stop_when(self)
        if self.stop_when == "all_alive_decided":
            alive = [s for s in self._states if s.alive]
            return bool(alive) and all(s.decided is not _UNDECIDED for s in alive)
        if self.stop_when == "all_halted":
            if self._pending_restarts:
                return False
            return all(not s.runnable for s in self._states)
        if self.stop_when == "queue_empty":
            return False
        raise ValueError(f"unknown stop_when {self.stop_when!r}")
