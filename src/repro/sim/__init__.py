"""Message-passing simulation substrate.

This package provides the two discrete-event simulators every algorithm in
:mod:`repro.algorithms` runs on:

* :class:`repro.sim.async_runtime.AsyncRuntime` — an asynchronous,
  virtual-time, event-driven simulator with configurable message delays,
  drops, partitions, crash/restart injection and timers.  Ben-Or, Raft and
  the decentralized Raft variant run here.
* :class:`repro.sim.sync_runtime.SyncRuntime` — a synchronous, lock-step,
  round-based simulator with Byzantine processes that may equivocate (send
  different values to different recipients).  Phase-King runs here.

Processes are generator coroutines: an algorithm is written as a generator
that *yields* operation objects (:mod:`repro.sim.ops`) and is resumed by the
runtime with the operation's result.  Sub-protocols — the paper's
adopt-commit, vacillate-adopt-commit, conciliator and reconciliator objects —
are generators invoked with ``yield from``, which makes the paper's
pseudocode map one-to-one onto the implementation.

All randomness is derived from a single per-run seed, so executions are fully
reproducible.
"""

from repro.sim.async_runtime import AsyncRuntime, RunResult
from repro.sim.failures import ByzantineProcess, CrashPlan
from repro.sim.messages import Envelope, Message
from repro.sim.network import NetworkConfig
from repro.sim.ops import (
    Annotate,
    Broadcast,
    CancelTimer,
    Decide,
    Exchange,
    ExchangeTo,
    Halt,
    Receive,
    Send,
    SetTimer,
    TimerFired,
)
from repro.sim.process import Process, ProcessAPI
from repro.sim.sync_runtime import SyncResult, SyncRuntime
from repro.sim.trace import Trace, TraceEvent

__all__ = [
    "Annotate",
    "AsyncRuntime",
    "Broadcast",
    "ByzantineProcess",
    "CancelTimer",
    "CrashPlan",
    "Decide",
    "Envelope",
    "Exchange",
    "ExchangeTo",
    "Halt",
    "Message",
    "NetworkConfig",
    "Process",
    "ProcessAPI",
    "Receive",
    "RunResult",
    "Send",
    "SetTimer",
    "SyncResult",
    "SyncRuntime",
    "TimerFired",
    "Trace",
    "TraceEvent",
]
