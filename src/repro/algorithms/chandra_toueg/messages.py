"""Chandra-Toueg message types (one per protocol phase, plus Decide)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.messages import Pid


@dataclass(frozen=True, slots=True)
class Estimate:
    """Phase 1: a process sends the coordinator its current estimate,
    timestamped with the last round that updated it."""

    round_no: int
    value: Any
    timestamp: int
    sender: Pid


@dataclass(frozen=True, slots=True)
class CoordinatorProposal:
    """Phase 2: the coordinator relays the highest-timestamped estimate."""

    round_no: int
    value: Any


@dataclass(frozen=True, slots=True)
class Ack:
    """Phase 3: adopted the coordinator's proposal (positive)."""

    round_no: int
    sender: Pid


@dataclass(frozen=True, slots=True)
class Nack:
    """Phase 3: suspected the coordinator instead (negative)."""

    round_no: int
    sender: Pid


@dataclass(frozen=True, slots=True)
class CtDecide:
    """Phase 4 / reliable broadcast: the locked value is decided."""

    value: Any
