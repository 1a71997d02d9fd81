"""Chandra-Toueg consensus with an eventually-accurate failure detector.

A third asynchronous algorithm beyond the paper's examples (with Paxos and
Phase-Queen), again shaped like the Section 3 template.  Chandra & Toueg's
rotating-coordinator protocol (JACM 1996) solves consensus with ``t < n/2``
crash faults given a failure detector of class ◇S; here the detector is
*simulated* the standard way — per-target adaptive timeouts that double on
every false suspicion, which over a fair network makes the detector
eventually accurate (◇P ⊆ ◇S).

Round structure (round ``r``, coordinator ``c = (r - 1) mod n``):

1. everyone sends its timestamped estimate to ``c``;
2. ``c`` collects a majority and broadcasts the estimate with the highest
   timestamp;
3. everyone waits for ``c``'s proposal *or* suspects ``c`` (the failure
   detector's timeout): adopt-and-ack, or nack;
4. ``c`` collects a majority of acks/nacks; a majority of acks *locks* the
   value and ``c`` reliably broadcasts ``Decide``.

The template mapping: **adopt** — received the coordinator's proposal (a
majority of estimates stood behind its choice); **vacillate** — suspected
the coordinator, learning nothing about the round's value; **commit** —
received ``Decide``.  The **reconciliator** is the failure detector's
timeout, acting through *timing* like the election timer Raft and Paxos
share, but the coordinator rotates by round number, not by who campaigns.
Locking (majority-ack ⇒ every later coordinator re-proposes the same
value) is the leader-completeness analogue, asserted in the tests.
"""

from repro.algorithms.chandra_toueg.consensus import run_chandra_toueg
from repro.algorithms.chandra_toueg.failure_detector import AdaptiveTimeoutDetector
from repro.algorithms.chandra_toueg.node import ChandraTouegNode

__all__ = [
    "AdaptiveTimeoutDetector",
    "ChandraTouegNode",
    "run_chandra_toueg",
]
