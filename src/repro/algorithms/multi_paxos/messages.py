"""Multi-Paxos wire messages (the ``Pax*`` family).

The seven shapes — fields, and therefore the positional wire layout — are
:mod:`repro.algorithms.replica`'s; ballots are its encoded ints.  The
family is deliberately distinct from both Raft's and Chandra-Toueg's
message classes so a frame identifies its engine on sight: a mixed-engine
cluster produces recognizably foreign frames instead of accidental
cross-protocol interop.  :data:`PAX_FAMILY` is what a
:class:`~repro.algorithms.replica.BallotReplicaNode` is built with to
speak it.
"""

from __future__ import annotations

from repro.algorithms.replica import (
    BallotChain,
    BallotChainAck,
    BallotFamily,
    BallotPrepare,
    BallotPrepareNack,
    BallotPromise,
    BallotSnapshot,
    BallotSnapshotAck,
)


class PaxPrepare(BallotPrepare):
    """Multi-Paxos phase-1a."""

    __slots__ = ()


class PaxPromise(BallotPromise):
    """Multi-Paxos phase-1b grant."""

    __slots__ = ()


class PaxPrepareNack(BallotPrepareNack):
    """Multi-Paxos phase-1b refusal."""

    __slots__ = ()


class PaxChain(BallotChain):
    """Multi-Paxos phase-2a stream."""

    __slots__ = ()


class PaxChainAck(BallotChainAck):
    """Multi-Paxos phase-2b."""

    __slots__ = ()


class PaxSnapshot(BallotSnapshot):
    """Multi-Paxos snapshot repair."""

    __slots__ = ()


class PaxSnapshotAck(BallotSnapshotAck):
    """Multi-Paxos snapshot acknowledgement."""

    __slots__ = ()


PAX_FAMILY = BallotFamily(
    append=PaxChain,
    append_reply=PaxChainAck,
    snapshot=PaxSnapshot,
    snapshot_reply=PaxSnapshotAck,
    prepare=PaxPrepare,
    promise=PaxPromise,
    prepare_nack=PaxPrepareNack,
)
