"""Wire-type registrations for every algorithm message in the library.

Importing this module (which ``import repro.live`` does) registers the
message dataclasses of every shipped algorithm with the lossless wire codec
in :mod:`repro.sim.serialize`, so any of them can cross a live TCP
connection and arrive as an ``==``-equal instance of the same class.

Third-party processes register their own payload types with
:func:`repro.sim.serialize.register_wire_type` /
:func:`~repro.sim.serialize.register_wire_enum`.
"""

from __future__ import annotations

from repro.algorithms.ben_or.messages import Ratify, Report
from repro.algorithms.chandra_toueg.messages import (
    Ack,
    CoordinatorProposal,
    CtDecide,
    Estimate,
    Nack,
)
from repro.algorithms.chandra_toueg.replicated import CT_FAMILY, OmegaTrigger
from repro.algorithms.multi_paxos.messages import PAX_FAMILY
from repro.algorithms.replica import Noop
from repro.algorithms.raft.log import Entry
from repro.algorithms.raft.messages import ClientPropose
from repro.algorithms.raft.node import RAFT_FAMILY
from repro.algorithms.raft.state_machine import DecideAndStop, Put
from repro.algorithms.shared_coin.conciliator import ConcInput
from repro.core.confidence import Confidence
from repro.sim.ops import TimerFired
from repro.sim.serialize import register_wire_enum, register_wire_type

_DATACLASSES = (
    # Ben-Or (paper Algorithms 5-6)
    Report,
    Ratify,
    # Chandra-Toueg (one-shot)
    Estimate,
    CoordinatorProposal,
    Ack,
    Nack,
    CtDecide,
    # The live engines' wire families (raft, paxos, ct) and the Ω
    # trigger's heartbeat
    *RAFT_FAMILY.classes,
    *PAX_FAMILY.classes,
    *CT_FAMILY.classes,
    *OmegaTrigger.MESSAGES,
    # Shared ballot-mixer gap filler (rides inside log entries)
    Noop,
    # Raft log entries and commands
    ClientPropose,
    Entry,
    DecideAndStop,
    Put,
    # Shared-coin conciliator
    ConcInput,
    # Timer payloads never cross the wire, but serializing a mailbox
    # (e.g. for debugging) should not blow up on them.
    TimerFired,
)

for _cls in _DATACLASSES:
    register_wire_type(_cls)
register_wire_enum(Confidence)
