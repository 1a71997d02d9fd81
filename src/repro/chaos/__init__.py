"""Chaos testing: fault campaigns plus linearizability checking.

The live runtime (:mod:`repro.live`) proves the cluster *works* on a
quiet network; this package proves it stays **correct** on a hostile one.
Three pieces compose into a campaign:

* :mod:`repro.chaos.nemesis` — seeded, declarative fault schedules
  (leader kills, partitions, drops, delays, timeout skew) executed
  against a running :class:`~repro.live.harness.LiveKVCluster`;
* :mod:`repro.chaos.history` — the history every invocation and
  response (including ambiguous timeouts) of the campaign's load
  generator (:func:`repro.live.loadgen.drive`) is recorded into;
* :mod:`repro.chaos.checker` — a Wing & Gill linearizability checker
  that accepts or rejects the history against the KV register model,
  with a minimal witness on rejection.

:mod:`repro.chaos.campaign` is the one coroutine that runs them together
(boot → nemesis ‖ workload → heal → grace reads); ``python -m repro
chaos`` drives it on real sockets, ``python -m repro explore --stack
live`` in virtual time.  ``docs/chaos.md`` is the guide.
"""

from repro.chaos.checker import CheckReport, KeyResult, check_history
from repro.chaos.history import GET, PUT, History, OpRecord
from repro.chaos.nemesis import (
    DURABILITY_KINDS,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    Nemesis,
    heal_cluster,
    partition_cluster,
)
from repro.chaos.timeline import render_html, render_text

__all__ = [
    "GET",
    "PUT",
    "DURABILITY_KINDS",
    "FAULT_KINDS",
    "CheckReport",
    "FaultEvent",
    "FaultPlan",
    "History",
    "KeyResult",
    "Nemesis",
    "OpRecord",
    "check_history",
    "heal_cluster",
    "partition_cluster",
    "render_html",
    "render_text",
]
