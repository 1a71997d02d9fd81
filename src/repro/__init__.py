"""Object Oriented Consensus — a modular consensus framework.

Reproduction of *"Object Oriented Consensus"* (Afek, Aspnes, Cohen,
Vainstein; brief announcement, PODC 2017): consensus algorithms decomposed
into a repetitive two-step template of an **agreement detector**
(adopt-commit or the paper's vacillate-adopt-commit) followed by a
**mixer** (conciliator or the paper's reconciliator).

Quick start::

    from repro import AsyncRuntime, ben_or_template_consensus

    processes = [ben_or_template_consensus() for _ in range(5)]
    runtime = AsyncRuntime(processes, init_values=[0, 1, 0, 1, 1], t=2, seed=7)
    result = runtime.run()
    print(result.decided_value())

Package map:

* :mod:`repro.core` — confidence lattice, object interfaces, the two
  generic consensus templates, the Section-5 compositions and the property
  checkers.
* :mod:`repro.sim` — the message-passing substrate: an asynchronous
  virtual-time simulator and a synchronous lock-step simulator, with crash
  and Byzantine failure injection.
* :mod:`repro.memory` — the shared-memory substrate of Aspnes' original
  framework, with register-based adopt-commit and a probabilistic-write
  conciliator.
* :mod:`repro.algorithms` — Phase-King, Ben-Or, full Raft and the
  decentralized Raft variant, each as decomposed framework objects plus a
  monolithic baseline.
* :mod:`repro.analysis` — metrics and the experiment harness behind
  ``benchmarks/``.
"""

from repro.core import (
    ADOPT,
    COMMIT,
    VACILLATE,
    AcTemplateConsensus,
    AdoptCommitFromVac,
    AdoptCommitObject,
    ConciliatorObject,
    Confidence,
    PropertyViolation,
    ReconciliatorObject,
    VacFromTwoAdoptCommits,
    VacTemplateConsensus,
    VacillateAdoptCommitObject,
)
from repro.sim import (
    AsyncRuntime,
    ByzantineProcess,
    CrashPlan,
    NetworkConfig,
    Process,
    ProcessAPI,
    SyncRuntime,
)
from repro.algorithms.ben_or import ben_or_template_consensus
from repro.algorithms.chandra_toueg import run_chandra_toueg
from repro.algorithms.decentralized_raft import decentralized_raft_consensus
from repro.algorithms.multi_paxos import run_paxos
from repro.algorithms.phase_king import phase_king_consensus, run_phase_king
from repro.algorithms.phase_queen import phase_queen_consensus, run_phase_queen
from repro.algorithms.raft import RaftNode, run_raft_consensus
from repro.algorithms.shared_coin import shared_coin_ac_consensus
from repro.memory import run_shared_memory_consensus

__version__ = "1.0.0"

__all__ = [
    "ADOPT",
    "AcTemplateConsensus",
    "AdoptCommitFromVac",
    "AdoptCommitObject",
    "AsyncRuntime",
    "ByzantineProcess",
    "COMMIT",
    "ConciliatorObject",
    "Confidence",
    "CrashPlan",
    "NetworkConfig",
    "Process",
    "ProcessAPI",
    "PropertyViolation",
    "RaftNode",
    "ReconciliatorObject",
    "SyncRuntime",
    "VACILLATE",
    "VacFromTwoAdoptCommits",
    "VacTemplateConsensus",
    "VacillateAdoptCommitObject",
    "ben_or_template_consensus",
    "decentralized_raft_consensus",
    "phase_king_consensus",
    "phase_queen_consensus",
    "run_chandra_toueg",
    "run_paxos",
    "run_phase_king",
    "run_phase_queen",
    "run_raft_consensus",
    "run_shared_memory_consensus",
    "shared_coin_ac_consensus",
    "__version__",
]
