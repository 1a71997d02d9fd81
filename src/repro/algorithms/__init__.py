"""Algorithm instantiations of the object-oriented consensus framework.

Each subpackage provides (a) the paper's decomposition of a well-known
consensus algorithm into framework objects and (b) the original, monolithic
algorithm as a baseline, so Experiment E4 can compare the two under identical
seeds:

* :mod:`repro.algorithms.phase_king` — Berman-Garay-Perry's Phase-King
  (synchronous, Byzantine) as adopt-commit + conciliator (paper Section 4.1).
* :mod:`repro.algorithms.ben_or` — Ben-Or's randomized consensus
  (asynchronous, crash) as vacillate-adopt-commit + reconciliator
  (Section 4.2).
* :mod:`repro.algorithms.raft` — a full Raft implementation plus the paper's
  VAC/reconciliator reading of it (Section 4.3).
* :mod:`repro.algorithms.decentralized_raft` — the leaderless Raft variant
  sketched at the end of Section 4.3, which "highly resembles Ben-Or's"
  algorithm with a timer-based reconciliator.
* :mod:`repro.algorithms.shared_coin` — an asynchronous AC + conciliator
  consensus assembled from framework parts, the Algorithm 2 contrast to
  Ben-Or that Section 5's discussion implies.

Beyond the paper's examples, demonstrating the Section 3 generality claim:

* :mod:`repro.algorithms.phase_queen` — Berman-Garay's one-exchange
  relative of Phase-King (``4t < n``), reusing Phase-King's conciliator
  unchanged.
* :mod:`repro.algorithms.multi_paxos` — Paxos as Raft's replicated-log
  core with the ballot election rule (:mod:`repro.algorithms.replica`)
  under the same randomized election timer; ballots are template rounds.
* :mod:`repro.algorithms.chandra_toueg` — rotating-coordinator consensus
  with a failure detector's timeout as reconciliator.
"""
