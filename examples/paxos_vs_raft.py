#!/usr/bin/env python3
"""Paxos and Raft, side by side, through the framework's lens.

Both break asynchronous stalemates the same way — a randomized election
timer opens a new attempt (a ballot / a term) — and both satisfy the VAC
coherence conditions per attempt.  Here they share more than that: Paxos
is Raft's replicated-log core with a different election rule
(prepare/promise over ballots instead of RequestVote), so once a leader
stands the two send the same messages and cost the same.  This demo runs
both on the same cluster size and seed battery and prints the
comparison, then shows one Paxos run's per-ballot VAC table.

Run:  python examples/paxos_vs_raft.py
"""

from repro import run_paxos, run_raft_consensus
from repro.algorithms.raft.vac import check_raft_vac
from repro.analysis.experiments import format_table, summarize
from repro.analysis.report import round_table
from repro.core.properties import check_agreement

SEEDS = range(12)
INPUTS = [10, 20, 30, 40, 50]


def battery(run):
    times, messages = [], []
    for seed in SEEDS:
        result = run(INPUTS, seed=seed)
        check_agreement(result.decisions)
        check_raft_vac(result.trace)  # per-term / per-ballot coherence
        times.append(result.final_time)
        messages.append(result.trace.message_count())
    return summarize(times), summarize(messages)


def main() -> None:
    raft_time, raft_messages = battery(run_raft_consensus)
    paxos_time, paxos_messages = battery(run_paxos)
    print(format_table(
        ["algorithm", "vtime (mean±ci95)", "messages (mean)"],
        [
            ["Raft", f"{raft_time.mean:.0f}±{raft_time.ci95:.0f}",
             f"{raft_messages.mean:.0f}"],
            ["Paxos", f"{paxos_time.mean:.0f}±{paxos_time.ci95:.0f}",
             f"{paxos_messages.mean:.0f}"],
        ],
    ))
    print()
    result = run_paxos(INPUTS, seed=3)
    print("one Paxos run, per-ballot VAC outcomes "
          "(rounds are ballots counter*4096 + proposer, e.g. 4097):")
    print(round_table(result.trace, "vac"))
    print(f"\ndecided: {result.decided_value()}")


if __name__ == "__main__":
    main()
