"""E12 — the framework's breadth: every algorithm on one standard workload.

The paper's generic form (Section 3) claims many consensus algorithms share
the detector + mixer shape.  This capstone table runs *all* of the
library's instantiations on the balanced-split workload and reports the
costs side by side — making the design space the framework spans concrete:

* asynchronous crash model: Ben-Or (coin), decentralized Raft (timer),
  shared-coin AC template, Raft (leader), Paxos (ballots);
* synchronous Byzantine model: Phase-King (3t < n), Phase-Queen (4t < n).

Expected shape: coin-mixed protocols pay rounds; timer/leader-mixed
protocols pay waiting time; one-exchange detectors (Phase-Queen) pay
resilience.
"""

import pytest

from benchmarks.conftest import emit
from repro.algorithms.ben_or import ben_or_template_consensus
from repro.algorithms.chandra_toueg import run_chandra_toueg
from repro.algorithms.decentralized_raft import decentralized_raft_consensus
from repro.algorithms.multi_paxos import run_paxos
from repro.algorithms.phase_king import run_phase_king
from repro.algorithms.phase_queen import run_phase_queen
from repro.algorithms.raft import run_raft_consensus
from repro.algorithms.shared_coin import shared_coin_ac_consensus
from repro.analysis.experiments import format_table, summarize
from repro.analysis.workloads import balanced_split
from repro.core.properties import check_agreement
from repro.sim.async_runtime import AsyncRuntime

SEEDS = range(15)


def run_async_template(factory, n, seed):
    inits = balanced_split(n)
    runtime = AsyncRuntime(
        [factory() for _ in range(n)],
        init_values=inits,
        t=(n - 1) // 2,
        seed=seed,
        max_time=100_000.0,
    )
    result = runtime.run()
    check_agreement(result.decisions)
    return result.final_time, result.trace.message_count()


def stats_row(name, model, samples):
    times = summarize([t for t, _m in samples])
    messages = summarize([m for _t, m in samples])
    return [name, model, f"{times.mean:.0f}", f"{messages.mean:.0f}"]


def test_e12_table():
    n_async, n_sync = 9, 9
    rows = []

    rows.append(stats_row(
        "Ben-Or (VAC + coin)", "async crash t<n/2",
        [run_async_template(ben_or_template_consensus, n_async, s) for s in SEEDS],
    ))
    rows.append(stats_row(
        "decentralized Raft (VAC + timer)", "async crash t<n/2",
        [run_async_template(decentralized_raft_consensus, n_async, s) for s in SEEDS],
    ))
    rows.append(stats_row(
        "shared-coin (AC + conciliator)", "async crash t<n/2",
        [run_async_template(shared_coin_ac_consensus, n_async, s) for s in SEEDS],
    ))

    raft_samples = []
    for seed in SEEDS:
        result = run_raft_consensus(list(range(n_async)), seed=seed)
        check_agreement(result.decisions)
        raft_samples.append((result.final_time, result.trace.message_count()))
    rows.append(stats_row("Raft (leader + timer)", "async crash t<n/2", raft_samples))

    paxos_samples = []
    for seed in SEEDS:
        result = run_paxos(list(range(n_async)), seed=seed)
        check_agreement(result.decisions)
        paxos_samples.append((result.final_time, result.trace.message_count()))
    rows.append(stats_row("Paxos (ballots + timer)", "async crash t<n/2", paxos_samples))

    ct_samples = []
    for seed in SEEDS:
        result = run_chandra_toueg(list(range(n_async)), seed=seed)
        check_agreement(result.decisions)
        ct_samples.append((result.final_time, result.trace.message_count()))
    rows.append(stats_row(
        "Chandra-Toueg (coordinator + FD)", "async crash t<n/2", ct_samples
    ))

    king_samples = []
    queen_samples = []
    for seed in SEEDS:
        inits = balanced_split(n_sync)
        king = run_phase_king(inits, t=2, mode="fixed", seed=seed)
        queen = run_phase_queen(inits, t=2, mode="fixed", seed=seed)
        king_samples.append((float(king.exchanges), king.trace.message_count()))
        queen_samples.append((float(queen.exchanges), queen.trace.message_count()))
    rows.append(stats_row("Phase-King (AC + king)", "sync byz 3t<n", king_samples))
    rows.append(stats_row("Phase-Queen (AC + queen)", "sync byz 4t<n", queen_samples))

    emit(
        f"E12: all algorithms, balanced-split inputs, n={n_async} "
        "(async rows: virtual time; sync rows: exchanges)",
        format_table(["algorithm", "model", "time/exch (mean)", "msgs(mean)"], rows),
    )


@pytest.mark.benchmark(group="e12-comparison")
def test_e12_bench_paxos(benchmark):
    def run():
        result = run_paxos([1, 2, 3, 4, 5], seed=6)
        return result

    assert benchmark(run).decisions


@pytest.mark.benchmark(group="e12-comparison")
def test_e12_bench_phase_queen(benchmark):
    def run():
        return run_phase_queen(balanced_split(9), t=2, mode="fixed", seed=6)

    assert benchmark(run).decisions
