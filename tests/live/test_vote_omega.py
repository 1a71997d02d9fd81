"""The fourth cell: Raft's vote rule under the Ω trigger.

``ENGINES`` registers three of the four (election rule × trigger) cells:
vote × timer (``raft``), ballot × timer (``paxos``) and ballot × Ω
(``ct``).  The fourth, RequestVote × Ω, is composed here from the same
parts and nothing else, then run on the live stack in virtual time: a
Raft cluster whose only campaign signal is an Ω failure detector elects,
commits and recovers from its leader's crash — Simple CHT's "Ω suffices"
as an executable check.
"""

import repro.live  # noqa: F401  (first: the CT module and repro.live import each other)
from repro.algorithms.chandra_toueg.replicated import OmegaTrigger
from repro.algorithms.raft.messages import ClientPropose
from repro.algorithms.raft.node import LEADER, RAFT_FAMILY, RaftNode
from repro.algorithms.raft.state_machine import KeyValueStateMachine, Put
from repro.core.runtime import SimRuntime
from repro.live.config import ClusterConfig
from repro.live.detector import FdHeartbeat
from repro.live.engine import ENGINES, ConsensusEngine
from repro.live.runtime import LiveRuntime

VOTE_OMEGA = ConsensusEngine("vote-omega", RaftNode, RAFT_FAMILY, OmegaTrigger)

N = 3


def test_cell_speaks_raft_plus_heartbeats_and_is_unregistered():
    assert VOTE_OMEGA.wire_classes == RAFT_FAMILY.classes | {FdHeartbeat}
    assert VOTE_OMEGA.name not in ENGINES


async def _until(rt, predicate, timeout=10.0):
    deadline = rt.now() + timeout
    while not predicate():
        assert rt.now() < deadline, "timed out"
        await rt.sleep(0.01)


def _leaders(runtimes):
    return [
        r.pid for r in runtimes
        if r is not None and r.process.state is LEADER
    ]


async def _commit_everywhere(rt, runtimes, leader, key):
    runtimes[leader].inject(ClientPropose(Put(key, leader)))
    live = [r for r in runtimes if r is not None]
    await _until(rt, lambda: all(
        r.process.machine.data.get(key) == leader for r in live
    ))


async def _scenario(rt):
    cluster = ClusterConfig.simulated(N)
    epoch = rt.now()
    runtimes = [
        LiveRuntime(
            VOTE_OMEGA.build_node(
                shard_id=0,
                shard_count=1,
                pid=pid,
                n=N,
                election_timeout=(0.15, 0.3),
                heartbeat_interval=0.05,
                state_machine_factory=KeyValueStateMachine,
                snapshot_threshold=None,
                storage=None,
            ),
            cluster,
            pid,
            seed=5,
            epoch=epoch,
            wire_filter=VOTE_OMEGA.accepts,
            runtime=rt,
        )
        for pid in range(N)
    ]
    for runtime in runtimes:
        await runtime.start()
    try:
        await _until(rt, lambda: len(_leaders(runtimes)) == 1)
        (leader,) = _leaders(runtimes)
        await _commit_everywhere(rt, runtimes, leader, "before-crash")

        await runtimes[leader].stop(crash=True)
        runtimes[leader] = None
        await _until(rt, lambda: len(_leaders(runtimes)) == 1)
        (successor,) = _leaders(runtimes)
        assert successor != leader
        await _commit_everywhere(rt, runtimes, successor, "after-crash")
        assert all(r.foreign_frames == 0 for r in runtimes if r is not None)
    finally:
        for runtime in runtimes:
            if runtime is not None:
                await runtime.stop()


def test_elects_commits_and_reelects_after_leader_crash():
    rt = SimRuntime()
    try:
        rt.run(_scenario(rt), timeout=60.0)
    finally:
        rt.close()
