"""Every fault kind's log line, skip lines included, pinned exactly.

Campaign sweeps reach few of the nemesis's skip branches (a 3-node
sweep never runs out of live nodes), so this file walks a 3-node,
2-shard cluster on :class:`~repro.core.runtime.SimRuntime` through a
fixed event list that reaches the act of all fifteen kinds and every
skip line, and pins the resulting ``(kind, detail)`` list together with
the link faults each partition or link kind leaves behind.
"""

from repro.chaos import FaultEvent, FaultPlan
from repro.chaos.nemesis import FAULT_KINDS, Nemesis
from repro.core.runtime import SimRuntime
from repro.live import LiveKVCluster


def ev(kind, roll=None, **args):
    """An event at t=0; ``roll`` (appended last) picks the victim."""
    extra = tuple(args.items())
    if roll is not None:
        extra += (("roll", roll),)
    return FaultEvent(0.0, kind, extra)


START = "start"
LINKS = "links"


def kill(pid):
    """A step that kills ``pid`` behind the nemesis's back."""
    return ("kill", pid)


def link_faults(cluster):
    """Every installed link fault, one ``"<pid><dir><peer> <fault>"``
    string each: ``>`` a frame the node sends, ``<`` one it receives."""
    lines = []
    for server in cluster.servers:
        if server is None:
            continue
        for direction, links in server.transport.link_faults().items():
            arrow = ">" if direction == "out" else "<"
            for peer, fault in links.items():
                what = " ".join(
                    f"{name}={getattr(fault, name)}"
                    for name in ("drop", "blackhole", "delay")
                    if getattr(fault, name)
                )
                lines.append(f"{server.pid}{arrow}{peer} {what}")
    return sorted(lines)


def drive(steps, *, data_dir=None, engine="raft"):
    """Run ``steps`` against a fresh 3-node, 2-shard cluster.

    A step is a :class:`FaultEvent` (the nemesis applies it),
    :data:`START` (boot, then wait for every shard's leader),
    :func:`kill` or :data:`LINKS` (snapshot :func:`link_faults`).
    Returns the nemesis log as ``(kind, detail)`` pairs and the
    snapshots.
    """
    rt = SimRuntime()
    snapshots = []

    async def scenario():
        cluster = LiveKVCluster(
            3, shards=2, seed=1, engine=engine, data_dir=data_dir, runtime=rt
        )
        nemesis = Nemesis(cluster, FaultPlan(()))
        try:
            for step in steps:
                if step == START:
                    await cluster.start()
                    await cluster.wait_for_all_leaders(30.0)
                elif step == LINKS:
                    snapshots.append(link_faults(cluster))
                elif isinstance(step, tuple):
                    await cluster.kill(step[1])
                else:
                    await nemesis.apply(step)
        finally:
            await cluster.stop()
        return [(action.kind, action.detail) for action in nemesis.log]

    try:
        log = rt.run(scenario(), timeout=120.0)
    finally:
        rt.close()
    return log, snapshots


HEALED = ("heal", "all link faults cleared, clocks restored")
FEWER_THAN_TWO = "skipped: fewer than two nodes alive"
NO_DATA_DIR = "skipped: cluster has no data dir"
MAJORITY = "skipped: would break majority"
NOTHING_ALIVE = "skipped: nothing alive"


def links(pid, peers, fault, arrows="<>"):
    """Node ``pid``'s fault on its link to each of ``peers``."""
    return sorted(
        f"{pid}{arrow}{peer} {fault}" for peer in peers for arrow in arrows
    )


def cut(a, b):
    """Both directions of a black-holed link, seen from both ends."""
    return sorted(
        links(a, (b,), "blackhole=True") + links(b, (a,), "blackhole=True")
    )


DISKLESS_STEPS = [
    # Unstarted: nobody leads yet.
    ev("kill-leader"),
    ev("partition-leader", 0.0),
    ev("restart"),
    ev("torn-tail", 0.0),
    ev("bit-flip", 0.0),
    ev("power-fail-all"),
    START,
    ev("partition-leader", 0.0),
    LINKS,
    ev("heal"),
    ev("clock-skew"),
    ev("timeout-skew", 0.0),
    ev("timeout-skew", 0.5, factor=2.0),
    ev("heal"),
    ev("partition", 0.4),
    LINKS,
    ev("heal"),
    ev("asym-partition", 0.7),
    LINKS,
    ev("heal"),
    ev("drop", 0.1),
    LINKS,
    ev("heal"),
    ev("delay", 0.9, delay=0.2),
    LINKS,
    ev("drop", 0.5, prob=0.25),
    ev("delay", 0.2),
    LINKS,
    ev("heal"),
    LINKS,
    ev("kill-leader", shard=1),
    ev("kill-random", 0.0),
    ev("partition-leader", 0.99),
    ev("partition", 0.0),
    LINKS,
    ev("heal"),
    ev("restart"),
    ev("kill-random", 0.99),
    kill(0),
    ev("partition"),
    ev("partition-leader"),
    ev("asym-partition"),
    ev("drop"),
    ev("delay"),
    LINKS,
    kill(1),
    ev("kill-leader"),
    ev("timeout-skew"),
    ev("clock-skew"),
    ev("restart"),
    # Last, so that no later line depends on it.
    ev("power-fail", 0.0),
]

DISKLESS_LOG = [
    ("kill-leader", "skipped: shard 0 has no leader"),
    ("partition-leader", "skipped: shard 0 has no live leader"),
    ("restart", "nothing to restart"),
    ("torn-tail", NO_DATA_DIR),
    ("bit-flip", NO_DATA_DIR),
    ("power-fail-all", NO_DATA_DIR),
    ("partition-leader", "split [0] | [1, 2]"),
    HEALED,
    ("clock-skew", "node 0 drift clock x4 slow"),
    ("timeout-skew", "node 0 election timeout x3"),
    ("timeout-skew", "node 1 election timeout x2"),
    HEALED,
    ("partition", "split [1] | [0, 2]"),
    HEALED,
    ("asym-partition", "node 2 sends into the void"),
    HEALED,
    ("drop", "node 0 loses 40% of frames"),
    HEALED,
    ("delay", "node 2 links +200ms"),
    ("drop", "node 1 loses 25% of frames"),
    ("delay", "node 0 links +50ms"),
    HEALED,
    ("kill-leader", "killed node 1 (shard 1 leader)"),
    ("kill-random", MAJORITY),
    ("partition-leader", "skipped: shard 1 has no live leader"),
    ("partition", "split [0] | [2]"),
    HEALED,
    ("restart", "restarted nodes [1]"),
    ("kill-random", "killed node 2"),
    ("partition", FEWER_THAN_TWO),
    ("partition-leader", FEWER_THAN_TWO),
    ("asym-partition", FEWER_THAN_TWO),
    ("drop", FEWER_THAN_TWO),
    ("delay", FEWER_THAN_TWO),
    ("kill-leader", MAJORITY),
    ("timeout-skew", NOTHING_ALIVE),
    ("clock-skew", NOTHING_ALIVE),
    ("restart", "restarted nodes [0, 1, 2]"),
    ("power-fail", NO_DATA_DIR),
]


DISKLESS_LINKS = [
    sorted(cut(0, 1) + cut(0, 2)),
    sorted(cut(1, 0) + cut(1, 2)),
    links(2, (0, 1), "blackhole=True", arrows=">"),
    links(0, (1, 2), "drop=0.4"),
    links(2, (0, 1), "delay=0.2"),
    sorted(
        links(0, (1, 2), "delay=0.05")
        + links(1, (0, 2), "drop=0.25")
        + links(2, (0, 1), "delay=0.2")
    ),
    [],
    sorted(cut(0, 2)),
    [],
]

DURABLE_STEPS = [
    START,
    ev("power-fail", 0.0),
    ev("torn-tail", 0.0),
    ev("bit-flip", 0.0),
    ev("power-fail", 0.0),
    ev("kill-random", 0.0),
    ev("restart"),
    ev("torn-tail", 0.5),
    ev("restart"),
    ev("bit-flip", 0.9),
    ev("restart"),
    ev("power-fail-all"),
    ev("power-fail-all"),
    ev("torn-tail", 0.0),
    ev("timeout-skew"),
    ev("clock-skew"),
    ev("partition"),
    ev("restart"),
]

DURABLE_LOG = [
    ("power-fail", "node 0 lost power"),
    ("torn-tail", MAJORITY),
    ("bit-flip", MAJORITY),
    ("power-fail", MAJORITY),
    ("kill-random", MAJORITY),
    ("restart", "restarted nodes [0]"),
    ("torn-tail", "node 1 lost power mid-write (torn last WAL frame)"),
    ("restart", "restarted nodes [1]"),
    (
        "bit-flip",
        "node 2 down, corrupted ['wal-00000001.log', 'wal-00000001.log']",
    ),
    ("restart", "restarted nodes [2]"),
    ("power-fail-all", "whole cluster lost power: nodes [0, 1, 2]"),
    ("power-fail-all", NOTHING_ALIVE),
    ("torn-tail", MAJORITY),
    ("timeout-skew", NOTHING_ALIVE),
    ("clock-skew", NOTHING_ALIVE),
    ("partition", FEWER_THAN_TWO),
    ("restart", "restarted nodes [0, 1, 2]"),
]


def test_diskless_cluster_log_lines():
    log, snapshots = drive(DISKLESS_STEPS)
    assert log == DISKLESS_LOG
    assert snapshots == DISKLESS_LINKS


def test_durable_cluster_log_lines(tmp_path):
    log, _ = drive(DURABLE_STEPS, data_dir=str(tmp_path))
    assert log == DURABLE_LOG


def test_engine_without_an_election_timer_skips_timeout_skew():
    log, _ = drive([ev("timeout-skew", 0.0)], engine="ct")
    assert log == [("timeout-skew", "skipped: engine has no election timer")]


def test_the_pinned_lines_reach_every_kinds_act():
    acted = {
        kind
        for kind, detail in DISKLESS_LOG + DURABLE_LOG
        if not detail.startswith("skipped")
    }
    assert acted == set(FAULT_KINDS)
