"""Property-based tests for the Raft log's append semantics.

The central invariant is Log Matching: if two logs agree on the term at some
index, they are identical up through that index.  We model a "leader history"
as a sequence of (term, commands) batches replicated — possibly partially and
out of order — into follower logs, and check the invariant plus local
structural properties after every mutation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.raft.log import Entry, RaftLog


@st.composite
def leader_history(draw):
    """A monotone-term sequence of appended entries, as one leader log."""
    terms = draw(
        st.lists(st.integers(1, 5), min_size=1, max_size=12).map(sorted)
    )
    return [Entry(term, f"cmd-{i}") for i, term in enumerate(terms)]


@given(leader_history(), st.data())
@settings(max_examples=100, deadline=None)
def test_log_matching_under_partial_replication(entries, data):
    leader = RaftLog(entries)
    follower = RaftLog()

    # Replay random AppendEntries slices in random order; accepted ones must
    # keep the follower consistent with the leader.
    attempts = data.draw(st.integers(1, 10))
    for _ in range(attempts):
        prev = data.draw(st.integers(0, leader.last_index))
        end = data.draw(st.integers(prev, leader.last_index))
        ok = follower.try_append(
            prev, leader.term_at(prev), leader.entries_from(prev + 1)[: end - prev]
        )
        if ok:
            # Every follower entry must equal the leader's at that index.
            for index in range(1, follower.last_index + 1):
                assert follower.entry_at(index) == leader.entry_at(index)

    # Log Matching: same (index, term) implies identical prefixes.
    shared = min(leader.last_index, follower.last_index)
    for index in range(shared, 0, -1):
        if leader.term_at(index) == follower.term_at(index):
            for j in range(1, index + 1):
                assert leader.entry_at(j) == follower.entry_at(j)
            break


@given(leader_history(), leader_history())
@settings(max_examples=100, deadline=None)
def test_conflict_resolution_erases_divergent_suffix(old_entries, new_entries):
    """Replicating a second leader's log from scratch must leave the follower
    exactly equal to the new leader's log, whatever it held before."""
    follower = RaftLog(old_entries)
    new_leader = RaftLog(new_entries)
    # Full replication from index 0 — what repeated NextIndex backoff
    # converges to in the worst case.
    # To model conflict deletion we bump conflicting terms: append the whole
    # new log after prev=0.
    assert follower.try_append(0, 0, new_leader.as_list())
    # The follower's prefix now equals the new leader's log; a stale suffix
    # may survive only if it agreed (same term) at every overlapping index.
    for index in range(1, new_leader.last_index + 1):
        assert follower.entry_at(index) == new_leader.entry_at(index)


@given(leader_history())
@settings(max_examples=100, deadline=None)
def test_terms_remain_monotone(entries):
    log = RaftLog(entries)
    terms = [log.term_at(i) for i in range(1, log.last_index + 1)]
    assert terms == sorted(terms)


#: Commands with duplicates and unhashable members (a client may put a
#: list value, which makes its batch unhashable).
COMMANDS = ["a", "b", ("t", 1), ("t", 2), ["l", 1], ["l", 2]]


@st.composite
def mutation(draw, log):
    """One random mutation of ``log``, applied; returns its name."""
    kind = draw(st.sampled_from(["append", "try_append", "compact", "install"]))
    command = st.sampled_from(COMMANDS)
    if kind == "append":
        log.append_new(Entry(draw(st.integers(1, 4)), draw(command)))
    elif kind == "try_append":
        prev = draw(st.integers(0, log.last_index + 1))
        term = draw(st.integers(0, 4))
        if log.snapshot_index <= prev <= log.last_index and draw(st.booleans()):
            term = log.term_at(prev)  # passes the check: may truncate a conflict
        entries = draw(st.lists(
            st.builds(Entry, st.integers(1, 4), command), max_size=4
        ))
        log.try_append(prev, term, entries)
    elif kind == "compact":
        log.compact_to(draw(st.integers(log.snapshot_index, log.last_index)))
    else:
        index = draw(st.integers(0, log.last_index + 2))
        term = draw(st.integers(1, 4))
        if log.snapshot_index <= index <= log.last_index and draw(st.booleans()):
            term = log.term_at(index)  # keeps the matching suffix
        log.install_snapshot(index, term)
    return kind


@given(leader_history(), st.data())
@settings(max_examples=200, deadline=None)
def test_contains_command_index_agrees_with_a_scan(entries, data):
    log = RaftLog(entries)
    for _ in range(data.draw(st.integers(1, 25))):
        data.draw(mutation(log))
        retained = [entry.command for entry in log.as_list()]
        for command in COMMANDS + ["cmd-0", "cmd-1", "absent"]:
            assert log.contains_command(command) == (command in retained)


@given(leader_history(), st.integers(0, 6), st.integers(0, 14))
@settings(max_examples=100, deadline=None)
def test_up_to_date_is_a_total_preorder_with_self(entries, other_term, other_index):
    log = RaftLog(entries)
    # Reflexivity: a log is always as up to date as itself.
    assert log.other_is_up_to_date(log.last_term, log.last_index)
    # Antisymmetry on the comparison key.
    forward = log.other_is_up_to_date(other_term, other_index)
    key_other = (other_term, other_index)
    key_self = (log.last_term, log.last_index)
    assert forward == (key_other >= key_self)
