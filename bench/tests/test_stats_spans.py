"""Percentiles with their sample counts, and span self-time arithmetic."""

import pytest

from bench.spans import Recorder, by_op, self_times
from bench.stats import clip, drift, percentile, spread, supported, union_length


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([5.0], 50) == 5.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert supported(2000, 99)  # 20 beyond
    assert not supported(900, 99)  # 9 beyond
    assert supported(100, 90) and not supported(99, 90)
    assert supported(10_000, 99.9) and not supported(9_999, 99.9)
    assert supported(20, 50) and not supported(19, 50)


def test_drift_compares_last_fifth_with_first():
    flat = [8.0] * 100
    assert drift(flat) == 1.0
    growing = [8.0] * 20 + [9.0] * 60 + [12.0] * 20
    assert drift(growing) == 1.5


def test_spread_is_iqr_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (q3 - q1) / statistics.median(values)
    assert spread([7.0]) == 0.0


def test_union_and_clip():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0
    assert clip([(0, 10), (20, 30)], 5, 25) == [(5, 10), (20, 25)]
    assert clip([(0, 1)], 2, 3) == []


def test_self_time_subtracts_what_children_cover():
    spans = [
        (1, "parent", 0.0, 10.0, 0, None),
        (2, "child", 1.0, 4.0, 1, None),
        (3, "child", 3.0, 6.0, 1, None),  # overlaps the first: counted once
        (4, "grandchild", 3.5, 3.75, 3, None),
        (5, "late child", 9.0, 15.0, 1, None),  # only 9..10 lies inside
        (6, "caused later", 20.0, 21.0, 2, None),  # wholly outside its parent
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - (5.0 + 1.0)
    assert own[2] == 3.0  # span 6 covers none of it
    assert own[3] == 3.0 - 0.25
    assert own[4] == 0.25
    assert own[5] == 6.0


def test_recorder_nests_spans_and_keeps_op_ids():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))

    def inner(op_id):
        return op_id

    timed_inner = rec.timed("inner", inner, lambda op_id: (op_id,))
    outer = rec.timed("outer", lambda: timed_inner("op-1"))
    assert outer() == "op-1"
    drained = rec.drain()
    (inner_span,) = [s for s in drained["spans"] if s[1] == "inner"]
    (outer_span,) = [s for s in drained["spans"] if s[1] == "outer"]
    assert inner_span[4] == outer_span[0]  # parent
    assert outer_span[4] == 0
    assert inner_span[5] == ("op-1",)
    assert outer_span[2] < inner_span[2] < inner_span[3] < outer_span[3]
    assert list(by_op(drained["spans"])) == ["op-1"]
    assert rec.drain() == {"spans": [], "counts": {}}


def test_patches_are_undone():
    from bench.spans import install_client, install_node
    from repro.live import client, kv

    put, enqueue = client.AsyncKVClient.put, kv.KVShard.enqueue
    rec = Recorder()
    patches = [install_node(rec), install_client(rec)]
    assert client.AsyncKVClient.put is not put
    assert kv.KVShard.enqueue is not enqueue
    for patch in patches:
        patch.undo()
    assert client.AsyncKVClient.put is put
    assert kv.KVShard.enqueue is enqueue
