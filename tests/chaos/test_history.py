"""History recording, serialization round trips, and timeline rendering."""

import json

from repro.chaos import History, OpRecord, render_html, render_text
from repro.chaos.history import GET, PUT
from repro.live.loadgen import AMBIGUOUS, FAILED, OK


def sample_history():
    history = History(epoch=0.0)
    w = history.begin(0, PUT, "x", "a")
    history.end(w, OK, 3)
    r = history.begin(1, GET, "x")
    history.end(r, OK, {"found": True, "value": "a", "applied": 3})
    lost = history.begin(0, PUT, "x", "b")
    history.end(lost, AMBIGUOUS, None)
    failed = history.begin(2, GET, "y")
    history.end(failed, FAILED, None)
    return history


class TestRecording:
    def test_begin_assigns_ids_and_clock(self):
        history = History(epoch=0.0)
        first = history.begin(0, PUT, "k", 1)
        second = history.begin(1, GET, "k")
        assert first.op_id != second.op_id
        assert second.inv >= first.inv >= 0.0
        assert first.open and second.open

    def test_ok_put_closes_op(self):
        history = History(epoch=0.0)
        op = history.begin(0, PUT, "k", 1)
        history.end(op, OK, 7)
        assert not op.open and op.ok and op.index == 7
        assert op.ret >= op.inv

    def test_ambiguous_put_stays_open(self):
        history = sample_history()
        opens = history.open_ops()
        assert len(opens) == 1
        assert opens[0].kind == PUT and opens[0].value == "b"
        assert opens[0].ok is None

    def test_failed_get_is_closed_not_ok(self):
        history = sample_history()
        failed = [op for op in history.ops if op.ok is False]
        assert len(failed) == 1 and failed[0].kind == GET

    def test_per_key_sorts_by_invocation(self):
        history = sample_history()
        groups = history.per_key()
        assert set(groups) == {"x", "y"}
        invs = [op.inv for op in groups["x"]]
        assert invs == sorted(invs)


class TestSerialization:
    def test_jsonl_round_trip(self):
        history = sample_history()
        text = history.to_jsonl()
        back = History.from_jsonl(text)
        assert len(back) == len(history)
        for original, restored in zip(history.ops, back.ops):
            assert restored.to_dict() == original.to_dict()

    def test_jsonl_lines_are_json(self):
        for line in sample_history().to_jsonl().strip().splitlines():
            record = json.loads(line)
            assert {"op_id", "kind", "key", "inv"} <= set(record)

    def test_from_ops(self):
        ops = sample_history().ops
        assert History.from_ops(ops).ops == ops


class TestTimeline:
    def test_text_timeline_shows_all_clients(self):
        art = render_text(sample_history().ops)
        assert "c0" in art and "c1" in art and "c2" in art
        assert "put('x','a')" in art
        # The ambiguous put renders as open-ended.
        assert "put('x','b')?" in art

    def test_text_timeline_empty(self):
        assert render_text([]) == "(empty history)"

    def test_html_timeline_is_self_contained(self):
        ops = sample_history().ops
        page = render_html(
            ops,
            title="t<itle>",
            faults=[(ops[0].inv, "partition")],
            highlight=[ops[0]],
        )
        assert page.startswith("<!doctype html>")
        assert "t&lt;itle&gt;" in page  # titles are escaped
        assert "partition" in page
        assert 'class="op bad"' in page or "bad" in page
        assert "http" not in page.split("</style>")[0]  # no external assets

    def test_html_timeline_empty(self):
        assert "(empty history)" in render_html([])
