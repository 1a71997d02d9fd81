"""The generators: seeded inputs, timing from due time, output checks."""

import asyncio

from repro.core.runtime import SimRuntime

from bench.loadgen import (
    GET, PUT, Op, OpLog, closed_loop, make_ops, make_schedule, read_back, scheduled,
)


class FakeServer:
    """Answers puts after a scripted delay; remembers what it was sent."""

    def __init__(self, delays, default=0.001):
        self.delays = list(delays)
        self.default = default
        self.data = {}
        self.seen = []

    async def put(self, key, value, op_id=None):
        self.seen.append(op_id)
        await asyncio.sleep(self.delays.pop(0) if self.delays else self.default)
        self.data[key] = value
        return len(self.seen)

    async def get(self, key, *, linearizable=False, tier=None, op_id=None):
        await asyncio.sleep(self.default)
        return {"found": key in self.data, "value": self.data.get(key), "read": tier}


def in_sim(coro_fn):
    rt = SimRuntime()
    try:
        return rt.run(coro_fn(rt))
    finally:
        rt.close()


def test_same_seed_same_inputs():
    assert make_ops(7, 0, 50, phase="m", read_ratio=0.5, think=0.001) == make_ops(
        7, 0, 50, phase="m", read_ratio=0.5, think=0.001
    )
    assert make_ops(7, 0, 50, phase="m") != make_ops(8, 0, 50, phase="m")
    assert make_schedule(7, 1, 2, 1.0, 0.01) == make_schedule(7, 1, 2, 1.0, 0.01)


def test_clients_own_disjoint_keys_and_values_are_64_bytes():
    ops = make_ops(3, 0, 200, phase="m") + make_ops(3, 1, 200, phase="m")
    assert {op.key.split("-")[0] for op in ops[:200]} == {"c0"}
    assert {op.key.split("-")[0] for op in ops[200:]} == {"c1"}
    assert {len(op.value) for op in ops} == {64}
    assert len({op.value for op in ops}) == 400


def test_schedule_slots_interleave_across_clients():
    first = make_schedule(1, 0, 2, 0.1, 0.01)
    second = make_schedule(1, 1, 2, 0.1, 0.01)
    assert [round(op.due, 6) for op in first] == [0.0, 0.02, 0.04, 0.06, 0.08]
    assert [round(op.due, 6) for op in second] == [0.01, 0.03, 0.05, 0.07, 0.09]


def test_scheduled_times_from_due_time_so_a_stall_inflates_what_follows():
    server = FakeServer([0.2])  # the first reply stalls 200 ms
    ops = [Op(PUT, f"c0-k{i}", f"v{i}", 0.0, i * 0.01) for i in range(30)]
    log = OpLog()

    async def scenario(rt):
        await scheduled([server], [ops], rt.now, log, tag="m")

    in_sim(scenario)
    latencies = log.put_ms()
    assert len(latencies) == 30 and log.failed == 0
    assert abs(latencies[0] - 200) < 1e-6
    # Due at 10 ms, sent only once the stalled reply arrived at 200 ms.
    assert abs(latencies[1] - 191) < 1e-6
    assert abs(latencies[2] - 182) < 1e-6
    # The backlog drains at 1 ms per op; once caught up, latency is the
    # service time again.
    assert latencies[-1] < 2
    assert sum(1 for ms in latencies if ms > 100) >= 10


def test_closed_loop_would_hide_the_same_stall():
    server = FakeServer([0.2])
    ops = [Op(PUT, f"c0-k{i}", f"v{i}") for i in range(30)]
    log = OpLog()

    async def scenario(rt):
        await closed_loop([server], [ops], rt.now, log, tag="m")

    in_sim(scenario)
    assert sum(1 for ms in log.put_ms() if ms > 100) == 1


def test_generator_lateness_counts_toward_latency():
    server = FakeServer([])
    ops = [Op(PUT, "c0-k0", "v", 0.004, 0.0)]
    log = OpLog()

    async def scenario(rt):
        await scheduled([server], [ops], rt.now, log, tag="m")

    in_sim(scenario)
    assert abs(log.put_ms()[0] - 5) < 1e-6  # 4 ms late + 1 ms service


def test_read_back_catches_a_lost_write():
    server = FakeServer([])
    ops = [Op(PUT, "c0-k1", "first"), Op(PUT, "c0-k2", "second"), Op(GET, "c0-k1", None)]
    log = OpLog()

    async def scenario(rt):
        await closed_loop([server], [ops], rt.now, log, tag="m")
        ok = await read_back([server], log, rt.now, tag="r", tier="readindex")
        server.data["c0-k2"] = "someone else's"
        bad = await read_back([server], log, rt.now, tag="r", tier="readindex")
        return ok, bad

    ok, bad = in_sim(scenario)
    assert log.wrong == [] and log.expected == {"c0-k1": "first", "c0-k2": "second"}
    assert ok.wrong == [] and len(ok.gets) == 2
    assert len(bad.wrong) == 1 and "c0-k2" in bad.wrong[0]


def test_a_failed_op_is_counted_and_has_no_latency():
    class Down(FakeServer):
        async def put(self, key, value, op_id=None):
            raise ConnectionError("down")

    log = OpLog(records=[])

    async def scenario(rt):
        await closed_loop([Down([])], [[Op(PUT, "c0-k0", "v")]], rt.now, log, tag="m")

    in_sim(scenario)
    assert (log.attempted, log.failed, log.puts) == (1, 1, [])
    assert log.records[0][-1] is False
