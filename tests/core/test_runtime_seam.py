"""The runtime seam: virtual time, deadlock detection, memory sockets.

:class:`~repro.core.runtime.SimRuntime` is the foundation of live-stack
DST — everything in ``repro.live`` schedules and connects through it.
These tests pin its contract directly, without any consensus machinery
on top: virtual clocks advance instantly, plain ``asyncio`` primitives
work unchanged, the in-memory network behaves like loopback TCP
(ordering, EOF, refused connections, broken pipes), and a starved loop
raises instead of hanging forever.
"""

import asyncio
import sys
import time

import pytest

from repro.core.runtime import (
    AsyncioRuntime,
    SimRuntime,
    SimStarvationError,
    current_runtime,
    use_runtime,
    within,
)


@pytest.fixture
def rt():
    runtime = SimRuntime()
    yield runtime
    runtime.close()


class TestVirtualTime:
    def test_sleep_advances_virtual_not_wall_time(self, rt):
        async def main():
            start = rt.now()
            await rt.sleep(1000.0)
            return rt.now() - start

        wall = time.monotonic()
        advanced = rt.run(main())
        wall = time.monotonic() - wall
        assert advanced == pytest.approx(1000.0)
        assert wall < 5.0  # a thousand virtual seconds, instantly

    def test_plain_asyncio_primitives_run_unchanged(self, rt):
        """Production code keeps using bare asyncio; only I/O needs the
        seam.  sleep/gather/Event/wait_for must all work in virtual time."""

        async def main():
            event = asyncio.Event()

            async def setter():
                await asyncio.sleep(3.0)
                event.set()

            task = rt.spawn(setter())
            await asyncio.wait_for(event.wait(), timeout=10.0)
            await task
            return rt.now()

        assert rt.run(main()) == pytest.approx(3.0)

    def test_timers_fire_in_deadline_order(self, rt):
        fired = []

        async def main():
            rt.call_later(0.3, fired.append, "c")
            rt.call_later(0.1, fired.append, "a")
            rt.call_later(0.2, fired.append, "b")
            await rt.sleep(1.0)

        rt.run(main())
        assert fired == ["a", "b", "c"]

    def test_wait_for_timeout_uses_virtual_clock(self, rt):
        async def main():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.Event().wait(), timeout=60.0)
            return rt.now()

        assert rt.run(main()) == pytest.approx(60.0)

    def test_starved_loop_raises_instead_of_hanging(self, rt):
        async def main():
            # Nothing will ever set this and no timer is pending: a real
            # loop would block forever on select(None).
            await asyncio.Event().wait()

        with pytest.raises(SimStarvationError):
            rt.run(main())

    def test_run_timeout_is_virtual(self, rt):
        async def main():
            await rt.sleep(100.0)

        with pytest.raises(asyncio.TimeoutError):
            rt.run(main(), timeout=1.0)


@pytest.fixture(params=["sim", "asyncio"])
def any_rt(request):
    runtime = SimRuntime() if request.param == "sim" else AsyncioRuntime()
    yield runtime
    if isinstance(runtime, SimRuntime):
        runtime.close()


class TestWithin:
    """The per-request deadline, on the virtual and on the real loop."""

    def test_expiry_raises_timeout_and_cancels_the_future(self, any_rt):
        async def main():
            future = asyncio.get_running_loop().create_future()
            with pytest.raises(asyncio.TimeoutError):
                await within(future, 0.01)
            return future.cancelled()

        assert any_rt.run(main())

    def test_outside_cancel_stays_a_cancel(self, any_rt):
        async def main():
            task = asyncio.ensure_future(within(asyncio.sleep(60.0), 30.0))
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        any_rt.run(main())

    def test_result_in_time_leaves_no_live_timer(self, any_rt):
        async def main():
            loop = asyncio.get_running_loop()
            armed = []
            call_later = loop.call_later

            def recording(*args):
                armed.append(call_later(*args))
                return armed[-1]

            loop.call_later = recording
            future = loop.create_future()
            call_later(0.001, future.set_result, "v")
            result = await within(future, 30.0)
            return result, [handle.cancelled() for handle in armed]

        assert any_rt.run(main()) == ("v", [True])

    def test_none_is_a_plain_await(self, any_rt):
        async def main():
            return await within(asyncio.sleep(0.01, "v"), None)

        assert any_rt.run(main()) == "v"

    def test_result_landing_in_the_timers_turn_is_a_timeout(self, any_rt):
        """The future completes, but the deadline fires before the task
        resumes: a timeout, as under ``asyncio.timeout``."""

        async def main():
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            loop.call_soon(future.set_result, "late")
            with pytest.raises(asyncio.TimeoutError):
                await within(future, 0)
            return future.result()

        assert any_rt.run(main()) == "late"

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="Task.cancelling")
    def test_timeout_undoes_its_own_cancel_request(self, any_rt):
        async def main():
            task = asyncio.current_task()
            before = task.cancelling()
            with pytest.raises(asyncio.TimeoutError):
                await within(asyncio.sleep(60.0), 0.01)
            return before, task.cancelling()

        before, after = any_rt.run(main())
        assert after == before


class TestMemoryNetwork:
    def test_echo_roundtrip(self, rt):
        async def main():
            async def handler(reader, writer):
                data = await reader.readline()
                writer.write(b"echo:" + data)
                await writer.drain()
                writer.close()

            server = await rt.start_server(handler, "127.0.0.1", 20001)
            reader, writer = await rt.open_connection("127.0.0.1", 20001)
            writer.write(b"hello\n")
            await writer.drain()
            reply = await reader.readline()
            eof = await reader.read()
            writer.close()
            server.close()
            await server.wait_closed()
            return reply, eof

        reply, eof = rt.run(main())
        assert reply == b"echo:hello\n"
        assert eof == b""  # handler close delivered EOF to the client

    def test_connect_to_unbound_port_is_refused(self, rt):
        async def main():
            with pytest.raises(ConnectionRefusedError):
                await rt.open_connection("127.0.0.1", 29999)

        rt.run(main())

    def test_writes_preserve_order(self, rt):
        """Many small writes in one burst must arrive concatenated in
        order — framing depends on TCP's no-reorder guarantee."""

        async def main():
            received = []
            done = asyncio.Event()

            async def handler(reader, writer):
                received.append(await reader.readexactly(300))
                done.set()

            await rt.start_server(handler, "127.0.0.1", 20002)
            _, writer = await rt.open_connection("127.0.0.1", 20002)
            for i in range(100):
                writer.write(b"%03d" % i)
            await writer.drain()
            await asyncio.wait_for(done.wait(), 5.0)
            return received[0]

        data = rt.run(main())
        assert data == b"".join(b"%03d" % i for i in range(100))

    def test_drain_after_peer_close_raises_reset(self, rt):
        async def main():
            async def handler(reader, writer):
                writer.close()

            await rt.start_server(handler, "127.0.0.1", 20003)
            reader, writer = await rt.open_connection("127.0.0.1", 20003)
            await reader.read()  # EOF: the peer is gone
            with pytest.raises(ConnectionResetError):
                for _ in range(10):
                    writer.write(b"x")
                    await writer.drain()
                    await asyncio.sleep(0.01)

        rt.run(main())

    def test_closed_server_refuses_new_connections(self, rt):
        async def main():
            server = await rt.start_server(
                lambda r, w: w.close(), "127.0.0.1", 20004
            )
            server.close()
            await server.wait_closed()
            with pytest.raises(ConnectionRefusedError):
                await rt.open_connection("127.0.0.1", 20004)

        rt.run(main())

    def test_duplicate_bind_fails(self, rt):
        async def main():
            await rt.start_server(lambda r, w: None, "127.0.0.1", 20005)
            with pytest.raises(OSError):
                await rt.start_server(lambda r, w: None, "127.0.0.1", 20005)

        rt.run(main())


class TestAmbientRuntime:
    def test_default_is_asyncio(self):
        assert current_runtime().name == "asyncio"
        assert isinstance(current_runtime(), AsyncioRuntime)

    def test_use_runtime_scopes_the_ambient_default(self):
        sim = SimRuntime()
        try:
            with use_runtime(sim):
                assert current_runtime() is sim
                with use_runtime(AsyncioRuntime()):
                    assert current_runtime().name == "asyncio"
                assert current_runtime() is sim
            assert current_runtime().name == "asyncio"
        finally:
            sim.close()

    def test_sim_run_installs_itself_as_ambient(self):
        sim = SimRuntime()
        try:
            assert sim.run(_ambient_name()) == "sim"
        finally:
            sim.close()
        assert current_runtime().name == "asyncio"


async def _ambient_name():
    return current_runtime().name
