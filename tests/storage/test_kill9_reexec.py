"""Real kill -9 against real ``repro serve`` processes.

The in-process harness simulates power failure; this suite does it for
real: OS processes running ``python -m repro serve --data-dir``, killed
with SIGKILL (no atexit, no flush, no goodbye), then **re-executed** —
the restarted process must recover its Raft state from its data
directory, and a whole-cluster kill must preserve every acknowledged
write.  Marked ``storage``: opt in with ``pytest -m storage``.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.live import AsyncKVClient, ClusterConfig

pytestmark = pytest.mark.storage

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def run(coro, timeout=240.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def peers_spec(cluster):
    return ",".join(
        f"{s.host}:{s.port}:{s.client_port}" for s in cluster.nodes
    )


def serve_command(cluster, pid, data_dir):
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--pid",
        str(pid),
        "--peers",
        peers_spec(cluster),
        "--election-timeout",
        "0.15,0.3",
        "--heartbeat",
        "0.05",
        "--data-dir",
        os.path.join(data_dir, f"node-{pid}"),
    ]


def spawn(cluster, pid, data_dir):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        serve_command(cluster, pid, data_dir),
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def sigkill(proc):
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)


async def put_with_retry(client, key, value, deadline=60.0):
    stop = time.monotonic() + deadline
    while True:
        try:
            return await client.put(key, value)
        except Exception:
            if time.monotonic() > stop:
                raise
            await asyncio.sleep(0.2)


async def get_with_retry(client, key, deadline=60.0):
    stop = time.monotonic() + deadline
    while True:
        try:
            return await client.get(key, linearizable=True)
        except Exception:
            if time.monotonic() > stop:
                raise
            await asyncio.sleep(0.2)


class TestKill9ReExec:
    def test_sigkill_and_reexec_recovers_durable_state(self, tmp_path):
        cluster = ClusterConfig.localhost(3)
        data_dir = str(tmp_path)
        procs = {}

        async def scenario():
            client = AsyncKVClient(cluster, request_timeout=2.0)
            try:
                for pid in range(3):
                    procs[pid] = spawn(cluster, pid, data_dir)
                expected = {}
                for i in range(5):
                    await put_with_retry(client, f"k{i}", f"v{i}")
                    expected[f"k{i}"] = f"v{i}"

                # kill -9 one node, re-exec the same command line.
                sigkill(procs[0])
                procs[0] = spawn(cluster, 0, data_dir)
                for i in range(5, 8):
                    await put_with_retry(client, f"k{i}", f"v{i}")
                    expected[f"k{i}"] = f"v{i}"

                # Now the acid test: kill -9 the ENTIRE cluster at once,
                # re-exec everyone, and demand every acked write back.
                for pid in range(3):
                    sigkill(procs[pid])
                for pid in range(3):
                    procs[pid] = spawn(cluster, pid, data_dir)
                for key, value in expected.items():
                    response = await get_with_retry(client, key)
                    assert response["found"], f"{key!r} lost across kill -9"
                    assert response["value"] == value
            finally:
                await client.close()

        try:
            run(scenario())
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait(timeout=10)

    def test_reexec_preserves_term_monotonicity(self, tmp_path):
        """A recovered node must come back in a term it has already seen
        (never a smaller one), or re-voting could elect two leaders for
        one term.  Verified via the status endpoint after re-exec."""
        cluster = ClusterConfig.localhost(3)
        data_dir = str(tmp_path)
        procs = {}

        async def scenario():
            client = AsyncKVClient(cluster, request_timeout=2.0)
            try:
                for pid in range(3):
                    procs[pid] = spawn(cluster, pid, data_dir)
                await put_with_retry(client, "seed", "1")

                async def term_of(pid, deadline=60.0):
                    stop = time.monotonic() + deadline
                    while True:
                        try:
                            status = await client.status_of(pid)
                            return status["term"]
                        except Exception:
                            if time.monotonic() > stop:
                                raise
                            await asyncio.sleep(0.2)

                before = await term_of(1)
                sigkill(procs[1])
                procs[1] = spawn(cluster, 1, data_dir)
                after = await term_of(1)
                assert after >= before, (
                    f"term went backwards across kill -9: {before} -> {after}"
                )
            finally:
                await client.close()

        try:
            run(scenario())
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait(timeout=10)
