"""``BENCHMARK.json`` against the builder's contract and the harness."""

import json
import os
import re
import subprocess
import sys

import pytest

from bench import live, sim
from bench.cluster import free_peer_ports
from repro.live.config import CLIENT_PORT_OFFSET

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_keys_and_limits(definition):
    assert set(definition) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert definition["paths"] == ["bench"]
    assert definition["command"] == ["python3", "bench/run.py"]
    assert 1 <= definition["run_seconds"] <= 60
    assert 2 <= len(definition["workloads"]) <= 8
    assert 1 <= len(definition["end_to_end"]) <= 16
    assert 1 <= len(definition["per_layer"]) <= 128
    runs = 4 + 22 * len(definition["workloads"])
    assert runs * 25 <= 3420  # the time every run, set-up included, may average


def test_names_units_and_bounds(definition):
    names = []
    for workload in definition["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in definition["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in definition["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in definition["end_to_end"] + definition["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    setup = [m for m in definition["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in definition["end_to_end"])


def test_every_workload_has_an_implementation(definition):
    assert {w["name"] for w in definition["workloads"]} == set(live.WORKLOADS) | set(
        sim.WORKLOADS
    )


def test_exact_metrics_are_declared(definition):
    declared = {m["name"] for m in definition["end_to_end"] + definition["per_layer"]}
    assert sim.EXACT_METRICS <= declared


def test_client_port_is_peer_port_plus_offset():
    import socket

    ports = free_peer_ports(3)
    assert len(set(ports)) == 3
    for port in ports:
        for bound in (port, port + CLIENT_PORT_OFFSET):
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", bound))  # both were left free


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "put-mem", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "missing" in done.stderr
