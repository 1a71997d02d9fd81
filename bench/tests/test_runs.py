"""Whole runs at the smallest size: every declared name is emitted, the
simulated workloads repeat exactly, the output checks pass."""

import json
import os
import subprocess
import sys

import pytest

from bench import sim

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def session_members(sid):
    """Pids of the processes (zombies included) in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == sid:
                members.append(int(entry))
    return members


def run_cli(tmp_path, workload, trace, seed=5):
    out = tmp_path / f"{workload}-{trace}.json"
    with subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--out", str(out)],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as run:
        stdout, stderr = run.communicate(timeout=170)
    # Every process the run started has ended by the time it has.
    assert session_members(run.pid) == []
    assert run.returncode == 0, stdout + stderr
    last = json.loads(stdout.strip().splitlines()[-1])
    assert not os.path.exists(tmp_path / ".bench_run")  # scratch removed
    return last, json.loads(out.read_text()), stdout


@pytest.fixture(scope="module")
def definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sim.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_simulated_workloads_repeat_exactly(tmp_path, definition, workload, trace):
    first, document, text = run_cli(tmp_path, workload, trace)
    second, _, _ = run_cli(tmp_path, workload, trace)
    section = definition["per_layer" if trace else "end_to_end"]
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert set(first["metrics"]) == {m["name"] for m in section}
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    exact = sim.EXACT_METRICS & set(first["metrics"])
    assert exact
    assert json.dumps({k: first["metrics"][k] for k in sorted(exact)}) == json.dumps(
        {k: second["metrics"][k] for k in sorted(exact)}
    )
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    # The result file explains itself, and every figure states its samples.
    assert {"nproc", "python", "load_1min_at_start", "commit"} <= set(document["header"])
    run = document["runs"][0]
    assert run["seed"] == 5 and run["load"]["clock"] == "virtual"
    assert {"loop", "clients", "injected_delay_ms", "warmup_ops", "ops"} <= set(run["load"])
    assert all("samples" in metric for metric in run["metrics"].values())
    assert " n=" in text


def test_failover_reports_the_fault(tmp_path):
    last, _, _ = run_cli(tmp_path, "failover-sim", 1)
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert 0.2 < metrics["fault.unavailable_vs"] < 3.0
    assert 0 < metrics["fault.late_share"] < 0.5
    assert metrics["fault.catchup_vs"] > 0 and metrics["fault.catchup_cpu_s"] > 0
    assert metrics["repl.terms_advanced"] >= 1
    assert metrics["wal.fsyncs_per_op"] > 0 and metrics["storage.recover_ms"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_durable_wall_clock_workload_emits_every_name(tmp_path, definition, trace):
    last, document, _ = run_cli(tmp_path, "put-durable", trace)
    section = definition["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in section}
    assert last["correct"] and last["failed"] == 0
    load = document["runs"][0]["load"]
    assert (load["loop"], load["clients"], load["injected_delay_ms"]) == ("closed", 2, 0)
    if trace:
        metrics = {k: v["value"] for k, v in last["metrics"].items()}
        assert metrics["wal.fsyncs_per_op"] > 0
        assert metrics["wal.fsync_ms_p50"] > 0 and metrics["storage.recover_ms"] > 0
        assert 0 <= metrics["ledger.untraced_share"] < 1
        assert metrics["kv.batch_wait_ms_p50"] > 0
        assert metrics["repl.propose_to_commit_ms_p50"] > 0


def test_memory_workload_never_syncs(tmp_path):
    last, _, _ = run_cli(tmp_path, "put-mem", 1)
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert metrics["wal.fsyncs_per_op"] == 0 and metrics["wal.appends_per_op"] == 0
    assert metrics["repl.contains_us_per_proposal"] > 0
    assert metrics["repl.elections_no_winner"] == 0 and metrics["transport.dropped"] == 0
