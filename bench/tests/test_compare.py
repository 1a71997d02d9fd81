"""``bench/compare.py``: verdicts against the bounds, and the exit code."""

import json
import os

from bench import compare

DEFINITION = {
    "workloads": [{"name": "put-mem"}, {"name": "batch-sim"}],
    "end_to_end": [
        {"name": "put_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "ops_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
    "per_layer": [],
}


def runs(workload, p50s, ops=None, failed=0, seeds=None):
    ops = ops or [100.0] * len(p50s)
    return [
        {
            "workload": workload, "trace": 0, "seed": (seeds or range(len(p50s)))[i],
            "attempted": 1000, "failed": failed,
            "metrics": {
                "put_p50_ms": {"value": p50, "unit": "ms"},
                "ops_s": {"value": ops[i], "unit": "1/s"},
            },
        }
        for i, p50 in enumerate(p50s)
    ]


def grouped(*run_lists):
    out = {}
    for run_list in run_lists:
        for run in run_list:
            out.setdefault((run["workload"], run["trace"]), []).append(run)
    return out


def verdicts(lines):
    return {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}


def test_within_bound_is_same():
    a = grouped(runs("put-mem", [8.0, 8.1, 8.2, 8.3]))
    b = grouped(runs("put-mem", [8.5, 8.6, 8.7, 8.8]))
    lines, bad = compare.compare(a, b, DEFINITION)
    assert verdicts(lines) == {"put_p50_ms": "same", "ops_s": "same"}
    assert not bad


def test_beyond_bound_is_worse_in_the_metrics_own_direction():
    a = grouped(runs("put-mem", [8.0, 8.1, 8.2, 8.3], [100, 101, 102, 103]))
    b = grouped(runs("put-mem", [9.4, 9.5, 9.6, 9.7], [80, 81, 82, 83]))
    lines, bad = compare.compare(a, b, DEFINITION)
    assert verdicts(lines) == {"put_p50_ms": "worse", "ops_s": "worse"}
    assert bad
    faster = grouped(runs("put-mem", [6.0, 6.1, 6.2, 6.3], [130, 131, 132, 133]))
    lines, bad = compare.compare(a, faster, DEFINITION)
    assert set(verdicts(lines).values()) == {"same"} and not bad


def test_spread_wider_than_bound_is_unresolved_unless_b_wins_every_run():
    noisy = [6.0, 8.0, 10.0, 12.0]
    a = grouped(runs("put-mem", noisy))
    lines, bad = compare.compare(a, grouped(runs("put-mem", [9.0, 9.5, 10.0, 13.0])), DEFINITION)
    assert verdicts(lines)["put_p50_ms"] == "unresolved" and not bad
    lines, _ = compare.compare(a, grouped(runs("put-mem", [4.0, 4.5, 5.0, 5.5])), DEFINITION)
    assert verdicts(lines)["put_p50_ms"] == "same"


def test_exact_metrics_must_be_identical_on_the_simulated_workloads():
    a = grouped(runs("batch-sim", [6.5, 6.6]))
    same = grouped(runs("batch-sim", [6.5, 6.6]))
    lines, bad = compare.compare(a, same, DEFINITION)
    assert verdicts(lines)["put_p50_ms"] == "same" and not bad
    slower = grouped(runs("batch-sim", [6.5, 6.6000001]))
    lines, bad = compare.compare(a, slower, DEFINITION)
    assert verdicts(lines)["put_p50_ms"] == "worse" and bad
    # Other seeds: nothing to be identical to, so the bound applies.
    other = grouped(runs("batch-sim", [6.5, 6.6000001], seeds=[7, 8]))
    lines, bad = compare.compare(a, other, DEFINITION)
    assert verdicts(lines)["put_p50_ms"] == "same" and not bad


def test_a_rise_in_failed_share_fails_the_comparison(tmp_path, capsys):
    with open(os.path.join(compare.ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["end_to_end"]]

    def document(failed):
        out = runs("put-mem", [8.0, 8.1], failed=failed)
        for run in out:
            run["metrics"] = {name: {"value": 8.0, "unit": "x"} for name in declared}
        return json.dumps({"header": {}, "runs": out})

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(document(0))
    b.write_text(document(3))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "failed_share rose" in capsys.readouterr().out
