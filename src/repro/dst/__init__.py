"""Deterministic simulation testing (DST) for the consensus framework.

FoundationDB-style schedule search over the repository's two simulators:
instead of checking the paper's Section-2 properties on a handful of seeds,
this package *searches* the `(seed, network config, failure plan)` space
for violations, shrinks what it finds, and pins the minimized witnesses as
replayable regression cases.

The workflow (see ``docs/testing.md``):

1. **explore** — :func:`repro.dst.explorer.explore` sweeps thousands of
   scenarios (random walks + targeted adversarial mutations), each running
   under the **online invariant oracle**
   (:class:`repro.dst.oracle.OnlineInvariantChecker`), which aborts a run
   at the first violating event.
2. **shrink** — :func:`repro.dst.shrinker.shrink` minimizes a violating
   scenario (fewer processes, fewer failure events, shorter horizon) while
   re-running deterministically to preserve the violation.
3. **corpus** — :mod:`repro.dst.corpus` stores minimized cases as JSON
   under ``tests/regressions/corpus/`` and replays them as pytest cases.

The same pipeline — the same ``explore``, ``shrink`` and corpus code,
generic over :class:`repro.dst.scenario.DstScenario` — runs against the
**production stack** (:mod:`repro.dst.livestack`): ``--stack live``
boots real :class:`~repro.live.kv.KVServer` clusters — sharding, TCP
framing, clients, nemesis and all — under a virtual-time
:class:`~repro.core.runtime.SimRuntime`, with the linearizability
checker as the oracle.

CLI: ``python -m repro explore <algorithm> ...``,
``python -m repro explore --stack live ...`` and
``python -m repro replay <case.json>``.
"""

from repro.dst.corpus import (
    CorpusCase,
    assert_stays_clean,
    assert_still_fails,
    case_name,
    load_case,
    load_corpus,
    replay,
    save_case,
)
from repro.dst.explorer import (
    ExplorationReport,
    explore,
    generate_scenarios,
    mutate,
    random_scenario,
)
from repro.dst.livestack import (
    LiveRunResult,
    LiveScenario,
    generate_live_scenarios,
    run_live,
)
from repro.dst.oracle import OnlineInvariantChecker, OnlineViolation
from repro.dst.registry import (
    AlgorithmSpec,
    BYZANTINE_STRATEGIES,
    algorithm_names,
    get_algorithm,
    register,
)
from repro.dst.scenario import (
    CrashSpec,
    DelaySpec,
    DstScenario,
    NetworkSpec,
    PartitionSpec,
    RunResult,
    Scenario,
    ScenarioOutcome,
    ViolationRecord,
    run_scenario,
    scenario_from_dict,
)
from repro.dst.shrinker import ShrinkResult, shrink

__all__ = [
    "AlgorithmSpec",
    "BYZANTINE_STRATEGIES",
    "CorpusCase",
    "CrashSpec",
    "DelaySpec",
    "DstScenario",
    "ExplorationReport",
    "LiveRunResult",
    "LiveScenario",
    "NetworkSpec",
    "OnlineInvariantChecker",
    "OnlineViolation",
    "PartitionSpec",
    "RunResult",
    "Scenario",
    "ScenarioOutcome",
    "ShrinkResult",
    "ViolationRecord",
    "algorithm_names",
    "assert_stays_clean",
    "assert_still_fails",
    "case_name",
    "explore",
    "generate_live_scenarios",
    "generate_scenarios",
    "get_algorithm",
    "load_case",
    "load_corpus",
    "mutate",
    "random_scenario",
    "register",
    "replay",
    "run_live",
    "run_scenario",
    "save_case",
    "scenario_from_dict",
    "shrink",
]
