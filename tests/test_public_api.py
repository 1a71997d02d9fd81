"""The public API surface: everything advertised must import and work."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        if name == "__version__":
            continue
        assert hasattr(repro, name), f"repro.__all__ advertises missing {name}"


SUBMODULES = [
    "repro.core",
    "repro.core.confidence",
    "repro.core.objects",
    "repro.core.template",
    "repro.core.composition",
    "repro.core.properties",
    "repro.sim",
    "repro.sim.async_runtime",
    "repro.sim.sync_runtime",
    "repro.sim.network",
    "repro.sim.failures",
    "repro.sim.trace",
    "repro.memory",
    "repro.memory.adopt_commit",
    "repro.memory.conciliator",
    "repro.memory.composition",
    "repro.memory.consensus",
    "repro.algorithms.ben_or",
    "repro.algorithms.phase_king",
    "repro.algorithms.phase_queen",
    "repro.algorithms.raft",
    "repro.algorithms.multi_paxos",
    "repro.algorithms.chandra_toueg",
    "repro.algorithms.decentralized_raft",
    "repro.algorithms.shared_coin",
    "repro.analysis",
    "repro.analysis.metrics",
    "repro.analysis.experiments",
    "repro.analysis.workloads",
    "repro.analysis.report",
]


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_submodule_imports(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_submodule_all_entries_exist(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_public_classes_have_docstrings():
    import inspect

    missing = []
    for name in repro.__all__:
        obj = getattr(repro, name, None)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                missing.append(name)
    assert not missing, f"public items without docstrings: {missing}"


def test_quickstart_snippet_from_readme():
    from repro import AsyncRuntime, ben_or_template_consensus

    processes = [ben_or_template_consensus() for _ in range(5)]
    runtime = AsyncRuntime(processes, init_values=[0, 1, 0, 1, 1], t=2, seed=7)
    result = runtime.run()
    assert result.decided_value() in (0, 1)
