"""Smoke test: every CLI-registered experiment runs end-to-end.

This keeps the experiment registry honest — an experiment that crashes at
default parameters is a release blocker even if its ``run()`` variants are
separately tested.
"""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, main

#: Experiments cheap enough to run at full default size in the suite.
FAST = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "theorem4",
    "theorem8",
    "recovery",
    "partition",
    "quantization",
    "cold-start",
]


@pytest.mark.slow
@pytest.mark.parametrize("name", FAST)
def test_experiment_runs_clean(name, capsys):
    assert main(["experiment", name]) == 0
    out = capsys.readouterr().out
    assert out.strip(), f"experiment {name} printed nothing"


def test_registry_covers_fast_list():
    for name in FAST:
        assert name in EXPERIMENTS


def test_registry_complete():
    """Every experiment module with something to run is in the registry.

    Walks the package on disk, not a hand-kept list: a module that defines
    ``EXPERIMENTS`` or a ``main`` and is missing from the registry fails.
    """
    import importlib
    import pkgutil

    import repro.experiments as exp

    wrapped = {
        getattr(entry.main, "__wrapped__", None) for entry in exp.REGISTRY.values()
    }
    for info in pkgutil.iter_modules(exp.__path__):
        module = importlib.import_module(f"{exp.__name__}.{info.name}")
        if hasattr(module, "EXPERIMENTS"):
            for entry in module.EXPERIMENTS:
                assert exp.REGISTRY.get(entry.name) is entry, entry.name
        elif hasattr(module, "main"):
            assert module.main in wrapped, f"{info.name} not runnable from the CLI"
    assert set(EXPERIMENTS) == set(exp.REGISTRY)
