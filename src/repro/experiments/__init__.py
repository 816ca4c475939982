"""Experiments — one module per paper figure, theorem, anecdote and gauntlet.

Each module exposes ``run(...)`` returning a typed result object; the
benchmark suite under ``benchmarks/`` wraps these with pytest-benchmark.
:data:`REGISTRY` is the single index of what is runnable: ``repro <name>``
and ``repro experiment <name>`` both read it.  See DESIGN.md §3 for the
experiment index and EXPERIMENTS.md for paper-vs-measured records.
"""

from importlib import import_module
from typing import Dict

from . import scenarios
from .harness import Experiment, informational

#: The one list of experiment modules.  An informational module — a
#: ``main()`` that prints its figure and claims nothing — is registered
#: under the CLI name given here; a gauntlet module (None) declares its
#: own name(s), flags and verdict-returning main as ``EXPERIMENTS`` over
#: :mod:`.harness`.  ``scenarios`` (shared builders) and ``harness`` have
#: nothing to run and are the only modules not listed.
_MODULES = {
    "ablations": "ablations",
    "blackout_gauntlet": None,
    "chaos_soak": None,
    "churn": "churn",
    "cold_start": "cold-start",
    "correctness": "correctness",
    "delay_asymmetry": "asymmetry",
    "discipline": "discipline",
    "drift_recovery": "recovery",
    "dynamic_gauntlet": None,
    "failures": "failures",
    "figure1": "figure1",
    "figure2": "figure2",
    "figure3": "figure3",
    "figure3_liars": None,
    "figure4": "figure4",
    "figure4_repair": None,
    "flash_crowd": None,
    "live_gauntlet": None,
    "mitm_gauntlet": None,
    "overhead": "overhead",
    "partition": "partition",
    "quantization": "quantization",
    "scale_gauntlet": None,
    "tenfold": "tenfold",
    "theorem4": "theorem4",
    "theorem8": "theorem8",
    "theorem_bounds": "theorem-bounds",
    "topology_study": "topology",
}



def _collect() -> Dict[str, Experiment]:
    registry = {}
    for module_name, cli_name in _MODULES.items():
        module = import_module(f".{module_name}", __name__)
        for experiment in (
            module.EXPERIMENTS
            if cli_name is None
            else (informational(cli_name, module),)
        ):
            registry[experiment.name] = experiment
    return registry


#: CLI name -> :class:`~.harness.Experiment`.
REGISTRY = _collect()

__all__ = ["REGISTRY", "harness", "scenarios", *_MODULES]
