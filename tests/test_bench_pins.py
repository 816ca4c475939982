"""The benchmark's behaviour pins hold on the heap plane.

``bench/pins.json`` records, for seed 0, the trace digest and event count
one lap of each simulated workload must reproduce; ``bench/run.py`` only
prints ``behaviour_changed`` when they drift.  Here one seed-0 lap of each
heap-plane workload runs (``bench/workloads.py``, imported read-only) and
its behaviour must equal the pin, so a change that moves the simulation
fails tier-1 instead of a benchmark report line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
PINS = json.loads((BENCH / "pins.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    # Appended, not prepended: bench/ must not shadow anything already
    # importable.  workloads.py imports its siblings by bare name.
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    import workloads

    return workloads


@pytest.mark.parametrize(
    "name", ["sync_mesh_plain", "sync_mesh_auth", "service_clients_im"]
)
def test_heap_workload_lap_matches_its_pin(workloads, name):
    assert PINS["seed"] == 0
    lap = workloads.LAPS[name](0)
    assert lap.behaviour == PINS["workloads"][name]
