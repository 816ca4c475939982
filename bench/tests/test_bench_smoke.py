"""Smoke test of the benchmark itself (not part of tier-1's ``testpaths``):

    python -m pytest bench/tests -q

One ``--quick`` suite run (a minute and a half), then structural checks of
its result file against ``BENCHMARK.json`` and ``bench/catalog.py``.
"""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(out.read_text()), done.stdout


def test_benchmark_json_matches_the_catalog():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"] and SPEC["run_seconds"] == catalog.RUN_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    } == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == catalog.PER_LAYER


def test_names_and_counts_are_inside_the_contract():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names), names
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(
        (m["name"], m["unit"], m["better"]) == ("setup_s", "s", "lower") for m in SPEC["end_to_end"]
    )
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_quick_run_reports_every_workload_and_metric(quick):
    report, stdout = quick
    assert report["quick"] is True
    assert set(report["workloads"]) == set(catalog.WORKLOADS)
    reported_layers = set()
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == set(catalog.END_TO_END), name
        assert entry["failed_share"] == 0 and entry["attempted"] >= 1, name
        assert set(entry["per_layer"]) <= set(catalog.PER_LAYER), name
        reported_layers |= set(entry["per_layer"])
        for metric, row in entry["end_to_end"].items():
            assert row["median"] > 0 and row["n"] == report["repetitions"], (name, metric)
            assert f"{metric:<24}" in stdout
    # ... and vice versa: no catalogued layer metric that no workload reports
    assert reported_layers == set(catalog.PER_LAYER)
    assert all(check["ok"] for check in report["checks"]), report["checks"]
    noise = report["noise"]
    assert {"nproc", "loadavg_1m_before", "loadavg_1m_after", "python", "numpy"} <= set(noise)


def test_wrappers_are_fully_removed():
    def current():
        found = {}
        for _name, module, owner, attr, _options in spans.HOOKS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            found[(module, owner, attr)] = (getattr(target, attr), attr in vars(target))
        return found

    before = current()
    installed = spans.install(spans.Tracer())
    assert not installed.missing
    patched = current()
    assert all(patched[key][0] is not before[key][0] for key in before)
    spans.remove(installed)
    assert current() == before
