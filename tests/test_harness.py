"""The gauntlet harness, tested once instead of once per gauntlet.

A stub gauntlet (no simulation: ``run`` just fills in an outcome) pins what
the harness owns — matrix order, bundle directory names, the replay check,
the report envelope, the ``FAIL:`` lines, flag range checks and exit codes
— and one real gauntlet proves a failed claim reaches the process exit
code through both CLI spellings.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

import pytest

from repro.cli import main
from repro.experiments import REGISTRY, harness, mitm_gauntlet


@dataclass(frozen=True)
class Cell:
    label: str


@dataclass(frozen=True)
class Outcome:
    cell: str
    arm: str
    seed: int
    trace_digest: int


def _stub(digests=None, problems=()) -> harness.Gauntlet:
    """A two-cell, two-arm gauntlet whose runs cost nothing."""
    digests = digests if digests is not None else itertools.repeat(7)

    def run(cell, arm, seed, *, telemetry=None, scale=1):
        harness.check_arm(arm, ("a", "b"))
        return Outcome(cell.label, arm, seed * scale, next(digests))

    return harness.Gauntlet(
        cells=(Cell("x"), Cell("y")),
        arms=("a", "b"),
        run=run,
        evaluate=lambda outcomes: list(problems),
        header=lambda seeds, **params: f"stub: {len(seeds)} seed(s) {params}",
        table=(("cell", lambda o: o.cell), ("seed", lambda o: o.seed)),
        success="all good.",
        constants={"tau": 1.5},
        bundle_fields=("cell", "arm", "seed"),
        telemetry={"sample_period": 1.0},
    )


def test_matrix_runs_cell_then_arm_then_seed():
    outcomes = _stub().run_matrix(seeds=(0, 1))
    assert [(o.cell, o.arm, o.seed) for o in outcomes] == [
        (cell, arm, seed) for cell in "xy" for arm in "ab" for seed in (0, 1)
    ]


def test_unknown_arm_raises():
    with pytest.raises(ValueError, match="unknown arm 'ntp'"):
        replace(_stub(), arms=("ntp",)).run_matrix(seeds=(0,))


def test_bundle_directories_are_cell_arm_seed(tmp_path):
    spec = replace(_stub(), cells=(Cell("x"),))
    spec.run_matrix(seeds=(0, 3), telemetry_dir=str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "x-a-seed0",
        "x-a-seed3",
        "x-b-seed0",
        "x-b-seed3",
    ]
    summary = json.loads((tmp_path / "x-b-seed3" / "summary.json").read_text())
    assert (summary["cell"], summary["arm"], summary["seed"]) == ("x", "b", 3)
    assert (tmp_path / "x-b-seed3" / "metrics.prom").exists()


def test_cell_less_matrix_drops_the_cell_from_bundle_names(tmp_path):
    spec = replace(_stub(), cells=(None,), bundle_fields=("arm", "seed"))
    spec = replace(spec, run=lambda cell, arm, seed, **_: Outcome("-", arm, seed, 7))
    spec.run_matrix(seeds=(0,), telemetry_dir=str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-seed0", "b-seed0"]


def test_passing_report_envelope_and_success_sentence(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert _stub().main(seeds=(0,), json_path=str(path), scale=2) is True
    out = capsys.readouterr().out
    assert out.startswith("stub: 1 seed(s) {'scale': 2}\ncell  seed\n")
    assert out.endswith(f"\nwrote JSON report to {path}\n\nall good.\n")
    report = json.loads(path.read_text())
    assert sorted(report) == [
        "ok", "outcomes", "problems", "replay_ok", "scale", "seeds", "tau",
    ]
    assert report["ok"] and report["replay_ok"] and report["problems"] == []
    assert report["seeds"] == [0] and report["tau"] == 1.5 and report["scale"] == 2
    assert report["outcomes"][0] == {
        "cell": "x", "arm": "a", "seed": 0, "trace_digest": 7,
    }


def test_diverging_replay_becomes_a_problem_line(tmp_path, capsys):
    # Four matrix runs digest to 7; the replay of the first digests to 8.
    spec = _stub(digests=iter([7, 7, 7, 7, 8]))
    path = tmp_path / "report.json"
    assert spec.main(seeds=(5,), json_path=str(path)) is False
    out = capsys.readouterr().out
    assert "FAIL: replay of x/a/seed 5 diverged: 00000008 != 00000007" in out
    assert "all good." not in out
    report = json.loads(path.read_text())
    assert report["replay_ok"] is False and report["ok"] is False
    assert report["problems"] == [
        "replay of x/a/seed 5 diverged: 00000008 != 00000007"
    ]


def test_failed_claims_print_fail_lines_and_return_false(capsys):
    spec = _stub(problems=("x seed 0: broke", "y seed 0: broke"))
    assert spec.main(seeds=(0,)) is False
    out = capsys.readouterr().out
    assert out.endswith("\nFAIL: x seed 0: broke\nFAIL: y seed 0: broke\n")


# ------------------------------------------------------ registration / CLI


def test_flag_defaults_checks_and_exit_codes(monkeypatch, capsys):
    seen = {}

    def stub_main(**kwargs):
        seen.update(kwargs)
        return kwargs["horizon"] < 100

    experiment = harness.Experiment(
        "stub",
        "a stub",
        stub_main,
        {
            **harness.seeds_flag(4, 5),
            "--horizon": dict(type=float, default=10.0, requires=harness.POSITIVE),
            **harness.JSON,
        },
    )
    monkeypatch.setitem(REGISTRY, "stub", experiment)

    # `repro experiment <name>` runs every flag at its declared default.
    assert main(["experiment", "stub"]) == 0
    assert seen == {"seeds": [4, 5], "horizon": 10.0, "json_path": None}
    # `repro <name>` parses the same flags; False from main is exit 1.
    assert main(["stub", "--seeds", "9", "--horizon", "500", "--json", "r.json"]) == 1
    assert seen == {"seeds": [9], "horizon": 500.0, "json_path": "r.json"}
    # A range check failure is exit 2 and never reaches main.
    seen.clear()
    assert main(["stub", "--horizon", "0"]) == 2
    assert seen == {}
    assert "stub: --horizon must be positive" in capsys.readouterr().err


def test_empty_seeds_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["blackout-gauntlet", "--seeds"])
    assert exit_info.value.code == 2
    assert main(["chaos", "--seeds", "0"]) == 2
    assert "chaos: --seeds must be at least 1" in capsys.readouterr().err


@pytest.mark.security
@pytest.mark.parametrize(
    "spelling", [["mitm-gauntlet"], ["experiment", "mitm-gauntlet"]]
)
def test_failed_claim_exits_1_through_both_spellings(spelling, monkeypatch, capsys):
    """The verdict is not swallowed: one planted problem in a registered
    gauntlet's ``evaluate`` is exit 1 whichever way it is spelled."""
    planted = replace(
        mitm_gauntlet.SPEC,
        cells=mitm_gauntlet.CELLS[:1],
        arms=("authenticated",),
        evaluate=lambda outcomes: ["planted problem"],
    )
    monkeypatch.setitem(
        REGISTRY, "mitm-gauntlet", planted.experiment("mitm-gauntlet", "", seeds=(0,))
    )
    assert main(spelling) == 1
    assert "FAIL: planted problem" in capsys.readouterr().out


def test_design_index_matches_the_registry():
    """DESIGN.md §3.1 lists exactly the registry, each under its module."""
    import importlib
    from pathlib import Path

    design = (Path(__file__).parent.parent / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("### 3.1 Runnable index")[1].split("\n*Expectation")[0]
    rows = [
        [cell.strip(" `") for cell in line.split("|")[1:3]]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert sorted(name for name, _ in rows) == sorted(REGISTRY)
    for name, module_name in rows:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        declared = getattr(module, "EXPERIMENTS", None)
        if declared is not None:
            assert REGISTRY[name] in declared, name
        else:
            assert REGISTRY[name].main.__wrapped__ is module.main, name
