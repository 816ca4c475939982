"""Pinned gauntlet reports: stdout byte-for-byte, ``--json`` as parsed objects.

Every file under ``tests/golden/gauntlets/`` was recorded at the commit
*before* the gauntlets moved onto :mod:`repro.experiments.harness`
(``python -m repro <command> > <name>.stdout`` without ``--json``, and the
``--json`` report re-serialised with sorted keys), so "the port changed
nothing" is a test, not a claim.  Two documented exceptions: the dynamic
gauntlet gained ``"replay_ok"`` (it claimed a replay check it never ran),
and the scale gauntlet prints wall-clock throughput, which is masked on
both sides.

To record a golden for a new gauntlet see docs/chaos.md, "Writing a
gauntlet".
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "gauntlets"

#: name -> (argv, marker).  The golden files are ``<name>.stdout`` and,
#: where the command takes ``--json``, ``<name>.json``.
COMMANDS = {
    "blackout-gauntlet": (["blackout-gauntlet", "--seeds", "0"], "holdover"),
    "mitm-gauntlet": (["mitm-gauntlet", "--seeds", "0"], "security"),
    "dynamic-gauntlet": (["dynamic-gauntlet", "--seeds", "0"], "dynamic"),
    "figure3-liars": (["figure3-liars"], "byzantine"),
    "flash-crowd": (["flash-crowd", "--seeds", "11"], "overload"),
    "chaos": (["chaos", "--seeds", "1"], "chaos"),
    "chaos-soak": (["experiment", "chaos-soak"], "chaos"),
    "figure4-repair": (["figure4-repair"], "recovery"),
    "scale-gauntlet": (
        ["scale-gauntlet", "--sizes", "1000", "--seeds", "0"],
        "kernel",
    ),
}

#: Keys present in the report today that the pre-harness report lacked.
ADDED_KEYS = {"dynamic-gauntlet": {"replay_ok": True}}


def _mask_scale_stdout(text: str) -> str:
    """Blank the wall-clock ``events/s`` column and the throughput line."""
    lines = text.splitlines()
    # The first table (lines 1 .. first blank) carries events/s as its
    # sixth column; its width follows the digit count, so compare cells.
    for index in range(1, lines.index("")):
        cells = re.split(r"\s{2,}", lines[index].rstrip())
        cells[5] = "#"
        lines[index] = "  ".join(cells)
    return re.sub(
        r"at [\d,]+ events/s \((\d+) events in [\d.]+s wall\)",
        r"at # events/s (\1 events in #s wall)",
        "\n".join(lines) + "\n",
    )


def _mask_scale_json(report: dict) -> dict:
    for run in report["runs"]:
        run["events_per_sec"] = run["wall_seconds"] = None
    return report


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=getattr(pytest.mark, marker))
        for name, (_, marker) in COMMANDS.items()
    ],
)
def test_report_matches_golden(name, tmp_path, capsys):
    argv, _ = COMMANDS[name]
    golden_json = GOLDEN / f"{name}.json"
    json_path = tmp_path / "report.json"
    if golden_json.exists():
        argv = argv + ["--json", str(json_path)]

    assert main(argv) == 0
    stdout = capsys.readouterr().out
    # The goldens were recorded without --json; the harness announces the
    # report with exactly one line, which is the only stdout difference.
    stdout = stdout.replace(f"\nwrote JSON report to {json_path}\n", "")
    expected = (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    if name == "scale-gauntlet":
        stdout, expected = _mask_scale_stdout(stdout), _mask_scale_stdout(expected)
    assert stdout == expected

    if golden_json.exists():
        written = json_path.read_text(encoding="utf-8")
        report = json.loads(written)
        # One JSON style for every report the harness writes.
        assert written == json.dumps(report, indent=2, sort_keys=True)
        wanted = json.loads(golden_json.read_text(encoding="utf-8"))
        wanted.update(ADDED_KEYS.get(name, {}))
        if name == "scale-gauntlet":
            report, wanted = _mask_scale_json(report), _mask_scale_json(wanted)
        assert report == wanted
