"""Pinned telemetry bundles: ``metrics.prom`` byte-for-byte, the rest by hash.

Three runs cover every counter family a stats object feeds: the
instrumented Figure 1 (``repro figure1 --telemetry-out``: the sync-plane
families and the spans), the ``mitm-gauntlet`` ``tamper`` cell's
``authenticated`` arm (hardening, security and Byzantine demotions) and
the ``blackout-gauntlet`` ``short-ref`` cell's ``holdover`` arm (the
holdover families), each at seed 0.  The gauntlet bundles are written
exactly as ``--telemetry-out`` writes them, one run instead of the
matrix.  ``tests/golden/telemetry/<bundle>.prom`` holds each
``metrics.prom``; ``sha256.json`` holds the digest of every other file.

To re-record after an intended change::

    PYTHONPATH=src python tests/test_telemetry_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import blackout_gauntlet, mitm_gauntlet
from repro.telemetry import ServiceTelemetry

pytestmark = pytest.mark.telemetry

GOLDEN = Path(__file__).parent / "golden" / "telemetry"
DIGESTS = GOLDEN / "sha256.json"


def _figure1(directory: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["figure1", "--telemetry-out", str(directory)]) == 0


def _gauntlet_arm(module, cell_name: str, arm: str):
    def run(directory: Path) -> None:
        spec = module.SPEC
        (cell,) = [cell for cell in spec.cells if cell.label == cell_name]
        telemetry = ServiceTelemetry(spans=False, **spec.telemetry)
        outcome = spec.run(cell, arm, 0, telemetry=telemetry)
        telemetry.write(
            directory,
            summary_extra={name: getattr(outcome, name) for name in spec.bundle_fields},
        )

    return run


#: bundle name -> the run that writes it into a directory.
BUNDLES = {
    "figure1": _figure1,
    "mitm-tamper-authenticated-seed0": _gauntlet_arm(
        mitm_gauntlet, "tamper", "authenticated"
    ),
    "blackout-short-ref-holdover-seed0": _gauntlet_arm(
        blackout_gauntlet, "short-ref", "holdover"
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_bundle_matches_golden(bundle, tmp_path):
    BUNDLES[bundle](tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))[bundle]
    assert written == sorted(["metrics.prom", *digests])
    golden = (GOLDEN / f"{bundle}.prom").read_text(encoding="utf-8")
    assert (tmp_path / "metrics.prom").read_text(encoding="utf-8") == golden
    for name, digest in digests.items():
        assert _sha256(tmp_path / name) == digest, name


def _record() -> None:
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    digests = {}
    for bundle, run in sorted(BUNDLES.items()):
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch)
            run(directory)
            (GOLDEN / f"{bundle}.prom").write_bytes(
                (directory / "metrics.prom").read_bytes()
            )
            digests[bundle] = {
                path.name: _sha256(path)
                for path in sorted(directory.iterdir())
                if path.name != "metrics.prom"
            }
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
