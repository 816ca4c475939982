"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of runs of
one commit), B the candidate.  One row per workload x end-to-end metric
with both medians and quartiles, the relative change with its base, the
metric's fixed bound, and a verdict:

``better``      B's median beats A's by more than A's own quartile spread
``within``      B's median is no worse than A's by more than the bound
``worse``       it is worse by more than the bound
``unresolved``  the runs' spread is wider than the bound and the two
                sets of runs overlap, so "unchanged" cannot be claimed

Exit status is non-zero on any ``worse``, on any rise of ``failed_share``,
and when a simulated workload's behaviour pin or exact accuracy figures
differ between the files (same seed only).
"""

from __future__ import annotations

import json
import sys
from typing import Sequence

import catalog

#: Deterministic per seed: any difference is a behaviour change, not noise.
EXACT = ("server_error_mean_s", "client_error_median_s")


def verdict(better: str, bound: float, a: dict, b: dict) -> tuple:
    """``(signed change as a share of A's median, verdict)``; positive = worse."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / abs(a["median"])
    if better == "lower":
        separated = max(b["values"]) < min(a["values"])
    else:
        separated = min(b["values"]) > max(a["values"])
    if worse_by > bound:
        return worse_by, "worse"
    if spread > bound and not separated:
        return worse_by, "unresolved"
    if -worse_by > (a["q3"] - a["q1"]) / abs(a["median"]):
        return worse_by, "better"
    return worse_by, "within"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.load(open(path)) for path in argv)
    if a["quick"] != b["quick"]:
        print("refusing to compare a --quick result with a full one")
        return 2
    same_seed = a["seed"] == b["seed"]
    bad = 0
    print(f"A = {argv[0]} (seed {a['seed']})   B = {argv[1]} (seed {b['seed']})")
    print(f"{'workload':<22}{'metric':<24}{'A median [q1..q3]':<36}"
          f"{'B median [q1..q3]':<36}{'B vs A':>9}{'bound':>8}  verdict")
    for name in catalog.WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (unit, better, bound) in catalog.END_TO_END.items():
            ra, rb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            change, word = verdict(better, bound, ra, rb)
            if same_seed and wa["behaviour"] and metric in EXACT and ra["values"] != rb["values"]:
                word = "worse (not exact)"
            bad += word.startswith("worse")
            # "+" always reads "B is worse", whichever direction is better
            print(
                f"{name:<22}{metric:<24}"
                f"{_cell(ra, unit):<36}{_cell(rb, unit):<36}"
                f"{change:>+9.2%}{bound:>8.0%}  {word}"
            )
        rose = wb["failed_share"] > wa["failed_share"]
        bad += rose
        print(f"{name:<22}{'failed_share':<24}{wa['failed_share']:<36.6f}"
              f"{wb['failed_share']:<36.6f}{'':>17}  {'worse (rose)' if rose else 'within'}")
        if same_seed and wa["behaviour"] != wb["behaviour"]:
            bad += 1
            print(f"{name:<22}behaviour pin differs: {wa['behaviour']} != {wb['behaviour']}")
    print("B vs A: share of A's median by which B is worse (+) or better (-)")
    return 1 if bad else 0


def _cell(row: dict, unit: str) -> str:
    return f"{row['median']:.5g} [{row['q1']:.5g}..{row['q3']:.5g}] {unit}"


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
