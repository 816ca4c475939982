"""Run the benchmark: one workload once, or the whole suite.

One run (what the benchmark driver calls; the last stdout line is the
result object)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The suite (every workload, k interleaved repetitions in fresh
subprocesses, then one traced run each; prints every metric by name with
its unit and writes the result file)::

    python3 bench/run.py [--seed N] [--quick] [--out FILE]

``src/`` is put on ``sys.path`` from this file's location, so neither
form needs ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import catalog  # noqa: E402  (bench/ is sys.path[0] when run as a script)

PINS = json.loads((BENCH_DIR / "pins.json").read_text())
DETAIL_PREFIX = "DETAIL "


# ------------------------------------------------------------------ one run


def run_once(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns ``(result object, detail object)`` for one run."""
    import measure
    import workloads

    time_base = catalog.WORKLOADS[name]
    load_before = os.getloadavg()[0]
    if trace:
        import traced

        laps, layer = traced.run(name, seed, seconds)
        metrics = {
            metric: {"value": float(layer.get(metric, 0.0)), "unit": unit}
            for metric, (unit, _better) in catalog.PER_LAYER.items()
        }
        applicable = sorted(layer)
    else:
        laps = measure.repeat_laps(workloads.LAPS[name], seed, seconds, None)
        values = measure.end_to_end(laps)
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, (unit, _better, _bound) in catalog.END_TO_END.items()
        }
        applicable = sorted(
            metric for metric in metrics if name in catalog.NATIVE.get(metric, {name})
        )
    attempted = sum(lap.attempted for lap in laps)
    failed = sum(lap.failed for lap in laps)
    simulated = bool(laps[0].behaviour)
    # Same seed, same work: simulated laps must agree to the last bit.
    deterministic = not simulated or all(
        (lap.behaviour, lap.server_errors, lap.client_errors)
        == (laps[0].behaviour, laps[0].server_errors, laps[0].client_errors)
        for lap in laps
    )
    pinned = PINS["workloads"].get(name) if seed == PINS["seed"] else None
    cpu_over_wall = sum(lap.cpu_s for lap in laps) / sum(lap.wall_s for lap in laps)
    load_after = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "time_base": time_base,
        "laps": len(laps),
        "latency_samples": sum(
            len(slice_) for lap in laps for slice_ in measure.latency_slices(lap)
        ),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "deterministic": deterministic,
        "behaviour": laps[0].behaviour,
        "behaviour_changed": bool(pinned) and pinned != laps[0].behaviour,
        "applicable": applicable,
        "cpu_over_wall": cpu_over_wall,
        # closed loop: mean latency x completion rate = callers in flight
        "in_flight": sum(sum(step) for lap in laps for step in lap.latencies or [])
        / sum(sum(lap.steps) for lap in laps),
        "loadavg_1m": [load_before, load_after],
        "noisy": (time_base == "cpu" and cpu_over_wall < 0.9)
        or max(load_before, load_after) > nproc,
    }
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def print_run(result: dict, detail: dict) -> None:
    print(
        f"{detail['workload']}  seed={detail['seed']}  laps={detail['laps']}  "
        f"time base={detail['time_base']}  failed_share={detail['failed_share']:.6f} "
        f"({detail['failed']}/{detail['attempted']})"
        + ("  NOISY" if detail["noisy"] else "")
        + ("  behaviour_changed" if detail["behaviour_changed"] else "")
        + ("" if detail["deterministic"] else "  LAPS DISAGREE")
    )
    for metric in detail["applicable"]:
        entry = result["metrics"][metric]
        print(f"  {metric:<52} {entry['value']:>16.6g} {entry['unit']}")
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


# ---------------------------------------------------------------- the suite


def _child(name: str, seed: int, seconds: float, trace: int) -> tuple:
    """One run in a fresh interpreter, so RSS and allocator state are its own."""
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace={trace}) failed:\n{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = next(
        json.loads(line[len(DETAIL_PREFIX):])
        for line in reversed(lines)
        if line.startswith(DETAIL_PREFIX)
    )
    return json.loads(lines[-1]), detail


def _summary(values: List[float]) -> Dict[str, Any]:
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def run_suite(seed: int, quick: bool, out: Path) -> int:
    names = list(catalog.WORKLOADS)
    reps = 3 if quick else 5
    seconds = 2 if quick else catalog.RUN_SECONDS
    load_before = os.getloadavg()[0]
    runs: Dict[str, List[tuple]] = {name: [] for name in names}
    for rep in range(reps):  # interleaved: rep 1 of every workload, then rep 2, ...
        for name in names:
            runs[name].append(_child(name, seed, seconds, 0))
            print(f"rep {rep + 1}/{reps}  {name}: done", file=sys.stderr)
    traced_runs = {name: _child(name, seed, seconds, 1) for name in names}

    import numpy

    import workloads

    report: Dict[str, Any] = {
        "schema": 1,
        "quick": quick,
        "seed": seed,
        "repetitions": reps,
        "run_seconds": seconds,
        "sizes": workloads.SIZES,
        "noise": {
            "nproc": os.cpu_count(),
            "loadavg_1m_before": load_before,
            "loadavg_1m_after": os.getloadavg()[0],
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": {},
    }
    checks: List[tuple] = []
    for name in names:
        results = [result for result, _detail in runs[name]]
        details = [detail for _result, detail in runs[name]]
        layer_result, layer_detail = traced_runs[name]
        first = details[0]
        e2e = {
            metric: dict(
                _summary([r["metrics"][metric]["value"] for r in results]),
                unit=catalog.END_TO_END[metric][0],
                native=metric in first["applicable"],
            )
            for metric in catalog.END_TO_END
        }
        attempted = sum(d["attempted"] for d in details)
        failed = sum(d["failed"] for d in details)
        report["workloads"][name] = {
            "time_base": first["time_base"],
            "end_to_end": e2e,
            "failed_share": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "behaviour": first["behaviour"],
            "behaviour_changed": any(d["behaviour_changed"] for d in details),
            "runs": details,
            "per_layer": {
                metric: dict(layer_result["metrics"][metric])
                for metric in layer_detail["applicable"]
            },
            "traced_run": layer_detail,
            "trace_file": f"bench/out/trace-{name}.json",
        }
        checks.append((f"{name}: every run correct", all(r["correct"] for r in results)
                       and layer_result["correct"]))
        checks.append((f"{name}: failed_share == 0", failed == 0))
        if first["behaviour"]:
            exact = ("server_error_mean_s", "client_error_median_s")
            agree = all(d["behaviour"] == first["behaviour"] for d in details) and all(
                len(set(e2e[metric]["values"])) == 1 for metric in exact
            )
            checks.append((f"{name}: repetitions agree exactly", agree))
    work = report["workloads"]
    checks.append((
        "sync_mesh_plain and sync_mesh_auth fire the same event count",
        work["sync_mesh_plain"]["behaviour"]["events"]
        == work["sync_mesh_auth"]["behaviour"]["events"],
    ))
    checks.append((
        "kernel_bulk_2proc.state_digest == kernel_bulk_inproc.state_digest",
        work["kernel_bulk_2proc"]["behaviour"] == work["kernel_bulk_inproc"]["behaviour"],
    ))
    for name in ("sync_mesh_plain", "service_clients_im"):
        layer = work[name]["per_layer"]
        checks.append((
            f"{name}: security.auth is never called",
            layer["security.auth.sign_calls"]["value"] == 0
            and layer["security.auth.verify_calls"]["value"] == 0,
        ))
    live = work["live_loopback_closed"]
    in_flight = statistics.median(run["in_flight"] for run in live["runs"])
    product = (
        live["end_to_end"]["latency_p50_us"]["median"]
        * live["end_to_end"]["queries_per_s"]["median"]
    )
    checks.append((
        f"live_loopback_closed: mean latency x query rate = {in_flight:.3f} callers in "
        f"flight, within 5% of 2 (Little's law; latency_p50_us x queries_per_s = "
        f"{product:.3g}, the median sitting below the mean)",
        abs(in_flight / 2.0 - 1.0) <= 0.05,
    ))
    report["checks"] = [{"name": text, "ok": bool(ok)} for text, ok in checks]

    print_suite(report)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    return 0 if all(ok for _text, ok in checks) else 1


def print_suite(report: dict) -> None:
    tag = "  [QUICK: not comparable with a full run]" if report["quick"] else ""
    print(f"\nseed {report['seed']}, {report['repetitions']} repetitions of "
          f"{report['run_seconds']} s per workload{tag}")
    print("end-to-end: median [q1 .. q3] over repetitions; * = the metric's own workloads")
    for name, entry in report["workloads"].items():
        noisy = sum(run["noisy"] for run in entry["runs"])
        print(
            f"\n{name}  (time base: {entry['time_base']})  "
            f"failed_share = {entry['failed_share']:.6f} ratio "
            f"({entry['failed']}/{entry['attempted']})"
            + (f"  noisy runs: {noisy}" if noisy else "")
            + ("  behaviour_changed" if entry["behaviour_changed"] else "")
        )
        for metric, row in entry["end_to_end"].items():
            star = "*" if row["native"] else " "
            print(
                f" {star}{metric:<24} {row['median']:>14.6g} {row['unit']:<4} "
                f"[{row['q1']:.6g} .. {row['q3']:.6g}]  n={row['n']}"
            )
        if entry["behaviour"]:
            print("  behaviour pin: " + "  ".join(
                f"{key}={value}" for key, value in sorted(entry["behaviour"].items())
            ))
        print("  per layer (traced run):")
        for metric, row in entry["per_layer"].items():
            print(f"    {metric:<52} {row['value']:>14.6g} {row['unit']}")
    print("\nchecks:")
    for check in report["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}")


# --------------------------------------------------------------------- main


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=PINS["seed"])
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="suite smoke run: 3 repetitions of 2 s")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args.seed, args.quick, args.out)
    result, detail = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(result, detail)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
