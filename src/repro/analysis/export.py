"""Exporting traces and snapshot series to CSV/JSON.

Experiments produce :class:`~repro.simulation.trace.TraceRecorder` rows and
:class:`~repro.service.builder.ServiceSnapshot` series; downstream analysis
(pandas, gnuplot, spreadsheets) wants flat files.  Everything here writes
plain stdlib CSV/JSON — no optional dependencies.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence, Union

from ..service.builder import ServiceSnapshot
from ..simulation.trace import TraceRecord

PathLike = Union[str, Path]


def trace_to_csv(trace: Iterable[TraceRecord], path: PathLike) -> int:
    """Write trace rows to CSV.

    Columns: ``time, kind, source`` plus the union of all data keys (rows
    missing a key leave the cell empty).

    Returns:
        Number of rows written.
    """
    rows = list(trace)
    data_keys: list[str] = []
    seen = set()
    for row in rows:
        for key in row.data:
            if key not in seen:
                seen.add(key)
                data_keys.append(key)
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "kind", "source", *data_keys])
        for row in rows:
            writer.writerow(
                [row.time, row.kind, row.source]
                + [row.data.get(key, "") for key in data_keys]
            )
    return len(rows)


def trace_to_json(trace: Iterable[TraceRecord], path: PathLike) -> int:
    """Write trace rows to a JSON array of objects.

    Returns:
        Number of rows written.
    """
    rows = list(trace)
    payload = [
        {"time": row.time, "kind": row.kind, "source": row.source, **row.data}
        for row in rows
    ]
    Path(path).write_text(json.dumps(payload, indent=2))
    return len(rows)


def snapshots_to_csv(
    snapshots: Sequence[ServiceSnapshot], path: PathLike
) -> int:
    """Write a snapshot series to long-form CSV.

    One row per (snapshot, server): ``time, server, clock_value, error,
    offset, correct`` — the layout plotting tools want.

    Returns:
        Number of rows written.
    """
    path = Path(path)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["time", "server", "clock_value", "error", "offset", "correct"]
        )
        for snap in snapshots:
            for name in sorted(snap.values):
                writer.writerow(
                    [
                        snap.time,
                        name,
                        snap.values[name],
                        snap.errors[name],
                        snap.offsets[name],
                        int(snap.correct[name]),
                    ]
                )
                count += 1
    return count


def snapshots_to_json(
    snapshots: Sequence[ServiceSnapshot], path: PathLike
) -> int:
    """Write a snapshot series to JSON (one object per snapshot).

    Returns:
        Number of snapshots written.
    """
    payload = [
        {
            "time": snap.time,
            "values": snap.values,
            "errors": snap.errors,
            "offsets": snap.offsets,
            "correct": snap.correct,
        }
        for snap in snapshots
    ]
    Path(path).write_text(json.dumps(payload, indent=2))
    return len(snapshots)
