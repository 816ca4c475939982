"""Trace recording for simulations.

Experiments need time series of per-server state (clock value, error bound,
resets, inconsistencies) sampled both at events and on fixed grids.  A
:class:`TraceRecorder` collects typed :class:`TraceRecord` rows cheaply and
offers filtered views and numpy export for analysis.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np


@dataclass(frozen=True)
class TraceRecord:
    """One trace row.

    Attributes:
        time: Real time of the observation.
        kind: Record category, e.g. ``"reset"``, ``"sample"``, ``"reject"``,
            ``"inconsistent"``, ``"send"``, ``"recv"``.
        source: Name of the process the record concerns.
        data: Free-form payload (small dict of floats/strings).
    """

    time: float
    kind: str
    source: str
    data: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only store of :class:`TraceRecord` rows with filtered views.

    Example:
        >>> trace = TraceRecorder()
        >>> trace.record(1.0, "reset", "S1", new_error=0.5)
        >>> [r.data["new_error"] for r in trace.filter(kind="reset")]
        [0.5]
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []
        self._counts: Dict[str, int] = {}

    def record(self, time: float, kind: str, source: str, **data: Any) -> None:
        """Append one row (no-op when the recorder is disabled)."""
        if not self.enabled:
            return
        self._records.append(TraceRecord(time, kind, source, data))
        self._counts[kind] = self._counts.get(kind, 0) + 1

    # ----------------------------------------------------------------- views

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def count(self, kind: str) -> int:
        """Number of rows of the given kind."""
        return self._counts.get(kind, 0)

    @property
    def kinds(self) -> List[str]:
        """Sorted list of distinct record kinds present."""
        return sorted(self._counts)

    def filter(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Rows matching all the given criteria, in time order."""
        result = []
        for row in self._records:
            if kind is not None and row.kind != kind:
                continue
            if source is not None and row.source != source:
                continue
            if predicate is not None and not predicate(row):
                continue
            result.append(row)
        return result

    def series(
        self, field_name: str, kind: Optional[str] = None, source: Optional[str] = None
    ) -> np.ndarray:
        """Return a ``(n, 2)`` array of ``(time, value)`` for a data field.

        Rows lacking the field are skipped.
        """
        pairs = [
            (row.time, float(row.data[field_name]))
            for row in self.filter(kind=kind, source=source)
            if field_name in row.data
        ]
        if not pairs:
            return np.empty((0, 2))
        return np.asarray(pairs, dtype=float)

    def clear(self) -> None:
        """Drop all rows."""
        self._records.clear()
        self._counts.clear()


def trace_digest(trace: Iterable[TraceRecord]) -> int:
    """A stable fingerprint of an entire run's trace.

    Two runs with the same seed must produce byte-identical traces; the
    digest is a CRC32 over a canonical rendering of every row, so equal
    digests mean equal traces, row for row and field for field.  The heap
    simulator's gauntlets and the kernel's shard-invariance checks share
    this one function, which is what makes their digests comparable.
    """
    crc = 0
    for row in trace:
        text = "%r|%s|%s|%s" % (
            row.time,
            row.kind,
            row.source,
            ",".join(f"{k}={row.data[k]!r}" for k in sorted(row.data)),
        )
        crc = zlib.crc32(text.encode("utf-8"), crc)
    return crc
