"""Shard synchronization helpers: digests and deterministic trace merging.

The shard driver's correctness story rests on two reproducibility
primitives:

* :func:`trace_digest` — a CRC32 over a canonical rendering of trace rows:
  the heap simulator's own :func:`repro.simulation.trace.trace_digest`,
  re-exported here.  Equal digests mean equal traces, row for row and
  field for field.
* :func:`state_digest` — a CRC32 over the raw float64 state arrays plus the
  server-name ordering, for cheap "did two runs end in the same state"
  checks when traces are disabled.

Trace ordering across shards: each shard emits rows tagged with the cycle
index and the emitting server's global phase rank, and :func:`merge_rows`
sorts on that pair.  Within one server's round the shard already emits rows
in processing order, so the merged trace is a deterministic function of
(seed, topology, policy) — *independent of the shard count* — which is what
the 1-shard-vs-N-shard regression asserts.  Note this is per-round order,
not global timestamp order: two rounds of the same cycle interleave in time
but are merged blockwise (see ``docs/kernel.md``, "Known divergences").
"""

from __future__ import annotations

import zlib
from typing import List, Sequence, Tuple

import numpy as np

from ..simulation.trace import TraceRecord, trace_digest

__all__ = [
    "trace_digest",
    "state_digest",
    "TaggedRow",
    "merge_rows",
]

#: A trace row tagged for deterministic cross-shard merging:
#: ``(cycle, phase_rank, seq, record)`` where ``seq`` is the row's index
#: within its server's round.
TaggedRow = Tuple[int, int, int, TraceRecord]


def state_digest(names: Sequence[str], *arrays: np.ndarray) -> int:
    """CRC32 over the name ordering and raw float64 state arrays."""
    crc = zlib.crc32("|".join(names).encode("utf-8"), 0)
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array, dtype=np.float64).tobytes(), crc)
    return crc


def merge_rows(shard_rows: Sequence[List[TaggedRow]]) -> List[TraceRecord]:
    """Merge per-shard tagged rows into one deterministic trace.

    Sort key ``(cycle, phase_rank, seq)`` is a total order — each (cycle,
    server) round belongs to exactly one shard — so the result does not
    depend on how the topology was partitioned.
    """
    merged: List[TaggedRow] = []
    for rows in shard_rows:
        merged.extend(rows)
    merged.sort(key=lambda tagged: (tagged[0], tagged[1], tagged[2]))
    return [record for _, _, _, record in merged]
