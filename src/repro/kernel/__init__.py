"""Vectorized + sharded simulation kernel for 10k–100k-server experiments.

Three layers (see ``docs/kernel.md`` for the design):

* :mod:`repro.kernel.batch` / :mod:`repro.kernel.marzullo_vec` — numpy
  round kernels: interval construction, the Marzullo sweep, and the
  MM-2/IM-2 predicates over stacked per-neighbour reply arrays, with the
  scalar :mod:`repro.core` functions as the differential-test oracle.
* :mod:`repro.kernel.engine` — plan/config validation (the heap engine's
  poll stagger, the features the kernel refuses) and
  :func:`build_kernel_service`.
* :mod:`repro.kernel.shard` / :mod:`repro.kernel.sync` — the bulk engine:
  per-cycle vectorized shards, conservative-lookahead cycle barriers,
  deterministic cross-shard trace merging and digests.
"""

from .batch import (
    IMRound,
    MM2Verdicts,
    SELF_SLOT,
    im2_round,
    interval_edges,
    mm2_adoption_error,
    mm2_eval,
    transit_edges,
)
from .engine import (
    KernelConfig,
    KernelPlan,
    PolicyFlags,
    build_kernel_service,
    plan_kernel,
)
from .marzullo_vec import (
    MarzulloBatch,
    intersect_tolerating_vec,
    marzullo_vec,
    stack_intervals,
)
from .shard import ShardedKernelService, partition_names
from .sync import merge_rows, state_digest, trace_digest

__all__ = [
    "IMRound",
    "MM2Verdicts",
    "SELF_SLOT",
    "im2_round",
    "interval_edges",
    "mm2_adoption_error",
    "mm2_eval",
    "transit_edges",
    "KernelConfig",
    "KernelPlan",
    "PolicyFlags",
    "build_kernel_service",
    "plan_kernel",
    "MarzulloBatch",
    "intersect_tolerating_vec",
    "marzullo_vec",
    "stack_intervals",
    "ShardedKernelService",
    "partition_names",
    "merge_rows",
    "state_digest",
    "trace_digest",
]
