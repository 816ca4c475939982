"""Bulk mode: vectorized per-cycle shards with conservative-lookahead sync.

This is the kernel's one engine.  The topology's servers (sorted by
name) are split into contiguous shards; each shard advances one full poll
cycle at a time as numpy array phases over all of its servers, and shards
share one thing: a double-buffered table of every server's cycle-start
state, indexed by global plan rank.

**Round semantics (Jacobi).**  Within a cycle, every answer a server gives
is computed from the answering server's *cycle-start* committed state.  The
heap engine interleaves rounds (an answerer that reset milliseconds ago
answers with its new state); bulk mode freezes the answer basis at the
cycle barrier so all ``n`` rounds of a cycle are data-parallel.  The
polling server's own round is still processed faithfully: MM replies apply
in arrival order with each accepted reset visible to later replies of the
same round, IM rounds age and intersect exactly as rule IM-2 prescribes
(via :func:`repro.kernel.batch.im2_round`).  Answers lag by at most one
round — bounded by the same ``(1 + δ)·ξ`` slack rule MM-2 already charges —
so correctness properties are preserved; the event ledger matches the heap
engine's and the error cost stays within a few per cent (see
``docs/kernel.md``).

**Lookahead safety.**  A cycle-``c`` round polls at ``phase + c·τ`` and
closes by ``phase + c·τ + 2·bound``.  A shard may therefore advance its
cycle ``c`` independently once neighbours' cycle-start state is published:
no message generated in cycle ``c`` can influence another cycle-``c`` answer
basis.  A rule MM-2/IM-2 round reads nothing of a neighbour but its
``<C_j, E_j>``, so that is all shards share: in cycle ``c`` everyone reads
``table[c % 2]`` and writes only its own columns of ``table[(c + 1) % 2]``,
and the per-cycle barrier orders those writes before the next cycle's reads.
This is the classic conservative-lookahead argument with the minimum link
delay ξ as the safe horizon, specialised to the round structure: the
lookahead window is a whole cycle, not just ``ξ``.

**Determinism across shard counts.**  Each server draws its cycle delays
from its own ``kernel/{name}`` stream (2·deg uniforms per cycle: request
legs to sorted neighbours, then reply legs), so the draw sequence is a
function of (seed, name, degree) only — never of the partition.  Combined
with the Jacobi answer basis and blockwise trace merging
(:func:`repro.kernel.sync.merge_rows`), a 1-shard and an N-shard run of the
same seed produce identical traces and state digests; the regression suite
asserts it.
"""

from __future__ import annotations

import mmap
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..service.builder import ServiceSnapshot
from ..service.server import ServerStats
from ..simulation.rng import RngRegistry
from ..simulation.trace import TraceRecord
from .batch import SELF_SLOT, im2_round
from .engine import KernelConfig, KernelPlan, plan_kernel
from .sync import TaggedRow, merge_rows, state_digest

__all__ = [
    "partition_names",
    "ShardedKernelService",
]

_STAT_FIELDS = (
    "rounds",
    "replies_handled",
    "resets",
    "rejects",
    "inconsistencies",
    "requests_answered",
)


def partition_names(
    names: Sequence[str], shards: int, weights: Optional[Sequence[float]] = None
) -> List[List[str]]:
    """Split sorted server names into ``shards`` contiguous, non-empty blocks
    of near-equal total weight (equal counts when ``weights`` is omitted).

    Block ``s`` ends with the last name whose cumulative weight is within
    ``s + 1`` shares of the total, so no block outweighs one share plus the
    heaviest name.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    n = len(names)
    shards = min(shards, n)
    cum = np.arange(1, n + 1) if weights is None else np.cumsum(weights)
    if len(cum) != n or (np.diff(cum, prepend=0) <= 0).any():
        raise ValueError("weights must be one positive number per name")
    shares = np.linspace(0, cum[-1] if n else 0, shards + 1)
    bounds = np.searchsorted(cum, shares, side="right")
    # A name heavier than a share leaves the cuts after it bunched up:
    # spread them so that every block keeps at least one name.
    k = np.arange(shards + 1)
    bounds = np.minimum(np.maximum.accumulate(bounds - k) + k, n - shards + k)
    return [list(names[bounds[s] : bounds[s + 1]]) for s in range(shards)]


@dataclass(frozen=True)
class _Bucket:
    """The local servers of one degree ``d``: a dense, mask-free sub-shard.

    ``rows`` is the bucket's slice of the shard's bucket-major state arrays;
    the ``(m_d, d)`` arrays hold, per server and sorted-neighbour slot, the
    neighbour's global plan rank — its column of the cycle-start table —
    and static rates.
    """

    degree: int
    rows: slice
    nbr_idx: np.ndarray
    nbr_one_skew: np.ndarray
    nbr_delta: np.ndarray
    draws: np.ndarray  # (prefetch_cycles, m_d, 2d): request legs, then reply legs


class _BulkShard:
    """One shard's state and per-cycle vectorized round processing.

    Local servers are held *bucket-major* — ordered by degree, then name —
    so each degree's servers are one contiguous slice of every state array
    and a cycle is a short loop over the distinct degrees, each step dense
    ``(m_d, d)`` array arithmetic.  The order is private: results leave the
    shard keyed by global rank (published table columns, trace tags,
    ``ranks`` beside ``stats``).
    """

    def __init__(self, plan: KernelPlan, block: List[str]) -> None:
        self.plan = plan
        m = len(block)
        first = plan.index[block[0]]  # a block is a contiguous run of plan.names
        nbr_names = plan.neighbours[first : first + m]
        deg = np.array([len(nbrs) for nbrs in nbr_names], dtype=np.int64)
        order = np.argsort(deg, kind="stable")
        self.deg = deg[order]
        self.ranks = first + order
        # Publishing is a gather into the block's own columns of the table:
        # local position of each rank, in rank order.
        self._columns = slice(first, first + m)
        self._by_rank = np.argsort(order)
        self.local_names = [block[i] for i in order]
        self._nbr_names = [nbr_names[i] for i in order]
        # Static per-server rates, by global rank and for the local servers.
        plan_one_skew = 1.0 + np.asarray(plan.skews)
        plan_delta = np.asarray(plan.deltas)
        self._one_skew = plan_one_skew[self.ranks]
        self.delta = plan_delta[self.ranks]
        self._one_delta = 1.0 + self.delta
        # Mutable clock/error state, rows seg_start, seg_value (DriftingClock
        # segment), eps, r (MM-1 terms): the live copy rounds reset in place,
        # published to the cycle-start table when the cycle's rounds are done.
        self.state = np.zeros((4, m))
        self.state[2] = np.asarray(plan.initial_errors)[self.ranks]
        self.poll_t = np.asarray(plan.phases)[self.ranks]
        self.stats = np.zeros((len(_STAT_FIELDS), m), dtype=np.int64)
        self.cycle = 0
        self._events_per_cycle = int(m + 2 * self.deg.sum())
        # Per-server delay streams — shard-count-invariant by construction —
        # prefetched into one block per bucket: server i fills column i with
        # prefetch_cycles × 2d consecutive draws, so row c of the block is
        # every server's cycle-c draws, each in its own stream order.
        registry = RngRegistry(seed=plan.seed)
        self._gens = [registry.stream(f"kernel/{name}") for name in self.local_names]
        flat_idx = np.array(
            [plan.index[nbr] for nbrs in self._nbr_names for nbr in nbrs], dtype=np.int64
        )
        degrees, starts = np.unique(self.deg, return_index=True)
        bounds = np.append(starts, m).tolist()
        self._buckets: List[_Bucket] = []
        taken = 0
        for d, lo, hi in zip(degrees.tolist(), bounds, bounds[1:]):
            idx = flat_idx[taken : taken + (hi - lo) * d].reshape(hi - lo, d)
            taken += idx.size
            self._buckets.append(
                _Bucket(
                    degree=d,
                    rows=slice(lo, hi),
                    nbr_idx=idx,
                    nbr_one_skew=plan_one_skew[idx],
                    nbr_delta=plan_delta[idx],
                    draws=np.empty((plan.prefetch_cycles, hi - lo, 2 * d)),
                )
            )

    # ------------------------------------------------------------- round math

    def _refill(self) -> None:
        """Draw the next ``prefetch_cycles`` cycles of every local stream —
        the one O(m) Python loop left, because each server owns its stream."""
        lo, hi = self.plan.delay_min, self.plan.delay_bound
        for bucket in self._buckets:
            draws = bucket.draws
            size = (draws.shape[0], draws.shape[2])
            for i, gen in enumerate(self._gens[bucket.rows]):
                draws[:, i, :] = gen.uniform(lo, hi, size=size)

    def step_cycle(self, table: np.ndarray) -> Tuple[List[TaggedRow], int]:
        """Advance every local server one poll round.

        Args:
            table: the ``(2, 4, n)`` cycle-start table (seg_start, seg_value,
                eps, r rows by global rank).  Answers are read from
                ``table[cycle % 2]``, which nobody writes during this cycle;
                the post-cycle local state is published to the other buffer.

        Returns:
            ``(tagged_rows, events)``: the cycle's tagged trace rows and its
            event count — one poll plus two deliveries per reply, matching
            the heap engine's ledger.
        """
        plan = self.plan
        if self.cycle % plan.prefetch_cycles == 0:
            self._refill()
        snap = table[self.cycle % 2]
        seg_start, seg_value = self.state[:2]
        sent_local = seg_value + (self.poll_t - seg_start) * self._one_skew
        rows_out: List[TaggedRow] = []
        self.stats[0] += 1  # rounds
        self.stats[1] += self.deg  # replies_handled
        self.stats[5] += self.deg  # requests_answered (each neighbour polls once)
        step = self._step_mm if plan.flags.kind == "mm" else self._step_im
        for bucket in self._buckets:
            step(bucket, snap, sent_local, rows_out)
        # mode="clip" only skips take's bounds-check buffering: the indices
        # are a permutation.
        published = table[(self.cycle + 1) % 2][:, self._columns]
        np.take(self.state, self._by_rank, axis=1, out=published, mode="clip")
        self.poll_t = self.poll_t + plan.tau  # repeated addition, like PeriodicTask
        self.cycle += 1
        return rows_out, self._events_per_cycle

    def _replies(
        self, bucket: _Bucket, snap: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A bucket's round in arrival order.

        Returns ``(receipt, value, error, order)``, all ``(m_d, d)``:
        receipt instants, the neighbours' rule MM-1 answers ``<C_j, E_j>``
        from the cycle-start buffer, and the sorted-neighbour slot of each
        arrival (ties keep slot order).
        """
        d = bucket.degree
        draws = bucket.draws[self.cycle % self.plan.prefetch_cycles]
        answered = self.poll_t[bucket.rows, None] + draws[:, :d]
        receipt = answered + draws[:, d:]
        seg_start, seg_value, eps, r = snap[:, bucket.nbr_idx]
        value = seg_value + (answered - seg_start) * bucket.nbr_one_skew
        error = eps + np.maximum(0.0, value - r) * bucket.nbr_delta
        order = np.argsort(receipt, axis=1, kind="stable")
        return (
            np.take_along_axis(receipt, order, axis=1),
            np.take_along_axis(value, order, axis=1),
            np.take_along_axis(error, order, axis=1),
            order,
        )

    def _arrival_names(self, bucket: _Bucket, order: np.ndarray) -> List[List[str]]:
        """Neighbour names per local server, in arrival order (trace only)."""
        return [
            [nbrs[slot] for slot in slots]
            for nbrs, slots in zip(self._nbr_names[bucket.rows], order.tolist())
        ]

    def _step_mm(
        self,
        bucket: _Bucket,
        snap: np.ndarray,
        sent_local: np.ndarray,
        rows_out: List[TaggedRow],
    ) -> None:
        """Rule MM-2 in arrival order, one arrival rank per pass.

        Resets land in-place, so later arrivals of the same round see them —
        the only intra-round sequencing MM needs.  Everything that does not
        depend on mid-round resets (the answers, the arrival ordering) is
        computed for all slots up front; the per-slot pass touches whole
        ``(m_d,)`` columns with no fancy indexing, which is what keeps the
        per-cycle Python overhead flat in the server count.
        """
        d, rows = bucket.degree, bucket.rows
        if not d:
            return
        flags = self.plan.flags
        tb_o, vj_o, ej_o, order = self._replies(bucket, snap)
        # Snapshot-only quantities are slot-independent; hoist them.  The
        # transit leading edge stays ``(C_j + E_j) + (1+δ)·ξ`` left-assoc.
        vj_hi_o = vj_o + ej_o
        vj_lo_o = vj_o - ej_o
        seg_start, seg_value, eps, r = self.state[:, rows]
        one_skew = self._one_skew[rows]
        one_delta = self._one_delta[rows]
        delta = self.delta[rows]
        sent = sent_local[rows]
        # Per-slot outcomes: stats arithmetic runs once per cycle over
        # (d, m_d) instead of five int ops per slot.
        cons = np.empty((d, len(sent)), dtype=bool)
        acc = np.empty_like(cons)
        if self.plan.trace_enabled:
            names = self.local_names[rows]
            ranks = self.ranks[rows].tolist()
            names_o = self._arrival_names(bucket, order)
        for s in range(d):
            tb_s = tb_o[:, s]
            vj = vj_o[:, s]
            local_now = seg_value + (tb_s - seg_start) * one_skew
            rtt = np.maximum(0.0, local_now - sent)
            state_err = eps + np.maximum(0.0, local_now - r) * delta
            infl = one_delta * rtt
            transit_hi = vj_hi_o[:, s] + infl
            consistent = np.logical_and(
                (local_now - state_err) <= transit_hi,
                vj_lo_o[:, s] <= (local_now + state_err),
                out=cons[s],
            )
            candidate = ej_o[:, s] + (infl if flags.inflate_rtt else rtt)
            if flags.strict_improvement:
                improves = candidate < state_err
            else:
                improves = candidate <= state_err
            accepted = np.logical_and(consistent, improves, out=acc[s])
            np.copyto(seg_start, tb_s, where=accepted)
            np.copyto(seg_value, vj, where=accepted)
            np.copyto(r, vj, where=accepted)
            np.copyto(eps, candidate, where=accepted)
            if self.plan.trace_enabled:
                for i, name in enumerate(names):
                    dest = names_o[i][s]
                    t = float(tb_s[i])
                    if not consistent[i]:
                        record = TraceRecord(t, "inconsistent", name, {"conflicting": dest})
                    elif accepted[i]:
                        record = TraceRecord(
                            t,
                            "reset",
                            name,
                            {
                                "from_server": dest,
                                "new_value": float(vj[i]),
                                "new_error": float(candidate[i]),
                                "reset_kind": "sync",
                            },
                        )
                    else:
                        record = TraceRecord(t, "reject", name, {"server": dest})
                    rows_out.append((self.cycle, ranks[i], s, record))
        acc_sum = acc.sum(axis=0)
        cons_sum = cons.sum(axis=0)
        self.stats[2, rows] += acc_sum  # resets
        self.stats[3, rows] += cons_sum - acc_sum  # rejects (consistent, no gain)
        self.stats[4, rows] += d - cons_sum  # inconsistencies

    def _step_im(
        self,
        bucket: _Bucket,
        snap: np.ndarray,
        sent_local: np.ndarray,
        rows_out: List[TaggedRow],
    ) -> None:
        """Rule IM-2: collect the round, age to its close, intersect.

        The ``d = 0`` bucket is the same code on ``(m_0, 0)`` arrays: the
        round closes at the poll instant and the self interval is the whole
        intersection.
        """
        flags = self.plan.flags
        d, rows = bucket.degree, bucket.rows
        if not d and not flags.include_self:
            return  # scalar: empty round, no self -> consistent no-op
        tb_o, value_j, error_j, order = self._replies(bucket, snap)
        seg_start, seg_value, eps, r = self.state[:, rows]
        one_skew = self._one_skew[rows]
        delta = self.delta[rows]
        local_at = seg_value[:, None] + (tb_o - seg_start[:, None]) * one_skew[:, None]
        rtt = np.maximum(0.0, local_at - sent_local[rows, None])
        t_close = tb_o[:, -1] if d else self.poll_t[rows]
        local_close = seg_value + (t_close - seg_start) * one_skew
        elapsed = np.maximum(0.0, local_close[:, None] - local_at)
        aged_value = value_j + elapsed
        aged_error = error_j + delta[:, None] * elapsed
        state_err = eps + np.maximum(0.0, local_close - r) * delta
        outcome = im2_round(
            local_close,
            state_err,
            delta,
            aged_value,
            aged_error,
            rtt,
            include_self=flags.include_self,
            widen_both_edges=flags.widen_both_edges,
            reset_to=flags.reset_to,
            allow_point_intersection=flags.allow_point_intersection,
        )
        good = outcome.consistent
        np.copyto(seg_start, t_close, where=good)
        np.copyto(seg_value, outcome.new_value, where=good)
        np.copyto(r, outcome.new_value, where=good)
        np.copyto(eps, outcome.new_error, where=good)
        self.stats[2, rows] += good  # resets
        self.stats[4, rows] += ~good  # inconsistencies
        if self.plan.trace_enabled:
            names_o = self._arrival_names(bucket, order)
            for k, (name, rank, t, a_slot, b_slot) in enumerate(
                zip(
                    self.local_names[rows],
                    self.ranks[rows].tolist(),
                    t_close.tolist(),
                    outcome.a_slot.tolist(),
                    outcome.b_slot.tolist(),
                )
            ):
                a_name = "self" if a_slot == SELF_SLOT else names_o[k][a_slot]
                b_name = "self" if b_slot == SELF_SLOT else names_o[k][b_slot]
                source = a_name if a_name == b_name else f"{a_name}∩{b_name}"
                if good[k]:
                    record = TraceRecord(
                        t,
                        "reset",
                        name,
                        {
                            "from_server": source,
                            "new_value": float(outcome.new_value[k]),
                            "new_error": float(outcome.new_error[k]),
                            "reset_kind": "sync",
                        },
                    )
                else:
                    conflicting = ",".join(
                        n for n in source.split("∩") if n != "self"
                    )
                    record = TraceRecord(
                        t, "inconsistent", name, {"conflicting": conflicting}
                    )
                rows_out.append((self.cycle, rank, 0, record))


def _serve_run(run: List[_BulkShard], first: int, table: np.ndarray, command: str):
    """Serve one command on a contiguous run of shards, whoever owns it.

    ``"stats"`` returns each shard's ``(ranks, stats)``; ``"step"`` advances
    the shards one cycle, in order, and returns each one's ``(trace rows,
    events)`` — or, the caller being possibly a pipe away, the failure of
    shard number ``first + i`` as a message.
    """
    if command == "stats":
        return [(shard.ranks, shard.stats) for shard in run]
    results = []
    for number, shard in enumerate(run, first):
        try:
            results.append(shard.step_cycle(table))
        except Exception:
            return (
                f"kernel shard {number} failed in cycle {shard.cycle}:\n"
                f"{traceback.format_exc()}"
            )
    return results


def _shard_worker(
    conn, plan: KernelPlan, blocks: List[List[str]], first: int, table: np.ndarray
) -> None:
    """Child-process loop: build a run of shards, serve commands until close."""
    run = [_BulkShard(plan, block) for block in blocks]
    while True:
        command = conn.recv()
        if command == "close":
            conn.close()
            return
        conn.send(_serve_run(run, first, table, command))


class ShardedKernelService:
    """The bulk-mode service: N shards, cycle barriers, merged reporting.

    With ``processes == 0`` the parent owns every shard and steps them in
    order; with ``processes > 0`` up to that many forked workers each own a
    contiguous run of shards and step it against the same cycle-start table,
    mapped shared before the fork.  The per-cycle ``step`` round-trip on the
    ``Pipe``s is the barrier and carries only trace rows and event counts.
    Either way the results are identical — the table protocol and RNG
    streams do not depend on the execution vehicle.
    """

    def __init__(self, config: KernelConfig, *, shards: int = 1, processes: int = 0) -> None:
        self.plan = plan_kernel(config)
        n = len(self.plan.names)
        # Cut by ledger events per cycle (a poll and two deliveries per
        # neighbour), which is what a shard's cycle time follows.
        blocks = partition_names(
            self.plan.names, shards, [1 + 2 * len(nbrs) for nbrs in self.plan.neighbours]
        )
        workers = min(processes, len(blocks))
        # Anonymous and shared when forked workers publish to it, private
        # otherwise; both start zeroed.
        buffer = mmap.mmap(-1, 2 * 4 * 8 * n) if workers else bytearray(2 * 4 * 8 * n)
        self._table = np.frombuffer(buffer, dtype=np.float64).reshape(2, 4, n)
        self._table[0, 2] = self.plan.initial_errors
        self._phase_max = max(self.plan.phases) if self.plan.phases else 0.0
        self._now = 0.0
        self._cycles_done = 0
        self._events = 0
        self._rows: List[TaggedRow] = []
        self._trace_cache: Optional[List[TraceRecord]] = None
        self._stats_cache: Optional[np.ndarray] = None
        self._closed = False
        self._procs: List = []
        self._conns: List = []
        self._local: List[_BulkShard] = []
        if workers:
            ctx = multiprocessing.get_context("fork")
            first = 0
            for run in partition_names(blocks, workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, self.plan, run, first, self._table),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
                first += len(run)
        else:
            self._local = [_BulkShard(self.plan, block) for block in blocks]

    # ---------------------------------------------------------------- control

    def _cycle_close_bound(self, cycle: int) -> float:
        """Latest possible close of any cycle-``cycle`` round."""
        return (
            self._phase_max + cycle * self.plan.tau + 2.0 * self.plan.delay_bound
        )

    def _ask(self, command: str) -> list:
        """One reply per run of shards: the parent's own, or each worker's."""
        if not self._conns:
            return [_serve_run(self._local, 0, self._table, command)]
        try:
            for conn in self._conns:
                conn.send(command)
            return [conn.recv() for conn in self._conns]
        except (EOFError, OSError):
            self.close()
            raise RuntimeError("a kernel worker exited without replying") from None

    def _step_cycle(self) -> None:
        for reply in self._ask("step"):
            if isinstance(reply, str):
                self.close()
                raise RuntimeError(reply)
            for rows, events in reply:
                self._rows.extend(rows)
                self._events += events
        self._cycles_done += 1
        self._trace_cache = None
        self._stats_cache = None

    def run_until(self, time: float) -> None:
        """Advance to real time ``time``, whole cycles at a time.

        A cycle is processed once every round in it is guaranteed closed
        (``phase_max + c·τ + 2·bound <= time``) — an analytic, draw- and
        shard-independent criterion, so every execution shape processes the
        same cycle set for a given ``time``.
        """
        self._check_open()
        if time < self._now:
            raise ValueError(f"cannot run backwards to {time} from {self._now}")
        while self._cycle_close_bound(self._cycles_done) <= time:
            self._step_cycle()
        self._now = time

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("kernel service is closed")

    def close(self) -> None:
        """Shut down worker processes; the service cannot run or report after."""
        self._closed = True
        for conn in self._conns:
            try:
                conn.send("close")
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover
                proc.terminate()
        self._conns = []
        self._procs = []

    def __enter__(self) -> "ShardedKernelService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- reporting

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events

    @property
    def cycles_done(self) -> int:
        return self._cycles_done

    def _state(self) -> np.ndarray:
        """The ``(4, n)`` state every server holds now: the buffer the last
        cycle published and the next one will read."""
        self._check_open()
        return self._table[self._cycles_done % 2]

    @property
    def trace(self) -> List[TraceRecord]:
        """The deterministically merged cross-shard trace."""
        if self._trace_cache is None:
            self._trace_cache = merge_rows([self._rows])
        return self._trace_cache

    @property
    def stats(self) -> Dict[str, ServerStats]:
        self._check_open()
        if self._stats_cache is None:
            merged = np.zeros((len(_STAT_FIELDS), len(self.plan.names)), dtype=np.int64)
            for reply in self._ask("stats"):
                for ranks, stats in reply:
                    merged[:, ranks] = stats
            self._stats_cache = merged
        return {
            name: ServerStats(**dict(zip(_STAT_FIELDS, column)))
            for name, column in zip(self.plan.names, self._stats_cache.T.tolist())
        }

    def state_digest(self) -> int:
        """CRC32 over the merged post-run state arrays (shard-invariant)."""
        return state_digest(self.plan.names, *self._state())

    def snapshot(self) -> ServiceSnapshot:
        seg_start, seg_value, eps, r = self._state()
        t = self._now
        value = seg_value + (t - seg_start) * (1.0 + np.array(self.plan.skews))
        error = eps + np.maximum(0.0, value - r) * np.array(self.plan.deltas)
        correct = ((value - error) <= t) & (t <= (value + error))

        def by_name(array: np.ndarray) -> dict:
            return dict(zip(self.plan.names, array.tolist()))

        return ServiceSnapshot(
            time=t,
            values=by_name(value),
            errors=by_name(error),
            offsets=by_name(value - t),
            correct=by_name(correct),
        )

    def sample(self, times: Sequence[float]) -> List[ServiceSnapshot]:
        snapshots = []
        for t in times:
            self.run_until(t)
            snapshots.append(self.snapshot())
        return snapshots
