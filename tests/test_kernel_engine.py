"""Determinism regressions for the batched/sharded kernel engine.

Three guarantees are pinned here, each as a digest comparison so any drift
in arithmetic, ordering, or RNG consumption fails loudly:

* **exact mode vs the heap engine** — on a clean staggered mesh, the
  round-structured replay produces the *same trace, byte for byte*, the
  same event ledger, the same per-server stats and the same final snapshot
  as :func:`repro.service.builder.build_service`'s discrete-event run;
* **bulk mode is deterministic** — same seed → identical trace and state
  digests across runs; different seed → different state;
* **bulk mode is partition-invariant** — 1 shard, 4 shards, and 4 shards
  across worker processes all produce identical digests, because RNG
  streams are per-server and the trace merge is keyed on
  ``(cycle, phase rank, seq)``, neither of which depends on the partition;
* **bulk mode is layout-invariant** — on ragged graphs (every degree mix,
  isolated servers and hubs included) the degree-bucketed shard reproduces
  digests recorded from the padded layout it replaced, and a cycle's
  Python-level work does not grow with the server count;
* **the cycle-start table is the only thing shards share** — after every
  cycle, odd and even, the buffer the service reads is the one the shards
  just published, for any split of shards over worker processes; a failing
  shard closes the service with its traceback instead of a dead pipe.
"""

from __future__ import annotations

import multiprocessing
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.im import IMPolicy
from repro.core.mm import MMPolicy
from repro.experiments import scale_gauntlet
from repro.network import ConstantDelay, UniformDelay
from repro.network.topology import full_mesh, ring, stratum_hierarchy
from repro.service.builder import ServerSpec, build_service
from repro.kernel import (
    KernelConfig,
    build_kernel_service,
    plan_kernel,
    partition_names,
    state_digest,
    trace_digest,
)
from repro.kernel.shard import _BulkShard

pytestmark = pytest.mark.kernel

STAT_FIELDS = (
    "rounds", "replies_handled", "resets",
    "rejects", "inconsistencies", "requests_answered",
)
TAU = 10.0
DELAY = 0.01  # one-way bound; 2·bound = 0.02 < τ/(n+1) for n <= 499


def mesh_specs(n: int) -> list[ServerSpec]:
    return [
        ServerSpec(
            name=f"S{k + 1}",
            delta=1e-5,
            skew=((-1) ** k) * 1e-5 * 0.8 * (k + 1) / n,
            initial_error=0.002 + 0.001 * k,
        )
        for k in range(n)
    ]


def mixed_graph() -> nx.Graph:
    """16 servers, degrees {0, 1, 2, 3, 13}: a hub, a chain, leaves, isolates."""
    graph = nx.Graph()
    graph.add_nodes_from(f"S{k + 1}" for k in range(16))  # S15, S16: degree 0
    graph.add_edges_from(("S1", f"S{k}") for k in range(2, 15))  # hub: degree 13
    graph.add_edges_from((f"S{k}", f"S{k + 1}") for k in range(2, 9))  # degrees 2, 3
    return graph  # S10..S14: degree-1 leaves


def scalar_service(graph, specs, policy, seed):
    return build_service(
        graph,
        specs,
        policy=policy,
        tau=TAU,
        seed=seed,
        lan_delay=UniformDelay(DELAY),
    )


def kernel_service(graph, specs, policy, seed, **kwargs):
    kwargs.setdefault("lan_delay", UniformDelay(DELAY))
    return build_kernel_service(
        graph, specs, policy=policy, tau=TAU, seed=seed, **kwargs
    )


def bulk_digests(policy_name, *, graph=None, specs=None, seed=0,
                 horizon=200.0, shards=1, processes=0, **kwargs):
    graph = full_mesh(8) if graph is None else graph
    specs = mesh_specs(len(graph)) if specs is None else specs
    policy = MMPolicy() if policy_name == "mm" else IMPolicy()
    with kernel_service(
        graph, specs, policy, seed, mode="bulk",
        shards=shards, processes=processes, **kwargs,
    ) as svc:
        svc.run_until(horizon)
        return trace_digest(svc.trace), svc.state_digest(), svc.events_processed


def stats_totals(svc) -> dict[str, int]:
    per_server = svc.stats.values()
    return {
        field: sum(getattr(stats, field) for stats in per_server)
        for field in STAT_FIELDS
    }


# ------------------------------------------------------- exact vs heap engine


class TestExactVsScalar:
    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_trace_and_state_bit_identical(self, policy_name, seed):
        graph = full_mesh(8)
        specs = mesh_specs(8)
        policy = MMPolicy() if policy_name == "mm" else IMPolicy()
        horizon = 300.0

        scalar = scalar_service(graph, specs, policy, seed)
        scalar.run_until(horizon)
        exact = kernel_service(graph, specs, policy, seed, mode="exact")
        exact.run_until(horizon)

        assert trace_digest(exact.trace) == trace_digest(scalar.trace)
        assert len(list(exact.trace)) == len(list(scalar.trace))
        assert exact.events_processed == scalar.engine.events_processed

        scalar_snap = scalar.snapshot()
        exact_snap = exact.snapshot()
        assert exact_snap.time == scalar_snap.time
        for name in sorted(s.name for s in specs):
            assert exact_snap.values[name] == scalar_snap.values[name]
            assert exact_snap.errors[name] == scalar_snap.errors[name]

        for name, kstats in exact.stats.items():
            sstats = scalar.servers[name].stats
            for field in STAT_FIELDS:
                assert getattr(kstats, field) == getattr(sstats, field), (
                    f"{name}.{field}"
                )

    def test_exact_rounds_actually_reset(self):
        # Guard against vacuous digest equality: the run must do real work.
        exact = kernel_service(full_mesh(8), mesh_specs(8), MMPolicy(), 0,
                               mode="exact")
        exact.run_until(300.0)
        assert sum(s.resets for s in exact.stats.values()) > 0
        assert exact.events_processed > 0


# ------------------------------------------------------------ bulk determinism


class TestBulkDeterminism:
    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    def test_same_seed_repeats_exactly(self, policy_name):
        first = bulk_digests(policy_name, seed=3)
        second = bulk_digests(policy_name, seed=3)
        assert first == second
        assert first[2] > 0

    def test_different_seed_differs(self):
        assert bulk_digests("mm", seed=0)[1] != bulk_digests("mm", seed=7)[1]

    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    @pytest.mark.parametrize(
        "graph_factory", [lambda: full_mesh(8), lambda: ring(12)],
        ids=["mesh8", "ring12"],
    )
    def test_shard_count_invariance(self, policy_name, graph_factory):
        baseline = bulk_digests(policy_name, graph=graph_factory())
        sharded = bulk_digests(policy_name, graph=graph_factory(), shards=4)
        assert sharded == baseline

    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    def test_multiprocess_matches_in_process(self, policy_name):
        baseline = bulk_digests(policy_name)
        multi = bulk_digests(policy_name, shards=4, processes=2)
        assert multi == baseline

    @pytest.mark.parametrize("shards,processes", [(4, 2), (3, 2), (2, 5)])
    def test_processes_is_a_worker_count(self, shards, processes):
        baseline = bulk_digests("im", graph=mixed_graph())
        with kernel_service(
            mixed_graph(), mesh_specs(16), IMPolicy(), 0,
            mode="bulk", shards=shards, processes=processes,
        ) as svc:
            assert len(multiprocessing.active_children()) == min(shards, processes)
            svc.run_until(200.0)
            assert (
                trace_digest(svc.trace), svc.state_digest(), svc.events_processed
            ) == baseline
        assert multiprocessing.active_children() == []

    def test_trace_disabled_keeps_state_digest(self):
        graph = full_mesh(8)
        traced = bulk_digests("mm")
        with kernel_service(
            graph, mesh_specs(8), MMPolicy(), 0,
            mode="bulk", trace_enabled=False,
        ) as svc:
            svc.run_until(200.0)
            assert svc.trace == []
            assert svc.state_digest() == traced[1]
            assert svc.events_processed == traced[2]


# ------------------------------------------------------- the cycle-start table


class TestCycleStartTable:
    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    def test_every_cycle_reads_the_buffer_just_published(self, policy_name):
        # Odd cycle counts included: an off-by-one in the buffer parity
        # still agrees with itself after every even number of cycles.
        policy = MMPolicy() if policy_name == "mm" else IMPolicy()
        specs = mesh_specs(16)
        horizons = [c * TAU + 2 * DELAY for c in (1, 2, 3, 4)]

        def after_each_cycle(shards, processes):
            seen = []
            with kernel_service(
                mixed_graph(), specs, policy, 1, mode="bulk",
                shards=shards, processes=processes,
            ) as svc:
                for cycles, horizon in enumerate(horizons, 1):
                    svc.run_until(horizon)
                    assert svc.cycles_done == cycles
                    seen.append((svc.state_digest(), svc.snapshot(), list(svc.trace)))
            return seen

        baseline = after_each_cycle(1, 0)
        for shards in (1, 2, 3, 5):
            for processes in (0, 2, 3):
                assert after_each_cycle(shards, processes) == baseline, (shards, processes)
        # The trace never passes through the table, so it says which state a
        # read of the right buffer must show: each server's last reset.
        for _digest, snapshot, trace in baseline:
            last_reset = {
                record.source: record for record in trace if record.kind == "reset"
            }
            assert last_reset
            for spec in specs:
                start, value, eps = 0.0, 0.0, spec.initial_error
                if spec.name in last_reset:
                    reset = last_reset[spec.name]
                    start, value, eps = (
                        reset.time, reset.data["new_value"], reset.data["new_error"]
                    )
                now = value + (snapshot.time - start) * (1.0 + spec.skew)
                assert snapshot.values[spec.name] == now
                assert snapshot.errors[spec.name] == eps + max(0.0, now - value) * spec.delta

    @pytest.mark.parametrize("processes", [0, 2], ids=["in-process", "workers"])
    def test_failing_shard_closes_the_service_with_its_traceback(
        self, processes, monkeypatch
    ):
        step_cycle = _BulkShard.step_cycle

        def failing(shard, table):
            if shard.cycle == 2:
                raise ArithmeticError("injected")
            return step_cycle(shard, table)

        monkeypatch.setattr(_BulkShard, "step_cycle", failing)  # before the fork
        svc = kernel_service(
            full_mesh(4), mesh_specs(4), MMPolicy(), 0,
            mode="bulk", shards=2, processes=processes,
        )
        svc.run_until(2 * TAU + 2 * DELAY)
        assert svc.cycles_done == 2
        with pytest.raises(
            RuntimeError, match=r"(?s)kernel shard 0 failed in cycle 2:.*ArithmeticError: injected"
        ):
            svc.run_until(100.0)
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="kernel service is closed"):
            svc.run_until(100.0)

    def test_dead_worker_closes_the_service(self):
        svc = kernel_service(
            full_mesh(4), mesh_specs(4), MMPolicy(), 0,
            mode="bulk", shards=2, processes=2,
        )
        svc.run_until(50.0)
        victim = multiprocessing.active_children()[0]
        victim.kill()
        victim.join(timeout=5.0)
        with pytest.raises(RuntimeError, match="worker exited without replying"):
            svc.run_until(100.0)
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="kernel service is closed"):
            svc.state_digest()


# ---------------------------------------------------------------- validation


class TestPlanValidation:
    def test_partition_covers_names_in_order(self):
        names = [f"S{k}" for k in range(10)]
        blocks = partition_names(names, 4)
        assert [n for block in blocks for n in block] == names
        assert all(block for block in blocks)
        assert partition_names(names, 1) == [names]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 40), max_size=24),
        st.integers(1, 30),
    )
    @example([1, 1, 1, 1], 3)  # the all-isolated graph: one poll per server
    # mixed_graph's ledger weights in name order (S1 is the degree-13 hub):
    # the hub outweighs a share, so a bare searchsorted cut before it is empty.
    @example([27, 3, 3, 3, 3, 3, 1, 1, 5, 7, 7, 7, 7, 7, 7, 5], 5)
    @example([1, 1, 1, 100], 3)  # ... and after it, the cuts run out of names
    def test_weighted_partition_properties(self, weights, shards):
        names = [f"S{k:02d}" for k in range(len(weights))]
        blocks = partition_names(names, shards, weights)
        assert len(blocks) == min(shards, len(names))  # clamps
        assert [name for block in blocks for name in block] == names
        assert all(blocks)
        if names:
            weight_of = dict(zip(names, weights))
            heaviest = max(sum(weight_of[name] for name in block) for block in blocks)
            assert heaviest * len(blocks) <= sum(weights) + max(weights) * len(blocks)
        # Unit weights are the equal-count split bench/ gets from two arguments.
        bounds = np.linspace(0, len(names), len(blocks) + 1).astype(int)
        by_count = [names[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        assert partition_names(names, shards) == by_count
        assert partition_names(names, shards, [1] * len(names)) == by_count

    def test_partition_rejects_malformed_weights(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            partition_names(["a", "b"], 0)
        with pytest.raises(ValueError, match="one positive number per name"):
            partition_names(["a", "b", "c"], 2, [1, 0, 1])
        with pytest.raises(ValueError, match="one positive number per name"):
            partition_names(["a", "b", "c"], 2, [1, 1])

    def test_rejects_unsupported_specs(self):
        graph = full_mesh(3)
        specs = mesh_specs(3)
        reference = [
            ServerSpec("S1", reference=True, initial_error=0.01),
            *specs[1:],
        ]
        with pytest.raises(ValueError):
            plan_kernel(KernelConfig(graph, reference, MMPolicy(), TAU))
        with pytest.raises(ValueError, match="UniformDelay"):
            plan_kernel(
                KernelConfig(graph, specs, MMPolicy(), TAU,
                             delay=ConstantDelay(DELAY))
            )
        with pytest.raises(ValueError, match="duplicate"):
            plan_kernel(
                KernelConfig(graph, [specs[0], *specs[:2]], MMPolicy(), TAU)
            )
        with pytest.raises(ValueError, match="not in the topology"):
            plan_kernel(
                KernelConfig(
                    graph,
                    [*specs[:2], ServerSpec("S9", delta=1e-5)],
                    MMPolicy(),
                    TAU,
                )
            )

    def test_exact_mode_preconditions(self):
        graph = full_mesh(8)
        specs = mesh_specs(8)
        # Round span 2·bound must fit inside the stagger gap τ/(n+1)...
        with pytest.raises(ValueError, match="non-overlapping"):
            kernel_service(
                graph, specs, MMPolicy(), 0, mode="exact",
                lan_delay=UniformDelay(2.0 * TAU),
            )
        # ...and the round timer must never cut a round short.
        with pytest.raises(ValueError, match="round_timeout"):
            kernel_service(
                graph, specs, MMPolicy(), 0, mode="exact",
                round_timeout=DELAY / 2.0,
            )

    def test_exact_mode_is_single_shard(self):
        with pytest.raises(ValueError, match="single-shard"):
            kernel_service(
                full_mesh(4), mesh_specs(4), MMPolicy(), 0,
                mode="exact", shards=2,
            )
        with pytest.raises(ValueError, match="mode"):
            kernel_service(
                full_mesh(4), mesh_specs(4), MMPolicy(), 0, mode="turbo",
            )

    def test_run_backwards_raises(self):
        with kernel_service(
            full_mesh(4), mesh_specs(4), MMPolicy(), 0, mode="bulk"
        ) as svc:
            svc.run_until(50.0)
            with pytest.raises(ValueError, match="backwards"):
                svc.run_until(20.0)

    @pytest.mark.parametrize("processes", [0, 2], ids=["in-process", "workers"])
    def test_closed_service_refuses_to_run(self, processes):
        svc = kernel_service(
            full_mesh(4), mesh_specs(4), MMPolicy(), 0,
            mode="bulk", shards=2, processes=processes,
        )
        svc.run_until(50.0)
        cycles, events = svc.cycles_done, svc.events_processed
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(RuntimeError, match="kernel service is closed"):
            svc.run_until(100.0)
        with pytest.raises(RuntimeError, match="kernel service is closed"):
            svc.state_digest()
        assert (svc.cycles_done, svc.events_processed) == (cycles, events)


# -------------------------------------------------------------- ragged graphs

#: ``(graph, policy, trace_enabled) -> (trace digest, state digest, events,
#: stats totals)`` at seed 5 after 100 s, recorded from the padded ``(m, D)``
#: layout (commit 14293d5) that the degree buckets replaced.
RAGGED_PINS = {
    ("stratum300", "mm", True): (2291193453, 162903877, 25160, (3000, 11080, 40, 11040, 0, 11080)),
    ("stratum300", "mm", False): (0, 162903877, 25160, (3000, 11080, 40, 11040, 0, 11080)),
    ("stratum300", "im", True): (2736434063, 615510915, 25160, (3000, 11080, 3000, 0, 0, 11080)),
    ("stratum300", "im", False): (0, 615510915, 25160, (3000, 11080, 3000, 0, 0, 11080)),
    ("mixed", "mm", True): (1488357119, 392593157, 960, (160, 400, 20, 380, 0, 400)),
    ("mixed", "mm", False): (0, 392593157, 960, (160, 400, 20, 380, 0, 400)),
    ("mixed", "im", True): (3781780132, 1774635502, 960, (160, 400, 160, 0, 0, 400)),
    ("mixed", "im", False): (0, 1774635502, 960, (160, 400, 160, 0, 0, 400)),
}


def ragged_case(graph_name):
    if graph_name == "stratum300":
        graph = stratum_hierarchy(300)
        return graph, scale_gauntlet.build_specs(graph)
    return mixed_graph(), mesh_specs(16)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = nx.Graph()
    graph.add_nodes_from(f"S{k + 1}" for k in range(n))
    graph.add_edges_from(
        (f"S{i + 1}", f"S{j + 1}") for (i, j), kept in zip(pairs, keep) if kept
    )
    return graph


class TestRaggedGraphs:
    @pytest.mark.parametrize("shards,processes", [
        (1, 0), (2, 0), (3, 0), (1, 2), (2, 2), (3, 2),
    ])
    @pytest.mark.parametrize("case", RAGGED_PINS, ids=lambda c: f"{c[0]}-{c[1]}-trace{c[2]:d}")
    def test_reproduces_padded_layout_digests(self, case, shards, processes):
        graph_name, policy_name, trace_enabled = case
        graph, specs = ragged_case(graph_name)
        policy = MMPolicy() if policy_name == "mm" else IMPolicy()
        with kernel_service(
            graph, specs, policy, 5, mode="bulk", shards=shards,
            processes=processes, trace_enabled=trace_enabled,
        ) as svc:
            svc.run_until(100.0)
            assert (
                trace_digest(svc.trace),
                svc.state_digest(),
                svc.events_processed,
                tuple(stats_totals(svc).values()),
            ) == RAGGED_PINS[case]

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(), st.sampled_from(["mm", "im"]), st.integers(0, 3))
    @example(nx.empty_graph(["S1", "S2", "S3", "S4"]), "im", 0)  # all isolated
    @example(nx.empty_graph(["S1", "S2", "S3", "S4"]), "mm", 0)
    @example(ring(5), "im", 1)  # a single bucket
    def test_any_degree_mix_is_shard_invariant(self, graph, policy_name, seed):
        policy = MMPolicy() if policy_name == "mm" else IMPolicy()
        results = []
        for shards in (1, 2, len(graph)):
            with kernel_service(
                graph, mesh_specs(len(graph)), policy, seed,
                mode="bulk", shards=shards,
            ) as svc:
                svc.run_until(45.0)
                totals = stats_totals(svc)
                # The ledger: one poll per round, two deliveries per reply.
                assert svc.events_processed == (
                    totals["rounds"] + 2 * totals["replies_handled"]
                )
                assert totals["requests_answered"] == totals["replies_handled"]
                verdicts = totals["resets"] + totals["rejects"] + totals["inconsistencies"]
                assert verdicts == totals[
                    "replies_handled" if policy_name == "mm" else "rounds"
                ]
                results.append(
                    (trace_digest(svc.trace), svc.state_digest(), totals)
                )
        assert results[1] == results[0]
        assert results[2] == results[0]

    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    def test_prefetch_boundary_is_invisible(self, policy_name):
        # 8 cycles on blocks of 3: two refills land mid-run, one block is
        # left part-used; the draws must be the ones a single block gives.
        horizon = 8 * TAU + 2 * DELAY
        short = bulk_digests(policy_name, graph=mixed_graph(), horizon=horizon,
                             prefetch_cycles=3)
        long = bulk_digests(policy_name, graph=mixed_graph(), horizon=horizon,
                            prefetch_cycles=32)
        assert short == long
        assert short[2] == 8 * (16 + 2 * 40)  # 8 cycles: 16 polls, 40 replies


def python_work_of_one_cycle(policy, servers: int) -> tuple[int, int]:
    """``(calls, lines)`` executed by one non-refill bulk cycle.

    Calls are counted with ``sys.setprofile`` (Python and C functions),
    lines with ``sys.settrace`` — an inline ``for i in range(m)`` body makes
    no call ``setprofile`` can see, but every pass over it is a line event.
    """
    graph = stratum_hierarchy(servers)
    assert {d for _, d in graph.degree()} == {1, 2, 3, 4, 10, 11}
    counts = {"calls": 0, "lines": 0}

    def on_call(frame, event, arg):
        if event in ("call", "c_call"):
            counts["calls"] += 1

    def on_line(frame, event, arg):
        if event == "line":
            counts["lines"] += 1
        return on_line

    with kernel_service(
        graph, scale_gauntlet.build_specs(graph), policy, 0,
        mode="bulk", trace_enabled=False,
    ) as svc:
        svc.run_until(TAU + 2 * DELAY)  # cycle 0 refills the draw blocks
        assert svc.cycles_done == 1
        sys.setprofile(on_call)
        sys.settrace(on_line)
        try:
            svc.run_until(2 * TAU + 2 * DELAY)
        finally:
            sys.settrace(None)
            sys.setprofile(None)
        assert svc.cycles_done == 2
    return counts["calls"], counts["lines"]


class TestCycleIsVectorized:
    @pytest.mark.parametrize("policy", [MMPolicy(), IMPolicy()], ids=["mm", "im"])
    def test_python_work_per_cycle_is_flat_in_server_count(self, policy):
        """A cycle's Python work is O(#distinct degrees); O(m) only in numpy.

        Both graphs have the same six degrees, so the same number of calls
        and lines must run whether a cycle advances 500 servers or 4 000.
        Refill cycles (every ``prefetch_cycles``-th) are exempt: each server
        draws from its own stream — what makes digests shard-invariant — so
        the refill is an O(m) loop by design.
        """
        small = python_work_of_one_cycle(policy, 500)
        large = python_work_of_one_cycle(policy, 4000)
        assert small == large
        assert small[0] > 0 and small[1] > 0
