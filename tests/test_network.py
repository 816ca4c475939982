"""Unit tests for topologies, delay models, links, and the transport."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.network.delay import (
    BimodalDelay,
    ConstantDelay,
    TruncatedExponentialDelay,
    UniformDelay,
)
from repro.network.link import Link
from repro.network.topology import (
    full_mesh,
    line,
    neighbours,
    random_connected,
    ring,
    star,
    two_level_internet,
    validate_topology,
)
from repro.network.transport import Network
from repro.simulation.engine import SimulationEngine
from repro.simulation.process import SimProcess
from repro.simulation.rng import RngRegistry


class TestTopologies:
    def test_full_mesh(self):
        graph = full_mesh(4)
        assert sorted(graph.nodes) == ["S1", "S2", "S3", "S4"]
        assert graph.number_of_edges() == 6

    def test_ring_degree_two(self):
        graph = ring(5)
        assert all(graph.degree(node) == 2 for node in graph)

    def test_line_endpoints(self):
        graph = line(4)
        degrees = sorted(dict(graph.degree).values())
        assert degrees == [1, 1, 2, 2]

    def test_star_hub(self):
        graph = star(5)
        assert graph.degree("S1") == 4

    def test_random_connected_always_connected(self):
        rng = np.random.default_rng(0)
        for p in (0.0, 0.05, 0.5):
            graph = random_connected(12, p, rng)
            assert nx.is_connected(graph)

    def test_two_level_internet_structure(self):
        graph = two_level_internet(3, 4)
        assert graph.number_of_nodes() == 12
        # LAN edges within each network: full mesh of 4 = 6 per network.
        lan = [e for e in graph.edges(data=True) if e[2].get("kind") == "lan"]
        wan = [e for e in graph.edges(data=True) if e[2].get("kind") == "wan"]
        assert len(lan) == 18
        assert len(wan) == 3  # ring of 3 gateways
        assert nx.is_connected(graph)

    def test_two_level_single_network(self):
        graph = two_level_internet(1, 3)
        assert graph.number_of_edges() == 3

    def test_two_level_extra_gateway_links(self):
        rng = np.random.default_rng(0)
        base = two_level_internet(4, 2)
        extra = two_level_internet(4, 2, rng=rng, extra_gateway_links=2)
        assert extra.number_of_edges() == base.number_of_edges() + 2

    def test_validate_topology(self):
        with pytest.raises(ValueError):
            validate_topology(nx.Graph())
        disconnected = nx.Graph()
        disconnected.add_nodes_from(["A", "B"])
        with pytest.raises(ValueError):
            validate_topology(disconnected)

    def test_neighbours_sorted(self):
        graph = full_mesh(3)
        assert neighbours(graph, "S2") == ["S1", "S3"]

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ring(2)
        with pytest.raises(ValueError):
            star(1)
        with pytest.raises(ValueError):
            two_level_internet(0, 3)


class TestDelayModels:
    def test_constant(self):
        rng = np.random.default_rng(0)
        model = ConstantDelay(0.25)
        assert model.sample(rng) == 0.25
        assert model.round_trip_bound == 0.5

    def test_uniform_within_bounds(self):
        rng = np.random.default_rng(0)
        model = UniformDelay(0.1, minimum=0.02)
        samples = [model.sample(rng) for _ in range(500)]
        assert all(0.02 <= s <= 0.1 for s in samples)

    def test_uniform_zero_minimum_default(self):
        """The paper's assumption: minimum message delay is zero."""
        assert UniformDelay(0.1).minimum == 0.0

    def test_truncated_exponential_respects_bound(self):
        rng = np.random.default_rng(0)
        model = TruncatedExponentialDelay(mean=0.05, bound=0.1)
        samples = [model.sample(rng) for _ in range(500)]
        assert all(0.0 <= s <= 0.1 for s in samples)

    def test_bimodal_mixture(self):
        rng = np.random.default_rng(0)
        model = BimodalDelay(
            ConstantDelay(0.01), ConstantDelay(0.5), slow_probability=0.3
        )
        samples = [model.sample(rng) for _ in range(1000)]
        slow_fraction = sum(1 for s in samples if s == 0.5) / len(samples)
        assert 0.2 < slow_fraction < 0.4
        assert model.bound == 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)
        with pytest.raises(ValueError):
            UniformDelay(0.1, minimum=0.2)
        with pytest.raises(ValueError):
            TruncatedExponentialDelay(mean=0.0, bound=1.0)
        with pytest.raises(ValueError):
            BimodalDelay(ConstantDelay(0), ConstantDelay(0), 1.5)


class TestLink:
    def test_delivery_samples_delay(self):
        rng = np.random.default_rng(0)
        link = Link(delay=ConstantDelay(0.1))
        assert link.try_send(rng) == 0.1
        assert link.stats.delivered == 1

    def test_loss(self):
        rng = np.random.default_rng(0)
        link = Link(delay=ConstantDelay(0.1), loss_probability=1.0)
        assert link.try_send(rng) is None
        assert link.stats.lost == 1

    def test_down_link_blocks(self):
        rng = np.random.default_rng(0)
        link = Link(delay=ConstantDelay(0.1))
        link.take_down()
        assert link.try_send(rng) is None
        assert link.stats.blocked == 1
        link.bring_up()
        assert link.try_send(rng) == 0.1

    def test_partitioned_blocks(self):
        rng = np.random.default_rng(0)
        link = Link(delay=ConstantDelay(0.1))
        link.partitioned = True
        assert not link.available
        assert link.try_send(rng) is None


class Sink(SimProcess):
    """Records deliveries."""

    def __init__(self, engine, name):
        super().__init__(engine, name)
        self.received = []

    def on_message(self, message, sender):
        self.received.append((self.engine.now, message))


def make_network(graph=None, **kwargs):
    engine = SimulationEngine()
    if graph is None:
        graph = full_mesh(3)
    network = Network(
        engine,
        graph,
        RngRegistry(seed=0),
        lan_delay=kwargs.pop("lan_delay", ConstantDelay(0.1)),
        **kwargs,
    )
    sinks = {}
    for name in network.names:
        sink = Sink(engine, name)
        sink.start()
        network.register(sink)
        sinks[name] = sink
    return engine, network, sinks


class TestTransport:
    def test_send_delivers_after_delay(self):
        engine, network, sinks = make_network()
        assert network.send("S1", "S2", "hello")
        engine.run()
        assert sinks["S2"].received == [(0.1, "hello")]

    def test_send_to_non_adjacent_dropped_without_long_haul(self):
        graph = line(3)  # S1-S2-S3
        engine, network, sinks = make_network(graph)
        assert not network.send("S1", "S3", "hello")
        engine.run()
        assert sinks["S3"].received == []

    def test_long_haul_reaches_non_adjacent(self):
        graph = line(3)
        engine, network, sinks = make_network(graph, long_haul=ConstantDelay(0.5))
        assert network.send("S1", "S3", "hello")
        engine.run()
        assert sinks["S3"].received == [(0.5, "hello")]

    def test_broadcast_hits_all_neighbours(self):
        engine, network, sinks = make_network()
        count = network.broadcast("S1", lambda dest: f"to-{dest}")
        engine.run()
        assert count == 2
        assert sinks["S2"].received[0][1] == "to-S2"
        assert sinks["S3"].received[0][1] == "to-S3"

    def test_partition_blocks_cross_group(self):
        engine, network, sinks = make_network()
        network.partition([["S1"], ["S2", "S3"]])
        assert not network.send("S1", "S2", "x")
        assert network.send("S2", "S3", "y")
        engine.run()
        assert sinks["S2"].received == []
        assert sinks["S3"].received != []

    def test_heal_restores_links(self):
        engine, network, sinks = make_network()
        network.partition([["S1"], ["S2", "S3"]])
        network.heal()
        assert network.send("S1", "S2", "x")

    def test_wan_delay_selected_by_edge_kind(self):
        graph = nx.Graph()
        graph.add_edge("A", "B", kind="wan")
        engine = SimulationEngine()
        network = Network(
            engine,
            graph,
            RngRegistry(seed=0),
            lan_delay=ConstantDelay(0.01),
            wan_delay=ConstantDelay(0.4),
        )
        sink = Sink(engine, "B")
        sink.start()
        network.register(sink)
        network.register(Sink(engine, "A"))
        network.send("A", "B", "x")
        engine.run()
        assert sink.received == [(0.4, "x")]

    def test_xi_reflects_worst_delay_class(self):
        graph = nx.Graph()
        graph.add_edge("A", "B", kind="wan")
        engine = SimulationEngine()
        network = Network(
            engine,
            graph,
            RngRegistry(seed=0),
            lan_delay=ConstantDelay(0.01),
            wan_delay=ConstantDelay(0.4),
            long_haul=ConstantDelay(1.0),
        )
        assert network.xi == pytest.approx(2.0)

    def test_duplicate_registration_rejected(self):
        engine, network, sinks = make_network()
        with pytest.raises(ValueError):
            network.register(Sink(engine, "S1"))

    def test_unknown_node_registration_rejected(self):
        engine, network, sinks = make_network()
        with pytest.raises(KeyError):
            network.register(Sink(engine, "S99"))

    def test_loss_probability_drops_messages(self):
        engine, network, sinks = make_network(loss_probability=1.0)
        assert not network.send("S1", "S2", "x")
        assert network.stats.dropped == 1

    def test_stats_track_delivery(self):
        engine, network, sinks = make_network()
        network.send("S1", "S2", "x")
        engine.run()
        assert network.stats.sent == 1
        assert network.stats.delivered == 1


class TestMessageTaps:
    """add_tap/remove_tap: the interception point the chaos injector uses."""

    def test_pass_through_tap_leaves_delivery_alone(self):
        engine, network, sinks = make_network()
        seen = []

        def observer(source, destination, message, delay):
            seen.append((source, destination, message, delay))
            return None

        network.add_tap(observer)
        assert network.send("S1", "S2", "hello")
        engine.run()
        assert seen == [("S1", "S2", "hello", 0.1)]
        assert sinks["S2"].received == [(0.1, "hello")]
        assert network.stats.tapped == 0

    def test_rewrite_tap_replaces_message(self):
        engine, network, sinks = make_network()
        network.add_tap(lambda s, d, m, dly: [(m.upper(), dly)])
        network.send("S1", "S2", "hello")
        engine.run()
        assert sinks["S2"].received == [(0.1, "HELLO")]
        assert network.stats.tapped == 1

    def test_drop_tap_fails_the_send(self):
        engine, network, sinks = make_network()
        network.add_tap(lambda s, d, m, dly: [])
        dropped_before = network.stats.dropped
        assert not network.send("S1", "S2", "hello")
        engine.run()
        assert sinks["S2"].received == []
        assert network.stats.dropped == dropped_before + 1

    def test_duplicate_tap_delivers_twice(self):
        engine, network, sinks = make_network()
        network.add_tap(lambda s, d, m, dly: [(m, dly), (m, dly + 0.5)])
        network.send("S1", "S2", "hello")
        engine.run()
        assert sinks["S2"].received == [(0.1, "hello"), (0.6, "hello")]

    def test_taps_compose_in_registration_order(self):
        engine, network, sinks = make_network()
        network.add_tap(lambda s, d, m, dly: [(m + "-a", dly)])
        network.add_tap(lambda s, d, m, dly: [(m + "-b", dly)])
        network.send("S1", "S2", "x")
        engine.run()
        assert sinks["S2"].received == [(0.1, "x-a-b")]

    def test_remove_tap_restores_plain_delivery(self):
        engine, network, sinks = make_network()
        tap = lambda s, d, m, dly: []
        network.add_tap(tap)
        assert not network.send("S1", "S2", "one")
        network.remove_tap(tap)
        network.remove_tap(tap)  # removing twice is harmless
        assert network.send("S1", "S2", "two")
        engine.run()
        assert sinks["S2"].received == [(0.1, "two")]


class TestNetworkBroadcastTargets:
    def test_explicit_target_list(self):
        engine, network, sinks = make_network(full_mesh(4))
        count = network.broadcast("S1", lambda dest: f"to-{dest}", targets=["S2", "S4"])
        engine.run()
        assert count == 2
        assert [len(sinks[name].received) for name in ("S2", "S3", "S4")] == [1, 0, 1]
