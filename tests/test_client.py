"""Unit tests for the TimeClient and its query strategies."""

from __future__ import annotations

import pytest

from repro.clocks.drift import DriftingClock
from repro.core.im import IMPolicy
from repro.network.delay import ConstantDelay, UniformDelay
from repro.network.topology import full_mesh, star
from repro.service.builder import ServerSpec, build_service
from repro.service.client import QueryStrategy


def make_service_with_client(
    n_servers=3,
    *,
    errors=(0.5, 0.1, 0.9),
    skews=None,
    one_way=0.01,
    client_kwargs=None,
):
    """A star of answer-only servers around a client hub node ``C``."""
    graph = star(n_servers + 1, prefix="N")
    # Relabel: hub N1 is the client; servers are N2..; give them names.
    specs = []
    for k in range(n_servers):
        skew = 0.0 if skews is None else skews[k]
        specs.append(
            ServerSpec(
                f"N{k + 2}",
                delta=1e-5,
                skew=skew,
                initial_error=errors[k],
                polls=False,
            )
        )
    service = build_service(
        graph,
        specs,
        policy=None,
        tau=60.0,
        seed=0,
        lan_delay=ConstantDelay(one_way),
    )
    client = service.add_client("N1", **(client_kwargs or {}))
    client.start()
    return service, client


class TestStrategies:
    def test_first_reply_uses_first_arrival(self):
        service, client = make_service_with_client()
        results = []
        client.ask(
            ["N2", "N3", "N4"],
            QueryStrategy.FIRST_REPLY,
            callback=results.append,
        )
        service.engine.run(until=1.0)
        assert len(results) == 1
        assert results[0].replies_used == 1

    def test_min_error_picks_smallest_interval(self):
        service, client = make_service_with_client(errors=(0.5, 0.1, 0.9))
        results = []
        client.ask(
            ["N2", "N3", "N4"], QueryStrategy.MIN_ERROR, callback=results.append
        )
        service.engine.run(until=2.0)
        assert len(results) == 1
        # N3 (error 0.1) should win; the claimed error includes the rtt.
        assert results[0].source == "N3"
        assert results[0].error < 0.2

    def test_intersect_beats_min_error(self):
        """Offset intervals whose intersection is smaller than any single
        interval (the Figure 2 right-panel case, client-side)."""
        service, client = make_service_with_client(
            errors=(0.5, 0.5, 0.5), skews=(0.0, 0.0, 0.0)
        )
        # Give the three servers slightly different initial clock offsets by
        # using drifting clocks with distinct epoch offsets.
        results_min, results_int = [], []
        client.ask(
            ["N2", "N3", "N4"], QueryStrategy.MIN_ERROR, callback=results_min.append
        )
        client.ask(
            ["N2", "N3", "N4"], QueryStrategy.INTERSECT, callback=results_int.append
        )
        service.engine.run(until=3.0)
        assert results_int[0].error <= results_min[0].error + 1e-9

    def test_intersect_with_faults_survives_falseticker(self):
        service, client = make_service_with_client(
            errors=(0.1, 0.1, 0.1), skews=None
        )
        # Wreck one server's clock after the fact: huge offset.
        bad = service.servers["N4"]
        bad.clock.set(0.0, 500.0)
        results = []
        client.ask(
            ["N2", "N3", "N4"],
            QueryStrategy.INTERSECT,
            callback=results.append,
            faults=1,
        )
        service.engine.run(until=2.0)
        result = results[0]
        assert result.correct
        assert abs(result.true_offset) < 0.1

    def test_intersect_falls_back_to_ntp_select(self):
        """Budget too small for the liars: INTERSECT degrades to the
        RFC-5905 selection, which stays anchored to the truechimer
        majority instead of trusting the narrowest (liar) interval."""
        service, client = make_service_with_client(
            n_servers=5, errors=(0.1,) * 5, skews=None
        )
        # Two colluding liars with confident (small-error) replies; a
        # budget of one fault cannot cover them both.
        service.servers["N5"].clock.set(0.0, 500.0)
        service.servers["N6"].clock.set(0.0, 500.3)
        results = []
        client.ask(
            ["N2", "N3", "N4", "N5", "N6"],
            QueryStrategy.INTERSECT,
            callback=results.append,
            faults=1,
        )
        service.engine.run(until=2.0)
        result = results[0]
        assert result.source.startswith("ntp-select[")
        assert result.correct
        assert abs(result.true_offset) < 0.2

    def test_intersect_last_resort_is_labelled_fallback(self):
        """No majority at all (every server disagrees): the documented
        MIN_ERROR last resort, clearly labelled in the result source."""
        service, client = make_service_with_client(
            errors=(0.1, 0.1, 0.1), skews=None
        )
        service.servers["N3"].clock.set(0.0, 500.0)
        service.servers["N4"].clock.set(0.0, -500.0)
        results = []
        client.ask(
            ["N2", "N3", "N4"],
            QueryStrategy.INTERSECT,
            callback=results.append,
            faults=0,
        )
        service.engine.run(until=2.0)
        assert results[0].source.startswith("fallback:")

    def test_all_results_recorded(self):
        service, client = make_service_with_client()
        for _ in range(3):
            client.ask(["N2"], QueryStrategy.FIRST_REPLY)
        service.engine.run(until=5.0)
        assert len(client.results) == 3


class TestCorrectnessAccounting:
    def test_claimed_interval_contains_truth(self):
        """Client results from correct servers are correct (the client-side
        analogue of Theorem 5)."""
        service, client = make_service_with_client(
            errors=(0.2, 0.3, 0.4), one_way=0.05
        )
        results = []
        for strategy in QueryStrategy:
            client.ask(["N2", "N3", "N4"], strategy, callback=results.append)
        service.engine.run(until=5.0)
        assert len(results) == 3
        for result in results:
            assert result.correct, result

    def test_drifting_client_clock_still_correct(self):
        service, client = make_service_with_client(
            errors=(0.2, 0.2, 0.2),
            client_kwargs=dict(
                clock=DriftingClock(skew=5e-3), delta=1e-2
            ),
        )
        results = []
        client.ask(["N2", "N3", "N4"], QueryStrategy.INTERSECT, callback=results.append)
        service.engine.run(until=5.0)
        assert results[0].correct


class TestValidation:
    def test_empty_server_list_rejected(self):
        service, client = make_service_with_client()
        with pytest.raises(ValueError):
            client.ask([], QueryStrategy.FIRST_REPLY)

    def test_negative_faults_rejected(self):
        service, client = make_service_with_client()
        with pytest.raises(ValueError):
            client.ask(["N2"], QueryStrategy.INTERSECT, faults=-1)

    def test_timeout_finalises_partial_results(self):
        service, client = make_service_with_client()
        service.network.link("N1", "N4").take_down()
        results = []
        client.ask(
            ["N2", "N3", "N4"], QueryStrategy.MIN_ERROR, callback=results.append
        )
        service.engine.run(until=5.0)
        assert len(results) == 1
        assert results[0].replies_used == 2

    def test_no_replies_yields_explicit_failure(self):
        # A query that hears nothing must fail *explicitly*: the callback
        # fires with a failed result and the failure is recorded, so
        # experiments can count unanswered queries (it used to vanish).
        service, client = make_service_with_client()
        for name in ("N2", "N3", "N4"):
            service.network.link("N1", name).take_down()
        results = []
        client.ask(
            ["N2", "N3", "N4"], QueryStrategy.FIRST_REPLY, callback=results.append
        )
        service.engine.run(until=5.0)
        assert client.results == []
        assert len(results) == 1
        assert len(client.failures) == 1
        failure = results[0]
        assert failure.failed
        assert failure.replies_used == 0
        assert not failure.correct
        assert failure.latency == pytest.approx(client.timeout)

    def test_client_validation(self):
        service, _client = make_service_with_client()
        with pytest.raises(ValueError):
            service.add_client("N1", delta=-1.0)


class TestClientFallback:
    def test_intersect_falls_back_when_budget_exceeded(self):
        """With more falsetickers than the budget, the client degrades to
        min-error and marks the source as a fallback."""
        service, client = make_service_with_client(errors=(0.05, 0.05, 0.05))
        # Wreck two of three servers in opposite directions: no pair
        # agreement survives a faults=0 budget.
        service.servers["N3"].clock.set(0.0, 500.0)
        service.servers["N4"].clock.set(0.0, -500.0)
        results = []
        client.ask(
            ["N2", "N3", "N4"],
            QueryStrategy.INTERSECT,
            callback=results.append,
            faults=0,
        )
        service.engine.run(until=3.0)
        assert len(results) == 1
        assert results[0].source.startswith("fallback:")
