"""Whole-service textual reports.

:func:`service_report` condenses a running
:class:`~repro.service.builder.SimulatedService` into the operator's view:
per-server state and counters, network health, consistency-group structure,
and (when rate-tracking servers are present) the consonance diagnosis.  The
CLI's ``--report`` flag prints it; tests assert on its structure.
"""

from __future__ import annotations

from typing import List

from ..service.builder import SimulatedService
from ..service.rate_tracking import RateTrackingStage
from .consistency_graph import consistency_groups
from .plots import render_intervals, render_table


def service_report(
    service: SimulatedService,
    *,
    include_diagram: bool = True,
    include_oracle: bool = True,
    include_budget: bool = False,
) -> str:
    """Render the operator's report for the service's current state.

    Args:
        service: The service to report on (observed at ``engine.now``).
        include_diagram: Append the interval diagram.
        include_oracle: Include truth-referenced columns (offset, correct);
            disable for the "what a real operator could see" view.
        include_budget: Append the error-budget decomposition (inherited ε
            vs age drift per server).

    Returns:
        A multi-line string.
    """
    snap = service.snapshot()
    sections: List[str] = []

    # --- headline
    sections.append(
        f"time service report @ t = {snap.time:.3f} s "
        f"({len(service.servers)} servers, ξ = {service.xi:g} s"
        + (f", τ = {service.tau:g} s)" if service.tau else ")")
    )

    # --- per-server table
    headers = ["server", "policy", "C_i", "E_i", "rounds", "resets", "incons"]
    if include_oracle:
        headers += ["offset", "correct"]
    rows = []
    for name in sorted(service.servers):
        server = service.servers[name]
        state = "departed" if server.departed else (
            server.policy.name if server.policy else "answer-only"
        )
        row = [
            name,
            state,
            snap.values[name],
            snap.errors[name],
            server.stats.rounds,
            server.stats.resets,
            server.stats.inconsistencies,
        ]
        if include_oracle:
            row += [snap.offsets[name], snap.correct[name]]
        rows.append(row)
    sections.append(render_table(headers, rows, precision=6))

    # --- service-level aggregates
    sections.append(
        f"asynchronism: {snap.asynchronism * 1e3:.3f} ms | "
        f"min/max error: {snap.min_error:.6g} / {snap.max_error:.6g} s | "
        f"consistent: {snap.consistent}"
        + (f" | all correct: {snap.all_correct}" if include_oracle else "")
    )

    # --- consistency groups (only interesting when partitioned)
    groups = consistency_groups(snap.intervals())
    if len(groups) > 1:
        sections.append(f"WARNING: service split into {len(groups)} consistency groups:")
        for group in groups:
            sections.append(
                f"  {{{', '.join(group.members)}}} ∩ = {group.intersection}"
            )

    # --- network
    stats = service.network.stats
    delivery = stats.delivered / stats.sent if stats.sent else 1.0
    sections.append(
        f"network: {stats.sent} sent, {stats.delivered} delivered "
        f"({delivery:.1%}), {stats.dropped} dropped"
    )

    # --- security: the traffic that was signed, so an operator can see
    # authentication is actually on.
    secured = [s for s in service.servers.values() if hasattr(s, "security_stats")]
    if secured:
        sections.append(
            f"security: {len(secured)} authenticated servers, "
            f"{sum(s.authenticator.signed for s in secured)} messages signed, "
            f"{sum(s.security_stats.auth_failures for s in secured)} auth failures, "
            f"{sum(s.security_stats.replay_drops for s in secured)} replay drops"
        )

    # --- consonance diagnosis (rate-tracking servers only).  Each tracker
    # reports the neighbours it finds dissonant; a *bad* observer flags
    # everyone, so suspects are the servers flagged by at least half of the
    # other observers (majority voting over rate measurements is sound,
    # unlike over the non-transitive consistency relation).
    trackers = [
        server
        for server in service.servers.values()
        if server.stage(RateTrackingStage) is not None
    ]
    if trackers:
        flag_counts: dict[str, int] = {}
        for tracker in trackers:
            for name in tracker.dissonant_neighbours():
                flag_counts[name] = flag_counts.get(name, 0) + 1
        # Strict majority of the *other* observers: a single bad observer
        # flags everyone, and must not be able to frame a healthy server.
        suspects_set = {
            name
            for name, count in flag_counts.items()
            if 2 * count > max(len(trackers) - 1, 1)
        }
        # A tracker seeing the whole service recede coherently implicates
        # itself (see RateTrackingStage.self_suspect).
        suspects_set.update(
            tracker.name for tracker in trackers if tracker.self_suspect()
        )
        suspects = sorted(suspects_set)
        if suspects:
            sections.append(
                "consonance diagnosis: dissonant servers "
                f"{suspects} (rates exceed claimed bounds; flagged by a "
                "majority of observers)"
            )
        else:
            sections.append("consonance diagnosis: all measured rates within bounds")

    if include_budget:
        from .error_budget import render_budget_table, service_budgets

        sections.append("error budget:")
        sections.append(render_budget_table(service_budgets(service)))

    if include_diagram:
        sections.append(
            render_intervals(
                snap.intervals(),
                true_time=snap.time if include_oracle else None,
            )
        )
    return "\n".join(sections)
