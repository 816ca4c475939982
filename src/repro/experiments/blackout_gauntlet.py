"""Reference-blackout gauntlet: holdover versus free-running MM.

The paper is explicit that "a time service cannot remain correct with
respect to the standard without some communication with it" — rule MM-1
handles blackout by growing the claimed error ``E`` at the claimed ``δ``
forever (Theorem 2's worst case).  This gauntlet measures what a
*disciplined holdover* buys on top of that guarantee: a servo that
trimmed the oscillator while sources were up leaves a far smaller
residual drift when they vanish, so the **true** error during a blackout
stays well below what an undisciplined free-run accumulates, while the
claimed interval stays exactly as correct in both arms.

Two arms over a star topology (one reference hub, ``N_LEAVES`` leaf
servers that poll only the hub):

* ``mm`` — plain :class:`~repro.service.server.TimeServer` under rule
  MM: free-runs at its raw skew during the blackout;
* ``holdover`` — :class:`~repro.holdover.server.HoldoverStage`: a
  disciplined, slewing clock, the SYNCED → HOLDOVER → DEGRADED →
  REINTEGRATING machine, reset suppression until revalidation, and
  bounded-slew adoption afterwards.

Each cell of the matrix is one blackout shape — a
:class:`~repro.faults.schedule.ReferenceBlackout` of the hub (short and
long) or a :class:`~repro.faults.schedule.TotalPartition` (every server
isolated) — crossed with both arms and every seed.  Acceptance
(:func:`evaluate`):

* in **every** (cell, seed), the holdover arm's peak true error during
  the blackout is strictly below the mm arm's;
* the holdover arm serves **monotone** time throughout — the
  fine-grained :class:`~repro.holdover.probe.MonotonicityProbe` must
  count zero backward steps (the mm arm's count is reported; stepping
  resets make it a non-guarantee there);
* the strict invariant oracle (no fault schedule, hence no exemption
  windows) reports **zero** violations in both arms — holdover never
  trades away rule MM-1 correctness;
* the whole matrix is **deterministically replayable**: re-running a
  cell yields an identical trace digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.mm import MMPolicy
from ..faults import FaultSchedule, ReferenceBlackout, TotalPartition
from ..holdover import HoldoverConfig, HoldoverState, MonotonicityProbe
from ..network.delay import UniformDelay
from ..network.topology import star
from ..service.builder import ServerSpec, SimulatedService, build_service
from ..simulation.trace import trace_digest
from . import harness

#: The two arms: the paper's rule MM free-running, and disciplined holdover.
ARMS = ("mm", "holdover")

#: Claimed maximum drift rate δ for every leaf server.
DELTA = 1e-4

#: Actual leaf skews (all below δ, both signs, none negligible): the
#: drift the mm arm free-runs at and the holdover servo must learn.
LEAF_SKEWS = (8e-5, -7e-5, 6e-5, -9e-5)

#: One-way delay bound; ξ is a symmetric round trip.
ONE_WAY = 0.01
XI = 2.0 * ONE_WAY

#: Poll period and fault-free lead-in (the servo needs several discipline
#: periods — 4τ each — to trim the oscillators before the lights go out).
TAU = 30.0
BLACKOUT_AT = 600.0

#: Simulated seconds of recovery observed after the blackout lifts.
RECOVERY = 600.0

#: Oracle sampling grid for true-error and resync measurements.
SAMPLE_STEP = 5.0

#: A leaf is "resynced" when its true offset is back inside one
#: round-trip uncertainty of the reference.
RESYNC_THRESHOLD = XI

#: Sentinel for "never resynced within the observed horizon".
NEVER = -1.0


def holdover_config() -> HoldoverConfig:
    """The gauntlet's holdover knobs (shared by every holdover run).

    The no-source window is three poll periods, so every cell's blackout
    comfortably triggers holdover; the trust horizon is short enough
    that the long cells also exercise the DEGRADED watchdog.
    """
    return HoldoverConfig(
        no_source_window=3.0 * TAU,
        trust_horizon=450.0,
        reintegrate_rounds=2,
    )


@dataclass(frozen=True)
class GauntletCell:
    """One blackout shape of the matrix.

    Attributes:
        label: Short name used in tables and artefact paths.
        fault: ``"reference"`` (hub links dark) or ``"total"`` (every
            server isolated).
        blackout: Blackout length in simulated seconds.
    """

    label: str
    fault: str
    blackout: float


#: Default matrix: a short and a long hub blackout, plus a total
#: partition.  The long cells outlive the trust horizon, so the
#: DEGRADED watchdog and the staged reintegration both get exercised.
CELLS = (
    GauntletCell("short-ref", "reference", 300.0),
    GauntletCell("long-ref", "reference", 900.0),
    GauntletCell("total", "total", 600.0),
)


@dataclass(frozen=True)
class GauntletOutcome:
    """One (cell, arm, seed) run.

    Attributes:
        cell: The matrix cell's label.
        arm: "mm" or "holdover".
        seed: Root seed for the whole run.
        fault: Blackout shape ("reference" or "total").
        blackout: Blackout length (seconds).
        horizon: Total simulated seconds.
        trace_digest: Fingerprint of the full run trace.
        peak_error_blackout: Largest true leaf error during the blackout.
        mean_error_blackout: Mean true leaf error during the blackout.
        peak_claimed_error: Largest claimed E_i during the blackout
            (identical MM-1 growth in both arms, reported as a check).
        time_to_resync: Seconds after the blackout lifted until every
            leaf's true offset was back under ``RESYNC_THRESHOLD``
            (``NEVER`` if not within the horizon).
        time_to_synced: Holdover arm only: seconds after the blackout
            until every leaf was back in ``SYNCED`` (``NEVER`` if not;
            0.0 for the mm arm, which has no state machine).
        monotonicity_violations: Backward steps of any served clock, on
            a 1-second sampling grid (holdover arm must score 0).
        checks: Strict-oracle sweeps performed.
        violations: Invariant violations (no exemptions — must be 0).
        holdover_entries: Leaves that entered holdover (holdover arm).
        degraded: Leaves that reached DEGRADED (holdover arm).
        suppressed_resets: Resets suppressed while not SYNCED.
        insane_resets: Resets refused by the sanity rail (expect 0).
        final_max_error: Largest claimed error at the end of the run.
    """

    cell: str
    arm: str
    seed: int
    fault: str
    blackout: float
    horizon: float
    trace_digest: int
    peak_error_blackout: float
    mean_error_blackout: float
    peak_claimed_error: float
    time_to_resync: float
    time_to_synced: float
    monotonicity_violations: int
    checks: int
    violations: int
    holdover_entries: int
    degraded: int
    suppressed_resets: int
    insane_resets: int
    final_max_error: float


def _build(arm: str, seed: int, *, telemetry=None) -> SimulatedService:
    # A star, deliberately: the leaves' only source is the hub, so a hub
    # blackout is a clean total loss of references without partitioning
    # the leaves from each other's requests.
    n = len(LEAF_SKEWS)
    graph = star(n + 1)
    names = sorted(graph.nodes)  # S1 is the hub.
    hub, leaves = names[0], names[1:]
    specs = [ServerSpec(hub, reference=True, initial_error=0.005)]
    for name, skew in zip(leaves, LEAF_SKEWS):
        specs.append(
            ServerSpec(
                name,
                delta=DELTA,
                skew=skew,
                initial_error=0.1,
                holdover=(arm == "holdover"),
            )
        )
    return build_service(
        graph,
        specs,
        policy=MMPolicy(),
        tau=TAU,
        seed=seed + 7000,
        lan_delay=UniformDelay(ONE_WAY),
        wan_delay=UniformDelay(ONE_WAY),
        telemetry=telemetry,
        holdover=holdover_config(),
    )


def _schedule(cell: GauntletCell, hub: str) -> FaultSchedule:
    if cell.fault == "reference":
        event = ReferenceBlackout(
            at=BLACKOUT_AT, duration=cell.blackout, servers=(hub,)
        )
    elif cell.fault == "total":
        event = TotalPartition(at=BLACKOUT_AT, duration=cell.blackout)
    else:
        raise ValueError(f"unknown fault kind {cell.fault!r}")
    return FaultSchedule().add(event)


def run_gauntlet(
    cell: GauntletCell,
    arm: str = "holdover",
    seed: int = 0,
    *,
    monitor_period: float = 5.0,
    telemetry=None,
) -> GauntletOutcome:
    """One arm through one blackout cell.

    Args:
        cell: The blackout shape.
        arm: "mm" or "holdover".
        seed: Root seed; one seed fixes the whole run (service RNG,
            delays, loss — the blackout itself is scheduled, not drawn).
        monitor_period: Strict-oracle sweep period.
        telemetry: Optional :class:`~repro.telemetry.ServiceTelemetry`;
            its registry also receives the holdover/slew gauges and the
            oracle counters.
    """
    harness.check_arm(arm, ARMS)
    service = _build(arm, seed, telemetry=telemetry)
    names = sorted(service.servers)
    hub, leaves = names[0], names[1:]
    _, oracle = harness.attach_strict(
        service, _schedule(cell, hub), period=monitor_period
    )
    probe = MonotonicityProbe(service.engine, service.servers, period=1.0)
    probe.start()

    blackout_end = BLACKOUT_AT + cell.blackout
    horizon = blackout_end + RECOVERY
    peak = 0.0
    mean_sum, mean_n = 0.0, 0
    peak_claimed = 0.0
    resync_at: Optional[float] = None
    synced_at: Optional[float] = None
    for t, snap in harness.samples(service, horizon, SAMPLE_STEP):
        worst = max(abs(snap.offsets[name]) for name in leaves)
        if BLACKOUT_AT <= t <= blackout_end:
            peak = max(peak, worst)
            mean_sum += worst
            mean_n += 1
            peak_claimed = max(
                peak_claimed, max(snap.errors[name] for name in leaves)
            )
        if t >= blackout_end:
            if resync_at is None and worst <= RESYNC_THRESHOLD:
                resync_at = t
            if arm == "holdover" and synced_at is None:
                states = [
                    service.servers[name].holdover.state for name in leaves
                ]
                if all(s is HoldoverState.SYNCED for s in states):
                    synced_at = t
    snap = service.snapshot()

    entries = degraded = suppressed = insane = 0
    if arm == "holdover":
        for name in leaves:
            stats = service.servers[name].holdover_stats
            entries += stats.holdover_entries
            degraded += stats.degraded_transitions
            suppressed += stats.suppressed_resets
            insane += stats.insane_resets
    return GauntletOutcome(
        cell=cell.label,
        arm=arm,
        seed=seed,
        fault=cell.fault,
        blackout=cell.blackout,
        horizon=horizon,
        trace_digest=trace_digest(service.trace),
        peak_error_blackout=peak,
        mean_error_blackout=mean_sum / mean_n if mean_n else 0.0,
        peak_claimed_error=peak_claimed,
        time_to_resync=(
            resync_at - blackout_end if resync_at is not None else NEVER
        ),
        time_to_synced=(
            (synced_at - blackout_end if synced_at is not None else NEVER)
            if arm == "holdover"
            else 0.0
        ),
        monotonicity_violations=probe.total(),
        checks=oracle.stats.checks,
        violations=oracle.stats.total_violations,
        holdover_entries=entries,
        degraded=degraded,
        suppressed_resets=suppressed,
        insane_resets=insane,
        final_max_error=snap.max_error,
    )


def evaluate(outcomes: Sequence[GauntletOutcome]) -> List[str]:
    """The acceptance criteria, as a list of failures (empty = pass)."""
    problems: List[str] = []
    keys = sorted({(o.cell, o.seed) for o in outcomes})
    for cell, seed in keys:
        runs = {o.arm: o for o in outcomes if (o.cell, o.seed) == (cell, seed)}
        mm, hold = runs.get("mm"), runs.get("holdover")
        if mm is not None and hold is not None:
            if not hold.peak_error_blackout < mm.peak_error_blackout:
                problems.append(
                    f"{cell} seed {seed}: holdover peak true error "
                    f"{hold.peak_error_blackout:.4f}s not below mm's "
                    f"{mm.peak_error_blackout:.4f}s"
                )
        if hold is not None:
            if hold.monotonicity_violations:
                problems.append(
                    f"{cell} seed {seed}: holdover served time ran backward "
                    f"{hold.monotonicity_violations} time(s)"
                )
            if hold.holdover_entries == 0:
                problems.append(
                    f"{cell} seed {seed}: no leaf entered holdover "
                    f"(the blackout did not bite)"
                )
            if hold.time_to_resync == NEVER:
                problems.append(
                    f"{cell} seed {seed}: holdover arm never resynced"
                )
            if hold.insane_resets:
                problems.append(
                    f"{cell} seed {seed}: {hold.insane_resets} insane "
                    f"reset(s) — nothing in this gauntlet should trip "
                    f"the sanity rail"
                )
        for arm, o in sorted(runs.items()):
            if o.violations:
                problems.append(
                    f"{cell} seed {seed}: {arm} arm saw {o.violations} "
                    f"invariant violation(s) under the strict oracle"
                )
    return problems


SPEC = harness.Gauntlet(
    cells=CELLS,
    arms=ARMS,
    run=run_gauntlet,
    evaluate=evaluate,
    header=lambda seeds: (
        f"blackout gauntlet: {len(CELLS)} cell(s) x {ARMS} x "
        f"{len(seeds)} seed(s), star({len(LEAF_SKEWS) + 1}), τ={TAU:g}s, "
        f"blackout at t={BLACKOUT_AT:g}s"
    ),
    table=(
        ("cell", lambda o: o.cell),
        ("arm", lambda o: o.arm),
        ("seed", lambda o: o.seed),
        ("peak ms", lambda o: f"{o.peak_error_blackout * 1e3:.1f}"),
        ("mean ms", lambda o: f"{o.mean_error_blackout * 1e3:.1f}"),
        (
            "resync s",
            lambda o: "-" if o.time_to_resync == NEVER else f"{o.time_to_resync:.0f}",
        ),
        (
            "synced s",
            lambda o: (
                "-"
                if o.arm != "holdover" or o.time_to_synced == NEVER
                else f"{o.time_to_synced:.0f}"
            ),
        ),
        ("mono", lambda o: o.monotonicity_violations),
        ("viol", lambda o: o.violations),
        ("hold/deg", lambda o: f"{o.holdover_entries}/{o.degraded}"),
        ("suppr", lambda o: o.suppressed_resets),
        ("trace digest", lambda o: f"{o.trace_digest:08x}"),
    ),
    success=(
        "holdover beat free-running MM on true error in every cell and "
        "seed, served monotone time throughout, and both arms stayed "
        "invariant-clean; replay digests matched."
    ),
    constants={"tau": TAU, "blackout_at": BLACKOUT_AT},
    bundle_fields=(
        "cell",
        "arm",
        "seed",
        "peak_error_blackout",
        "time_to_resync",
        "monotonicity_violations",
        "violations",
    ),
    telemetry={"sample_period": TAU},
)

#: Every (cell, arm, seed) run of the gauntlet.
run_matrix = SPEC.run_matrix

EXPERIMENTS = (
    SPEC.experiment(
        "blackout-gauntlet",
        "reference blackout: disciplined holdover vs free-running MM "
        "on true error, monotonicity and reintegration",
        seeds=(0, 1, 2),
    ),
)
