"""The one gauntlet harness: matrix loop, oracles, bundles, replay, reports, CLI.

A *gauntlet* states one of the paper's guarantees (Theorems 1/5
correctness, 2/3/7 bounds, Lemma 1 growth) as
``cells × arms × seeds → oracles → claims``.  What surrounds the claim is
the same for every gauntlet and lives here, once: run wiring
(:func:`check_arm`, :func:`attach_strict`, :func:`samples`), the matrix
loop with its per-run telemetry bundles, the first-run replay, the table,
the JSON report envelope, the ``FAIL:`` lines and the verdict
(:class:`Gauntlet`, :func:`write_report`, :func:`verdict`), and CLI
registration (:class:`Experiment`, :func:`add_subcommands`).  A gauntlet
module keeps what is specific to it — constants, cell and outcome
dataclasses, ``_build``, ``_schedule``, its per-sample measurement,
``evaluate``, its table, header and success sentence — and declares one
:class:`Gauntlet`, or, where the report shape is bespoke, an
:class:`Experiment` around its own ``main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..analysis.plots import render_table
from ..faults import FaultSchedule, InvariantMonitor, attach_chaos
from ..faults.injector import FaultInjector
from ..service.builder import ServiceSnapshot, SimulatedService
from ..telemetry import ServiceTelemetry

# ------------------------------------------------------------- run wiring


def check_arm(arm: str, arms: Sequence[str]) -> None:
    """Reject an arm the gauntlet does not define."""
    if arm not in arms:
        raise ValueError(f"unknown arm {arm!r}; expected one of {tuple(arms)}")


def attach_strict(
    service: SimulatedService,
    schedule: Optional[FaultSchedule] = None,
    *,
    period: float = 5.0,
    **monitor_kwargs: Any,
) -> Tuple[Optional[FaultInjector], InvariantMonitor]:
    """Start a run's fault injector and its *strict* invariant oracle.

    The oracle is an :class:`~repro.faults.monitor.InvariantMonitor` with
    no schedule: link and adversary faults earn no exemption windows, so
    every server is held to the invariants at all times — a poisoned
    victim is a violation even while the attack runs.  Its counters go
    to the service's telemetry registry when one is attached.

    Returns ``(injector, oracle)``; the injector is None without a
    ``schedule``.
    """
    injector = None
    if schedule is not None:
        injector, _ = attach_chaos(service, schedule, monitor=False)
    registry = service.telemetry.registry
    oracle = InvariantMonitor(
        service.engine,
        service.servers,
        service.trace,
        None,
        period=period,
        registry=registry if registry.enabled else None,
        **monitor_kwargs,
    )
    oracle.start()
    return injector, oracle


def samples(
    service: SimulatedService, horizon: float, step: float
) -> Iterator[Tuple[float, ServiceSnapshot]]:
    """Advance ``service`` to ``horizon`` in ``step``-second strides,
    yielding ``(t, snapshot)`` at each (the last stride is clipped)."""
    t = 0.0
    while t < horizon:
        t = min(t + step, horizon)
        service.run_until(t)
        yield t, service.snapshot()


# ---------------------------------------------------------------- reports


def write_report(json_path: Optional[str], report: Mapping[str, Any]) -> None:
    """Write a JSON report (the CI artefact) in the one style, if asked to."""
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"\nwrote JSON report to {json_path}")


Table = Sequence[Tuple[str, Callable[[Any], Any]]]


def render(table: Table, rows: Sequence[Any]) -> str:
    """A results table from ``(column title, row → cell)`` pairs."""
    return render_table(
        [title for title, _ in table],
        [[cell(row) for _, cell in table] for row in rows],
    )


def verdict(problems: Sequence[str], success: Optional[str] = None) -> bool:
    """Print one ``FAIL:`` line per problem, or the success sentence."""
    if problems:
        print()
        for problem in problems:
            print(f"FAIL: {problem}")
    elif success:
        print(f"\n{success}")
    return not problems


@dataclass(frozen=True)
class Gauntlet:
    """One simulated ``cells × arms × seeds`` gauntlet, declaratively.

    Attributes:
        cells: The matrix cells, each with a ``label``; ``(None,)`` for
            a gauntlet whose matrix is only arms × seeds.
        arms: The arms every cell runs under.
        run: ``run(cell, arm, seed, *, telemetry=None, **params)`` → one
            outcome dataclass carrying a ``trace_digest``.
        evaluate: The claims: outcomes → list of failures (empty = pass).
        header: ``header(seeds, **params)`` → the report's first line.
        table: ``(column title, outcome → cell)`` pairs, in print order.
        success: The sentence printed when every claim holds (None:
            the epilogue has already said it).
        bundle_fields: Outcome fields copied into each telemetry
            bundle's ``summary.json``.
        telemetry: Keyword arguments for each run's
            :class:`~repro.telemetry.ServiceTelemetry` (metrics only:
            spans are always off).
        constants: Scenario constants recorded in the JSON report next
            to the envelope.
        epilogue: Printed between the table and the verdict.
    """

    cells: Sequence[Any]
    arms: Sequence[str]
    run: Callable[..., Any]
    evaluate: Callable[[Sequence[Any]], List[str]]
    header: Callable[..., str]
    table: Table
    success: Optional[str]
    bundle_fields: Sequence[str]
    telemetry: Mapping[str, Any]
    constants: Mapping[str, Any] = field(default_factory=dict)
    epilogue: Optional[Callable[[], None]] = None

    def run_matrix(
        self,
        *,
        seeds: Sequence[int],
        telemetry_dir: Optional[str] = None,
        **params: Any,
    ) -> List[Any]:
        """Every (cell, arm, seed) run, in that nesting order.

        With ``telemetry_dir`` each run gets its own metrics-only
        telemetry plane, written to ``<dir>/<cell>-<arm>-seed<k>/``.
        """
        outcomes = []
        for cell in self.cells:
            for arm in self.arms:
                for seed in seeds:
                    telemetry = (
                        ServiceTelemetry(spans=False, **self.telemetry)
                        if telemetry_dir
                        else None
                    )
                    outcome = self.run(
                        cell, arm, seed, telemetry=telemetry, **params
                    )
                    outcomes.append(outcome)
                    if telemetry is not None:
                        telemetry.write(
                            os.path.join(
                                telemetry_dir, _label("-", cell, arm, f"seed{seed}")
                            ),
                            summary_extra={
                                name: getattr(outcome, name)
                                for name in self.bundle_fields
                            },
                        )
        return outcomes

    def main(
        self,
        *,
        seeds: Sequence[int],
        json_path: Optional[str] = None,
        telemetry_dir: Optional[str] = None,
        **params: Any,
    ) -> bool:
        """Run the matrix, print the report, return overall pass/fail."""
        outcomes = self.run_matrix(
            seeds=seeds, telemetry_dir=telemetry_dir, **params
        )
        problems = self.evaluate(outcomes)
        # Deterministic replay: re-run the first combination and demand a
        # byte-identical trace.
        cell, arm, seed = self.cells[0], self.arms[0], seeds[0]
        first, again = outcomes[0], self.run(cell, arm, seed, **params)
        replay_ok = again.trace_digest == first.trace_digest
        if not replay_ok:
            problems.append(
                f"replay of {_label('/', cell, arm, f'seed {seed}')} diverged: "
                f"{again.trace_digest:08x} != {first.trace_digest:08x}"
            )
        print(self.header(seeds, **params))
        print(render(self.table, outcomes))
        if self.epilogue is not None:
            self.epilogue()
        write_report(
            json_path,
            {
                **self.constants,
                **params,
                "seeds": list(seeds),
                "replay_ok": replay_ok,
                "ok": not problems,
                "problems": problems,
                "outcomes": [asdict(o) for o in outcomes],
            },
        )
        return verdict(problems, self.success)

    def experiment(
        self,
        name: str,
        help: str,
        seeds: Sequence[int],
        flags: Optional[Mapping[str, dict]] = None,
    ) -> "Experiment":
        """This gauntlet as a registry entry: ``--seeds``, ``--json``,
        ``--telemetry-out`` and the gauntlet's own extra ``flags``."""
        return Experiment(
            name,
            help,
            self.main,
            {**seeds_flag(*seeds), **(flags or {}), **JSON, **TELEMETRY_OUT},
        )


def _label(separator: str, cell: Any, *parts: str) -> str:
    """``cell<sep>arm<sep>seed`` — without the cell for a cell-less matrix."""
    return separator.join(parts if cell is None else (cell.label, *parts))


# -------------------------------------------------------- CLI registration

#: Range checks for a flag's ``requires=`` entry: ``(predicate, text)``.
POSITIVE = (lambda value: value > 0, "must be positive")


def at_least(minimum: int) -> Tuple[Callable[[Any], bool], str]:
    """The ``requires=`` check for a flag with an inclusive floor."""
    return (lambda value: value >= minimum, f"must be at least {minimum}")


def seeds_flag(*default: int) -> Mapping[str, dict]:
    """``--seeds K [K ...]`` with the given default seeds."""
    return {"--seeds": dict(type=int, nargs="+", default=list(default),
                            help="seeds to run (each runs the whole matrix)")}


JSON = {"--json": dict(keyword="json_path", metavar="PATH",
                       help="also write the JSON report here (CI artefact)")}

TELEMETRY_OUT = {
    "--telemetry-out": dict(
        keyword="telemetry_dir", metavar="DIR",
        help="write telemetry artefacts (Prometheus snapshots, summaries) "
             "under DIR, one sub-directory per run (the nightly soak artefacts)")
}


@dataclass(frozen=True)
class Experiment:
    """One registry entry: ``repro <name>`` and ``repro experiment <name>``.

    Attributes:
        name: The CLI name.
        help: One-line ``--help`` summary.
        main: Called with one keyword per flag; returns the verdict
            (True = every claim held; informational figures return True).
        flags: Flag → ``add_argument`` keywords, plus two of the
            harness's own: ``keyword=`` names the ``main`` parameter when
            it is not the flag's name, and ``requires=(predicate, text)``
            is a range check — a failing value prints ``<name>: <flag>
            <text>`` and exits 2.  Each flag's name, default and check
            are declared here and nowhere else.
    """

    name: str
    help: str
    main: Callable[..., bool]
    flags: Mapping[str, dict] = field(default_factory=dict)

    def add_flags(self, parser: argparse.ArgumentParser) -> None:
        for flag, keywords in self.flags.items():
            ours = ("keyword", "requires")
            parser.add_argument(
                flag, **{k: v for k, v in keywords.items() if k not in ours}
            )

    def run(self, args: Optional[argparse.Namespace] = None) -> int:
        """Run with parsed ``args`` (None: every flag at its default).

        Returns the exit code: 0 pass, 1 a claim failed, 2 a flag value
        is out of range.
        """
        if args is None:
            parser = argparse.ArgumentParser()
            self.add_flags(parser)
            args = parser.parse_args([])
        values = {}
        for flag, keywords in self.flags.items():
            dest = flag.lstrip("-").replace("-", "_")
            value = values[keywords.get("keyword", dest)] = getattr(args, dest)
            check, text = keywords.get("requires", (None, None))
            if check is not None and not check(value):
                print(f"{self.name}: {flag} {text}", file=sys.stderr)
                return 2
        return 0 if self.main(**values) else 1


def informational(name: str, module: Any) -> Experiment:
    """A module whose ``main()`` prints a figure and claims nothing."""

    @functools.wraps(module.main)
    def run() -> bool:
        module.main()
        return True

    return Experiment(name, module.__doc__.splitlines()[0], run)


def add_subcommands(sub, registry: Mapping[str, Experiment]) -> None:
    """Give every registered experiment its ``repro <name>`` subcommand.

    A name the CLI already defines keeps its dedicated command (``repro
    figure1`` is the instrumented run; ``repro experiment figure1`` the
    faithful figure).
    """
    for name, experiment in registry.items():
        if name not in sub.choices:
            parser = sub.add_parser(name, help=experiment.help)
            experiment.add_flags(parser)
            parser.set_defaults(func=experiment.run)
