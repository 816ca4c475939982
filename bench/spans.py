"""Benchmark-side span recording around the program's entry points.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
each entry point named in :data:`HOOKS` with a wrapper *at the name its
callers look it up by* (a class attribute, or the module global an
importer bound with ``from x import f``) and :func:`remove` puts the
originals back.  A wrapper records one span per call — name, start,
end, parent, and the id of the root span that caused it (one engine
event, one received datagram, one kernel cycle) — and keeps per-name
totals, so a layer's *self* time is its spans' duration minus the part
its child spans cover.

Spans live in memory; :meth:`Tracer.dump` returns the totals and the
first :data:`RAW_CAP` raw spans for ``bench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept per traced run (totals always cover every span).
RAW_CAP = 20_000

_MISSING = object()


class Tracer:
    """In-memory span store with per-name inclusive/self totals."""

    def __init__(self) -> None:
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (id, parent id or 0, root id, name, start, end), perf_counter seconds
        self.raw: List[Tuple[int, int, int, str, float, float]] = []
        #: boundary observations that are not durations (maxima, byte sizes)
        self.gauges: Dict[str, float] = {}
        #: Laps switch this on for their timed steps only, so build, warm-up
        #: and output checks leave no spans behind.
        self.enabled = False
        self._stack: List[List[Any]] = []  # open frames: [id, root, child seconds]
        self._next_id = 0

    # ----------------------------------------------------------------- spans

    def begin(self) -> List[Any]:
        """Open a span under the innermost open one; pair with :meth:`end`."""
        self._next_id += 1
        stack = self._stack
        root = stack[0][1] if stack else self._next_id
        frame = [self._next_id, root, 0.0]
        stack.append(frame)
        return frame

    def end(self, name: str, frame: List[Any], start: float, stop: float) -> None:
        stack = self._stack
        stack.pop()
        duration = stop - start
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[2]
        parent = 0
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        if len(self.raw) < RAW_CAP:
            self.raw.append((frame[0], parent, frame[1], name, start, stop))

    def wrap(
        self,
        name: str,
        func: Callable,
        also: Optional[Callable[[tuple], Optional[str]]] = None,
        observe: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """``func`` recording a span per call.

        ``also`` may name a second total the call's *inclusive* time is
        added to (no span, so self times still sum); ``observe`` is called
        with ``(tracer, args, result)`` after the span closed.
        """
        clock = time.perf_counter
        begin, end, totals = self.begin, self.end, self.totals

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            frame = begin()
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                stop = clock()
                end(name, frame, start, stop)
            if also is not None:
                extra = also(args)
                if extra is not None:
                    row = totals.get(extra)
                    if row is None:
                        row = totals[extra] = [0, 0.0, 0.0]
                    row[0] += 1
                    row[1] += stop - start
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def gauge_max(self, name: str, value: float) -> None:
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # --------------------------------------------------------------- reading

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def inclusive_us(self, name: str) -> float:
        row = self.totals.get(name)
        return row[1] / row[0] * 1e6 if row and row[0] else 0.0

    def self_us(self, name: str) -> float:
        row = self.totals.get(name)
        return row[2] / row[0] * 1e6 if row and row[0] else 0.0

    def self_seconds_by_layer(self) -> Dict[str, float]:
        """Self time per layer (the part of a span name before ``:``)."""
        layers: Dict[str, float] = {}
        for name, (_calls, _inclusive, self_s) in self.totals.items():
            layer = name.split(":", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def dump(self) -> Dict[str, Any]:
        return {
            "totals": {
                name: {"calls": int(c), "inclusive_s": inc, "self_s": own}
                for name, (c, inc, own) in sorted(self.totals.items())
            },
            "gauges": dict(sorted(self.gauges.items())),
            "raw_span_fields": ["id", "parent", "root", "name", "start_s", "end_s"],
            "raw_spans": [list(span) for span in self.raw],
            "raw_spans_capped_at": RAW_CAP,
        }


# ---------------------------------------------------------------- the hooks


def _answer_total(args: tuple) -> Optional[str]:
    from repro.service.messages import TimeRequest

    return "service.server:answer" if isinstance(args[1], TimeRequest) else None


def _heap_depth(tracer: Tracer, args: tuple, _result: Any) -> None:
    tracer.gauge_max("simulation.engine:heap_depth_max", args[0].heap_depth)


def _encoded_size(tracer: Tracer, args: tuple, result: Any) -> None:
    kind = "request" if type(args[0]).__name__ == "TimeRequest" else "reply"
    tracer.gauge_max(f"runtime.wire:{kind}_bytes", len(result))


#: (span name, module, owner class or None, attribute, wrap options).  With
#: an owner the class attribute is replaced; without, the module global —
#: which for ``from x import f`` importers is the import-site binding.
HOOKS: Tuple[Tuple[str, str, Optional[str], str, Dict[str, Any]], ...] = (
    ("simulation.engine:step", "repro.simulation.engine", "SimulationEngine", "step", {}),
    ("simulation.engine:schedule", "repro.simulation.engine", "SimulationEngine",
     "schedule_at", {"observe": _heap_depth}),
    ("network.transport:send", "repro.network.transport", "Network", "send", {}),
    ("service.server:on_message", "repro.service.server", "TimeServer", "on_message",
     {"also": _answer_total}),
    ("service.server:start_round", "repro.service.server", "TimeServer", "_start_round", {}),
    ("security.auth:sign", "repro.security.auth", "MessageAuthenticator", "sign", {}),
    ("security.auth:verify", "repro.security.auth", "MessageAuthenticator", "verify", {}),
    ("security.auth:canonical_encode", "repro.security.auth", None, "canonical_encode", {}),
    ("security.auth:canonical_encode", "repro.runtime.wire", None, "canonical_encode", {}),
    ("core.policy:on_reply", "repro.core.mm", "MMPolicy", "on_reply", {}),
    ("core.policy:on_round_complete", "repro.core.mm", "MMPolicy", "on_round_complete", {}),
    ("core.policy:on_reply", "repro.core.im", "IMPolicy", "on_reply", {}),
    ("core.policy:on_round_complete", "repro.core.im", "IMPolicy", "on_round_complete", {}),
    ("core.marzullo:intersect", "repro.service.client", None, "intersect_tolerating", {}),
    ("core.marzullo:intersect", "repro.service.client", None, "ntp_select", {}),
    ("service.client:ask", "repro.service.client", "TimeClient", "ask", {}),
    ("service.client:on_message", "repro.service.client", "TimeClient", "on_message", {}),
    ("simulation.trace:record", "repro.simulation.trace", "TraceRecorder", "record", {}),
    ("runtime.wire:encode", "repro.runtime.wire", None, "encode_message",
     {"observe": _encoded_size}),
    ("runtime.wire:decode", "repro.runtime.wire", None, "decode_message", {}),
    ("runtime.transport:send", "repro.runtime.transport", "UdpTransport", "send", {}),
    ("runtime.transport:receive", "repro.runtime.transport", "_Protocol",
     "datagram_received", {}),
    ("kernel.batch:im2_round", "repro.kernel.shard", None, "im2_round", {}),
    ("kernel.shard:step_cycle", "repro.kernel.shard", "_BulkShard", "step_cycle", {}),
)


class Installed:
    """What :func:`install` changed, so :func:`remove` can undo exactly that."""

    def __init__(self) -> None:
        self.patched: List[Tuple[Any, str, Any]] = []  # (owner, attr, raw original)
        self.missing: List[str] = []  # hooks whose target no longer exists


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point in :data:`HOOKS`; returns the undo record.

    A hook whose target is gone (a later refactor renamed it) is listed in
    ``missing`` and reported with the results instead of stopping the run:
    its layer rows read zero and its time shows up in the parent's self
    time, which ``bench.unattributed_share`` and the row sums make visible.
    """
    done = Installed()
    for name, module_name, owner_name, attr, options in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            current = getattr(owner, attr)
        except (ImportError, AttributeError):
            done.missing.append(f"{module_name}.{owner_name or ''}.{attr}")
            continue
        # vars() keeps descriptors (and "inherited, not defined here") intact.
        done.patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, tracer.wrap(name, current, **options))
    return done


def remove(done: Installed) -> None:
    """Restore every attribute :func:`install` replaced, newest first."""
    for owner, attr, original in reversed(done.patched):
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
    done.patched.clear()
