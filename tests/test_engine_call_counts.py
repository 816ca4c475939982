"""A count guard on the heap plane's per-event cost (counts, not seconds).

Wall time on a shared host is noise; the number of Python-level calls an
event costs is not.  A small service (an IM mesh answering INTERSECT
clients, the shape of the ``service_clients_im`` benchmark) runs under
``sys.setprofile`` and:

* no ``__lt__`` from generated code (a ``dataclass(order=True)`` method)
  may run: the heap orders ``(time, seq, event)`` tuples in C;
* the Python calls per fired event into ``repro/simulation`` and
  ``repro/network`` stay at or below :data:`CEILING`.  With
  ``dataclass(order=True)`` events, a per-send lambda and per-send
  stream/key/link lookups this service cost 20.33 such calls per event
  (plus 9.00 generated-code ``__lt__`` calls); with tuple heap entries,
  slot events and the cached per-pair route it costs 11.44 (Python 3.11).
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.core.im import IMPolicy
from repro.network.delay import UniformDelay
from repro.network.topology import full_mesh
from repro.service.builder import ServerSpec, build_service
from repro.service.client import QueryStrategy

#: Calls per fired event into repro/simulation + repro/network.
CEILING = 11.5

LAYERS = ("/repro/simulation/", "/repro/network/")


def _build():
    graph = full_mesh(4)
    for k in range(4):
        graph.add_edges_from((f"C{k + 1}", f"S{(k + j) % 4 + 1}") for j in range(3))
    service = build_service(
        graph,
        [ServerSpec(name=f"S{k + 1}", delta=1e-5, skew=(k - 1.5) * 4e-6) for k in range(4)],
        policy=IMPolicy(),
        tau=10.0,
        seed=3,
        lan_delay=UniformDelay(0.01),
    )
    for k in range(4):
        client = service.add_client(f"C{k + 1}")
        client.start()
        servers = [f"S{(k + j) % 4 + 1}" for j in range(3)]

        def tick(client=client, servers=servers) -> None:
            client.ask(servers, strategy=QueryStrategy.INTERSECT)
            client.call_after(0.25, tick)

        client.engine.schedule_after(0.05 * k, tick)
    return service


def _profile(service, until: float):
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename, code.co_name)] += 1

    events = service.engine.events_processed
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        service.run_until(until)
    finally:
        sys.setprofile(previous)
    return calls, service.engine.events_processed - events


def test_heap_plane_calls_per_event_stay_under_the_ceiling():
    service = _build()
    service.run_until(10.0)  # warm-up: first poll rounds, routes cached
    calls, events = _profile(service, 70.0)
    assert events > 5_000
    generated_lt = sum(
        n for (filename, name), n in calls.items()
        if filename.startswith("<") and name == "__lt__"
    )
    assert generated_lt == 0
    layered = sum(
        n for (filename, _name), n in calls.items()
        if any(layer in filename.replace("\\", "/") for layer in LAYERS)
    )
    assert layered / events <= CEILING, (layered / events, events)
