"""Run telemetry: the service event log and its observer.

Every served run gets one :class:`EventLog` — an append-only, in-memory
sequence of JSON-ready event dicts with a condition variable, so any number
of readers can replay the sequence from event 0 and then follow the run
live.  The events are produced by a :class:`ServiceEventObserver` attached
to the run through the ordinary duck-typed observer protocol
(:mod:`repro.experiments.observers`): each hook is serialized into one
event of schema ``repro-service-event/1`` and appended.

Event schema (one NDJSON line per event on the wire)::

    {
      "format": "repro-service-event/1",
      "run_id": "d0a7b3c41f2e-0001",
      "seq":    17,                      // 0-based position in the log
      "event":  "step",                  // see the table below
      "data":   { ... }                  // hook-specific payload
    }

=============  ==============================================================
``run_start``  ``{scenario, initial_fleet, patrol_cars, num_seeds,
               horizon_s, kernel}`` — once, when the fleet is populated;
               ``kernel`` is the engine's step path (``cc``, ``numpy`` or
               ``scalar``), and ``kernel_fallback_reason`` says why when
               it is not ``cc``
``step``       ``{step, time_s, inside, count}`` — after every engine step:
               step index, simulated clock, vehicles inside, the protocol's
               global count (the live convergence counter)
``converged``  ``{time_s}`` — when convergence is first reached
``run_end``    ``{result}`` — the full ``RunResult.as_dict()`` record
``sweep_start``  ``{total_cells, volumes, seed_counts, replications}``
``cell_done``  ``{index, total, volume, seeds, all_exact, all_converged}``
``cell_failed``  ``{index, total, attempt, error}`` — one failed attempt
``sweep_end``  ``{cells, all_exact, health}`` — health is the
               ``SweepHealth.as_dict()`` supervision report
=============  ==============================================================

The observer is marked ``_repro_observer_essential``: the generic
disable-on-raise guard (``repro.sim.simulator._observer_call``) must never
mute it — a muted telemetry observer would freeze every status report and
event stream while the run kept going.  In exchange it guarantees its own
robustness: appending to the in-memory log cannot fail, and *client* sinks
registered via :meth:`EventLog.add_sink` are isolated — a sink that raises
is dropped (with a warning) and the run never sees the exception.  A slow
streaming client costs nothing either way, because HTTP streaming readers
pull from the log at their own pace instead of being pushed to.
"""

from __future__ import annotations

import threading
import warnings
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional

from ..serde import to_jsonable

if TYPE_CHECKING:
    from ..sim.results import RunResult, SweepCell, SweepResult
    from ..sim.runner import SweepSpec
    from ..sim.simulator import Simulation

__all__ = ["EVENT_FORMAT", "EventLog", "ServiceEventObserver"]

#: Schema tag carried by every streamed event.
EVENT_FORMAT = "repro-service-event/1"

#: A push-subscriber receiving each event dict as it is appended.
_Sink = Callable[[Dict[str, Any]], None]


class EventLog:
    """Append-only event sequence for one run, with blocking readers.

    Writers call :meth:`append` (the event observer) and :meth:`close` (the
    job manager, when the run reaches a terminal state).  Readers either
    take a :meth:`snapshot` or iterate :meth:`iter_events`, which yields
    every event from ``start`` and blocks for new ones until the log is
    closed — the pull side of the streaming endpoints.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._events: List[Dict[str, Any]] = []
        self._closed = False
        self._cond = threading.Condition()
        self._sinks: List[_Sink] = []

    def __len__(self) -> int:
        with self._cond:
            return len(self._events)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    # --------------------------------------------------------------- writers
    def append(self, event: str, data: Dict[str, Any]) -> Dict[str, Any]:
        """Append one event; returns the complete, sequenced record."""
        with self._cond:
            record = {
                "format": EVENT_FORMAT,
                "run_id": self.run_id,
                "seq": len(self._events),
                "event": event,
                "data": data,
            }
            self._events.append(record)
            sinks = list(self._sinks)
            self._cond.notify_all()
        self._deliver(record, sinks)
        return record

    def close(self) -> None:
        """Mark the log complete; blocked readers drain and stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ----------------------------------------------------------- push sinks
    def add_sink(self, sink: _Sink) -> None:
        """Register a push-subscriber for subsequent events.

        Sinks are a convenience for in-process listeners (the job manager's
        tests, future websockets).  A sink that raises is dropped with a
        warning — client callbacks can never kill the observed run.
        """
        with self._cond:
            self._sinks.append(sink)

    def remove_sink(self, sink: _Sink) -> None:
        with self._cond:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def _deliver(self, record: Dict[str, Any], sinks: List[_Sink]) -> None:
        for sink in sinks:
            try:
                sink(record)
            except Exception as exc:
                self.remove_sink(sink)
                warnings.warn(
                    f"event sink {sink!r} for run {self.run_id} raised "
                    f"{type(exc).__name__}: {exc}; dropping this sink "
                    "(the run continues)",
                    stacklevel=3,
                )

    # --------------------------------------------------------------- readers
    def snapshot(self) -> List[Dict[str, Any]]:
        """All events appended so far (a copy; safe to mutate)."""
        with self._cond:
            return list(self._events)

    def wait_beyond(self, count: int, timeout: Optional[float] = None) -> bool:
        """Block until the log holds more than ``count`` events or closes.

        Returns True when there is something new to read (or the log is
        closed), False on timeout — the primitive streaming pumps build
        their keepalive loops on.
        """
        with self._cond:
            if len(self._events) > count or self._closed:
                return True
            return self._cond.wait_for(
                lambda: len(self._events) > count or self._closed, timeout
            )

    def events_from(self, start: int) -> List[Dict[str, Any]]:
        """Events with ``seq >= start`` appended so far (non-blocking)."""
        with self._cond:
            return list(self._events[start:])

    def iter_events(self, start: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield events from ``seq == start``, blocking until closed."""
        seq = start
        while True:
            batch = self.events_from(seq)
            if batch:
                seq += len(batch)
                for record in batch:
                    yield record
                continue
            if self.closed:
                return
            self.wait_beyond(seq)


class ServiceEventObserver:
    """Duck-typed observer serializing every hook into an :class:`EventLog`.

    Also keeps the cheap live counters (steps, simulated clock, protocol
    count, convergence time, sweep cell progress) that the status endpoint
    reports without touching the run, by mutating the ``progress`` mapping
    it was given (plain dict writes — atomic under the GIL).
    """

    # Exempt from the disable-on-raise observer guard: muting telemetry
    # would freeze status/streams while the run kept going.  The class
    # honours the bargain by never raising — log appends are in-memory and
    # client sinks are isolated by EventLog._deliver.
    _repro_observer_essential = True

    def __init__(self, log: EventLog, progress: Optional[Dict[str, Any]] = None) -> None:
        self.log = log
        self.progress = progress if progress is not None else {}

    # ------------------------------------------------------------ run hooks
    def on_run_start(self, sim: "Simulation") -> None:
        data: Dict[str, Any] = {
            "scenario": sim.config.name,
            "initial_fleet": sim.initial_fleet_size,
            "patrol_cars": sim.patrol_count,
            "num_seeds": len(sim.seeds),
            "horizon_s": sim.config.max_duration_s,
            "kernel": sim.engine.kernel_backend,
        }
        reason = sim.engine.kernel_fallback_reason
        if reason is not None:
            data["kernel_fallback_reason"] = reason
        self.log.append("run_start", data)

    def on_step(self, sim: "Simulation", step_index: int) -> None:
        count = sim.protocol.global_count()
        self.progress["steps"] = step_index + 1
        self.progress["simulated_s"] = sim.engine.time_s
        self.progress["count"] = count
        self.log.append(
            "step",
            {
                "step": step_index,
                "time_s": sim.engine.time_s,
                "inside": sim.engine.inside_count(),
                "count": count,
            },
        )

    def on_converged(self, sim: "Simulation", time_s: float) -> None:
        self.progress["converged_time_s"] = time_s
        self.log.append("converged", {"time_s": time_s})

    def on_run_end(self, sim: "Simulation", result: "RunResult") -> None:
        self.log.append("run_end", {"result": result.as_dict()})

    # ---------------------------------------------------------- sweep hooks
    def on_sweep_start(self, spec: "SweepSpec", total_cells: int) -> None:
        self.progress["cells_total"] = total_cells
        self.progress["cells_done"] = 0
        self.log.append(
            "sweep_start",
            {
                "total_cells": total_cells,
                "volumes": to_jsonable(spec.volumes),
                "seed_counts": to_jsonable(spec.seed_counts),
                "replications": spec.replications,
            },
        )

    def on_cell_done(self, cell: "SweepCell", index: int, total: int) -> None:
        self.progress["cells_done"] = self.progress.get("cells_done", 0) + 1
        self.log.append(
            "cell_done",
            {
                "index": index,
                "total": total,
                "volume": cell.volume_fraction,
                "seeds": cell.num_seeds,
                "all_exact": cell.all_exact,
                "all_converged": cell.all_converged,
            },
        )

    def on_cell_failed(
        self, exc: BaseException, attempt: int, index: int, total: int
    ) -> None:
        self.log.append(
            "cell_failed",
            {
                "index": index,
                "total": total,
                "attempt": attempt,
                "error": f"{type(exc).__name__}: {exc}",
            },
        )

    def on_sweep_end(self, result: "SweepResult") -> None:
        health = None if result.health is None else result.health.as_dict()
        self.progress["health"] = health
        self.log.append(
            "sweep_end",
            {
                "cells": len(result.cells),
                "all_exact": result.all_exact,
                "health": health,
            },
        )
