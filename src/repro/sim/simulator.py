"""The simulation facade: engine + protocol + collection + patrol + metrics.

:class:`Simulation` is the object the examples, tests and benchmarks use.  It
owns one scenario: a road network, a :class:`ScenarioConfig` and all the
component instances derived from them, and it knows how to

* populate the network with the initial fleet (and patrol cars),
* step the engine, feed the event stream to the counting protocol, inject
  border arrivals (open systems),
* detect convergence of the constitution (Alg. 1/3/5) and of the collection
  (Alg. 2/4),
* produce a :class:`~repro.sim.results.RunResult` with the timing and
  accuracy figures the paper reports.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.convergence import ConvergenceMonitor
from ..core.patrol import PatrolPlan
from ..core.protocol import CountingProtocol
from ..core.seeds import select_seeds
from ..errors import ConfigurationError, ConvergenceError
from ..mobility.demand import DemandModel
from ..mobility.engine import TrafficEngine
from ..mobility.intersections import IntersectionPolicy
from ..roadnet.graph import RoadNetwork
from ..wireless.channel import BernoulliLossChannel, PerfectChannel
from ..wireless.exchange import ExchangeService
from .config import ScenarioConfig
from .metrics import summarize_run
from .results import RunResult
from .rng import RngFactory

__all__ = ["Simulation", "notify_observers", "notify_observers_stop"]


#: Attribute marking an observer whose callback raised: it is skipped for
#: the rest of the run instead of aborting the simulation/sweep.
_OBSERVER_DISABLED = "_repro_observer_disabled"

#: Class attribute opting an observer *out* of the disable-on-raise guard.
#: For load-bearing observers (the result store's cell recorder): their
#: failures are real failures — a store that cannot persist a cell must
#: abort the sweep, not be silently muted like a buggy progress reporter.
_OBSERVER_ESSENTIAL = "_repro_observer_essential"


def _observer_call(obs: object, hook: str, args: Tuple[object, ...]) -> object:
    """Invoke one observer hook, disabling the observer if it raises.

    Observers watch a run; they must never be able to kill it.  Before this
    guard, one raising observer aborted the whole sweep and discarded every
    completed-but-unstored cell.  Now the exception is caught, a warning
    names the offender once, and the observer is disabled for the rest of
    the run (an ad-hoc attribute, so duck-typed observers work too).
    ``KeyboardInterrupt`` and friends still propagate — only ``Exception``
    is an observer bug rather than a user intention.  Observers marked
    ``_repro_observer_essential`` (the store recorder) are exempt: their
    exceptions propagate.
    """
    if getattr(obs, _OBSERVER_DISABLED, False):
        return None
    callback = getattr(obs, hook, None)
    if callback is None:
        return None
    if getattr(obs, _OBSERVER_ESSENTIAL, False):
        return callback(*args)
    try:
        return callback(*args)
    except Exception as exc:
        try:
            setattr(obs, _OBSERVER_DISABLED, True)
        except Exception:
            pass  # observers with __slots__: warn every time instead
        warnings.warn(
            f"observer {type(obs).__name__}.{hook} raised "
            f"{type(exc).__name__}: {exc}; disabling this observer for the "
            "rest of the run",
            stacklevel=4,
        )
        return None


def notify_observers(observers: Sequence[object], hook: str, *args: object) -> None:
    """Invoke ``hook`` on every observer that defines it (duck-typed).

    Observers are any objects exposing the callbacks they care about (see
    ``repro.experiments.observers.Observer`` for the reference base class);
    missing hooks are simply skipped, so ad-hoc callback holders work too.
    A raising observer is disabled (with a warning) rather than allowed to
    abort the run — see :func:`_observer_call`.
    """
    for obs in observers:
        _observer_call(obs, hook, args)


def notify_observers_stop(observers: Sequence[object], hook: str, *args: object) -> bool:
    """Like :func:`notify_observers`, but collect early-stop requests.

    Every observer is invoked (a stop request never short-circuits later
    observers — progress reporters and result recorders must still see the
    event); returns True when any callback returned a truthy value.
    """
    stop = False
    for obs in observers:
        if _observer_call(obs, hook, args):
            stop = True
    return stop


class Simulation:
    """One configured counting experiment on a road network.

    Parameters
    ----------
    net:
        The road network.  For open-system scenarios it must declare gates.
    config:
        The scenario configuration.  ``config.mobility.vectorized`` selects
        the engine hot path and ``config.batched`` selects the protocol
        pipeline (batched per-step event processing vs. the scalar per-event
        reference); every combination is bit-for-bit equivalent and pinned by
        the golden-trace suites.
    seeds:
        Explicit seed checkpoints; when omitted they are selected according
        to ``config.num_seeds`` / ``config.seed_strategy``.
    """

    def __init__(
        self,
        net: RoadNetwork,
        config: Optional[ScenarioConfig] = None,
        *,
        seeds: Optional[Sequence[object]] = None,
    ) -> None:
        self.net = net
        self.config = config if config is not None else ScenarioConfig()
        if self.config.open_system and not net.is_open_system:
            raise ConfigurationError(
                "open_system scenarios require a network with border gates"
            )
        self.rngs = RngFactory(self.config.rng_seed)

        # --- seeds -----------------------------------------------------------
        if seeds is not None:
            self.seeds = list(seeds)
        else:
            self.seeds = select_seeds(
                net,
                self.config.num_seeds,
                self.rngs.generator("seeds"),
                strategy=self.config.seed_strategy,
            )

        # --- wireless --------------------------------------------------------
        wireless = self.config.wireless
        channel = (
            PerfectChannel()
            # repro-lint: ignore[D4] -- exact sentinel: only strictly-zero loss is lossless
            if wireless.loss_probability == 0.0
            else BernoulliLossChannel(wireless.loss_probability)
        )
        self.exchange = ExchangeService(
            channel,
            self.rngs.generator("wireless"),
            attempts_per_contact=wireless.attempts_per_contact,
            reliable_within_window=wireless.reliable_within_window,
        )

        # --- engine ----------------------------------------------------------
        mobility = self.config.mobility
        self.engine = TrafficEngine(
            net,
            self.rngs.generator("engine"),
            dt_s=mobility.dt_s,
            policy=IntersectionPolicy(
                admissions_per_step=mobility.admissions_per_step,
                crossing_delay_s=mobility.crossing_delay_s,
                name="scenario",
            ),
            allow_overtaking=mobility.allow_overtaking,
            vectorized=mobility.vectorized,
            compiled=mobility.compiled,
        )

        # --- demand ----------------------------------------------------------
        self.demand = DemandModel(net, self.config.demand, self.rngs.generator("demand"))

        # --- protocol --------------------------------------------------------
        self.protocol = CountingProtocol(
            net,
            self.seeds,
            self.rngs.generator("recognition"),
            exchange=self.exchange,
            config=self.config.protocol,
        )
        self.monitor = ConvergenceMonitor(self.protocol)

        self._populated = False
        self._initial_fleet_size = 0
        self._patrol_count = 0
        self._stopped_early = False

    # ------------------------------------------------------------- population
    def populate(self) -> None:
        """Insert the initial fleet and patrol cars (idempotent)."""
        if self._populated:
            return
        specs = self.demand.initial_fleet(open_system=self.config.open_system)
        self.engine.spawn_initial(specs)
        self._initial_fleet_size = len(specs)

        patrol_rng = self.rngs.generator("patrol")
        for router in self.config.patrol.routers(self.net, patrol_rng):
            self.engine.spawn_patrol(router, router.start_node)
            self._patrol_count += 1
        self._populated = True

    @property
    def initial_fleet_size(self) -> int:
        return self._initial_fleet_size

    @property
    def patrol_count(self) -> int:
        return self._patrol_count

    @property
    def stopped_early(self) -> bool:
        """Whether the last :meth:`run` was cut short by an observer.

        An early-stopped result depends on the observer, not only on the
        configuration, so it must not be treated as the scenario's canonical
        outcome (the result store refuses to record such runs).
        """
        return self._stopped_early

    # ------------------------------------------------------------------ loop
    def step(self) -> None:
        """Advance the scenario by one engine time step.

        The engine emits the step's events, after its border arrivals, as
        one :class:`~repro.mobility.events.StepBatch` — plain crossings as
        indices into parallel arrays, no per-crossing event objects — whose
        whole stream is handed to the counting protocol in one call: with
        ``config.batched`` (the default) the batched pipeline
        (:meth:`~repro.core.protocol.CountingProtocol.process_batch`),
        otherwise the scalar per-event reference path
        (:meth:`~repro.core.protocol.CountingProtocol.handle_events`) over
        its materialized event objects.  The two are bit-for-bit equivalent.
        """
        if not self._populated:
            self.populate()
        injected = []
        if self.config.open_system:
            for spec in self.demand.border_arrivals(self.engine.dt_s, t_s=self.engine.time_s):
                _vehicle, events = self.engine.spawn(spec)
                injected.extend(events)
        batch = self.engine.step_batch()
        if injected:
            batch.items[:0] = injected
        # Only the batch's crossing arrays can carry traffic: the injected
        # gate crossings come in with from_node=None, which the monitor
        # ignores.
        note_traffic = self.monitor.note_traffic
        time_s = batch.time_s
        for from_node, node in zip(batch.cross_from, batch.cross_node):
            note_traffic(from_node, node, time_s)
        if self.config.batched:
            self.protocol.process_batch(batch)
        else:
            self.protocol.handle_events(batch.iter_events())
        self.monitor.observe(self.engine.time_s)

    def run(
        self,
        *,
        raise_on_timeout: bool = False,
        observers: Sequence[object] = (),
    ) -> RunResult:
        """Run until convergence (plus ``settle_extra_s``) or the horizon.

        Convergence means: every checkpoint's counting stabilized and, when
        collection is enabled, every seed has obtained its subtree total.

        ``observers`` are notified as the run progresses (duck-typed; see
        ``repro.experiments.observers``): ``on_run_start(sim)`` once,
        ``on_step(sim, step_index)`` after every engine step,
        ``on_converged(sim, time_s)`` when convergence is first reached, and
        ``on_run_end(sim, result)`` with the final result.  An ``on_step``
        callback returning a truthy value stops the run early (the partial
        :class:`RunResult` is still produced); observers never perturb the
        simulation itself, so an observed run is bit-for-bit identical to an
        unobserved one.
        """
        if not self._populated:
            self.populate()
        max_steps = int(round(self.config.max_duration_s / self.engine.dt_s))
        settle_steps = int(round(self.config.settle_extra_s / self.engine.dt_s))
        settled = 0
        converged = False
        self._stopped_early = False
        notify_observers(observers, "on_run_start", self)
        for step_index in range(max_steps):
            self.step()
            if self._converged():
                if not converged:
                    converged = True
                    notify_observers(observers, "on_converged", self, self.engine.time_s)
                if settled >= settle_steps:
                    break
                settled += 1
            if observers and notify_observers_stop(observers, "on_step", self, step_index):
                self._stopped_early = True
                break
        if not converged and raise_on_timeout:
            raise ConvergenceError(
                f"scenario {self.config.name!r} did not converge within "
                f"{self.config.max_duration_s:.0f} simulated seconds"
            )
        result = self.result()
        notify_observers(observers, "on_run_end", self, result)
        return result

    def run_for(self, duration_s: float) -> None:
        """Run for a fixed simulated duration regardless of convergence."""
        if not self._populated:
            self.populate()
        steps = int(round(duration_s / self.engine.dt_s))
        for _ in range(steps):
            self.step()

    def _converged(self) -> bool:
        if not self.protocol.all_stable():
            return False
        if self.config.protocol.collection_enabled and not self.protocol.collection.all_seeds_done():
            return False
        return True

    # --------------------------------------------------------------- results
    def ground_truth(self) -> int:
        """The number of target vehicles the count should equal.

        Closed system: every (target) vehicle ever inserted.  Open system:
        the (target) vehicles currently inside — the complete-status
        invariant of Definition 1 / Corollary 2.
        """
        target = self.config.protocol.count_target
        if target is None or target.is_wildcard:
            # O(1): the engine tracks these populations incrementally.
            if self.config.open_system:
                return self.engine.inside_count()
            return self.engine.total_spawned()
        # Iterate without materializing intermediate lists (the engine's
        # iterator variant of active_vehicles).
        if self.config.open_system:
            return sum(
                1
                for v in self.engine.iter_active(include_patrol=False)
                if target.matches(v.signature)
            )
        inside = sum(
            1
            for v in self.engine.iter_active(include_patrol=False)
            if target.matches(v.signature)
        )
        departed = sum(
            1
            for v in self.engine.iter_departed()
            if not v.is_patrol and target.matches(v.signature)
        )
        return inside + departed

    def result(self) -> RunResult:
        """Summarize the current state into a :class:`RunResult`."""
        return summarize_run(self)
