"""Experiment runner: parameter sweeps with replications, under supervision.

The paper's evaluation sweeps two axes — traffic volume (10–100 % of the
daily average) and number of seeds (1–10) — and reports max / min / average
elapsed times.  :class:`ExperimentRunner` reproduces that structure: for every
``(volume, seeds)`` cell it runs ``replications`` independent simulations
(fresh RNG seeds, fresh random seed-checkpoint draws) and aggregates the
results into a :class:`~repro.sim.results.SweepResult` that the figure
generators and benchmarks consume.

Sweep cells are mutually independent (every run builds a fresh network and
derives its RNG seed deterministically from the cell coordinates), so the
runner can fan them out over a :class:`concurrent.futures.ProcessPoolExecutor`
with ``parallel=True`` — the results are identical to the serial order,
cell for cell.

Execution is *supervised*: a :class:`RetryPolicy` gives each cell a bounded
number of attempts with deterministic exponential backoff, an optional
per-await timeout (enforced with ``future.result(timeout=...)`` on the pool
path — a hung worker is killed and the pool respawned instead of blocking
the sweep forever), a pool-restart budget after which execution
degrades to the serial path, and ``keep_going`` semantics under which a cell
that exhausts its retries is recorded as a failure instead of aborting the
sweep.  What the supervisor did is reported in the
:class:`~repro.sim.results.SweepHealth` attached to every sweep's result.
Because a cell's result is a pure function of its coordinates, no amount of
retrying, pool-restarting or reordering can change a completed cell — the
chaos test suite proves it by injecting deterministic fault schedules
(see :mod:`repro.experiments.faults`) and comparing bit for bit.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..roadnet.graph import RoadNetwork
from .config import ScenarioConfig
from .results import FailedCell, RunResult, SweepCell, SweepHealth, SweepResult
from .simulator import Simulation, notify_observers, notify_observers_stop

__all__ = [
    "SweepSpec",
    "RetryPolicy",
    "ExperimentRunner",
    "run_single",
    "replication_seed",
]

NetworkFactory = Callable[[], RoadNetwork]

#: Smallest pending-cell count worth paying process-pool startup for; below
#: this (or on a single-CPU host) the sweep runs serially — spawning workers
#: for a tiny grid is strictly slower than just running it.
MIN_PARALLEL_CELLS = 4


@dataclass(frozen=True)
class SweepSpec:
    """The axes of one sweep.

    ``volumes`` are traffic-volume fractions, ``seed_counts`` the numbers of
    seed checkpoints, ``replications`` how many independent runs per cell.
    """

    volumes: Sequence[float] = (0.2, 0.6, 1.0)
    seed_counts: Sequence[int] = (1, 4, 8)
    replications: int = 2

    def __post_init__(self) -> None:
        if not self.volumes:
            raise ExperimentError("a sweep needs at least one traffic volume")
        if not self.seed_counts:
            raise ExperimentError("a sweep needs at least one seed count")
        if self.replications < 1:
            raise ExperimentError("replications must be at least 1")
        if any(v <= 0 for v in self.volumes):
            raise ExperimentError("traffic volumes must be positive")
        if any(s < 1 for s in self.seed_counts):
            raise ExperimentError("seed counts must be at least 1")

    @classmethod
    def paper_full(cls, replications: int = 3) -> "SweepSpec":
        """The full grid of the paper's figures (10 volumes x 10 seed counts)."""
        return cls(
            volumes=tuple(v / 10.0 for v in range(1, 11)),
            seed_counts=tuple(range(1, 11)),
            replications=replications,
        )

    @classmethod
    def smoke(cls) -> "SweepSpec":
        """A tiny sweep for tests."""
        return cls(volumes=(0.5,), seed_counts=(1,), replications=1)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (see ``repro.serde`` for the conventions)."""
        from ..serde import shallow_asdict

        return shallow_asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_dict`; missing keys use the defaults."""
        from ..serde import kwargs_from

        return cls(**kwargs_from(cls, data))

    @property
    def cell_axes(self) -> List[Tuple[float, int]]:
        """The sweep's ``(volume, seeds)`` cells in volume-major order."""
        return [(volume, seeds) for volume in self.volumes for seeds in self.seed_counts]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runner fights to complete each sweep cell.

    The default policy is the historical behavior: one attempt, no timeout,
    first failure aborts the sweep.

    Parameters
    ----------
    max_attempts:
        Total tries per cell (1 = no retries).  Retrying is always safe:
        a cell's result is a pure function of its coordinates, so attempt
        N returns bit-for-bit what attempt 1 would have.
    backoff_base_s, backoff_factor:
        Deterministic exponential backoff between a cell's attempts:
        attempt ``n`` failing sleeps ``base * factor**(n-1)`` seconds before
        the next try.  No jitter — reliability code must be as reproducible
        as the simulation it supervises.
    cell_timeout_s:
        Hang-detection budget, enforced on the pool path via
        ``future.result(timeout=...)``: a chunk whose await exceeds the
        budget has its workers killed and the pool respawned, and the
        timed-out cell is charged one attempt.  The budget is applied to
        each await in turn, not to a cell's own wall clock — a cell whose
        future is harvested late (behind slow-but-healthy cells) may run
        longer than the budget before its await even begins, but once the
        sweep is otherwise quiet a hung worker is reaped within one budget.
        ``None`` disables the watchdog.  The serial path cannot preempt a
        running cell, so the timeout only protects pool execution.
    pool_restart_budget:
        How many times a broken or hung pool is respawned before the
        remaining cells degrade to the serial path.
    keep_going:
        When a cell exhausts ``max_attempts``: record it as a
        :class:`~repro.sim.results.FailedCell` in the sweep's health and
        carry on (True) or abort the sweep with :class:`ExperimentError`
        (False).
    """

    max_attempts: int = 1
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    cell_timeout_s: Optional[float] = None
    pool_restart_budget: int = 2
    keep_going: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError("max_attempts must be at least 1")
        if self.backoff_base_s < 0:
            raise ExperimentError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ExperimentError("backoff_factor must be at least 1")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ExperimentError("cell_timeout_s must be positive")
        if self.pool_restart_budget < 0:
            raise ExperimentError("pool_restart_budget must be non-negative")

    def backoff_s(self, attempt: int) -> float:
        """Sleep before the attempt after ``attempt`` failed (1-based)."""
        # repro-lint: ignore[D4] -- exact sentinel: 0.0 disables backoff entirely
        if self.backoff_base_s == 0.0:
            return 0.0
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        from ..serde import shallow_asdict

        return shallow_asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RetryPolicy":
        """Inverse of :meth:`to_dict`; missing keys use the defaults."""
        from ..serde import kwargs_from

        return cls(**kwargs_from(cls, data))


def run_single(
    network_factory: NetworkFactory,
    config: ScenarioConfig,
    *,
    seeds: Optional[Sequence[object]] = None,
) -> RunResult:
    """Run one scenario on a freshly built network and return its result."""
    net = network_factory()
    sim = Simulation(net, config, seeds=seeds)
    return sim.run()


def _deserialization_canary(*_args: object) -> bool:
    """No-op worker task proving the factory/config unpickle in a worker."""
    return True


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the SplitMix64 avalanche mix (a 64-bit bijection)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def replication_seed(
    base_seed: int, volume_fraction: float, num_seeds: int, replication: int
) -> int:
    """The root RNG seed of one ``(volume, seeds, replication)`` sweep run.

    The seed is derived by chaining a 64-bit avalanche mix over the cell
    coordinates — the volume enters through its exact IEEE-754 bit pattern,
    so the derivation is platform-stable (unlike ``hash``) and collision-free
    in practice (unlike the previous ``hash(...) % 1009``, which folded every
    cell into 1009 buckets and could hand two cells the same seed).
    """
    volume_bits = int.from_bytes(struct.pack("<d", float(volume_fraction)), "little")
    mixed = _splitmix64(volume_bits)
    mixed = _splitmix64(mixed ^ (int(num_seeds) & _MASK64))
    mixed = _splitmix64(mixed ^ (int(replication) & _MASK64))
    return int(base_seed) + mixed


def _run_cells_chunk_job(
    network_factory: NetworkFactory,
    base_config: ScenarioConfig,
    items: Sequence[Tuple[int, float, int, int]],
    replications: int,
    fault_plan: Optional[object] = None,
) -> List[Tuple[int, str, object]]:
    """Run a chunk of cells in one worker task, salvaging partial progress.

    ``items`` are ``(cell_index, volume, seeds, attempt)`` tuples.  Each
    cell is attempted independently and reported as ``(index, "ok", cell)``
    or ``(index, "error", message)`` — one raising cell does not discard its
    chunk-mates' finished work (partial-chunk salvage).  Chunking amortizes
    the per-task pickling/IPC overhead that made the one-future-per-cell
    fan-out no faster than the serial loop on short cells; each cell's
    result is still a pure function of its coordinates.

    ``fault_plan`` is the chaos-testing hook (see
    :mod:`repro.experiments.faults`); a scheduled ``hang`` or ``kill`` fault
    escapes this function by construction, exactly like the real stall or
    worker death it simulates.
    """
    out: List[Tuple[int, str, object]] = []
    for index, volume, seeds, attempt in items:
        try:
            if fault_plan is not None:
                fault_plan.apply(index, attempt)
            cell = _run_cell_job(
                network_factory, base_config, volume, seeds, replications
            )
        except Exception as exc:  # salvaged per cell; supervisor decides retry
            out.append((index, "error", f"{type(exc).__name__}: {exc}"))
        else:
            out.append((index, "ok", cell))
    return out


def _run_cell_job(
    network_factory: NetworkFactory,
    base_config: ScenarioConfig,
    volume_fraction: float,
    num_seeds: int,
    replications: int,
) -> SweepCell:
    """Run one (volume, seeds) cell — shared by the serial and parallel paths.

    The per-replication RNG seed is derived purely from the base seed and
    the cell coordinates (:func:`replication_seed` is platform-stable), so
    the cell's result does not depend on which process — or in which order —
    it runs.
    """
    runs: List[RunResult] = []
    for rep in range(replications):
        config = (
            base_config.with_volume(volume_fraction)
            .with_seeds(num_seeds)
            .with_rng_seed(
                replication_seed(base_config.rng_seed, volume_fraction, num_seeds, rep)
            )
        )
        runs.append(run_single(network_factory, config))
    return SweepCell(
        volume_fraction=volume_fraction, num_seeds=num_seeds, runs=tuple(runs)
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung or already dead.

    ``shutdown`` alone would block behind a hung worker forever, so the
    worker processes are killed first (via the executor's process table —
    there is no public API for this, but the attribute has been stable
    across every supported CPython) and the executor is then torn down
    without waiting.
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for proc in list(processes.values()):
            try:
                proc.kill()
            except Exception:
                pass  # already dead
    pool.shutdown(wait=False, cancel_futures=True)


class ExperimentRunner:
    """Runs a (volume x seeds x replication) sweep of one base scenario.

    Parameters
    ----------
    network_factory:
        Zero-argument callable building the road network.  It is called for
        every run so that runs cannot leak state into each other.  With
        ``parallel=True`` it must be picklable (a module-level function or
        functools.partial of one, not a lambda or closure).
    base_config:
        The scenario configuration shared by all cells; the runner only
        varies ``demand.volume_fraction``, ``num_seeds`` and ``rng_seed``.
    parallel:
        Fan the sweep's cells out over a process pool.  Cell results are
        identical to serial execution; only the wall clock changes.  Falls
        back to serial (with a warning) when the factory or config cannot
        be pickled or no process pool can be started.
    max_workers:
        Pool size cap for ``parallel=True``; defaults to
        ``min(#cells, os.cpu_count())``.
    retry:
        The :class:`RetryPolicy` supervising cell execution; the default is
        the historical fail-fast behavior (one attempt, no timeout).
    fault_plan:
        Chaos-testing hook (a :class:`repro.experiments.faults.FaultPlan`):
        injects deterministic failures into chosen cell attempts.  Never set
        outside fault-injection tests.
    """

    def __init__(
        self,
        network_factory: NetworkFactory,
        base_config: ScenarioConfig,
        *,
        name: Optional[str] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[object] = None,
    ) -> None:
        self.network_factory = network_factory
        self.base_config = base_config
        self.name = name or base_config.name
        self.parallel = bool(parallel)
        self.max_workers = max_workers
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        #: Whether the most recent :meth:`run_sweep` actually executed cells
        #: on a process pool (observed, not predicted: stays False when the
        #: parallel heuristics, the pickling checks or a broken pool forced
        #: the serial path).  None before any sweep has run.
        self.used_process_pool: Optional[bool] = None

    def run_cell(
        self, volume_fraction: float, num_seeds: int, replications: int
    ) -> SweepCell:
        """Run all replications of one (volume, seeds) cell."""
        return _run_cell_job(
            self.network_factory, self.base_config,
            volume_fraction, num_seeds, replications,
        )

    def run_sweep(
        self,
        spec: SweepSpec,
        *,
        observers: Sequence[object] = (),
        skip: Optional[Callable[[float, int], Optional[SweepCell]]] = None,
    ) -> SweepResult:
        """Run the full sweep and return the aggregated result.

        Cells appear in volume-major order regardless of execution mode, and
        the returned :class:`SweepResult` carries a
        :class:`~repro.sim.results.SweepHealth` describing what supervision
        had to do (attempts, retries, reaped timeouts, pool restarts, failed
        cells under ``keep_going``).

        ``observers`` are notified at cell granularity (duck-typed; see
        ``repro.experiments.observers``): ``on_sweep_start(spec, total)``
        once, ``on_cell_done(cell, index, total)`` for every finished cell
        (index in volume-major order), ``on_cell_failed(exc, attempt, index,
        total)`` for every failed attempt, and ``on_sweep_end(result)`` at
        the end.  An ``on_cell_done`` callback returning a truthy value
        cancels the remaining cells; the partial :class:`SweepResult` holds
        the cells completed so far — a store-backed resume can finish it
        later, cell for cell identical to an uninterrupted run, because
        every cell's result is a pure function of its coordinates.

        ``skip`` implements that resume: a callable mapping ``(volume,
        seeds)`` to an already-known :class:`SweepCell` (or None).  Skipped
        cells are not re-run; they are still reported through
        ``on_cell_done`` so progress accounting stays whole.
        """
        cells_axes = spec.cell_axes
        total = len(cells_axes)
        self.used_process_pool = False
        health = SweepHealth()
        notify_observers(observers, "on_sweep_start", spec, total)
        cells: List[Optional[SweepCell]] = [None] * total
        pending: List[int] = []
        stopped = False
        for idx, (volume, seeds) in enumerate(cells_axes):
            cell = skip(volume, seeds) if skip is not None else None
            if cell is None:
                pending.append(idx)
                continue
            cells[idx] = cell
            if notify_observers_stop(observers, "on_cell_done", cell, idx, total):
                stopped = True
                break
        if not stopped and pending:
            if self.parallel and self._worth_parallelizing(len(pending)):
                self._run_pending_parallel(
                    cells, pending, cells_axes, spec.replications, observers, total,
                    health,
                )
            else:
                self._run_pending_serial(
                    cells, pending, cells_axes, spec.replications, observers, total,
                    health,
                )
        result = SweepResult(name=self.name, health=health)
        result.cells.extend(cell for cell in cells if cell is not None)
        notify_observers(observers, "on_sweep_end", result)
        return result

    def _worth_parallelizing(self, n_pending: int) -> bool:
        """Whether a process pool can possibly beat the serial loop.

        ``parallel=True`` is a request, not a mandate: on a single-CPU host
        the pool only adds spawn/pickle overhead (the flat "speedup" the
        benchmark used to record), and for a grid smaller than
        :data:`MIN_PARALLEL_CELLS` the pool startup dominates the work.
        An explicit ``max_workers > 1`` overrides both heuristics (the
        caller has measured their machine — or is a test exercising the
        pool path deliberately).
        """
        if n_pending < 2:
            return False
        if self.max_workers is not None and self.max_workers > 1:
            return True
        if n_pending < MIN_PARALLEL_CELLS:
            return False
        return (os.cpu_count() or 1) > 1

    # ------------------------------------------------------------ supervision
    def _cell_error(
        self, idx: int, volume: float, seeds: int, attempts: int, message: str
    ) -> ExperimentError:
        return ExperimentError(
            f"sweep cell {idx} (volume={volume:g}, seeds={seeds}) failed after "
            f"{attempts} attempt(s): {message}"
        )

    def _handle_exhausted(
        self,
        cells_axes: List[Tuple[float, int]],
        idx: int,
        attempts: int,
        message: str,
        health: SweepHealth,
        last_exc: Optional[BaseException] = None,
    ) -> None:
        """Final failure of one cell: record it or abort the sweep."""
        volume, seeds = cells_axes[idx]
        error = self._cell_error(idx, volume, seeds, attempts, message)
        if self.retry.keep_going:
            health.failed_cells.append(
                FailedCell(
                    volume_fraction=volume,
                    num_seeds=seeds,
                    index=idx,
                    attempts=attempts,
                    error=message,
                )
            )
            return
        if last_exc is not None:
            raise error from last_exc
        raise error

    def _run_pending_serial(
        self,
        cells: List[Optional[SweepCell]],
        pending: List[int],
        cells_axes: List[Tuple[float, int]],
        replications: int,
        observers: Sequence[object],
        total: int,
        health: SweepHealth,
        prior_attempts: Optional[Dict[int, int]] = None,
    ) -> None:
        """The serial path, with per-cell retries.

        ``prior_attempts`` carries attempt counts already consumed on the
        pool path when execution degrades to serial mid-sweep, so a cell's
        total budget is honored across the transition.
        """
        policy = self.retry
        for idx in pending:
            volume, seeds = cells_axes[idx]
            used = (prior_attempts or {}).get(idx, 0)
            cell: Optional[SweepCell] = None
            last_exc: Optional[BaseException] = None
            attempt = used
            while cell is None and attempt < policy.max_attempts:
                attempt += 1
                health.attempts += 1
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.apply(idx, attempt)
                    cell = _run_cell_job(
                        self.network_factory, self.base_config,
                        volume, seeds, replications,
                    )
                except Exception as exc:
                    last_exc = exc
                    notify_observers(
                        observers, "on_cell_failed", exc, attempt, idx, total
                    )
                    if attempt < policy.max_attempts:
                        health.retries += 1
                        backoff = policy.backoff_s(attempt)
                        if backoff > 0:
                            time.sleep(backoff)
            if cell is None:
                # Same "Type: message" shape the chunk jobs report, so a
                # failure reads identically whichever path produced it.
                message = f"{type(last_exc).__name__}: {last_exc}"
                self._handle_exhausted(
                    cells_axes, idx, attempt, message, health, last_exc
                )
                continue
            cells[idx] = cell
            if notify_observers_stop(observers, "on_cell_done", cell, idx, total):
                return

    def _run_pending_parallel(
        self,
        cells: List[Optional[SweepCell]],
        pending: List[int],
        cells_axes: List[Tuple[float, int]],
        replications: int,
        observers: Sequence[object],
        total: int,
        health: SweepHealth,
    ) -> None:
        """The supervised pool path.

        Work is submitted in rounds: every still-unfinished cell is chunked
        across the workers and awaited in submission order.  A cell that
        raises is salvaged per cell inside its chunk and retried next round;
        a chunk whose await exceeds the timeout budget or loses its worker
        (``BrokenProcessPool``) gets the pool killed and respawned, charging
        the implicated cells one attempt.  A pool that breaks while a round
        is being submitted is handled the same way: submission stops, the
        submitted chunks are awaited and charged as above, and the chunks
        never submitted are not charged.  When the restart budget runs out,
        the remaining cells degrade to the serial path with their attempt
        counts intact.
        """
        policy = self.retry
        try:
            pickle.dumps((self.network_factory, self.base_config, self.fault_plan))
        except Exception as exc:  # lambdas, closures, open handles, ...
            warnings.warn(
                f"parallel sweep disabled: factory/config not picklable ({exc}); "
                "running serially",
                stacklevel=4,
            )
            return self._run_pending_serial(
                cells, pending, cells_axes, replications, observers, total, health
            )
        workers = self.max_workers or min(len(pending), os.cpu_count() or 1)
        #: attempts already consumed per still-unfinished cell index
        attempts: Dict[int, int] = {idx: 0 for idx in pending}
        restarts_left = policy.pool_restart_budget
        pool: Optional[ProcessPoolExecutor] = None

        def fall_back_serial(reason: str) -> None:
            warnings.warn(reason, stacklevel=5)
            health.serial_fallback = True
            self.used_process_pool = self.used_process_pool or False
            remaining = [idx for idx in pending if cells[idx] is None]
            remaining = [idx for idx in remaining if idx in attempts]
            self._run_pending_serial(
                cells, remaining, cells_axes, replications, observers, total,
                health, prior_attempts=attempts,
            )

        try:
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                # A factory that pickles by reference locally can still
                # fail to unpickle inside a worker (e.g. defined in
                # __main__ under the spawn start method).  Prove the
                # round trip with a no-op task first, so that a genuine
                # error raised by a real cell later is never mistaken
                # for a transport problem.
                pool.submit(
                    _deserialization_canary, self.network_factory, self.base_config
                ).result()
            except Exception as exc:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                return fall_back_serial(
                    f"parallel sweep disabled: factory/config does not survive "
                    f"the worker round trip ({exc}); running serially"
                )

            while attempts:
                # One round: chunk every unfinished cell across the workers.
                # Under a cell timeout each chunk holds a single cell and
                # ``future.result(timeout=...)`` bounds each await.  The
                # budget is per-await, not per-cell wall clock: futures are
                # harvested in submission order, so a later cell's clock
                # only starts once every earlier future has resolved, and a
                # hang there is detected within one budget of *its* await
                # rather than of the cell starting.  Without a timeout, a
                # few chunks per worker amortize pickling/IPC while keeping
                # stragglers short.
                order = sorted(attempts)
                if policy.cell_timeout_s is not None:
                    chunk_size = 1
                else:
                    chunk_size = max(1, -(-len(order) // (workers * 4)))
                chunks = [
                    order[i: i + chunk_size]
                    for i in range(0, len(order), chunk_size)
                ]
                round_backoff = 0.0
                for idx in order:
                    if attempts[idx] > 0:
                        round_backoff = max(
                            round_backoff, policy.backoff_s(attempts[idx])
                        )
                if round_backoff > 0:
                    time.sleep(round_backoff)
                futures = []
                broke_at_submit = False
                for chunk in chunks:
                    items = [
                        (idx, *cells_axes[idx], attempts[idx] + 1) for idx in chunk
                    ]
                    try:
                        future = pool.submit(
                            _run_cells_chunk_job, self.network_factory,
                            self.base_config, items, replications,
                            self.fault_plan,
                        )
                    except BrokenProcessPool:
                        # A worker died before the round was all submitted
                        # (a chunk already running killed it).  Stop here:
                        # the submitted chunks are awaited below like any
                        # others, so the one that lost its worker is
                        # charged, and the rest wait for the next round,
                        # uncharged.
                        broke_at_submit = True
                        break
                    futures.append((chunk, future))
                self.used_process_pool = True

                incident: Optional[Tuple[str, List[int]]] = None
                incident_pos = -1
                for pos, (chunk, future) in enumerate(futures):
                    chunk_timeout = (
                        None
                        if policy.cell_timeout_s is None
                        else policy.cell_timeout_s * len(chunk)
                    )
                    try:
                        outcomes = future.result(timeout=chunk_timeout)
                    except FutureTimeoutError:
                        health.timeouts += 1
                        incident = ("hung", chunk)
                        incident_pos = pos
                        break
                    except BrokenProcessPool:
                        incident = ("died", chunk)
                        incident_pos = pos
                        break
                    if self._absorb_outcomes(
                        outcomes, cells, cells_axes, attempts, observers, total,
                        health,
                    ):
                        # Early stop requested: discard the not-yet-reported
                        # remainder exactly like the serial path.
                        for _chunk, later in futures[pos + 1:]:
                            later.cancel()
                        return

                if incident is None and broke_at_submit:
                    # Every submitted chunk came back, yet the pool broke:
                    # respawn it, charging no cell.
                    incident = ("died", [])
                    incident_pos = len(futures) - 1
                if incident is None:
                    continue  # next round retries any salvaged failures

                # The pool is compromised (hung worker or dead process).
                # Kill it first — completed futures keep their results, and
                # nothing below may block behind a hung worker — then
                # harvest the chunks that completed but were never awaited,
                # charge the implicated chunk one attempt, and respawn.
                # Only futures *after* the incident qualify: everything
                # before it was already absorbed in the await loop, and
                # absorbing a salvaged failure twice would double-charge
                # its attempt counter (exhausting its retry budget early).
                _kill_pool(pool)
                pool = None
                health.pool_restarts += 1
                kind, bad_chunk = incident
                for chunk, future in futures[incident_pos + 1:]:
                    if not future.done() or future.cancelled():
                        continue
                    try:
                        outcomes = future.result(timeout=0)
                    except Exception:
                        continue  # died with the pool; not charged
                    if self._absorb_outcomes(
                        outcomes, cells, cells_axes, attempts, observers, total,
                        health,
                    ):
                        return
                for idx in bad_chunk:
                    if idx not in attempts:
                        continue
                    attempts[idx] += 1
                    volume, seeds = cells_axes[idx]
                    health.attempts += 1
                    message = (
                        f"cell attempt exceeded the {policy.cell_timeout_s:g}s "
                        "wall-clock budget (worker killed)"
                        if kind == "hung"
                        else "worker process died mid-cell"
                    )
                    exc = self._cell_error(
                        idx, volume, seeds, attempts[idx], message
                    )
                    notify_observers(
                        observers, "on_cell_failed", exc, attempts[idx], idx, total
                    )
                    if attempts[idx] >= policy.max_attempts:
                        del attempts[idx]
                        self._handle_exhausted(
                            cells_axes, idx, policy.max_attempts, message, health
                        )
                    else:
                        health.retries += 1
                if restarts_left == 0:
                    return fall_back_serial(
                        "parallel sweep: pool restart budget exhausted; "
                        "running the remaining cells serially"
                    )
                restarts_left -= 1
                pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, pickle.PicklingError) as exc:
            return fall_back_serial(
                f"parallel sweep failed ({exc}); rerunning serially"
            )
        finally:
            if pool is not None:
                # Never a waiting shutdown here: this path is also reached
                # by early-stop and abort exits that may leave a hung
                # worker behind, and shutdown(wait=True) would block on it
                # forever.  On a clean exit every future has resolved, so
                # the hard kill is instant and discards nothing.
                _kill_pool(pool)

    def _absorb_outcomes(
        self,
        outcomes: Sequence[Tuple[int, str, object]],
        cells: List[Optional[SweepCell]],
        cells_axes: List[Tuple[float, int]],
        attempts: Dict[int, int],
        observers: Sequence[object],
        total: int,
        health: SweepHealth,
    ) -> bool:
        """Fold one chunk's per-cell outcomes into the sweep state.

        Returns True when an observer requested an early stop.
        """
        policy = self.retry
        for idx, status, payload in outcomes:
            if idx not in attempts:
                continue  # duplicate report after a restart race
            attempts[idx] += 1
            health.attempts += 1
            if status == "ok":
                del attempts[idx]
                cells[idx] = payload
                if notify_observers_stop(
                    observers, "on_cell_done", payload, idx, total
                ):
                    return True
                continue
            volume, seeds = cells_axes[idx]
            exc = self._cell_error(idx, volume, seeds, attempts[idx], str(payload))
            notify_observers(
                observers, "on_cell_failed", exc, attempts[idx], idx, total
            )
            if attempts[idx] >= policy.max_attempts:
                del attempts[idx]
                self._handle_exhausted(
                    cells_axes, idx, policy.max_attempts, str(payload), health
                )
            else:
                health.retries += 1
        return False
