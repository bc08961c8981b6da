"""Chaos suite: deterministic fault schedules against the supervised sweep.

Every test injects a :class:`FaultPlan` — raising cells, workers that hang
past their budget, workers hard-killed mid-cell, store writes torn halfway —
and checks the reliability layer's core claim: the sweep still completes
(or reports its failures under ``keep_going``), and every completed cell is
**bit-for-bit identical** to the undisturbed run.  Faults can cost wall
clock; they can never change data.

The schedules are explicit ``(cell, attempt)`` pairs (plus seeded random
plans), so a failure here names the exact plan that broke the sweep.  In CI
this module runs as its own step under a hard ``pytest-timeout`` budget: a
supervision bug whose symptom is a hang fails loudly instead of stalling
the pipeline.
"""

import json
import time

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentSpec,
    FaultPlan,
    InjectedFault,
    NetworkSpec,
    ResultStore,
    RetryPolicy,
    install_torn_writes,
)
from repro.mobility.demand import DemandConfig
from repro.sim.config import ScenarioConfig
from repro.sim.runner import SweepSpec


def _chaos_spec():
    return ExperimentSpec(
        network=NetworkSpec("grid", args=(3, 3), kwargs={"lanes": 1}),
        config=ScenarioConfig(
            name="chaos",
            rng_seed=23,
            demand=DemandConfig(volume_fraction=0.5),
        ),
        sweep=SweepSpec(volumes=(0.4, 0.6), seed_counts=(1, 2), replications=1),
    )


def _canonical(result) -> str:
    """The sweep's completed cells as canonical JSON (the identity oracle)."""
    return json.dumps(
        [
            {
                "volume": cell.volume_fraction,
                "seeds": cell.num_seeds,
                "runs": [run.as_dict() for run in cell.runs],
            }
            for cell in result.cells
        ],
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def spec():
    return _chaos_spec()


@pytest.fixture(scope="module")
def baseline(spec):
    """The undisturbed run every faulted sweep must reproduce exactly."""
    return _canonical(spec.run())


# ----------------------------------------------------------------- serial
def test_serial_raise_then_retry_is_bit_identical(spec, baseline):
    plan = FaultPlan(faults=((0, 1, "raise"), (2, 1, "raise"), (3, 1, "raise")))
    result = spec.run(retry=RetryPolicy(max_attempts=2), fault_plan=plan)
    assert _canonical(result) == baseline
    assert result.health.retries == 3 and result.health.attempts == 7
    assert result.health.ok


def test_keep_going_reports_failures_then_resume_heals(spec, baseline, tmp_path):
    # Cell 1 fails every attempt it gets; the sweep must finish the other
    # three cells and report the casualty instead of aborting.
    plan = FaultPlan(faults=((1, 1, "raise"), (1, 2, "raise"), (1, 3, "raise")))
    store = ResultStore(tmp_path / "s")
    result = spec.run(
        store=store,
        retry=RetryPolicy(max_attempts=3, keep_going=True),
        fault_plan=plan,
    )
    assert len(result.cells) == 3
    (failed,) = result.health.failed_cells
    assert failed.index == 1 and failed.attempts == 3
    assert "InjectedFault" in failed.error
    # the failure is durable: health.json and a first-class failure record
    health = json.loads((tmp_path / "s" / "health.json").read_text())
    assert health["ok"] is False and len(health["failed_cells"]) == 1
    assert len(ResultStore(tmp_path / "s").failures()) == 1
    # an undisturbed resume re-runs exactly the failed cell -> full identity
    resumed = spec.run(store=ResultStore(tmp_path / "s"), resume=True)
    assert _canonical(resumed) == baseline


def test_random_raise_schedules_never_change_results(spec, baseline):
    # Seeded random plans across several seeds: whatever attempt-1 faults
    # the draw picks, one retry always restores bit-for-bit identity.
    for seed in range(5):
        plan = FaultPlan.random(seed, n_cells=4, rate=0.6, kinds=("raise",))
        result = spec.run(retry=RetryPolicy(max_attempts=2), fault_plan=plan)
        assert _canonical(result) == baseline, f"plan from seed {seed} broke identity"
        assert result.health.retries == len(plan.faults)


# ------------------------------------------------------------------- pool
def test_killed_worker_restarts_pool_and_preserves_identity(spec, baseline):
    # Hard worker death (os._exit, like a segfault/OOM kill): the pool is
    # respawned and the victim cell retried.
    plan = FaultPlan(faults=((0, 1, "kill"),))
    result = spec.run(
        parallel=True, max_workers=2,
        retry=RetryPolicy(max_attempts=3), fault_plan=plan,
    )
    assert _canonical(result) == baseline
    assert result.health.pool_restarts >= 1
    assert result.health.ok


def test_hung_worker_is_reaped_within_the_cell_budget(spec, baseline):
    # The injected hang sleeps 30s; the 3s cell budget must reap it long
    # before that, so the whole sweep finishes in supervisor time, not
    # hang time.
    plan = FaultPlan(faults=((1, 1, "hang"),), hang_s=30.0)
    start = time.monotonic()
    result = spec.run(
        parallel=True, max_workers=2,
        retry=RetryPolicy(max_attempts=2, cell_timeout_s=3.0), fault_plan=plan,
    )
    elapsed = time.monotonic() - start
    assert _canonical(result) == baseline
    assert result.health.timeouts == 1 and result.health.pool_restarts == 1
    assert elapsed < 25.0, f"sweep took {elapsed:.1f}s — the hang was not reaped"


def test_salvaged_failure_before_a_hang_is_not_double_charged(spec, baseline):
    # Regression: cell 0's attempt-1 raise is absorbed in the await loop
    # before cell 2's hang breaks the round.  The post-incident harvest
    # must only touch futures that were never awaited — re-absorbing
    # cell 0's outcome double-charged its attempt counter, exhausting its
    # retry budget without ever retrying it and aborting a sweep that
    # still had budget to complete.
    plan = FaultPlan(faults=((0, 1, "raise"), (2, 1, "hang")), hang_s=30.0)
    result = spec.run(
        parallel=True, max_workers=2,
        retry=RetryPolicy(max_attempts=2, cell_timeout_s=3.0), fault_plan=plan,
    )
    assert _canonical(result) == baseline
    assert result.health.ok
    assert result.health.timeouts == 1 and result.health.pool_restarts == 1
    assert result.health.retries >= 2  # cell 0 (raise) and cell 2 (hang)


def test_restart_budget_exhaustion_degrades_to_serial(spec, baseline):
    # Two kill faults against a budget of one restart: the pool dies, is
    # respawned once, dies again, and the remaining cells must degrade to
    # the serial path (where the kill downgrades to a raise) and finish.
    plan = FaultPlan(faults=((0, 1, "kill"), (0, 2, "kill")))
    with pytest.warns(UserWarning, match="restart budget exhausted"):
        result = spec.run(
            parallel=True, max_workers=2,
            retry=RetryPolicy(max_attempts=4, pool_restart_budget=1),
            fault_plan=plan,
        )
    assert _canonical(result) == baseline
    assert result.health.serial_fallback
    assert result.health.pool_restarts == 2


def test_pool_broken_at_submit_respawns_and_charges_nothing(spec, baseline, monkeypatch):
    # A worker can die before the round's last submit (a kill fault in the
    # first chunk), and the submit then raises BrokenProcessPool.  Here the
    # third submit (the canary, chunk 0, chunk 1) raises it once: chunk 0's
    # result is kept, the pool is respawned once, and the unsubmitted
    # chunks run in the next round, uncharged.
    from concurrent.futures.process import BrokenProcessPool

    from repro.sim import runner

    class BreaksOnThirdSubmit(runner.ProcessPoolExecutor):
        submits = 0

        def submit(self, *args, **kwargs):
            BreaksOnThirdSubmit.submits += 1
            if BreaksOnThirdSubmit.submits == 3:
                raise BrokenProcessPool("a worker died mid-submit")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", BreaksOnThirdSubmit)
    result = spec.run(parallel=True, max_workers=2, retry=RetryPolicy(max_attempts=2))
    assert BreaksOnThirdSubmit.submits > 3
    assert _canonical(result) == baseline
    assert result.health.pool_restarts == 1
    assert result.health.attempts == 4 and result.health.retries == 0
    assert not result.health.serial_fallback


def test_abort_mode_timeout_still_reaps_the_worker(spec):
    # Without keep_going, an exhausted hung cell aborts the sweep — but the
    # abort itself must not block behind the hung worker.
    plan = FaultPlan(faults=((0, 1, "hang"),), hang_s=30.0)
    start = time.monotonic()
    with pytest.raises(ExperimentError, match="wall-clock budget"):
        spec.run(
            parallel=True, max_workers=2,
            retry=RetryPolicy(max_attempts=1, cell_timeout_s=3.0),
            fault_plan=plan,
        )
    assert time.monotonic() - start < 25.0


# ------------------------------------------------------------------ store
def test_torn_store_write_quarantines_and_resume_heals(spec, baseline, tmp_path):
    # The second store append writes half its line and "crashes".  The torn
    # fragment must quarantine alone, and resume must re-run exactly the
    # cells the store lost.
    root = tmp_path / "s"
    store = install_torn_writes(ResultStore(root), FaultPlan(torn_records=(1,)))
    with pytest.raises(InjectedFault, match="torn store write"):
        spec.run(store=store)
    fresh = ResultStore(root)
    with pytest.warns(UserWarning, match="quarantined"):
        report = fresh.integrity_report()
    assert not report.ok
    assert [q["reason"] for q in report.quarantined] == [
        "unparseable JSON (torn write?)"
    ]
    assert report.result_records == 1  # the append before the tear survived
    resumed = spec.run(store=ResultStore(root), resume=True)
    assert _canonical(resumed) == baseline
    healed = ResultStore(root)
    with pytest.warns(UserWarning, match="quarantined"):
        assert healed.integrity_report().result_records == 4
