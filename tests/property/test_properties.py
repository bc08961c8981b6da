"""Property-based tests (hypothesis) on the core invariants.

Five families:

* the Chandy–Lamport reference implementation records a consistent snapshot
  (total conserved) for *any* interleaving of transfers and marker deliveries,
* random road networks produced by the builders always satisfy the structural
  assumptions the protocol needs,
* the full counting stack is exact on randomly generated small scenarios
  (topology, traffic volume, seeds, wireless loss all drawn by hypothesis),
* the batched protocol pipeline is bit-for-bit equivalent to the scalar
  per-event reference on random scenarios, and FIFO lossless runs under
  ``adjustment="exact"`` never invoke a correction rule,
* the parallel :class:`ExperimentRunner` reproduces the serial sweep
  cell-for-cell on randomly drawn sweep axes.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.checkpoint import Checkpoint, DirectionState
from repro.core.snapshot import MessageSystem
from repro.mobility.demand import (
    ConstantProfile,
    DemandConfig,
    MarkovModulatedProfile,
    PiecewiseProfile,
    SinusoidalProfile,
)
from repro.mobility.intersections import IntersectionPolicy
from repro.roadnet.builders import grid_network, random_planar_network, ring_network
from repro.sim.config import MobilityConfig, ScenarioConfig, WirelessConfig
from repro.sim.runner import ExperimentRunner, SweepSpec
from repro.sim.simulator import Simulation

# A relaxed profile: the scenarios below run a full simulation per example.
SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
FAST = settings(max_examples=50, deadline=None)


# --------------------------------------------------------------------------- Chandy-Lamport
@FAST
@given(
    balances=st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=5),
    transfers=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 5)), max_size=20
    ),
    snapshot_after=st.integers(min_value=0, max_value=20),
)
def test_snapshot_total_always_conserved(balances, transfers, snapshot_after):
    pids = list(range(len(balances)))
    system = MessageSystem({pid: bal for pid, bal in zip(pids, balances)})
    initial_total = sum(balances)
    started = False
    for i, (src, dst, amount) in enumerate(transfers):
        if i == snapshot_after and not started:
            system.start_snapshot(pids[0])
            started = True
        src, dst = pids[src % len(pids)], pids[dst % len(pids)]
        if src == dst:
            continue
        amount = min(amount, system.processes[src].balance)
        if amount > 0:
            system.send(src, dst, amount)
    if not started:
        system.start_snapshot(pids[0])
    system.drain_until_complete()
    assert system.result().total == initial_total
    assert system.current_total() == initial_total


# --------------------------------------------------------------------------- road networks
@FAST
@given(
    n_nodes=st.integers(min_value=4, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
    one_way=st.floats(min_value=0.0, max_value=0.6),
)
def test_random_networks_satisfy_protocol_assumptions(n_nodes, seed, one_way):
    import networkx as nx

    net = random_planar_network(n_nodes, seed=seed, one_way_fraction=one_way)
    assert net.num_nodes == n_nodes
    g = net.to_networkx()
    assert nx.is_strongly_connected(g)
    for node in net.nodes:
        assert net.outbound_neighbors(node)
        assert net.inbound_neighbors(node)
    # a patrol cycle always exists (Theorem 4)
    from repro.core.patrol import build_patrol_cycle

    cycle = build_patrol_cycle(net)
    assert set(cycle) == set(net.nodes)


# --------------------------------------------------------------------------- checkpoint machine
@FAST
@given(
    n_neighbors=st.integers(min_value=1, max_value=6),
    order=st.permutations(range(6)),
    seed_activation=st.booleans(),
)
def test_checkpoint_stabilizes_after_all_labels(n_neighbors, order, seed_activation):
    neighbors = [f"n{i}" for i in range(n_neighbors)]
    cp = Checkpoint("u", inbound=neighbors, outbound=neighbors)
    if seed_activation:
        cp.activate_as_seed(0.0)
    else:
        cp.receive_label(neighbors[0], origin_parent=None, tree_id="t", time_s=0.0)
    # deliver stop labels from every neighbour in an arbitrary order
    for idx in order:
        if idx < n_neighbors:
            cp.receive_label(neighbors[idx], origin_parent="u", tree_id="t", time_s=1.0 + idx)
    assert cp.stable
    assert cp.stabilized_at is not None
    # every direction ended in STOPPED or EXEMPT, never COUNTING/IDLE
    assert all(
        s in (DirectionState.STOPPED, DirectionState.EXEMPT)
        for s in cp.direction_state.values()
    )
    # the predecessor direction is exempt for non-seeds
    if not seed_activation:
        assert cp.direction_state[neighbors[0]] is DirectionState.EXEMPT


# --------------------------------------------------------------------------- end-to-end counting
@SLOW
@given(
    rows=st.integers(min_value=3, max_value=4),
    cols=st.integers(min_value=3, max_value=4),
    lanes=st.integers(min_value=1, max_value=2),
    volume=st.floats(min_value=0.3, max_value=1.0),
    loss=st.sampled_from([0.0, 0.3]),
    num_seeds=st.integers(min_value=1, max_value=3),
    rng_seed=st.integers(min_value=0, max_value=2**16),
)
def test_closed_counting_exact_on_random_scenarios(
    rows, cols, lanes, volume, loss, num_seeds, rng_seed
):
    net = grid_network(rows, cols, lanes=lanes)
    config = ScenarioConfig(
        name="prop-closed",
        rng_seed=rng_seed,
        num_seeds=num_seeds,
        demand=DemandConfig(volume_fraction=volume),
        wireless=WirelessConfig(loss_probability=loss),
        mobility=MobilityConfig(allow_overtaking=lanes > 1),
        max_duration_s=3600.0,
    )
    result = Simulation(net, config).run()
    assert result.converged, "closed scenario failed to converge within an hour of traffic"
    assert result.is_exact
    assert result.collected_count == result.ground_truth


def _pipeline_trace(sim) -> dict:
    """Everything the protocol layer computed, in exactly comparable form:
    counters, statistics, both protocol generators' states, each camera's
    bookkeeping and the convergence monitor's traffic feed (in insertion
    order)."""
    exchange_stats = sim.exchange.stats.as_dict()
    return {
        "counters": {
            repr(node): (dict(cp.counters), cp.adjustments, cp.stabilized_at)
            for node, cp in sim.protocol.checkpoints.items()
        },
        "protocol_stats": sim.protocol.stats.as_dict(),
        "exchange_stats": exchange_stats,
        "collection_stats": sim.protocol.collection.stats.as_dict(),
        "global_count": sim.protocol.global_count(),
        "adjustments": sim.protocol.total_adjustments(),
        "seed_completed_at": dict(sim.protocol.collection.seed_completed_at),
        "wireless_rng": sim.exchange.rng.bit_generator.state,
        "recognition_rng": sim.protocol.rng.bit_generator.state,
        "cameras": {
            repr(node): (
                camera.observed,
                camera.simultaneous_peak,
                camera.recognizer.stats.as_dict(),
            )
            for node, camera in sim.protocol.cameras.items()
        },
        "last_traffic": list(sim.monitor._last_traffic.items()),
    }


# ------------------------------------------------------- pipeline equivalence
@SLOW
@given(
    rows=st.integers(min_value=3, max_value=4),
    cols=st.integers(min_value=3, max_value=4),
    lanes=st.integers(min_value=1, max_value=2),
    volume=st.floats(min_value=0.3, max_value=1.0),
    loss=st.sampled_from([0.0, 0.3, 0.5]),
    num_seeds=st.integers(min_value=1, max_value=3),
    rng_seed=st.integers(min_value=0, max_value=2**16),
    adjustment=st.sampled_from(["exact", "paper"]),
    fn_rate=st.sampled_from([0.0, 0.1]),
)
def test_batched_pipeline_equals_scalar_on_random_scenarios(
    rows, cols, lanes, volume, loss, num_seeds, rng_seed, adjustment, fn_rate
):
    """``batched=True`` must be bit-for-bit the scalar protocol path on any
    scenario — every counter, adjustment, stabilization time and exchange
    statistic — including noisy recognition and the literal "paper"
    adjustment mode."""
    from repro.core.protocol import ProtocolConfig

    config = ScenarioConfig(
        name="prop-pipeline",
        rng_seed=rng_seed,
        num_seeds=num_seeds,
        demand=DemandConfig(volume_fraction=volume),
        wireless=WirelessConfig(loss_probability=loss),
        mobility=MobilityConfig(allow_overtaking=lanes > 1),
        protocol=ProtocolConfig(
            adjustment_mode=adjustment, recognition_false_negative=fn_rate
        ),
    )
    traces = {}
    for batched in (False, True):
        net = grid_network(rows, cols, lanes=lanes)
        sim = Simulation(net, replace(config, batched=batched))
        sim.run_for(300.0)
        traces[batched] = _pipeline_trace(sim)
    assert traces[True] == traces[False]


@SLOW
@given(
    volume=st.floats(min_value=0.5, max_value=1.0),
    loss=st.sampled_from([0.0, 0.3]),
    through=st.floats(min_value=0.4, max_value=0.9),
    num_seeds=st.integers(min_value=1, max_value=2),
    patrol_cars=st.integers(min_value=1, max_value=2),
    rng_seed=st.integers(min_value=0, max_value=2**16),
)
def test_batched_equals_scalar_on_dense_irregular_scenarios(
    volume, loss, through, num_seeds, patrol_cars, rng_seed
):
    """Worst-case irregular-event density: an open gated two-lane grid with
    patrol ferrying, lossy wireless and heavy through traffic fires border
    crossings, labels, reports, patrol syncs and overtakes every few steps —
    the full batched stack (vectorized engine tails + batched pipeline, plus
    the compiled kernel wherever it loads) must stay bit-for-bit the scalar
    per-event reference on any such draw."""
    from repro.core.patrol import PatrolPlan

    config = ScenarioConfig(
        name="prop-dense-irregular",
        rng_seed=rng_seed,
        num_seeds=num_seeds,
        open_system=True,
        demand=DemandConfig(
            volume_fraction=volume, through_traffic_fraction=through
        ),
        patrol=PatrolPlan(num_cars=patrol_cars),
        wireless=WirelessConfig(loss_probability=loss),
    )
    traces = {}
    for fast in (False, True):
        net = grid_network(4, 4, lanes=2, gates_on_border=True)
        cfg = replace(
            config,
            batched=fast,
            mobility=replace(config.mobility, vectorized=fast, compiled=fast),
        )
        sim = Simulation(net, cfg)
        sim.run_for(300.0)
        traces[fast] = (_pipeline_trace(sim), sim.ground_truth())
    assert traces[True] == traces[False]


def _slot_arrays(engine):
    """Each edge's live lanes, lane bounds and ranking, in exact order."""
    return [
        (
            engine._lane_store[ei][:k].tolist(),
            engine._bounds_np[ei].tolist(),
            engine._rank_store[ei][:k].tolist(),
        )
        for ei, k in enumerate(engine._lane_len.tolist())
    ]


def _resident_plans(engine):
    """Each vehicle's router kind and resident plan, by vid: the nodes from
    its cursor to its end and its exit node (None before the plan is
    installed)."""
    plans = []
    for vid, v in sorted(engine._vehicles.items()):
        slot = v.slot
        cur, end = int(engine._plan_cur[slot]), int(engine._plan_end[slot])
        exit_node = int(engine._exit_node[slot])
        resident = None
        if cur >= 0:
            resident = (engine._route_pool[cur:end].tolist(), exit_node)
        plans.append((vid, int(engine._kind[slot]), resident))
    return plans


def _recorded_steps(engine):
    """Record each ``step_batch`` of ``engine``; returns the list it fills."""
    batches = []
    step_batch = engine.step_batch

    def recorded():
        batch = step_batch()
        batches.append(batch)
        return batch

    engine.step_batch = recorded
    return batches


def _event_keys(batch):
    """A step's events in order: kind, edge, and the vids involved (an
    overtake's passer, then its passee)."""
    keys = []
    for event in batch.iter_events():
        if type(event).__name__ == "OvertakeEvent":
            keys.append(("overtake", event.edge, event.passer.vid, event.passee.vid))
        else:
            keys.append((type(event).__name__, event.vehicle.vid))
    return keys


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
# Reaches, at step 13, an edge whose scan flips two pairs that its
# placement order and its vid order put in different orders.
@example(lanes=2, volume=0.75, through=0.75, turns=0.25, patrol_cars=2, rng_seed=1004,
         admissions=2, delay=1.5, overrides=[])
@given(
    lanes=st.integers(min_value=1, max_value=3),
    volume=st.floats(min_value=0.5, max_value=1.0),
    through=st.floats(min_value=0.4, max_value=0.9),
    turns=st.floats(min_value=0.0, max_value=1.0),
    patrol_cars=st.integers(min_value=1, max_value=2),
    rng_seed=st.integers(min_value=0, max_value=2**16),
    admissions=st.integers(min_value=1, max_value=4),
    delay=st.floats(min_value=0.5, max_value=1.5),
    overrides=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4),
                  st.floats(min_value=0.5, max_value=1.5)),
        max_size=3,
    ),
)
def test_engine_occupancy_state_holds_every_step(
    occupancy_state_check, lanes, volume, through, turns, patrol_cars, rng_seed, admissions,
    delay, overrides,
):
    """The vectorized engine's per-edge slot arrays and everything kept
    beside them (lane bounds, head flags, pointer tables, placement
    numbers, waiting state) must match a recomputation from the vehicles
    after every step of a dense, open gated grid: border arrivals and exits,
    patrol ferrying and overtaking all insert and remove slots.  A cc and a
    NumPy simulation step in lockstep, and after every step their lanes,
    bounds and rankings, the step's events (each overtake's passer and
    passee included, in order) and the states of the engine and demand
    generators must be equal: both run the same step code over their own
    gather, lane, advance, overtake, admission and transit passes, cc's in
    C (its lane and transit passes drawing from the engine generator's bit
    generator) and NumPy's in Python (drawing through ``Generator``
    methods); both overtake passes order pairs by ``_seq``, which
    ``test_occupancy_order_matches_reference`` checks against the
    reference engine's own record.  Where cc does not load, both run
    NumPy.  The intersection policy is drawn, with some single nodes
    overridden, so caps bind, queues outlast a step and (since, vid) ties
    arise; the default's 0.5 s delay and 4 admissions almost never queue.
    The share of random-turn routers is drawn too, and both decision
    passes must leave every vehicle the same resident plan: its router
    kind, the nodes from its cursor to its end, and its exit node."""
    from repro.core.patrol import PatrolPlan

    config = ScenarioConfig(
        name="prop-occupancy-state",
        rng_seed=rng_seed,
        num_seeds=1,
        open_system=True,
        demand=DemandConfig(volume_fraction=volume, through_traffic_fraction=through,
                            random_turn_fraction=turns),
        patrol=PatrolPlan(num_cars=patrol_cars),
    )
    mobility = MobilityConfig(admissions_per_step=admissions, crossing_delay_s=delay)
    sims = [
        Simulation(
            grid_network(4, 4, lanes=lanes, gates_on_border=True),
            replace(config, mobility=replace(mobility, compiled=compiled)),
        )
        for compiled in (True, False)
    ]
    for sim in sims:
        for row, col, cap, dwell in overrides:
            sim.engine.set_intersection_policy((row, col), IntersectionPolicy(cap, dwell))
    batches = [_recorded_steps(sim.engine) for sim in sims]
    for step in range(201):
        for sim in sims:
            if step:
                sim.step()
            occupancy_state_check(sim.engine)
        cc, numpy = (sim.engine for sim in sims)
        assert _slot_arrays(cc) == _slot_arrays(numpy), step
        assert _resident_plans(cc) == _resident_plans(numpy), step
        if step:
            assert _event_keys(batches[0][-1]) == _event_keys(batches[1][-1]), step
        assert cc.rng.bit_generator.state == numpy.rng.bit_generator.state, step
        demand = [sim.demand.rng.bit_generator.state for sim in sims]
        assert demand[0] == demand[1], step


@SLOW
@given(
    shape=st.sampled_from(["ring", "grid"]),
    size=st.integers(min_value=3, max_value=6),
    volume=st.floats(min_value=0.2, max_value=0.9),
    num_seeds=st.integers(min_value=1, max_value=2),
    rng_seed=st.integers(min_value=0, max_value=2**16),
    batched=st.booleans(),
)
def test_fifo_lossless_exact_mode_never_adjusts(
    shape, size, volume, num_seeds, rng_seed, batched
):
    """Theorem 1's mechanism alone suffices in the simple road model: under
    ``adjustment="exact"`` a FIFO, lossless run never fires a correction rule
    on any random topology, and the converged count is exact."""
    if shape == "ring":
        net = ring_network(size + 2)
    else:
        net = grid_network(3, size, lanes=1)
    config = ScenarioConfig(
        name="prop-fifo-lossless",
        rng_seed=rng_seed,
        num_seeds=num_seeds,
        demand=DemandConfig(volume_fraction=volume),
        wireless=WirelessConfig(loss_probability=0.0, attempts_per_contact=1),
        mobility=MobilityConfig(
            allow_overtaking=False, admissions_per_step=1, crossing_delay_s=1.0
        ),
        batched=batched,
        max_duration_s=3600.0,
    )
    sim = Simulation(net, config)
    result = sim.run()
    assert result.converged
    assert result.is_exact
    assert result.adjustments == 0
    assert result.protocol_stats["corrections_plus"] == 0
    assert result.protocol_stats["corrections_minus"] == 0
    assert result.protocol_stats["labeling_failures"] == 0
    assert result.exchange_stats["hard_failures"] == 0


# ------------------------------------------------------------ runner sweeps
def _sweep_network(rows, cols):
    return grid_network(rows, cols, lanes=1)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    volumes=st.lists(
        st.sampled_from([0.3, 0.5, 0.8]), min_size=1, max_size=2, unique=True
    ),
    seed_counts=st.lists(st.integers(1, 2), min_size=1, max_size=2, unique=True),
    rng_seed=st.integers(min_value=0, max_value=2**10),
)
def test_parallel_runner_equals_serial_on_random_sweep(volumes, seed_counts, rng_seed):
    """Fanning a sweep over a process pool must not change a single number
    in any cell, whatever the axes drawn."""
    config = ScenarioConfig(
        name="prop-sweep", rng_seed=rng_seed, max_duration_s=240.0
    )
    factory = partial(_sweep_network, 3, 3)
    spec = SweepSpec(
        volumes=tuple(volumes), seed_counts=tuple(seed_counts), replications=1
    )
    serial = ExperimentRunner(factory, config).run_sweep(spec)
    parallel = ExperimentRunner(factory, config, parallel=True).run_sweep(spec)
    assert parallel.cells == serial.cells


# ------------------------------------------------------------ demand profiles
def _profiles() -> st.SearchStrategy:
    """Any demand profile, with parameters drawn by hypothesis."""
    constant = st.just(ConstantProfile())
    piecewise = st.builds(
        lambda quiet, peak: PiecewiseProfile.rush_hour(quiet=quiet, peak=peak),
        quiet=st.floats(min_value=0.1, max_value=1.0),
        peak=st.floats(min_value=1.0, max_value=3.0),
    )
    sinusoidal = st.builds(
        SinusoidalProfile,
        period_s=st.floats(min_value=300.0, max_value=3600.0),
        amplitude=st.floats(min_value=0.0, max_value=1.0),
    )
    markov = st.builds(
        MarkovModulatedProfile,
        multipliers=st.tuples(
            st.floats(min_value=0.0, max_value=0.5),
            st.floats(min_value=1.0, max_value=3.0),
        ),
        mean_dwell_s=st.tuples(
            st.floats(min_value=60.0, max_value=600.0),
            st.floats(min_value=30.0, max_value=300.0),
        ),
        chain_seed=st.integers(min_value=0, max_value=2**16),
    )
    return st.one_of(constant, piecewise, sinusoidal, markov)


@SLOW
@given(
    profile=_profiles(),
    volume=st.floats(min_value=0.3, max_value=1.0),
    num_seeds=st.integers(min_value=1, max_value=2),
    rng_seed=st.integers(min_value=0, max_value=2**16),
)
def test_closed_counting_exact_with_any_profile(profile, volume, num_seeds, rng_seed):
    """A demand profile only shapes open-system arrivals, so any profile on a
    closed system must leave the count exact (and identical convergence)."""
    net = grid_network(3, 3, lanes=1)
    config = ScenarioConfig(
        name="prop-profile-closed",
        rng_seed=rng_seed,
        num_seeds=num_seeds,
        demand=DemandConfig(volume_fraction=volume, profile=profile),
        max_duration_s=3600.0,
    )
    result = Simulation(net, config).run()
    assert result.converged
    assert result.is_exact
    assert result.collected_count == result.ground_truth


@SLOW
@given(
    profile=_profiles(),
    volume=st.floats(min_value=0.3, max_value=1.0),
    loss=st.sampled_from([0.0, 0.3]),
    rng_seed=st.integers(min_value=0, max_value=2**16),
    through=st.floats(min_value=0.2, max_value=0.9),
)
def test_batched_equals_scalar_with_time_varying_arrivals(
    profile, volume, loss, rng_seed, through
):
    """The batched pipeline must stay bit-for-bit the scalar reference when
    the open-system arrival rate varies over time (rush-hour, diurnal,
    bursty) — the profile feeds both paths through the same demand stream."""
    config = ScenarioConfig(
        name="prop-profile-pipeline",
        rng_seed=rng_seed,
        num_seeds=2,
        open_system=True,
        demand=DemandConfig(
            volume_fraction=volume,
            through_traffic_fraction=through,
            profile=profile,
        ),
        wireless=WirelessConfig(loss_probability=loss),
    )
    traces = {}
    for batched in (False, True):
        net = grid_network(4, 4, lanes=2, gates_on_border=True)
        sim = Simulation(net, replace(config, batched=batched))
        sim.run_for(300.0)
        traces[batched] = _pipeline_trace(sim)
    assert traces[True] == traces[False]


@SLOW
@given(
    volume=st.floats(min_value=0.4, max_value=1.0),
    rng_seed=st.integers(min_value=0, max_value=2**16),
    through=st.floats(min_value=0.2, max_value=0.9),
)
def test_open_counting_tracks_inside_on_random_scenarios(volume, rng_seed, through):
    net = grid_network(4, 4, lanes=2, gates_on_border=True)
    config = ScenarioConfig(
        name="prop-open",
        rng_seed=rng_seed,
        num_seeds=2,
        open_system=True,
        demand=DemandConfig(volume_fraction=volume, through_traffic_fraction=through),
        settle_extra_s=60.0,
        max_duration_s=3600.0,
    )
    sim = Simulation(net, config)
    result = sim.run()
    assert result.converged
    assert result.protocol_count == sim.engine.inside_count()
