"""Car-following and lane-change models.

The engine needs microscopic behaviour that is *qualitatively* right — queues
form at intersections, faster drivers catch up with slower ones and overtake
on multi-lane segments, traffic never teleports — while staying cheap enough
to simulate hundreds of vehicles for an hour of traffic in well under a
second of wall clock per simulated minute.

Two small models provide that:

* :class:`SimplifiedIDM` — a collision-free car-following update inspired by
  the Intelligent Driver Model: accelerate toward the desired speed, but
  never close more than the available gap in one step.
* :class:`LaneChangeModel` — an incentive/safety rule in the spirit of
  MOBIL: change lanes when blocked by a slower leader and the target lane
  has room.

Both are deterministic given the RNG stream passed in, so runs are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .vehicle import MIN_GAP_M, VEHICLE_LENGTH_M, Vehicle

__all__ = ["SimplifiedIDM", "LaneChangeModel"]


@dataclass
class SimplifiedIDM:
    """Collision-free longitudinal update.

    Parameters
    ----------
    max_accel_mps2:
        Maximum acceleration.
    max_decel_mps2:
        Comfortable deceleration (used to bound how hard a vehicle brakes
        when it runs out of gap).
    headway_s:
        Desired time headway to the leader.
    """

    max_accel_mps2: float = 2.0
    max_decel_mps2: float = 3.5
    headway_s: float = 1.2

    def target_speed(
        self,
        vehicle: Vehicle,
        leader: Optional[Vehicle],
        speed_limit_mps: float,
        dt: float,
    ) -> float:
        """The speed the vehicle aims for during the next ``dt`` seconds."""
        free = min(vehicle.desired_speed_mps, speed_limit_mps)
        # accelerate / decelerate toward the free speed
        if vehicle.speed_mps < free:
            v = min(free, vehicle.speed_mps + self.max_accel_mps2 * dt)
        else:
            v = max(free, vehicle.speed_mps - self.max_decel_mps2 * dt)
        if leader is None:
            return max(0.0, v)
        gap = leader.pos_m - vehicle.pos_m - VEHICLE_LENGTH_M
        if gap <= MIN_GAP_M:
            return 0.0
        # Do not plan to consume more than the gap beyond the desired headway,
        # assuming the leader keeps its current speed during the step.
        usable = gap - MIN_GAP_M + leader.speed_mps * dt
        safe = usable / max(dt + self.headway_s * 0.25, 1e-9)
        return max(0.0, min(v, safe))

    def advance(
        self,
        vehicle: Vehicle,
        leader: Optional[Vehicle],
        speed_limit_mps: float,
        segment_length_m: float,
        dt: float,
    ) -> None:
        """Update ``vehicle`` speed and position in place (never passes the
        leader or the end of the segment)."""
        v = self.target_speed(vehicle, leader, speed_limit_mps, dt)
        new_pos = vehicle.pos_m + v * dt
        if leader is not None:
            ceiling = leader.pos_m - VEHICLE_LENGTH_M - MIN_GAP_M * 0.5
            if new_pos > ceiling:
                new_pos = max(vehicle.pos_m, ceiling)
                v = (new_pos - vehicle.pos_m) / dt if dt > 0 else 0.0
        if new_pos > segment_length_m:
            new_pos = segment_length_m
        vehicle.speed_mps = max(0.0, v)
        vehicle.pos_m = new_pos

    # ------------------------------------------------------- batch kernels
    # Structure-of-arrays counterparts of :meth:`target_speed` /
    # :meth:`advance` used by the vectorized engine.  A follower's update
    # reads its leader's *post-step* state (lanes advance front to back), so
    # the step cannot be a single elementwise pass.  Instead the batch path
    # resolves two provable cases vectorized and leaves the rest to
    # :meth:`follow_scalar`:
    #
    # * a follower is *surely unconstrained* when even against the most
    #   pessimistic leader outcome (leader keeps its pre-step position and
    #   ends stopped) the gap logic would not bind — then its update equals
    #   the free-flow candidate;
    # * a follower is *surely stopped* when even against the most optimistic
    #   leader outcome (leader realizes its own free-flow candidate) the gap
    #   stays at or below the minimum — then it holds position at speed 0,
    #   exactly what the scalar code produces for ``gap <= MIN_GAP_M``.
    #
    # Positions never decrease and every bound is evaluated with monotone
    # float operations, so both gates are sound bit for bit; the golden-trace
    # tests pin the equivalence with the per-vehicle reference engine.

    def batch_free_speed(
        self, speed: np.ndarray, free: np.ndarray, dt: float
    ) -> np.ndarray:
        """Vectorized accelerate/decelerate toward the free speed.

        ``clip(free, speed - decel*dt, speed + accel*dt)`` is bitwise
        equivalent to the scalar two-branch form: when ``speed < free`` the
        upper bound binds exactly like ``min(free, speed + accel*dt)`` (the
        lower bound is below ``speed`` and cannot), and symmetrically for
        deceleration.
        """
        return np.clip(
            free,
            speed - self.max_decel_mps2 * dt,
            speed + self.max_accel_mps2 * dt,
        )

    def batch_classify(
        self,
        pos: np.ndarray,
        vfree: np.ndarray,
        cand_raw: np.ndarray,
        leader_pos_lb: np.ndarray,
        leader_pos_ub: np.ndarray,
        dt: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Classify followers into the two vectorizable cases.

        ``leader_pos_lb`` / ``leader_pos_ub`` bound the leader's post-step
        position from below (its pre-step position) and above (its free-flow
        candidate).  All inputs are follower-aligned (the caller passes
        shifted views).  Returns boolean masks ``(unconstrained, stopped)``.
        """
        gap_lb = leader_pos_lb - pos - VEHICLE_LENGTH_M
        safe_lb = (gap_lb - MIN_GAP_M) / max(dt + self.headway_s * 0.25, 1e-9)
        ceiling_lb = leader_pos_lb - VEHICLE_LENGTH_M - MIN_GAP_M * 0.5
        unconstrained = (
            (gap_lb > MIN_GAP_M) & (vfree <= safe_lb) & (cand_raw <= ceiling_lb)
        )
        gap_ub = leader_pos_ub - pos - VEHICLE_LENGTH_M
        stopped = gap_ub <= MIN_GAP_M
        return unconstrained, stopped

    def batch_follow(
        self,
        pos: np.ndarray,
        vfree: np.ndarray,
        leader_pos: np.ndarray,
        leader_speed: np.ndarray,
        segment_length: np.ndarray,
        dt: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized follower update against *exact* post-step leader state.

        Used for the second resolution round: followers whose leader was
        resolved in the first vectorized pass see its final kinematics, so
        their update is computable exactly — each expression mirrors
        :meth:`follow_scalar` operation for operation.
        """
        gap = leader_pos - pos - VEHICLE_LENGTH_M
        usable = gap - MIN_GAP_M + leader_speed * dt
        safe = usable / max(dt + self.headway_s * 0.25, 1e-9)
        v = np.maximum(0.0, np.minimum(vfree, safe))
        v = np.where(gap <= MIN_GAP_M, 0.0, v)
        new_pos = pos + v * dt
        ceiling = leader_pos - VEHICLE_LENGTH_M - MIN_GAP_M * 0.5
        clamped = new_pos > ceiling
        clamped_pos = np.maximum(pos, ceiling)
        new_pos = np.where(clamped, clamped_pos, new_pos)
        v = np.where(clamped, (clamped_pos - pos) / dt, v)
        new_pos = np.where(new_pos > segment_length, segment_length, new_pos)
        return new_pos, np.maximum(0.0, v)

    def follow_scalar(
        self,
        pos: float,
        vfree: float,
        leader_pos: float,
        leader_speed: float,
        segment_length: float,
        dt: float,
    ) -> Tuple[float, float]:
        """Scalar follower update against the leader's post-step state.

        Mirrors :meth:`target_speed` + :meth:`advance` operation for
        operation for a vehicle whose free-flow speed ``vfree`` is already
        known; used for the followers neither batch gate could resolve.
        """
        gap = leader_pos - pos - VEHICLE_LENGTH_M
        if gap <= MIN_GAP_M:
            v = 0.0
        else:
            usable = gap - MIN_GAP_M + leader_speed * dt
            safe = usable / max(dt + self.headway_s * 0.25, 1e-9)
            v = max(0.0, min(vfree, safe))
        new_pos = pos + v * dt
        ceiling = leader_pos - VEHICLE_LENGTH_M - MIN_GAP_M * 0.5
        if new_pos > ceiling:
            new_pos = max(pos, ceiling)
            v = (new_pos - pos) / dt if dt > 0 else 0.0
        if new_pos > segment_length:
            new_pos = segment_length
        return new_pos, max(0.0, v)


@dataclass
class LaneChangeModel:
    """Overtaking lane changes on multi-lane segments.

    A vehicle considers changing lanes when its leader in the current lane is
    slower than its own desired speed by more than ``speed_gain_threshold``
    and closer than ``blocked_distance_m``.  The change is executed when the
    target lane offers at least ``required_gap_m`` of free space around the
    vehicle's position, with probability ``politeness`` of staying put anyway
    (drivers differ).
    """

    speed_gain_threshold_mps: float = 1.0
    blocked_distance_m: float = 40.0
    required_gap_m: float = VEHICLE_LENGTH_M + 2.0 * MIN_GAP_M
    politeness: float = 0.2

    def wants_to_change(self, vehicle: Vehicle, leader: Optional[Vehicle]) -> bool:
        """Whether the vehicle is blocked enough to look for another lane.

        The vectorized engine evaluates this predicate in one pass over its
        gathered order — in NumPy in ``TrafficEngine._advance_segments_batch``
        and in the kernel's ``lane_change_candidates``
        (:func:`~repro.mobility.kernels.lane_change_candidates_py` is its
        oracle); any change here must be mirrored in both — the engine-mode
        agreement tests fail on divergence.
        """
        if leader is None:
            return False
        gap = leader.pos_m - vehicle.pos_m
        if gap > self.blocked_distance_m:
            return False
        return (vehicle.desired_speed_mps - leader.speed_mps) > self.speed_gain_threshold_mps

    def target_lane(
        self,
        vehicle: Vehicle,
        lanes: int,
        occupancy: Sequence[Sequence[Vehicle]],
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Pick a lane to move to, or ``None`` to stay.

        ``occupancy[lane]`` must list the vehicles currently in ``lane`` on
        the same segment (any order).  The vectorized engine ports this
        choice to its resident arrays (``TrafficEngine._lane_change_batch``
        and the kernel's ``lane_change_pass``, with the viability test of
        :func:`~repro.mobility.kernels.lane_options_py`); any change here —
        including RNG draw order — must be mirrored in both.
        """
        if lanes < 2:
            return None
        if rng.random() < self.politeness:
            return None
        candidates = []
        for delta in (1, -1):
            lane = vehicle.lane + delta
            if 0 <= lane < lanes and self._gap_ok(vehicle, occupancy[lane]):
                candidates.append(lane)
        if not candidates:
            return None
        return int(candidates[0] if len(candidates) == 1 else candidates[int(rng.integers(len(candidates)))])

    def _gap_ok(self, vehicle: Vehicle, others: Sequence[Vehicle]) -> bool:
        half = self.required_gap_m / 2.0
        for other in others:
            if abs(other.pos_m - vehicle.pos_m) < half:
                return False
        return True
