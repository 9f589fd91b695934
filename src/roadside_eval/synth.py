"""Synthetic trials: ground-truth generation and error-model degradation.

This module is the test bench for everything else. generate_scenario builds
kinematically clean ground truth for a handful of trial templates (a
back-and-forth constant-speed run for latency work, and simple intersection
maneuvers for tracking metrics); degrade pushes that truth through a
parameterized detection error model (latency with jitter, constant travel-
frame offset, isotropic noise, misses, clutter, persistent id swaps); and
monte_carlo_validate closes the loop by checking the estimator pipeline's
empirical variances against their closed-form predictors.

Determinism matters more than realism here: every random draw flows from an
explicit seed, and identical inputs produce identical outputs byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import Sequence

import numpy as np

from .core import (
    DataFrame,
    DataPoint,
    GeoPoint,
    MAX_PROJECTION_RANGE_M,
    PEDESTRIAN,
    ProjectionContext,
    Trajectory,
    TrajectorySet,
    VEHICLE,
    _bulk_points,
    from_frames,
    from_trajectories,
    make_projection,
    paused_gc,
    time_span,
    trajectory_arrays,
    unproject,
    LocalPoint,
)
from .errors import EvalError, PairingError, ScenarioError
from .latency import (
    LatencyEstimate,
    PositionErrorEstimate,
    RouteLine,
    Tracks,
    collect_tau_samples,
    combine_trials,
    default_test_points,
    estimate_latency,
    estimate_position_error,
    find_constant_speed_windows,
    plane_tracks,
    predict_position_error_variance,
    predict_tau_variance,
)

TEMPLATES = (
    "latency_run",
    "one_vehicle_maneuver",
    "vehicle_plus_pedestrian",
    "two_vehicle_plus_pedestrian",
)

# Shared epoch base so synthetic timestamps look like real unix seconds.
BASE_TIME_S = 1_700_000_000.0

# Trial-site projection origin used when a caller has no better choice.
DEFAULT_ORIGIN = GeoPoint(42.3, -83.7)

_ACCEL_MPS2 = 2.5
_DWELL_S = 1.0
_LANE_OFFSET_M = 1.75
_TURN_RADIUS_M = 6.0
_WALK_SPEED_MPS = 1.4
_CLUTTER_MARGIN_M = 20.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one synthetic trial's ground truth."""

    template: str
    duration_s: float
    rng_seed: int
    gt_rate_hz: float = 10.0
    speeds_mps: tuple[float, ...] = (10.0,)
    route: RouteLine | None = None

    def __post_init__(self) -> None:
        if self.template not in TEMPLATES:
            raise ValueError(
                f"unknown template {self.template!r}; choose from {TEMPLATES}"
            )
        if not 0 < self.duration_s < math.inf:
            raise ScenarioError("duration_s must be positive and finite")
        if not 0 < self.gt_rate_hz < math.inf:
            raise ValueError("gt_rate_hz must be positive and finite")
        if not math.isfinite(self.duration_s * self.gt_rate_hz):
            raise ScenarioError("duration_s * gt_rate_hz overflows: the tick count must be finite")
        if not self.speeds_mps or not all(0 < v < math.inf for v in self.speeds_mps):
            raise ValueError("speeds_mps must be positive and finite")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.route is not None and self.template != "latency_run":
            raise ValueError(f"route drives the latency_run template only, not {self.template!r}")


@dataclass(frozen=True)
class ErrorModel:
    """Detection error model applied on top of ground truth.

    offset_e1_m is (along-track, cross-track-left) in the actor's travel
    frame; noise_sigma_m is per axis; speed_jitter_mps describes how far
    the driver strays from nominal speed (it shapes ground-truth
    generation, not degradation, and is carried here because it is part of
    the same experiment description).
    """

    latency_mean_s: float = 0.0
    latency_std_s: float = 0.0
    offset_e1_m: tuple[float, float] = (0.0, 0.0)
    noise_sigma_m: float = 0.0
    speed_jitter_mps: float = 0.0
    miss_prob: float = 0.0
    clutter_rate: float = 0.0
    id_switch_prob: float = 0.0
    det_rate_hz: float = 10.0

    def __post_init__(self) -> None:
        for name in ("latency_mean_s", "latency_std_s", "noise_sigma_m", "speed_jitter_mps",
                     "clutter_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if not all(map(math.isfinite, self.offset_e1_m)):
            raise ValueError("offset_e1_m must be finite")
        for name in ("miss_prob", "id_switch_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if not 0 < self.det_rate_hz < math.inf:
            raise ValueError("det_rate_hz must be positive and finite")


@dataclass(frozen=True)
class MonteCarloComparison:
    """Empirical estimator variances next to their closed-form predictions."""

    empirical_var_tau: float
    predicted_var_tau: float
    empirical_var_ed: float
    predicted_var_ed: float
    n_runs: int
    n_tau_samples: int
    n_residual_samples: int


def default_latency_route(v0_mps: float = 10.0, window_m: float = 60.0) -> RouteLine:
    """East-west straight route with the constant window centered on 0."""
    half = window_m / 2.0
    return RouteLine(LocalPoint(0.0, 0.0), (1.0, 0.0), -half, half, v0_mps)


def min_round_trip_duration_s(
    route: RouteLine, speed_jitter_mps: float = 0.0
) -> float:
    """Duration guaranteed to fit one forward and one reverse pass.

    A pass takes 2*v/accel for the ramps plus window/v for the transit;
    padding the ramps for speeds up to 5 sigma above nominal and the
    transit for speeds down to 5 sigma below covers any realistic jitter
    draw.
    """
    v0 = route.nominal_speed_mps
    v_hi = v0 + 5.0 * speed_jitter_mps
    v_lo = max(v0 - 5.0 * speed_jitter_mps, 0.3 * v0)
    window = route.window_end_m - route.window_start_m
    one_pass = 2.0 * v_hi / _ACCEL_MPS2 + window / v_lo
    return 2.0 * (one_pass + _DWELL_S) + 1.0


# --- ground-truth kinematics -------------------------------------------------

# One motion phase: s(t) = s0 + v*(t-t0) + a/2*(t-t0)^2 for t in [t0, t1).
_Phase = tuple[float, float, float, float, float]


def _jittered(v: float, rng: np.random.Generator, speed_jitter_mps: float) -> float:
    """Nominal speed v with one normal jitter draw, floored at 0.3 v."""
    if speed_jitter_mps <= 0:
        return v
    return max(v + rng.normal(0.0, speed_jitter_mps), 0.3 * v)


def _trapezoid_phases(
    route: RouteLine,
    duration_s: float,
    rng: np.random.Generator,
    speed_jitter_mps: float,
) -> list[_Phase]:
    """Back-and-forth passes: accelerate, hold v0, decelerate, dwell."""
    w0, w1 = route.window_start_m, route.window_end_m
    phases: list[_Phase] = []
    t = 0.0
    sign = 1
    n_passes = 0
    while True:
        v = _jittered(route.nominal_speed_mps, rng, speed_jitter_mps)
        d_acc = v * v / (2.0 * _ACCEL_MPS2)
        t_a = v / _ACCEL_MPS2
        t_c = (w1 - w0) / v
        if t + 2 * t_a + t_c > duration_s:
            break
        lo, hi = (w0, w1) if sign > 0 else (w1, w0)
        a = sign * _ACCEL_MPS2
        phases.append((t, t + t_a, lo - sign * d_acc, 0.0, a))
        t += t_a
        phases.append((t, t + t_c, lo, sign * v, 0.0))
        t += t_c
        phases.append((t, t + t_a, hi, sign * v, -a))
        t += t_a
        n_passes += 1
        phases.append((t, t + _DWELL_S, hi + sign * d_acc, 0.0, 0.0))
        t += _DWELL_S
        sign = -sign
        if t >= duration_s:
            break
    if n_passes == 0:
        raise ScenarioError(
            f"duration {duration_s} s is too short for even one pass of the route"
        )
    # park at the final position for whatever time remains
    last_s = phases[-1][2]
    phases.append((t, duration_s + 1.0, last_s, 0.0, 0.0))
    return phases


def _eval_phases(phases: Sequence[_Phase], t: np.ndarray) -> np.ndarray:
    t0, t1, s0, v, a = np.array(phases).T
    i = np.clip(np.searchsorted(t0, t, side="right") - 1, 0, None)
    dt = t - t0[i]
    s = s0[i] + v[i] * dt + 0.5 * a[i] * dt * dt
    # the phases tile time contiguously; ticks outside them (before the
    # first start) hold the initial position
    return np.where((t >= t0[i]) & (t < t1[i]), s, s0[0])


def _right_turn(s: np.ndarray, v: float, duration_s: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y at arc length s: eastbound approach, right turn, southbound exit.

    The approach and exit legs split what the quarter circle leaves of the
    distance driven; the vehicle parks at the end of the exit leg.
    """
    r = _TURN_RADIUS_M
    leg = (v * duration_s - math.pi * r / 2.0) / 2.0
    if leg <= 0:
        raise ScenarioError(
            f"duration {duration_s} s at {v} m/s is too short for the turn maneuver"
        )
    # the arc turns about (x_c, y_c), from (x_c, y_in) to (x_out, y_c)
    x_out, y_in = _LANE_OFFSET_M, -_LANE_OFFSET_M
    x_c, y_c = x_out - r, y_in - r
    # each leg's length is its end points' difference, which can differ from
    # leg in the last bit; the joints, and so every generated row, carry it
    j1, j2, total = np.cumsum((x_c - (x_c - leg), math.pi / 2.0 * r, y_c - (y_c - leg)))
    s = np.clip(s, 0.0, total)
    ang = math.pi / 2.0 - (s - j1) / r
    on_arc = s < j2
    x = np.where(s < j1, x_c - leg + s, np.where(on_arc, x_c + r * np.cos(ang), x_out))
    y = np.where(s < j1, y_in, np.where(on_arc, y_c + r * np.sin(ang), y_c - (s - j2)))
    return x, y


def generate_scenario(
    spec: ScenarioSpec,
    ctx: ProjectionContext,
    speed_jitter_mps: float = 0.0,
) -> TrajectorySet:
    """Ground truth for one trial template, sampled at gt_rate_hz.

    speed_jitter_mps perturbs the nominal speed (one draw per pass of a
    latency run, one per actor otherwise); zero keeps constant-speed
    stretches exactly constant. Raises ScenarioError when the template
    cannot fit the duration, or when an actor strays farther than
    MAX_PROJECTION_RANGE_M from the plane origin, where nothing could
    score it.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n_ticks = int(round(spec.duration_s * spec.gt_rate_hz)) + 1
    t_rel = np.arange(n_ticks) / spec.gt_rate_hz
    times = BASE_TIME_S + t_rel

    def speed(i: int, default: float = 10.0) -> float:
        v = spec.speeds_mps[i] if i < len(spec.speeds_mps) else default
        return _jittered(v, rng, speed_jitter_mps)

    actors: list[tuple[str, str, np.ndarray, np.ndarray]] = []  # (id, category, x, y)
    # an overflowing speed gives inf or NaN positions, which the range check
    # below reports; numpy's warnings on the way would only come first
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.template == "latency_run":
            route = spec.route or default_latency_route(spec.speeds_mps[0])
            phases = _trapezoid_phases(route, spec.duration_s, rng, speed_jitter_mps)
            s = _eval_phases(phases, t_rel)
            ux, uy = route.direction
            actors.append(("veh-01", VEHICLE, route.anchor.x_m + s * ux, route.anchor.y_m + s * uy))
        elif spec.template == "one_vehicle_maneuver":
            v = speed(0)
            actors.append(("veh-01", VEHICLE, *_right_turn(v * t_rel, v, spec.duration_s)))
        else:
            # eastbound through the intersection, centred on it over the trial
            v1 = speed(0)
            x1 = -v1 * spec.duration_s / 2.0 + v1 * t_rel
            actors.append(("veh-01", VEHICLE, x1, np.full(n_ticks, -_LANE_OFFSET_M)))
            if spec.template == "two_vehicle_plus_pedestrian":
                # northbound, lagged so the two vehicles never meet at the crossing
                v2 = speed(1)
                y2 = -v2 * spec.duration_s / 2.0 - 15.0 + v2 * t_rel
                actors.append(("veh-02", VEHICLE, np.full(n_ticks, _LANE_OFFSET_M), y2))
            # the pedestrian, whose speed follows the vehicles', paces the
            # crosswalk at x = -10 m from y = -8 m to 8 m and back
            phase = speed(len(actors), _WALK_SPEED_MPS) * t_rel % 32.0
            y_ped = np.where(phase <= 16.0, phase, 32.0 - phase) - 8.0
            actors.append(("ped-01", PEDESTRIAN, np.full(n_ticks, -10.0), y_ped))

    trajectories = []
    for oid, cat, x, y in sorted(actors, key=lambda a: a[0]):
        reach = np.hypot(x, y).max()  # NaN if any position is NaN
        if not reach <= MAX_PROJECTION_RANGE_M:
            raise ScenarioError(
                f"{spec.template}: {oid} reaches {reach:.0f} m from the projection origin; "
                f"flat-plane validity ends at {MAX_PROJECTION_RANGE_M:.0f} m"
            )
        lat, lon = unproject(LocalPoint(x, y), ctx)
        trajectories.append(Trajectory(oid, cat, np.array((times, lat, lon)).T))
    return from_trajectories(trajectories, times, "ground_truth")


# --- degradation -------------------------------------------------------------


def degrade(
    gt: TrajectorySet,
    model: ErrorModel,
    ctx: ProjectionContext,
    rng: np.random.Generator | int,
    route_direction: tuple[float, float] = (1.0, 0.0),
) -> TrajectorySet:
    """Detections for a ground-truth set under the error model.

    Output ticks at det_rate_hz across the gt time span; every tick yields a
    frame even if all of its points are missed (an empty report is still a
    report, and miss accounting depends on it). Each frame draws one latency
    value shared by its points. The constant offset is a fixed vector in the
    scene: offset_e1_m = (along, cross-left) relative to route_direction, so
    on a back-and-forth run its along-route component biases the two travel
    directions with opposite signs and cancels in a paired mean. Id swaps
    are persistent from the frame they occur. rng is an int seed or a
    Generator, so every call is reproducible.

    Every model takes one path: per-actor draws, then a loop over only the
    ticks that draw a swap or clutter, then each actor's kept points built
    in bulk with the id it reports at each tick. When no swap took place
    and no clutter was drawn, the actors' trajectories are handed over too.
    """
    rng = np.random.default_rng(rng)
    if not len(gt.frame_times):
        return TrajectorySet((), "detection")

    t0, t1 = gt.frame_times[[0, -1]].tolist()
    span = (t1 - t0) * model.det_rate_hz
    if not math.isfinite(span):
        raise ValueError("gt time span * det_rate_hz overflows: the tick count must be finite")
    n_ticks = max(int(math.floor(span)) + 1, 1)
    ticks = t0 + np.arange(n_ticks) / model.det_rate_hz

    lat = np.maximum(rng.normal(model.latency_mean_s, model.latency_std_s, n_ticks), 0.0)

    e1_along, e1_cross = model.offset_e1_m
    norm = math.hypot(*route_direction)
    if not 0 < norm < math.inf:
        raise ValueError("route_direction must be non-zero and finite")
    ux, uy = route_direction[0] / norm, route_direction[1] / norm
    e1_x = e1_along * ux - e1_cross * uy
    e1_y = e1_along * uy + e1_cross * ux
    query = ticks - lat
    actors = []  # (id, category, lat, lon, valid, kept ticks); gt trajectories are in id order
    extent = []  # each actor's gt (x, y) minima and maxima; clutter falls near them
    for traj in gt.trajectories:
        t_a, xy_a = trajectory_arrays(traj.rows, ctx)
        valid = (query >= t_a[0]) & (query <= t_a[-1]) if len(t_a) >= 2 else np.zeros(
            n_ticks, bool
        )
        x = np.interp(query, t_a, xy_a[:, 0]) + e1_x
        y = np.interp(query, t_a, xy_a[:, 1]) + e1_y
        if model.noise_sigma_m > 0:
            noise = rng.normal(0.0, model.noise_sigma_m, (n_ticks, 2))
            x = x + noise[:, 0]
            y = y + noise[:, 1]
        missed = rng.random(n_ticks) < model.miss_prob if model.miss_prob > 0 else (
            np.zeros(n_ticks, bool)
        )
        if model.clutter_rate > 0 and len(xy_a):
            extent += (xy_a.min(axis=0), xy_a.max(axis=0))
        lat_deg, lon_deg = unproject(LocalPoint(x, y), ctx)
        kept = np.flatnonzero(valid & ~missed)
        actors.append((traj.object_id, traj.category, lat_deg, lon_deg, valid, kept))

    clutter_counts = np.zeros(n_ticks, int)
    if model.clutter_rate > 0:
        clutter_counts = rng.poisson(model.clutter_rate, n_ticks)
        box = np.array(extent or [(0.0, 0.0)])  # a gt without points: around the origin
        box_lo, box_hi = box.min(axis=0) - _CLUTTER_MARGIN_M, box.max(axis=0) + _CLUTTER_MARGIN_M
    swapped = rng.random(n_ticks) < model.id_switch_prob if model.id_switch_prob > 0 else (
        np.zeros(n_ticks, bool)
    )
    categories = sorted({actor[1] for actor in actors})

    reported = [actor[0] for actor in actors]  # the id each actor reports
    id_maps = [reported[:]]  # reported ids before the first swap and after each
    swap_ticks: list[int] = []
    clutter = []  # (tick, x, y, category) per clutter point, in draw order
    for k in np.flatnonzero(swapped | (clutter_counts > 0)).tolist():
        present = [a for a, actor in enumerate(actors) if actor[4][k]]
        if swapped[k] and len(present) >= 2:
            a, b = rng.choice(present, size=2, replace=False)
            reported[a], reported[b] = reported[b], reported[a]
            swap_ticks.append(k)
            id_maps.append(reported[:])
        for _ in range(clutter_counts[k]):
            cx = rng.uniform(box_lo[0], box_hi[0])
            cy = rng.uniform(box_lo[1], box_hi[1])
            cat = categories[rng.integers(len(categories))] if categories else VEHICLE
            clutter.append((k, cx, cy, cat))

    handover = not swap_ticks and not clutter
    id_table = np.array(id_maps, dtype=object)
    slots: list[list[DataPoint]] = [[] for _ in range(n_ticks)]
    trajectories = []
    for a, (oid, cat, lat_deg, lon_deg, _, kept) in enumerate(actors):
        rows = np.array((ticks[kept], lat_deg[kept], lon_deg[kept])).T
        ids = repeat(oid)
        if swap_ticks:  # a swap at tick k already holds at tick k
            ids = id_table[np.searchsorted(swap_ticks, kept, "right"), a].tolist()
        points = _bulk_points(rows, repeat(cat), ids)
        for k, p in zip(kept.tolist(), points):
            slots[k].append(p)
        if handover and points:
            trajectories.append(Trajectory(oid, cat, rows))
    if clutter:
        ks, xs, ys, cats = zip(*clutter)
        geo = unproject(LocalPoint(np.array(xs), np.array(ys)), ctx)
        rows = np.array((ticks[list(ks)], geo.lat_deg, geo.lon_deg)).T
        ids = [f"clutter-{n:05d}" for n in range(1, len(ks) + 1)]
        for k, p in zip(ks, _bulk_points(rows, cats, ids)):
            slots[k].append(p)
    # actors fill each frame in id order; a swap can break that order in
    # every later frame, clutter only in its own
    first_swap = swap_ticks[0] if swap_ticks else n_ticks
    for k in chain(range(first_swap, n_ticks), (c[0] for c in clutter)):
        slots[k].sort(key=attrgetter("object_id"))
    frames = map(tuple.__new__, repeat(DataFrame), zip(ticks.tolist(), map(tuple, slots)))
    det = from_frames(list(frames), "detection")
    return det._with_views(trajectories=tuple(trajectories)) if handover else det


# --- Monte Carlo validation --------------------------------------------------

# Runs scored together: each scoring step is one array pass per block, and
# only one block's seeds and tracks are held at a time.
_MC_BLOCK_RUNS = 32


def _simulate_block(
    children: Sequence[np.random.SeedSequence],
    model: ErrorModel,
    route: RouteLine,
    ctx: ProjectionContext,
    duration_s: float,
    gt_rate_hz: float,
) -> tuple[Tracks, Tracks, list[int | None]]:
    """One generated and degraded latency run per seed, as plane tracks.

    Returns the runs' gt and detection tracks, run i as trial i, and per
    run the index among its detection tracks of the actor's first tracked
    id (None when the actor was never detected). Only the runs'
    trajectories are kept until the block is projected.
    """
    gt_runs, det_runs, tracked = [], [], []
    for child in children:
        ss_gen, ss_deg = child.spawn(2)
        spec = ScenarioSpec(
            template="latency_run",
            duration_s=duration_s,
            rng_seed=int(ss_gen.generate_state(1)[0]),
            gt_rate_hz=gt_rate_hz,
            speeds_mps=(route.nominal_speed_mps,),
            route=route,
        )
        gt = generate_scenario(spec, ctx, speed_jitter_mps=model.speed_jitter_mps)
        det = degrade(gt, model, ctx, rng=np.random.default_rng(ss_deg), route_direction=route.direction)
        gt_runs.append(gt.trajectories)
        det_runs.append(det.trajectories)
        # clutter tracks sort ahead of the actor's; pick it by id
        actor = gt.trajectories[0].object_id
        tracked.append(next((k for k, t in enumerate(det.trajectories) if t.object_id == actor), None))
    return plane_tracks(gt_runs, ctx), plane_tracks(det_runs, ctx), tracked


def _score_block(
    gt: Tracks,
    det: Tracks,
    tracked: Sequence[int | None],
    route: RouteLine,
    model: ErrorModel,
    test_points: np.ndarray,
) -> list[tuple[LatencyEstimate, PositionErrorEstimate]]:
    """Latency and offset estimates of the runs of a block that give both.

    Run i (see _simulate_block) has its actor's track first among its gt
    tracks. The gt windows feed the tau samples and pick the detections of
    the actor's tracked id for the offset fit: those whose queries land
    safely inside a window. The margin keeps every residual's
    interpolation segment at the nominal speed even after the latency draw
    shifts the effective sample time.
    """
    windows = find_constant_speed_windows(gt, route)
    samples = collect_tau_samples(det, gt, windows, route, test_points)
    runs = np.arange(len(tracked) + 1)
    cuts = np.searchsorted(samples.trial, runs).tolist()
    gt_first = np.searchsorted(gt.trial, runs).tolist()
    det_first = np.searchsorted(det.trial, runs).tolist()
    usable: list[tuple[int, int, LatencyEstimate]] = []
    for run, (a, b) in enumerate(zip(cuts, cuts[1:])):
        try:
            est = estimate_latency(samples.tau_s[a:b], samples.direction_sign[a:b])
        except PairingError:
            continue
        if tracked[run] is not None:
            usable.append((gt_first[run], det_first[run] + tracked[run], est))
    if not usable:
        return []

    gt_track, det_track, ests = zip(*usable)
    gt_track, det_track = np.array(gt_track), np.array(det_track)
    # the usable runs' windows, and which of those runs each belongs to
    track = gt.owner[windows.start]
    at = np.flatnonzero(np.isin(track, gt_track))
    run = np.searchsorted(gt_track, track[at])
    d = det_track[run]
    lat = model.latency_mean_s
    margin = 4.0 * model.latency_std_s + 0.1 + 1.0 / model.det_rate_hz
    t0, t1 = gt.times[windows.start[at]], gt.times[windows.stop[at] - 1]
    i, j = time_span(det.times, t0 + lat + margin, t1 + lat - margin, det.bounds[d], det.bounds[d + 1])
    # a run's windows are disjoint and in time order, so are their spans
    kept = det.cut(i, j)
    pos = estimate_position_error(
        kept._replace(bounds=kept.bounds[np.searchsorted(run, np.arange(len(ests) + 1))]),
        gt.cut(gt.bounds[gt_track], gt.bounds[gt_track + 1]),
        [e.mean_s for e in ests],
    )
    return [(e, p) for e, p in zip(ests, pos) if p is not None]


def monte_carlo_validate(
    model: ErrorModel,
    route: RouteLine,
    n_runs: int,
    master_seed: int = 0,
    gt_rate_hz: float = 10.0,
) -> MonteCarloComparison:
    """Empirical vs predicted variances over repeated synthetic trials.

    Each run generates a one-round-trip latency scenario on the
    DEFAULT_ORIGIN plane from its own seeds, and degrades it; blocks of
    runs are then fed to the public estimators together. Var(tau) is
    pooled within direction across runs (via the estimator's own pooled
    std); Var(e_d) pools the per-run along-track residual spreads,
    restricted to detections that fall well inside the constant-speed
    windows because that constant-speed regime is what the closed-form
    predictors describe. For the predictors to apply, latency_mean_s
    should also sit several latency_std_s above zero, otherwise the clamp
    at zero genuinely reduces the realized jitter.
    """
    if n_runs < 100:
        raise ValueError("n_runs must be at least 100 for stable variances")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    ctx = make_projection(DEFAULT_ORIGIN)
    duration_s = min_round_trip_duration_s(route, model.speed_jitter_mps)
    test_points = default_test_points(route)

    estimates: list[LatencyEstimate] = []
    rms_acc: list[tuple[int, float]] = []
    n_residuals = 0
    seeds = np.random.SeedSequence(master_seed)
    with paused_gc():
        for first in range(0, n_runs, _MC_BLOCK_RUNS):
            # successive spawns continue the children's numbering, so each
            # run gets the child a single spawn of n_runs would give it
            children = seeds.spawn(min(_MC_BLOCK_RUNS, n_runs - first))
            gt, det, tracked = _simulate_block(children, model, route, ctx, duration_s, gt_rate_hz)
            for est, pos in _score_block(gt, det, tracked, route, model, test_points):
                estimates.append(est)
                rms_acc.append((pos.n_samples, pos.residual_rms_m))
                n_residuals += pos.n_samples

    if len(estimates) < max(n_runs // 2, 2):
        raise EvalError(
            f"only {len(estimates)} of {n_runs} runs produced usable estimates"
        )
    pooled = combine_trials(estimates)
    dof = sum(n - 1 for n, _ in rms_acc)
    emp_var_ed = (
        math.fsum((n - 1) * r * r for n, r in rms_acc) / dof if dof > 0 else 0.0
    )
    return MonteCarloComparison(
        empirical_var_tau=pooled.std_s**2,
        predicted_var_tau=predict_tau_variance(
            model.latency_std_s**2, model.noise_sigma_m**2, route.nominal_speed_mps
        ),
        empirical_var_ed=emp_var_ed,
        predicted_var_ed=predict_position_error_variance(
            model.latency_std_s**2, model.noise_sigma_m**2, route.nominal_speed_mps
        ),
        n_runs=len(estimates),
        n_tau_samples=pooled.n_samples,
        n_residual_samples=n_residuals,
    )
