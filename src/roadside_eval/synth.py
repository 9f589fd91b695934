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

import gc
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .core import (
    DataFrame,
    DataPoint,
    GeoPoint,
    PEDESTRIAN,
    ProjectionContext,
    Trajectory,
    TrajectorySet,
    VEHICLE,
    from_frames,
    make_projection,
    slice_trajectory,
    trajectory_arrays,
    unproject,
    LocalPoint,
)
from .errors import EvalError, InsufficientDataError, PairingError, ScenarioError
from .latency import (
    LatencyEstimate,
    RouteLine,
    collect_tau_samples,
    combine_trials,
    estimate_latency,
    estimate_position_error,
    find_constant_speed_windows,
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
    routes: tuple[RouteLine, ...] = ()

    def __post_init__(self) -> None:
        if self.template not in TEMPLATES:
            raise ValueError(
                f"unknown template {self.template!r}; choose from {TEMPLATES}"
            )
        if self.duration_s <= 0:
            raise ScenarioError("duration_s must be positive")
        if self.gt_rate_hz <= 0:
            raise ValueError("gt_rate_hz must be positive")
        if not self.speeds_mps or any(v <= 0 for v in self.speeds_mps):
            raise ValueError("speeds_mps must be positive")


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
        if self.latency_mean_s < 0:
            raise ValueError("latency_mean_s must be non-negative")
        for name in ("latency_std_s", "noise_sigma_m", "speed_jitter_mps", "clutter_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("miss_prob", "id_switch_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.det_rate_hz <= 0:
            raise ValueError("det_rate_hz must be positive")


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
        v = route.nominal_speed_mps
        if speed_jitter_mps > 0:
            v = max(v + rng.normal(0.0, speed_jitter_mps), 0.3 * v)
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


_PathFn = Callable[[np.ndarray], np.ndarray]


def _path_from_segments(
    segments: list[tuple[float, Callable[[np.ndarray], np.ndarray]]]
) -> tuple[float, _PathFn]:
    """Compose (length, eval) segments into one arc-length-addressed path."""
    lengths = np.array([seg[0] for seg in segments])
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    total = float(cum[-1])

    def at(s: np.ndarray) -> np.ndarray:
        s = np.clip(s, 0.0, total)
        out = np.empty((len(s), 2))
        for i, (_, fn) in enumerate(segments):
            m = (s >= cum[i]) & (s <= cum[i + 1]) if i == len(segments) - 1 else (
                (s >= cum[i]) & (s < cum[i + 1])
            )
            if m.any():
                out[m] = fn(s[m] - cum[i])
        return out

    return total, at


def _line(p0: tuple[float, float], p1: tuple[float, float]):
    length = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    ux, uy = (p1[0] - p0[0]) / length, (p1[1] - p0[1]) / length

    def fn(s: np.ndarray) -> np.ndarray:
        return np.stack((p0[0] + ux * s, p0[1] + uy * s), axis=1)

    return length, fn


def _arc(center: tuple[float, float], radius: float, ang0: float, sweep: float):
    length = abs(sweep) * radius

    def fn(s: np.ndarray) -> np.ndarray:
        ang = ang0 + np.sign(sweep) * s / radius
        return np.stack(
            (center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)),
            axis=1,
        )

    return length, fn


def _right_turn_path(v: float, duration_s: float) -> _PathFn:
    """Eastbound approach, right turn at the intersection, southbound exit."""
    r = _TURN_RADIUS_M
    arc_len = math.pi * r / 2.0
    total = v * duration_s
    leg = (total - arc_len) / 2.0
    if leg <= 0:
        raise ScenarioError(
            f"duration {duration_s} s at {v} m/s is too short for the turn maneuver"
        )
    y_in = -_LANE_OFFSET_M
    x_out = _LANE_OFFSET_M
    turn_in = (x_out - r, y_in)
    segments = [
        _line((turn_in[0] - leg, y_in), turn_in),
        _arc((x_out - r, y_in - r), r, math.pi / 2.0, -math.pi / 2.0),
        _line((x_out, y_in - r), (x_out, y_in - r - leg)),
    ]
    return _path_from_segments(segments)[1]


def _straight_path(lane: float, axis: str, start: float) -> _PathFn:
    def fn(s: np.ndarray) -> np.ndarray:
        if axis == "x":
            return np.stack((start + s, np.full_like(s, lane)), axis=1)
        return np.stack((np.full_like(s, lane), start + s), axis=1)

    return fn


def _crosswalk_path(x: float, y0: float, y1: float) -> _PathFn:
    span = abs(y1 - y0)

    def fn(s: np.ndarray) -> np.ndarray:
        phase = np.mod(s, 2.0 * span)
        y = np.where(phase <= span, phase, 2.0 * span - phase)
        return np.stack((np.full_like(s, x), y0 + np.sign(y1 - y0) * y), axis=1)

    return fn


def _actor_speed(spec: ScenarioSpec, i: int, default: float) -> float:
    return spec.speeds_mps[i] if i < len(spec.speeds_mps) else default


def generate_scenario(
    spec: ScenarioSpec,
    ctx: ProjectionContext,
    speed_jitter_mps: float = 0.0,
) -> TrajectorySet:
    """Ground truth for one trial template, sampled at gt_rate_hz.

    speed_jitter_mps perturbs the nominal speed (one draw per pass of a
    latency run, one per actor otherwise); zero keeps constant-speed
    stretches exactly constant.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n_ticks = int(round(spec.duration_s * spec.gt_rate_hz)) + 1
    t_rel = np.arange(n_ticks) / spec.gt_rate_hz
    times = BASE_TIME_S + t_rel

    def jittered(v: float) -> float:
        if speed_jitter_mps <= 0:
            return v
        return max(v + rng.normal(0.0, speed_jitter_mps), 0.3 * v)

    actors: list[tuple[str, str, np.ndarray]] = []  # (id, category, xy)
    if spec.template == "latency_run":
        route = spec.routes[0] if spec.routes else default_latency_route(
            spec.speeds_mps[0]
        )
        phases = _trapezoid_phases(route, spec.duration_s, rng, speed_jitter_mps)
        s = _eval_phases(phases, t_rel)
        ux, uy = route.direction
        xy = np.stack(
            (route.anchor.x_m + s * ux, route.anchor.y_m + s * uy), axis=1
        )
        actors.append(("veh-01", VEHICLE, xy))
    elif spec.template == "one_vehicle_maneuver":
        v = jittered(_actor_speed(spec, 0, 10.0))
        path = _right_turn_path(v, spec.duration_s)
        actors.append(("veh-01", VEHICLE, path(v * t_rel)))
    elif spec.template in ("vehicle_plus_pedestrian", "two_vehicle_plus_pedestrian"):
        v1 = jittered(_actor_speed(spec, 0, 10.0))
        length = v1 * spec.duration_s
        path1 = _straight_path(-_LANE_OFFSET_M, "x", -length / 2.0)
        actors.append(("veh-01", VEHICLE, path1(v1 * t_rel)))
        ped_index = 1
        if spec.template == "two_vehicle_plus_pedestrian":
            v2 = jittered(_actor_speed(spec, 1, 10.0))
            # lag the second vehicle so the two never meet at the crossing
            path2 = _straight_path(_LANE_OFFSET_M, "y", -v2 * spec.duration_s / 2.0 - 15.0)
            actors.append(("veh-02", VEHICLE, path2(v2 * t_rel)))
            ped_index = 2
        v_ped = jittered(_actor_speed(spec, ped_index, _WALK_SPEED_MPS))
        path_ped = _crosswalk_path(-10.0, -8.0, 8.0)
        actors.append(("ped-01", PEDESTRIAN, path_ped(v_ped * t_rel)))
    else:  # pragma: no cover - ScenarioSpec already validates
        raise ScenarioError(f"unhandled template {spec.template!r}")

    # tolist() yields native floats, so the points serialize as literals;
    # every actor has a point at every tick, so frames zip the id-sorted series
    times_f = times.tolist()
    series = []
    for oid, cat, xy in sorted(actors, key=lambda a: a[0]):
        lat = (ctx.origin.lat_deg + xy[:, 1] / ctx.meters_per_deg_lat).tolist()
        lon = (ctx.origin.lon_deg + xy[:, 0] / ctx.meters_per_deg_lon).tolist()
        geo = map(GeoPoint, lat, lon)
        series.append(map(DataPoint, times_f, geo, repeat(cat), repeat(oid)))
    frames = map(DataFrame, times_f, zip(*series))
    return TrajectorySet(tuple(frames), "ground_truth")


# --- degradation -------------------------------------------------------------


def degrade(
    gt: TrajectorySet,
    model: ErrorModel,
    ctx: ProjectionContext,
    rng: np.random.Generator | int | None = None,
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
    are persistent from the frame they occur. Pass an int or Generator for
    reproducibility.
    """
    rng = np.random.default_rng(rng)
    if not gt.frames:
        return TrajectorySet((), "detection")

    t0 = gt.frames[0].timestamp_s
    t1 = gt.frames[-1].timestamp_s
    n_ticks = max(int(math.floor((t1 - t0) * model.det_rate_hz)) + 1, 1)
    ticks = t0 + np.arange(n_ticks) / model.det_rate_hz

    lat_draw = rng.normal(model.latency_mean_s, model.latency_std_s, n_ticks)
    lat = np.maximum(lat_draw, 0.0) if model.latency_std_s > 0 else np.full(
        n_ticks, model.latency_mean_s
    )

    e1_along, e1_cross = model.offset_e1_m
    norm = math.hypot(*route_direction)
    if norm == 0:
        raise ValueError("route_direction must be non-zero")
    ux, uy = route_direction[0] / norm, route_direction[1] / norm
    e1_x = e1_along * ux - e1_cross * uy
    e1_y = e1_along * uy + e1_cross * ux
    actor_ids = [traj.object_id for traj in gt.trajectories]
    query = ticks - lat
    per_actor = []
    for traj in gt.trajectories:
        t_a, xy_a = trajectory_arrays(traj, ctx)
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
        lat_deg = ctx.origin.lat_deg + y / ctx.meters_per_deg_lat
        lon_deg = ctx.origin.lon_deg + x / ctx.meters_per_deg_lon
        per_actor.append((traj.category, lat_deg, lon_deg, valid, missed))

    clutter_counts = (
        rng.poisson(model.clutter_rate, n_ticks)
        if model.clutter_rate > 0
        else np.zeros(n_ticks, int)
    )
    swap_draws = (
        rng.random(n_ticks) if model.id_switch_prob > 0 else np.ones(n_ticks)
    )
    bbox = _clutter_bbox(gt, ctx) if model.clutter_rate > 0 else None
    categories = sorted({traj.category for traj in gt.trajectories})

    swapping = model.id_switch_prob > 0
    cluttering = model.clutter_rate > 0
    ticks_f = ticks.tolist()
    # id-sorted per-actor series as plain lists; tolist() yields native floats
    order = sorted(range(len(actor_ids)), key=lambda a: actor_ids[a])
    cols = []
    for a in order:
        cat, lat_deg, lon_deg, valid, missed = per_actor[a]
        cols.append(
            (actor_ids[a], cat, lat_deg.tolist(), lon_deg.tolist(),
             valid.tolist(), (valid & ~missed).tolist())
        )

    frames = []
    if not swapping and not cluttering:
        # hot path for repeated trials: identities never change, so each
        # frame is read straight off the id-sorted series
        for k, t_k in enumerate(ticks_f):
            pts = tuple(
                DataPoint(t_k, GeoPoint(la[k], lo[k]), cat, oid)
                for oid, cat, la, lo, _, keep in cols
                if keep[k]
            )
            frames.append(DataFrame(t_k, pts))
        return from_frames(frames, "detection")

    reported = list(range(len(cols)))  # column -> reported identity slot
    n_clutter = 0
    for k, t_k in enumerate(ticks_f):
        present = [a for a in range(len(cols)) if cols[a][4][k]]
        if swapping and len(present) >= 2 and swap_draws[k] < model.id_switch_prob:
            a, b = rng.choice(present, size=2, replace=False)
            reported[a], reported[b] = reported[b], reported[a]
        pts = []
        for a in present:
            oid, cat, la, lo, _, keep = cols[a]
            if not keep[k]:
                continue
            pts.append(
                DataPoint(
                    t_k,
                    GeoPoint(la[k], lo[k]),
                    cat,
                    cols[reported[a]][0],
                )
            )
        for _ in range(int(clutter_counts[k])):
            n_clutter += 1
            cx = float(rng.uniform(bbox[0], bbox[1]))
            cy = float(rng.uniform(bbox[2], bbox[3]))
            cat = categories[rng.integers(len(categories))] if categories else VEHICLE
            pts.append(
                DataPoint(
                    t_k,
                    unproject(LocalPoint(cx, cy), ctx),
                    cat,
                    f"clutter-{n_clutter:05d}",
                )
            )
        pts.sort(key=lambda p: p.object_id)
        frames.append(DataFrame(t_k, tuple(pts)))
    return from_frames(frames, "detection")


def _clutter_bbox(gt: TrajectorySet, ctx: ProjectionContext) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for traj in gt.trajectories:
        _, xy = trajectory_arrays(traj, ctx)
        if len(xy):
            xs.extend((float(xy[:, 0].min()), float(xy[:, 0].max())))
            ys.extend((float(xy[:, 1].min()), float(xy[:, 1].max())))
    if not xs:
        return (-_CLUTTER_MARGIN_M, _CLUTTER_MARGIN_M, -_CLUTTER_MARGIN_M, _CLUTTER_MARGIN_M)
    return (
        min(xs) - _CLUTTER_MARGIN_M,
        max(xs) + _CLUTTER_MARGIN_M,
        min(ys) - _CLUTTER_MARGIN_M,
        max(ys) + _CLUTTER_MARGIN_M,
    )


def swap_object_ids(
    ts: TrajectorySet, id_a: str, id_b: str, from_time_s: float
) -> TrajectorySet:
    """Swap two reported ids for every point at or after from_time_s.

    Deterministic counterpart of the id_switch_prob mechanism, for tests
    that need a switch at a known instant.
    """
    swap = {id_a: id_b, id_b: id_a}
    frames = []
    for f in ts.frames:
        pts = tuple(
            DataPoint(
                p.timestamp_s,
                p.position,
                p.category,
                swap.get(p.object_id, p.object_id)
                if p.timestamp_s >= from_time_s
                else p.object_id,
            )
            for p in f.points
        )
        frames.append(DataFrame(f.timestamp_s, pts))
    return from_frames(frames, ts.source)


# --- Monte Carlo validation --------------------------------------------------


def _constant_window_slice(
    det_traj: Trajectory,
    gt_traj: Trajectory,
    route: RouteLine,
    model: ErrorModel,
    ctx: ProjectionContext,
) -> Trajectory:
    """Detections whose queries land safely inside constant-speed windows.

    The margin keeps every residual's interpolation segment at the nominal
    speed even after the latency draw shifts the effective sample time.
    """
    margin = 4.0 * model.latency_std_s + 0.1 + 1.0 / model.det_rate_hz
    pts: list[DataPoint] = []
    for w in find_constant_speed_windows(gt_traj, route, ctx):
        part = slice_trajectory(
            det_traj,
            w.t_start_s + model.latency_mean_s + margin,
            w.t_end_s + model.latency_mean_s - margin,
        )
        if part is not None:
            pts.extend(part.points)
    if len(pts) < 10:
        raise InsufficientDataError(
            "too few detections inside constant-speed windows"
        )
    return Trajectory(det_traj.object_id, det_traj.category, tuple(pts))


def monte_carlo_validate(
    model: ErrorModel,
    route: RouteLine,
    n_runs: int,
    master_seed: int = 0,
    gt_rate_hz: float = 10.0,
) -> MonteCarloComparison:
    """Empirical vs predicted variances over repeated synthetic trials.

    Each run generates a one-round-trip latency scenario on the
    DEFAULT_ORIGIN plane, degrades it, and feeds the public estimators.
    Var(tau) is pooled within direction across runs (via the estimator's
    own pooled std); Var(e_d) pools the per-run along-track residual
    spreads, restricted to detections that fall well inside the
    constant-speed windows because that constant-speed regime is what the
    closed-form predictors describe. For the predictors to apply,
    latency_mean_s should also sit several latency_std_s above zero,
    otherwise the clamp at zero genuinely reduces the realized jitter.
    """
    if n_runs < 100:
        raise ValueError("n_runs must be at least 100 for stable variances")
    ctx = make_projection(DEFAULT_ORIGIN)
    duration_s = min_round_trip_duration_s(route, model.speed_jitter_mps)

    estimates: list[LatencyEstimate] = []
    rms_acc: list[tuple[int, float]] = []
    n_residuals = 0
    children = np.random.SeedSequence(master_seed).spawn(n_runs)
    # Each run allocates thousands of short-lived objects and no reference
    # cycles, so reference counting frees all of them; the cyclic collector's
    # full passes over the whole heap would find nothing, yet cost about a
    # tenth of the loop in a large process. It is paused for the loop only.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for child in children:
            ss_gen, ss_deg = child.spawn(2)
            spec = ScenarioSpec(
                template="latency_run",
                duration_s=duration_s,
                rng_seed=int(ss_gen.generate_state(1)[0]),
                gt_rate_hz=gt_rate_hz,
                speeds_mps=(route.nominal_speed_mps,),
                routes=(route,),
            )
            gt = generate_scenario(spec, ctx, speed_jitter_mps=model.speed_jitter_mps)
            det = degrade(
                gt,
                model,
                ctx,
                rng=np.random.default_rng(ss_deg),
                route_direction=route.direction,
            )
            try:
                est = estimate_latency(collect_tau_samples(det, gt, route, ctx))
                actor = gt.trajectories[0]
                # clutter tracks sort ahead of the actor's; pick it by id
                tracked = [t for t in det.trajectories if t.object_id == actor.object_id]
                if not tracked:
                    raise InsufficientDataError("the actor was never detected")
                part = _constant_window_slice(tracked[0], actor, route, model, ctx)
                pos = estimate_position_error(part, actor, est, ctx)
            except (InsufficientDataError, PairingError):
                continue
            estimates.append(est)
            rms_acc.append((pos.n_samples, pos.residual_rms_m))
            n_residuals += pos.n_samples
    finally:
        if gc_was_enabled:
            gc.enable()

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
