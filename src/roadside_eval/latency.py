"""Latency and positioning-error estimation from paired constant-speed runs.

A test vehicle drives back and forth along a straight route at nominal
speed v0. Detection and ground-truth crossings of fixed test points along
the route yield per-crossing time differences tau whose mean in one travel
direction is biased by the detector's constant along-track offset (by
-offset/v0 one way, +offset/v0 the other). Averaging the two directions
cancels the offset and leaves the expected latency; re-projecting
detections back by that latency then exposes the constant offset itself.
The estimators take plane tracks: the (times, xy) arrays that
core.trajectory_arrays gives for one trajectory, cut by index into passes.

Crossing timing: the ground-truth crossing of a test point is linearly
interpolated between bracketing samples (the gt trace is smooth and
effectively noise-free). The detection crossing is anchored on a single
detection sample (the one nearest in time to the crossing of the pass's
fitted arc-vs-time line) and back-projected through that sample at the
fitted speed. Interpolating between two detection samples instead would
average their independent latency/noise draws and visibly shrink the tau
spread (by ~2/3 for i.i.d. per-frame errors), so variance-prediction
checks would be impossible to satisfy; the anchored rule keeps each tau a
single-sample observation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    GeoPoint,
    LocalPoint,
    ProjectionContext,
    TrajectorySet,
    project,
    time_span,
    trajectory_arrays,
)
from .errors import EvalError, InsufficientDataError, PairingError

# Detections are searched this far beyond each gt constant-speed window, so
# that latency up to several seconds still finds the matching pass.
_DET_SLACK_S = 5.0

# Below this gt speed the along-track direction of a residual is undefined,
# so the offset estimate skips the sample.
_MIN_OFFSET_SPEED_MPS = 0.5


@dataclass(frozen=True)
class RouteLine:
    """Straight test route with its constant-speed arc window.

    Arc length is measured along ``direction`` from ``anchor``; the window
    bounds delimit where the driver holds nominal_speed_mps.
    """

    anchor: LocalPoint
    direction: tuple[float, float]
    window_start_m: float
    window_end_m: float
    nominal_speed_mps: float

    def __post_init__(self) -> None:
        for name in ("window_start_m", "window_end_m", "nominal_speed_mps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(map(math.isfinite, self.anchor)):
            raise ValueError("anchor must be finite")
        if self.window_start_m >= self.window_end_m:
            raise ValueError("window_start_m must be below window_end_m")
        if self.nominal_speed_mps <= 0:
            raise ValueError("nominal_speed_mps must be positive")
        norm = math.hypot(*self.direction)
        if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"direction must be a unit vector, |d| = {norm}")


def make_route_line(
    p0: LocalPoint,
    p1: LocalPoint,
    window_start_m: float,
    window_end_m: float,
    nominal_speed_mps: float,
) -> RouteLine:
    """RouteLine through two plane points, direction normalized p0 -> p1."""
    dx, dy = p1.x_m - p0.x_m, p1.y_m - p0.y_m
    norm = math.hypot(dx, dy)
    if norm == 0:
        raise ValueError("route endpoints coincide")
    return RouteLine(p0, (dx / norm, dy / norm), window_start_m, window_end_m, nominal_speed_mps)


class SpeedWindow(NamedTuple):
    t_start_s: float
    t_end_s: float
    direction_sign: int


@dataclass(frozen=True)
class TauSample:
    """One detection-vs-gt crossing time difference at one test point."""

    test_point_m: float
    t1_s: float
    t2_s: float
    tau_s: float
    direction_sign: int

    def __post_init__(self) -> None:
        if self.tau_s != self.t2_s - self.t1_s:
            raise ValueError("tau_s must equal t2_s - t1_s exactly")
        if self.direction_sign not in (-1, 1):
            raise ValueError("direction_sign must be +1 or -1")


@dataclass(frozen=True)
class LatencyEstimate:
    """Direction-averaged latency with the spread of the tau samples.

    std_s pools the per-direction spreads (each direction demeaned first,
    N-2 dof): the two directions sit at offset-shifted means, and folding
    that deterministic split into the spread would overstate the noise.
    """

    mean_s: float
    std_s: float
    n_samples: int
    per_direction_mean_s: Mapping[int, float]

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("need at least one tau sample per direction")
        if not (1 in self.per_direction_mean_s and -1 in self.per_direction_mean_s):
            raise ValueError("both travel directions must be represented")
        if self.std_s < 0:
            raise ValueError("std_s must be non-negative")


@dataclass(frozen=True)
class PositionErrorEstimate:
    """Constant-offset estimate: mean residual (x, y) in the local plane."""

    mean_offset_m: tuple[float, float]
    residual_rms_m: float
    n_samples: int


def route_arc_coordinates(xy: np.ndarray, route: RouteLine) -> np.ndarray:
    """Signed arc-length coordinate of plane points along the route."""
    ux, uy = route.direction
    return (xy[:, 0] - route.anchor.x_m) * ux + (xy[:, 1] - route.anchor.y_m) * uy


def default_test_points(route: RouteLine, n: int = 11) -> np.ndarray:
    """n test points evenly spread strictly inside the constant window."""
    if n < 1:
        raise ValueError("need at least one test point")
    return np.linspace(route.window_start_m, route.window_end_m, n + 2)[1:-1]


def find_constant_speed_windows(
    times: np.ndarray,
    xy: np.ndarray,
    route: RouteLine,
    speed_tol_frac: float = 0.1,
) -> list[SpeedWindow]:
    """All maximal intervals holding nominal speed inside the arc window.

    A qualifying step keeps |speed| within ±speed_tol_frac·v0 and both arc
    endpoints inside [window_start, window_end]; runs are split where the
    travel direction flips.
    """
    if not (0 < speed_tol_frac <= 0.5):
        raise ValueError("speed_tol_frac must be in (0, 0.5]")
    s = route_arc_coordinates(xy, route)
    dt = np.diff(times)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(dt > 0, np.diff(s) / dt, np.inf)
    v0 = route.nominal_speed_mps
    in_bounds = (s >= route.window_start_m) & (s <= route.window_end_m)
    ok = (np.abs(np.abs(v) - v0) <= speed_tol_frac * v0) & in_bounds[:-1] & in_bounds[1:]
    # each step's travel direction where it qualifies, 0 elsewhere and at
    # both ends; a window is one run of equal non-zero steps
    step = np.zeros(len(times) + 1, dtype=np.int8)
    step[1:-1] = np.copysign(ok, v)
    cut = np.flatnonzero(step[1:] != step[:-1])
    at, sign = times[cut].tolist(), step[cut + 1].tolist()
    return [SpeedWindow(t0, t1, d) for t0, t1, d in zip(at, at[1:], sign) if d]


def _pass_cluster(t: np.ndarray, t_center: float) -> np.ndarray:
    """Indices of the contiguous time cluster nearest t_center; t holds 2+ samples.

    Arc-window masking can pull in samples from neighboring passes of a
    back-and-forth run; those sit seconds away while one pass's samples are
    one detection tick apart, so splitting at large time gaps separates
    them cleanly.
    """
    order = np.argsort(t, kind="stable")
    ts = t[order]
    steps = np.diff(ts)
    gap = max(5.0 * statistics.median(steps.tolist()), 0.5)
    breaks = (np.nonzero(steps > gap)[0] + 1).tolist()
    starts, ends, tl = [0, *breaks], [*breaks, len(ts)], ts.tolist()
    dist = [abs((tl[a] + tl[b - 1]) / 2 - t_center) for a, b in zip(starts, ends)]
    k = dist.index(min(dist))
    return order[starts[k] : ends[k]]


def _line_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(slope, intercept) of the least-squares line, bit for bit what
    ``np.polyfit(x, y, 1)`` returns, without its per-call checks: columns
    [x, 1] scaled to unit norm, lstsq at rcond = len(x)·eps, then unscaled.
    """
    lhs = np.empty((len(x), 2))
    lhs[:, 0] = x
    lhs[:, 1] = 1.0
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    return np.linalg.lstsq(lhs, y, len(x) * np.finfo(float).eps)[0] / scale


def sample_tau(
    t_gt: np.ndarray,
    xy_gt: np.ndarray,
    t_det: np.ndarray,
    xy_det: np.ndarray,
    route: RouteLine,
    test_points_m: Sequence[float],
) -> list[TauSample]:
    """Tau samples for one pass: detection minus gt crossing time per point.

    The gt track must be cut to a single constant-speed pass; the detection
    track may be cut generously in time (neighboring passes are filtered
    out by arc and time clustering). Test points not crossed by both tracks
    are skipped; raises InsufficientDataError when nothing can be sampled.
    """
    if len(t_gt) < 2:
        raise InsufficientDataError("ground-truth pass has fewer than 2 samples")
    s_gt = route_arc_coordinates(xy_gt, route)
    sign = 1 if s_gt[-1] >= s_gt[0] else -1

    s_det = route_arc_coordinates(xy_det, route)
    mask = (s_det >= route.window_start_m) & (s_det <= route.window_end_m)
    if int(mask.sum()) < 2:
        raise InsufficientDataError(
            "fewer than 2 detection samples inside the route window"
        )
    idx = np.nonzero(mask)[0]
    idx = idx[_pass_cluster(t_det[idx], (t_gt[0] + t_gt[-1]) / 2)]
    if len(idx) < 2:
        raise InsufficientDataError("detection pass cluster too small to fit")
    td, sd = t_det[idx], s_det[idx]

    slope, intercept = _line_fit(td, sd)
    v0 = route.nominal_speed_mps
    if (slope > 0) != (sign > 0) or not (0.5 * v0 <= abs(slope) <= 2.0 * v0):
        raise InsufficientDataError(
            f"detection arc trend ({slope:.2f} m/s) inconsistent with the "
            f"route traversal at {sign * v0:.2f} m/s"
        )

    # crossings of the test points the monotone gt pass spans: t1 by linear
    # interpolation, t2 from the detection nearest the fitted crossing time
    x = np.asarray(test_points_m, dtype=float)
    x = x[(min(s_gt[0], s_gt[-1]) <= x) & (x <= max(s_gt[0], s_gt[-1]))]
    t1 = np.interp(x, s_gt, t_gt) if sign > 0 else np.interp(x, s_gt[::-1], t_gt[::-1])
    k = np.argmin(np.abs(td[:, None] - (x - intercept) / slope), axis=0)
    t2 = td[k] - (sd[k] - x) / slope
    samples = [
        TauSample(test_point_m=a, t1_s=b, t2_s=c, tau_s=c - b, direction_sign=sign)
        for a, b, c in zip(x.tolist(), t1.tolist(), t2.tolist())
    ]
    if not samples:
        raise InsufficientDataError("no test point was crossed by both trajectories")
    return samples


def estimate_latency(samples: Sequence[TauSample]) -> LatencyEstimate:
    """Direction-averaged latency per the paired-run cancellation.

    mean_s = (mean of +direction taus + mean of -direction taus) / 2, which
    cancels any constant along-track offset. Raises PairingError when only
    one direction is present (the cancellation then cannot happen).
    """
    pos = [s.tau_s for s in samples if s.direction_sign > 0]
    neg = [s.tau_s for s in samples if s.direction_sign < 0]
    if not pos or not neg:
        raise PairingError(
            "latency estimation needs runs in both travel directions; "
            f"got {len(pos)} forward and {len(neg)} reverse samples"
        )
    m_pos = math.fsum(pos) / len(pos)
    m_neg = math.fsum(neg) / len(neg)
    ss = math.fsum((x - m_pos) ** 2 for x in pos) + math.fsum(
        (x - m_neg) ** 2 for x in neg
    )
    n = len(pos) + len(neg)
    std = math.sqrt(ss / (n - 2)) if n > 2 else 0.0
    return LatencyEstimate(
        mean_s=(m_pos + m_neg) / 2.0,
        std_s=std,
        n_samples=n,
        per_direction_mean_s={1: m_pos, -1: m_neg},
    )


def combine_trials(estimates: Sequence[LatencyEstimate]) -> LatencyEstimate:
    """Merge per-trial estimates: count-weighted mean, dof-pooled std."""
    if not estimates:
        raise EvalError("no latency estimates to combine")
    n = sum(e.n_samples for e in estimates)
    mean = math.fsum(e.mean_s * e.n_samples for e in estimates) / n
    dof = sum(max(e.n_samples - 2, 0) for e in estimates)
    if dof > 0:
        var = math.fsum(max(e.n_samples - 2, 0) * e.std_s**2 for e in estimates) / dof
    else:
        var = 0.0
    per_dir = {}
    for d in (1, -1):
        w = [(e.per_direction_mean_s[d], e.n_samples) for e in estimates]
        per_dir[d] = math.fsum(m * k for m, k in w) / sum(k for _, k in w)
    return LatencyEstimate(
        mean_s=mean, std_s=math.sqrt(var), n_samples=n, per_direction_mean_s=per_dir
    )


def estimate_position_error(
    t_det: np.ndarray,
    xy_det: np.ndarray,
    t_gt: np.ndarray,
    xy_gt: np.ndarray,
    latency: LatencyEstimate,
) -> PositionErrorEstimate:
    """Constant-offset estimate: detection minus latency-shifted gt.

    Each detection at time t is compared against the gt position
    interpolated at (t - latency); mean_offset_m is the plain vector mean
    of the residuals in local plane coordinates, which converges to the
    system's constant offset (latency-jitter displacements flip sign with
    travel direction and average out over paired runs). residual_rms_m is
    the spread of the along-track residual component about per-direction
    means, so a constant offset contributes to the mean and never to the
    spread; it compounds measurement noise with speed-scaled latency
    jitter. Near-stationary stretches are skipped: the along direction is
    undefined without motion.
    """
    if len(t_gt) < 2:
        raise InsufficientDataError("ground truth too short to interpolate")
    query = t_det - latency.mean_s

    dt = np.diff(t_gt)
    vx = np.diff(xy_gt[:, 0]) / dt
    vy = np.diff(xy_gt[:, 1]) / dt
    seg = np.clip(np.searchsorted(t_gt, query, side="right") - 1, 0, len(dt) - 1)
    speed = np.hypot(vx[seg], vy[seg])
    usable = (query >= t_gt[0]) & (query <= t_gt[-1]) & (speed >= _MIN_OFFSET_SPEED_MPS)
    n = int(usable.sum())
    if n < 10:
        raise InsufficientDataError(
            f"only {n} usable samples for the offset estimate (need 10)"
        )

    gx = np.interp(query[usable], t_gt, xy_gt[:, 0])
    gy = np.interp(query[usable], t_gt, xy_gt[:, 1])
    rx = xy_det[usable, 0] - gx
    ry = xy_det[usable, 1] - gy
    sp = speed[usable]
    ux, uy = vx[seg[usable]] / sp, vy[seg[usable]] / sp
    along = rx * ux + ry * uy

    # group by heading relative to the first sample; passes on a line fall
    # into exactly two groups and each is demeaned separately
    forward = ux * ux[0] + uy * uy[0] >= 0.0
    sq_sum = 0.0
    dof = 0
    for grp in (along[forward], along[~forward]):
        if len(grp) >= 2:
            sq_sum += float(np.sum((grp - grp.mean()) ** 2))
            dof += len(grp) - 1
    rms = math.sqrt(sq_sum / dof) if dof > 0 else 0.0
    return PositionErrorEstimate(
        mean_offset_m=(float(np.mean(rx)), float(np.mean(ry))),
        residual_rms_m=rms,
        n_samples=n,
    )


def predict_tau_variance(var_l_s2: float, var_e2_m2: float, v0_mps: float) -> float:
    """Var(tau) from latency jitter plus noise scaled by 1/v0^2."""
    if var_l_s2 < 0 or var_e2_m2 < 0:
        raise ValueError("variances must be non-negative")
    if v0_mps <= 0:
        raise ValueError("v0 must be positive")
    return var_l_s2 + var_e2_m2 / v0_mps**2


def predict_position_error_variance(
    var_l_s2: float, var_e2_m2: float, v0_mps: float
) -> float:
    """Var of the offset-estimator residual: noise plus v0^2-scaled jitter."""
    if var_l_s2 < 0 or var_e2_m2 < 0:
        raise ValueError("variances must be non-negative")
    return var_e2_m2 + v0_mps**2 * var_l_s2


def collect_tau_samples(
    det: TrajectorySet,
    gt: TrajectorySet,
    route: RouteLine,
    ctx: ProjectionContext,
    n_test_points: int = 11,
    speed_tol_frac: float = 0.1,
) -> list[TauSample]:
    """Tau samples pooled over every constant-speed pass in a trial.

    Detections may fragment into several ids; every detection trajectory is
    tried per pass and, when more than one yields a crossing for the same
    test point, the crossing nearest in time to the gt crossing wins.
    """
    pts = default_test_points(route, n_test_points)
    det_tracks = [(t.category, trajectory_arrays(t, ctx)) for t in det.trajectories]
    out: list[TauSample] = []
    for gt_traj in gt.trajectories:
        t_gt, xy_gt = trajectory_arrays(gt_traj, ctx)
        candidates = [track for category, track in det_tracks if category == gt_traj.category]
        for w in find_constant_speed_windows(t_gt, xy_gt, route, speed_tol_frac):
            # a window starts and ends on samples, so its span holds two or more
            i, j = time_span(t_gt, w.t_start_s, w.t_end_s)
            best: dict[float, TauSample] = {}
            for t_det, xy_det in candidates:
                a, b = time_span(t_det, w.t_start_s - _DET_SLACK_S, w.t_end_s + _DET_SLACK_S)
                if b - a < 2:
                    continue
                try:
                    samples = sample_tau(
                        t_gt[i:j], xy_gt[i:j], t_det[a:b], xy_det[a:b], route, pts
                    )
                except InsufficientDataError:
                    continue
                for s in samples:
                    cur = best.get(s.test_point_m)
                    if cur is None or abs(s.tau_s) < abs(cur.tau_s):
                        best[s.test_point_m] = s
            out.extend(best[x] for x in sorted(best))
    return out


def estimate_latency_for_trial(
    det: TrajectorySet,
    gt: TrajectorySet,
    route: RouteLine,
    ctx: ProjectionContext,
    n_test_points: int = 11,
    speed_tol_frac: float = 0.1,
) -> LatencyEstimate:
    """End-to-end latency estimate for one trial's file pair.

    Raises ProjectionRangeError, naming the point, when a point of either
    set lies beyond project's range; trajectory_arrays does not check it.
    """
    for ts in (det, gt):
        geo = np.array([p.position for p in ts.all_points()], dtype=float).reshape(-1, 2)
        project(GeoPoint(geo[:, 0], geo[:, 1]), ctx)
    samples = collect_tau_samples(det, gt, route, ctx, n_test_points, speed_tol_frac)
    if not samples:
        raise InsufficientDataError(
            "no samples: no detection crossings line up with any "
            "constant-speed ground-truth pass"
        )
    return estimate_latency(samples)
