"""Latency and positioning-error estimation from paired constant-speed runs.

A test vehicle drives back and forth along a straight route at nominal
speed v0. Detection and ground-truth crossings of fixed test points along
the route yield per-crossing time differences tau whose mean in one travel
direction is biased by the detector's constant along-track offset (by
-offset/v0 one way, +offset/v0 the other). Averaging the two directions
cancels the offset and leaves the expected latency; re-projecting
detections back by that latency then exposes the constant offset itself.
The estimators take a batch of trials as plane tracks laid end to end
(Tracks), which one core.trajectory_arrays call projects. The latency
command scores a batch of one trial; the Monte Carlo replay scores a
block of runs. Each step is one array pass over the batch; only each
pass's line fit and gt crossing interpolation, and each trial's means
and sums, run one call at a time, as their bits depend on it.

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
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    GeoPoint,
    LocalPoint,
    ProjectionContext,
    Trajectory,
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

# Test points a window takes by default and at most. The most lie 6 cm
# apart on a 60 m window, far denser than any detection stream samples the
# route. Memory grows with test points times passes.
DEFAULT_TEST_POINTS = 11
MAX_TEST_POINTS = 1000

# A constant-speed window's default speed tolerance, as a fraction of v0.
DEFAULT_SPEED_TOL_FRAC = 0.1


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


class Tracks(NamedTuple):
    """Plane tracks laid end to end, times strictly increasing within each.

    Track k is rows bounds[k]:bounds[k + 1] of times and xy. plane_tracks
    also records each track's trial (its index in the batch) and category,
    which pair gt with detection tracks in collect_tau_samples.
    """

    times: np.ndarray
    xy: np.ndarray
    bounds: np.ndarray
    trial: np.ndarray | None = None
    category: tuple[str, ...] = ()

    @property
    def owner(self) -> np.ndarray:
        """The track of each row."""
        return np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds))

    def cut(self, start: np.ndarray, stop: np.ndarray) -> Tracks:
        """Rows start[k]:stop[k] as track k, empty where stop <= start."""
        n = np.maximum(stop - start, 0)
        bounds = np.zeros(len(n) + 1, np.intp)
        np.cumsum(n, out=bounds[1:])
        rows = np.arange(bounds[-1]) + np.repeat(start - bounds[:-1], n)
        return Tracks(self.times[rows], self.xy[rows], bounds)


class SpeedWindows(NamedTuple):
    """Constant-speed windows as index runs of the tracks they were found on.

    Window k is samples start[k]:stop[k] of one track, traveling along the
    route (direction_sign +1) or against it (-1); windows come in row order.
    """

    start: np.ndarray
    stop: np.ndarray
    direction_sign: np.ndarray


@dataclass(frozen=True)
class TauSamples:
    """Detection-vs-gt crossing time differences as columns; len() counts them.

    Sample k is the crossing of test point test_point_m[k] in one pass of
    trial[k] of the batch, with tau_s[k] = t2_s[k] - t1_s[k], the detection
    minus the gt crossing time, traveling in direction_sign[k].
    """

    trial: np.ndarray
    test_point_m: np.ndarray
    t1_s: np.ndarray
    t2_s: np.ndarray
    tau_s: np.ndarray
    direction_sign: np.ndarray

    def __len__(self) -> int:
        return len(self.tau_s)

    def take(self, rows: np.ndarray, trial: np.ndarray) -> TauSamples:
        """These rows, each assigned to the given trial."""
        return TauSamples(trial, self.test_point_m[rows], self.t1_s[rows], self.t2_s[rows],
                          self.tau_s[rows], self.direction_sign[rows])


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


def default_test_points(route: RouteLine, n: int = DEFAULT_TEST_POINTS) -> np.ndarray:
    """n test points evenly spread strictly inside the constant window."""
    if n < 1:
        raise ValueError("need at least one test point")
    if n > MAX_TEST_POINTS:
        raise ValueError(f"at most {MAX_TEST_POINTS} test points, got {n}")
    return np.linspace(route.window_start_m, route.window_end_m, n + 2)[1:-1]


def find_constant_speed_windows(
    tracks: Tracks,
    route: RouteLine,
    speed_tol_frac: float = DEFAULT_SPEED_TOL_FRAC,
) -> SpeedWindows:
    """All maximal runs of samples holding nominal speed inside the arc window.

    A qualifying step keeps |speed| within ±speed_tol_frac·v0 and both arc
    endpoints inside [window_start, window_end]; runs are split where the
    travel direction flips. A step from one track to the next never
    qualifies, so every window lies within one track.
    """
    if not (0 < speed_tol_frac <= 0.5):
        raise ValueError("speed_tol_frac must be in (0, 0.5]")
    times = tracks.times
    s = route_arc_coordinates(tracks.xy, route)
    dt = np.diff(times)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(dt > 0, np.diff(s) / dt, np.inf)
    v0 = route.nominal_speed_mps
    in_bounds = (s >= route.window_start_m) & (s <= route.window_end_m)
    ok = (np.abs(np.abs(v) - v0) <= speed_tol_frac * v0) & in_bounds[:-1] & in_bounds[1:]
    owner = tracks.owner
    ok &= owner[1:] == owner[:-1]
    # each step's travel direction where it qualifies, 0 elsewhere and at
    # both ends; a window is one run of equal non-zero steps
    step = np.zeros(len(times) + 1, dtype=np.int8)
    step[1:-1] = np.copysign(ok, v)
    cut = np.flatnonzero(step[1:] != step[:-1])
    sign = step[cut[:-1] + 1]
    run = sign != 0
    return SpeedWindows(cut[:-1][run], cut[1:][run] + 1, sign[run].astype(int))


def _pass_clusters(
    t: np.ndarray, group: np.ndarray, t_center: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per group, the indices [start, stop) of its time cluster nearest t_center.

    Groups are numbered 0, 1, ... in order; each holds 2+ samples and t
    ascends within it. Arc-window masking can pull in samples from
    neighboring passes of a back-and-forth run; those sit seconds away
    while one pass's samples are one detection tick apart, so splitting at
    gaps beyond five median steps (and at least 0.5 s) separates them
    cleanly. Among equally near clusters the earlier wins.
    """
    inner = group[1:] == group[:-1]
    steps = np.diff(t)
    # each group's median step: the middle one of its sorted steps, or the
    # mean of the middle two, as statistics.median gives it
    n = np.bincount(group) - 1
    at = np.cumsum(n) - n + n // 2
    ranked = steps[inner][np.lexsort((steps[inner], group[1:][inner]))]
    median = np.where(n % 2 == 1, ranked[at], (ranked[at - 1] + ranked[at]) / 2)
    gap = np.maximum(5.0 * median, 0.5)
    start = np.flatnonzero(np.concatenate([[True], ~inner | (steps > gap[group[1:]])]))
    stop = np.append(start[1:], len(t))
    dist = np.abs((t[start] + t[stop - 1]) / 2 - t_center[group[start]])
    order = np.lexsort((dist, group[start]))
    nearest = order[np.searchsorted(group[start][order], np.arange(len(n)))]
    return start[nearest], stop[nearest]


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
    gt: Tracks,
    det: Tracks,
    route: RouteLine,
    test_points_m: Sequence[float],
) -> TauSamples:
    """Tau samples of a batch of passes: detection minus gt crossing time.

    Track k of gt and track k of det form pass k, whose samples carry
    trial k. A gt track must be cut to a single constant-speed pass; a
    detection track may be cut generously in time (neighboring passes are
    filtered out by arc and time clustering). A pass gives no sample when
    its gt holds fewer than 2 samples, when fewer than 2 of its detections
    lie inside the route window or in the time cluster nearest the gt
    pass, when the fitted arc trend disagrees with the traversal, or when
    its gt spans no test point. Samples come in pass and test point order;
    a batch in which no pass gives one returns no samples.
    """
    v0 = route.nominal_speed_mps
    s_gt = route_arc_coordinates(gt.xy, route)
    s_det = route_arc_coordinates(det.xy, route)
    owner = det.owner
    inside = (s_det >= route.window_start_m) & (s_det <= route.window_end_m)
    rows = np.flatnonzero(inside & (np.diff(gt.bounds) >= 2)[owner])
    count = np.bincount(owner[rows], minlength=len(gt.bounds) - 1)
    rows = rows[count[owner[rows]] >= 2]
    if not len(rows):
        # no pass gives a sample; the empty rows fill the integer columns
        return TauSamples(rows, *np.empty((4, 0)), rows)
    passes = np.flatnonzero(count >= 2)
    first, last = gt.bounds[passes], gt.bounds[passes + 1] - 1
    td, sd = det.times[rows], s_det[rows]
    a, b = _pass_clusters(
        td, np.searchsorted(passes, owner[rows]), (gt.times[first] + gt.times[last]) / 2
    )
    fit = b - a >= 2
    passes, first, last, a, b = passes[fit], first[fit], last[fit], a[fit], b[fit]
    slope, intercept = np.array(
        [_line_fit(td[i:j], sd[i:j]) for i, j in zip(a.tolist(), b.tolist())]
    ).reshape(-1, 2).T

    # crossings of the test points each monotone gt pass spans, where the
    # fitted detection trend drives the same way at a plausible speed: t1
    # by linear interpolation, t2 from the detection nearest the crossing
    # of the fitted line
    sign = np.where(s_gt[last] >= s_gt[first], 1, -1)
    trend = ((slope > 0) == (sign > 0)) & (0.5 * v0 <= np.abs(slope)) & (np.abs(slope) <= 2.0 * v0)
    x = np.asarray(test_points_m, dtype=float)
    lo, hi = np.minimum(s_gt[first], s_gt[last]), np.maximum(s_gt[first], s_gt[last])
    k, col = np.nonzero((lo[:, None] <= x) & (x <= hi[:, None]) & trend[:, None])
    x = x[col]
    t1 = np.empty(len(x))
    cuts = np.searchsorted(k, np.arange(len(passes) + 1)).tolist()
    for i, j, d, u, w in zip(first.tolist(), last.tolist(), sign.tolist(), cuts, cuts[1:]):
        if u < w:
            sg, tg = s_gt[i : j + 1], gt.times[i : j + 1]
            if d < 0:
                sg, tg = sg[::-1], tg[::-1]
            t1[u:w] = np.interp(x[u:w], sg, tg)
    q = (x - intercept[k]) / slope[k]
    near = _nearest_sample(td, a[k], b[k], q)
    t2 = td[near] - (sd[near] - x) / slope[k]
    return TauSamples(passes[k], x, t1, t2, t2 - t1, sign[k])


def _nearest_sample(t: np.ndarray, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per query, the index in lo:hi (2+ rows, t rising) of the time nearest q.

    It is the last time below q or the first at or above it, the one below
    on a tie, as argmin over |t - q| picks: times in a track strictly rise,
    so |t - q| strictly falls toward q from either side.
    """
    above = time_span(t, q, q, lo, hi)[0]
    below = above - 1
    d_below = np.abs(t[below] - q)
    d_above = np.abs(t[np.minimum(above, len(t) - 1)] - q)
    return np.where((above == hi) | ((above > lo) & (d_below <= d_above)), below, above)


def estimate_latency(tau_s: Sequence[float], direction_sign: Sequence[int]) -> LatencyEstimate:
    """Direction-averaged latency per the paired-run cancellation.

    Takes each sample's tau and travel direction (+1 or -1), as
    TauSamples holds them. mean_s = (mean of +direction taus + mean of
    -direction taus) / 2, which cancels any constant along-track offset.
    Raises PairingError when only one direction is present (the
    cancellation then cannot happen).
    """
    tau, sign = np.asarray(tau_s, dtype=float), np.asarray(direction_sign)
    pos, neg = tau[sign > 0].tolist(), tau[sign < 0].tolist()
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
    det: Tracks, gt: Tracks, latency_s: Sequence[float]
) -> list[PositionErrorEstimate | None]:
    """Constant-offset estimate per pair: detection minus latency-shifted gt.

    Detection track k pairs with gt track k and latency_s[k]. Each
    detection at time t is compared against the gt position interpolated
    at (t - latency); mean_offset_m is the plain vector mean of the
    residuals in local plane coordinates, which converges to the system's
    constant offset (latency-jitter displacements flip sign with travel
    direction and average out over paired runs). residual_rms_m is the
    spread of the along-track residual component about per-direction
    means, so a constant offset contributes to the mean and never to the
    spread; it compounds measurement noise with speed-scaled latency
    jitter. Near-stationary stretches are skipped: the along direction is
    undefined without motion. A pair gives None when its gt holds fewer
    than 2 samples or fewer than 10 of its detections are usable.

    The residuals of all pairs are computed in array passes; each pair's
    means and sums are ndarray reductions on its own contiguous slice, as
    numpy's pairwise summation rounds by length.
    """
    pair = det.owner
    query = det.times - np.asarray(latency_s, dtype=float)[pair]
    rows = np.flatnonzero(np.diff(gt.bounds)[pair] >= 2)
    pair, query, xy = pair[rows], query[rows], det.xy[rows]

    t, gx, gy = gt.times, gt.xy[:, 0], gt.xy[:, 1]
    # the step from one track to the next is never read
    with np.errstate(divide="ignore", invalid="ignore"):
        dt = np.diff(t)
        vx, vy = np.diff(gx) / dt, np.diff(gy) / dt
    lo, hi = gt.bounds[pair], gt.bounds[pair + 1]
    # the last gt sample at or before each query, and its step on the track
    at = time_span(t, -np.inf, query, lo, hi)[1] - 1
    seg = np.clip(at, lo, hi - 2)
    speed = np.hypot(vx[seg], vy[seg])
    usable = (query >= t[lo]) & (query <= t[hi - 1]) & (speed >= _MIN_OFFSET_SPEED_MPS)
    n = np.bincount(pair[usable], minlength=len(latency_s))

    pair, q, at, seg, xy = pair[usable], query[usable], at[usable], seg[usable], xy[usable]
    # np.interp's arithmetic on the steps found above: a query at a sample
    # time takes that sample, any other the step's line
    on = t[at] == q
    rx = xy[:, 0] - np.where(on, gx[at], vx[seg] * (q - t[seg]) + gx[seg])
    ry = xy[:, 1] - np.where(on, gy[at], vy[seg] * (q - t[seg]) + gy[seg])
    sp = speed[usable]
    ux, uy = vx[seg] / sp, vy[seg] / sp
    along = rx * ux + ry * uy

    # group by heading relative to each pair's first sample; passes on a
    # line fall into exactly two groups and each is demeaned separately
    start = np.searchsorted(pair, np.arange(len(latency_s)))
    head = start[pair]
    forward = ux * ux[head] + uy * uy[head] >= 0.0
    along = along[np.lexsort((~forward, pair))]
    split = (start + np.bincount(pair[forward], minlength=len(latency_s))).tolist()
    out: list[PositionErrorEstimate | None] = []
    for a, f, k in zip(start.tolist(), split, n.tolist()):
        if k < 10:
            out.append(None)
            continue
        sq_sum = 0.0
        dof = 0
        for grp in (along[a:f], along[f : a + k]):
            if len(grp) >= 2:
                sq_sum += float(((grp - grp.mean()) ** 2).sum())
                dof += len(grp) - 1
        out.append(PositionErrorEstimate(
            mean_offset_m=(float(rx[a : a + k].mean()), float(ry[a : a + k].mean())),
            residual_rms_m=math.sqrt(sq_sum / dof) if dof > 0 else 0.0,
            n_samples=k,
        ))
    return out


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


def plane_tracks(trials: Sequence[Sequence[Trajectory]], ctx: ProjectionContext) -> Tracks:
    """Every trajectory of each trial laid end to end as one batch, projected
    in one trajectory_arrays call: trials[i] comes i-th and is trial i."""
    trajs = [traj for trial in trials for traj in trial]
    bounds = np.cumsum([0, *(len(traj.rows) for traj in trajs)])
    times, xy = trajectory_arrays(np.concatenate([np.empty((0, 3)), *(t.rows for t in trajs)]), ctx)
    return Tracks(
        times,
        xy,
        bounds,
        np.repeat(np.arange(len(trials)), [len(trial) for trial in trials]),
        tuple(traj.category for traj in trajs),
    )


def collect_tau_samples(
    det: Tracks,
    gt: Tracks,
    windows: SpeedWindows,
    route: RouteLine,
    test_points_m: Sequence[float],
) -> TauSamples:
    """Tau samples pooled over every pass of every trial in a batch.

    windows are gt's constant-speed windows. A pass pairs one window with
    one detection track of the same trial and category that holds 2+
    samples within _DET_SLACK_S of the window, and sample_tau scores every
    pass in one call. Detections may fragment into several ids: when more
    than one pass of a window crosses the same test point, the crossing
    nearest in time to the gt crossing wins, the earlier track on a tie.
    Samples come in trial, gt track, window and test point order.
    """
    code = {c: k for k, c in enumerate(sorted(set(gt.category)))}
    gt_key = gt.trial * len(code) + np.array([code[c] for c in gt.category], dtype=np.intp)
    det_code = np.array([code.get(c, -1) for c in det.category], dtype=np.intp)
    det_key = np.where(det_code >= 0, det.trial * len(code) + det_code, -1)
    # candidates in track order within each key; a one-point track never forms a pass
    cand = np.flatnonzero((det_key >= 0) & (np.diff(det.bounds) >= 2))
    cand = cand[np.argsort(det_key[cand], kind="stable")]
    track = gt.owner[windows.start]
    lo = np.searchsorted(det_key[cand], gt_key[track], "left")
    n = np.searchsorted(det_key[cand], gt_key[track], "right") - lo
    win = np.repeat(np.arange(len(track)), n)
    d = cand[np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)]
    t0, t1 = gt.times[windows.start[win]], gt.times[windows.stop[win] - 1]
    a, b = time_span(det.times, t0 - _DET_SLACK_S, t1 + _DET_SLACK_S, det.bounds[d], det.bounds[d + 1])
    slack = b - a >= 2
    win, a, b = win[slack], a[slack], b[slack]
    samples = sample_tau(
        gt.cut(windows.start[win], windows.stop[win]), det.cut(a, b), route, test_points_m
    )
    # per window and test point: smallest |tau|, then (a stable sort) the earliest pass
    w = win[samples.trial]
    order = np.lexsort((np.abs(samples.tau_s), samples.test_point_m, w))
    w, x = w[order], samples.test_point_m[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (w[1:] != w[:-1]) | (x[1:] != x[:-1])
    best = order[first]
    return samples.take(best, gt.trial[track[win[samples.trial[best]]]])


def estimate_latency_for_trial(
    det: TrajectorySet,
    gt: TrajectorySet,
    route: RouteLine,
    ctx: ProjectionContext,
    n_test_points: int = DEFAULT_TEST_POINTS,
    speed_tol_frac: float = DEFAULT_SPEED_TOL_FRAC,
) -> LatencyEstimate:
    """End-to-end latency estimate for one trial's file pair, a batch of one.

    Raises ProjectionRangeError, naming the first such point in frame
    order, when a point of either set (detections first) lies beyond
    project's range; trajectory_arrays does not check it, so each set's
    columns, which hold its points in frame order, are projected first.
    """
    for ts in (det, gt):
        project(GeoPoint(ts.columns.lat, ts.columns.lon), ctx)
    det_tracks, gt_tracks = (plane_tracks([ts.trajectories], ctx) for ts in (det, gt))
    test_points = default_test_points(route, n_test_points)
    windows = find_constant_speed_windows(gt_tracks, route, speed_tol_frac)
    samples = collect_tau_samples(det_tracks, gt_tracks, windows, route, test_points)
    if not len(samples):
        raise InsufficientDataError(
            "no samples: no detection crossings line up with any "
            "constant-speed ground-truth pass"
        )
    return estimate_latency(samples.tau_s, samples.direction_sign)
