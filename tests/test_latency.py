"""Constant-speed windows, tau sampling, latency and offset estimation."""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import roadside_eval.latency as latency_mod
from roadside_eval.core import (
    LocalPoint,
    time_span,
    trajectory_arrays,
)
from roadside_eval.errors import (
    EvalError,
    InsufficientDataError,
    PairingError,
    ProjectionRangeError,
)
from roadside_eval.latency import (
    _line_fit,
    _nearest_sample,
    _pass_clusters,
    LatencyEstimate,
    RouteLine,
    Tracks,
    combine_trials,
    collect_tau_samples,
    default_test_points,
    estimate_latency,
    estimate_latency_for_trial,
    estimate_position_error,
    find_constant_speed_windows,
    make_route_line,
    plane_tracks,
    predict_position_error_variance,
    predict_tau_variance,
    sample_tau,
)
from roadside_eval.synth import (
    ErrorModel,
    ScenarioSpec,
    default_latency_route,
    degrade,
    generate_scenario,
    min_round_trip_duration_s,
)

from conftest import dp, grouped, swap_object_ids

ROUTE = RouteLine(LocalPoint(0.0, 0.0), (1.0, 0.0), -30.0, 30.0, 10.0)


def tau(t: float, sign: int = 1) -> tuple[float, int]:
    return t, sign


def latency_of(samples: list[tuple[float, int]]):
    """estimate_latency of (tau, direction) pairs."""
    return estimate_latency([t for t, _ in samples], [d for _, d in samples])


class Window(NamedTuple):
    t_start_s: float
    t_end_s: float
    direction_sign: int


def one_track(times, xy) -> Tracks:
    return Tracks(times, xy, np.array([0, len(times)]))


def windows_of(times, xy, route, speed_tol_frac=0.1):
    """find_constant_speed_windows on one track, as times and directions."""
    w = find_constant_speed_windows(one_track(times, xy), route, speed_tol_frac)
    return [Window(*v) for v in zip(times[w.start].tolist(), times[w.stop - 1].tolist(),
                                    w.direction_sign.tolist())]


def collect(det, gt, route, ctx, n_test_points=11):
    """Tau samples of one trial's sets, through the latency command's steps."""
    det_t, gt_t = plane_tracks([det.trajectories], ctx), plane_tracks([gt.trajectories], ctx)
    windows = find_constant_speed_windows(gt_t, route)
    return collect_tau_samples(det_t, gt_t, windows, route, default_test_points(route, n_test_points))


def straight_run(
    ctx, t0=1000.0, x0=-50.0, v=10.0, n=101, dt=0.1, y=0.0, object_id="veh-01"
):
    pts = [
        dp(t0 + k * dt, x0 + v * k * dt, y, ctx, object_id=object_id)
        for k in range(n)
    ]
    return grouped(pts, source="ground_truth").trajectories[0]


def track(pts, ctx):
    """Plane track of the one trajectory the points form."""
    return plane_tracks([grouped(pts).trajectories[:1]], ctx)


def one_pass(gt, route):
    """The gt track cut to its single constant-speed window."""
    w = find_constant_speed_windows(gt, route)
    assert len(w.start) == 1
    return gt.cut(w.start, w.stop)


def _windows_by_loop(times, xy, route, speed_tol_frac=0.1):
    """The step-by-step scan that find_constant_speed_windows' run-length
    pass replaced, kept here as its reference."""
    s = latency_mod.route_arc_coordinates(xy, route)
    dt = np.diff(times)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(dt > 0, np.diff(s) / dt, np.inf)
    v0 = route.nominal_speed_mps
    in_bounds = (s >= route.window_start_m) & (s <= route.window_end_m)
    ok = ((np.abs(np.abs(v) - v0) <= speed_tol_frac * v0) & in_bounds[:-1] & in_bounds[1:]).tolist()
    forward = (v > 0).tolist()
    windows = []
    i, n = 0, len(ok)
    while i < n:
        if not ok[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and ok[j + 1] and forward[j + 1] == forward[i]:
            j += 1
        windows.append((float(times[i]), float(times[j + 1]), 1 if forward[i] else -1))
        i = j + 1
    return windows


def leg_track(s0, legs, t0=1000.0):
    """Track along the route from arc s0, one leg per (dt, arc speed, steps)."""
    n = [k for _, _, k in legs]
    dt = np.repeat([d for d, _, _ in legs], n)
    v = np.repeat([u for _, u, _ in legs], n)
    times = t0 + np.concatenate([[0.0], np.cumsum(dt)])
    s = s0 + np.concatenate([[0.0], np.cumsum(dt * v)])
    return times, np.stack([s, np.full_like(s, 0.3)], axis=1)


# legs of (dt, arc speed, steps): equal times, stops, direction flips,
# speeds within and beyond the tolerance, from a start that may lie
# outside the window, and excursions across its ends
LEGS = st.lists(st.tuples(
    st.sampled_from([0.1, 0.2, 0.0]),
    st.sampled_from([10.0, -10.0, 0.0, 10.4, -9.3, 11.5, -8.0, 30.0]),
    st.integers(1, 40),
), max_size=8)


class TestWindowExtraction:
    @given(st.floats(-45.0, 45.0), LEGS, st.sampled_from([0.1, 0.05, 0.5]))
    def test_runs_match_the_step_scan(self, s0, legs, tol):
        times, xy = leg_track(s0, legs)
        got = windows_of(times, xy, ROUTE, tol)
        assert got == _windows_by_loop(times, xy, ROUTE, tol)
        assert all(type(w.direction_sign) is int and type(w.t_start_s) is float for w in got)

    def test_single_sample_has_no_window(self):
        assert windows_of(np.array([1000.0]), np.zeros((1, 2)), ROUTE) == []

    def test_constant_run_covers_full_window(self, ctx):
        times, xy = trajectory_arrays(straight_run(ctx).rows, ctx)
        [w] = windows_of(times, xy, ROUTE)
        assert w.direction_sign == 1
        # crossing 60 m at 10 m/s: six seconds, give or take one sample tick
        assert (w.t_end_s - w.t_start_s) == pytest.approx(6.0, abs=0.21)

    def test_braking_truncates_window(self, ctx):
        # constant 10 m/s from x=-40, full braking at t0+4 (x=0)
        t0, a = 1000.0, -5.0
        pts = []
        for k in range(120):
            t = k * 0.1
            if t <= 4.0:
                x = -40.0 + 10.0 * t
            elif t <= 6.0:
                x = 0.0 + 10.0 * (t - 4.0) + 0.5 * a * (t - 4.0) ** 2
            else:
                x = 10.0
            pts.append(dp(t0 + t, x, 0.0, ctx))
        [w] = windows_of(*track(pts, ctx)[:2], ROUTE)

        # oracle: slowest qualifying per-sample step speed scan
        speeds = [
            (pts[k].timestamp_s, 10.0 if pts[k + 1].timestamp_s - t0 <= 4.0 else None)
            for k in range(len(pts) - 1)
        ]
        last_ok = max(t for t, v in speeds if v is not None)
        assert w.t_end_s <= last_ok + 0.35
        assert w.t_end_s >= 4.0 + t0 - 0.35
        assert w.t_start_s == pytest.approx(t0 + 1.0, abs=0.15)

    def test_stationary_trajectory_fails(self, ctx):
        pts = [dp(1000.0 + k * 0.1, 0.0, 0.0, ctx) for k in range(50)]
        assert windows_of(*track(pts, ctx)[:2], ROUTE) == []

    def test_direction_split(self, ctx):
        fwd_pts = [dp(1000.0 + k * 0.1, -50.0 + 10.0 * k * 0.1, 0.0, ctx) for k in range(101)]
        rev_pts = [
            dp(1020.0 + k * 0.1, 50.0 - 10.0 * k * 0.1, 0.0, ctx)
            for k in range(101)
        ]
        windows = windows_of(*track(fwd_pts + rev_pts, ctx)[:2], ROUTE)
        assert [w.direction_sign for w in windows] == [1, -1]

    def test_speed_tol_validation(self, ctx):
        times, xy = trajectory_arrays(straight_run(ctx).rows, ctx)
        with pytest.raises(ValueError):
            windows_of(times, xy, ROUTE, speed_tol_frac=0.0)
        with pytest.raises(ValueError):
            windows_of(times, xy, ROUTE, speed_tol_frac=0.6)
        # the same call with a valid tolerance reads the track
        assert len(windows_of(times, xy, ROUTE, speed_tol_frac=0.5)) == 1


class TestBatchWindows:
    @given(st.lists(st.tuples(st.floats(-45.0, 45.0), LEGS), min_size=1, max_size=4))
    def test_each_track_keeps_its_own_windows(self, tracks):
        # every track starts at the same time, as the runs of a Monte Carlo block do
        parts = [leg_track(s0, legs) for s0, legs in tracks]
        batch = Tracks(np.concatenate([t for t, _ in parts]), np.concatenate([xy for _, xy in parts]),
                       np.cumsum([0, *(len(t) for t, _ in parts)]))
        got = find_constant_speed_windows(batch, ROUTE)
        owner = batch.owner
        assert (owner[got.start] == owner[got.stop - 1]).all()
        want = [find_constant_speed_windows(one_track(*part), ROUTE) for part in parts]
        for field in ("start", "stop"):
            shifted = [getattr(w, field) + a for w, a in zip(want, batch.bounds)]
            assert getattr(got, field).tolist() == np.concatenate(shifted).tolist()
        assert got.direction_sign.tolist() == [d for w in want for d in w.direction_sign.tolist()]

    def test_no_window_spans_two_tracks(self):
        # the second track continues the first at the same speed and tick
        first, second = leg_track(-20.0, [(0.1, 10.0, 19)]), leg_track(0.0, [(0.1, 10.0, 20)], 1002.0)
        joined = Tracks(np.concatenate([first[0], second[0]]), np.concatenate([first[1], second[1]]),
                        np.array([0, 20, 41]))
        w = find_constant_speed_windows(joined, ROUTE)
        assert w.start.tolist() == [0, 20] and w.stop.tolist() == [20, 41]
        whole = find_constant_speed_windows(joined._replace(bounds=np.array([0, 41])), ROUTE)
        assert whole.start.tolist() == [0] and whole.stop.tolist() == [41]


class TestRouteLineValidation:
    @pytest.mark.parametrize("field, value", [
        ("anchor", LocalPoint(math.nan, 0.0)), ("anchor", LocalPoint(0.0, math.inf)),
        ("window_start_m", math.nan), ("window_start_m", -math.inf),
        ("window_end_m", math.nan), ("window_end_m", math.inf),
        ("nominal_speed_mps", math.nan), ("nominal_speed_mps", math.inf),
        ("direction", (math.nan, 0.0)), ("direction", (math.inf, 0.0)),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(ROUTE, **{field: value})


class TestDefaultTestPoints:
    def test_a_thousand_lie_strictly_inside_the_window(self):
        pts = default_test_points(ROUTE, 1000)
        assert len(pts) == 1000 and (np.diff(pts) > 0).all()
        assert ROUTE.window_start_m < pts[0] and pts[-1] < ROUTE.window_end_m

    @pytest.mark.parametrize("n, message", [
        (0, "need at least one test point"), (1001, "at most 1000 test points, got 1001"),
    ])
    def test_out_of_range_counts_rejected(self, n, message):
        with pytest.raises(ValueError, match=message):
            default_test_points(ROUTE, n)


class TestSampleTau:
    def test_identity_zero_tau(self, ctx):
        gt = plane_tracks([[straight_run(ctx)]], ctx)
        samples = sample_tau(one_pass(gt, ROUTE), gt, ROUTE, [-20.0, 0.0, 20.0])
        assert len(samples) == 3
        for tau_s, t1_s, t2_s in zip(samples.tau_s, samples.t1_s, samples.t2_s):
            assert abs(tau_s) < 1e-9
            assert tau_s == t2_s - t1_s

    def test_pure_delay_recovered_exactly(self, ctx):
        gt = straight_run(ctx)
        # same positions, timestamps shifted forward 100 ms
        det_pts = [
            dp(t + 0.1, -50.0 + 10.0 * k * 0.1, 0.0, ctx)
            for k, t in enumerate(gt.rows[:, 0].tolist())
        ]
        gt_pass = one_pass(plane_tracks([[gt]], ctx), ROUTE)
        samples = sample_tau(gt_pass, track(det_pts, ctx), ROUTE, [-15.0, 5.0, 25.0])
        for tau_s in samples.tau_s:
            assert tau_s == pytest.approx(0.100, abs=1e-9)

    def test_along_offset_biases_directions_oppositely(self, ctx):
        # e1 = +0.5 m along a fixed scene direction at v0 = 10 m/s shifts
        # tau by -e1/v0 going one way and +e1/v0 coming back
        route = default_latency_route(10.0)
        model = ErrorModel(latency_mean_s=0.1, offset_e1_m=(0.5, 0.0),
                           noise_sigma_m=0.1)
        dur = 6.0 * min_round_trip_duration_s(route, 0.0)
        spec = ScenarioSpec("latency_run", duration_s=dur, rng_seed=77,
                            route=route)
        gt = generate_scenario(spec, ctx)
        det = degrade(gt, model, ctx, rng=np.random.default_rng(78),
                      route_direction=route.direction)
        samples = collect(det, gt, route, ctx, 11)
        pos = samples.tau_s[samples.direction_sign > 0]
        neg = samples.tau_s[samples.direction_sign < 0]
        assert len(pos) >= 40 and len(neg) >= 40
        assert np.mean(pos) == pytest.approx(0.050, abs=0.005)
        assert np.mean(neg) == pytest.approx(0.150, abs=0.005)

    def test_route_frame_translation_rotation_invariance(self, ctx):
        theta = math.radians(35.0)
        u = (math.cos(theta), math.sin(theta))
        anchor = LocalPoint(120.0, -45.0)
        route = make_route_line(
            anchor,
            LocalPoint(anchor.x_m + u[0], anchor.y_m + u[1]),
            -30.0, 30.0, 10.0,
        )
        t0 = 1000.0
        gt_pts = [
            dp(t0 + k * 0.1,
               anchor.x_m + (-50.0 + k) * u[0],
               anchor.y_m + (-50.0 + k) * u[1], ctx)
            for k in range(101)
        ]
        det_pts = [
            dp(t0 + k * 0.1 + 0.1,
               anchor.x_m + (-50.0 + k) * u[0],
               anchor.y_m + (-50.0 + k) * u[1], ctx)
            for k in range(101)
        ]
        gt_pass = one_pass(track(gt_pts, ctx), route)
        samples = sample_tau(gt_pass, track(det_pts, ctx), route, [-10.0, 0.0, 10.0])
        for tau_s in samples.tau_s:
            assert tau_s == pytest.approx(0.100, abs=1e-6)

    def test_no_crossing_raises(self, ctx):
        gt = plane_tracks([[straight_run(ctx, n=30)]], ctx)  # spans x in [-50, -21]
        with pytest.raises(InsufficientDataError):
            sample_tau(gt, gt, ROUTE, [25.0])


def stacked(tracks):
    """(times, xy) tracks laid end to end."""
    return Tracks(np.concatenate([np.empty(0), *(t for t, _ in tracks)]),
                  np.concatenate([np.empty((0, 2)), *(xy for _, xy in tracks)]),
                  np.cumsum([0, *(len(t) for t, _ in tracks)]))


def cluster_by_pass(ts, center):
    """[a, b) of the ascending times ts (2+) in the cluster nearest center,
    split at gaps beyond five median steps: the reference of _pass_clusters."""
    gap = max(5.0 * statistics.median(np.diff(ts).tolist()), 0.5)
    breaks = [k + 1 for k in range(len(ts) - 1) if ts[k + 1] - ts[k] > gap]
    spans = list(zip([0, *breaks], [*breaks, len(ts)]))
    dist = [abs((ts[a] + ts[b - 1]) / 2 - center) for a, b in spans]
    return spans[dist.index(min(dist))]


def tau_by_pass(t_gt, xy_gt, t_det, xy_det, route, test_points_m):
    """One pass scored by the per-pass code that sample_tau's batch passes
    replaced, kept here as their reference: the crossed test points with
    their t1 and t2, or None where the pass gives no sample."""
    if len(t_gt) < 2:
        return None
    s_gt = latency_mod.route_arc_coordinates(xy_gt, route)
    sign = 1 if s_gt[-1] >= s_gt[0] else -1
    s_det = latency_mod.route_arc_coordinates(xy_det, route)
    idx = np.nonzero((s_det >= route.window_start_m) & (s_det <= route.window_end_m))[0]
    if len(idx) < 2:
        return None
    order = np.argsort(t_det[idx], kind="stable")
    a, b = cluster_by_pass(t_det[idx][order].tolist(), (t_gt[0] + t_gt[-1]) / 2)
    idx = idx[order[a:b]]
    if len(idx) < 2:
        return None
    td, sd = t_det[idx], s_det[idx]
    slope, intercept = np.polyfit(td, sd, 1)
    v0 = route.nominal_speed_mps
    if (slope > 0) != (sign > 0) or not (0.5 * v0 <= abs(slope) <= 2.0 * v0):
        return None
    x = np.asarray(test_points_m, dtype=float)
    x = x[(min(s_gt[0], s_gt[-1]) <= x) & (x <= max(s_gt[0], s_gt[-1]))]
    t1 = np.interp(x, s_gt, t_gt) if sign > 0 else np.interp(x, s_gt[::-1], t_gt[::-1])
    k = np.argmin(np.abs(td[:, None] - (x - intercept) / slope), axis=0)
    return (x, t1, td[k] - (sd[k] - x) / slope) if len(x) else None


class TestSampleTauBatch:
    def test_matches_the_per_pass_reference(self, ctx):
        # every gt window against every detection track, cut around the
        # window and 4 s later (the return leg drives the other way), so
        # passes meet clutter, misses, neighboring legs and wrong trends
        route = default_latency_route(10.0)
        model = ErrorModel(latency_mean_s=0.3, latency_std_s=0.05, noise_sigma_m=0.3,
                           clutter_rate=0.05, miss_prob=0.2)
        dur = 2.0 * min_round_trip_duration_s(route, 0.0)
        gt_passes, det_passes = [(np.array([1000.0]), np.zeros((1, 2)))], [(np.array([1000.0]), np.zeros((1, 2)))]
        for seed in range(3):
            gt = generate_scenario(ScenarioSpec("latency_run", duration_s=dur, rng_seed=seed,
                                                route=route), ctx)
            det = degrade(gt, model, ctx, rng=50 + seed, route_direction=route.direction)
            t_gt, xy_gt = trajectory_arrays(gt.trajectories[0].rows, ctx)
            w = find_constant_speed_windows(one_track(t_gt, xy_gt), route)
            for a, b in zip(w.start.tolist(), w.stop.tolist()):
                for shift in (0.0, 4.0):
                    for traj in det.trajectories:
                        t_det, xy_det = trajectory_arrays(traj.rows, ctx)
                        i, j = time_span(t_det, t_gt[a] - 5.0 + shift, t_gt[b - 1] + 5.0 + shift)
                        gt_passes.append((t_gt[a:b], xy_gt[a:b]))
                        det_passes.append((t_det[i:j], xy_det[i:j]))
        pts = default_test_points(route)
        got = sample_tau(stacked(gt_passes), stacked(det_passes), route, pts)
        scored = 0
        for k, (g, d) in enumerate(zip(gt_passes, det_passes)):
            ref = tau_by_pass(*g, *d, route, pts)
            mine = got.trial == k
            if ref is None:
                assert not mine.any()
                continue
            scored += 1
            for column, want in zip((got.test_point_m, got.t1_s, got.t2_s), ref):
                assert column[mine].tobytes() == want.tobytes()
        assert got.tau_s.tobytes() == (got.t2_s - got.t1_s).tobytes()
        assert 20 < scored < len(gt_passes) // 2


    # steps on a binary grid, so medians, gaps and cluster distances tie exactly
    @given(st.lists(st.tuples(
        st.lists(st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.5, 5.0]), min_size=1, max_size=12),
        st.integers(-8, 80),
    ), min_size=1, max_size=5))
    def test_clusters_match_the_per_pass_reference(self, groups):
        t = [1000.0 + np.concatenate([[0.0], np.cumsum(steps)]) for steps, _ in groups]
        centers = np.array([1000.0 + c / 8 for _, c in groups])
        start, stop = _pass_clusters(np.concatenate(t), np.repeat(np.arange(len(t)), list(map(len, t))),
                                     centers)
        offset = np.cumsum([0, *map(len, t)])
        for k, (tk, center) in enumerate(zip(t, centers)):
            assert (start[k] - offset[k], stop[k] - offset[k]) == cluster_by_pass(tk.tolist(), center)

    @given(st.lists(st.tuples(st.lists(st.integers(0, 40), min_size=2, max_size=10, unique=True),
                              st.lists(st.integers(-4, 84), min_size=1, max_size=6)),
                    min_size=1, max_size=4))
    def test_nearest_sample_is_argmin(self, cases):
        # times on a 0.25 s grid and queries on a 0.125 s grid: many exact ties
        t = [1000.0 + 0.25 * np.array(sorted(ticks)) for ticks, _ in cases]
        offset = np.cumsum([0, *map(len, t)])
        q = np.concatenate([1000.0 + 0.125 * np.array(qs) for _, qs in cases])
        seg = np.repeat(np.arange(len(t)), [len(qs) for _, qs in cases])
        got = _nearest_sample(np.concatenate(t), offset[seg], offset[seg + 1], q)
        want = [offset[k] + np.argmin(np.abs(t[k] - v)) for k, v in zip(seg, q)]
        assert got.tolist() == want


class TestBatchInvariance:
    @pytest.fixture(scope="class")
    def trials(self, ctx):
        """Two round trips each, with clutter, misses and the actor's
        detections switching id twice (veh-01, then veh-07, then veh-03)."""
        route = default_latency_route(10.0)
        dur = 2.0 * min_round_trip_duration_s(route, 0.0)
        model = ErrorModel(latency_mean_s=0.2, latency_std_s=0.02, noise_sigma_m=0.1,
                           clutter_rate=0.3, miss_prob=0.1)
        out = []
        for seed in range(4):
            gt = generate_scenario(ScenarioSpec("latency_run", duration_s=dur, rng_seed=seed,
                                                route=route), ctx)
            det = degrade(gt, model, ctx, rng=100 + seed, route_direction=route.direction)
            t0 = gt.frames[0].timestamp_s
            det = swap_object_ids(det, "veh-01", "veh-07", t0 + dur / 3)
            det = swap_object_ids(det, "veh-07", "veh-03", t0 + 2 * dur / 3)
            out.append((det, gt))
        return route, out

    def test_tau_samples_of_a_batch_equal_each_trial_alone(self, ctx, trials):
        route, pairs = trials
        pts = default_test_points(route)

        def score(sets):
            det = plane_tracks([d.trajectories for d, _ in sets], ctx)
            gt = plane_tracks([g.trajectories for _, g in sets], ctx)
            return collect_tau_samples(det, gt, find_constant_speed_windows(gt, route), route, pts)

        batch = score(pairs)
        assert batch.trial.tolist() == sorted(batch.trial.tolist())
        for i, pair in enumerate(pairs):
            ids = {t.object_id for t in pair[0].trajectories if len(t.rows) > 1}
            assert {"veh-01", "veh-03", "veh-07"} <= ids
            alone = score([pair])
            mine = batch.trial == i
            assert alone.trial.tolist() == [0] * len(alone) and len(alone) >= 40
            for name in ("test_point_m", "t1_s", "t2_s", "tau_s", "direction_sign"):
                assert getattr(batch, name)[mine].tobytes() == getattr(alone, name).tobytes()

    def test_offsets_of_a_batch_equal_each_pair_alone(self, ctx, trials):
        _, pairs = trials
        tracks = [(plane_tracks([d.trajectories[-1:]], ctx), plane_tracks([g.trajectories], ctx))
                  for d, g in pairs]
        latency = [0.2 + 0.01 * i for i in range(len(pairs))]
        batch = estimate_position_error(
            stacked([(d.times, d.xy) for d, _ in tracks]),
            stacked([(g.times, g.xy) for _, g in tracks]), latency)
        alone = [estimate_position_error(d, g, [lat])[0] for (d, g), lat in zip(tracks, latency)]
        assert batch == alone and None not in batch


class TestCollectTauSamples:
    def test_projects_each_trajectory_once(self, ctx, monkeypatch):
        # two round trips give four passes; clutter splits the detections
        # into many ids, each tried against every pass
        route = default_latency_route(10.0)
        dur = 2.0 * min_round_trip_duration_s(route, 0.0)
        gt = generate_scenario(ScenarioSpec("latency_run", duration_s=dur, rng_seed=5,
                                            route=route), ctx)
        model = ErrorModel(latency_mean_s=0.1, noise_sigma_m=0.05, clutter_rate=0.2)
        det = degrade(gt, model, ctx, rng=6, route_direction=route.direction)
        assert len(det.trajectories) > 10
        projected = []

        def counting(rows, c):
            projected.append(rows.tobytes())
            return trajectory_arrays(rows, c)

        monkeypatch.setattr(latency_mod, "trajectory_arrays", counting)
        samples = collect(det, gt, route, ctx)
        assert set(samples.direction_sign.tolist()) == {1, -1} and len(samples) >= 40
        # one call per batch, on every row of its trajectories once, in order
        assert sorted(projected) == sorted(
            np.concatenate([t.rows for t in ts.trajectories]).tobytes() for ts in (gt, det)
        )

    def test_short_detection_slices_are_skipped(self, ctx, monkeypatch):
        # clutter and misses leave one-point tracks, which sample_tau can only reject
        route = default_latency_route(10.0)
        gt = generate_scenario(ScenarioSpec("latency_run", duration_s=90.0, rng_seed=5,
                                            route=route), ctx)
        model = ErrorModel(latency_mean_s=0.1, noise_sigma_m=0.05, clutter_rate=0.3,
                           id_switch_prob=0.01, miss_prob=0.1)
        det = degrade(gt, model, ctx, rng=5, route_direction=route.direction)
        assert any(len(t.rows) == 1 for t in det.trajectories)
        sizes = []

        def recording(gt_passes, det_passes, *rest):
            sizes.extend(np.diff(det_passes.bounds).tolist())
            return sample_tau(gt_passes, det_passes, *rest)

        monkeypatch.setattr(latency_mod, "sample_tau", recording)
        assert collect(det, gt, route, ctx)
        assert sizes and min(sizes) >= 2


class TestLineFit:
    @given(
        t0=st.sampled_from([0.0, 1_700_000_000.0]),
        steps=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=40),
        slope=st.floats(-20.0, 20.0),
        noise=st.lists(st.floats(-1.0, 1.0), min_size=41, max_size=41),
    )
    def test_same_bits_as_polyfit(self, t0, steps, slope, noise):
        # tau sampling fits detection arc against epoch-scale times
        x = t0 + np.cumsum([0.0, *steps])
        y = slope * (x - x[0]) + np.array(noise[: len(x)])
        assert _line_fit(x, y).tobytes() == np.polyfit(x, y, 1).tobytes()


class TestEstimateLatency:
    def test_table_anchor_48ms(self):
        samples = [tau(0.041, 1), tau(0.054, -1)]
        est = latency_of(samples)
        assert est.mean_s == (0.041 + 0.054) / 2
        assert est.mean_s == 0.0475
        assert est.per_direction_mean_s == {1: 0.041, -1: 0.054}

    def test_table_anchor_1715ms(self):
        est = latency_of([tau(1.740, 1), tau(1.690, -1)])
        assert est.mean_s == (1.740 + 1.690) / 2
        assert abs(est.mean_s - 1.715) < 1e-12

    def test_symmetric_offset_cancels_exactly(self):
        latency, c = 0.2, 0.05
        samples = [tau(latency - c, 1)] * 5 + [tau(latency + c, -1)] * 5
        est = latency_of(samples)
        assert est.mean_s == pytest.approx(latency, abs=1e-15)

    def test_unbalanced_counts_still_average_direction_means(self):
        samples = [tau(0.1, 1)] * 9 + [tau(0.3, -1)]
        est = latency_of(samples)
        assert est.mean_s == pytest.approx(0.2)

    def test_single_direction_rejected(self):
        with pytest.raises(PairingError):
            latency_of([tau(0.1, 1), tau(0.2, 1)])

    def test_pooled_std(self):
        samples = [tau(0.1, 1), tau(0.2, 1), tau(0.3, -1), tau(0.4, -1)]
        est = latency_of(samples)
        # per-direction deviations are +/-0.05 with 2 dof
        assert est.std_s == pytest.approx(math.sqrt(0.01 / 2))
        assert est.n_samples == 4


class TestCombineTrials:
    def test_single_estimate_identity(self):
        est = latency_of([tau(0.1, 1), tau(0.2, -1)])
        combined = combine_trials([est])
        assert combined == est

    def test_equal_count_average(self):
        a = latency_of([tau(0.041, 1), tau(0.041, -1)])
        b = latency_of([tau(0.054, 1), tau(0.054, -1)])
        assert combine_trials([a, b]).mean_s == 0.0475

    def test_weighted_mean(self):
        a = LatencyEstimate(0.1, 0.0, 10, {1: 0.1, -1: 0.1})
        b = LatencyEstimate(0.2, 0.0, 30, {1: 0.2, -1: 0.2})
        assert combine_trials([a, b]).mean_s == 0.175

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            combine_trials([])


class TestEstimatePositionError:
    def test_exact_latency_shift_gives_zero(self, ctx):
        latency = 0.25
        gt = plane_tracks([[straight_run(ctx, n=201)]], ctx)
        det_pts = [
            dp(1000.0 + k * 0.1 + latency, -50.0 + 10.0 * k * 0.1, 0.0, ctx)
            for k in range(201)
        ]
        est = LatencyEstimate(latency, 0.0, 4, {1: latency, -1: latency})
        [pos] = estimate_position_error(track(det_pts, ctx), gt, [est.mean_s])
        assert pos.mean_offset_m[0] == pytest.approx(0.0, abs=1e-9)
        assert pos.mean_offset_m[1] == pytest.approx(0.0, abs=1e-9)
        assert pos.residual_rms_m == pytest.approx(0.0, abs=1e-9)

    def test_constant_offset_recovered(self, ctx):
        rng = np.random.default_rng(15)
        n, latency, sigma = 10_000, 0.1, 0.1
        gt_pts = [
            dp(1000.0 + k * 0.01, -500.0 + 10.0 * k * 0.01, 0.0, ctx)
            for k in range(10 * n // 10 * 10 + 10)
        ]
        noise = rng.normal(0.0, sigma, (n, 2))
        det_pts = [
            dp(1000.5 + k * 0.01 + latency,
               -495.0 + 10.0 * k * 0.01 + 0.5 + noise[k, 0],
               0.0 + noise[k, 1], ctx)
            for k in range(n)
        ]
        est = LatencyEstimate(latency, 0.0, 4, {1: latency, -1: latency})
        [pos] = estimate_position_error(track(det_pts, ctx), track(gt_pts, ctx), [est.mean_s])
        assert pos.mean_offset_m[0] == pytest.approx(0.5, abs=0.01)
        assert pos.mean_offset_m[1] == pytest.approx(0.0, abs=0.01)

    def test_residual_rms_matches_variance_predictor(self, ctx):
        # single constant-speed pass: rms^2 ~= Var(e2) + v0^2 Var(l)
        rng = np.random.default_rng(29)
        v0, sigma, sigma_l, lat = 10.0, 0.1, 0.02, 0.5
        n = 5000
        gt_pts = [
            dp(1000.0 + k * 0.01, -300.0 + v0 * k * 0.01, 0.0, ctx)
            for k in range(60_000)
        ]
        lat_draw = lat + rng.normal(0.0, sigma_l, n)
        noise = rng.normal(0.0, sigma, (n, 2))
        det_pts = []
        for k in range(n):
            t = 1010.0 + k * 0.1
            true_x = -300.0 + v0 * (t - lat_draw[k] - 1000.0)
            det_pts.append(dp(t, true_x + noise[k, 0], noise[k, 1], ctx))
        est = LatencyEstimate(lat, 0.0, 4, {1: lat, -1: lat})
        [pos] = estimate_position_error(track(det_pts, ctx), track(gt_pts, ctx), [est.mean_s])
        predicted = predict_position_error_variance(sigma_l**2, sigma**2, v0)
        assert pos.residual_rms_m**2 == pytest.approx(predicted, rel=0.10)

    def test_too_few_samples_rejected(self, ctx):
        gt = plane_tracks([[straight_run(ctx, n=101)]], ctx)
        det_pts = [dp(1000.5 + k * 0.1, -45.0 + k, 0.0, ctx) for k in range(5)]
        est = LatencyEstimate(0.0, 0.0, 4, {1: 0.0, -1: 0.0})
        assert estimate_position_error(track(det_pts, ctx), gt, [est.mean_s]) == [None]

    def test_slow_motion_excluded(self, ctx):
        # stationary gt: every sample sits below the speed gate
        gt_pts = [dp(1000.0 + k * 0.1, 0.0, 0.0, ctx) for k in range(100)]
        det_pts = [dp(1000.0 + k * 0.1, 0.2, 0.0, ctx) for k in range(50)]
        est = LatencyEstimate(0.0, 0.0, 4, {1: 0.0, -1: 0.0})
        assert estimate_position_error(track(det_pts, ctx), track(gt_pts, ctx), [est.mean_s]) == [None]


class TestVariancePredictors:
    def test_tau_examples(self):
        assert predict_tau_variance(0.0, 0.0, 5.0) == 0.0
        assert predict_tau_variance(1e-4, 0.01, 10.0) == pytest.approx(2e-4)

    def test_position_examples(self):
        assert predict_position_error_variance(0.0, 0.04, 10.0) == pytest.approx(0.04)
        assert predict_position_error_variance(1e-4, 0.0, 10.0) == pytest.approx(0.01)

    def test_doubling_speed_quarters_e2_term(self):
        base = predict_tau_variance(0.0, 0.01, 10.0)
        assert predict_tau_variance(0.0, 0.01, 20.0) == pytest.approx(base / 4.0)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError):
            predict_tau_variance(1e-4, 0.01, 0.0)
        with pytest.raises(ValueError):
            predict_tau_variance(-1e-4, 0.01, 10.0)

    @given(
        var_l=st.floats(min_value=0.0, max_value=1.0),
        var_e2=st.floats(min_value=0.0, max_value=10.0),
        v0=st.floats(min_value=0.5, max_value=50.0),
    )
    def test_v0_squared_identity(self, var_l, var_e2, v0):
        lhs = predict_tau_variance(var_l, var_e2, v0) * v0 * v0
        rhs = predict_position_error_variance(var_l, var_e2, v0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestOffsetCancellationEndToEnd:
    def test_zero_noise_recovers_latency_exactly(self, ctx):
        route = default_latency_route(10.0)
        model = ErrorModel(latency_mean_s=0.1, offset_e1_m=(0.7, -0.3))
        dur = min_round_trip_duration_s(route, 0.0)
        spec = ScenarioSpec("latency_run", duration_s=dur, rng_seed=4,
                            route=route)
        gt = generate_scenario(spec, ctx)
        det = degrade(gt, model, ctx, rng=5, route_direction=route.direction)
        est = estimate_latency_for_trial(det, gt, route, ctx, 11)
        # zero noise leaves only the fitted-crossing interpolation error
        assert est.mean_s == pytest.approx(0.1, abs=1e-5)
        d_plus = est.per_direction_mean_s[1]
        d_minus = est.per_direction_mean_s[-1]
        assert d_plus == pytest.approx(0.1 - 0.7 / 10.0, abs=1e-4)
        assert d_minus == pytest.approx(0.1 + 0.7 / 10.0, abs=1e-4)


class TestEstimateLatencyForTrial:
    def test_far_point_named_in_frame_order(self, ctx):
        # id order puts "a-far" first, frame order puts b-far's point first
        run = [dp(1000.0 + k * 0.1, -50.0 + k, 0.0, ctx) for k in range(101)]
        gt = grouped(run, source="ground_truth")
        det = grouped([
            *run,
            dp(1005.0, 20_000.0, 0.0, ctx, object_id="a-far"),
            dp(1002.0, 0.0, 30_000.0, ctx, object_id="b-far"),
        ])
        assert [t.object_id for t in det.trajectories[:2]] == ["a-far", "b-far"]
        with pytest.raises(ProjectionRangeError, match="is 30000 m from"):
            estimate_latency_for_trial(det, gt, ROUTE, ctx)
        # the detection set is checked before the ground truth
        far_gt = grouped([*run, dp(1003.0, 0.0, 40_000.0, ctx, object_id="z")])
        with pytest.raises(ProjectionRangeError, match="is 30000 m from"):
            estimate_latency_for_trial(det, far_gt, ROUTE, ctx)
        with pytest.raises(ProjectionRangeError, match="is 40000 m from"):
            estimate_latency_for_trial(gt, far_gt, ROUTE, ctx)
