"""Constant-speed windows, tau sampling, latency and offset estimation."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import roadside_eval.latency as latency_mod
from roadside_eval.core import (
    LocalPoint,
    build_trajectory_set,
    make_projection,
    time_span,
    trajectory_arrays,
)
from roadside_eval.errors import EvalError, InsufficientDataError, PairingError
from roadside_eval.latency import (
    _line_fit,
    LatencyEstimate,
    RouteLine,
    TauSample,
    combine_trials,
    collect_tau_samples,
    estimate_latency,
    estimate_position_error,
    find_constant_speed_windows,
    make_route_line,
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

from conftest import ORIGIN, dp

ROUTE = RouteLine(LocalPoint(0.0, 0.0), (1.0, 0.0), -30.0, 30.0, 10.0)


def tau(t: float, sign: int = 1) -> TauSample:
    return TauSample(0.0, 0.0, t, t, sign)


def straight_run(
    ctx, t0=1000.0, x0=-50.0, v=10.0, n=101, dt=0.1, y=0.0, object_id="veh-01"
):
    pts = [
        dp(t0 + k * dt, x0 + v * k * dt, y, ctx, object_id=object_id)
        for k in range(n)
    ]
    return build_trajectory_set(pts, source="ground_truth").trajectories[0]


def track(pts, ctx):
    """Plane track of the one trajectory the points form."""
    return trajectory_arrays(build_trajectory_set(pts).trajectories[0], ctx)


def one_pass(gt, route):
    """The gt track cut to its single constant-speed window."""
    [w] = find_constant_speed_windows(*gt, route)
    i, j = time_span(gt[0], w.t_start_s, w.t_end_s)
    return gt[0][i:j], gt[1][i:j]


class TestWindowExtraction:
    def test_constant_run_covers_full_window(self, ctx):
        times, xy = trajectory_arrays(straight_run(ctx), ctx)
        [w] = find_constant_speed_windows(times, xy, ROUTE)
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
        [w] = find_constant_speed_windows(*track(pts, ctx), ROUTE)

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
        assert find_constant_speed_windows(*track(pts, ctx), ROUTE) == []

    def test_direction_split(self, ctx):
        fwd_pts = [dp(1000.0 + k * 0.1, -50.0 + 10.0 * k * 0.1, 0.0, ctx) for k in range(101)]
        rev_pts = [
            dp(1020.0 + k * 0.1, 50.0 - 10.0 * k * 0.1, 0.0, ctx)
            for k in range(101)
        ]
        windows = find_constant_speed_windows(*track(fwd_pts + rev_pts, ctx), ROUTE)
        assert [w.direction_sign for w in windows] == [1, -1]

    def test_speed_tol_validation(self, ctx):
        times, xy = trajectory_arrays(straight_run(ctx), ctx)
        with pytest.raises(ValueError):
            find_constant_speed_windows(times, xy, ROUTE, speed_tol_frac=0.0)
        with pytest.raises(ValueError):
            find_constant_speed_windows(times, xy, ROUTE, speed_tol_frac=0.6)
        # the same call with a valid tolerance reads the track
        assert len(find_constant_speed_windows(times, xy, ROUTE, speed_tol_frac=0.5)) == 1


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


class TestSampleTau:
    def test_identity_zero_tau(self, ctx):
        gt = trajectory_arrays(straight_run(ctx), ctx)
        samples = sample_tau(*one_pass(gt, ROUTE), *gt, ROUTE, [-20.0, 0.0, 20.0])
        assert len(samples) == 3
        for s in samples:
            assert abs(s.tau_s) < 1e-9
            assert s.tau_s == s.t2_s - s.t1_s

    def test_pure_delay_recovered_exactly(self, ctx):
        gt = straight_run(ctx)
        # same positions, timestamps shifted forward 100 ms
        det_pts = [
            dp(t + 0.1, -50.0 + 10.0 * k * 0.1, 0.0, ctx)
            for k, t in enumerate(gt.rows[:, 0].tolist())
        ]
        gt_pass = one_pass(trajectory_arrays(gt, ctx), ROUTE)
        samples = sample_tau(*gt_pass, *track(det_pts, ctx), ROUTE, [-15.0, 5.0, 25.0])
        for s in samples:
            assert s.tau_s == pytest.approx(0.100, abs=1e-9)

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
        samples = collect_tau_samples(det, gt, route, ctx, 11)
        pos = [s.tau_s for s in samples if s.direction_sign > 0]
        neg = [s.tau_s for s in samples if s.direction_sign < 0]
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
        samples = sample_tau(*gt_pass, *track(det_pts, ctx), route, [-10.0, 0.0, 10.0])
        for s in samples:
            assert s.tau_s == pytest.approx(0.100, abs=1e-6)

    def test_no_crossing_raises(self, ctx):
        gt = trajectory_arrays(straight_run(ctx, n=30), ctx)  # spans x in [-50, -21]
        with pytest.raises(InsufficientDataError):
            sample_tau(*gt, *gt, ROUTE, [25.0])


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

        def counting(traj, c):
            projected.append(id(traj))
            return trajectory_arrays(traj, c)

        monkeypatch.setattr(latency_mod, "trajectory_arrays", counting)
        samples = collect_tau_samples(det, gt, route, ctx)
        assert {s.direction_sign for s in samples} == {1, -1} and len(samples) >= 40
        assert sorted(projected) == sorted(map(id, gt.trajectories + det.trajectories))

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

        def recording(t_gt, xy_gt, t_det, *rest):
            sizes.append(len(t_det))
            return sample_tau(t_gt, xy_gt, t_det, *rest)

        monkeypatch.setattr(latency_mod, "sample_tau", recording)
        assert collect_tau_samples(det, gt, route, ctx)
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
        est = estimate_latency(samples)
        assert est.mean_s == (0.041 + 0.054) / 2
        assert est.mean_s == 0.0475
        assert est.per_direction_mean_s == {1: 0.041, -1: 0.054}

    def test_table_anchor_1715ms(self):
        est = estimate_latency([tau(1.740, 1), tau(1.690, -1)])
        assert est.mean_s == (1.740 + 1.690) / 2
        assert abs(est.mean_s - 1.715) < 1e-12

    def test_symmetric_offset_cancels_exactly(self):
        latency, c = 0.2, 0.05
        samples = [tau(latency - c, 1)] * 5 + [tau(latency + c, -1)] * 5
        est = estimate_latency(samples)
        assert est.mean_s == pytest.approx(latency, abs=1e-15)

    def test_unbalanced_counts_still_average_direction_means(self):
        samples = [tau(0.1, 1)] * 9 + [tau(0.3, -1)]
        est = estimate_latency(samples)
        assert est.mean_s == pytest.approx(0.2)

    def test_single_direction_rejected(self):
        with pytest.raises(PairingError):
            estimate_latency([tau(0.1, 1), tau(0.2, 1)])

    def test_pooled_std(self):
        samples = [tau(0.1, 1), tau(0.2, 1), tau(0.3, -1), tau(0.4, -1)]
        est = estimate_latency(samples)
        # per-direction deviations are +/-0.05 with 2 dof
        assert est.std_s == pytest.approx(math.sqrt(0.01 / 2))
        assert est.n_samples == 4


class TestCombineTrials:
    def test_single_estimate_identity(self):
        est = estimate_latency([tau(0.1, 1), tau(0.2, -1)])
        combined = combine_trials([est])
        assert combined == est

    def test_equal_count_average(self):
        a = estimate_latency([tau(0.041, 1), tau(0.041, -1)])
        b = estimate_latency([tau(0.054, 1), tau(0.054, -1)])
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
        gt = trajectory_arrays(straight_run(ctx, n=201), ctx)
        det_pts = [
            dp(1000.0 + k * 0.1 + latency, -50.0 + 10.0 * k * 0.1, 0.0, ctx)
            for k in range(201)
        ]
        est = LatencyEstimate(latency, 0.0, 4, {1: latency, -1: latency})
        pos = estimate_position_error(*track(det_pts, ctx), *gt, est)
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
        pos = estimate_position_error(*track(det_pts, ctx), *track(gt_pts, ctx), est)
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
        pos = estimate_position_error(*track(det_pts, ctx), *track(gt_pts, ctx), est)
        predicted = predict_position_error_variance(sigma_l**2, sigma**2, v0)
        assert pos.residual_rms_m**2 == pytest.approx(predicted, rel=0.10)

    def test_too_few_samples_rejected(self, ctx):
        gt = trajectory_arrays(straight_run(ctx, n=101), ctx)
        det_pts = [dp(1000.5 + k * 0.1, -45.0 + k, 0.0, ctx) for k in range(5)]
        est = LatencyEstimate(0.0, 0.0, 4, {1: 0.0, -1: 0.0})
        with pytest.raises(InsufficientDataError):
            estimate_position_error(*track(det_pts, ctx), *gt, est)

    def test_slow_motion_excluded(self, ctx):
        # stationary gt: every sample sits below the speed gate
        gt_pts = [dp(1000.0 + k * 0.1, 0.0, 0.0, ctx) for k in range(100)]
        det_pts = [dp(1000.0 + k * 0.1, 0.2, 0.0, ctx) for k in range(50)]
        est = LatencyEstimate(0.0, 0.0, 4, {1: 0.0, -1: 0.0})
        with pytest.raises(InsufficientDataError):
            estimate_position_error(*track(det_pts, ctx), *track(gt_pts, ctx), est)


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
        est = estimate_latency(collect_tau_samples(det, gt, route, ctx, 11))
        # zero noise leaves only the fitted-crossing interpolation error
        assert est.mean_s == pytest.approx(0.1, abs=1e-5)
        d_plus = est.per_direction_mean_s[1]
        d_minus = est.per_direction_mean_s[-1]
        assert d_plus == pytest.approx(0.1 - 0.7 / 10.0, abs=1e-4)
        assert d_minus == pytest.approx(0.1 + 0.7 / 10.0, abs=1e-4)
