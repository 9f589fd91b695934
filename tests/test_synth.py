"""Synthetic scenario generation, degradation, and self-validation."""

from __future__ import annotations

import gc
import hashlib
import math

import numpy as np
import pytest

from roadside_eval.core import (
    DataFrame,
    DataPoint,
    GeoPoint,
    TrajectorySet,
    from_frames,
    from_trajectories,
    make_projection,
    project,
    trajectory_arrays,
)
from roadside_eval.errors import EvalError, ScenarioError
from roadside_eval.ingest import write_points, read_points
from roadside_eval.latency import route_arc_coordinates
from roadside_eval import synth as synth_mod
from roadside_eval.synth import (
    BASE_TIME_S,
    DEFAULT_ORIGIN,
    TEMPLATES,
    ErrorModel,
    ScenarioSpec,
    default_latency_route,
    degrade,
    generate_scenario,
    min_round_trip_duration_s,
    monte_carlo_validate,
)

from conftest import swap_object_ids


def spec_for(template="two_vehicle_plus_pedestrian", duration=60.0, seed=5, **kw):
    return ScenarioSpec(template, duration_s=duration, rng_seed=seed, **kw)


class TestGenerateScenario:
    def test_same_spec_same_output(self, ctx):
        a = generate_scenario(spec_for(), ctx)
        b = generate_scenario(spec_for(), ctx)
        assert a == b

    def test_different_seed_different_output(self, ctx):
        # the seed drives the per-pass speed draws, so it only shows up
        # once speed jitter is enabled
        a = generate_scenario(spec_for(seed=5), ctx, speed_jitter_mps=0.5)
        b = generate_scenario(spec_for(seed=6), ctx, speed_jitter_mps=0.5)
        assert a != b

    def test_byte_identical_csv(self, ctx, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_points(pa, generate_scenario(spec_for(), ctx).all_points())
        write_points(pb, generate_scenario(spec_for(), ctx).all_points())
        assert pa.read_bytes() == pb.read_bytes()

    def test_actor_roster(self, ctx):
        gt = generate_scenario(spec_for(), ctx)
        cats = sorted(t.category for t in gt.trajectories)
        assert cats == ["pedestrian", "vehicle", "vehicle"]
        ids = [t.object_id for t in gt.trajectories]
        assert len(set(ids)) == 3

    def test_all_templates_generate(self, ctx):
        for template in TEMPLATES:
            gt = generate_scenario(spec_for(template=template, duration=40.0), ctx)
            assert gt.trajectories
            assert all(len(t.rows) >= 2 for t in gt.trajectories)

    def test_timestamps_on_epoch_base_grid(self, ctx):
        gt = generate_scenario(spec_for(duration=10.0), ctx)
        times = sorted({p.timestamp_s for p in gt.all_points()})
        assert times[0] == BASE_TIME_S
        diffs = np.diff(times)
        assert np.allclose(diffs, 0.1, atol=1e-9)
        assert times[-1] <= BASE_TIME_S + 10.0

    def test_latency_run_constant_window_speed(self, ctx):
        route = default_latency_route(10.0)
        spec = ScenarioSpec("latency_run",
                            duration_s=min_round_trip_duration_s(route),
                            rng_seed=3, route=route)
        gt = generate_scenario(spec, ctx)
        traj = next(t for t in gt.trajectories if t.category == "vehicle")
        times, xy = trajectory_arrays(traj.rows, ctx)
        s = route_arc_coordinates(xy, route)
        inside = (s >= route.window_start_m + 1.0) & (s <= route.window_end_m - 1.0)
        # within the constant window every consecutive step moves v0*dt
        ds = np.abs(np.diff(s))
        dt = np.diff(times)
        ok = inside[:-1] & inside[1:] & (dt < 0.2)
        speeds = ds[ok] / dt[ok]
        assert len(speeds) > 10
        assert np.allclose(speeds, 10.0, atol=1e-9)

    def test_zero_duration_rejected(self, ctx):
        with pytest.raises(ScenarioError):
            ScenarioSpec("two_vehicle_plus_pedestrian", duration_s=0.0, rng_seed=1)

    @pytest.mark.parametrize("field, value", [
        ("duration_s", math.inf), ("duration_s", math.nan),
        ("gt_rate_hz", math.inf), ("gt_rate_hz", math.nan),
        ("speeds_mps", (math.nan,)), ("speeds_mps", (10.0, math.inf)),
        ("rng_seed", -1),
    ])
    def test_non_finite_rejected(self, field, value):
        # constructor only: a NaN speed that got through never ended the
        # trapezoid phase loop in generate_scenario
        kw = {"duration_s": 10.0, "rng_seed": 1, field: value}
        with pytest.raises((ValueError, ScenarioError), match=field):
            ScenarioSpec("two_vehicle_plus_pedestrian", **kw)

    def test_unknown_template_rejected(self, ctx):
        with pytest.raises(ValueError, match="unknown template"):
            ScenarioSpec("parade", duration_s=10.0, rng_seed=1)

    @pytest.mark.parametrize("template", [t for t in TEMPLATES if t != "latency_run"])
    def test_route_without_latency_run_rejected(self, template):
        with pytest.raises(ValueError, match="route"):
            ScenarioSpec(template, duration_s=10.0, rng_seed=1, route=default_latency_route())

    def test_latency_run_too_short_rejected(self, ctx):
        route = default_latency_route(10.0)
        spec = ScenarioSpec("latency_run", duration_s=3.0, rng_seed=1,
                            route=route)
        with pytest.raises(ScenarioError):
            generate_scenario(spec, ctx)


class TestRightTurn:
    """one_vehicle_maneuver's path against a per-tick reference in math.

    The 6 m turn joins the eastbound approach at y = -1.75 m to the
    southbound exit at x = 1.75 m; the two legs split the distance the
    quarter circle leaves. Positions are read back on a plane centred on
    (0, 0), where the projection round trip is exact to well under 1e-9 m;
    the comparison is a tolerance because numpy's sin and cos may differ
    from math's in the last bit.
    """

    V, DURATION, RATE = 10.0, 8.0, 50.0
    R, LANE = 6.0, 1.75
    CENTRE = (LANE - R, -LANE - R)
    ARC = math.pi / 2 * R
    LEG = (V * DURATION - ARC) / 2

    def reference(self, s):
        s = min(s, 2 * self.LEG + self.ARC)
        if s < self.LEG:
            return self.CENTRE[0] - self.LEG + s, -self.LANE
        if s < self.LEG + self.ARC:
            ang = math.pi / 2 - (s - self.LEG) / self.R
            return (self.CENTRE[0] + self.R * math.cos(ang),
                    self.CENTRE[1] + self.R * math.sin(ang))
        return self.LANE, self.CENTRE[1] - (s - self.LEG - self.ARC)

    @pytest.fixture(scope="class")
    def track(self):
        spec = ScenarioSpec("one_vehicle_maneuver", self.DURATION, 0, self.RATE, (self.V,))
        ctx0 = make_projection(GeoPoint(0.0, 0.0))
        (traj,) = generate_scenario(spec, ctx0).trajectories
        _, xy = trajectory_arrays(traj.rows, ctx0)
        # arc length from the tick index: the epoch-based stamps hold the
        # time only to about 2e-7 s
        return self.V * (np.arange(len(xy)) / self.RATE), xy

    def test_matches_reference(self, track):
        s, xy = track
        ref = np.array([self.reference(v) for v in s.tolist()])
        assert np.abs(xy - ref).max() <= 1e-9

    def test_starts_a_leg_before_the_turn(self, track):
        _, xy = track
        assert np.allclose(xy[0], (self.LANE - self.R - self.LEG, -self.LANE), rtol=0, atol=1e-9)

    def test_continuous_at_both_joints(self, track):
        s, xy = track
        steps = np.hypot(*np.diff(xy, axis=0).T)
        for joint in (self.LEG, self.LEG + self.ARC):
            k = np.searchsorted(s, joint)  # the step from tick k-1 to tick k spans the joint
            assert 0 < s[k] - joint < self.V / self.RATE
            # a chord of the path, no longer than the arc length between the ticks
            assert self.V / self.RATE * 0.999 < steps[k - 1] <= self.V / self.RATE + 1e-9

    def test_arc_and_legs(self, track):
        s, xy = track
        x, y = xy.T
        approach, exit_leg = s < self.LEG, s > self.LEG + self.ARC
        arc = ~approach & ~exit_leg
        assert arc.sum() >= 40
        radius = np.hypot(x[arc] - self.CENTRE[0], y[arc] - self.CENTRE[1])
        assert np.abs(radius - self.R).max() <= 1e-9
        assert np.abs(y[approach] + self.LANE).max() <= 1e-9
        assert np.abs(x[exit_leg] - self.LANE).max() <= 1e-9
        assert np.all(np.diff(y[exit_leg]) < 0)


class TestErrorModelValidation:
    def test_defaults_are_noiseless(self):
        m = ErrorModel()
        assert m.latency_mean_s == 0.0 and m.noise_sigma_m == 0.0

    def test_probabilities_bounded(self):
        with pytest.raises(ValueError):
            ErrorModel(miss_prob=1.5)
        with pytest.raises(ValueError):
            ErrorModel(miss_prob=-0.1)
        with pytest.raises(ValueError):
            ErrorModel(id_switch_prob=2.0)

    def test_negative_scales_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel(noise_sigma_m=-0.1)
        with pytest.raises(ValueError):
            ErrorModel(latency_std_s=-0.1)
        with pytest.raises(ValueError):
            ErrorModel(clutter_rate=-1.0)
        with pytest.raises(ValueError):
            ErrorModel(det_rate_hz=0.0)

    @pytest.mark.parametrize("field, value", [
        ("latency_mean_s", math.inf), ("latency_mean_s", math.nan),
        ("latency_std_s", math.inf), ("noise_sigma_m", math.nan),
        ("speed_jitter_mps", math.inf), ("clutter_rate", math.nan),
        ("clutter_rate", math.inf), ("miss_prob", math.nan),
        ("id_switch_prob", math.nan), ("det_rate_hz", math.inf),
        ("det_rate_hz", math.nan), ("offset_e1_m", (math.nan, 0.0)),
        ("offset_e1_m", (0.0, -math.inf)),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ErrorModel(**{field: value})


class TestDegrade:
    def test_identity_model_reproduces_positions(self, ctx):
        gt = generate_scenario(spec_for(duration=20.0), ctx)
        det = degrade(gt, ErrorModel(), ctx, rng=1)
        gt_by_key = {
            (t.object_id, round(time, 6)): GeoPoint(lat, lon)
            for t in gt.trajectories for time, lat, lon in t.rows.tolist()
        }
        n_checked = 0
        for traj in det.trajectories:
            for time, lat, lon in traj.rows.tolist():
                ref = gt_by_key.get((traj.object_id, round(time, 6)))
                if ref is None:
                    continue  # det tick between gt samples
                a, b = project(GeoPoint(lat, lon), ctx), project(ref, ctx)
                assert math.hypot(a.x_m - b.x_m, a.y_m - b.y_m) < 1e-9
                n_checked += 1
        assert n_checked > 100

    def test_deterministic_for_seed(self, ctx):
        gt = generate_scenario(spec_for(duration=30.0), ctx)
        model = ErrorModel(latency_mean_s=0.1, latency_std_s=0.02,
                           noise_sigma_m=0.3, miss_prob=0.1,
                           clutter_rate=0.5, id_switch_prob=0.05)
        a = degrade(gt, model, ctx, rng=9)
        b = degrade(gt, model, ctx, rng=9)
        assert a == b
        c = degrade(gt, model, ctx, rng=10)
        assert a != c

    def test_seed_is_required(self, ctx):
        # no draw from fresh OS entropy: every degradation names its seed
        gt = generate_scenario(spec_for(duration=5.0), ctx)
        with pytest.raises(TypeError, match="rng"):
            degrade(gt, ErrorModel(), ctx)

    def test_pure_latency_shifts_crossings(self, ctx):
        gt = generate_scenario(spec_for(duration=20.0), ctx)
        det = degrade(gt, ErrorModel(latency_mean_s=0.5), ctx, rng=2)
        # a detection at tick t reports where the object was at t - 0.5
        traj_gt = gt.trajectories[0]
        traj_det = next(
            t for t in det.trajectories if t.object_id == traj_gt.object_id
        )
        t_gt, xy_gt = trajectory_arrays(traj_gt.rows, ctx)
        t_det, xy_det = trajectory_arrays(traj_det.rows, ctx)
        k = len(t_det) // 2
        x_ref = np.interp(t_det[k] - 0.5, t_gt, xy_gt[:, 0])
        y_ref = np.interp(t_det[k] - 0.5, t_gt, xy_gt[:, 1])
        assert math.hypot(xy_det[k, 0] - x_ref, xy_det[k, 1] - y_ref) < 1e-6

    @pytest.mark.parametrize("direction", [(0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0)])
    def test_bad_route_direction_rejected(self, ctx, direction):
        gt = generate_scenario(spec_for(duration=5.0), ctx)
        with pytest.raises(ValueError, match="route_direction"):
            degrade(gt, ErrorModel(), ctx, rng=1, route_direction=direction)

    def test_miss_prob_thins_points(self, ctx):
        gt = generate_scenario(spec_for(duration=120.0), ctx)
        det = degrade(gt, ErrorModel(miss_prob=0.25), ctx, rng=3)
        n_gt = len(gt.all_points())
        n_det = len(det.all_points())
        assert n_det / n_gt == pytest.approx(0.75, abs=0.02)

    def test_clutter_ids_never_collide_with_actors(self, ctx):
        gt = generate_scenario(spec_for(duration=60.0), ctx)
        det = degrade(gt, ErrorModel(clutter_rate=1.0), ctx, rng=4)
        actor_ids = {t.object_id for t in gt.trajectories}
        clutter = [t for t in det.trajectories if t.object_id not in actor_ids]
        assert clutter
        assert all(t.object_id.startswith("clutter-") for t in clutter)

    def test_clutter_rate_poisson_mean(self, ctx):
        gt = generate_scenario(spec_for(duration=200.0), ctx)
        det = degrade(gt, ErrorModel(clutter_rate=0.4), ctx, rng=5)
        n_frames = len(det.frames)
        n_clutter = sum(
            len(t.rows) for t in det.trajectories
            if t.object_id.startswith("clutter-")
        )
        assert n_clutter / n_frames == pytest.approx(0.4, abs=0.05)

    def test_det_rate_controls_tick_count(self, ctx):
        gt = generate_scenario(spec_for(duration=50.0), ctx)
        det = degrade(gt, ErrorModel(det_rate_hz=2.0), ctx, rng=6)
        times = sorted({f.timestamp_s for f in det.frames})
        assert np.allclose(np.diff(times), 0.5, atol=1e-9)

    def test_noise_sigma_observed(self, ctx):
        gt = generate_scenario(spec_for(duration=120.0), ctx)
        det = degrade(gt, ErrorModel(noise_sigma_m=0.3), ctx, rng=7)
        gt_traj = {t.object_id: t for t in gt.trajectories}
        devs = []
        for traj in det.trajectories:
            ref = gt_traj[traj.object_id]
            t_ref, xy_ref = trajectory_arrays(ref.rows, ctx)
            t_d, xy_d = trajectory_arrays(traj.rows, ctx)
            x_i = np.interp(t_d, t_ref, xy_ref[:, 0])
            y_i = np.interp(t_d, t_ref, xy_ref[:, 1])
            devs.extend((xy_d[:, 0] - x_i).tolist())
            devs.extend((xy_d[:, 1] - y_i).tolist())
        assert np.std(devs) == pytest.approx(0.3, rel=0.05)


def assert_view_matches_grouping(ts):
    """The trajectory view a builder handed over equals the one grouped
    from the same frames: ids, categories and (t, lat, lon) rows, byte for
    byte."""
    handed = ts.trajectories
    grouped = from_frames(ts.frames, ts.source).trajectories
    assert [(t.object_id, t.category, t.rows.shape, t.rows.tobytes()) for t in handed] == [
        (t.object_id, t.category, t.rows.shape, t.rows.tobytes()) for t in grouped
    ]


class TestHandedOverTrajectories:
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_generate_scenario(self, ctx, template):
        gt = generate_scenario(spec_for(template=template, duration=40.0), ctx,
                               speed_jitter_mps=0.3)
        assert gt.trajectories
        assert_view_matches_grouping(gt)

    @pytest.mark.parametrize("template, errors, handed", [
        *(pytest.param(t, {"miss_prob": m}, True, id=f"{m}-{t}")
          for m in (0.0, 0.3, 1.0) for t in TEMPLATES),
        pytest.param("two_vehicle_plus_pedestrian", {"id_switch_prob": 0.05}, False, id="swaps"),
        pytest.param("two_vehicle_plus_pedestrian", {"clutter_rate": 0.5}, False, id="clutter"),
        # the W1 model: noise, misses, clutter and swaps
        pytest.param("two_vehicle_plus_pedestrian",
                     {"miss_prob": 0.05, "clutter_rate": 0.5, "id_switch_prob": 0.01}, False,
                     id="w1"),
        # one actor has nobody to swap with, so its trajectory is handed over
        pytest.param("one_vehicle_maneuver", {"id_switch_prob": 0.5, "miss_prob": 0.3}, True,
                     id="one_actor_swaps"),
    ])
    def test_degrade(self, ctx, template, errors, handed):
        gt = generate_scenario(spec_for(template=template, duration=40.0), ctx)
        model = ErrorModel(latency_mean_s=0.4, latency_std_s=0.05,
                           noise_sigma_m=0.2, det_rate_hz=7.0, **errors)
        det = degrade(gt, model, ctx, rng=8)
        assert len(det.frames) > 200
        assert ("trajectories" in det.__dict__) == handed
        assert bool(det.trajectories) == (errors.get("miss_prob", 0.0) < 1.0)
        assert_view_matches_grouping(det)

    @pytest.mark.parametrize("model, digest", [
        (ErrorModel(clutter_rate=0.8),
         "02d3c2a23c644a54da6f1a4cd87bd9b5530486224923945cd794eec701fc38d5"),
        (ErrorModel(clutter_rate=0.8, id_switch_prob=0.5),
         "ce9d07bd5dcb612c16926f2db3a135ae71f6bf31725b64147914a74ddd34c3ea"),
    ], ids=["clutter", "clutter_and_swaps"])
    def test_degrade_gt_without_points(self, ctx, model, digest):
        gt = from_frames([DataFrame(BASE_TIME_S + 0.1 * k, ()) for k in range(60)], "ground_truth")
        det = degrade(gt, model, ctx, rng=5)
        assert len(det.frames) == 60
        assert all(p.object_id.startswith("clutter-") for p in det.all_points())
        assert len(det.all_points()) == 47
        assert_view_matches_grouping(det)
        # the frames' repr, recorded from the per-tick builder that the one
        # bulk path replaced; it depends on numpy's random stream
        assert hashlib.sha256(repr(det.frames).encode()).hexdigest() == digest


    def test_rows_are_read_only(self, ctx):
        gt = generate_scenario(spec_for(duration=20.0), ctx)
        det = degrade(gt, ErrorModel(), ctx, rng=1)
        assert "trajectories" in det.__dict__
        grouped = from_frames(gt.frames, gt.source).trajectories
        for traj in (*gt.trajectories, *det.trajectories, *grouped):
            assert not traj.rows.flags.writeable
            with pytest.raises(ValueError):
                traj.rows[0, 0] = 0.0


class TestFramesGroupedOnFirstRead:
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_generate_scenario(self, ctx, template, jitter):
        gt = generate_scenario(spec_for(template=template, duration=40.0), ctx,
                               speed_jitter_mps=jitter)
        assert "frames" not in gt.__dict__
        trajs = gt.trajectories
        assert [t.object_id for t in trajs] == sorted(t.object_id for t in trajs)
        # the frames as generate_scenario used to build them: each actor's
        # points in id order, zipped tick by tick
        series = [[DataPoint(t, GeoPoint(lat, lon), tr.category, tr.object_id)
                   for t, lat, lon in tr.rows.tolist()] for tr in trajs]
        ticks = trajs[0].rows[:, 0].tolist()
        want = tuple(DataFrame(t, tuple(pts)) for t, pts in zip(ticks, zip(*series)))
        assert gt.frames == want
        assert gt.frame_times.tolist() == ticks
        assert gt.all_points() == [p for f in want for p in f.points]
        assert gt.categories == frozenset(p.category for f in want for p in f.points)
        rebuilt = from_frames(gt.frames, gt.source)
        assert gt == rebuilt and hash(gt) == hash(rebuilt)
        fresh = generate_scenario(spec_for(template=template, duration=40.0), ctx,
                                  speed_jitter_mps=jitter)
        assert rebuilt == fresh and hash(fresh) == hash(rebuilt)
        with pytest.raises(AttributeError):
            fresh.frames = ()
        assert not gt.frame_times.flags.writeable

    @pytest.mark.parametrize("gt", [
        TrajectorySet((), "ground_truth"),
        from_trajectories((), np.empty(0), "ground_truth"),
    ], ids=["frames", "trajectories"])
    def test_degrade_empty_truth(self, ctx, gt):
        det = degrade(gt, ErrorModel(clutter_rate=0.5), ctx, rng=1)
        assert det == TrajectorySet((), "detection")

    def test_monte_carlo_block_builds_no_truth_point(self, monkeypatch):
        made = []

        def recording(*args, **kwargs):
            made.append(generate_scenario(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(synth_mod, "generate_scenario", recording)
        route = default_latency_route(5.0, window_m=20.0)
        model = ErrorModel(latency_mean_s=0.5, latency_std_s=0.1, noise_sigma_m=0.2,
                           det_rate_hz=5.0)
        gt, det, tracked = synth_mod._simulate_block(
            np.random.SeedSequence(1).spawn(2), model, route,
            make_projection(DEFAULT_ORIGIN), min_round_trip_duration_s(route), 5.0,
        )
        assert len(made) == 2 and tracked == [0, 0] and len(gt.bounds) == 3
        assert not any("frames" in g.__dict__ for g in made)

    def test_monte_carlo_and_degrade_build_no_columns(self, ctx, monkeypatch):
        # scoring's columnar view is built on a set's first read of it; the
        # replay reads trajectories only, so none of its sets builds one
        built = []
        monkeypatch.setattr(TrajectorySet, "columns", property(built.append))
        model = ErrorModel(latency_mean_s=0.5, latency_std_s=0.1, noise_sigma_m=0.2,
                           det_rate_hz=5.0)
        monte_carlo_validate(model, default_latency_route(5.0, window_m=20.0), n_runs=100,
                             master_seed=1, gt_rate_hz=5.0)
        gt = generate_scenario(spec_for(duration=20.0), ctx)
        noisy = ErrorModel(noise_sigma_m=0.2, miss_prob=0.05, clutter_rate=0.5,
                           id_switch_prob=0.01)
        for model in (noisy, ErrorModel(noise_sigma_m=0.2)):
            degrade(gt, model, ctx, rng=3)
        assert built == []


class TestSwapObjectIds:
    def test_swap_after_time(self, ctx):
        gt = generate_scenario(spec_for(duration=20.0), ctx)
        ids = sorted(t.object_id for t in gt.trajectories
                     if t.category == "vehicle")
        t_mid = BASE_TIME_S + 10.0
        swapped = swap_object_ids(gt, ids[0], ids[1], t_mid)
        orig = {t.object_id: t for t in gt.trajectories}
        new = {t.object_id: t for t in swapped.trajectories}
        for row in new[ids[0]].rows:
            src = orig[ids[0]] if row[0] < t_mid else orig[ids[1]]
            assert (src.rows == row).all(axis=1).any()

    def test_identity_before_cutoff(self, ctx):
        gt = generate_scenario(spec_for(duration=20.0), ctx)
        ids = sorted(t.object_id for t in gt.trajectories)
        far_future = BASE_TIME_S + 1000.0
        assert swap_object_ids(gt, ids[0], ids[1], far_future) == gt


class TestMonteCarloValidate:
    def test_zero_noise_collapses_variances(self):
        model = ErrorModel(latency_mean_s=0.1, det_rate_hz=5.0)
        route = default_latency_route(10.0, window_m=40.0)
        cmp = monte_carlo_validate(model, route, n_runs=100, master_seed=1,
                                   gt_rate_hz=5.0)
        assert cmp.predicted_var_tau == 0.0
        assert cmp.predicted_var_ed == 0.0
        assert cmp.empirical_var_tau < 1e-7
        assert cmp.empirical_var_ed < 1e-7

    def test_single_cell_within_ten_percent(self):
        model = ErrorModel(latency_mean_s=0.5, latency_std_s=0.02,
                           noise_sigma_m=0.1, speed_jitter_mps=0.2,
                           det_rate_hz=5.0)
        route = default_latency_route(10.0, window_m=40.0)
        cmp = monte_carlo_validate(model, route, n_runs=400, master_seed=2,
                                   gt_rate_hz=5.0)
        assert cmp.empirical_var_tau == pytest.approx(
            cmp.predicted_var_tau, rel=0.10
        )
        assert cmp.empirical_var_ed == pytest.approx(
            cmp.predicted_var_ed, rel=0.10
        )
        assert cmp.n_runs >= 200
        assert cmp.n_tau_samples > 1000

    def test_clutter_does_not_drop_runs(self):
        # clutter tracks ("clutter-NNNNN") sort ahead of the actor's track
        model = ErrorModel(latency_mean_s=0.5, latency_std_s=0.02,
                           noise_sigma_m=0.2, speed_jitter_mps=0.2,
                           det_rate_hz=5.0, clutter_rate=0.2)
        route = default_latency_route(10.0, window_m=40.0)
        cmp = monte_carlo_validate(model, route, n_runs=100)
        assert cmp.n_runs >= 90
        assert cmp.n_residual_samples >= 10 * cmp.n_runs

    def test_collector_restored_when_too_few_runs(self, collector_was):
        with pytest.raises(EvalError, match="only 0 of 100 runs"):
            monte_carlo_validate(ErrorModel(miss_prob=1.0),
                                 default_latency_route(10.0), n_runs=100)
        assert gc.isenabled() is collector_was

    def test_mc_variance_cell_bits_pinned(self):
        # the benchmark's mc_variance model at 100 runs; the values were
        # recorded before trajectories carried their rows, so any change to
        # how a run is built or estimated that moves one bit shows here
        model = ErrorModel(latency_mean_s=0.5, latency_std_s=0.1,
                           noise_sigma_m=0.2, speed_jitter_mps=0.2,
                           det_rate_hz=5.0)
        route = default_latency_route(5.0, window_m=20.0)
        cmp = monte_carlo_validate(model, route, n_runs=100, master_seed=11,
                                   gt_rate_hz=5.0)
        assert cmp.empirical_var_tau.hex() == "0x1.80036feefae18p-7"
        assert cmp.predicted_var_tau.hex() == "0x1.7c1bda5119ce2p-7"
        assert cmp.empirical_var_ed.hex() == "0x1.2ccc516d4e6e7p-2"
        assert cmp.predicted_var_ed.hex() == "0x1.28f5c28f5c290p-2"
        assert cmp.n_runs == 98
        assert cmp.n_tau_samples == 2156
        assert cmp.n_residual_samples == 2550

    # float.hex of every MonteCarloComparison float, then n_runs, n_tau_samples
    # and n_residual_samples, for each (v0, sigma_e2, sigma_l) cell of the
    # acceptance grid (tests/test_acceptance.py::test_3) at 100 runs
    GRID_BITS = [
        (5.0, 0.05, 0.0, "0x1.a86d47fdf310bp-14", "0x1.a36e2eb1c432ep-14", "0x1.3e5d18aad5244p-9", "0x1.47ae147ae147cp-9", 95, 2090, 3257),
        (5.0, 0.05, 0.02, "0x1.fcf03851e7444p-12", "0x1.0624dd2f1a9fcp-11", "0x1.8ba6f405bfa9fp-7", "0x1.999999999999ap-7", 94, 2068, 2842),
        (5.0, 0.05, 0.1, "0x1.52f78e746647ep-7", "0x1.4af4f0d844d02p-7", "0x1.038d7321ae571p-2", "0x1.028f5c28f5c2ap-2", 97, 2134, 2529),
        (5.0, 0.2, 0.0, "0x1.a5fd3ded2e24cp-10", "0x1.a36e2eb1c432ep-10", "0x1.460435cc9316dp-5", "0x1.47ae147ae147cp-5", 97, 2134, 3301),
        (5.0, 0.2, 0.02, "0x1.fb483b517f25fp-10", "0x1.0624dd2f1a9fdp-9", "0x1.9ce19798343b4p-5", "0x1.999999999999bp-5", 97, 2134, 2913),
        (5.0, 0.2, 0.1, "0x1.7df29e36d1560p-7", "0x1.7c1bda5119ce2p-7", "0x1.22b0616d81b25p-2", "0x1.28f5c28f5c290p-2", 96, 2112, 2486),
        (10.0, 0.05, 0.0, "0x1.ab1eb35ff5f25p-16", "0x1.a36e2eb1c432ep-16", "0x1.433a91c2f535cp-9", "0x1.47ae147ae147cp-9", 100, 2200, 3464),
        (10.0, 0.05, 0.02, "0x1.bcf7d0daff7cfp-12", "0x1.bda5119ce0760p-12", "0x1.508c6b5839a85p-5", "0x1.5c28f5c28f5c3p-5", 100, 2200, 3052),
        (10.0, 0.05, 0.1, "0x1.3b67026b33168p-7", "0x1.487fcb923a29ep-7", "0x1.e6a54e8ec2606p-1", "0x1.00a3d70a3d70bp+0", 100, 2200, 2648),
        (10.0, 0.2, 0.0, "0x1.a7559bf29cb7fp-12", "0x1.a36e2eb1c432ep-12", "0x1.4597bad09dfaap-5", "0x1.47ae147ae147cp-5", 100, 2200, 3441),
        (10.0, 0.2, 0.02, "0x1.b835dde3aec75p-11", "0x1.a36e2eb1c432ep-11", "0x1.42875262a197fp-4", "0x1.47ae147ae147cp-4", 100, 2200, 3054),
        (10.0, 0.2, 0.1, "0x1.55d33ebcc8fc5p-7", "0x1.54c985f06f695p-7", "0x1.0ceea37bc8879p+0", "0x1.0a3d70a3d70a5p+0", 100, 2200, 2663),
        (15.0, 0.05, 0.0, "0x1.69a50b60a259cp-17", "0x1.74d3b7ba75829p-17", "0x1.362fa69241c93p-9", "0x1.47ae147ae147cp-9", 100, 2200, 3400),
        (15.0, 0.05, 0.02, "0x1.c679eb5c3c824p-12", "0x1.af14cc6f97deep-12", "0x1.7fd8462db548bp-4", "0x1.7ae147ae147afp-4", 100, 2200, 2999),
        (15.0, 0.05, 0.1, "0x1.36bd808934094p-7", "0x1.480b4968cfe52p-7", "0x1.0f3c81be2a00fp+1", "0x1.2051eb851eb86p+1", 100, 2200, 2597),
        (15.0, 0.2, 0.0, "0x1.7c6ebec819c93p-13", "0x1.74d3b7ba75829p-13", "0x1.41506ab5393dep-5", "0x1.47ae147ae147cp-5", 100, 2200, 3406),
        (15.0, 0.2, 0.02, "0x1.2c6acd03100bfp-11", "0x1.2eec05477f7a1p-11", "0x1.002f85d3ec3b9p-3", "0x1.0a3d70a3d70a4p-3", 100, 2200, 3003),
        (15.0, 0.2, 0.1, "0x1.46b39fae53a09p-7", "0x1.4d816359cb1ddp-7", "0x1.2b4bf763375e7p+1", "0x1.251eb851eb853p+1", 100, 2200, 2582),
    ]

    @staticmethod
    def _bits(cmp):
        floats = (cmp.empirical_var_tau, cmp.predicted_var_tau, cmp.empirical_var_ed,
                  cmp.predicted_var_ed)
        return (*map(float.hex, floats), cmp.n_runs, cmp.n_tau_samples, cmp.n_residual_samples)

    @pytest.mark.parametrize("seed", range(1, 19))
    def test_variance_grid_bits_pinned(self, seed):
        v0, sig_e2, sig_l, *expected = self.GRID_BITS[seed - 1]
        model = ErrorModel(latency_mean_s=0.5, latency_std_s=sig_l, noise_sigma_m=sig_e2,
                           speed_jitter_mps=0.2, det_rate_hz=5.0)
        route = default_latency_route(v0, window_m=4.0 * v0)
        cmp = monte_carlo_validate(model, route, n_runs=100, master_seed=seed, gt_rate_hz=5.0)
        assert self._bits(cmp) == tuple(expected)

    def test_clutter_cell_bits_pinned(self):
        # 130 runs: not a whole number of blocks; clutter and misses on
        model = ErrorModel(latency_mean_s=0.5, latency_std_s=0.02, noise_sigma_m=0.2,
                           speed_jitter_mps=0.2, det_rate_hz=5.0, clutter_rate=0.2,
                           miss_prob=0.05)
        cmp = monte_carlo_validate(model, default_latency_route(10.0, 40.0), n_runs=130)
        assert self._bits(cmp) == (
            "0x1.9f85259000528p-11", "0x1.a36e2eb1c432ep-11", "0x1.44e78013e69f4p-4",
            "0x1.47ae147ae147cp-4", 130, 2860, 3958,
        )

    def test_small_n_runs_rejected(self):
        model = ErrorModel(latency_mean_s=0.1)
        route = default_latency_route(10.0)
        with pytest.raises(ValueError):
            monte_carlo_validate(model, route, n_runs=50)

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed must be non-negative"):
            monte_carlo_validate(ErrorModel(latency_mean_s=0.1), default_latency_route(10.0),
                                 n_runs=100, master_seed=-1)


class TestRoundTrip:
    def test_export_ingest_identical(self, ctx, tmp_path):
        gt = generate_scenario(spec_for(duration=30.0), ctx)
        det = degrade(
            gt,
            ErrorModel(latency_mean_s=0.1, noise_sigma_m=0.2, miss_prob=0.1),
            ctx, rng=8,
        )
        for name, ts in (("gt.csv", gt), ("det.csv", det)):
            path = tmp_path / name
            pts = ts.all_points()
            write_points(path, pts)
            rec, report = read_points(path)
            assert not report.rejections
            assert rec.points() == list(pts)

    def test_min_duration_fits_round_trip(self, ctx):
        for jitter in (0.0, 0.2):
            route = default_latency_route(10.0)
            dur = min_round_trip_duration_s(route, jitter)
            for seed in (1, 2, 3):
                spec = ScenarioSpec("latency_run", duration_s=dur,
                                    rng_seed=seed, route=route)
                gt = generate_scenario(spec, ctx)
                traj = next(
                    t for t in gt.trajectories if t.category == "vehicle"
                )
                _, xy = trajectory_arrays(traj.rows, ctx)
                s = route_arc_coordinates(xy, route)
                # the vehicle must fully cross the window both ways
                assert s.max() > route.window_end_m
                crossings = np.sum(np.abs(np.diff(np.sign(s))) > 0)
                assert crossings >= 2
