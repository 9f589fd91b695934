"""Domain types, projection, grouping, arrays and slicing."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roadside_eval.core import (
    DataFrame,
    DataPoint,
    GeoPoint,
    LocalPoint,
    build_trajectory_set,
    filter_category,
    from_frames,
    make_projection,
    project,
    slice_trajectory,
    Trajectory,
    trajectory_arrays,
    unproject,
    validate_geo,
)
from roadside_eval.errors import IntegrityError, ProjectionRangeError

from conftest import ORIGIN, dp, haversine_m, line_points


class TestProjection:
    def test_equator_scales_equal(self):
        c = make_projection(GeoPoint(0.0, 0.0))
        assert c.meters_per_deg_lon == pytest.approx(c.meters_per_deg_lat)

    def test_lat60_halves_lon_scale(self):
        c = make_projection(GeoPoint(60.0, 0.0))
        assert c.meters_per_deg_lon == pytest.approx(0.5 * c.meters_per_deg_lat)

    def test_small_north_step_matches_haversine(self, ctx):
        p = GeoPoint(ORIGIN.lat_deg + 0.001, ORIGIN.lon_deg)
        local = project(p, ctx)
        assert local.x_m == 0.0
        assert local.y_m == pytest.approx(111.13, abs=0.2)
        assert local.y_m == pytest.approx(haversine_m(ORIGIN, p), abs=0.2)

    def test_origin_projects_to_zero(self, ctx):
        assert project(ORIGIN, ctx) == LocalPoint(0.0, 0.0)

    def test_east_west_mirror(self, ctx):
        east = GeoPoint(ORIGIN.lat_deg, ORIGIN.lon_deg + 0.002)
        west = GeoPoint(ORIGIN.lat_deg, ORIGIN.lon_deg - 0.002)
        pe, pw = project(east, ctx), project(west, ctx)
        assert pe.x_m == -pw.x_m
        assert pe.y_m == pw.y_m

    def test_random_points_match_haversine(self, ctx):
        rng = random.Random(42)
        for _ in range(500):
            # within ~1 km of the origin
            p = GeoPoint(
                ORIGIN.lat_deg + rng.uniform(-0.008, 0.008),
                ORIGIN.lon_deg + rng.uniform(-0.011, 0.011),
            )
            local = project(p, ctx)
            planar = math.hypot(local.x_m, local.y_m)
            great_circle = haversine_m(ORIGIN, p)
            if great_circle > 1.0:
                assert planar == pytest.approx(great_circle, rel=1e-3)

    def test_out_of_range_rejected(self, ctx):
        with pytest.raises(ProjectionRangeError):
            project(GeoPoint(ORIGIN.lat_deg + 0.5, ORIGIN.lon_deg), ctx)

    def test_round_trip_within_micrometer(self, ctx):
        rng = random.Random(7)
        for _ in range(200):
            p = LocalPoint(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
            q = project(unproject(p, ctx), ctx)
            assert abs(q.x_m - p.x_m) < 1e-6
            assert abs(q.y_m - p.y_m) < 1e-6

    def test_validate_geo_bounds(self):
        with pytest.raises(ValueError):
            validate_geo(GeoPoint(91.0, 0.0))
        with pytest.raises(ValueError):
            validate_geo(GeoPoint(0.0, -181.0))
        validate_geo(GeoPoint(-90.0, 180.0))


class TestBuildTrajectorySet:
    def test_empty_input(self):
        ts = build_trajectory_set([])
        assert ts.frames == () and ts.trajectories == ()

    def test_two_by_two(self, ctx):
        pts = [
            dp(10.0, 0, 0, ctx, object_id="a"),
            dp(10.0, 5, 0, ctx, object_id="b"),
            dp(10.1, 1, 0, ctx, object_id="a"),
            dp(10.1, 6, 0, ctx, object_id="b"),
        ]
        ts = build_trajectory_set(pts)
        assert len(ts.frames) == 2
        assert len(ts.trajectories) == 2
        assert all(len(t.points) == 2 for t in ts.trajectories)

    def test_duplicate_id_in_bin_rejected(self, ctx):
        pts = [dp(10.0, 0, 0, ctx), dp(10.0, 1, 0, ctx)]
        with pytest.raises(IntegrityError) as exc:
            build_trajectory_set(pts)
        assert "veh-01" in str(exc.value)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariant(self, seed):
        ctx = make_projection(ORIGIN)
        base = []
        for oid in ("a", "b", "c"):
            base.extend(
                line_points(ctx, t0=100.0, n=20, object_id=oid,
                            y=10.0 * ord(oid[0]) % 7)
            )
        shuffled = list(base)
        random.Random(seed).shuffle(shuffled)
        assert build_trajectory_set(shuffled) == build_trajectory_set(base)

    def test_frame_trajectory_duality(self, ctx):
        pts = line_points(ctx, n=30) + line_points(ctx, n=20, object_id="x", y=4)
        ts = build_trajectory_set(pts)
        via_frames = sum(len(f.points) for f in ts.frames)
        via_trajs = sum(len(t.points) for t in ts.trajectories)
        assert via_frames == via_trajs == 50


class TestFromFrames:
    def test_preserves_empty_frames(self, ctx):
        frames = [
            DataFrame(1.0, (dp(1.0, 0, 0, ctx),)),
            DataFrame(2.0, ()),
            DataFrame(3.0, (dp(3.0, 2, 0, ctx),)),
        ]
        ts = from_frames(frames, "detection")
        assert len(ts.frames) == 3
        assert ts.frames[1].points == ()

    def test_sorts_frames(self, ctx):
        frames = [DataFrame(3.0, ()), DataFrame(1.0, (dp(1.0, 0, 0, ctx),))]
        ts = from_frames(frames, "ground_truth")
        assert [f.timestamp_s for f in ts.frames] == [1.0, 3.0]


class TestFilterCategory:
    def test_keeps_emptied_frames(self, ctx):
        frames = [
            DataFrame(1.0, (dp(1.0, 0, 0, ctx, category="vehicle"),)),
            DataFrame(2.0, (dp(2.0, 0, 0, ctx, category="pedestrian",
                               object_id="p1"),)),
        ]
        ts = filter_category(from_frames(frames, "detection"), "vehicle")
        assert len(ts.frames) == 2
        assert ts.frames[1].points == ()
        assert [t.category for t in ts.trajectories] == ["vehicle"]


class TestArraysAndSlicing:
    def test_trajectory_arrays_match_pointwise_projection(self, ctx):
        pts = line_points(ctx, n=40, vx=3.3, y=5.5)
        traj = build_trajectory_set(pts).trajectories[0]
        times, xy = trajectory_arrays(traj, ctx)
        assert times.shape == (40,) and xy.shape == (40, 2)
        for i, p in enumerate(traj.points):
            local = project(p.position, ctx)
            assert times[i] == p.timestamp_s
            assert xy[i, 0] == pytest.approx(local.x_m, abs=1e-9)
            assert xy[i, 1] == pytest.approx(local.y_m, abs=1e-9)

    def test_slice_trajectory_bounds_inclusive(self, ctx):
        traj = build_trajectory_set(line_points(ctx, t0=0.0, n=10, dt=1.0)).trajectories[0]
        part = slice_trajectory(traj, 2.0, 5.0)
        assert [p.timestamp_s for p in part.points] == [2.0, 3.0, 4.0, 5.0]
        assert slice_trajectory(traj, 100.0, 200.0) is None

    def test_all_points_matches_frame_contents(self, ctx):
        pts = line_points(ctx, n=12) + line_points(ctx, n=12, object_id="z", y=3)
        ts = build_trajectory_set(pts)
        assert sorted(ts.all_points(), key=lambda p: (p.timestamp_s, p.object_id)) == sorted(
            pts, key=lambda p: (p.timestamp_s, p.object_id)
        )


# --- the eager grouping and filter, kept as oracles for the on-demand view ---


def _oracle_trajectories(frames):
    by_id = {}
    for f in sorted(frames, key=lambda f: f.timestamp_s):
        for p in f.points:
            by_id.setdefault(p.object_id, []).append(p)
    out = []
    for oid in sorted(by_id):
        pts = sorted(by_id[oid], key=lambda p: p.timestamp_s)
        counts = Counter(p.category for p in pts)
        category = min(counts, key=lambda c: (-counts[c], c))
        out.append(Trajectory(oid, category, tuple(pts)))
    return tuple(out)


def _oracle_filter(ts, category):
    frames = [
        DataFrame(f.timestamp_s, tuple(p for p in f.points if p.category == category))
        for f in ts.frames
    ]
    frames.sort(key=lambda f: f.timestamp_s)
    return tuple(frames), _oracle_trajectories(frames)


def _seeded_frames(seed, per_frame_ids, categories):
    """Frames of a few objects, some empty, with equal-time frames and
    points whose times differ from their frame's."""
    rng = random.Random(seed)
    frames = []
    for k in range(rng.randint(0, 12)):
        t = 100.0 + rng.choice([0.0, 0.1, 0.2]) * k
        pts = []
        for j in rng.sample(range(5), rng.randint(0, 4)):
            oid = f"trk-{seed}-{k}-{j}" if per_frame_ids else f"obj-{j}"
            pts.append(DataPoint(t + rng.uniform(-0.05, 0.05),
                                 GeoPoint(ORIGIN.lat_deg + 1e-5 * j, ORIGIN.lon_deg),
                                 rng.choice(categories), oid))
        frames.append(DataFrame(t, tuple(sorted(pts, key=lambda p: p.object_id))))
    rng.shuffle(frames)
    return frames


class TestOnDemandTrajectories:
    @given(seed=st.integers(0, 2**32 - 1), per_frame_ids=st.booleans(),
           mixed=st.booleans())
    def test_matches_eager_grouping(self, seed, per_frame_ids, mixed):
        categories = ["vehicle", "pedestrian"] if mixed else ["vehicle"]
        frames = _seeded_frames(seed, per_frame_ids, categories)
        ts = from_frames(frames, "detection")
        assert ts.trajectories == _oracle_trajectories(frames)
        assert ts.categories == {p.category for f in frames for p in f.points}

    def test_category_vote_tie_goes_to_first_name(self, ctx):
        frames = [
            DataFrame(1.0, (dp(1.0, 0, 0, ctx, category="vehicle", object_id="a"),)),
            DataFrame(2.0, (dp(2.0, 1, 0, ctx, category="pedestrian", object_id="a"),)),
            DataFrame(3.0, (dp(3.0, 2, 0, ctx, category="vehicle", object_id="b"),)),
            DataFrame(4.0, (dp(4.0, 3, 0, ctx, category="pedestrian", object_id="b"),)),
            DataFrame(5.0, (dp(5.0, 4, 0, ctx, category="pedestrian", object_id="b"),)),
        ]
        ts = from_frames(frames, "detection")
        assert [t.category for t in ts.trajectories] == ["pedestrian", "pedestrian"]
        assert ts.trajectories == _oracle_trajectories(frames)

    def test_per_frame_ids_give_one_point_tracks(self, ctx):
        pts = [dp(10.0 + 0.1 * k, k, 0, ctx, object_id=f"trk-{k}") for k in range(6)]
        ts = build_trajectory_set(pts)
        assert [len(t.points) for t in ts.trajectories] == [1] * 6
        assert ts.trajectories == _oracle_trajectories(ts.frames)

    def test_empty_frames_only(self):
        ts = from_frames([DataFrame(2.0, ()), DataFrame(1.0, ())], "detection")
        assert ts.trajectories == () and ts.categories == frozenset()


class TestFilterPassThrough:
    @given(seed=st.integers(0, 2**32 - 1), category=st.sampled_from(["vehicle", "pedestrian"]))
    def test_one_category_set_is_returned_as_is(self, seed, category):
        ts = from_frames(_seeded_frames(seed, False, [category]), "ground_truth")
        assert filter_category(ts, category) is ts

    @given(seed=st.integers(0, 2**32 - 1), per_frame_ids=st.booleans(),
           category=st.sampled_from(["vehicle", "pedestrian"]))
    def test_mixed_set_equals_eager_rebuild(self, seed, per_frame_ids, category):
        ts = from_frames(_seeded_frames(seed, per_frame_ids, ["vehicle", "pedestrian"]),
                         "detection")
        got = filter_category(ts, category)
        frames, trajectories = _oracle_filter(ts, category)
        assert got.frames == frames
        assert got.trajectories == trajectories
        assert got.source == "detection"
        assert got.categories <= {category}
