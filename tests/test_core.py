"""Domain types, projection, grouping, arrays and slicing."""

from __future__ import annotations

import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from roadside_eval.core import (
    FRAME_BIN_S,
    DataFrame,
    DataPoint,
    GeoPoint,
    LocalPoint,
    filter_category,
    from_frames,
    make_projection,
    project,
    time_span,
    Trajectory,
    TrajectorySet,
    trajectory_arrays,
    unproject,
    validate_geo,
)
from roadside_eval import core as core_mod
from roadside_eval.errors import IntegrityError, ProjectionRangeError
from roadside_eval.synth import ScenarioSpec, generate_scenario

from conftest import ORIGIN, dp, grouped, haversine_m, line_points


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


def reference_grouping(points, source="detection"):
    """The dict-based grouping that build_trajectory_set replaced, verbatim."""
    pts = list(points)
    by_bin: dict[int, dict[str, int]] = {}
    for k, p in enumerate(pts):
        frame = by_bin.setdefault(round(p.timestamp_s / FRAME_BIN_S), {})
        first = frame.setdefault(p.object_id, k)
        if first != k:
            raise IntegrityError(
                f"duplicate record for object {p.object_id!r} in frame bin "
                f"around t={p.timestamp_s:.3f} s",
                records=(first, k),
            )

    frames = []
    for b in sorted(by_bin):
        members = [pts[k] for _, k in sorted(by_bin[b].items())]
        stamp = math.fsum(m.timestamp_s for m in members) / len(members)
        frames.append(DataFrame(stamp, tuple(members)))
    return from_frames(frames, source)


def check_against_reference(points):
    """build_trajectory_set gives the reference's frames, stamps bit for bit,
    or the reference's duplicate error, from a recording of the points."""
    try:
        want = reference_grouping(points)
    except IntegrityError as exc:
        with pytest.raises(IntegrityError) as got:
            grouped(points)
        assert (str(got.value), got.value.records) == (str(exc), exc.records)
        return
    got = grouped(points)
    assert got == want
    assert [f.timestamp_s.hex() for f in got.frames] == [f.timestamp_s.hex() for f in want.frames]


def _ulps(t: float, steps: int) -> float:
    for _ in range(abs(steps)):
        t = math.nextafter(t, math.copysign(math.inf, steps))
    return t


BINS = [-2, -1, 0, 1, 2, 7, 1_700_000_000_122, 1_700_000_000_123]


def _point(t: float, oid: str, category: str = "vehicle") -> DataPoint:
    return DataPoint(t, ORIGIN, category, oid)


@st.composite
def grouping_inputs(draw):
    """Points of a few ids and both categories, at times on, and a few ulps
    around, half-bin boundaries, and at several distinct times inside one
    bin. Duplicates of an id in a bin occur unless the draw drops them."""
    bins = draw(st.lists(st.sampled_from(BINS), min_size=1, max_size=3, unique=True))
    half = st.builds(lambda b, k: _ulps((b + 0.5) * FRAME_BIN_S, k),
                     st.sampled_from(bins), st.integers(-3, 3))
    inside = st.builds(lambda b, f: b * FRAME_BIN_S + f * FRAME_BIN_S,
                       st.sampled_from(bins), st.floats(-0.45, 0.45))
    time = half | inside | st.sampled_from([0.0, -0.0])
    point = st.builds(_point, time, st.sampled_from(["a", "b", "B", "a0", "veh-1"]),
                      st.sampled_from(["vehicle", "pedestrian"]))
    pts = draw(st.lists(point, max_size=14))
    if draw(st.booleans()):
        seen = set()
        kept = []
        for p in pts:
            key = (round(p.timestamp_s / FRAME_BIN_S), p.object_id)
            if key not in seen:
                seen.add(key)
                kept.append(p)
        pts = kept
    return pts


class TestBuildTrajectorySet:
    def test_empty_input(self):
        ts = grouped([])
        assert ts.frames == () and ts.trajectories == ()

    def test_two_by_two(self, ctx):
        pts = [
            dp(10.0, 0, 0, ctx, object_id="a"),
            dp(10.0, 5, 0, ctx, object_id="b"),
            dp(10.1, 1, 0, ctx, object_id="a"),
            dp(10.1, 6, 0, ctx, object_id="b"),
        ]
        ts = grouped(pts)
        assert len(ts.frames) == 2
        assert len(ts.trajectories) == 2
        assert all(t.rows.shape == (2, 3) for t in ts.trajectories)

    def test_duplicate_id_in_bin_rejected(self, ctx):
        pts = [dp(10.0, 0, 0, ctx), dp(10.0, 1, 0, ctx)]
        with pytest.raises(IntegrityError) as exc:
            grouped(pts)
        assert "veh-01" in str(exc.value)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e306])
    def test_time_in_no_bin_names_the_record(self, ctx, t):
        pts = [dp(10.0, 0, 0, ctx), dp(t, 1, 0, ctx, object_id="b")]
        # a plain float repr, not numpy's np.float64(...)
        message = f"^record 1: timestamp {re.escape(repr(t))} s falls in no frame bin$"
        with pytest.raises(ValueError, match=message):
            grouped(pts)

    def test_first_bad_record_in_input_order_is_named(self, ctx):
        # whichever of a duplicate and a time in no bin comes first is raised
        a0, a1 = dp(10.0, 0, 0, ctx, object_id="a"), dp(10.0, 1, 0, ctx, object_id="a")
        bad = dp(math.nan, 2, 0, ctx, object_id="b")
        with pytest.raises(IntegrityError) as exc:
            grouped([a0, a1, bad])
        assert exc.value.records == (0, 1)
        with pytest.raises(ValueError, match="record 1: timestamp"):
            grouped([a0, bad, a1])

    @given(case=grouping_inputs())
    def test_matches_dict_grouping(self, case):
        check_against_reference(case)

    def test_half_bin_boundaries_round_half_to_even(self):
        # at k = 0 the quotient is exactly b + 0.5; even and odd b round apart
        pts = [_point(_ulps((b + 0.5) * FRAME_BIN_S, k), f"{b}/{k}")
               for b in BINS for k in range(-3, 4)]
        check_against_reference(pts)

    def test_lone_negative_zero_stamps_positive_zero(self):
        check_against_reference([_point(-0.0, "a"), _point(1.0, "a")])

    def test_third_record_of_an_id_names_the_first_two(self, ctx):
        pts = [dp(10.0, 0, 0, ctx, object_id="a"), dp(10.0, 1, 0, ctx, object_id="b"),
               dp(10.0001, 2, 0, ctx, object_id="a"), dp(10.0002, 3, 0, ctx, object_id="a")]
        with pytest.raises(IntegrityError) as exc:
            grouped(pts)
        assert exc.value.records == (0, 2)
        check_against_reference(pts)

    def test_duplicate_met_first_in_input_order_is_named(self, ctx):
        # the later bin's duplicate comes first in the file, so it is the one named
        pts = [dp(20.0, 0, 0, ctx, object_id="x"), dp(10.0, 1, 0, ctx, object_id="y"),
               dp(20.0, 2, 0, ctx, object_id="x"), dp(10.0, 3, 0, ctx, object_id="y")]
        with pytest.raises(IntegrityError, match="'x'") as exc:
            grouped(pts)
        assert exc.value.records == (0, 2)
        check_against_reference(pts)

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
        assert grouped(shuffled) == grouped(base)

    def test_frame_trajectory_duality(self, ctx):
        pts = line_points(ctx, n=30) + line_points(ctx, n=20, object_id="x", y=4)
        ts = grouped(pts)
        via_frames = sum(len(f.points) for f in ts.frames)
        via_trajs = sum(len(t.rows) for t in ts.trajectories)
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
        traj = grouped(pts).trajectories[0]
        times, xy = trajectory_arrays(traj.rows, ctx)
        assert times.shape == (40,) and xy.shape == (40, 2)
        for i, p in enumerate(pts):
            local = project(p.position, ctx)
            assert times[i] == p.timestamp_s
            assert xy[i, 0] == pytest.approx(local.x_m, abs=1e-9)
            assert xy[i, 1] == pytest.approx(local.y_m, abs=1e-9)

    def test_time_span_bounds_inclusive(self):
        times = np.arange(10.0)
        i, j = time_span(times, 2.0, 5.0)
        assert times[i:j].tolist() == [2.0, 3.0, 4.0, 5.0]
        i, j = time_span(times, 100.0, 200.0)
        assert i >= j

    def test_all_points_matches_frame_contents(self, ctx):
        pts = line_points(ctx, n=12) + line_points(ctx, n=12, object_id="z", y=3)
        ts = grouped(pts)
        assert sorted(ts.all_points(), key=lambda p: (p.timestamp_s, p.object_id)) == sorted(
            pts, key=lambda p: (p.timestamp_s, p.object_id)
        )


@st.composite
def ascending_times_and_bounds(draw):
    """Strictly ascending sample times and a pair of span bounds, each at a
    sample time, between two, outside them all, NaN or any float."""
    times = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12, unique=True)))
    mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
    outside = [times[0] - 1.0, times[-1] + 1.0, -math.inf, math.inf, math.nan]
    bound = st.sampled_from(times + mids + outside) | st.floats(allow_nan=True)
    return times, [draw(bound) for _ in range(2)]


class TestSliceView:
    @given(case=ascending_times_and_bounds())
    def test_slice_equals_filter(self, ctx, case):
        """time_span keeps exactly what the filter t0 <= t <= t1 keeps, and
        the track cut by it equals the track of those points alone."""
        times, (t0, t1) = case
        pts = tuple(
            DataPoint(t, GeoPoint(ORIGIN.lat_deg + 1e-6 * k, ORIGIN.lon_deg - 1e-6 * k),
                      "vehicle", "a")
            for k, t in enumerate(times)
        )
        t, xy = trajectory_arrays(_rows(pts), ctx)
        i, j = time_span(t, t0, t1)
        kept = tuple(p for p in pts if t0 <= p.timestamp_s <= t1)
        assert pts[i:j] == kept
        if kept:
            want = trajectory_arrays(_rows(kept), ctx)
            assert t[i:j].tobytes() == want[0].tobytes()
            assert xy[i:j].tobytes() == want[1].tobytes()

    def test_nan_and_reversed_bounds_give_empty_span(self):
        times = np.arange(10.0)
        for t0, t1 in ((math.nan, 5.0), (2.0, math.nan), (5.0, 2.0)):
            i, j = time_span(times, t0, t1)
            assert i >= j and times[i:j].size == 0
        assert time_span(times, 3.0, 3.0) == (3, 4)
        assert time_span(times, -math.inf, math.inf) == (0, 10)
        assert time_span(times, 2.5, 4.0) == (3, 5)

    @given(case=ascending_times_and_bounds(), cut=st.integers(0, 12), other=st.floats(-1e6, 1e6))
    def test_many_spans_in_one_call(self, case, cut, other):
        """Array bounds and row limits give, per entry, the span of that
        entry's rows alone, shifted by its first row."""
        times, (t0, t1) = case
        cut = min(cut, len(times))
        both = np.array(times[:cut] + sorted([other, *times[cut:]]))
        lo = np.array([0, 0, cut, cut])
        hi = np.array([cut, cut, len(both), len(both)])
        t0s, t1s = np.array([t0, t1, t0, other]), np.array([t1, t0, t1, t1])
        i, j = time_span(both, t0s, t1s, lo, hi)
        for k in range(4):
            a, b = time_span(both[lo[k]:hi[k]], t0s[k], t1s[k])
            assert (i[k] - lo[k], j[k] - lo[k]) == (a, b)

    def test_shared_rows_are_read_only(self, ctx):
        traj = grouped(line_points(ctx, t0=0.0, n=10, dt=1.0)).trajectories[0]
        with pytest.raises(ValueError):
            traj.rows[0, 0] = -1.0
        # the arrays handed to callers are their own
        times, xy = trajectory_arrays(traj.rows, ctx)
        times[2] = -1.0
        xy[2] = -1.0
        assert traj.rows[2, 0] == 2.0
        assert trajectory_arrays(traj.rows, ctx)[1][2].tolist() != [-1.0, -1.0]


# --- the eager grouping and filter, kept as oracles for the on-demand view ---


def _rows(points):
    return np.array([(p.timestamp_s, *p.position) for p in points], float).reshape(-1, 3)


def _keyed(trajectories):
    """Trajectories as comparable tuples; a Trajectory compares by identity."""
    return [(t.object_id, t.category, t.rows.shape, t.rows.tobytes()) for t in trajectories]


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
        out.append(Trajectory(oid, category, _rows(pts)))
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


_ARRAYS = ("t", "lat", "lon", "category", "ident")


def _columns_equal(a, b) -> bool:
    return (a.categories, a.ids) == (b.categories, b.ids) and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in _ARRAYS
    )


def _views_read_only(ts) -> bool:
    """The set's columns, offsets and frame times are all read-only."""
    arrays = [getattr(ts.columns, f) for f in _ARRAYS] + [ts.offsets, ts.frame_times]
    return not any(a.flags.writeable for a in arrays)


class TestColumns:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_grouping_codes_equal_a_pass_over_the_frames(self, seed):
        # build_trajectory_set hands over its sorted rows, codes and all, as
        # the columns
        points = [p for f in _seeded_frames(seed, True, ["vehicle", "pedestrian"])
                  for p in f.points]
        points += [DataPoint(50.0 + 0.1 * k, ORIGIN, "vehicle", f"obj-{k % 3}") for k in range(9)]
        random.Random(seed).shuffle(points)
        ts = grouped(points)
        rebuilt = from_frames(ts.frames, "detection")
        for view in ("columns", "offsets", "frame_times"):
            assert view in ts.__dict__ and view not in rebuilt.__dict__
        assert _columns_equal(ts.columns, rebuilt.columns)
        assert ts.offsets.tobytes() == rebuilt.offsets.tobytes()
        assert ts.frame_times.tobytes() == rebuilt.frame_times.tobytes()
        assert not ts.frame_times.flags.writeable
        cols = ts.columns
        assert ts.offsets.tolist() == [0, *np.cumsum([len(f.points) for f in ts.frames])]
        assert [cols.ids[k] for k in cols.ident] == [p.object_id for p in ts.all_points()]
        assert [cols.categories[k] for k in cols.category] == [p.category for p in ts.all_points()]
        assert cols.t.tolist() == [p.timestamp_s for p in ts.all_points()]
        assert cols.lat.tolist() == [p.position.lat_deg for p in ts.all_points()]
        assert _views_read_only(ts) and _views_read_only(rebuilt)

    def test_codes_stay_with_points_the_frame_sort_moves(self, ctx, monkeypatch):
        # were from_frames to reorder the frames, the grouping's rows would
        # no longer be in frame order, and are not handed over
        def reversed_frames(frames, source):
            return TrajectorySet(tuple(reversed(frames)), source)

        monkeypatch.setattr(core_mod, "from_frames", reversed_frames)
        ts = grouped([dp(1.0, 0, 0, ctx, object_id="b"), dp(2.0, 0, 0, ctx, object_id="a")])
        assert not {"columns", "offsets", "frame_times"} & ts.__dict__.keys()
        assert [ts.columns.ids[k] for k in ts.columns.ident] == ["a", "b"]
        assert ts.columns.t.tolist() == [2.0, 1.0]


class TestOnDemandTrajectories:
    @given(seed=st.integers(0, 2**32 - 1), per_frame_ids=st.booleans(),
           mixed=st.booleans())
    def test_matches_eager_grouping(self, seed, per_frame_ids, mixed):
        categories = ["vehicle", "pedestrian"] if mixed else ["vehicle"]
        frames = _seeded_frames(seed, per_frame_ids, categories)
        ts = from_frames(frames, "detection")
        assert _keyed(ts.trajectories) == _keyed(_oracle_trajectories(frames))
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
        assert _keyed(ts.trajectories) == _keyed(_oracle_trajectories(frames))

    def test_per_frame_ids_give_one_point_tracks(self, ctx):
        pts = [dp(10.0 + 0.1 * k, k, 0, ctx, object_id=f"trk-{k}") for k in range(6)]
        ts = grouped(pts)
        assert [len(t.rows) for t in ts.trajectories] == [1] * 6
        assert _keyed(ts.trajectories) == _keyed(_oracle_trajectories(ts.frames))

    def test_equal_times_keep_frame_order(self, ctx):
        # two frames with equal stamps hold one id at equal times, apart
        a, b = dp(1.0, 0, 0, ctx), dp(1.0, 5, 0, ctx)
        for first, second in ((a, b), (b, a)):
            frames = [DataFrame(1.0, (first,)), DataFrame(1.0, (second,))]
            (traj,) = from_frames(frames, "detection").trajectories
            assert traj.rows.tobytes() == _rows([first, second]).tobytes()
            assert _keyed([traj]) == _keyed(_oracle_trajectories(frames))

    def test_empty_frames_only(self):
        ts = from_frames([DataFrame(2.0, ()), DataFrame(1.0, ())], "detection")
        assert ts.trajectories == () and ts.categories == frozenset()


class TestFilterPassThrough:
    @given(seed=st.integers(0, 2**32 - 1), category=st.sampled_from(["vehicle", "pedestrian"]))
    def test_one_category_set_is_returned_as_is(self, seed, category):
        ts = from_frames(_seeded_frames(seed, False, [category]), "ground_truth")
        assert filter_category(ts, category) is ts

    @given(seed=st.integers(0, 2**32 - 1), per_frame_ids=st.booleans(),
           category=st.sampled_from(["vehicle", "pedestrian", "cyclist"]))
    def test_mixed_set_equals_eager_rebuild(self, seed, per_frame_ids, category):
        parents = (
            from_frames(_seeded_frames(seed, per_frame_ids, ["vehicle", "pedestrian"]),
                        "detection"),
            # a from_trajectories set: vehicles and a pedestrian, frames not yet grouped
            generate_scenario(ScenarioSpec("two_vehicle_plus_pedestrian", 5.0, seed),
                              make_projection(ORIGIN)),
        )
        for ts, source in zip(parents, ("detection", "ground_truth")):
            got = filter_category(ts, category)
            frames, trajectories = _oracle_filter(ts, category)
            assert got.frames == frames
            assert _keyed(got.trajectories) == _keyed(trajectories)
            assert got.source == source
            assert got.categories <= {category}
            assert _views_read_only(ts) and _views_read_only(got)
