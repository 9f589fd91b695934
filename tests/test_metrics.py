"""Tracking metric formulas, report assembly, and threshold sweeps."""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from roadside_eval.core import (
    DataFrame,
    GeoPoint,
    from_frames,
    make_projection,
)
from roadside_eval.errors import CategoryError
from roadside_eval.matching import match_frames_by_time, point_match
from roadside_eval.metrics import (
    CountSummary,
    compute_hota,
    compute_idf1,
    compute_mota,
    compute_motp,
    compute_report,
    threshold_sweep,
)
from roadside_eval.synth import ErrorModel, ScenarioSpec, degrade, generate_scenario

from conftest import dp, grouped, paired, projected


def counts(tp=0, fp=0, fn=0, ids=0, tpa=0, fpa=0, fna=0, sum_d=0.0):
    return CountSummary(
        tp=tp, fp=fp, fn=fn, ids=ids, tpa=tpa, fpa=fpa, fna=fna,
        gt_total=tp + fn, det_total=tp + fp, sum_tp_distance_m=sum_d,
    )


class TestMotp:
    def test_three_distance_example(self):
        c = counts(tp=3, sum_d=0.2 + 0.4 + 0.6)
        assert compute_motp(c) == pytest.approx(0.4)

    def test_zero_matches_undefined(self):
        assert compute_motp(counts(fp=2, fn=3)) is None

    def test_single_distance(self):
        assert compute_motp(counts(tp=1, sum_d=1.25)) == 1.25

    def test_rayleigh_mean(self):
        # isotropic sigma=0.3 noise: matched distances are Rayleigh with
        # mean sigma*sqrt(pi/2) ~= 0.376
        rng = np.random.default_rng(7)
        d = np.hypot(rng.normal(0, 0.3, 10_000), rng.normal(0, 0.3, 10_000))
        c = counts(tp=10_000, sum_d=float(np.sum(d)))
        assert compute_motp(c) == pytest.approx(0.3 * math.sqrt(math.pi / 2), rel=0.05)


class TestMota:
    def test_perfect(self):
        assert compute_mota(counts(tp=500)) == 1.0

    def test_published_positive_row(self):
        # 1000 gt points, 65 misses, nothing else wrong
        assert compute_mota(counts(tp=935, fn=65)) == pytest.approx(0.935)

    def test_can_go_negative(self):
        c = counts(tp=516, fp=700, fn=484)
        assert compute_mota(c) == pytest.approx(-0.184)

    def test_no_ground_truth_undefined(self):
        assert compute_mota(counts(fp=3)) is None


class TestIdf1:
    def test_example_point_eight(self):
        assert compute_idf1(counts(tp=8, fn=2, fp=2, tpa=8, fpa=2, fna=2)) == pytest.approx(0.8)

    def test_perfect(self):
        assert compute_idf1(counts(tp=10, tpa=10)) == 1.0

    def test_zero_tpa(self):
        assert compute_idf1(counts(tp=5, fp=5, fn=5, fpa=5, fna=5)) == 0.0

    def test_undefined(self):
        assert compute_idf1(counts()) is None


class TestHota:
    def test_quarter_each(self):
        c = counts(tp=25, fp=50, fn=25, tpa=25, fpa=50, fna=25)
        deta, assa, hota = compute_hota(c)
        assert deta == pytest.approx(0.25)
        assert assa == pytest.approx(0.25)
        assert hota == pytest.approx(0.25)

    def test_geometric_mean_example(self):
        # DetA 1.0, AssA 0.49 -> HOTA 0.7
        c = counts(tp=100, tpa=49, fpa=51)
        deta, assa, hota = compute_hota(c)
        assert deta == 1.0
        assert assa == pytest.approx(0.49)
        assert hota == pytest.approx(0.7)

    def test_perfect(self):
        assert compute_hota(counts(tp=10, tpa=10)) == (1.0, 1.0, 1.0)

    def test_undefined_components(self):
        deta, assa, hota = compute_hota(counts())
        assert deta is None and assa is None and hota is None
        # detection counts alone leave the association side undefined
        deta, assa, hota = compute_hota(counts(tp=5))
        assert deta == 1.0 and assa is None and hota is None

    @given(
        tp=st.integers(min_value=0, max_value=50),
        fp=st.integers(min_value=0, max_value=50),
        fn=st.integers(min_value=0, max_value=50),
        tpa=st.integers(min_value=0, max_value=50),
        fpa=st.integers(min_value=0, max_value=50),
        fna=st.integers(min_value=0, max_value=50),
    )
    def test_square_identity(self, tp, fp, fn, tpa, fpa, fna):
        c = counts(tp=tp, fp=fp, fn=fn, tpa=tpa, fpa=fpa, fna=fna)
        deta, assa, hota = compute_hota(c)
        if hota is not None:
            assert hota * hota == pytest.approx(deta * assa, abs=1e-12)


class TestCountSummary:
    def test_consistent_counts_accepted(self):
        c = CountSummary(tp=8, fp=2, fn=1, ids=0, gt_total=9, det_total=10)
        assert c.tp + c.fn == c.gt_total
        assert c.tp + c.fp == c.det_total

    def test_gt_identity_violation(self):
        with pytest.raises(ValueError):
            CountSummary(tp=8, fp=2, fn=2, ids=0, gt_total=9, det_total=10)

    def test_det_identity_violation(self):
        with pytest.raises(ValueError):
            CountSummary(tp=8, fp=3, fn=1, ids=0, gt_total=9, det_total=10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountSummary(tp=0, fp=0, fn=0, ids=-1, gt_total=0, det_total=0)


def simple_scene(ctx, n_frames=40):
    pts = []
    for k in range(n_frames):
        t = 100.0 + 0.1 * k
        pts.append(dp(t, 1.0 * k, 0.0, ctx, object_id="veh-01"))
        pts.append(dp(t, 1.0 * k, 8.0, ctx, object_id="veh-02"))
    return grouped(pts, source="ground_truth")


def shifted_copy(gt, ctx, dx=0.0, dy=0.0):
    pts = []
    for traj in gt.trajectories:
        for t, lat, lon in traj.rows.tolist():
            local = projected(GeoPoint(lat, lon), ctx)
            pts.append(
                dp(t, local.x_m + dx, local.y_m + dy, ctx,
                   category=traj.category, object_id=traj.object_id)
            )
    return grouped(pts, source="detection")


class TestComputeReport:
    def test_perfect_detections(self, ctx):
        gt = simple_scene(ctx)
        det = shifted_copy(gt, ctx)
        r = compute_report(det, gt, 0.0, 1.5, "vehicle", ctx)
        assert r.counts.fp == 0 and r.counts.fn == 0 and r.counts.ids == 0
        assert r.mota_pct == 100.0
        assert r.motp_m == pytest.approx(0.0, abs=1e-9)
        assert r.idf1_pct == 100.0
        assert r.hota_pct == 100.0
        assert r.fp_rate_pct == 0.0 and r.fn_rate_pct == 0.0

    def test_constant_offset_within_threshold(self, ctx):
        gt = simple_scene(ctx)
        det = shifted_copy(gt, ctx, dx=0.3, dy=0.4)
        r = compute_report(det, gt, 0.0, 1.5, "vehicle", ctx)
        assert r.counts.fn == 0 and r.counts.fp == 0
        assert r.motp_m == pytest.approx(0.5, abs=1e-9)

    def test_missing_category_raises(self, ctx):
        gt = simple_scene(ctx)
        det = shifted_copy(gt, ctx)
        with pytest.raises(CategoryError, match="no ground truth in category"):
            compute_report(det, gt, 0.0, 1.5, "pedestrian", ctx)

    def test_empty_detections_all_misses(self, ctx):
        gt = simple_scene(ctx)
        det = grouped([], source="detection")
        r = compute_report(det, gt, 0.0, 1.5, "vehicle", ctx)
        assert r.counts.fn == r.counts.gt_total == 80
        assert r.mota_pct == 0.0
        assert r.motp_m is None
        assert r.fn_rate_pct == 100.0

    def test_threshold_checked_without_frame_pairs(self, ctx):
        gt = simple_scene(ctx)
        det = grouped([], source="detection")
        with pytest.raises(ValueError, match="threshold"):
            compute_report(det, gt, 0.0, -1.0, "vehicle", ctx)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, ctx, bad):
        gt = simple_scene(ctx)
        with pytest.raises(ValueError, match="finite"):
            compute_report(gt, gt, 0.0, bad, "vehicle", ctx)
        with pytest.raises(ValueError, match="finite"):
            threshold_sweep(gt, gt, 0.0, [1.0, bad], "vehicle", ctx)
        with pytest.raises(ValueError, match="finite"):
            point_match(paired([(gt.frames[0], gt.frames[0])]), bad, ctx)
        with pytest.raises(ValueError, match="finite"):
            match_frames_by_time(gt, gt, 0.0, max_gap_s=bad)

    def test_latency_compensation_restores_alignment(self, ctx):
        gt = simple_scene(ctx)
        # detections lag 0.2 s: uncompensated matching sees 2 m of motion
        pts = []
        for k in range(40):
            t = 100.0 + 0.1 * k
            pts.append(dp(t + 0.2, 1.0 * k, 0.0, ctx, object_id="veh-01"))
            pts.append(dp(t + 0.2, 1.0 * k, 8.0, ctx, object_id="veh-02"))
        det = grouped(pts, source="detection")
        r = compute_report(det, gt, 0.2, 1.5, "vehicle", ctx)
        assert r.motp_m == pytest.approx(0.0, abs=1e-9)
        r_raw = compute_report(det, gt, 0.0, 1.5, "vehicle", ctx)
        assert r_raw.motp_m is None or r_raw.motp_m > 1.0 or r_raw.counts.fn > 0

    def test_miss_rate_recovered(self, ctx):
        spec = ScenarioSpec("two_vehicle_plus_pedestrian", duration_s=120.0,
                            rng_seed=11)
        gt = generate_scenario(spec, ctx)
        det = degrade(gt, ErrorModel(miss_prob=0.07), ctx, rng=np.random.default_rng(12))
        r = compute_report(det, gt, 0.0, 1.5, "vehicle", ctx)
        assert r.fn_rate_pct == pytest.approx(7.0, abs=1.0)
        assert r.counts.fp == 0
        assert r.counts.ids == 0

    def test_persistent_swap_penalizes_idf1_more(self, ctx):
        gt = simple_scene(ctx, n_frames=60)
        half = 100.0 + 0.1 * 30
        pts = []
        for k in range(60):
            t = 100.0 + 0.1 * k
            a, b = ("veh-01", "veh-02") if t < half else ("veh-02", "veh-01")
            pts.append(dp(t, 1.0 * k, 0.0, ctx, object_id=a))
            pts.append(dp(t, 1.0 * k, 8.0, ctx, object_id=b))
        det = grouped(pts, source="detection")
        r = compute_report(det, gt, 0.0, 1.5, "vehicle", ctx)
        assert r.counts.ids >= 1
        assert r.idf1_pct < r.mota_pct

    def test_report_carries_trial_and_category(self, ctx):
        gt = simple_scene(ctx)
        r = compute_report(shifted_copy(gt, ctx), gt, 0.0, 2.0, "vehicle",
                           ctx, trial_id="trial-007")
        assert r.trial_id == "trial-007"
        assert r.category == "vehicle"


@pytest.fixture(scope="module")
def degraded_report():
    ctx = make_projection(GeoPoint(42.3, -83.7))
    spec = ScenarioSpec("two_vehicle_plus_pedestrian", duration_s=90.0,
                        rng_seed=23)
    gt = generate_scenario(spec, ctx)
    model = ErrorModel(noise_sigma_m=0.4, miss_prob=0.1,
                       clutter_rate=0.3, id_switch_prob=0.02)
    det = degrade(gt, model, ctx, rng=np.random.default_rng(24))
    return compute_report(det, gt, 0.0, 1.5, "vehicle", ctx)


@pytest.fixture(scope="module")
def noisy_scene():
    ctx = make_projection(GeoPoint(42.3, -83.7))
    spec = ScenarioSpec("two_vehicle_plus_pedestrian", duration_s=90.0,
                        rng_seed=31)
    gt = generate_scenario(spec, ctx)
    model = ErrorModel(noise_sigma_m=0.5, miss_prob=0.05, clutter_rate=0.2)
    det = degrade(gt, model, ctx, rng=np.random.default_rng(32))
    return det, gt, ctx


def reference_id_counts(det, gt, threshold_m):
    """(IDTP, IDFP, IDFN) as Ristani et al. 2016 define them.

    det and gt hold one {id: (x, y) in decimeters} dict per tick. Every
    one-to-one mapping of detection ids to gt ids is tried; a mapped pair
    counts one IDTP on each tick where both are present and within the
    threshold, and the best mapping's count is IDTP. IDFP and IDFN are the
    detection and gt point totals less IDTP.
    """
    det_ids = sorted(set().union(*det))
    gt_ids = sorted(set().union(*gt))
    # the ticks on which each (det id, gt id) pair would count, if mapped
    hits = {(d, g): sum(d in df and g in gf and math.dist(df[d], gf[g]) / 10 <= threshold_m
                        for df, gf in zip(det, gt))
            for d in det_ids for g in gt_ids}
    best = max(
        sum(hits[pair] for pair in zip(ds, gs))
        for k in range(min(len(det_ids), len(gt_ids)) + 1)
        for ds in combinations(det_ids, k)
        for gs in permutations(gt_ids, k)
    )
    return best, sum(map(len, det)) - best, sum(map(len, gt)) - best


# up to 4 ids a tick, on a decimeter grid: with a threshold of a whole
# number of decimeters plus 0.05 m, no distance lies within 1e-6 m of it
_ID_FRAMES = st.dictionaries(
    st.integers(0, 3), st.tuples(st.integers(-15, 15), st.integers(-15, 15)), max_size=4
)


class TestIdf1Reference:
    @given(ticks=st.integers(1, 40).flatmap(
               lambda n: st.tuples(*[st.tuples(_ID_FRAMES, _ID_FRAMES)] * n)),
           threshold_m=st.sampled_from([0.55, 1.05, 1.55, 2.55]))
    def test_counts_match_definition(self, ctx, ticks, threshold_m):
        # a detection frame, possibly empty, at every gt tick: each pairs
        # with its own tick, so none is dropped or scored all-FP
        det, gt = map(list, zip(*ticks))
        assume(any(gt))

        def recording(frames, prefix, source):
            return from_frames([
                DataFrame(1000.0 + 0.1 * k, tuple(
                    dp(1000.0 + 0.1 * k, x / 10, y / 10, ctx, object_id=f"{prefix}{i}")
                    for i, (x, y) in sorted(frame.items())
                ))
                for k, frame in enumerate(frames)
            ], source)

        report = compute_report(recording(det, "d", "detection"),
                                recording(gt, "g", "ground_truth"),
                                0.0, threshold_m, "vehicle", ctx)
        idtp, idfp, idfn = reference_id_counts(
            [{f"d{i}": xy for i, xy in f.items()} for f in det],
            [{f"g{i}": xy for i, xy in f.items()} for f in gt],
            threshold_m,
        )
        c = report.counts
        assert (c.tpa, c.fpa, c.fna) == (idtp, idfp, idfn)
        assert report.idf1_pct == pytest.approx(200.0 * idtp / (2 * idtp + idfp + idfn))


class TestReportIdentities:
    def test_mota_identity(self, degraded_report):
        c = degraded_report.counts
        expected = 100.0 * (1.0 - (c.fp + c.fn + c.ids) / c.gt_total)
        assert abs(degraded_report.mota_pct - expected) < 1e-9

    def test_mota_decomposes_into_rates(self, degraded_report):
        r = degraded_report
        c = r.counts
        expected = 100.0 - r.fp_rate_pct - r.fn_rate_pct - 100.0 * c.ids / c.gt_total
        assert r.mota_pct == pytest.approx(expected, abs=1e-9)

    def test_hota_square_identity(self, degraded_report):
        r = degraded_report
        lhs = (r.hota_pct / 100.0) ** 2
        rhs = (r.deta_pct / 100.0) * (r.assa_pct / 100.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_idf1_identity(self, degraded_report):
        c = degraded_report.counts
        expected = 100.0 * 2 * c.tpa / (2 * c.tpa + c.fpa + c.fna)
        assert abs(degraded_report.idf1_pct - expected) < 1e-9

    def test_motp_is_mean_tp_distance(self, degraded_report):
        c = degraded_report.counts
        assert degraded_report.motp_m == pytest.approx(
            c.sum_tp_distance_m / c.tp, abs=1e-12
        )

    def test_rates_are_count_ratios(self, degraded_report):
        r = degraded_report
        c = r.counts
        assert r.fp_rate_pct == pytest.approx(100.0 * c.fp / c.gt_total, abs=1e-9)
        assert r.fn_rate_pct == pytest.approx(100.0 * c.fn / c.gt_total, abs=1e-9)

    def test_scale_consistency(self, ctx):
        # identical scene replayed twice: counts double, ratios hold still
        def build(repeats):
            pts_gt, pts_det = [], []
            for rep in range(repeats):
                shift = 1000.0 * rep
                for k in range(30):
                    t = 100.0 + 0.1 * k + shift
                    for oid, y in (("veh-01", 0.0), ("veh-02", 8.0)):
                        pts_gt.append(dp(t, 1.0 * k, y, ctx, object_id=oid))
                        pts_det.append(dp(t, 1.0 * k + 0.2, y, ctx, object_id=oid))
            gt = grouped(pts_gt, source="ground_truth")
            det = grouped(pts_det, source="detection")
            return compute_report(det, gt, 0.0, 1.5, "vehicle", ctx)

        r1, r2 = build(1), build(2)
        assert r2.counts.gt_total == 2 * r1.counts.gt_total
        assert r2.counts.tp == 2 * r1.counts.tp
        assert r2.mota_pct == pytest.approx(r1.mota_pct, abs=1e-9)
        assert r2.motp_m == pytest.approx(r1.motp_m, abs=1e-9)
        assert r2.idf1_pct == pytest.approx(r1.idf1_pct, abs=1e-9)
        assert r2.hota_pct == pytest.approx(r1.hota_pct, abs=1e-9)


class TestThresholdSweep:
    def test_rates_non_increasing(self, noisy_scene):
        det, gt, ctx = noisy_scene
        sweep = threshold_sweep(det, gt, 0.0,
                                [0.25, 0.5, 1.0, 1.5, 3.0, 6.0], "vehicle", ctx)
        fp, fn = sweep.fp_rate_pct, sweep.fn_rate_pct
        assert all(a >= b for a, b in zip(fp, fp[1:]))
        assert all(a >= b for a, b in zip(fn, fn[1:]))

    def test_matches_single_report(self, noisy_scene):
        # the sweep matches once at its largest threshold; every smaller one
        # must still give exactly the rates of a report at that threshold
        det, gt, ctx = noisy_scene
        thresholds = (0.25, 0.5, 1.0, 1.5, 3.0)
        sweep = threshold_sweep(det, gt, 0.0, thresholds, "vehicle", ctx)
        assert sweep.thresholds_m == thresholds
        for k, t in enumerate(thresholds):
            r = compute_report(det, gt, 0.0, t, "vehicle", ctx)
            assert (sweep.fp_rate_pct[k], sweep.fn_rate_pct[k]) == (
                r.fp_rate_pct,
                r.fn_rate_pct,
            )

    def test_generous_threshold_reaches_floor_rates(self, noisy_scene):
        det, gt, ctx = noisy_scene
        sweep = threshold_sweep(det, gt, 0.0, [50.0], "vehicle", ctx)
        # at 50 m every surviving detection pairs up, so only genuine misses
        # and clutter remain; clutter splits evenly between the two
        # categories present, and two gt vehicles normalize the fp rate
        assert sweep.fn_rate_pct[0] == pytest.approx(5.0, abs=2.0)
        assert sweep.fp_rate_pct[0] == pytest.approx(100.0 * 0.2 * 0.5 / 2.0, abs=2.0)

    def test_tiny_threshold_rejects_everything(self, noisy_scene):
        det, gt, ctx = noisy_scene
        sweep = threshold_sweep(det, gt, 0.0, [1e-6], "vehicle", ctx)
        assert sweep.fn_rate_pct[0] == 100.0

    def test_thresholds_validated(self, noisy_scene):
        det, gt, ctx = noisy_scene
        with pytest.raises(ValueError):
            threshold_sweep(det, gt, 0.0, [], "vehicle", ctx)
        with pytest.raises(ValueError):
            threshold_sweep(det, gt, 0.0, [1.0, 0.5], "vehicle", ctx)
        with pytest.raises(ValueError):
            threshold_sweep(det, gt, 0.0, [0.0, 1.0], "vehicle", ctx)

    def test_missing_category_raises(self, noisy_scene):
        det, gt, ctx = noisy_scene
        with pytest.raises(CategoryError):
            threshold_sweep(det, gt, 0.0, [1.5], "bicycle", ctx)
