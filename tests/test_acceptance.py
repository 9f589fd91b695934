"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line with the measured numbers next to their
targets, then asserts. Statistical gates use fixed seeds, so reruns are
deterministic; runtime gates are wall-clock bounds on this machine class.
"""

from __future__ import annotations

import json
import math
import time
from itertools import product

import numpy as np
import pytest
from scipy import stats

from roadside_eval.cli import main
from roadside_eval.core import make_projection
from roadside_eval.ingest import read_points, write_points
from roadside_eval.latency import (
    LatencyEstimate,
    combine_trials,
    estimate_latency,
    estimate_latency_for_trial,
    estimate_position_error,
    plane_tracks,
)
from roadside_eval.metrics import MetricsReport, compute_report, threshold_sweep
from roadside_eval.synth import (
    BASE_TIME_S,
    ErrorModel,
    ScenarioSpec,
    default_latency_route,
    degrade,
    generate_scenario,
    min_round_trip_duration_s,
    monte_carlo_validate,
)

from conftest import ORIGIN, assigned, brute_force_assignment, swap_object_ids


def verdict(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def ctx():
    return make_projection(ORIGIN)


@pytest.fixture(scope="module")
def metric_reports(ctx):
    """Shared evaluation scenarios whose reports feed several gates."""
    reports: list[MetricsReport] = []

    spec = ScenarioSpec("two_vehicle_plus_pedestrian", duration_s=300.0,
                        rng_seed=71)
    gt = generate_scenario(spec, ctx)
    det_miss = degrade(gt, ErrorModel(miss_prob=0.07), ctx, rng=np.random.default_rng(72))
    r_miss = compute_report(det_miss, gt, 0.0, 1.5, "vehicle", ctx, "miss-trial")
    det_swap = swap_object_ids(det_miss, "veh-01", "veh-02", BASE_TIME_S + 150.0)
    r_swap = compute_report(det_swap, gt, 0.0, 1.5, "vehicle", ctx, "swap-trial")
    reports += [r_miss, r_swap]

    # single-category scene so every clutter point lands in the evaluated
    # category and the sweep asymptotes are exactly the model rates
    spec8 = ScenarioSpec("one_vehicle_maneuver", duration_s=300.0, rng_seed=81)
    gt8 = generate_scenario(spec8, ctx)
    model8 = ErrorModel(noise_sigma_m=0.2, miss_prob=0.08, clutter_rate=0.1)
    det8 = degrade(gt8, model8, ctx, rng=np.random.default_rng(82))
    thresholds = (0.25, 0.5, 1.0, 1.5, 3.0, 6.0)
    sweep = threshold_sweep(det8, gt8, 0.0, thresholds, "vehicle", ctx)
    for t in thresholds:
        reports.append(
            compute_report(det8, gt8, 0.0, t, "vehicle", ctx, f"sweep-{t}")
        )

    det_noisy = degrade(
        gt,
        ErrorModel(noise_sigma_m=0.4, miss_prob=0.1, clutter_rate=0.3,
                   id_switch_prob=0.03),
        ctx, rng=np.random.default_rng(73),
    )
    for cat in ("vehicle", "pedestrian"):
        reports.append(compute_report(det_noisy, gt, 0.0, 1.5, cat, ctx, "noisy"))

    return {"r_miss": r_miss, "r_swap": r_swap, "sweep": sweep,
            "model8": model8, "reports": reports}


def test_1_latency_recovery(ctx, capsys):
    t0 = time.monotonic()
    route = default_latency_route(10.0)
    duration = min_round_trip_duration_s(route)
    model = ErrorModel(latency_mean_s=0.1, offset_e1_m=(0.5, 0.0),
                       noise_sigma_m=0.1)
    estimates = []
    for i in range(10):
        spec = ScenarioSpec("latency_run", duration_s=duration,
                            rng_seed=1000 + i, route=route)
        gt = generate_scenario(spec, ctx)
        det = degrade(gt, model, ctx, rng=np.random.default_rng(2000 + i),
                      route_direction=route.direction)
        estimates.append(estimate_latency_for_trial(det, gt, route, ctx, 11))
    combined = combine_trials(estimates)
    split = combined.per_direction_mean_s[-1] - combined.per_direction_mean_s[1]
    elapsed = time.monotonic() - t0

    ok = (
        abs(combined.mean_s - 0.100) <= 0.005
        and abs(split - 2 * 0.5 / 10.0) <= 0.010
        and elapsed < 5.0
    )
    verdict(
        capsys, "1 latency recovery", ok,
        f"combined {combined.mean_s * 1e3:.2f} ms (100 ± 5), "
        f"direction split {split * 1e3:.2f} ms (100 ± 10), "
        f"{elapsed:.2f} s (< 5)",
    )


def first_track_offset(det, gt, ctx, latency: LatencyEstimate):
    """Offset of each set's first trajectory at the given latency."""
    [pos] = estimate_position_error(plane_tracks([det.trajectories[:1]], ctx),
                                    plane_tracks([gt.trajectories[:1]], ctx), [latency.mean_s])
    return pos


def test_2_offset_estimator(ctx, capsys):
    route = default_latency_route(10.0)
    model = ErrorModel(latency_mean_s=0.1, offset_e1_m=(0.5, 0.0),
                       noise_sigma_m=0.1)
    known = LatencyEstimate(0.1, 0.0, 22, {1: 0.1, -1: 0.1})

    spec = ScenarioSpec("latency_run", duration_s=1000.0, rng_seed=201,
                        route=route)
    gt = generate_scenario(spec, ctx)
    det = degrade(gt, model, ctx, rng=np.random.default_rng(202),
                  route_direction=route.direction)
    n_det = len(det.all_points())
    pos = first_track_offset(det, gt, ctx, known)
    bias_x = pos.mean_offset_m[0] - 0.5
    bias_y = pos.mean_offset_m[1]
    part_a = n_det >= 10_000 and abs(bias_x) <= 0.01 and abs(bias_y) <= 0.01

    n_pos = 0
    for i in range(20):
        spec_i = ScenarioSpec("latency_run", duration_s=120.0,
                              rng_seed=300 + i, route=route)
        gt_i = generate_scenario(spec_i, ctx)
        det_i = degrade(gt_i, model, ctx, rng=np.random.default_rng(400 + i),
                        route_direction=route.direction)
        p_i = first_track_offset(det_i, gt_i, ctx, known)
        n_pos += p_i.mean_offset_m[0] - 0.5 > 0
    pval = stats.binomtest(n_pos, 20, 0.5).pvalue
    part_b = pval > 0.01

    verdict(
        capsys, "2 offset estimator", part_a and part_b,
        f"n={n_det} points, bias ({bias_x * 1e3:+.1f}, {bias_y * 1e3:+.1f}) mm "
        f"(|bias| ≤ 10 mm/axis), sign test {n_pos}/20 positive "
        f"p={pval:.3f} (> 0.01)",
    )


def test_3_variance_predictor_grid(capsys):
    t0 = time.monotonic()
    worst_rel = 0.0
    all_ok = True
    seed = 0
    for v0, sig_e2, sig_l in product(
        (5.0, 10.0, 15.0), (0.05, 0.2), (0.0, 0.02, 0.1)
    ):
        seed += 1
        model = ErrorModel(latency_mean_s=0.5, latency_std_s=sig_l,
                           noise_sigma_m=sig_e2, speed_jitter_mps=0.2,
                           det_rate_hz=5.0)
        route = default_latency_route(v0, window_m=4.0 * v0)
        cmp = monte_carlo_validate(model, route, n_runs=1000,
                                   master_seed=seed, gt_rate_hz=5.0)
        for emp, pred in (
            (cmp.empirical_var_tau, cmp.predicted_var_tau),
            (cmp.empirical_var_ed, cmp.predicted_var_ed),
        ):
            all_ok &= abs(emp - pred) <= max(0.10 * pred, 1e-6)
            if pred > 1e-12:
                worst_rel = max(worst_rel, abs(emp - pred) / pred)
    elapsed = time.monotonic() - t0
    ok = all_ok and elapsed < 60.0
    verdict(
        capsys, "3 variance predictors", ok,
        f"18 cells × n=1000, worst deviation {100 * worst_rel:.2f}% "
        f"(≤ 10%), {elapsed:.1f} s (< 60)",
    )


def test_4_assignment_optimality(capsys):
    rng = np.random.default_rng(4444)
    all_ok = True
    worst = 0.0
    for _ in range(1000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        cost = rng.uniform(0.0, 100.0, (rows, cols))
        sol = assigned(cost)
        total = math.fsum(cost[r, c] for r, c in sol)
        best = brute_force_assignment(cost)
        worst = max(worst, abs(total - best))
        all_ok &= abs(total - best) < 1e-9
        all_ok &= assigned(cost) == sol  # deterministic replay
    all_ok &= assigned(np.ones((3, 3))) == ((0, 0), (1, 1), (2, 2))
    verdict(
        capsys, "4 assignment optimality", all_ok,
        f"1000 random matrices ≤ 6×6, max gap to exhaustive minimum "
        f"{worst:.2e} (< 1e-9), deterministic tie-break",
    )


def test_5_metric_identities(metric_reports, capsys):
    failures = 0
    for r in metric_reports["reports"]:
        c = r.counts
        checks: list[bool] = []
        if c.gt_total:
            checks.append(
                abs(r.mota_pct / 100
                    - (1.0 - (c.fp + c.fn + c.ids) / c.gt_total)) < 1e-12
            )
            checks.append(abs(r.fp_rate_pct / 100 - c.fp / c.gt_total) < 1e-12)
            checks.append(abs(r.fn_rate_pct / 100 - c.fn / c.gt_total) < 1e-12)
        if r.hota_pct is not None:
            checks.append(
                abs((r.hota_pct / 100) ** 2
                    - (r.deta_pct / 100) * (r.assa_pct / 100)) < 1e-12
            )
        denom = 2 * c.tpa + c.fpa + c.fna
        if denom:
            checks.append(abs(r.idf1_pct / 100 - 2 * c.tpa / denom) < 1e-12)
        if c.tp:
            checks.append(abs(r.motp_m - c.sum_tp_distance_m / c.tp) < 1e-12)
        failures += not all(checks)
    n = len(metric_reports["reports"])
    verdict(
        capsys, "5 metric identities", failures == 0,
        f"{n} reports audited, {failures} identity violations "
        "(MOTA, rates, HOTA², IDF1, MOTP at 1e-12)",
    )


def test_6_two_sample_means(capsys):
    def est(a: float, b: float) -> LatencyEstimate:
        return estimate_latency([a, b], [1, -1])

    e1 = est(0.041, 0.054)
    e2 = est(1.740, 1.690)
    ok = (
        e1.mean_s == (0.041 + 0.054) / 2
        and e1.mean_s == 0.0475
        and e2.mean_s == (1.740 + 1.690) / 2
        and abs(e2.mean_s - 1.715) <= 1e-12
    )
    verdict(
        capsys, "6 two-sample means", ok,
        f"(41, 54) ms → {e1.mean_s * 1e3:.4g} ms (= 47.5), "
        f"(1740, 1690) ms → {e2.mean_s * 1e3:.10g} ms (= 1715 ± 1e-9)",
    )


def test_7_miss_and_swap_counting(metric_reports, capsys):
    r = metric_reports["r_miss"]
    rs = metric_reports["r_swap"]
    ok = (
        abs(r.fn_rate_pct - 7.0) <= 1.0
        and r.fp_rate_pct == 0.0
        and r.ids == 0
        and rs.ids >= 1
        and rs.idf1_pct < rs.mota_pct
    )
    verdict(
        capsys, "7 miss/swap counting", ok,
        f"miss trial FN {r.fn_rate_pct:.2f}% (7 ± 1), FP {r.fp_rate_pct:.1f}% "
        f"(= 0), IDS {r.ids} (= 0); swap trial IDS {rs.ids} (≥ 1), "
        f"IDF1 {rs.idf1_pct:.1f}% < MOTA {rs.mota_pct:.1f}%",
    )


def test_8_sweep_asymptotes(metric_reports, capsys):
    sweep = metric_reports["sweep"]
    model = metric_reports["model8"]
    fp, fn = sweep.fp_rate_pct, sweep.fn_rate_pct
    monotone = all(a >= b for a, b in zip(fp, fp[1:])) and all(
        a >= b for a, b in zip(fn, fn[1:])
    )
    c_target = 100.0 * model.clutter_rate  # one gt object per frame
    m_target = 100.0 * model.miss_prob
    ok = (
        monotone
        and abs(fp[-1] - c_target) <= 1.5
        and abs(fn[-1] - m_target) <= 1.5
    )
    verdict(
        capsys, "8 sweep asymptotes", ok,
        f"rates non-increasing over {sweep.thresholds_m}; "
        f"FP → {fp[-1]:.2f}% (clutter {c_target:.0f} ± 1.5), "
        f"FN → {fn[-1]:.2f}% (miss {m_target:.0f} ± 1.5)",
    )


def test_9_deterministic_reproduction(ctx, tmp_path, capsys):
    synth_args = [
        "synth", "--template", "two_vehicle_plus_pedestrian",
        "--duration", "30", "--seed", "9", "--noise-sigma", "0.2",
        "--miss-prob", "0.05",
    ]
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        rc = main(synth_args + [
            "--out-gt", str(tmp_path / d / "gt.csv"),
            "--out-det", str(tmp_path / d / "det.csv"),
        ])
        assert rc == 0
    files_equal = (
        (tmp_path / "a/gt.csv").read_bytes() == (tmp_path / "b/gt.csv").read_bytes()
        and (tmp_path / "a/det.csv").read_bytes()
        == (tmp_path / "b/det.csv").read_bytes()
    )

    eval_args = [
        "eval", "--det", str(tmp_path / "a/det.csv"),
        "--gt", str(tmp_path / "a/gt.csv"), "--category", "vehicle",
        "--output-dir", str(tmp_path / "out"),
    ]
    assert main(eval_args) == 0
    first = (tmp_path / "out/report.json").read_bytes()
    assert main(eval_args) == 0
    reports_equal = (tmp_path / "out/report.json").read_bytes() == first
    doc = json.loads(first)

    spec = ScenarioSpec("two_vehicle_plus_pedestrian", duration_s=30.0,
                        rng_seed=9)
    gt = generate_scenario(spec, ctx)
    det = degrade(gt, ErrorModel(noise_sigma_m=0.2, miss_prob=0.05), ctx,
                  rng=np.random.default_rng(90))
    round_trip_ok = True
    for ts in (gt, det):
        path = tmp_path / "rt.csv"
        write_points(path, ts.all_points())
        rec, report = read_points(path)
        round_trip_ok &= not report.rejections
        round_trip_ok &= rec.points() == list(ts.all_points())

    ok = files_equal and reports_equal and round_trip_ok
    verdict(
        capsys, "9 deterministic reproduction", ok,
        f"synthetic files byte-identical: {files_equal}; report.json "
        f"byte-identical (schema_version {doc['schema_version']}): "
        f"{reports_equal}; export→ingest exact: {round_trip_ok}",
    )
