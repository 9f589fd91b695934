"""Seeded inputs, commands and output checks of the benchmark workloads.

Each workload writes its inputs into a work directory from the seed alone
(untimed), names the command a child process runs there, and checks the
command's `out/report.json`. The oracle bounds are loose enough to hold
across seeds and deliberate scoring fixes, and tight enough that a matcher
that pairs the wrong points fails them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from roadside_eval.core import DataFrame, DataPoint, GeoPoint, VEHICLE, from_frames, make_projection
from roadside_eval.ingest import write_points
from roadside_eval.synth import (
    BASE_TIME_S,
    DEFAULT_ORIGIN,
    ErrorModel,
    ScenarioSpec,
    degrade,
    generate_scenario,
)

# ROADMAP W1 error model for the intersection trials.
INTERSECTION_MODEL = ErrorModel(
    noise_sigma_m=0.2, miss_prob=0.05, clutter_rate=0.5, id_switch_prob=0.01
)
CROWD_MODEL = ErrorModel(noise_sigma_m=0.3, miss_prob=0.05, clutter_rate=1.0)
SWEEP_THRESHOLDS = (0.25, 0.5, 1.0, 1.5, 3.0)
CROWD_LANE_SPACING_M = 2.5

# Tier-1 test_3, v0 = 5 m/s cell.
MC_CELL = {
    "model": {
        "latency_mean_s": 0.5,
        "latency_std_s": 0.1,
        "noise_sigma_m": 0.2,
        "speed_jitter_mps": 0.2,
        "det_rate_hz": 5.0,
    },
    "v0_mps": 5.0,
    "window_m": 20.0,
    "gt_rate_hz": 5.0,
}

Check = Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    """One prepared workload: what the child runs and how its output is judged."""

    entry: str  # module imported before the command's clock starts
    argv: list[str] | None  # CLI arguments, relative to the work directory
    mc: dict | None  # monte_carlo_validate parameters instead of a CLI command
    units: int  # work per command: input rows, or Monte Carlo runs
    check: Check
    active: tuple[str, ...]  # call counts that must be non-zero when traced


def _count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _row_identities(rows: list[dict]) -> list[str]:
    problems = []
    for r in rows:
        c = r["counts"]
        where = f"{r['trial_id']}/{r['category']}"
        if c["tp"] + c["fn"] != c["gt_total"]:
            problems.append(f"{where}: tp+fn != gt_total")
        if c["tp"] + c["fp"] != c["det_total"]:
            problems.append(f"{where}: tp+fp != det_total")
    return problems


def _non_increasing(values: list[float]) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


# --- eval_intersection -------------------------------------------------------


def _check_intersection(doc: dict) -> list[str]:
    rows = doc["reports"]
    problems = _row_identities(rows)
    if sorted((r["trial_id"], r["category"]) for r in rows) != [
        ("det_a", "pedestrian"),
        ("det_a", "vehicle"),
        ("det_b", "pedestrian"),
        ("det_b", "vehicle"),
    ]:
        problems.append("expected one row per trial and category")
    for r in rows:
        # injected miss rate 5%; noise 0.2 m never reaches the 1.5 m threshold
        if r["category"] == VEHICLE and not 3.0 <= r["fn_rate_pct"] <= 8.0:
            problems.append(f"{r['trial_id']}: vehicle FN {r['fn_rate_pct']:.2f}% not near 5%")
    return problems


def eval_intersection(work: Path, seed: int, smoke: bool) -> Workload:
    """Two degraded detection logs scored against one shared gt file."""
    ss_gen, ss_a, ss_b = np.random.SeedSequence(seed).spawn(3)
    ctx = make_projection(DEFAULT_ORIGIN)
    spec = ScenarioSpec(
        "two_vehicle_plus_pedestrian",
        duration_s=20.0 if smoke else 150.0,
        rng_seed=int(ss_gen.generate_state(1)[0]),
    )
    gt = generate_scenario(spec, ctx)
    write_points(work / "gt.csv", gt.all_points())
    for name, ss in (("det_a", ss_a), ("det_b", ss_b)):
        det = degrade(gt, INTERSECTION_MODEL, ctx, rng=np.random.default_rng(ss))
        write_points(work / f"{name}.csv", det.all_points())
    argv = [
        "eval",
        "--det", "det_a.csv", "det_b.csv",
        "--gt", "gt.csv",
        "--threshold", "1.5",
        "--formats", "table,json",
        "--output-dir", "out",
    ]
    return Workload(
        entry="roadside_eval.cli",
        argv=argv,
        mc=None,
        units=sum(_count_rows(work / f) for f in ("gt.csv", "det_a.csv", "det_b.csv")),
        check=_check_intersection,
        active=(
            "ingest.read_points.calls",
            "core.build_trajectory_set.calls",
            "core.filter_category.calls",
            "core.from_frames.calls",
            "core.project.calls",
            "matching.match_frames_by_time.calls",
            "matching.point_match.calls",
            "matching.association_match.calls",
            "matching.count_id_switches.calls",
            "matching.solve_assignment.calls",
            "matching.lsap.calls",
            "metrics.compute_report.calls",
        ),
    )


# --- sweep_crowd -------------------------------------------------------------


def crowd_scene(n_actors: int, duration_s: float, rate_hz: float, seed: int, ctx):
    """Ground truth of a dense grid of crossing lanes, one vehicle per lane.

    Half the actors drive east-west and half north-south, on lanes
    CROWD_LANE_SPACING_M apart, each at its own speed and direction, timed
    to pass the grid centre mid-trial, so every frame holds every actor.
    """
    rng = np.random.default_rng(seed)
    n_ticks = int(round(duration_s * rate_hz)) + 1
    t_rel = np.arange(n_ticks) / rate_hz
    per_axis = (n_actors + 1) // 2
    series = []
    for i in range(n_actors):
        lane = (i % per_axis - (per_axis - 1) / 2.0) * CROWD_LANE_SPACING_M
        v = rng.uniform(6.0, 14.0) * rng.choice((-1.0, 1.0))
        along = rng.uniform(-30.0, 30.0) + v * (t_rel - duration_s / 2.0)
        x, y = (along, np.full(n_ticks, lane)) if i < per_axis else (np.full(n_ticks, lane), along)
        lat = (ctx.origin.lat_deg + y / ctx.meters_per_deg_lat).tolist()
        lon = (ctx.origin.lon_deg + x / ctx.meters_per_deg_lon).tolist()
        series.append((f"veh-{i + 1:03d}", lat, lon))
    frames = []
    for k, t_k in enumerate((BASE_TIME_S + t_rel).tolist()):
        pts = tuple(DataPoint(t_k, GeoPoint(lat[k], lon[k]), VEHICLE, oid) for oid, lat, lon in series)
        frames.append(DataFrame(t_k, pts))
    return from_frames(frames, "ground_truth")


def relabel_ids(points: list[DataPoint], seed: int) -> list[DataPoint]:
    """Rename every detection to a detector-style id drawn afresh per frame.

    Synthetic detections inherit the gt ids, so both sides of each frame
    sort alike and the assignment tie-break succeeds on its first column;
    a detector's ids carry no such order. One seeded id per (id, frame), as
    from a detector without a tracker, makes the run average over many id
    orders instead of hinging on one. The sweep scores distances only, so
    its rates do not change.
    """
    keys = sorted({(p.timestamp_s, p.object_id) for p in points})
    rng = np.random.default_rng(seed)
    numbers = rng.choice(10 * len(keys), size=len(keys), replace=False)
    names = {key: f"trk-{int(n):07d}" for key, n in zip(keys, numbers)}
    return [
        DataPoint(p.timestamp_s, p.position, p.category, names[(p.timestamp_s, p.object_id)])
        for p in points
    ]


def _check_crowd(doc: dict) -> list[str]:
    sweep = doc["sweep"]
    problems = []
    if sweep["thresholds_m"] != list(SWEEP_THRESHOLDS):
        problems.append("sweep thresholds differ from the request")
    fp, fn = sweep["fp_rate_pct"], sweep["fn_rate_pct"]
    if not (_non_increasing(fp) and _non_increasing(fn)):
        problems.append("sweep rates increase with the threshold")
    # at 3 m the 5% injected misses dominate, plus ~1% of gt points that the
    # solver must pair with far clutter; at 0.25 m most of the 0.3 m
    # per-axis noise falls outside, so the rate must be far higher
    if not 3.0 <= fn[-1] <= 10.0:
        problems.append(f"FN at {SWEEP_THRESHOLDS[-1]} m is {fn[-1]:.2f}%, not near 5%")
    if not fn[0] >= 50.0:
        problems.append(f"FN at {SWEEP_THRESHOLDS[0]} m is {fn[0]:.2f}%, expected > 50%")
    return problems


def sweep_crowd(work: Path, seed: int, smoke: bool) -> Workload:
    """Threshold sweep over a 40-vehicle crowd with relabelled detection ids."""
    ss_gen, ss_deg, ss_ids = np.random.SeedSequence(seed).spawn(3)
    ctx = make_projection(DEFAULT_ORIGIN)
    gt = crowd_scene(
        n_actors=10 if smoke else 40,
        duration_s=3.0 if smoke else 6.0,
        rate_hz=10.0,
        seed=int(ss_gen.generate_state(1)[0]),
        ctx=ctx,
    )
    det = degrade(gt, CROWD_MODEL, ctx, rng=np.random.default_rng(ss_deg))
    write_points(work / "gt.csv", gt.all_points())
    write_points(work / "det.csv", relabel_ids(det.all_points(), int(ss_ids.generate_state(1)[0])))
    argv = [
        "sweep",
        "--det", "det.csv",
        "--gt", "gt.csv",
        "--thresholds", ",".join(str(t) for t in SWEEP_THRESHOLDS),
        "--formats", "table,json",
        "--output-dir", "out",
    ]
    return Workload(
        entry="roadside_eval.cli",
        argv=argv,
        mc=None,
        units=_count_rows(work / "gt.csv") + _count_rows(work / "det.csv"),
        check=_check_crowd,
        active=(
            "ingest.read_points.calls",
            "core.build_trajectory_set.calls",
            "core.filter_category.calls",
            "core.project.calls",
            "matching.match_frames_by_time.calls",
            "matching.solve_assignment.calls",
            "matching.lsap.calls",
            "metrics.threshold_sweep.calls",
        ),
    )


# --- mc_variance -------------------------------------------------------------


def _check_mc(doc: dict) -> list[str]:
    problems = []
    for emp, pred in (("empirical_var_tau", "predicted_var_tau"), ("empirical_var_ed", "predicted_var_ed")):
        if abs(doc[emp] - doc[pred]) > 0.10 * doc[pred]:
            problems.append(f"{emp} {doc[emp]:.6g} is more than 10% from {pred} {doc[pred]:.6g}")
    return problems


def mc_variance(work: Path, seed: int, smoke: bool) -> Workload:
    """One Monte Carlo variance-validation cell through the library API."""
    n_runs = 300 if smoke else 500
    return Workload(
        entry="roadside_eval.synth",
        argv=None,
        mc={**MC_CELL, "n_runs": n_runs, "master_seed": seed},
        units=n_runs,
        check=_check_mc,
        active=(
            "core.from_frames.calls",
            "core.trajectory_arrays.calls",
            "latency.collect_tau_samples.calls",
            "latency.find_constant_speed_windows.calls",
            "latency.sample_tau.calls",
            "latency.estimate_position_error.calls",
            "synth.generate_scenario.calls",
            "synth.degrade.calls",
            "synth.monte_carlo_validate.calls",
        ),
    )


WORKLOADS = {
    "eval_intersection": eval_intersection,
    "sweep_crowd": sweep_crowd,
    "mc_variance": mc_variance,
}
