#!/usr/bin/env python3
"""Per-frame assignment cost at 10, 40 and 80 actors (solver ladder).

Builds seeded crowd frames like the sweep benchmark's: vehicles on crossing
lanes 2.5 m apart, detections with 0.3 m noise, 5% misses and Poisson(1)
clutter, in a random row order, as from a detector whose ids sort unlike
the ground truth's. Each frame's distance matrix is solved twice:

- before: the row-by-row tie-break refinement alone
  (``matching._refine_lexicographic``), which re-solves submatrices;
- after: ``matching.solve_assignment``, one solve plus a uniqueness proof,
  refining only near-ties.

Both run on the module's own numpy solver, ``matching.linear_sum_assignment``
(before it replaced scipy's, the "before" column ran on scipy's). Prints
milliseconds and ``linear_sum_assignment`` calls per solve for both, and
checks that they return the same pairs. The engine columns time one bare
solve of each frame: microseconds per ``matching.linear_sum_assignment``
call, and per ``scipy.optimize.linear_sum_assignment`` call when scipy is
importable.

A second table covers 2,000 small frames of an intersection scene for each
shape (1×1, 2×2, 3×2 and 3×3 points): microseconds per frame through one
``solve_assignment`` call per frame on the distance matrices, one solve
plus the uniqueness proof each, and through one batched
``matching.point_match`` call over all the frame pairs, which settles them
in its enumeration kernel, also projects the points and returns its true
positives as one ``Matches`` table. It checks that both assign the same
pairs.

usage: PYTHONPATH=src python scripts/solver_ladder.py [--frames N] [--seed S]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from roadside_eval import matching
from roadside_eval.core import (
    DataFrame,
    DataPoint,
    GeoPoint,
    LocalPoint,
    make_projection,
    project,
    unproject,
)

LANE_SPACING_M = 2.5
RATE_HZ = 10.0
ENGINE_REPEATS = 5
SMALL_SHAPES = ((1, 1), (2, 2), (3, 2), (3, 3))
SMALL_FRAMES = 2000  # per shape


def crowd_frames(n_actors: int, n_frames: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Detection-by-gt distance matrices of one crowd, frame by frame."""
    per_axis = (n_actors + 1) // 2
    lane = (np.arange(n_actors) % per_axis - (per_axis - 1) / 2.0) * LANE_SPACING_M
    speed = rng.uniform(6.0, 14.0, n_actors) * rng.choice((-1.0, 1.0), n_actors)
    start = rng.uniform(-30.0, 30.0, n_actors)
    east = np.arange(n_actors) < per_axis
    frames = []
    for k in range(n_frames):
        along = start + speed * (k - n_frames / 2.0) / RATE_HZ
        gt = np.where(east[:, None], np.c_[along, lane], np.c_[lane, along])
        det = gt[rng.random(n_actors) >= 0.05]
        det = det + rng.normal(0.0, 0.3, det.shape)
        lo, hi = gt.min(axis=0) - 10.0, gt.max(axis=0) + 10.0
        clutter = rng.uniform(lo, hi, (rng.poisson(1.0), 2))
        det = np.vstack([det, clutter])[rng.permutation(len(det) + len(clutter))]
        frames.append(np.hypot(det[:, None, 0] - gt[None, :, 0], det[:, None, 1] - gt[None, :, 1]))
    return frames


def timed(solve, frames: list[np.ndarray]) -> tuple[float, float, list]:
    """(ms per solve, LSAP calls per solve, results) of solve over frames."""
    calls = 0
    engine = matching.linear_sum_assignment

    def counted(cost):
        nonlocal calls
        calls += 1
        return engine(cost)

    matching.linear_sum_assignment = counted
    try:
        started = time.perf_counter()
        results = [solve(cost) for cost in frames]
        elapsed = time.perf_counter() - started
    finally:
        matching.linear_sum_assignment = engine
    return 1e3 * elapsed / len(frames), calls / len(frames), results


def engine_us(engine, frames: list[np.ndarray]) -> float:
    """Best of ENGINE_REPEATS passes, in microseconds per engine call."""
    best = float("inf")
    for _ in range(ENGINE_REPEATS):
        started = time.perf_counter()
        for cost in frames:
            engine(cost)
        best = min(best, time.perf_counter() - started)
    return 1e6 * best / len(frames)


def small_pairs(shape, n_frames: int, rng: np.random.Generator, ctx):
    """Frame pairs of shape (detections, gt): gt spread over an intersection,
    detections near them with 0.3 m noise, in a random order."""
    n_det, n_gt = shape
    pairs = []
    for k in range(n_frames):
        t = 1000.0 + k / RATE_HZ
        gt = rng.uniform(-20.0, 20.0, (n_gt, 2))
        det = gt[rng.integers(0, n_gt, n_det)] + rng.normal(0.0, 0.3, (n_det, 2))

        def frame(xy, prefix):
            return DataFrame(t, tuple(
                DataPoint(t, unproject(LocalPoint(x, y), ctx), "vehicle", f"{prefix}{i}")
                for i, (x, y) in enumerate(xy.tolist())
            ))

        pairs.append((frame(det, "d"), frame(gt, "g")))
    return pairs


def small_frame_rows(n_frames: int, seed: int) -> None:
    ctx = make_projection(GeoPoint(42.3, -83.7))
    print(f"\n{'shape':>6}  {'solve us':>9}  {'batch us':>9}  {'speed-up':>8}")
    for shape in SMALL_SHAPES:
        pairs = small_pairs(shape, n_frames, np.random.default_rng([seed, *shape]), ctx)
        frames = []
        for df, gf in pairs:
            dxy = np.array([project(p.position, ctx) for p in df.points])
            gxy = np.array([project(p.position, ctx) for p in gf.points])
            dx, dy = dxy[:, None, 0] - gxy[None, :, 0], dxy[:, None, 1] - gxy[None, :, 1]
            frames.append(np.hypot(dx, dy))
        started = time.perf_counter()
        solved = [matching.solve_assignment(cost) for cost in frames]
        solve_us = 1e6 * (time.perf_counter() - started) / n_frames
        started = time.perf_counter()
        # a threshold far above any distance keeps every assigned pair
        m = matching.point_match(pairs, 1e6, ctx)
        batch_us = 1e6 * (time.perf_counter() - started) / n_frames
        got = [[] for _ in pairs]
        for k, d, g in zip(m.pair.tolist(), m.det.tolist(), m.gt.tolist()):
            # small_pairs names each point by its index in the frame
            got[k].append((int(m.ids[d][1:]), int(m.ids[g][1:])))
        if list(map(tuple, got)) != solved:
            raise SystemExit(f"{shape}: point_match differs from solve_assignment")
        label = f"{shape[0]}x{shape[1]}"
        print(f"{label:>6}  {solve_us:>9.1f}  {batch_us:>9.1f}  {solve_us / batch_us:>7.1f}x")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--frames", type=int, default=10, help="frames per actor count (default 10)")
    p.add_argument("--seed", type=int, default=3)
    args = p.parse_args()
    try:
        from scipy.optimize import linear_sum_assignment as scipy_engine
    except ImportError:
        scipy_engine = None

    print(
        f"{'actors':>6}  {'before ms':>10}  {'lsap':>7}  {'after ms':>9}  {'lsap':>5}"
        f"  {'speed-up':>8}  {'engine us':>9}  {'scipy us':>8}"
    )
    for n_actors in (10, 40, 80):
        frames = crowd_frames(n_actors, args.frames, np.random.default_rng([args.seed, n_actors]))
        before_ms, before_calls, before = timed(matching._refine_lexicographic, frames)
        after_ms, after_calls, after = timed(matching.solve_assignment, frames)
        if [list(a) for a in after] != before:
            raise SystemExit(f"{n_actors} actors: solve_assignment differs from the refinement")
        engine = engine_us(matching.linear_sum_assignment, frames)
        scipy_us = f"{engine_us(scipy_engine, frames):>8.1f}" if scipy_engine else f"{'-':>8}"
        print(
            f"{n_actors:>6}  {before_ms:>10.2f}  {before_calls:>7.1f}  "
            f"{after_ms:>9.3f}  {after_calls:>5.2f}  {before_ms / after_ms:>7.0f}x"
            f"  {engine:>9.1f}  {scipy_us}"
        )
    small_frame_rows(SMALL_FRAMES, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
