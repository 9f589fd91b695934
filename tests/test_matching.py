"""Assignment solver, frame alignment, point matching, and id bookkeeping."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_assignment

from roadside_eval import matching
from roadside_eval.core import (
    DataFrame,
    build_trajectory_set,
    filter_category,
    from_frames,
    project,
)
from roadside_eval.errors import EvalError, ProjectionRangeError
from roadside_eval.matching import (
    association_match,
    count_id_switches,
    match_frames_by_time,
    point_match,
    solve_assignment,
)

from conftest import brute_force_assignment, dp, line_points

# A cost far above any sum of real planar distances, as a caller might give
# a forbidden pair: the solver must still take matrices that hold it.
_HUGE_COST = 1e12


class TestSolveAssignment:
    def test_symmetric_two_by_two(self):
        assert solve_assignment([[1.0, 2.0], [2.0, 1.0]]) == ((0, 0), (1, 1))

    def test_one_by_one(self):
        assert solve_assignment([[7.0]]) == ((0, 0),)

    def test_empty_matrix(self):
        assert solve_assignment(np.zeros((0, 3))) == ()

    def test_thousand_random_matrices_match_brute_force(self):
        rng = random.Random(1234)
        for trial in range(1000):
            n_rows = rng.randint(1, 6)
            n_cols = rng.randint(1, 6)
            cost = [
                [rng.uniform(0.0, 100.0) for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            got = solve_assignment(cost)
            want = brute_force_assignment(cost)
            assert math.fsum(cost[r][c] for r, c in got) == want, (
                f"trial {trial}: solver total differs from exhaustive minimum"
            )
            assert len(got) == min(n_rows, n_cols)

    def test_tie_break_lexicographic(self):
        # every assignment of this matrix costs 2; the smallest pair list wins
        assert solve_assignment([[1.0, 1.0], [1.0, 1.0]]) == ((0, 0), (1, 1))
        assert solve_assignment([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]]) == ((0, 0), (1, 1))

    def test_tie_break_prefers_smaller_column_at_equal_cost(self):
        # rows can take either column at the same total
        assert solve_assignment([[2.0, 2.0]]) == ((0, 0),)

    def test_deterministic_across_runs(self):
        rng = random.Random(9)
        cost = [[rng.choice([1.0, 2.0]) for _ in range(5)] for _ in range(5)]
        first = solve_assignment(cost)
        for _ in range(5):
            assert solve_assignment(cost) == first

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            solve_assignment([[1.0, float("inf")], [1.0, 1.0]])
        with pytest.raises(ValueError):
            solve_assignment([[float("nan")]])


class TestLinearSumAssignment:
    """The in-module solver, with scipy's as a test-only oracle."""

    @staticmethod
    def _matrix(rng, kind: str, shape: tuple[int, int]) -> np.ndarray:
        if kind == "continuous":
            return rng.uniform(0.0, 100.0, shape)
        if kind == "rounded":
            return np.round(rng.uniform(0.0, 3.0, shape), 1)
        if kind == "association":
            return -rng.integers(0, 4, shape).astype(float)
        cost = np.round(rng.uniform(0.0, 5.0, shape), 1)
        cost[rng.random(shape) < 0.4] = _HUGE_COST
        return cost

    @pytest.mark.parametrize(
        "seed, kind", enumerate(["continuous", "rounded", "association", "unmatchable"])
    )
    def test_optimal_with_dual_certificate(self, seed, kind):
        rng = np.random.default_rng(seed)
        tall = set()
        for _ in range(250):
            shape = tuple(int(v) for v in rng.integers(1, 21, size=2))
            cost = self._matrix(rng, kind, shape)
            rows, cols, u, v = matching.linear_sum_assignment(cost)
            want = math.fsum(cost[scipy_assignment(cost)])
            # tied optima may differ in the last bits of their exact sums
            assert math.isclose(math.fsum(cost[rows, cols]), want, rel_tol=4 * np.finfo(float).eps)
            assert len(rows) == min(shape)
            assert len(set(rows.tolist())) == len(set(cols.tolist())) == len(rows)
            assert rows.tolist() == sorted(rows.tolist())

            # u, v prove the pairs optimal: reduced costs are non-negative,
            # zero on the pairs, and the longer side's potentials are ≤ 0
            # and 0 where it is unpaired; tol is the duals' rounding
            tol = 64 * np.finfo(float).eps * max(shape) * float(np.abs(cost).max())
            reduced = cost - u[:, None] - v
            assert reduced.min() >= -tol
            assert np.abs(reduced[rows, cols]).max() <= tol
            longer, paired = (u, rows) if shape[0] > shape[1] else (v, cols)
            assert (longer <= 0.0).all()
            assert not np.delete(longer, paired).any()
            tall.add(shape[0] > shape[1])
        assert tall == {True, False}

    def test_package_imports_without_scipy(self):
        src = Path(matching.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, roadside_eval.cli, roadside_eval.synth; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


def _refinement_oracle(cost: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The row-by-row tie-break that re-solves every submatrix, kept here as
    a reference: solve_assignment must return exactly its pairs."""
    def sub_total(rows, cols):
        sub = cost[np.ix_(rows, cols)]
        rr, cc = scipy_assignment(sub)
        return math.fsum(sub[i, j] for i, j in zip(rr, cc))

    rows = list(range(cost.shape[0]))
    cols = list(range(cost.shape[1]))
    pairs = []
    while rows and cols:
        best = sub_total(rows, cols)
        placed = False
        for ci in range(len(cols)):
            rest_rows = rows[1:]
            rest_cols = cols[:ci] + cols[ci + 1 :]
            tail = sub_total(rest_rows, rest_cols) if rest_rows and rest_cols else 0.0
            if math.fsum([cost[rows[0], cols[ci]], tail]) <= best + 1e-6:
                pairs.append((rows[0], cols[ci]))
                rows.pop(0)
                cols.pop(ci)
                placed = True
                break
        if not placed:
            if len(rows) > len(cols):
                rows.pop(0)
            else:
                sub = cost[np.ix_(rows, cols)]
                rr, cc = scipy_assignment(sub)
                pairs.extend((rows[i], cols[j]) for i, j in zip(rr, cc))
                break
    pairs.sort()
    return tuple(pairs)


def _crowd_frame(rng, n_gt: int, n_det: int) -> np.ndarray:
    """Distances from shuffled noisy detections (plus clutter) to gt."""
    gt = rng.uniform(-40.0, 40.0, (n_gt, 2))
    det = gt[rng.permutation(n_gt)[: min(n_det, n_gt)]]
    det = det + rng.normal(0.0, 0.3, det.shape)
    det = np.vstack([det, rng.uniform(-60.0, 60.0, (n_det - len(det), 2))])
    det = det[rng.permutation(n_det)]
    return np.hypot(det[:, None, 0] - gt[None, :, 0], det[:, None, 1] - gt[None, :, 1])


class TestSolveAssignmentAgainstRefinement:
    """One solve plus a uniqueness proof must give the refinement's answer."""

    @staticmethod
    def _matrices(seed: int, kind: str, count: int):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            shape = tuple(int(v) for v in rng.integers(1, 8, size=2))
            if kind == "continuous":
                yield rng.uniform(0.0, 100.0, shape)
            elif kind == "association":
                # negative co-occurrence counts: integer costs, many exact ties
                yield -rng.integers(0, 4, shape).astype(float)
            elif kind == "rounded":
                yield np.round(rng.uniform(0.0, 3.0, shape), 1)
            elif kind == "sub_tolerance":
                # totals that differ by less than, about, or just over _TIE_TOL
                yield rng.integers(0, 3, shape) * 0.1 + rng.choice(
                    [0.0, 1e-7, 5e-7, 1e-6, 2e-6], shape
                )
            else:
                cost = np.round(rng.uniform(0.0, 5.0, shape), 1)
                cost[rng.random(shape) < 0.4] = _HUGE_COST
                yield cost

    @pytest.mark.parametrize(
        "kind", ["continuous", "association", "rounded", "sub_tolerance", "unmatchable"]
    )
    def test_small_matrices_match_refinement(self, kind):
        shapes = set()
        for cost in self._matrices(2024, kind, 600):
            assert solve_assignment(cost) == _refinement_oracle(cost), cost.tolist()
            shapes.add(cost.shape[0] < cost.shape[1])
        assert shapes == {True, False}  # both rectangular orientations

    @pytest.mark.parametrize(
        "shape", [(12, 9), (9, 12), (40, 41), (41, 40), (80, 81)]
    )
    def test_crowd_frames_match_refinement(self, shape):
        cost = _crowd_frame(np.random.default_rng(sum(shape)), shape[1], shape[0])
        assert solve_assignment(cost) == _refinement_oracle(cost)

    @pytest.mark.parametrize("shape", [(10, 12), (12, 10)])
    def test_tied_and_sentinel_frames_match_refinement(self, shape):
        rng = np.random.default_rng(7)
        tied = np.round(rng.uniform(0.0, 2.0, shape), 1)
        gated = tied.copy()
        gated[rng.random(shape) < 0.3] = _HUGE_COST
        for cost in (tied, gated, -rng.integers(0, 3, shape).astype(float)):
            assert solve_assignment(cost) == _refinement_oracle(cost)

    @staticmethod
    def _count_solves(monkeypatch) -> list:
        calls = []
        solve = matching.linear_sum_assignment

        def counted(cost):
            calls.append(np.shape(cost))
            return solve(cost)

        monkeypatch.setattr(matching, "linear_sum_assignment", counted)
        return calls

    def test_generic_frame_solves_once(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        cost = _crowd_frame(np.random.default_rng(41), 41, 40)
        assert cost.shape == (40, 41)
        solve_assignment(cost)
        assert calls == [(40, 41)]

    @pytest.mark.parametrize("shape", [(41, 40), (12, 30), (30, 12)])
    def test_padding_does_not_force_refinement(self, monkeypatch, shape):
        # the proof's dummy lines can swap among themselves at no cost; that
        # alone is no tie between real assignments
        calls = self._count_solves(monkeypatch)
        solve_assignment(np.random.default_rng(5).uniform(0.0, 50.0, shape))
        assert calls == [shape]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_small_frames_need_no_solve(self, monkeypatch, shape):
        calls = self._count_solves(monkeypatch)
        solve_assignment(np.random.default_rng(6).uniform(0.0, 50.0, shape))
        assert calls == []

    def test_unmatchable_cells_take_the_refinement(self, monkeypatch):
        # sums of 1e12 round in steps far above _TIE_TOL, so the refinement's
        # own arithmetic decides, whatever the single solve would say
        cost = np.random.default_rng(8).uniform(0.0, 50.0, (6, 6))
        cost[0, 1:] = _HUGE_COST
        calls = self._count_solves(monkeypatch)
        got = solve_assignment(cost)
        assert len(calls) > 1
        assert got == _refinement_oracle(cost)


class TestMatchFramesByTime:
    def test_identity_pairing(self, ctx):
        pts = line_points(ctx, t0=100.0, n=20)
        det = build_trajectory_set(pts, source="detection")
        gt = build_trajectory_set(pts, source="ground_truth")
        pairing = match_frames_by_time(det, gt, 0.0)
        assert len(pairing.pairs) == 20
        for df, gf in pairing.pairs:
            assert df.timestamp_s == gf.timestamp_s
        assert pairing.fp_only == () and pairing.n_dropped == 0

    def test_exact_latency_offset_gives_zero_gap(self, ctx):
        gt_pts = line_points(ctx, t0=100.0, n=20)
        det_pts = [
            dp(p.timestamp_s + 0.25, 0, 0, ctx) for p in gt_pts
        ]
        det = build_trajectory_set(det_pts, source="detection")
        gt = build_trajectory_set(gt_pts, source="ground_truth")
        pairing = match_frames_by_time(det, gt, 0.25)
        assert len(pairing.pairs) == 20
        for df, gf in pairing.pairs:
            assert df.timestamp_s - 0.25 == pytest.approx(gf.timestamp_s, abs=1e-9)

    def test_10hz_det_50hz_gt_gap_bound(self, ctx):
        gt_pts = line_points(ctx, t0=100.0, n=250, dt=0.02)
        det_pts = line_points(ctx, t0=100.6, n=30, dt=0.1)
        det = build_trajectory_set(det_pts, source="detection")
        gt = build_trajectory_set(gt_pts, source="ground_truth")
        pairing = match_frames_by_time(det, gt, 0.1)
        assert len(pairing.pairs) == 30
        gt_times = [f.timestamp_s for f in gt.frames]
        for df, gf in pairing.pairs:
            target = df.timestamp_s - 0.1
            assert abs(gf.timestamp_s - target) <= 0.01 + 1e-12
            # brute-force nearest gt frame
            nearest = min(gt_times, key=lambda t: abs(t - target))
            assert gf.timestamp_s == nearest

    def test_empty_gt_rejected(self, ctx):
        det = build_trajectory_set(line_points(ctx, n=3), source="detection")
        gt = build_trajectory_set([], source="ground_truth")
        with pytest.raises(EvalError):
            match_frames_by_time(det, gt, 0.0)

    def test_far_detection_frames_dropped(self, ctx):
        gt = build_trajectory_set(line_points(ctx, t0=100.0, n=10), source="ground_truth")
        det_pts = line_points(ctx, t0=100.0, n=10) + line_points(
            ctx, t0=500.0, n=3, object_id="ghost"
        )
        det = build_trajectory_set(det_pts, source="detection")
        pairing = match_frames_by_time(det, gt, 0.0)
        assert len(pairing.pairs) == 10
        assert pairing.n_dropped == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_latency_rejected(self, ctx, bad):
        ts = build_trajectory_set(line_points(ctx, n=5), source="ground_truth")
        with pytest.raises(ValueError, match="latency_s must be finite"):
            match_frames_by_time(ts, ts, bad)


def _aligned_by_loop(det, gt, latency_s, max_gap_s):
    """The frame-by-frame alignment loop that match_frames_by_time replaced,
    kept here as a reference: (pairs, fp_only, n_dropped)."""
    gt_times = np.array([f.timestamp_s for f in gt.frames])
    pairs, fp_only, n_dropped = [], [], 0
    for df in det.frames:
        target = df.timestamp_s - latency_s
        i = int(np.searchsorted(gt_times, target))
        if i > 0 and (
            i == len(gt_times) or target - gt_times[i - 1] <= gt_times[i] - target
        ):
            i -= 1
        gap = abs(gt_times[i] - target)
        if gap <= max_gap_s:
            pairs.append((df, gt.frames[i]))
        elif gap <= 2.0 * max_gap_s:
            fp_only.append(df)
        else:
            n_dropped += 1
    return tuple(pairs), tuple(fp_only), n_dropped


class TestAlignmentAgainstLoop:
    """match_frames_by_time must pair exactly as the per-frame loop did."""

    @staticmethod
    def _grids(seed: int, count: int):
        """(det, gt, latency, max_gap) on binary-exact time grids, so that
        midpoint ties and gaps of exactly max_gap and 2·max_gap occur."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            steps = rng.choice([0.125, 0.25, 0.5], size=int(rng.integers(1, 30)))
            gt_t = 1000.0 + np.concatenate([[0.0], np.cumsum(steps)])
            max_gap = float(rng.choice([0.0625, 0.125, 0.25]))
            latency = float(rng.choice([0.0, 0.25, -0.125, 0.3]))
            anchors = rng.choice(gt_t, size=int(rng.integers(0, 40)))
            offsets = rng.choice(
                [0.0, 0.0625, -0.0625, 0.125, -0.125, 0.25, -0.25, 0.5, 3.0, -3.0, 0.07],
                size=len(anchors),
            )
            det_t = sorted(set((anchors + offsets + latency).tolist()))
            det = from_frames([DataFrame(t, ()) for t in det_t], "detection")
            gt = from_frames([DataFrame(t, ()) for t in gt_t.tolist()], "ground_truth")
            yield det, gt, latency, max_gap

    def test_random_grids_match_loop(self):
        seen = {"tie": 0, "at_gap": 0, "at_2gap": 0, "dropped": 0, "empty": 0}
        for det, gt, latency, max_gap in self._grids(17, 400):
            got = match_frames_by_time(det, gt, latency, max_gap)
            want = _aligned_by_loop(det, gt, latency, max_gap)
            assert (got.pairs, got.fp_only, got.n_dropped) == want
            gt_t = [f.timestamp_s for f in gt.frames]
            for df in det.frames:
                target = df.timestamp_s - latency
                gaps = sorted(abs(t - target) for t in gt_t)
                seen["tie"] += len(gaps) > 1 and gaps[0] == gaps[1]
                seen["at_gap"] += gaps[0] == max_gap
                seen["at_2gap"] += gaps[0] == 2 * max_gap
            seen["dropped"] += got.n_dropped > 0
            seen["empty"] += not det.frames
        assert all(seen.values()), seen

    def test_default_gap_and_empty_detections_match_loop(self, ctx):
        for det, gt, latency, _ in self._grids(18, 100):
            got = match_frames_by_time(det, gt, latency)
            want = _aligned_by_loop(det, gt, latency, matching._default_max_gap(det, gt))
            assert (got.pairs, got.fp_only, got.n_dropped) == want
        gt = build_trajectory_set(line_points(ctx, n=5), source="ground_truth")
        empty = match_frames_by_time(from_frames([], "detection"), gt, 0.0)
        assert (empty.pairs, empty.fp_only, empty.n_dropped) == ((), (), 0)


def _per_pair_distances(det, gt, ctx) -> np.ndarray:
    """One pair's distance matrix, projected point by point."""
    dxy = np.array([project(p.position, ctx) for p in det])
    gxy = np.array([project(p.position, ctx) for p in gt])
    return np.hypot(dxy[:, 0:1] - gxy[None, :, 0], dxy[:, 1:2] - gxy[None, :, 1])


def _per_pair_point_match(det_frame, gt_frame, threshold_m, ctx) -> tuple:
    """The one-pair matcher that the batched point_match replaced, kept here
    as a reference: per-point projection and one distance matrix per pair
    with points on both sides, assigned by _refinement_oracle, which shares
    no code with the batch's small-frame rule. Returns the pair's TPs as
    (detection id, gt id, distance), in detection order."""
    det, gt = det_frame.points, gt_frame.points
    tp = []
    if det and gt:
        cost = _per_pair_distances(det, gt, ctx)
        for i, j in _refinement_oracle(cost):
            d = float(cost[i, j])
            if d <= threshold_m:
                tp.append((det[i].object_id, gt[j].object_id, d))
    return tuple(tp)


def _random_pairs(ctx, seed: int, kind: str, count: int):
    """Seeded aligned frame pairs of 0×0 up to 5×5 points, mostly at most 3×3.

    continuous: uniform positions; rounded: a coarse 0.1 m grid, so that
    totals tie; duplicate: a few shared positions; near_margin: gt on a
    0.5 m grid along one line and detections near the midpoints, nudged by
    about 5e-7 m, so that the best and second-best totals differ by about
    _TIE_TOL, give or take 2e-8.
    """
    rng = np.random.default_rng(seed)

    def position(side):
        if kind == "continuous":
            return rng.uniform(-6.0, 6.0, 2)
        if kind == "duplicate":
            return np.array([(0.0, 0.0), (1.2, 0.0), (0.6, 0.8)][rng.integers(3)])
        if kind == "near_margin":
            if side == "g":
                return np.array([rng.integers(-2, 3) * 0.5, 0.0])
            nudge = rng.choice([0.0, 5e-7 - 1e-8, 5e-7, 5e-7 + 1e-8, 1e-6])
            return np.array([rng.integers(-4, 5) * 0.25 + nudge, 0.0])
        return np.round(rng.uniform(-0.6, 0.6, 2), 1)

    def frame(t, n, side):
        return DataFrame(t, tuple(
            dp(t, *position(side), ctx, object_id=f"{side}{i}") for i in range(n)
        ))

    pairs = []
    for k in range(count):
        t = 1000.0 + 0.1 * k
        n_det, n_gt = rng.choice(6, size=2, p=[0.1, 0.2, 0.25, 0.25, 0.1, 0.1]).tolist()
        pairs.append((frame(t, n_det, "d"), frame(t, n_gt, "g")))
    return pairs


class TestBatchedPointMatch:
    """point_match over many pairs must give the per-pair matcher's results."""

    @staticmethod
    def _count_solves(monkeypatch) -> list:
        calls = []
        solve = matching.solve_assignment

        def counted(cost):
            calls.append(np.shape(cost))
            return solve(cost)

        monkeypatch.setattr(matching, "solve_assignment", counted)
        return calls

    @pytest.mark.parametrize(
        "seed, kind",
        enumerate(["continuous", "rounded", "duplicate", "near_margin"]),
    )
    def test_matches_per_pair_matcher(self, ctx, monkeypatch, seed, kind):
        pairs = _random_pairs(ctx, seed, kind, 700)
        # 50 m keeps every assigned pair; the last threshold equals one
        # pair's distance, which then counts as a TP
        tps = [d for frame in point_match(pairs, 50.0, ctx) for _, _, d in frame]
        edge = max(d for d in tps if 0 < d < 1.5)
        for threshold in (50.0, 1.5, edge):
            got = point_match(pairs, threshold, ctx)
            assert got == [_per_pair_point_match(df, gf, threshold, ctx) for df, gf in pairs]
        # both ways through the small frames: the batch, and solve_assignment
        # where only its own arithmetic can decide (near-ties)
        calls = self._count_solves(monkeypatch)
        point_match(pairs, 1.5, ctx)
        small = sum(
            1 for df, gf in pairs
            if df.points and gf.points and max(len(df.points), len(gf.points)) <= 3
        )
        small_calls = [shape for shape in calls if max(shape) <= 3]
        if kind == "continuous":
            assert small_calls == []
        else:
            assert 0 < len(small_calls) < small

    def test_only_frames_beyond_three_by_three_call_the_solver(self, ctx, monkeypatch):
        pairs = _random_pairs(ctx, 11, "continuous", 400)
        calls = self._count_solves(monkeypatch)
        point_match(pairs, 1.5, ctx)
        shapes = [(len(df.points), len(gf.points)) for df, gf in pairs]
        assert calls == [s for s in shapes if min(s) > 0 and max(s) > 3]
        assert any(min(s) > 0 and max(s) <= 3 for s in shapes)

    @staticmethod
    def _first_far_point(pairs, ctx) -> str | None:
        for df, gf in pairs:
            try:
                _per_pair_point_match(df, gf, 1.5, ctx)
            except ProjectionRangeError as exc:
                return str(exc)
        return None

    def test_names_the_same_far_point(self, ctx):
        rng = np.random.default_rng(5)
        raised = 0
        for _ in range(300):
            pairs = []
            for k in range(int(rng.integers(1, 6))):
                t = 1000.0 + 0.1 * k
                sides = []
                for prefix in "dg":
                    pts = tuple(
                        dp(t, float(rng.choice([1.0, 12_000.0, -15_000.0], p=[0.8, 0.1, 0.1])),
                           float(rng.uniform(-5.0, 5.0)), ctx, object_id=f"{prefix}{i}")
                        for i in range(int(rng.integers(0, 4)))
                    )
                    sides.append(DataFrame(t, pts))
                pairs.append(tuple(sides))
            want = self._first_far_point(pairs, ctx)
            if want is None:
                assert point_match(pairs, 1.5, ctx) == [
                    _per_pair_point_match(df, gf, 1.5, ctx) for df, gf in pairs
                ]
                continue
            with pytest.raises(ProjectionRangeError) as exc:
                point_match(pairs, 1.5, ctx)
            assert str(exc.value) == want
            raised += 1
        assert 0 < raised < 300

    def test_far_point_beside_an_empty_frame_is_not_checked(self, ctx):
        far = DataFrame(1.0, (dp(1.0, 20_000.0, 0.0, ctx, object_id="d0"),))
        near = DataFrame(1.0, (dp(1.0, 0.0, 0.0, ctx, object_id="g0"),))
        empty = DataFrame(1.0, ())
        det_far, gt_far, _ = point_match([(far, empty), (empty, far), (near, near)], 1.5, ctx)
        # no TPs, so the far detection is a FP and the far gt point a FN
        assert det_far == gt_far == ()
        assert len(far.points) - len(det_far) == 1
        with pytest.raises(ProjectionRangeError, match="flat-plane validity"):
            point_match([(far, near)], 1.5, ctx)

    def test_scoring_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique and np.median import numpy.ma on first use, about 40 ms
        # of a command that scores in about 100 ms
        src = Path(matching.__file__).resolve().parents[1]
        data = Path(__file__).parent / "data"
        scene = [str(data / "scene_det_a.csv"), "--gt", str(data / "scene_gt.csv")]
        code = (
            "import sys; from roadside_eval.cli import main; "
            f"main(['eval', '--det', *{scene!r}, '--output-dir', {str(tmp_path)!r}]); "
            f"main(['sweep', '--det', *{scene!r}, '--thresholds', '0.5,1.5', "
            f"'--category', 'vehicle', '--output-dir', {str(tmp_path)!r}]); "
            "print('numpy.ma' in sys.modules, file=sys.stderr)"
        )
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr.splitlines()[-1] == "False"


class TestPointMatch:
    def test_both_empty(self, ctx):
        assert point_match([(DataFrame(1.0, ()), DataFrame(1.0, ()))], 1.5, ctx) == [()]

    def test_exact_overlap_single(self, ctx):
        det = DataFrame(1.0, (dp(1.0, 3.0, 4.0, ctx, object_id="d1"),))
        gt = DataFrame(1.0, (dp(1.0, 3.0, 4.0, ctx, object_id="g1"),))
        [((det_id, gt_id, d),)] = point_match([(det, gt)], 1.5, ctx)
        assert (det_id, gt_id) == ("d1", "g1")
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_optimal_beats_crossed_pairing(self, ctx):
        gt = DataFrame(1.0, (
            dp(1.0, 0.0, 0, ctx, object_id="g1"),
            dp(1.0, 2.0, 0, ctx, object_id="g2"),
        ))
        det = DataFrame(1.0, (
            dp(1.0, 0.4, 0, ctx, object_id="d1"),
            dp(1.0, 1.6, 0, ctx, object_id="d2"),
        ))
        [res] = point_match([(det, gt)], 1.5, ctx)
        # TPs in detection order; no FP (2 detections − 2 TPs), no FN (2 gt − 2)
        assert [(d, g) for d, g, _ in res] == [("d1", "g1"), ("d2", "g2")]
        total = sum(d for _, _, d in res)
        assert total == pytest.approx(0.8, abs=1e-6)  # crossed pairing costs 3.2

    def test_over_threshold_counts_both_sides(self, ctx):
        det = DataFrame(1.0, (dp(1.0, 10.0, 0, ctx, object_id="d1"),))
        gt = DataFrame(1.0, (dp(1.0, 0.0, 0, ctx, object_id="g1"),))
        [res] = point_match([(det, gt)], 1.5, ctx)
        # no TP: FP = 1 detection − 0 TPs, FN = 1 gt − 0 TPs
        assert res == ()

    def test_category_gating(self, ctx):
        # matching scores one category per call; metrics splits the sets first
        det = DataFrame(1.0, (dp(1.0, 0, 0, ctx, category="pedestrian", object_id="d1"),))
        gt = DataFrame(1.0, (dp(1.0, 0, 0, ctx, category="vehicle", object_id="g1"),))
        named = r"\['pedestrian', 'vehicle'\]"
        with pytest.raises(ValueError, match=named):
            point_match([(det, gt)], 1.5, ctx)
        with pytest.raises(ValueError, match=named):
            association_match(
                from_frames([det], "detection"), from_frames([gt], "ground_truth"), 0.0, 1.5, ctx
            )
        # a frame with an empty side is never matched, so its category is free
        empty = DataFrame(1.0, ())
        assert point_match([(det, empty), (empty, gt)], 1.5, ctx) == [(), ()]

    def test_count_identities_random_frames(self, ctx):
        rng = random.Random(5)
        for _ in range(50):
            n_det, n_gt = rng.randint(0, 6), rng.randint(0, 6)
            det = DataFrame(1.0, tuple(
                dp(1.0, rng.uniform(-5, 5), rng.uniform(-5, 5), ctx,
                   object_id=f"d{i}")
                for i in range(n_det)
            ))
            gt = DataFrame(1.0, tuple(
                dp(1.0, rng.uniform(-5, 5), rng.uniform(-5, 5), ctx,
                   object_id=f"g{i}")
                for i in range(n_gt)
            ))
            [res] = point_match([(det, gt)], 1.5, ctx)
            # one-to-one: FP = n_det − TP and FN = n_gt − TP are never negative
            assert len({d for d, _, _ in res}) == len(res) <= n_det
            assert len({g for _, g, _ in res}) == len(res) <= n_gt

    def test_translation_invariance(self, ctx):
        rng = random.Random(11)
        det_xy = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
        gt_xy = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]

        def run(shift: float) -> tuple:
            det = DataFrame(1.0, tuple(
                dp(1.0, x + shift, y + shift, ctx, object_id=f"d{i}")
                for i, (x, y) in enumerate(det_xy)
            ))
            gt = DataFrame(1.0, tuple(
                dp(1.0, x + shift, y + shift, ctx, object_id=f"g{i}")
                for i, (x, y) in enumerate(gt_xy)
            ))
            [res] = point_match([(det, gt)], 1.5, ctx)
            # the TP id pairs fix the FPs and FNs: every other point
            return sorted((d, g) for d, g, _ in res)

        assert run(0.0) == run(40.0)


class TestIdSwitches:
    @staticmethod
    def _frames(seq_by_gt: dict[str, list[str | None]]) -> list[tuple]:
        """point_match's entries for frames where gt object g matches
        detection seq_by_gt[g][k] in frame k, or nothing where that is None."""
        out = []
        n = max(len(v) for v in seq_by_gt.values())
        for k in range(n):
            tp = []
            for gid, seq in seq_by_gt.items():
                det_id = seq[k] if k < len(seq) else None
                if det_id is None:
                    continue
                tp.append((det_id, gid, 0.0))
            out.append(tuple(tp))
        return out

    def test_constant_id_no_switch(self):
        frames = self._frames({"g": ["A", "A", "A", "A"]})
        assert count_id_switches(frames) == 0

    def test_single_change(self):
        frames = self._frames({"g": ["A", "A", "B", "B"]})
        assert count_id_switches(frames) == 1

    def test_reacquisition_counts_again(self):
        frames = self._frames({"g": ["A", "B", "A"]})
        assert count_id_switches(frames) == 2

    def test_gap_does_not_count(self):
        frames = self._frames({"g": ["A", None, "A"]})
        assert count_id_switches(frames) == 0

    def test_independent_objects_sum(self):
        frames = self._frames({"g1": ["A", "B", "B"], "g2": ["C", "C", "D"]})
        assert count_id_switches(frames) == 2


class TestAssociationMatch:
    def test_identical_single_trajectory(self, ctx):
        pts = line_points(ctx, n=25)
        det = build_trajectory_set(pts, source="detection")
        gt = build_trajectory_set(pts, source="ground_truth")
        res = association_match(det, gt, 0.0, 1.5, ctx)
        assert res.tpa == 25 and res.fpa == 0 and res.fna == 0

    def test_empty_detection_side(self, ctx):
        det = build_trajectory_set([], source="detection")
        gt = build_trajectory_set(line_points(ctx, n=10), source="ground_truth")
        res = association_match(det, gt, 0.0, 1.5, ctx)
        assert res.tpa == 0 and res.fpa == 0 and res.fna == 10

    def test_swapped_second_half(self, ctx):
        # two parallel lanes; detection ids swap at half time
        n, half = 20, 10
        gt_pts = (
            line_points(ctx, n=n, y=0.0, object_id="g1")
            + line_points(ctx, n=n, y=8.0, object_id="g2")
        )
        det_pts = []
        for k in range(n):
            a, b = ("d1", "d2") if k < half else ("d2", "d1")
            t = 1000.0 + k * 0.1
            det_pts.append(dp(t, 10.0 * k * 0.1, 0.0, ctx, object_id=a))
            det_pts.append(dp(t, 10.0 * k * 0.1, 8.0, ctx, object_id=b))
        det = build_trajectory_set(det_pts, source="detection")
        gt = build_trajectory_set(gt_pts, source="ground_truth")
        res = association_match(det, gt, 0.0, 1.5, ctx)
        # each det id overlaps each gt trajectory for exactly half the run;
        # the fixed association keeps the first-half pairing, so the second
        # half of every trajectory is unmatched on both sides
        assert res.tpa == 2 * half
        assert res.fpa == 2 * (n - half)
        assert res.fna == 2 * (n - half)

    def test_association_never_beats_per_frame_matching(self, ctx):
        rng = random.Random(21)
        gt_pts = (
            line_points(ctx, n=15, y=0.0, object_id="g1")
            + line_points(ctx, n=15, y=3.0, object_id="g2")
        )
        det_pts = []
        for p in gt_pts:
            if rng.random() < 0.1:
                continue
            det_pts.append(dp(
                p.timestamp_s,
                10.0 * (p.timestamp_s - 1000.0) + rng.gauss(0, 0.2),
                (0.0 if p.object_id == "g1" else 3.0) + rng.gauss(0, 0.2),
                ctx,
                object_id="d1" if p.object_id == "g1" else "d2",
            ))
        det = build_trajectory_set(det_pts, source="detection")
        gt = build_trajectory_set(gt_pts, source="ground_truth")
        pairing = match_frames_by_time(det, gt, 0.0)
        per_frame_tp = sum(map(len, point_match(pairing.pairs, 1.5, ctx)))
        res = association_match(det, gt, 0.0, 1.5, ctx)
        assert res.tpa <= per_frame_tp

    def test_input_order_invariance(self, ctx):
        gt_pts = (
            line_points(ctx, n=10, y=0.0, object_id="g1")
            + line_points(ctx, n=10, y=6.0, object_id="g2")
        )
        det_pts = (
            line_points(ctx, n=10, y=0.1, object_id="d9")
            + line_points(ctx, n=10, y=6.1, object_id="d2")
        )
        det_fwd = build_trajectory_set(det_pts, source="detection")
        det_rev = build_trajectory_set(list(reversed(det_pts)), source="detection")
        gt = build_trajectory_set(gt_pts, source="ground_truth")
        a = association_match(det_fwd, gt, 0.0, 1.5, ctx)
        b = association_match(det_rev, gt, 0.0, 1.5, ctx)
        assert (a.tpa, a.fpa, a.fna) == (b.tpa, b.fpa, b.fna)

    @staticmethod
    def _by_pairs(det, gt, threshold_m, ctx):
        """association_match as it was before the batched pass: per-point
        projection and one distance matrix per aligned pair. Returns the
        chosen id pairs, then tpa, fpa and fna."""
        pairing = match_frames_by_time(det, gt, 0.0)
        co_counts = {}
        for df, gf in pairing.pairs:
            if not df.points or not gf.points:
                continue
            dist = _per_pair_distances(df.points, gf.points, ctx)
            for i, j in zip(*np.nonzero(dist <= threshold_m)):
                key = (df.points[i].object_id, gf.points[j].object_id)
                co_counts[key] = co_counts.get(key, 0) + 1
        det_total, gt_total = matching.point_totals(pairing, gt)
        det_ids = sorted({d for d, _ in co_counts})
        gt_ids = sorted({g for _, g in co_counts})
        neg = np.zeros((len(det_ids), len(gt_ids)))
        for (d, g), n in co_counts.items():
            neg[det_ids.index(d), gt_ids.index(g)] = -n
        chosen = [
            (det_ids[i], gt_ids[j])
            for i, j in (solve_assignment(neg) if neg.size else ())
            if co_counts.get((det_ids[i], gt_ids[j]), 0) > 0
        ]
        tpa = sum(co_counts[key] for key in chosen)
        return tuple(sorted(chosen)), tpa, det_total - tpa, gt_total - tpa

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_pair_counts(self, ctx, seed):
        # frames of 0 to 5 points a side, both categories, ids from small
        # pools so that co-occurrences accumulate across frames; each
        # category is matched on its own, after filter_category, as metrics
        # does
        rng = np.random.default_rng(seed)
        det_frames, gt_frames = [], []
        for k in range(80):
            t = 1000.0 + 0.1 * k
            for frames, prefix in ((det_frames, "d"), (gt_frames, "g")):
                ids = rng.choice(6, size=int(rng.integers(0, 6)), replace=False)
                frames.append(DataFrame(t, tuple(
                    dp(t, *rng.uniform(-3.0, 3.0, 2), ctx,
                       category=str(rng.choice(["vehicle", "pedestrian"], p=[0.8, 0.2])),
                       object_id=f"{prefix}{i}")
                    for i in sorted(ids.tolist())
                )))
        det_all = from_frames(det_frames, "detection")
        gt_all = from_frames(gt_frames, "ground_truth")
        for category in ("vehicle", "pedestrian"):
            det = filter_category(det_all, category)
            gt = filter_category(gt_all, category)
            # at a threshold equal to the farthest hit of a chosen id pair in
            # frames of at most 3×3, that hit still counts
            small = [
                (df, gf) for df, gf in zip(det.frames, gt.frames)
                if max(len(df.points), len(gf.points)) <= 3
            ]

            def hits(d_id, g_id):
                return [
                    float(_per_pair_distances((p,), (q,), ctx)[0, 0])
                    for df, gf in small
                    for p in df.points if p.object_id == d_id
                    for q in gf.points if q.object_id == g_id
                ]

            chosen = self._by_pairs(det, gt, 1.5, ctx)[0]
            edge = max(d for pair in chosen for d in hits(*pair) if d <= 1.5)
            for threshold in (edge, 0.5, 1.5, 1e13):
                got = association_match(det, gt, 0.0, threshold, ctx)
                want = self._by_pairs(det, gt, threshold, ctx)
                assert (got.tpa, got.fpa, got.fna) == want[1:]
