"""Assignment solver, frame alignment, point matching, and id bookkeeping."""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from itertools import groupby, permutations
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_assignment

from roadside_eval import matching
from roadside_eval.core import (
    DataFrame,
    DataPoint,
    GeoPoint,
    build_trajectory_set,
    filter_category,
    from_frames,
    project,
    string_codes,
)
from roadside_eval.errors import EvalError, ProjectionRangeError
from roadside_eval.ingest import read_points
from roadside_eval.matching import (
    Matches,
    association_match,
    count_id_switches,
    match_frames_by_time,
    point_match,
    solve_assignment,
)
from roadside_eval.metrics import compute_report

from conftest import brute_force_assignment, dp, grouped, line_points, paired

# A cost far above any sum of real planar distances, as a caller might give
# a forbidden pair: the solver must still take matrices that hold it.
_HUGE_COST = 1e12

# Lines and frames of at most 3×3: the shapes solve_assignment's
# certificate settles by listing assignments, or lines by their minima.
_SMALL_SHAPES = [(1, 1), (1, 6), (6, 1), (2, 2), (3, 2), (2, 3), (3, 3)]


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

    @pytest.mark.parametrize("shape, value", [((2, 2), 1e308), ((3, 2), 9e307)])
    def test_overflowing_totals_rejected(self, shape, value):
        # finite costs whose two-pair totals overflow
        with pytest.raises(ValueError, match="overflow"):
            solve_assignment(np.full(shape, value))

    def test_line_frame_of_huge_costs_is_solved(self):
        # one pair per assignment: its total is one finite cost
        assert solve_assignment(np.full((2, 1), 1e308)) == ((0, 0),)


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

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_side_gives_no_pairs(self, shape):
        rows, cols, u, v = matching.linear_sum_assignment(np.zeros(shape))
        assert rows.dtype == cols.dtype == np.intp
        assert rows.shape == cols.shape == (0,)
        assert (u.shape, v.shape) == ((shape[0],), (shape[1],))

    @pytest.mark.parametrize(
        "cost",
        [
            [[math.nan, math.nan], [math.nan, math.nan]],
            [[math.inf, math.inf], [math.inf, math.inf]],
            [[1.0, math.nan], [math.nan, math.nan]],
            [[-math.inf, 0.0], [0.0, -math.inf]],
        ],
    )
    def test_non_finite_cost_raises(self, cost):
        with pytest.raises(ValueError, match="non-finite"):
            matching.linear_sum_assignment(np.array(cost))

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

    @staticmethod
    def _count_refinements(monkeypatch) -> list:
        calls = []
        refine = matching._refine_lexicographic

        def counted(cost):
            calls.append(np.shape(cost))
            return refine(cost)

        monkeypatch.setattr(matching, "_refine_lexicographic", counted)
        return calls

    @staticmethod
    def _contested(cost: np.ndarray) -> bool:
        """Whether two lines (of the side with fewer) share a minimum column."""
        lines = cost.T if cost.shape[0] > cost.shape[1] else cost
        best = lines.argmin(axis=1)
        return len(set(best.tolist())) < len(best)

    def _assert_solves(self, monkeypatch, frames) -> set:
        """Each frame takes no solve when its row minima are distinct and
        exactly one when a column is contested, and none is refined; returns
        the solve counts seen."""
        solves = self._count_solves(monkeypatch)
        refined = self._count_refinements(monkeypatch)
        seen = set()
        for cost in frames:
            solves.clear()
            assert solve_assignment(cost) == _refinement_oracle(cost)
            assert solves == ([cost.shape] if self._contested(cost) else [])
            seen.add(len(solves))
        assert refined == []
        return seen

    def test_generic_frame_solves_once(self, monkeypatch):
        # crowd frames settle by their row minima, or else by one solve
        frames = [
            _crowd_frame(np.random.default_rng(seed), 41, 40 + seed % 3) for seed in range(20)
        ]
        assert self._assert_solves(monkeypatch, frames) == {0, 1}

    @pytest.mark.parametrize("shape", [(41, 40), (12, 30), (30, 12)])
    def test_padding_does_not_force_refinement(self, monkeypatch, shape):
        # the proof's dummy lines can swap among themselves at no cost; that
        # alone is no tie between real assignments
        rng = np.random.default_rng(5)
        frames = [rng.uniform(0.0, 50.0, shape) for _ in range(20)]
        assert 1 in self._assert_solves(monkeypatch, frames)

    @staticmethod
    def _clear(cost: np.ndarray) -> bool:
        """Whether the best assignment beats every other by more than the
        certificate's margin, _TIE_TOL + 2 · rounding, by listing every
        assignment with exact sums."""
        lines = cost.T if cost.shape[0] > cost.shape[1] else cost
        totals = sorted(
            math.fsum(lines[i, j] for i, j in enumerate(p))
            for p in permutations(range(lines.shape[1]), lines.shape[0])
        )
        rounding = matching._ROUNDING_PER_TERM * max(cost.shape) ** 2 * np.abs(cost).max()
        return len(totals) == 1 or totals[1] - totals[0] > matching._TIE_TOL + 2 * rounding

    @pytest.mark.parametrize("shape", _SMALL_SHAPES)
    def test_small_frames_solve_once(self, monkeypatch, shape):
        # a small frame takes no solve unless its best assignment is
        # near-tied; then it takes the proof's one solve first (and the
        # refinement's on an exact tie). Costs rounded to 0.5 tie often.
        rng = np.random.default_rng(5)
        frames = [rng.uniform(0.0, 50.0, shape) for _ in range(20)]
        frames += [np.round(rng.uniform(0.0, 4.0, shape)) / 2 for _ in range(20)]
        solves = self._count_solves(monkeypatch)
        settled = []
        for cost in frames:
            solves.clear()
            assert solve_assignment(cost) == _refinement_oracle(cost)
            assert solves[:1] in ([], [cost.shape])
            settled.append(not solves)
        assert settled == [self._clear(cost) for cost in frames]
        assert all(settled[:20]) and (all(settled) if shape == (1, 1) else not all(settled))

    def test_tight_cycle_takes_the_refinement(self, monkeypatch):
        # both rows prefer column 0 and the two assignments tie: the tight
        # move graph holds the swap's cycle, and the refinement decides
        cost = np.array([[1.0, 2.0, 9.0], [1.0, 2.0, 9.0], [9.0, 9.0, 0.0]])
        solves = self._count_solves(monkeypatch)
        refined = self._count_refinements(monkeypatch)
        assert solve_assignment(cost) == _refinement_oracle(cost) == ((0, 0), (1, 1), (2, 2))
        assert refined == [(3, 3)] and len(solves) > 1

    def test_acyclic_tight_graph_settles_with_one_solve(self, monkeypatch):
        # both rows prefer column 0, so their minima settle nothing, and a
        # frame 4 wide lists no assignments; row 0 moving onto column 0 is
        # a tight move (reduced weight 0), but no tight move leads back, so
        # the proof settles the frame with one solve
        cost = np.array([[0.0, 1.0, 7.0, 7.0], [0.0, 5.0, 7.0, 7.0]])
        rows, cols, u, v = matching.linear_sum_assignment(cost)
        reduced = cost - u[:, None] - v
        reduced[rows, cols] = np.inf
        assert (reduced <= 1e-6).any()
        solves = self._count_solves(monkeypatch)
        refined = self._count_refinements(monkeypatch)
        assert solve_assignment(cost) == _refinement_oracle(cost) == ((0, 1), (1, 0))
        assert solves == [(2, 4)] and refined == []

    @given(data=st.data())
    def test_row_minima_at_the_margin_match_refinement(self, data):
        # runner-up gaps drawn about the certificate's margin, _TIE_TOL +
        # 2 · rounding, with max|cost| pinned at 10 so that margin is known;
        # optionally two lines share a minimum column; either orientation
        n_lines = data.draw(st.integers(1, 4))
        width = data.draw(st.integers(max(3, n_lines), 6))
        rounding = matching._ROUNDING_PER_TERM * width**2 * 10.0
        margin = matching._TIE_TOL + 2 * rounding
        cost = np.full((n_lines, width), 10.0)
        columns = data.draw(st.permutations(range(width)))
        if n_lines > 1 and data.draw(st.booleans()):
            columns[1] = columns[0]
        for i in range(n_lines):
            low = data.draw(st.floats(0.0, 5.0))
            factor = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.9, 1.1))
            second = data.draw(st.sampled_from([j for j in range(width) if j != columns[i]]))
            cost[i, second] = low + factor * margin
            cost[i, columns[i]] = low
        if data.draw(st.booleans()):
            cost = cost.T
        assert solve_assignment(cost) == _refinement_oracle(cost)

    @staticmethod
    def _certify(stack: np.ndarray) -> tuple[np.ndarray, ...]:
        """solve_assignment's certificate on a stack, at its rounding term."""
        top = np.abs(stack).max(axis=(1, 2))
        rounding = matching._ROUNDING_PER_TERM * max(stack.shape[1:]) ** 2 * top
        return matching._certify(stack, rounding)

    @pytest.mark.parametrize("shape", _SMALL_SHAPES)
    def test_small_frames_need_no_solve(self, monkeypatch, shape):
        # the certificate settles a stack of them as the refinement would;
        # a 1×1 frame's missing runner-up counts as +inf
        stack = np.random.default_rng(6).uniform(0.0, 50.0, (4, *shape))
        calls = self._count_solves(monkeypatch)
        ok, rows, cols = self._certify(stack)
        assert calls == [] and ok.all()
        for cost, r, c in zip(stack, rows.tolist(), cols.tolist()):
            assert tuple(zip(r, c)) == _refinement_oracle(cost)

    def test_tied_lines_leave_the_kernel(self, ctx):
        # a near-tied line is not settled by the certificate, and
        # solve_assignment's refinement pairs the first tied entry
        wide = np.array([[[2.0, 1.0, 1.0]], [[3.0, 0.5, 2.0]]])
        for stack in (wide, wide.transpose(0, 2, 1)):
            ok, rows, cols = self._certify(stack)
            assert ok.tolist() == [False, True]
            assert tuple(zip(rows[1].tolist(), cols[1].tolist())) == _refinement_oracle(stack[1])
            assert solve_assignment(stack[0]) == _refinement_oracle(stack[0])
        t = 1000.0
        one = DataFrame(t, (dp(t, 0.0, 0.0, ctx, object_id="a"),))
        three = DataFrame(t, tuple(
            dp(t, x, 0.0, ctx, object_id=f"b{i}") for i, x in enumerate([2.0, -1.0, 1.0])
        ))
        pairs = [(one, three), (three, one)]
        got = _per_pair(point_match(paired(pairs), 1.5, ctx), len(pairs))
        assert got == [_per_pair_point_match(df, gf, 1.5, ctx) for df, gf in pairs]
        assert [tp[0][:2] for tp in got] == [("a", "b1"), ("b1", "a")]

    @staticmethod
    def _stack_frame(rng, family: str, shape: tuple[int, int]) -> np.ndarray:
        """One frame of the stack test's cost families."""
        if family == "uniform":
            return rng.uniform(0.0, 50.0, shape)
        if family == "rounded":  # exact ties
            return np.round(rng.uniform(0.0, 6.0, shape)) / 2
        if family == "huge":  # coarse sums force the refinement
            cost = rng.uniform(0.0, 50.0, shape)
            cost[tuple(rng.integers(0, shape))] = _HUGE_COST
            return cost
        # runner-up gaps about the certificate's margin, as in the test above
        tall = shape[0] > shape[1]
        n_lines, width = sorted(shape)
        margin = matching._TIE_TOL + 2 * matching._ROUNDING_PER_TERM * width**2 * 10.0
        cost = np.full((n_lines, width), 10.0)
        columns = rng.permutation(width)
        if n_lines > 1 and rng.random() < 0.5:
            columns[1] = columns[0]
        for i in range(n_lines):
            low = rng.uniform(0.0, 5.0)
            factor = rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.9, 1.1)])
            if width > 1:
                second = rng.choice([j for j in range(width) if j != columns[i]])
                cost[i, second] = low + factor * margin
            cost[i, columns[i]] = low
        return cost.T if tall else cost

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_frames=st.integers(1, 6),
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        family=st.sampled_from(["uniform", "rounded", "near_margin", "huge"]),
    )
    def test_stack_matches_each_frame(self, seed, n_frames, shape, family):
        rng = np.random.default_rng(seed)
        stack = np.stack([self._stack_frame(rng, family, shape) for _ in range(n_frames)])
        rows, cols = solve_assignment(stack)
        assert rows.shape == cols.shape == (n_frames, min(shape))
        for cost, r, c in zip(stack, rows.tolist(), cols.tolist()):
            assert tuple(zip(r, c)) == solve_assignment(cost) == _refinement_oracle(cost)

    def test_stack_edge_cases(self):
        for shape in [(0, 3, 2), (4, 0, 3), (4, 3, 0)]:
            rows, cols = solve_assignment(np.zeros(shape))
            assert rows.shape == cols.shape == (shape[0], min(shape[1:])) and rows.size == 0
        stack = np.ones((3, 2, 2))
        stack[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_assignment(stack)
        with pytest.raises(ValueError, match="shape"):
            solve_assignment(np.ones((2, 2, 2, 2)))

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
        det = grouped(pts, source="detection")
        gt = grouped(pts, source="ground_truth")
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
        det = grouped(det_pts, source="detection")
        gt = grouped(gt_pts, source="ground_truth")
        pairing = match_frames_by_time(det, gt, 0.25)
        assert len(pairing.pairs) == 20
        for df, gf in pairing.pairs:
            assert df.timestamp_s - 0.25 == pytest.approx(gf.timestamp_s, abs=1e-9)

    def test_10hz_det_50hz_gt_gap_bound(self, ctx):
        gt_pts = line_points(ctx, t0=100.0, n=250, dt=0.02)
        det_pts = line_points(ctx, t0=100.6, n=30, dt=0.1)
        det = grouped(det_pts, source="detection")
        gt = grouped(gt_pts, source="ground_truth")
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
        det = grouped(line_points(ctx, n=3), source="detection")
        gt = grouped([], source="ground_truth")
        with pytest.raises(EvalError):
            match_frames_by_time(det, gt, 0.0)

    def test_far_detection_frames_dropped(self, ctx):
        gt = grouped(line_points(ctx, t0=100.0, n=10), source="ground_truth")
        det_pts = line_points(ctx, t0=100.0, n=10) + line_points(
            ctx, t0=500.0, n=3, object_id="ghost"
        )
        det = grouped(det_pts, source="detection")
        pairing = match_frames_by_time(det, gt, 0.0)
        assert len(pairing.pairs) == 10
        assert pairing.n_dropped == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_latency_rejected(self, ctx, bad):
        ts = grouped(line_points(ctx, n=5), source="ground_truth")
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


def _default_gap(det, gt) -> float:
    """The documented default max_gap: half the median detection frame
    interval, else half the median gt one, else 0.5 s."""
    for ts in (det, gt):
        times = [f.timestamp_s for f in ts.frames]
        if len(times) >= 2:
            return 0.5 * statistics.median(b - a for a, b in zip(times, times[1:]))
    return 0.5


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
            want = _aligned_by_loop(det, gt, latency, _default_gap(det, gt))
            assert (got.pairs, got.fp_only, got.n_dropped) == want
        gt = grouped(line_points(ctx, n=5), source="ground_truth")
        empty = match_frames_by_time(from_frames([], "detection"), gt, 0.0)
        assert (empty.pairs, empty.fp_only, empty.n_dropped) == ((), (), 0)


def _side_frames(prefix: str):
    """Frames on a 0.125 s grid of up to four points, each a vehicle or a
    pedestrian: empty frames, frames of one category and mixed ones."""
    point = st.tuples(st.integers(0, 5), st.sampled_from(["vehicle", "pedestrian"]))
    frame = st.tuples(st.integers(0, 16), st.lists(point, max_size=4, unique_by=itemgetter(0)))

    def build(frames):
        return from_frames([
            DataFrame(1000.0 + 0.125 * tick, tuple(
                DataPoint(1000.0 + 0.125 * tick, GeoPoint(42.3 + 1e-5 * i, -83.7), cat, f"{prefix}{i}")
                for i, cat in sorted(points)
            ))
            for tick, points in frames
        ], "detection" if prefix == "d" else "ground_truth")

    return st.lists(frame, max_size=10, unique_by=itemgetter(0)).map(build)


class TestColumnarSets:
    """filter_category and match_frames_by_time read a set's columns; their
    frames must be what the per-frame loops give."""

    @given(det=_side_frames("d"), gt=_side_frames("g"),
           category=st.sampled_from(["vehicle", "pedestrian", "cyclist"]),
           latency=st.sampled_from([0.0, 0.125, -0.25]),
           max_gap=st.sampled_from([None, 0.0625, 0.125]))
    def test_filter_and_alignment_match_the_loops(self, det, gt, category, latency, max_gap):
        # each side as explicit frames, and grouped from the same points
        regrouped = (grouped(ts.all_points(), ts.source) for ts in (det, gt))
        for det, gt in ((det, gt), tuple(regrouped)):
            kept = {}
            for ts in (det, gt):
                got = filter_category(ts, category)
                if ts.categories <= {category}:
                    assert got is ts
                assert filter_category(got, category) is got
                # the alignment reads the filtered sets before their frames exist
                kept[ts.source] = got
            det_c, gt_c = kept["detection"], kept["ground_truth"]
            if gt_c.frames:
                got = match_frames_by_time(det_c, gt_c, latency, max_gap)
                gap = _default_gap(det_c, gt_c) if max_gap is None else max_gap
                want = _aligned_by_loop(det_c, gt_c, latency, gap)
                assert (got.pairs, got.fp_only, got.n_dropped) == want
            for ts, got in ((det, det_c), (gt, gt_c)):
                want = tuple(
                    DataFrame(f.timestamp_s, tuple([p for p in f.points if p.category == category]))
                    for f in ts.frames
                )
                assert got.frames == want


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


def _per_pair(m: Matches, n_pairs: int) -> list[tuple]:
    """point_match's table grouped by frame pair, in the per-pair matcher's
    shape: each pair's TPs as (detection id, gt id, distance), in order."""
    out = [[] for _ in range(n_pairs)]
    for k, d, g, dist in zip(m.pair.tolist(), m.det.tolist(), m.gt.tolist(), m.dist.tolist()):
        out[k].append((m.det_ids[d], m.gt_ids[g], dist))
    return list(map(tuple, out))


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
    def _record(monkeypatch, *names) -> list:
        """Record the cost of every call to the named matching functions."""
        calls = []
        for name in names:
            def recorded(cost, *args, fn=getattr(matching, name)):
                calls.append(np.asarray(cost))
                return fn(cost, *args)

            monkeypatch.setattr(matching, name, recorded)
        return calls

    @pytest.mark.parametrize(
        "seed, kind",
        enumerate(["continuous", "rounded", "duplicate", "near_margin"]),
    )
    def test_matches_per_pair_matcher(self, ctx, monkeypatch, seed, kind):
        pairs = _random_pairs(ctx, seed, kind, 700)
        # some shape beyond 3×3 recurs, so a stack of several large frames
        # meets the reference too
        shapes = Counter((len(df.points), len(gf.points)) for df, gf in pairs)
        assert any(n > 1 for s, n in shapes.items() if min(s) > 0 and max(s) > 3)
        # 50 m keeps every assigned pair; the last threshold equals one
        # pair's distance, which then counts as a TP
        tps = point_match(paired(pairs), 50.0, ctx).dist.tolist()
        edge = max(d for d in tps if 0 < d < 1.5)
        for threshold in (50.0, 1.5, edge):
            got = _per_pair(point_match(paired(pairs), threshold, ctx), len(pairs))
            assert got == [_per_pair_point_match(df, gf, threshold, ctx) for df, gf in pairs]
        # both ways through the small frames: the certificate, and the
        # proof or the refinement where only their arithmetic can decide
        # (near-ties); a frame that fails the proof reaches both, in turn
        calls = self._record(monkeypatch, "_unique_optimum", "_refine_lexicographic")
        point_match(paired(pairs), 1.5, ctx)
        small = sum(
            1 for df, gf in pairs
            if df.points and gf.points and max(len(df.points), len(gf.points)) <= 3
        )
        frames = [key for key, _ in groupby(calls, key=lambda c: (c.shape, c.tobytes()))]
        small_reached = [shape for shape, _ in frames if max(shape) <= 3]
        if kind == "continuous":
            assert small_reached == []
        else:
            assert 0 < len(small_reached) < small

    def test_lines_and_frames_up_to_3x3_stay_in_the_kernel(self, ctx, monkeypatch):
        # point_match hands solve_assignment each shape's stack in one call;
        # continuous costs leave no line or frame up to 3×3 near-tied, so a
        # solve is only for a larger frame whose line minima share a column
        pairs = _random_pairs(ctx, 11, "continuous", 400)
        stacks = self._record(monkeypatch, "solve_assignment")
        solves = self._record(monkeypatch, "linear_sum_assignment")
        point_match(paired(pairs), 1.5, ctx)
        shapes = [(len(df.points), len(gf.points)) for df, gf in pairs]
        live = sorted({s for s in shapes if min(s) > 0})
        assert [c.shape for c in stacks] == [(shapes.count(s), *s) for s in live]
        left = [
            s for shape in live for s, (df, gf) in zip(shapes, pairs)
            if s == shape and min(s) > 1 and max(s) > 3
            and TestSolveAssignmentAgainstRefinement._contested(
                _per_pair_distances(df.points, gf.points, ctx))
        ]
        assert [c.shape for c in solves] == left and left
        assert any(min(s) > 0 and max(s) <= 3 for s in shapes)
        assert any(min(s) == 1 and max(s) > 3 for s in shapes)

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
                assert _per_pair(point_match(paired(pairs), 1.5, ctx), len(pairs)) == [
                    _per_pair_point_match(df, gf, 1.5, ctx) for df, gf in pairs
                ]
                continue
            with pytest.raises(ProjectionRangeError) as exc:
                point_match(paired(pairs), 1.5, ctx)
            assert str(exc.value) == want
            raised += 1
        assert 0 < raised < 300

    def test_far_point_beside_an_empty_frame_is_not_checked(self, ctx):
        far = DataFrame(1.0, (dp(1.0, 20_000.0, 0.0, ctx, object_id="d0"),))
        near = DataFrame(1.0, (dp(1.0, 0.0, 0.0, ctx, object_id="g0"),))
        empty = DataFrame(1.0, ())
        m = point_match(paired([(far, empty), (empty, far), (near, near)]), 1.5, ctx)
        det_far, gt_far, _ = _per_pair(m, 3)
        # no TPs, so the far detection is a FP and the far gt point a FN
        assert det_far == gt_far == ()
        assert len(far.points) - len(det_far) == 1
        with pytest.raises(ProjectionRangeError, match="flat-plane validity"):
            point_match(paired([(far, near)]), 1.5, ctx)

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


class TestFarPointsThroughReports:
    """compute_report projects only the points of frame pairs with points
    on both sides, in pair order, detections first."""

    @staticmethod
    def _trial(ctx, far_paired):
        # gt frame 5 holds only a pedestrian, so the vehicle filter empties it
        gt = []
        for k in range(10):
            t = 1000.0 + 0.1 * k
            point = dp(t, k, 0.0, ctx, "pedestrian", "p1") if k == 5 else dp(t, k, 0.0, ctx, object_id="g1")
            gt.append(DataFrame(t, (point,)))
        det = [DataFrame(f.timestamp_s, (dp(f.timestamp_s, k + 0.1, 0.0, ctx, object_id="d1"),))
               for k, f in enumerate(gt) if k != 5]
        # 20 km away: one-sided (paired with the emptied frame), FP-only
        # (0.08 s past the last gt frame) and dropped
        for t in (1000.5, 1000.98, 1010.0):
            det.append(DataFrame(t, (dp(t, 20_000.0, 0.0, ctx, object_id="d9"),)))
        for k, x, oid in far_paired:
            det[k] = DataFrame(det[k].timestamp_s, det[k].points + (
                dp(det[k].timestamp_s, x, 0.0, ctx, object_id=oid),))
        return from_frames(det, "detection"), from_frames(gt, "ground_truth")

    def test_unscored_far_points_never_raise(self, ctx):
        det, gt = self._trial(ctx, [])
        report = compute_report(det, gt, 0.0, 1.5, "vehicle", ctx, max_gap_s=0.05)
        # 9 paired detections, and the one-sided and FP-only far ones
        assert (report.counts.tp, report.counts.det_total) == (9, 11)

    def test_paired_far_point_raises_naming_the_first(self, ctx):
        det, gt = self._trial(ctx, [(3, -15_000.0, "d7"), (6, 12_000.0, "d8")])
        with pytest.raises(ProjectionRangeError) as want:
            project(det.frames[3].points[1].position, ctx)
        with pytest.raises(ProjectionRangeError) as got:
            compute_report(det, gt, 0.0, 1.5, "vehicle", ctx, max_gap_s=0.05)
        assert str(got.value) == str(want.value)


class TestPointMatch:
    def test_both_empty(self, ctx):
        m = point_match(paired([(DataFrame(1.0, ()), DataFrame(1.0, ()))]), 1.5, ctx)
        assert _per_pair(m, 1) == [()]
        assert [len(column) for column in m] == [0] * 6

    def test_exact_overlap_single(self, ctx):
        det = DataFrame(1.0, (dp(1.0, 3.0, 4.0, ctx, object_id="d1"),))
        gt = DataFrame(1.0, (dp(1.0, 3.0, 4.0, ctx, object_id="g1"),))
        [((det_id, gt_id, d),)] = _per_pair(point_match(paired([(det, gt)]), 1.5, ctx), 1)
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
        [res] = _per_pair(point_match(paired([(det, gt)]), 1.5, ctx), 1)
        # TPs in detection order; no FP (2 detections − 2 TPs), no FN (2 gt − 2)
        assert [(d, g) for d, g, _ in res] == [("d1", "g1"), ("d2", "g2")]
        total = sum(d for _, _, d in res)
        assert total == pytest.approx(0.8, abs=1e-6)  # crossed pairing costs 3.2

    def test_over_threshold_counts_both_sides(self, ctx):
        det = DataFrame(1.0, (dp(1.0, 10.0, 0, ctx, object_id="d1"),))
        gt = DataFrame(1.0, (dp(1.0, 0.0, 0, ctx, object_id="g1"),))
        [res] = _per_pair(point_match(paired([(det, gt)]), 1.5, ctx), 1)
        # no TP: FP = 1 detection − 0 TPs, FN = 1 gt − 0 TPs
        assert res == ()

    def test_category_gating(self, ctx):
        # matching scores one category per call; metrics splits the sets first
        det = DataFrame(1.0, (dp(1.0, 0, 0, ctx, category="pedestrian", object_id="d1"),))
        gt = DataFrame(1.0, (dp(1.0, 0, 0, ctx, category="vehicle", object_id="g1"),))
        named = r"\['pedestrian', 'vehicle'\]"
        with pytest.raises(ValueError, match=named):
            point_match(paired([(det, gt)]), 1.5, ctx)
        with pytest.raises(ValueError, match=named):
            association_match(
                from_frames([det], "detection"), from_frames([gt], "ground_truth"), 0.0, 1.5, ctx
            )
        # one frame mixing categories against one of either
        mixed = DataFrame(1.0, det.points + (dp(1.0, 1, 0, ctx, object_id="d2"),))
        for pairs in ([(mixed, gt)], [(gt, mixed)]):
            with pytest.raises(ValueError, match=named):
                point_match(paired(pairs), 1.5, ctx)
        # a frame with an empty side is never matched, so its category is free
        empty = DataFrame(1.0, ())
        assert _per_pair(point_match(paired([(det, empty), (empty, gt)]), 1.5, ctx), 2) == [(), ()]

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
            [res] = _per_pair(point_match(paired([(det, gt)]), 1.5, ctx), 1)
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
            [res] = _per_pair(point_match(paired([(det, gt)]), 1.5, ctx), 1)
            # the TP id pairs fix the FPs and FNs: every other point
            return sorted((d, g) for d, g, _ in res)

        assert run(0.0) == run(40.0)


def _table(frames: list[list[tuple[str, str]]]) -> Matches:
    """A Matches table of frames of (detection id, gt id) matches, with the
    ids coded in string order as point_match codes them."""
    pair = [k for k, frame in enumerate(frames) for _ in frame]
    det, det_ids = string_codes([d for frame in frames for d, _ in frame])
    gt, gt_ids = string_codes([g for frame in frames for _, g in frame])
    return Matches(np.array(pair, dtype=np.intp), det, gt, np.zeros(len(pair)), det_ids, gt_ids)


def _switches_by_walk(m: Matches) -> int:
    """count_id_switches as a walk over the chronological matches, keeping
    each gt id's last detection id in a dict: the reference for the array
    pass."""
    last_id: dict[str, str] = {}
    switches = 0
    for d, g in zip(m.det.tolist(), m.gt.tolist()):
        d, g = m.det_ids[d], m.gt_ids[g]
        if g in last_id and last_id[g] != d:
            switches += 1
        last_id[g] = d
    return switches


class TestIdSwitches:
    @staticmethod
    def _frames(seq_by_gt: dict[str, list[str | None]]) -> Matches:
        """point_match's table for frames where gt object g matches
        detection seq_by_gt[g][k] in frame k, or nothing where that is None."""
        out = []
        n = max(len(v) for v in seq_by_gt.values())
        for k in range(n):
            tp = []
            for gid, seq in seq_by_gt.items():
                det_id = seq[k] if k < len(seq) else None
                if det_id is None:
                    continue
                tp.append((det_id, gid))
            out.append(tp)
        return _table(out)

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

    def test_codes_follow_string_order(self):
        codes, names = string_codes(["g2", "g10", "A", "g2"])
        assert codes.tolist() == [2, 1, 0, 2] and names == ["A", "g10", "g2"]

    # frames of several interleaved gt ids, each matched at most once per
    # frame in any order, with gaps and re-acquisitions (A, B, A); "x" is
    # both a detection id and a gt id
    @given(st.lists(st.dictionaries(
        st.sampled_from(["g1", "g2", "g10", "x"]),
        st.sampled_from(["A", "B", "C", "x"]),
        max_size=4,
    ), max_size=30))
    def test_agrees_with_the_walk(self, frames):
        m = _table([list(f.items()) for f in frames])
        assert count_id_switches(m) == _switches_by_walk(m)


def _association_counts(det, gt, threshold_m, ctx, category="vehicle"):
    """(tpa, fpa, fna): association_match's TPA, checked against the TPA of
    compute_report's counts, whose FPA and FNA are the point totals less it."""
    tpa = association_match(det, gt, 0.0, threshold_m, ctx)
    counts = compute_report(det, gt, 0.0, threshold_m, category, ctx).counts
    assert type(tpa) is int and tpa == counts.tpa
    return tpa, counts.fpa, counts.fna


class TestAssociationMatch:
    def test_identical_single_trajectory(self, ctx):
        pts = line_points(ctx, n=25)
        det = grouped(pts, source="detection")
        gt = grouped(pts, source="ground_truth")
        assert _association_counts(det, gt, 1.5, ctx) == (25, 0, 0)

    def test_empty_detection_side(self, ctx):
        det = grouped([], source="detection")
        gt = grouped(line_points(ctx, n=10), source="ground_truth")
        assert _association_counts(det, gt, 1.5, ctx) == (0, 0, 10)

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
        det = grouped(det_pts, source="detection")
        gt = grouped(gt_pts, source="ground_truth")
        tpa, fpa, fna = _association_counts(det, gt, 1.5, ctx)
        # each det id overlaps each gt trajectory for exactly half the run;
        # the fixed association keeps the first-half pairing, so the second
        # half of every trajectory is unmatched on both sides
        assert tpa == 2 * half
        assert fpa == 2 * (n - half)
        assert fna == 2 * (n - half)

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
        det = grouped(det_pts, source="detection")
        gt = grouped(gt_pts, source="ground_truth")
        pairing = match_frames_by_time(det, gt, 0.0)
        per_frame_tp = len(point_match(pairing, 1.5, ctx).dist)
        assert association_match(det, gt, 0.0, 1.5, ctx) <= per_frame_tp

    def test_input_order_invariance(self, ctx):
        gt_pts = (
            line_points(ctx, n=10, y=0.0, object_id="g1")
            + line_points(ctx, n=10, y=6.0, object_id="g2")
        )
        det_pts = (
            line_points(ctx, n=10, y=0.1, object_id="d9")
            + line_points(ctx, n=10, y=6.1, object_id="d2")
        )
        det_fwd = grouped(det_pts, source="detection")
        det_rev = grouped(list(reversed(det_pts)), source="detection")
        gt = grouped(gt_pts, source="ground_truth")
        a = _association_counts(det_fwd, gt, 1.5, ctx)
        b = _association_counts(det_rev, gt, 1.5, ctx)
        assert a == b

    def test_no_cell_within_threshold(self, ctx):
        # two lanes 10 m apart: every frame aligns, nothing is a hit, and
        # the co-count matrix is 0×0
        det = grouped(line_points(ctx, n=12, y=10.0, object_id="d1"), source="detection")
        gt = grouped(line_points(ctx, n=12, object_id="g1"), source="ground_truth")
        assert _association_counts(det, gt, 1.5, ctx) == (0, 12, 12)
        assert compute_report(det, gt, 0.0, 1.5, "vehicle", ctx).idf1_pct == 0.0

    @pytest.mark.parametrize("category", ["pedestrian", "vehicle"])
    def test_per_frame_ids_take_one_plain_solve(self, ctx, monkeypatch, category):
        # a detector without a tracker: every co-count is 0 or 1 and optima
        # tie everywhere, yet only their common total is read
        data = Path(__file__).parent / "data"
        det, gt = (
            filter_category(build_trajectory_set(read_points(data / name)[0], source=source), category)
            for name, source in (("scene_det_perframe.csv", "detection"), ("scene_gt.csv", "ground_truth"))
        )
        calls = []
        for name in ("linear_sum_assignment", "solve_assignment", "_refine_lexicographic"):
            def counted(*args, _name=name, _fn=getattr(matching, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(matching, name, counted)
        tpa = association_match(det, gt, 0.0, 1.5, ctx)
        assert calls == ["linear_sum_assignment"]
        golden = json.loads((data / "golden" / "eval_perframe_ids" / "report.json").read_text())
        assert [r["counts"]["tpa"] for r in golden["reports"] if r["category"] == category] == [tpa]

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
        det_total, gt_total = matching.point_totals(pairing)
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
            # at a threshold equal to the farthest hit of a chosen id pair,
            # that hit still counts
            def hits(d_id, g_id):
                return [
                    float(_per_pair_distances((p,), (q,), ctx)[0, 0])
                    for df, gf in zip(det.frames, gt.frames)
                    for p in df.points if p.object_id == d_id
                    for q in gf.points if q.object_id == g_id
                ]

            chosen = self._by_pairs(det, gt, 1.5, ctx)[0]
            edge = max(d for pair in chosen for d in hits(*pair) if d <= 1.5)
            for threshold in (edge, 0.5, 1.5, 1e13):
                got = _association_counts(det, gt, threshold, ctx, category)
                want = self._by_pairs(det, gt, threshold, ctx)
                assert got == want[1:]
