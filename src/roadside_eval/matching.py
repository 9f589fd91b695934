"""Frame alignment, optimal point assignment, and identity bookkeeping.

The evaluation clock is the detection stream: every detection frame is
aligned to the ground-truth frame nearest in time after latency
compensation, points inside each aligned pair are matched one-to-one by
minimum total planar distance, and matched pairs beyond the distance
threshold count against both sides. Trajectory-level association fixes a
single global detection-id to gt-id mapping (the one maximizing true
positives) and re-counts points under it; ID switches are counted from the
chronological per-frame matches.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from itertools import chain, permutations
from operator import attrgetter
from typing import Sequence

import numpy as np

from .core import DataFrame, GeoPoint, ProjectionContext, TrajectorySet, project
from .errors import EvalError

# Absolute tolerance for "equal total cost" during tie-break refinement.
# Costs are meter-scale distances; totals are compared via math.fsum, so
# genuinely tied assignments compare exactly and this only absorbs rounding
# introduced upstream of the solver.
_TIE_TOL = 1e-6

# Bound on solver and summation rounding per n² · max|cost|, generous: it
# covers the single solve's suboptimality, the potentials' and reduced
# costs' rounding along a cycle, and the refinement's own fsum comparisons.
_ROUNDING_PER_TERM = 64 * np.finfo(float).eps

# Frames with at most this many points a side are solved by listing every
# assignment, and point_match solves them together.
_SMALL = 3


@dataclass(frozen=True)
class AssociationResult:
    """Point counts under the best fixed trajectory-level id mapping."""

    tpa: int
    fpa: int
    fna: int


@dataclass(frozen=True)
class FramePairing:
    """Detection frames aligned to gt frames, plus the leftovers.

    fp_only holds detection frames with no gt frame within max_gap but one
    within 2x max_gap (scored as all false positives); n_dropped counts
    detection frames outside gt coverage entirely.
    """

    pairs: tuple[tuple[DataFrame, DataFrame], ...]
    fp_only: tuple[DataFrame, ...]
    n_dropped: int


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, ...]:
    """Minimum-cost assignment of min(rows, cols) pairs, with its duals.

    Returns (rows, cols, u, v): the pairs as index arrays in ascending row
    order, and potentials with c[i, j] − u[i] − v[j] ≥ 0 everywhere and 0
    on the pairs. The longer side's potentials are ≤ 0 and 0 on its
    unpaired lines, which proves the pairs optimal (linear programming
    duality). The method is Crouse's shortest augmenting path (2016, "On
    implementing 2D rectangular assignment algorithms"), on the matrix
    transposed to have no more rows than columns: each row takes its
    cheapest column if no earlier row did, and each row left free then
    augments along one Dijkstra shortest path of reduced costs. The matrix
    is never padded: zero dummy lines would be every row's cheapest.
    """
    cost = np.asarray(cost, dtype=float)
    tall = cost.shape[0] > cost.shape[1]
    c = cost.T if tall else cost
    n_rows, n_cols = c.shape
    v = [0.0] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for i, j in enumerate(c.argmin(axis=1).tolist()):
        if row4col[j] < 0:
            row4col[j] = i
            col4row[i] = j
    for cur in [i for i, j in enumerate(col4row) if j < 0]:
        _augment(c, v, col4row, row4col, cur)
    rows, cols, v = np.arange(n_rows), np.array(col4row), np.array(v)
    u = c[rows, cols] - v[cols]
    if tall:
        order = np.argsort(cols)
        return cols[order], order, v, u
    return rows, cols, u, v


def _augment(c, v: list, col4row: list, row4col: list, cur: int) -> None:
    """Pair free row cur along a shortest augmenting path, lowering the
    column duals so that reduced costs stay non-negative and the pairs tight.

    Dijkstra over columns: row i reaches column j at reduced cost
    c[i, j] − u[i] − v[j], and a paired column leads on to its row at no
    cost. A paired row's u is its pair's c − v, so only v is kept; the free
    row's u counts as 0, which shifts every distance alike. path[j] is the
    row that last shortened column j's distance. The search stops at the
    first free column it closes, the sink, and among columns tied at the
    minimum it takes a free one. A closed column's costs read +inf from
    then on.
    """
    reduced = c - v
    dist = np.full(len(v), np.inf)
    reach = np.empty(len(v))
    path = np.empty(len(v), dtype=np.intp)
    free = [j for j, i in enumerate(row4col) if i < 0]
    closed: list[int] = []
    closed_dist: list[float] = []
    i, offset = cur, 0.0  # offset: row i's distance less its u
    while True:
        np.add(reduced[i], offset, out=reach)
        path[reach < dist] = i
        np.minimum(dist, reach, out=dist)
        j = int(dist.argmin())
        low = dist.item(j)
        i = row4col[j]
        if i >= 0:
            for k in free:
                if dist.item(k) == low:
                    j, i = k, -1
                    break
        if i < 0:
            break
        closed.append(j)
        closed_dist.append(low)
        offset = low - reduced.item(i, j)
        dist[j] = reduced[:, j] = np.inf

    while True:
        i = path.item(j)
        row4col[j] = i
        j, col4row[i] = col4row[i], j
        if i == cur:
            break
    for j, d in zip(closed, closed_dist):
        if d < low:  # closed before the sink, so no farther, up to rounding
            v[j] -= low - d


def _sub_total(cost: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> float:
    """Optimal assignment total on a submatrix, summed exactly."""
    sub = cost[np.ix_(rows, cols)]
    rr, cc, _, _ = linear_sum_assignment(sub)
    return math.fsum(sub[i, j] for i, j in zip(rr, cc))


def solve_assignment(cost) -> tuple[tuple[int, int], ...]:
    """Minimum-total-cost one-to-one assignment of min(rows, cols) pairs,
    as (row, column) tuples in row order.

    Among optima within _TIE_TOL of each other the lexicographically
    smallest pair list is returned, so output is deterministic and
    order-stable for tests and re-runs. A single line, or a frame of at
    most three rows and columns, is settled by _solve_small. For a larger
    one, one solve settles almost every matrix: when no other assignment
    comes near its total, that optimum is the answer (see
    _unique_optimum). Only near-ties take the row-by-row refinement, which
    re-solves O(n²) submatrices. Raises ValueError on non-finite costs.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if cost.size == 0:
        return ()
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite values")

    if min(cost.shape) == 1 or max(cost.shape) <= _SMALL:
        ok, rows, cols = _solve_small(cost[None])
        pairs = list(zip(rows[0].tolist(), cols[0].tolist())) if ok[0] else None
    else:
        pairs = _unique_optimum(cost)
    if pairs is None:
        pairs = _refine_lexicographic(cost)
    return tuple(pairs)


def _unique_optimum(cost: np.ndarray) -> list[tuple[int, int]] | None:
    """The optimum when every other assignment costs more than a margin.

    Solves the matrix once (optimum σ) and proves that every other
    assignment costs more than _TIE_TOL plus a rounding margin above it.
    The row-by-row refinement would then place σ's pairs one by one, so σ
    is its answer. Returns None when the proof fails.

    The proof works on the matrix turned to have no more lines (rows)
    than columns, as a square one: dummy lines of zeros fill it, each
    paired with one of the columns σ leaves free. Moving line i from
    column σ(i) to column σ(k) costs c[i, σ(k)] − c[i, σ(i)], and every
    other assignment is σ plus disjoint cycles of such moves, costing the
    sum of their weights more. The solver's column duals v make every
    reduced weight c[i, j] − c[i, σ(i)] + v[σ(i)] − v[j] = c[i, j] − u[i]
    − v[j] non-negative, and a cycle's reduced weights sum to its true
    weight. So an assignment within the margin of σ needs a cycle of
    "tight" moves, each with reduced weight at most the margin; a tight
    graph without cycles rules one out. The dummy lines get dual 0, which
    is feasible because v ≤ 0 with v = 0 on free columns: a dummy line
    moves to column j at reduced weight −v[j]. Moves between two dummy
    lines only reshuffle padding, so the dummies are one node, entered by
    a move to any free column. Reduced weights that rounding leaves below
    zero widen the tight test by n times their depth, as a cycle of up to
    n moves can hide that much; below −margin, the duals do not prove σ
    optimal at all.

    Sums of large costs are too coarse to resolve _TIE_TOL, and the
    refinement's own rounding then decides; such matrices return None.
    """
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols)
    rounding = _ROUNDING_PER_TERM * n * n * float(np.abs(cost).max())
    if rounding > _TIE_TOL:
        return None
    margin = _TIE_TOL + rounding
    rows, cols, u, v = linear_sum_assignment(cost)
    reduced = cost - u[:, None] - v
    # one line per pair, in pair order; sigma[k] is line k's column
    sigma = cols
    if n_rows > n_cols:
        reduced, v, sigma = reduced.T[cols], u, rows
    low = min(float(reduced.min()), 0.0)
    if low < -margin:
        return None
    limit = margin - n * low
    # the move graph over lines: line i moves to the column of line k
    tight = reduced <= limit
    moves = tight[:, sigma]
    np.fill_diagonal(moves, False)
    if len(v) > len(sigma):
        # dummy lines on the free columns act as one more node; it is on no
        # cycle unless some line moves onto a free column
        tight[:, sigma] = False
        into = tight.any(axis=1)
        if into.any():
            k = len(sigma)
            graph = np.zeros((k + 1, k + 1), dtype=bool)
            graph[:k, :k] = moves
            graph[:k, k] = into
            graph[k, :k] = v[sigma] >= -limit
            moves = graph
    if _has_cycle(moves):
        return None
    return list(zip(rows.tolist(), cols.tolist()))


def _solve_small(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The answer of the row-by-row refinement for a stack of same-shape
    frames that are 1×n, n×1 or at most _SMALL × _SMALL, where it is plain.

    Returns (ok, rows, cols): each frame's pairs in row order, valid where
    ok. A 1×n or n×1 frame takes the refinement's rule in closed form: the
    first index within _TIE_TOL of the minimum. Any other frame lists
    every assignment and is ok when its best beats the rest by more than
    _unique_optimum's margin plus a slack for naive summation; the slack
    is the rounding term again, far above the few eps · n · max|cost| by
    which a naive sum can miss math.fsum. The frames that are not ok
    (near-ties, huge or non-finite costs) are the refinement's.
    """
    count, n_rows, n_cols = cost.shape
    ok = np.isfinite(cost).all(axis=(1, 2))
    if n_rows == 1 or n_cols == 1:
        line = cost.reshape(count, -1)
        k = np.argmax(line <= line.min(axis=1, keepdims=True) + _TIE_TOL, axis=1)[:, None]
        zero = np.zeros_like(k)
        return (ok, zero, k) if n_rows == 1 else (ok, k, zero)
    tall = n_rows > n_cols
    lines = cost.transpose(0, 2, 1) if tall else cost
    n_lines, width = lines.shape[1:]
    perms = np.array(list(permutations(range(width), n_lines)))
    totals = lines[:, 0, perms[:, 0]]
    for i in range(1, n_lines):
        totals = totals + lines[:, i, perms[:, i]]
    order = np.argsort(totals, axis=1)
    best = np.take_along_axis(totals, order[:, :2], axis=1)
    n = max(n_rows, n_cols)
    rounding = _ROUNDING_PER_TERM * n * n * np.abs(cost).max(axis=(1, 2))
    ok &= (rounding <= _TIE_TOL) & (best[:, 1] - best[:, 0] > _TIE_TOL + 2 * rounding)
    chosen = perms[order[:, 0]]
    if tall:
        # chosen[f, j] is the row of gt column j; list the pairs by row
        by_row = np.argsort(chosen, axis=1)
        return ok, np.take_along_axis(chosen, by_row, axis=1), by_row
    return ok, np.broadcast_to(np.arange(n_lines), chosen.shape), chosen


def _has_cycle(adj: np.ndarray) -> bool:
    """Whether the directed graph with boolean adjacency adj has a cycle.

    Peels off nodes without an out-edge or an in-edge among the nodes
    left; a cycle's nodes are never peeled.
    """
    live = adj.any(axis=1) & adj.any(axis=0)
    while live.any():
        sub = adj[np.ix_(live, live)]
        keep = sub.any(axis=1) & sub.any(axis=0)
        if keep.all():
            return True
        live[live] = keep
    return False


def _refine_lexicographic(cost: np.ndarray) -> list[tuple[int, int]]:
    """Lexicographically smallest optimum, placed one row at a time.

    Row by row, the first column whose best completion is within _TIE_TOL
    of the optimum of what is left wins. Every step re-solves submatrices.
    """
    n_rows, n_cols = cost.shape
    rows = list(range(n_rows))
    cols = list(range(n_cols))
    pairs: list[tuple[int, int]] = []

    while rows and cols:
        best = _sub_total(cost, rows, cols)
        placed = False
        for ci in range(len(cols)):
            rest_rows = rows[1:]
            rest_cols = cols[:ci] + cols[ci + 1 :]
            if rest_rows and rest_cols:
                tail = _sub_total(cost, rest_rows, rest_cols)
            else:
                tail = 0.0
            if math.fsum([cost[rows[0], cols[ci]], tail]) <= best + _TIE_TOL:
                pairs.append((rows[0], cols[ci]))
                rows.pop(0)
                cols.pop(ci)
                placed = True
                break
        if not placed:
            if len(rows) > len(cols):
                # this row is not part of any minimum-cost assignment
                rows.pop(0)
            else:
                # float corner: fall back to the engine's optimum outright
                sub = cost[np.ix_(rows, cols)]
                rr, cc, _, _ = linear_sum_assignment(sub)
                pairs.extend((rows[i], cols[j]) for i, j in zip(rr, cc))
                break

    pairs.sort()
    return pairs


def match_frames_by_time(
    det: TrajectorySet,
    gt: TrajectorySet,
    latency_s: float,
    max_gap_s: float | None = None,
) -> FramePairing:
    """Align each detection frame with the gt frame nearest (t − latency).

    Equidistant gt frames go to the earlier one. max_gap_s defaults to half
    the median detection frame interval. A detection frame whose nearest gt
    frame is farther than max_gap but within twice of it is kept as an
    all-FP frame (boundary raggedness); anything farther lies outside the
    trial window and is dropped. Raises ValueError on a non-finite latency.
    """
    if not gt.frames:
        raise EvalError("ground truth contains no frames")
    if not math.isfinite(latency_s):
        raise ValueError(f"latency_s must be finite, got {latency_s}")
    if max_gap_s is None:
        max_gap_s = _default_max_gap(det, gt)
    if not 0 < max_gap_s < math.inf:
        raise ValueError(f"max_gap_s must be positive and finite, got {max_gap_s}")

    gt_times = np.array([f.timestamp_s for f in gt.frames])
    target = np.array([f.timestamp_s for f in det.frames], dtype=float) - latency_s
    i = np.searchsorted(gt_times, target)
    last = len(gt_times) - 1
    before = gt_times[np.maximum(i - 1, 0)]
    after = gt_times[np.minimum(i, last)]
    i -= (i > 0) & ((i > last) | (target - before <= after - target))
    gap = np.abs(gt_times[i] - target)
    paired = np.flatnonzero(gap <= max_gap_s).tolist()
    near = np.flatnonzero((gap > max_gap_s) & (gap <= 2.0 * max_gap_s)).tolist()
    pairs = tuple((det.frames[k], gt.frames[j]) for k, j in zip(paired, i[paired].tolist()))
    fp_only = tuple(det.frames[k] for k in near)
    return FramePairing(pairs, fp_only, len(det.frames) - len(pairs) - len(fp_only))


def _default_max_gap(det: TrajectorySet, gt: TrajectorySet) -> float:
    for ts in (det, gt):
        times = [f.timestamp_s for f in ts.frames]
        if len(times) >= 2:
            # statistics.median, not np.median: the latter imports numpy.ma
            return 0.5 * statistics.median(b - a for a, b in zip(times, times[1:]))
    return 0.5


@dataclass(frozen=True)
class _Blocks:
    """Distance blocks of the aligned frame pairs with points on both sides.

    live[k] is such a pair's index in the pairing. The object ids of its
    rows[k] detection points and then its cols[k] gt points sit in ids from
    start[k]. A frame of at most _SMALL points a side has its block in
    flat, row-major from cell[k], with the cells' indices into ids in
    cell_det and cell_gt; a larger frame's block is big[k].
    """

    live: list[int]
    ids: list[str]
    start: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    cell: np.ndarray
    flat: np.ndarray
    cell_det: np.ndarray
    cell_gt: np.ndarray
    big: dict[int, np.ndarray]


def _distance_blocks(
    pairs: Sequence[tuple[DataFrame, DataFrame]], ctx: ProjectionContext
) -> _Blocks:
    """Project the points of the pairs with points on both sides, in one
    call and in pair order, detections first, and take their distances.

    Projecting in that order names the same far point as matching the
    pairs one by one would; points of a pair with an empty side are never
    projected. Raises ValueError naming the categories when those points
    hold more than one: matching scores one category per call.
    """
    live = [k for k, (df, gf) in enumerate(pairs) if df.points and gf.points]
    points = [p for k in live for f in pairs[k] for p in f.points]
    categories = set(map(attrgetter("category"), points))
    if len(categories) > 1:
        raise ValueError(f"matching takes one category per call, got {sorted(categories)}")
    n = len(points)
    geo = np.fromiter(chain.from_iterable(p.position for p in points), float, 2 * n)
    x, y = project(GeoPoint(geo[0::2], geo[1::2]), ctx)
    rows = np.array([len(pairs[k][0].points) for k in live], dtype=np.intp)
    cols = np.array([len(pairs[k][1].points) for k in live], dtype=np.intp)
    start = np.cumsum(rows + cols) - (rows + cols)
    small = (rows <= _SMALL) & (cols <= _SMALL)
    # one flat kernel over the small frames' cells, frame by frame
    size = np.where(small, rows * cols, 0)
    cell = np.cumsum(size) - size
    local = np.arange(size.sum()) - np.repeat(cell, size)
    width = np.repeat(cols, size)
    cell_det = np.repeat(start, size) + local // width
    cell_gt = np.repeat(start + rows, size) + local % width
    big = {}
    for f in np.flatnonzero(~small).tolist():
        s, r = start[f], rows[f]
        di, gi = s + np.arange(r)[:, None], s + r + np.arange(cols[f])
        big[f] = np.hypot(x[di] - x[gi], y[di] - y[gi])
    flat = np.hypot(x[cell_det] - x[cell_gt], y[cell_det] - y[cell_gt])
    ids = [p.object_id for p in points]
    return _Blocks(live, ids, start, rows, cols, cell, flat, cell_det, cell_gt, big)


def point_totals(pairing: FramePairing, gt: TrajectorySet) -> tuple[int, int]:
    """(detection, gt) point counts that a pairing's rates are taken over.

    Detections count in paired and FP-only frames. Gt counts in paired
    frames only, or in full when nothing pairs: detections that never
    overlap the trial window leave every gt point unexplained.
    """
    det_total = sum(len(df.points) for df, _ in pairing.pairs)
    det_total += sum(len(df.points) for df in pairing.fp_only)
    if pairing.pairs:
        gt_total = sum(len(gf.points) for _, gf in pairing.pairs)
    else:
        gt_total = sum(len(f.points) for f in gt.frames)
    return det_total, gt_total


def point_match(
    pairs: Sequence[tuple[DataFrame, DataFrame]],
    threshold_m: float,
    ctx: ProjectionContext,
) -> list[tuple[tuple[str, str, float], ...]]:
    """Optimal one-to-one point matching within each aligned frame pair.

    Returns one entry per (detection frame, gt frame) pair, in order: the
    pair's true positives as (detection id, gt id, distance in meters), in
    detection order. The assignment minimizes total distance without regard
    to the threshold; the threshold only classifies afterwards. An assigned
    pair beyond the threshold contributes a FP and a FN (the detection
    placed nothing within range of that gt point, and vice versa), so a
    pair's FPs are its detections less its TPs, and likewise its FNs.
    The pairs hold one category's points, as metrics passes them after
    filter_category; points of more than one category raise ValueError.
    All points are projected in one call, and the frames of at most three
    points a side are solved together.
    """
    if not 0 < threshold_m < math.inf:
        raise ValueError(f"threshold_m must be positive and finite, got {threshold_m}")
    blocks = _distance_blocks(pairs, ctx)
    # every assigned pair as (live frame, detection row, gt column, distance)
    parts: list[tuple[np.ndarray, ...]] = []
    unsettled: list[tuple[int, np.ndarray]] = []
    small = np.flatnonzero((blocks.rows <= _SMALL) & (blocks.cols <= _SMALL))
    shapes = blocks.rows[small] * (_SMALL + 1) + blocks.cols[small]
    # a set, not np.unique: the latter imports numpy.ma on first use
    for shape in sorted(set(shapes.tolist())):
        n_rows, n_cols = divmod(shape, _SMALL + 1)
        frames = small[shapes == shape]
        index = blocks.cell[frames][:, None] + np.arange(n_rows * n_cols)
        cost = blocks.flat[index].reshape(-1, n_rows, n_cols)
        ok, rows, cols = _solve_small(cost)
        dist = cost[np.arange(len(frames))[:, None], rows, cols]
        owner = np.broadcast_to(frames[:, None], rows.shape)
        parts.append(tuple(a[ok].ravel() for a in (owner, rows, cols, dist)))
        unsettled += [(frames[f], cost[f]) for f in np.flatnonzero(~ok).tolist()]
    for f, cost in [*unsettled, *blocks.big.items()]:
        rows, cols = np.array(solve_assignment(cost), dtype=np.intp).reshape(-1, 2).T
        parts.append((np.full(len(rows), f), rows, cols, cost[rows, cols]))

    matches: list[tuple[tuple[str, str, float], ...]] = [()] * len(pairs)
    if not parts:
        return matches
    frame, rows, cols, dist = map(np.concatenate, zip(*parts))
    keep = np.flatnonzero(dist <= threshold_m)
    keep = keep[np.argsort(frame[keep], kind="stable")]
    frame = frame[keep]
    det = (blocks.start[frame] + rows[keep]).tolist()
    gt = (blocks.start[frame] + blocks.rows[frame] + cols[keep]).tolist()
    ids = blocks.ids
    tps = list(zip(map(ids.__getitem__, det), map(ids.__getitem__, gt), dist[keep].tolist()))
    cuts = np.flatnonzero(np.diff(frame, prepend=-1, append=-1)).tolist()
    frame = frame.tolist()
    for a, b in zip(cuts, cuts[1:]):
        matches[blocks.live[frame[a]]] = tuple(tps[a:b])
    return matches


def count_id_switches(matches: Sequence[Sequence[tuple[str, str, float]]]) -> int:
    """Count changes of the matched detection id per gt object over time.

    Takes point_match's entries. Re-acquiring a previously used id after a
    switch counts again (A,B,A is two switches). Input must be in
    ascending frame-time order.
    """
    last_id: dict[str, str] = {}
    switches = 0
    for frame in matches:
        for d, g, _ in frame:
            if g in last_id and last_id[g] != d:
                switches += 1
            last_id[g] = d
    return switches


def association_match(
    det: TrajectorySet,
    gt: TrajectorySet,
    latency_s: float,
    threshold_m: float,
    ctx: ProjectionContext,
    max_gap_s: float | None = None,
) -> AssociationResult:
    """Count points under the best fixed det-id to gt-id mapping.

    Per frame pair, each (det id, gt id) combination scores a candidate TP
    when both are present and within threshold; the global one-to-one id
    association maximizing total candidate TPs is fixed by the assignment
    solver, and tpa/fpa/fna are counted under it. Both sets hold one
    category, as metrics passes them after filter_category; aligned frames
    with points of more than one category raise ValueError.
    """
    pairing = match_frames_by_time(det, gt, latency_s, max_gap_s)
    blocks = _distance_blocks(pairing.pairs, ctx)
    hit = blocks.flat <= threshold_m
    det_hits, gt_hits = [blocks.cell_det[hit]], [blocks.cell_gt[hit]]
    for k, block in blocks.big.items():
        i, j = np.nonzero(block <= threshold_m)
        det_hits.append(blocks.start[k] + i)
        gt_hits.append(blocks.start[k] + blocks.rows[k] + j)
    ids = blocks.ids
    co_counts = Counter(
        (ids[i], ids[j])
        for i, j in zip(np.concatenate(det_hits).tolist(), np.concatenate(gt_hits).tolist())
    )
    det_total, gt_total = point_totals(pairing, gt)

    det_ids = sorted({d for d, _ in co_counts})
    gt_ids = sorted({g for _, g in co_counts})
    tpa = 0
    if det_ids and gt_ids:
        det_row = {d: i for i, d in enumerate(det_ids)}
        gt_col = {g: j for j, g in enumerate(gt_ids)}
        neg = np.zeros((len(det_ids), len(gt_ids)))
        for (d, g), n in co_counts.items():
            neg[det_row[d], gt_col[g]] = -n
        tpa = sum(co_counts.get((det_ids[i], gt_ids[j]), 0) for i, j in solve_assignment(neg))
    return AssociationResult(tpa=tpa, fpa=det_total - tpa, fna=gt_total - tpa)
