"""Frame alignment, optimal point assignment, and identity bookkeeping.

The evaluation clock is the detection stream: every detection frame is
aligned to the ground-truth frame nearest in time after latency
compensation, points inside each aligned pair are matched one-to-one by
minimum total planar distance, and matched pairs beyond the distance
threshold count against both sides. Trajectory-level association fixes a
single global detection-id to gt-id mapping (the one maximizing true
positives) and counts the true positives under it; ID switches are counted
from the chronological per-frame matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple, Sequence

import numpy as np

from .core import DataFrame, GeoPoint, ProjectionContext, TrajectorySet, project, recode
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

# Frames of more than one line and at most this many columns (lines: the
# side with fewer points) are certified by listing every assignment.
_SMALL = 3


@dataclass(frozen=True, eq=False)
class FramePairing:
    """Detection frames aligned to gt frames, plus the leftovers, as frame
    indices into the two sets.

    Detection frame det_frames[k] pairs with gt frame gt_frames[k], in
    ascending detection order. fp_frames are the detection frames with no
    gt frame within max_gap but one within 2x max_gap (scored as all false
    positives); n_dropped counts detection frames outside gt coverage
    entirely. pairs and fp_only give the frames themselves.
    """

    det: TrajectorySet
    gt: TrajectorySet
    det_frames: np.ndarray
    gt_frames: np.ndarray
    fp_frames: np.ndarray

    @property
    def pairs(self) -> tuple[tuple[DataFrame, DataFrame], ...]:
        det, gt = self.det.frames, self.gt.frames
        index = zip(self.det_frames.tolist(), self.gt_frames.tolist())
        return tuple((det[k], gt[j]) for k, j in index)

    @property
    def fp_only(self) -> tuple[DataFrame, ...]:
        return tuple(self.det.frames[k] for k in self.fp_frames.tolist())

    @property
    def n_dropped(self) -> int:
        return len(self.det.frame_times) - len(self.det_frames) - len(self.fp_frames)


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
    Raises ValueError on non-finite costs.
    """
    cost = np.asarray(cost, dtype=float)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite values")
    tall = cost.shape[0] > cost.shape[1]
    c = cost.T if tall else cost
    n_rows, n_cols = c.shape
    v = np.zeros(n_cols)
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for i, j in enumerate(c.argmin(axis=1).tolist() if n_cols else []):  # 0×0: no argmin
        if row4col[j] < 0:
            row4col[j] = i
            col4row[i] = j
    for cur in [i for i, j in enumerate(col4row) if j < 0]:
        _augment(c, v, col4row, row4col, cur)
    rows, cols = np.arange(n_rows), np.array(col4row, dtype=np.intp)
    u = c[rows, cols] - v[cols]
    if tall:
        order = np.argsort(cols)
        return cols[order], order, v, u
    return rows, cols, u, v


def _augment(c, v: np.ndarray, col4row: list, row4col: list, cur: int) -> None:
    """Pair free row cur along a shortest augmenting path, lowering the
    column duals so that reduced costs stay non-negative and the pairs tight.

    Dijkstra over columns: row i reaches column j at reduced cost
    c[i, j] − u[i] − v[j], and a paired column leads on to its row at no
    cost. A paired row's u is its pair's c − v, so only v is kept; the free
    row's u counts as 0, which shifts every distance alike; a row's reduced
    costs are taken when the search reaches it. path[j] is the row that
    last shortened column j's distance. The search stops at the first free
    column it closes, the sink, preferring a free one among ties. A closed
    column's dual in shift is −inf, so its costs read +inf from then on.
    """
    shift = v.copy()
    dist = np.full(len(v), np.inf)
    reach = np.empty(len(v))
    path = np.empty(len(v), dtype=np.intp)
    free = [j for j, i in enumerate(row4col) if i < 0]
    closed: list[int] = []
    closed_dist: list[float] = []
    i, offset = cur, 0.0  # offset: row i's distance less its u
    while True:
        np.subtract(c[i], shift, out=reach)
        reach += offset
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
        offset = low - (c.item(i, j) - v.item(j))
        dist[j], shift[j] = np.inf, -np.inf

    while True:
        i = path.item(j)
        row4col[j] = i
        j, col4row[i] = col4row[i], j
        if i == cur:
            break
    # columns closed before the sink are no farther, up to rounding
    v[closed] -= np.maximum(low - np.array(closed_dist), 0.0)


def _sub_total(cost: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> float:
    """Optimal assignment total on a submatrix, summed exactly."""
    sub = cost[np.ix_(rows, cols)]
    rr, cc, _, _ = linear_sum_assignment(sub)
    return math.fsum(sub[i, j] for i, j in zip(rr, cc))


def solve_assignment(cost) -> tuple[tuple[int, int], ...] | tuple[np.ndarray, np.ndarray]:
    """Minimum-total-cost one-to-one assignment of k = min(rows, cols)
    pairs, in one (rows, cols) cost matrix or in each frame of a
    (frames, rows, cols) stack.

    A matrix gives its pairs as (row, column) tuples in row order; a stack
    gives (rows, cols) index arrays of shape (frames, k), each frame's
    pairs in row order. Among optima within _TIE_TOL of each other the
    lexicographically smallest pair list is returned, so output is
    deterministic and order-stable for tests and re-runs. Most frames
    settle without the row-by-row refinement, which re-solves O(n²)
    submatrices: by _certify, for the whole stack at once with no solve,
    else by one solve and its uniqueness proof (_unique_optimum). Near-ties
    take the refinement, and so do costs whose sums are too coarse to
    resolve _TIE_TOL. Raises ValueError on non-finite costs, and on costs
    whose assignment totals can overflow: k · max|cost| not finite.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim not in (2, 3):
        raise ValueError(f"cost must be a matrix or a stack of them, got shape {cost.shape}")
    stack = cost if cost.ndim == 3 else cost[None]
    n_rows, n_cols = stack.shape[1:]
    k = min(n_rows, n_cols)
    rows = cols = np.empty((len(stack), k), np.intp)
    if stack.size:
        if not np.isfinite(stack).all():
            raise ValueError("cost matrix contains non-finite values")
        top = np.abs(stack).max(axis=(1, 2))
        if not math.isfinite(k * float(top.max())):
            raise ValueError("cost matrix totals overflow: min(shape) * max|cost| is not finite")
        rounding = _ROUNDING_PER_TERM * max(n_rows, n_cols) ** 2 * top
        resolved = rounding <= _TIE_TOL  # else sums are too coarse to resolve _TIE_TOL
        ok, rows, cols = _certify(stack, rounding)
        for f in np.flatnonzero(~(ok & resolved)).tolist():
            pairs = resolved[f] and _unique_optimum(stack[f], rounding[f])
            rows[f], cols[f] = zip(*(pairs or _refine_lexicographic(stack[f])))
    if cost.ndim == 3:
        return rows, cols
    return tuple(zip(rows[0].tolist(), cols[0].tolist()))


def _certify(cost: np.ndarray, rounding: np.ndarray) -> tuple[np.ndarray, ...]:
    """The refinement's answer without a solve, for each frame of a stack
    where it is plain: the certificate of solve_assignment.

    Returns (ok, rows, cols): each frame's best assignment in row order,
    the answer where ok. On the frames turned to have no more lines than
    columns, a frame is ok when its best assignment beats the runner-up by
    more than _unique_optimum's margin plus a slack for naive summation:
    the rounding term again, far above the few eps · n · max|cost| by
    which a naive sum can miss math.fsum. Frames of 2 to _SMALL lines at
    most _SMALL wide list every assignment. Any other frame takes each
    line's minimum, ok when they fall in distinct columns and each beats
    its line's runner-up by that margin, as any other assignment moves a
    line off its minimum; a lone entry's runner-up is +inf. The frames
    that are not ok are near-ties, contested columns or coarse sums.
    """
    n_rows, n_cols = cost.shape[1:]
    tall = n_rows > n_cols
    lines = cost.transpose(0, 2, 1) if tall else cost
    n_lines, width = lines.shape[1:]
    if n_lines > 1 and width <= _SMALL:
        perms = np.array(list(permutations(range(width), n_lines)))
        totals = lines[:, 0, perms[:, 0]]
        for i in range(1, n_lines):
            totals = totals + lines[:, i, perms[:, i]]
        order = np.argsort(totals, axis=1)[:, :2]
        best, second = np.take_along_axis(totals, order, axis=1).T
        chosen = perms[order[:, 0]]
        gap = second - best
    else:
        chosen = lines.argmin(axis=2)
        picked = np.take_along_axis(lines, chosen[..., None], axis=2)
        rest = lines.copy()
        np.put_along_axis(rest, chosen[..., None], np.inf, axis=2)
        gap = (rest.min(axis=2) - picked[..., 0]).min(axis=1)
        taken = np.sort(chosen, axis=1)
        gap[(taken[:, 1:] == taken[:, :-1]).any(axis=1)] = -np.inf
    ok = gap > _TIE_TOL + 2 * rounding
    if tall:
        # chosen[f, j] is the row of column j; list the pairs by row
        by_row = np.argsort(chosen, axis=1)
        return ok, np.take_along_axis(chosen, by_row, axis=1), by_row
    return ok, np.broadcast_to(np.arange(n_lines), chosen.shape).copy(), chosen


def _unique_optimum(cost: np.ndarray, rounding: float) -> list[tuple[int, int]] | None:
    """The optimum σ of one solve, when every other assignment costs more
    than margin = _TIE_TOL + rounding above it: the row-by-row refinement
    would then place σ's pairs one by one. Else None.

    On the matrix turned to have no more lines than columns, padded square
    by dummy lines of zeros paired with the columns σ leaves free, every
    other assignment is σ plus disjoint cycles of moves: line i from
    column σ(i) to σ(j) costs c[i, σ(j)] − c[i, σ(i)] more. The solver's
    duals make each move's reduced weight c[i, j] − u[i] − v[j]
    non-negative, and a cycle's reduced weights sum to its true weight, so
    an assignment within the margin needs a cycle of tight moves (reduced
    weight ≤ the margin); an acyclic tight graph rules one out. Dummy
    lines get dual 0, feasible as v ≤ 0 with v = 0 on free columns, and
    are one node, as moves among them only reshuffle padding: it moves to
    column j at reduced weight −v[j], and a move to any free column enters
    it (a square matrix has none).
    Reduced weights that rounding leaves below zero widen the tight test
    by n times their depth, as a cycle of up to n moves can hide that
    much; below −margin, the duals prove nothing. The graph is an edge
    list: a tight entry points at its column's line.
    """
    margin = _TIE_TOL + rounding
    rows, cols, u, v = linear_sum_assignment(cost)
    reduced = cost - u[:, None] - v
    # one line per pair, in pair order; sigma[k] is line k's column
    sigma = cols
    if cost.shape[0] > cost.shape[1]:
        reduced, v, sigma = reduced.T[cols], u, rows
    low = min(float(reduced.min()), 0.0)
    if low < -margin:
        return None
    limit = margin - max(cost.shape) * low
    # the move graph's edges over the k lines and node k, the dummy lines
    k = len(sigma)
    owner = np.full(reduced.shape[1], k)
    owner[sigma] = np.arange(k)
    line, col = np.nonzero(reduced <= limit)
    moved = owner[col] != line
    entered = np.flatnonzero(v[sigma] >= -limit)
    src = np.concatenate([line[moved], np.full(len(entered), k)])
    dst = np.concatenate([owner[col[moved]], entered])
    return None if _has_cycle(src, dst, k + 1) else list(zip(rows.tolist(), cols.tolist()))


def _has_cycle(src: np.ndarray, dst: np.ndarray, n: int) -> bool:
    """Whether the graph of edges src → dst over nodes 0..n−1 has a cycle.
    Kahn's peel takes nodes with no in-edge left; a cycle's are never taken."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), dst.tolist()):
        succ[i].append(j)
    indeg = np.bincount(dst, minlength=n).tolist()
    peeled = [i for i, d in enumerate(indeg) if not d]
    for i in peeled:  # grows as the loop runs
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                peeled.append(j)
    return len(peeled) < n


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
    the median detection frame interval; with fewer than two detection
    frames, half the median gt frame interval, and 0.5 s when neither side
    has two frames. A detection frame whose nearest gt frame is farther
    than max_gap but within twice of it is kept as an all-FP frame
    (boundary raggedness); anything farther lies outside the trial window
    and is dropped. Raises ValueError on a non-finite latency.
    """
    if not len(gt.frame_times):
        raise EvalError("ground truth contains no frames")
    if not math.isfinite(latency_s):
        raise ValueError(f"latency_s must be finite, got {latency_s}")
    if max_gap_s is None:
        max_gap_s = _default_max_gap(det, gt)
    if not 0 < max_gap_s < math.inf:
        raise ValueError(f"max_gap_s must be positive and finite, got {max_gap_s}")

    gt_times = gt.frame_times
    target = det.frame_times - latency_s
    i = np.searchsorted(gt_times, target)
    last = len(gt_times) - 1
    before = gt_times[np.maximum(i - 1, 0)]
    after = gt_times[np.minimum(i, last)]
    i -= (i > 0) & ((i > last) | (target - before <= after - target))
    gap = np.abs(gt_times[i] - target)
    paired = np.flatnonzero(gap <= max_gap_s)
    near = np.flatnonzero((gap > max_gap_s) & (gap <= 2.0 * max_gap_s))
    return FramePairing(det, gt, paired, i[paired], near)


def _default_max_gap(det: TrajectorySet, gt: TrajectorySet) -> float:
    for ts in (det, gt):
        if len(ts.frame_times) >= 2:
            # half the median by a sort, as statistics.median takes it; not
            # np.median, which imports numpy.ma
            gaps = np.sort(np.diff(ts.frame_times))
            return 0.25 * float(gaps[(len(gaps) - 1) // 2] + gaps[len(gaps) // 2])
    return 0.5


@dataclass(frozen=True)
class _Blocks:
    """Distance blocks of the aligned frame pairs with points on both sides.

    live[k] is such a pair's index in the pairing. The object id codes of
    its rows[k] detection points and then its gt points sit in ident from
    start[k], detection codes into the detection set's ids and gt codes
    into the gt set's. shapes maps each (rows, cols) that occurs to the
    indices k of its frames, in pair order, and their blocks stacked as one
    (frames, rows, cols) array: the one layout both point_match and
    association_match read.
    """

    live: np.ndarray
    ident: np.ndarray
    start: np.ndarray
    rows: np.ndarray
    shapes: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]


def _distance_blocks(pairing: FramePairing, ctx: ProjectionContext) -> _Blocks:
    """Gather the points of the pairs with points on both sides from the
    sets' columns, in pair order, detections first, project them in one
    call, and stack their distances per frame shape.

    Projecting in that order names the same far point as matching the
    pairs one by one would; points of a pair with an empty side, and of
    frames no pair holds, are never projected. Raises ValueError naming the
    categories when those points hold more than one: matching scores one
    category per call.
    """
    det, gt = pairing.det.columns, pairing.gt.columns
    det_at, gt_at = pairing.det.offsets, pairing.gt.offsets
    d0, g0 = det_at[pairing.det_frames], gt_at[pairing.gt_frames]
    d_n, g_n = det_at[pairing.det_frames + 1] - d0, gt_at[pairing.gt_frames + 1] - g0
    live = np.flatnonzero((d_n > 0) & (g_n > 0))
    rows, cols = d_n[live], g_n[live]
    # each live pair's detection rows, then its gt rows, in the columns of
    # both sets laid end to end
    size = np.stack([rows, cols], axis=1).ravel()
    first = np.stack([d0[live], g0[live] + len(det.lat)], axis=1).ravel()
    end = np.cumsum(size)
    index = np.arange(size.sum()) + np.repeat(first - end + size, size)
    category = np.concatenate([det.category, gt.category + len(det.categories)])[index]
    present = set(recode(category, det.categories + gt.categories)[1])
    if len(present) > 1:
        raise ValueError(f"matching takes one category per call, got {sorted(present)}")
    pairs = (det.lat, gt.lat), (det.lon, gt.lon), (det.ident, gt.ident)
    lat, lon, ident = (np.concatenate(pair)[index] for pair in pairs)
    x, y = project(GeoPoint(lat, lon), ctx)
    start = end[0::2] - rows
    shapes = {}
    # a set, not np.unique: the latter imports numpy.ma on first use
    for n_rows, n_cols in sorted(set(zip(rows.tolist(), cols.tolist()))):
        frames = np.flatnonzero((rows == n_rows) & (cols == n_cols))
        di = start[frames, None, None] + np.arange(n_rows)[:, None]
        gi = start[frames, None, None] + n_rows + np.arange(n_cols)
        shapes[n_rows, n_cols] = frames, np.hypot(x[di] - x[gi], y[di] - y[gi])
    return _Blocks(live, ident, start, rows, shapes)


def point_totals(pairing: FramePairing) -> tuple[int, int]:
    """(detection, gt) point counts that a pairing's rates are taken over.

    Detections count in paired and FP-only frames. Gt counts in paired
    frames only, or in full when nothing pairs: detections that never
    overlap the trial window leave every gt point unexplained.
    """
    det_n = np.diff(pairing.det.offsets)
    gt_n = np.diff(pairing.gt.offsets)
    det_total = det_n[pairing.det_frames].sum() + det_n[pairing.fp_frames].sum()
    gt_total = gt_n[pairing.gt_frames].sum() if len(pairing.gt_frames) else gt_n.sum()
    return int(det_total), int(gt_total)


class Matches(NamedTuple):
    """point_match's true positives, one row each, in pair order and within
    a pair in detection order: the frame pair's index, the detection's and
    the gt point's object id codes, and their distance in meters. The codes
    index det_ids and gt_ids, which are in string order."""

    pair: np.ndarray
    det: np.ndarray
    gt: np.ndarray
    dist: np.ndarray
    det_ids: list[str]
    gt_ids: list[str]


def point_match(pairing: FramePairing, threshold_m: float, ctx: ProjectionContext) -> Matches:
    """Optimal one-to-one point matching within each aligned frame pair.

    Takes match_frames_by_time's pairing. Returns the true positives as
    one Matches table. The assignment minimizes total distance without
    regard to the threshold, which only classifies afterwards: an assigned
    pair beyond it contributes a FP and a FN, so a pair's FPs are its
    detections less its TPs, and likewise its FNs. The pairs hold one
    category's points, as metrics passes them after filter_category;
    points of more than one category raise ValueError.
    solve_assignment settles each stack of same-shape frames, in one call.
    """
    if not 0 < threshold_m < math.inf:
        raise ValueError(f"threshold_m must be positive and finite, got {threshold_m}")
    blocks = _distance_blocks(pairing, ctx)
    # every assigned pair as (live frame, detection row, gt column, distance)
    parts: list[tuple[np.ndarray, ...]] = [(np.empty(0, np.intp),) * 3 + (np.empty(0),)]
    for frames, cost in blocks.shapes.values():
        rows, cols = solve_assignment(cost)
        dist = cost[np.arange(len(frames))[:, None], rows, cols]
        owner = np.broadcast_to(frames[:, None], rows.shape)
        parts.append(tuple(a.ravel() for a in (owner, rows, cols, dist)))

    frame, rows, cols, dist = map(np.concatenate, zip(*parts))
    keep = np.flatnonzero(dist <= threshold_m)
    keep = keep[np.argsort(frame[keep], kind="stable")]
    frame = frame[keep]
    det = blocks.ident[blocks.start[frame] + rows[keep]]
    gt = blocks.ident[blocks.start[frame] + blocks.rows[frame] + cols[keep]]
    ids = pairing.det.columns.ids, pairing.gt.columns.ids
    return Matches(blocks.live[frame], det, gt, dist[keep], *ids)


def count_id_switches(matches: Matches) -> int:
    """Count changes of the matched detection id per gt object over time.

    Takes point_match's table, whose pairs must be in ascending frame-time
    order. Re-acquiring a previously used id after a switch counts again
    (A,B,A is two switches). A stable sort by gt id code keeps each gt
    object's matches in time order, so a switch is two neighbours with the
    same gt id and different detection ids.
    """
    order = np.argsort(matches.gt, kind="stable")
    gt, det = matches.gt[order], matches.det[order]
    return int(np.count_nonzero((gt[1:] == gt[:-1]) & (det[1:] != det[:-1])))


def association_match(
    det: TrajectorySet,
    gt: TrajectorySet,
    latency_s: float,
    threshold_m: float,
    ctx: ProjectionContext,
    max_gap_s: float | None = None,
) -> int:
    """TPA: the true positives under the best fixed det-id to gt-id mapping.

    Per frame pair, each (det id, gt id) combination scores a candidate TP
    when both are present and within threshold; one comparison per stack
    of same-shape distance blocks finds them. TPA, the most candidate TPs
    a one-to-one id association totals, comes from one plain
    linear_sum_assignment of the co-count matrix. Only that total is read,
    and a sum of integer counts is exact, so ties cannot change it; the
    lexicographic tie rule is solve_assignment's, for point matching only.
    FPA and FNA are the point totals of the same alignment (point_totals)
    less TPA. Both sets hold one category, as metrics passes them after
    filter_category; aligned frames mixing categories raise ValueError.
    """
    pairing = match_frames_by_time(det, gt, latency_s, max_gap_s)
    blocks = _distance_blocks(pairing, ctx)
    hits = [np.empty((2, 0), np.intp)]
    for frames, block in blocks.shapes.values():
        f, i, j = np.nonzero(block <= threshold_m)
        first = blocks.start[frames[f]]
        hits.append(np.stack([first + i, first + block.shape[1] + j]))
    det_hits, gt_hits = blocks.ident[np.concatenate(hits, axis=1)]
    # the co-count matrix has a line for each id with a hit, in id order
    rows = recode(det_hits, det.columns.ids)[0]
    cols = recode(gt_hits, gt.columns.ids)[0]
    neg = np.zeros((rows.max(initial=-1) + 1, cols.max(initial=-1) + 1))
    np.subtract.at(neg, (rows, cols), 1)
    return -int(neg[linear_sum_assignment(neg)[:2]].sum())
