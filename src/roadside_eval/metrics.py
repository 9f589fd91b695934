"""Tracking metrics over matched frames: rates, MOTA, MOTP, IDF1, HOTA.

Conventions that everything downstream relies on:

- Both FP rate and FN rate are normalized by the total gt point count, so
  MOTA = 1 − (FP + FN + IDS)/gt_total decomposes exactly into
  100 − fp_rate − fn_rate − 100·ids/gt_total.
- A metric with a zero denominator is undefined and reported as None,
  never as 0 or 100; an empty trial must not look perfect.
- HOTA here is the single-threshold variant: the geometric mean of DetA
  and AssA at the configured distance threshold (no alpha sweep).
- Fractions internally, percentages only at the report boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ProjectionContext, TrajectorySet, filter_category
from .errors import CategoryError
from .matching import (
    Matches,
    association_match,
    count_id_switches,
    match_frames_by_time,
    point_match,
    point_totals,
)


@dataclass(frozen=True)
class CountSummary:
    """Raw tallies a trial's metrics derive from."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    ids: int = 0
    tpa: int = 0
    fpa: int = 0
    fna: int = 0
    gt_total: int = 0
    det_total: int = 0
    sum_tp_distance_m: float = 0.0

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "ids", "tpa", "fpa", "fna", "gt_total", "det_total"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.sum_tp_distance_m < 0:
            raise ValueError("sum_tp_distance_m must be non-negative")
        if self.tp + self.fn != self.gt_total:
            raise ValueError(
                f"tp+fn = {self.tp + self.fn} does not equal gt_total = {self.gt_total}"
            )
        if self.tp + self.fp != self.det_total:
            raise ValueError(
                f"tp+fp = {self.tp + self.fp} does not equal det_total = {self.det_total}"
            )


@dataclass(frozen=True)
class MetricsReport:
    """One table row: a (trial, category) evaluation. None = undefined."""

    trial_id: str
    category: str
    fp_rate_pct: float | None
    fn_rate_pct: float | None
    ids: int
    mota_pct: float | None
    motp_m: float | None
    idf1_pct: float | None
    deta_pct: float | None
    assa_pct: float | None
    hota_pct: float | None
    counts: CountSummary


@dataclass(frozen=True)
class ThresholdSweep:
    """FP/FN rates over ascending thresholds (parallel arrays). None = undefined."""

    thresholds_m: tuple[float, ...]
    fp_rate_pct: tuple[float | None, ...]
    fn_rate_pct: tuple[float | None, ...]


def compute_motp(counts: CountSummary) -> float | None:
    """Mean distance of true-positive matches; None when there are no TPs."""
    if counts.tp == 0:
        return None
    return counts.sum_tp_distance_m / counts.tp


def compute_mota(counts: CountSummary) -> float | None:
    """1 − (FP + FN + IDS)/gt_total; unbounded below, None without gt."""
    if counts.gt_total == 0:
        return None
    return 1.0 - (counts.fp + counts.fn + counts.ids) / counts.gt_total


def compute_idf1(counts: CountSummary) -> float | None:
    """2·TPA/(2·TPA + FPA + FNA); None when all association counts are 0."""
    denom = 2 * counts.tpa + counts.fpa + counts.fna
    if denom == 0:
        return None
    return 2 * counts.tpa / denom


def compute_hota(
    counts: CountSummary,
) -> tuple[float | None, float | None, float | None]:
    """(DetA, AssA, HOTA) fractions; each None on a zero denominator."""
    det_denom = counts.tp + counts.fp + counts.fn
    ass_denom = counts.tpa + counts.fpa + counts.fna
    deta = counts.tp / det_denom if det_denom else None
    assa = counts.tpa / ass_denom if ass_denom else None
    hota = math.sqrt(deta * assa) if deta is not None and assa is not None else None
    return deta, assa, hota


def _pct(x: float | None) -> float | None:
    return None if x is None else 100.0 * x


def _rate_pct(n: int, gt_total: int) -> float | None:
    """n as a percentage of the gt total; None when there is no gt."""
    return 100.0 * n / gt_total if gt_total else None


def _match_category(
    det: TrajectorySet,
    gt: TrajectorySet,
    latency_s: float,
    threshold_m: float,
    category: str,
    ctx: ProjectionContext,
    max_gap_s: float | None,
) -> tuple[TrajectorySet, TrajectorySet, Matches, int, int]:
    """One category's matching pass, shared by reports and sweeps.

    Returns the category's detection and gt sets, point_match's table of
    true positives at threshold_m, and the (detection, gt) point totals.
    Raises CategoryError when the ground truth has no points of the
    category (nothing to normalize against), and point_match's ValueError
    on a threshold that is not positive and finite.
    """
    if category not in gt.categories:
        raise CategoryError(f"no ground truth in category {category!r}")
    det_c = filter_category(det, category)
    gt_c = filter_category(gt, category)
    pairing = match_frames_by_time(det_c, gt_c, latency_s, max_gap_s)
    matches = point_match(pairing, threshold_m, ctx)
    det_total, gt_total = point_totals(pairing)
    return det_c, gt_c, matches, det_total, gt_total


def compute_report(
    det: TrajectorySet,
    gt: TrajectorySet,
    latency_s: float,
    threshold_m: float,
    category: str,
    ctx: ProjectionContext,
    trial_id: str = "trial",
    max_gap_s: float | None = None,
) -> MetricsReport:
    """Run the full per-category pipeline and assemble one report row.

    Frame alignment -> per-frame point matching -> ID-switch counting ->
    trajectory association. Raises CategoryError when the ground truth has
    no points of the requested category.
    """
    det_c, gt_c, matches, det_total, gt_total = _match_category(
        det, gt, latency_s, threshold_m, category, ctx, max_gap_s
    )
    tp = len(matches.dist)
    fp = det_total - tp
    fn = gt_total - tp
    sum_d = math.fsum(matches.dist.tolist())
    ids = count_id_switches(matches)
    tpa = association_match(det_c, gt_c, latency_s, threshold_m, ctx, max_gap_s)

    counts = CountSummary(
        tp=tp,
        fp=fp,
        fn=fn,
        ids=ids,
        tpa=tpa,
        fpa=det_total - tpa,
        fna=gt_total - tpa,
        gt_total=gt_total,
        det_total=det_total,
        sum_tp_distance_m=sum_d,
    )
    deta, assa, hota = compute_hota(counts)
    return MetricsReport(
        trial_id=trial_id,
        category=category,
        fp_rate_pct=_rate_pct(fp, gt_total),
        fn_rate_pct=_rate_pct(fn, gt_total),
        ids=ids,
        mota_pct=_pct(compute_mota(counts)),
        motp_m=compute_motp(counts),
        idf1_pct=_pct(compute_idf1(counts)),
        deta_pct=_pct(deta),
        assa_pct=_pct(assa),
        hota_pct=_pct(hota),
        counts=counts,
    )


def _checked_thresholds(thresholds_m: Sequence[float]) -> list[float]:
    """Thresholds as floats; ValueError unless non-empty, positive, finite
    and ascending."""
    thresholds = [float(t) for t in thresholds_m]
    if not thresholds:
        raise ValueError("thresholds_m must be non-empty")
    if not all(0 < t < math.inf for t in thresholds):
        raise ValueError(f"thresholds must be positive and finite, got {thresholds}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly ascending, got {thresholds}")
    return thresholds


def threshold_sweep(
    det: TrajectorySet,
    gt: TrajectorySet,
    latency_s: float,
    thresholds_m: Sequence[float],
    category: str,
    ctx: ProjectionContext,
    max_gap_s: float | None = None,
) -> ThresholdSweep:
    """FP/FN rates at each threshold over the same matched frames.

    The assignment step never looks at the threshold (thresholds only
    classify assigned pairs), so one matching pass at the largest threshold
    serves every threshold, and the rates are non-increasing by
    construction. A pair beyond the largest threshold counts at none of
    them. Rates are None when the paired frames hold no gt point.
    """
    thresholds = _checked_thresholds(thresholds_m)
    _, _, matches, det_total, gt_total = _match_category(
        det, gt, latency_s, thresholds[-1], category, ctx, max_gap_s
    )
    dist = np.sort(matches.dist)
    tps = np.searchsorted(dist, thresholds, side="right").tolist()
    fp_rates = [_rate_pct(det_total - tp, gt_total) for tp in tps]
    fn_rates = [_rate_pct(gt_total - tp, gt_total) for tp in tps]
    return ThresholdSweep(tuple(thresholds), tuple(fp_rates), tuple(fn_rates))
