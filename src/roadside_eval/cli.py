"""Command-line front end: latency runs, evaluation, sweeps, synthesis.

Subcommands mirror the library layers: `latency` estimates reporting delay
from paired constant-speed runs, `eval` produces per-category tracking
metric rows, `sweep` emits FP/FN rates over a threshold list, and `synth`
writes synthetic trial files. Machine-readable output is a single
deterministic JSON manifest per run (schema_version 1); human output is a
fixed-width table matching the manifest's numbers at display precision.

Exit codes: 0 success, 1 input or configuration error, 2 internal
consistency violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__
from .core import (
    CATEGORIES,
    GeoPoint,
    LocalPoint,
    ProjectionContext,
    SOURCE_DETECTION,
    SOURCE_GROUND_TRUTH,
    TrajectorySet,
    build_trajectory_set,
    make_projection,
    paused_gc,
)
from .errors import ConsistencyError, EvalError, IntegrityError
from .ingest import IngestReport, read_points, write_points
from .latency import (
    MAX_TEST_POINTS,
    LatencyEstimate,
    RouteLine,
    combine_trials,
    estimate_latency_for_trial,
    make_route_line,
)
from .metrics import (
    MetricsReport,
    ThresholdSweep,
    _checked_thresholds,
    compute_report,
    threshold_sweep,
)
from .synth import (
    DEFAULT_ORIGIN,
    ErrorModel,
    ScenarioSpec,
    TEMPLATES,
    default_latency_route,
    degrade,
    generate_scenario,
)

SCHEMA_VERSION = 1
TOOL_NAME = "roadside-eval"

_FORMATS = ("table", "csv", "json")

_TABLE_HEADER = (
    "Trial",
    "Category",
    "FP Rate %",
    "FN Rate %",
    "IDS",
    "MOTA %",
    "MOTP (m)",
    "IDF1 %",
    "HOTA %",
)

_METRICS_CSV_COLUMNS = (
    "schema_version",
    "trial_id",
    "category",
    "fp_rate_pct",
    "fn_rate_pct",
    "ids",
    "mota_pct",
    "motp_m",
    "idf1_pct",
    "deta_pct",
    "assa_pct",
    "hota_pct",
    "tp",
    "fp",
    "fn",
    "tpa",
    "fpa",
    "fna",
    "gt_total",
    "det_total",
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors honor the exit-code contract (1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


# --- shared helpers ----------------------------------------------------------


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_set(path: str, source: str) -> tuple[TrajectorySet, IngestReport]:
    rec, report = read_points(path)
    try:
        return build_trajectory_set(rec, source=source), report
    except IntegrityError as exc:
        lines = " and ".join(str(report.point_lines[k]) for k in exc.records)
        raise IntegrityError(f"{path}: {exc} (lines {lines})") from None


def _warn_rejections(path: str, report: IngestReport) -> None:
    if report.rejections:
        line, reason = report.rejections[0]
        print(
            f"warning: {path}: dropped {len(report.rejections)} malformed "
            f"row(s); first at line {line}: {reason}",
            file=sys.stderr,
        )


def _input_record(role: str, path: str, report: IngestReport) -> dict[str, Any]:
    return {
        "role": role,
        "path": str(path),
        "sha256": _sha256(path),
        "n_points": report.n_accepted,
        "n_rejected": len(report.rejections),
        "n_ms_converted": report.n_ms_converted,
    }


def _parse_origin(text: str) -> GeoPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise EvalError(f"origin must be 'lat,lon', got {text!r}")
    try:
        return GeoPoint(float(parts[0]), float(parts[1]))
    except ValueError:
        raise EvalError(f"origin must be 'lat,lon' numbers, got {text!r}") from None


def _default_origin(gt: TrajectorySet) -> GeoPoint:
    """First ground-truth point, rounded to 0.01 degrees (about 1 km): row 0
    of the columns, which hold the points in frame order."""
    cols = gt.columns
    if not len(cols.t):
        raise EvalError("ground truth contains no usable points")
    return GeoPoint(round(cols.lat[0].item(), 2), round(cols.lon[0].item(), 2))


def _projection(args: argparse.Namespace, gt: TrajectorySet) -> ProjectionContext:
    """Plane at --origin, else at the first gt point; the origin used is
    written back to args so the manifest's config echo reproduces the run."""
    if args.origin is not None:
        origin = _parse_origin(args.origin)
    else:
        origin = _default_origin(gt)
    args.origin = f"{origin.lat_deg},{origin.lon_deg}"
    return make_projection(origin)


def _load_trial(
    args: argparse.Namespace, det_path: str, gt_path: str
) -> tuple[TrajectorySet, TrajectorySet, ProjectionContext, list[dict[str, Any]]]:
    """Load one detection/gt pair with its projection and input records."""
    det, det_rep = _load_set(det_path, SOURCE_DETECTION)
    gt, gt_rep = _load_set(gt_path, SOURCE_GROUND_TRUTH)
    _warn_rejections(det_path, det_rep)
    _warn_rejections(gt_path, gt_rep)
    inputs = [
        _input_record("detection", det_path, det_rep),
        _input_record("ground_truth", gt_path, gt_rep),
    ]
    return det, gt, _projection(args, gt), inputs


def _route_from_args(
    args: argparse.Namespace, default_speed_mps: float = 10.0
) -> RouteLine | None:
    """RouteLine from --route/--window-*/--speed; None when none are given.
    Without --speed the route drives at default_speed_mps."""
    given = any(
        getattr(args, name, None) is not None
        for name in ("route", "speed", "window_start", "window_end")
    )
    if not given:
        return None
    default = default_latency_route(default_speed_mps)
    if args.route is not None:
        vals = args.route.split(",")
        if len(vals) != 4:
            raise EvalError(f"route must be 'x0,y0,x1,y1' in meters, got {args.route!r}")
        try:
            x0, y0, x1, y1 = (float(v) for v in vals)
        except ValueError:
            raise EvalError(f"route must be numeric, got {args.route!r}") from None
    else:
        (x0, y0), (dx, dy) = default.anchor, default.direction
        x1, y1 = x0 + dx, y0 + dy
    ws = args.window_start if args.window_start is not None else default.window_start_m
    we = args.window_end if args.window_end is not None else default.window_end_m
    v0 = args.speed if args.speed is not None else default.nominal_speed_mps
    return make_route_line(LocalPoint(x0, y0), LocalPoint(x1, y1), ws, we, v0)


def _latency_dict(est: LatencyEstimate, source: str) -> dict[str, Any]:
    return {
        "mean_s": est.mean_s,
        "std_s": est.std_s,
        "n_samples": est.n_samples,
        "per_direction_mean_s": {
            "forward": est.per_direction_mean_s[1],
            "reverse": est.per_direction_mean_s[-1],
        },
        "source": source,
    }


def _fixed_latency(mean_s: float, source: str) -> dict[str, Any]:
    return {
        "mean_s": mean_s,
        "std_s": None,
        "n_samples": None,
        "per_direction_mean_s": None,
        "source": source,
    }


def _config_echo(args: argparse.Namespace) -> dict[str, Any]:
    """The --config document that reproduces this run (flags already merged)."""
    return {k: v for k, v in sorted(vars(args).items()) if k not in _CONFIG_SKIP_KEYS}


def _manifest(
    args: argparse.Namespace,
    inputs: Sequence[dict[str, Any]],
    latency: dict[str, Any] | None,
    reports: Sequence[MetricsReport] = (),
    sweep: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The report.json document: everything needed to reproduce the run."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": args.command,
        "config": _config_echo(args),
        "inputs": list(inputs),
        "latency": latency,
        "reports": [asdict(r) for r in reports],
        "sweep": sweep,
    }


def _fmt1(v: float | None) -> str:
    return "—" if v is None else f"{v:.1f}"


def _fmt3(v: float | None) -> str:
    return "—" if v is None else f"{v:.3f}"


def _render_table(rows: Sequence[Sequence[str]], header: Sequence[str]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))).rstrip())
    return "\n".join(lines)


def _metrics_table(reports: Sequence[MetricsReport]) -> str:
    rows = [
        (
            r.trial_id,
            r.category,
            _fmt1(r.fp_rate_pct),
            _fmt1(r.fn_rate_pct),
            str(r.ids),
            _fmt1(r.mota_pct),
            _fmt3(r.motp_m),
            _fmt1(r.idf1_pct),
            _fmt1(r.hota_pct),
        )
        for r in reports
    ]
    return _render_table(rows, _TABLE_HEADER)


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _write_metrics_csv(path: Path, reports: Sequence[MetricsReport]) -> None:
    rows = []
    for r in reports:
        fields = {"schema_version": SCHEMA_VERSION, **asdict(r), **asdict(r.counts)}
        rows.append([fields[c] for c in _METRICS_CSV_COLUMNS])
    _write_csv(path, _METRICS_CSV_COLUMNS, rows)


def _write_sweep_csv(path: Path, sweep: ThresholdSweep) -> None:
    rows = [
        (SCHEMA_VERSION, t, fp, fn)
        for t, fp, fn in zip(sweep.thresholds_m, sweep.fp_rate_pct, sweep.fn_rate_pct)
    ]
    _write_csv(
        path, ("schema_version", "threshold_m", "fp_rate_pct", "fn_rate_pct"), rows
    )


def _write_manifest(path: Path, manifest: dict[str, Any]) -> None:
    doc = json.dumps(manifest, sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(doc + "\n")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _paired_paths(args: argparse.Namespace) -> list[tuple[str, str]]:
    """Zip --det with --gt files; a single gt file is shared by all dets."""
    det, gt = args.det, args.gt
    if len(gt) == 1 and len(det) > 1:
        gt = gt * len(det)
    if len(det) != len(gt):
        raise EvalError(
            f"{len(args.det)} detection files but {len(args.gt)} ground-truth files"
        )
    return list(zip(det, gt))


def _trial_ids(args: argparse.Namespace, pairs: Sequence[tuple[str, str]]) -> list[str]:
    if args.trial_id is not None:
        if len(args.trial_id) != len(pairs):
            raise EvalError(
                f"{len(args.trial_id)} trial ids for {len(pairs)} trials"
            )
        if len(set(args.trial_id)) != len(args.trial_id):
            raise EvalError(f"trial ids must be unique, got {args.trial_id}")
        return list(args.trial_id)
    ids: list[str] = []
    for det_path, _ in pairs:
        trial_id = stem = Path(det_path).stem
        suffix = len(ids)
        while trial_id in ids:
            trial_id = f"{stem}-{suffix}"
            suffix += 1
        ids.append(trial_id)
    return ids


# --- subcommands -------------------------------------------------------------


def cmd_latency(args: argparse.Namespace) -> int:
    _require(args, "det", "--det")
    _require(args, "gt", "--gt")
    pairs = _paired_paths(args)
    route = _route_from_args(args)
    assert route is not None  # latency flags carry defaults

    inputs: list[dict[str, Any]] = []
    estimates: list[LatencyEstimate] = []
    per_trial: list[dict[str, Any]] = []
    for det_path, gt_path in pairs:
        det, gt, ctx, trial_inputs = _load_trial(args, det_path, gt_path)
        inputs.extend(trial_inputs)
        est = estimate_latency_for_trial(
            det, gt, route, ctx, args.test_points, args.speed_tol
        )
        estimates.append(est)
        per_trial.append(
            {"detection_path": str(det_path), **_latency_dict(est, "estimated")}
        )

    combined = combine_trials(estimates)
    out = _out_dir(args)
    print(f"forward mean:  {combined.per_direction_mean_s[1]:.6f} s")
    print(f"reverse mean:  {combined.per_direction_mean_s[-1]:.6f} s")
    print(f"combined mean: {combined.mean_s:.6f} s")
    print(f"std:           {combined.std_s:.6f} s")
    print(f"samples:       {combined.n_samples}")

    latency = _latency_dict(combined, "estimated")
    latency["per_trial"] = per_trial
    _write_manifest(out / "report.json", _manifest(args, inputs, latency))
    return 0


def _resolve_trial_latency(
    args: argparse.Namespace,
    det: TrajectorySet,
    gt: TrajectorySet,
    ctx: ProjectionContext,
) -> tuple[float, dict[str, Any]]:
    """Latency for one trial: provided beats estimated beats zero."""
    if args.latency is not None:
        return args.latency, _fixed_latency(args.latency, "provided")
    route = _route_from_args(args)
    if route is not None:
        est = estimate_latency_for_trial(
            det, gt, route, ctx, args.test_points, args.speed_tol
        )
        return est.mean_s, _latency_dict(est, "estimated")
    return 0.0, _fixed_latency(0.0, "default")


def cmd_eval(args: argparse.Namespace) -> int:
    _require(args, "det", "--det")
    _require(args, "gt", "--gt")
    formats = _parse_formats(args.formats)
    pairs = _paired_paths(args)
    args.trial_id = _trial_ids(args, pairs)
    # An extra read of the first gt file, for its origin alone: perfbench
    # (test_smoke.py) pins five reads on eval_intersection.
    _projection(args, _load_set(pairs[0][1], SOURCE_GROUND_TRUTH)[0])

    inputs: list[dict[str, Any]] = []
    latencies: list[dict[str, Any]] = []
    reports: list[MetricsReport] = []
    for (det_path, gt_path), trial_id in zip(pairs, args.trial_id):
        det, gt, ctx, trial_inputs = _load_trial(args, det_path, gt_path)
        inputs.extend(trial_inputs)
        latency_s, latency = _resolve_trial_latency(args, det, gt, ctx)
        latencies.append(latency)
        categories = [args.category] if args.category is not None else sorted(gt.categories)
        if not categories:
            raise EvalError(f"ground truth {gt_path!r} contains no usable points")
        reports.extend(
            compute_report(
                det, gt, latency_s, args.threshold, cat, ctx, trial_id, args.max_gap
            )
            for cat in categories
        )

    latency_block = latencies[0] if len(latencies) == 1 else {"per_trial": latencies}
    manifest = _manifest(args, inputs, latency_block, reports=reports)
    _emit(args, formats, manifest, reports, sweep=None)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "det", "--det")
    _require(args, "gt", "--gt")
    _require(args, "thresholds", "--thresholds")
    formats = _parse_formats(args.formats)
    thresholds = _parse_thresholds(args.thresholds)

    det, gt, ctx, inputs = _load_trial(args, args.det, args.gt)
    latency_s, latency = _resolve_trial_latency(args, det, gt, ctx)
    category = args.category if args.category is not None else _first_category(gt)

    sweep = threshold_sweep(det, gt, latency_s, thresholds, category, ctx, args.max_gap)
    manifest = _manifest(
        args, inputs, latency, sweep={"category": category, **asdict(sweep)}
    )
    _emit(args, formats, manifest, reports=(), sweep=sweep)
    return 0


def _first_category(gt: TrajectorySet) -> str:
    cats = sorted(gt.categories)
    if not cats:
        raise EvalError("ground truth contains no usable points")
    if len(cats) > 1:
        raise EvalError(
            f"ground truth mixes categories {cats}; pass --category to pick one"
        )
    return cats[0]


def _require(args: argparse.Namespace, dest: str, flag: str) -> None:
    if getattr(args, dest) is None:
        raise EvalError(f"{flag} is required (as a flag or a config file key)")


def _parse_formats(text: str) -> tuple[str, ...]:
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    if not formats:
        raise EvalError("at least one output format is required")
    for f in formats:
        if f not in _FORMATS:
            raise EvalError(f"unknown output format {f!r}; choose from {_FORMATS}")
    return formats


def _parse_thresholds(text: str) -> list[float]:
    try:
        thresholds = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise EvalError(f"thresholds must be numeric, got {text!r}") from None
    return _checked_thresholds(thresholds)


def _emit(
    args: argparse.Namespace,
    formats: tuple[str, ...],
    manifest: dict[str, Any],
    reports: Sequence[MetricsReport],
    sweep: ThresholdSweep | None,
) -> None:
    """Single writer for all chosen formats, after computation finishes."""
    out = _out_dir(args)
    if "table" in formats:
        if reports:
            print(_metrics_table(reports))
        if sweep is not None:
            rows = [
                (_fmt3(t), _fmt1(fp), _fmt1(fn))
                for t, fp, fn in zip(
                    sweep.thresholds_m, sweep.fp_rate_pct, sweep.fn_rate_pct
                )
            ]
            print(_render_table(rows, ("Threshold (m)", "FP Rate %", "FN Rate %")))
    if "json" in formats:
        _write_manifest(out / "report.json", manifest)
    if "csv" in formats:
        if reports:
            _write_metrics_csv(out / "metrics.csv", reports)
        if sweep is not None:
            _write_sweep_csv(out / "sweep.csv", sweep)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.out_det is not None and Path(args.out_det).resolve() == Path(args.out_gt).resolve():
        raise EvalError(f"--out-det and --out-gt name the same file: {args.out_det}")
    origin = _parse_origin(args.origin)
    ctx = make_projection(origin)
    try:
        speeds = tuple(float(v) for v in args.speeds.split(",") if v.strip()) or (10.0,)
    except ValueError:
        raise EvalError(f"--speeds must be a comma list of numbers, got {args.speeds!r}") from None
    route = _route_from_args(args, speeds[0])
    driven = args.template == "latency_run"
    for flag in ("window_start", "window_end", "speed"):
        if not driven and getattr(args, flag) is not None:
            raise EvalError(f"--{flag.replace('_', '-')} applies to the latency_run template only")
    spec = ScenarioSpec(
        template=args.template,
        duration_s=args.duration,
        rng_seed=args.seed,
        gt_rate_hz=args.gt_rate,
        speeds_mps=speeds,
        route=route if driven else None,
    )
    model = ErrorModel(
        latency_mean_s=args.latency_mean,
        latency_std_s=args.latency_std,
        offset_e1_m=(args.e1_along, args.e1_cross),
        noise_sigma_m=args.noise_sigma,
        speed_jitter_mps=args.speed_jitter,
        miss_prob=args.miss_prob,
        clutter_rate=args.clutter_rate,
        id_switch_prob=args.id_switch_prob,
        det_rate_hz=args.det_rate,
    )
    gt = generate_scenario(spec, ctx, speed_jitter_mps=model.speed_jitter_mps)
    # build both sets before writing either: a failed build leaves no file behind
    if args.out_det is not None:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(1,)))
        direction = route.direction if route is not None else (1.0, 0.0)
        det = degrade(gt, model, ctx, rng=rng, route_direction=direction)
    write_points(args.out_gt, gt.all_points())
    n_gt = sum(len(f.points) for f in gt.frames)
    print(f"wrote {args.out_gt}: {n_gt} points, {len(gt.frames)} frames")

    if args.out_det is not None:
        write_points(args.out_det, det.all_points())
        n_det = sum(len(f.points) for f in det.frames)
        n_empty = sum(1 for f in det.frames if not f.points)
        print(f"wrote {args.out_det}: {n_det} points, {len(det.frames)} frames")
        if n_empty:
            print(
                f"note: {n_empty} empty detection frames are not representable "
                "in the point-per-row file format"
            )
    return 0


# --- parser ------------------------------------------------------------------


def _add_route_flags(p: argparse.ArgumentParser, with_defaults: bool) -> None:
    default = default_latency_route()
    p.add_argument(
        "--route",
        default=None,
        help="two points on the route line, 'x0,y0,x1,y1' in local meters "
        "(default: east through the origin)",
    )
    p.add_argument(
        "--window-start",
        type=float,
        default=default.window_start_m if with_defaults else None,
        help=f"constant-speed window start, arc meters (default {default.window_start_m:g})",
    )
    p.add_argument(
        "--window-end",
        type=float,
        default=default.window_end_m if with_defaults else None,
        help=f"constant-speed window end, arc meters (default {default.window_end_m:g})",
    )
    p.add_argument(
        "--speed",
        type=float,
        default=default.nominal_speed_mps if with_defaults else None,
        help=f"nominal constant speed v0 in m/s (default {default.nominal_speed_mps:g})",
    )
    p.add_argument(
        "--test-points",
        type=int,
        default=11,
        help=f"number of test points inside the window, 1 to {MAX_TEST_POINTS} (default 11)",
    )
    p.add_argument(
        "--speed-tol",
        type=float,
        default=0.1,
        help="fractional speed tolerance for window extraction (default 0.1)",
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file; flags win")
    p.add_argument(
        "--origin",
        default=None,
        help="projection origin 'lat,lon' (default: first gt point, 0.01 deg grid)",
    )
    p.add_argument(
        "--output-dir", default=".", help="directory for report files (default .)"
    )


def _add_latency_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--det", nargs="+", default=None, help="detection CSV file(s)")
    p.add_argument("--gt", nargs="+", default=None, help="ground-truth CSV file(s)")
    _add_route_flags(p, with_defaults=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_latency)


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--det", nargs="+", default=None, help="detection CSV file(s)")
    p.add_argument(
        "--gt",
        nargs="+",
        default=None,
        help="ground-truth CSV file(s); one file is shared across all trials",
    )
    p.add_argument("--trial-id", nargs="+", default=None, help="labels for the trials")
    p.add_argument(
        "--threshold", type=float, default=1.5, help="match threshold in m (default 1.5)"
    )
    p.add_argument(
        "--latency",
        type=float,
        default=None,
        help="latency in seconds; omit to estimate (needs route flags) or assume 0",
    )
    _add_scoring_flags(p)
    _add_route_flags(p, with_defaults=False)
    _add_common_flags(p)
    p.set_defaults(func=cmd_eval)


def _add_scoring_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--category", choices=CATEGORIES, default=None)
    p.add_argument(
        "--max-gap",
        type=float,
        default=None,
        help="frame alignment gap in s (default: half the median detection tick; "
        "half the median gt tick when under two detection frames, 0.5 s when "
        "neither side has two)",
    )
    p.add_argument(
        "--formats",
        default="table,json",
        help="comma list from table,csv,json (default table,json)",
    )


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--det", default=None, help="detection CSV file")
    p.add_argument("--gt", default=None, help="ground-truth CSV file")
    p.add_argument(
        "--thresholds",
        default=None,
        help="ascending comma list of thresholds in meters",
    )
    p.add_argument(
        "--latency", type=float, default=None, help="latency in seconds (see eval)"
    )
    _add_scoring_flags(p)
    _add_route_flags(p, with_defaults=False)
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep)


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--template", choices=TEMPLATES, required=True)
    p.add_argument("--duration", type=float, required=True, help="trial length in s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gt-rate", type=float, default=10.0, help="gt frames per second")
    p.add_argument(
        "--speeds", default="10.0", help="comma list of per-actor speeds in m/s"
    )
    p.add_argument("--out-gt", required=True, help="ground-truth CSV to write")
    p.add_argument("--out-det", default=None, help="detection CSV to write")
    p.add_argument("--latency-mean", type=float, default=0.0)
    p.add_argument("--latency-std", type=float, default=0.0)
    p.add_argument("--e1-along", type=float, default=0.0)
    p.add_argument("--e1-cross", type=float, default=0.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--speed-jitter", type=float, default=0.0)
    p.add_argument("--miss-prob", type=float, default=0.0)
    p.add_argument("--clutter-rate", type=float, default=0.0)
    p.add_argument("--id-switch-prob", type=float, default=0.0)
    p.add_argument("--det-rate", type=float, default=10.0)
    p.add_argument(
        "--route",
        default=None,
        help="route 'x0,y0,x1,y1' in local meters: latency_run drives it; every "
        "template takes its direction as the frame of --e1-along/--e1-cross",
    )
    p.add_argument("--window-start", type=float, default=None)
    p.add_argument("--window-end", type=float, default=None)
    p.add_argument("--speed", type=float, default=None)
    p.add_argument(
        "--origin",
        default=f"{DEFAULT_ORIGIN.lat_deg},{DEFAULT_ORIGIN.lon_deg}",
        help="projection origin 'lat,lon'",
    )
    p.set_defaults(func=cmd_synth)


_COMMANDS = {
    "latency": ("estimate reporting latency from paired constant-speed runs", _add_latency_flags),
    "eval": ("compute tracking metrics for trial file pairs", _add_eval_flags),
    "sweep": ("FP/FN rates over a threshold list", _add_sweep_flags),
    "synth": ("write synthetic ground-truth/detection files", _add_synth_flags),
}


def build_parser(
    command: str | None = None,
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommands', with only the named one's arguments
    (all when None): top-level help and errors read names and help alone."""
    parser = _Parser(
        prog=TOOL_NAME,
        description="Evaluate roadside perception output against RTK-GPS ground truth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name, help=text) for name, (text, _) in _COMMANDS.items()}
    for name, (_, add_flags) in _COMMANDS.items():
        if command in (None, name):
            add_flags(subparsers[name])
    return parser, subparsers


_CONFIG_SKIP_KEYS = {"func", "config", "command", "help"}


def _config_tokens(sp: argparse.ArgumentParser, cfg: dict[str, Any]) -> list[str]:
    """Config values as flag tokens, so argparse checks them like flags.

    A list fills a multi-value flag with one token per item; null keeps the
    flag's default.
    """
    actions = {
        a.dest: a for a in sp._actions if a.dest not in _CONFIG_SKIP_KEYS  # noqa: SLF001
    }
    unknown = set(cfg) - set(actions)
    if unknown:
        raise EvalError(f"unknown config keys: {sorted(unknown)}")
    tokens: list[str] = []
    for key, value in cfg.items():
        if value is None:
            continue
        flag = actions[key].option_strings[-1]
        if isinstance(value, list) and actions[key].nargs == "+":
            tokens += [flag, *map(_config_token, value)]
        else:
            tokens.append(f"{flag}={_config_token(value)}")
    return tokens


def _config_token(value: Any) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _apply_config_file(
    parser: argparse.ArgumentParser,
    subparsers: dict[str, argparse.ArgumentParser],
    argv: list[str],
    args: argparse.Namespace,
) -> argparse.Namespace:
    """Re-parse with the --config values inserted as flags right after the
    subcommand, so command-line flags come later and win."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise EvalError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise EvalError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise EvalError("config file must hold a JSON object")
    tokens = _config_tokens(subparsers[args.command], cfg)
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


@paused_gc()
def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # the command is the first token without a leading "-", as argparse reads it
    parser, subparsers = build_parser(next((a for a in argv if a[:1] != "-"), ""))
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _apply_config_file(parser, subparsers, argv, args)
        code = args.func(args)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvalError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"completed in {time.monotonic() - started:.2f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
