"""Run one benchmark command in a fresh interpreter and report its timings.

usage: python3 child.py SPEC.json RESULT.json

SPEC names the source tree to import, the module to import before the
command starts (`roadside_eval.cli` or `roadside_eval.synth`), and either
CLI arguments or Monte Carlo parameters. The command writes
`out/report.json` in the working directory. RESULT receives monotonic time
stamps after the import and after the command (comparable with the parent's
clock on Linux), the exit code, peak RSS and, when SPEC asks for tracing,
the per-layer metrics.

With "import_only" set the child stops after the import; the parent runs
one such child per run as a warm-up of the bytecode and page caches. The
reference child (entry `scipy.optimize`) imports only the program's
dependencies, and its import time is the parent's unit of machine speed.
"""

import importlib
import json
import os
import resource
import sys
import time


def _percentile_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (module, function, metric prefix, kind); kind "count" skips time stamps
# for leaf functions called per point.
TARGETS = (
    ("roadside_eval.ingest", "read_points", "ingest.read_points", "timed"),
    ("roadside_eval.core", "build_trajectory_set", "core.build_trajectory_set", "timed"),
    ("roadside_eval.core", "filter_category", "core.filter_category", "timed"),
    ("roadside_eval.core", "from_frames", "core.from_frames", "timed"),
    ("roadside_eval.core", "trajectory_arrays", "core.trajectory_arrays", "timed"),
    ("roadside_eval.core", "project", "core.project", "count"),
    ("roadside_eval.matching", "match_frames_by_time", "matching.match_frames_by_time", "timed"),
    ("roadside_eval.matching", "point_match", "matching.point_match", "timed"),
    ("roadside_eval.matching", "association_match", "matching.association_match", "timed"),
    ("roadside_eval.matching", "count_id_switches", "matching.count_id_switches", "timed"),
    ("roadside_eval.matching", "solve_assignment", "matching.solve_assignment", "timed"),
    ("roadside_eval.matching", "linear_sum_assignment", "matching.lsap", "count"),
    ("roadside_eval.metrics", "compute_report", "metrics.compute_report", "timed"),
    ("roadside_eval.metrics", "threshold_sweep", "metrics.threshold_sweep", "timed"),
    ("roadside_eval.latency", "collect_tau_samples", "latency.collect_tau_samples", "timed"),
    ("roadside_eval.latency", "find_constant_speed_windows", "latency.find_constant_speed_windows", "timed"),
    ("roadside_eval.latency", "sample_tau", "latency.sample_tau", "timed"),
    ("roadside_eval.latency", "estimate_position_error", "latency.estimate_position_error", "timed"),
    ("roadside_eval.synth", "generate_scenario", "synth.generate_scenario", "timed"),
    ("roadside_eval.synth", "degrade", "synth.degrade", "timed"),
    ("roadside_eval.synth", "monte_carlo_validate", "synth.monte_carlo_validate", "timed"),
)

HOOKS = {
    "ingest.read_points": lambda a, k, r: {"ingest.rows": len(r[0])},
    "matching.match_frames_by_time": lambda a, k, r: {
        "matching.frame_pairs": len(r.pairs),
        "matching.fp_only_frames": len(r.fp_only),
        "matching.dropped_frames": r.n_dropped,
    },
    "latency.collect_tau_samples": lambda a, k, r: {"latency.tau_samples": len(r)},
    "synth.monte_carlo_validate": lambda a, k, r: {"synth.mc_usable_runs": r.n_runs},
}


def install_tracing(recorder) -> None:
    import spans

    for module, attr, name, kind in TARGETS:
        if kind == "count":
            wrap = lambda fn, name=name: recorder.counted(name, fn)  # noqa: E731
        else:
            wrap = lambda fn, name=name: recorder.timed(  # noqa: E731
                name,
                fn,
                hook=HOOKS.get(name),
                keep_durations=name == "matching.solve_assignment",
            )
        if spans.install(module, attr, wrap) == 0:
            raise LookupError(f"{module}.{attr} is bound nowhere")


def layer_metrics(s: dict, imports: dict, requested_runs: int) -> dict:
    """Per-layer metrics of one traced command, as {name: [value, unit]}."""
    calls, total, self_s, counts = s["calls"], s["total_s"], s["self_s"], s["counts"]
    m: dict = {
        "cli.import_s": [imports["package"], "s"],
        "cli.import_scipy_s": [imports["scipy"], "s"],
        "cli.main.s": [s["root_total_s"], "s"],
        "cli.self_s": [s["root_self_s"], "s"],
    }
    for _module, _attr, name, kind in TARGETS:
        m[name + ".calls"] = [calls.get(name, 0), "count"]
        if kind == "timed":
            m[name + ".s"] = [total.get(name, 0.0), "s"]
    rows = counts.get("ingest.rows", 0)
    solves = calls.get("matching.solve_assignment", 0)
    durations = s["durations"].get("matching.solve_assignment", [])
    tau_calls = calls.get("latency.sample_tau", 0)
    m.update(
        {
            "ingest.rows": [rows, "count"],
            "ingest.rows_per_s": [_ratio(rows, total.get("ingest.read_points", 0.0)), "1/s"],
            "core.project_per_row": [_ratio(calls.get("core.project", 0), rows), "ratio"],
            "matching.solve_assignment.p50_ms": [_percentile_ms(durations, 0.50), "ms"],
            "matching.solve_assignment.p99_ms": [_percentile_ms(durations, 0.99), "ms"],
            "matching.solve_assignment.share": [
                _ratio(total.get("matching.solve_assignment", 0.0), s["root_total_s"]),
                "ratio",
            ],
            "matching.lsap_per_solve": [_ratio(calls.get("matching.lsap", 0), solves), "ratio"],
            "matching.frame_pairs": [counts.get("matching.frame_pairs", 0), "count"],
            "matching.fp_only_frames": [counts.get("matching.fp_only_frames", 0), "count"],
            "matching.dropped_frames": [counts.get("matching.dropped_frames", 0), "count"],
            "metrics.compute_report.self_s": [self_s.get("metrics.compute_report", 0.0), "s"],
            "metrics.threshold_sweep.self_s": [self_s.get("metrics.threshold_sweep", 0.0), "s"],
            "metrics.alignments_per_report": [
                _ratio(
                    calls.get("matching.match_frames_by_time", 0),
                    calls.get("metrics.compute_report", 0),
                ),
                "ratio",
            ],
            "latency.sample_tau.useful_frac": [
                _ratio(tau_calls - counts.get("latency.sample_tau.raised", 0), tau_calls),
                "ratio",
            ],
            "latency.tau_samples": [counts.get("latency.tau_samples", 0), "count"],
            "synth.monte_carlo_validate.self_s": [
                self_s.get("synth.monte_carlo_validate", 0.0),
                "s",
            ],
            "synth.mc_usable_frac": [
                _ratio(counts.get("synth.mc_usable_runs", 0), requested_runs),
                "ratio",
            ],
        }
    )
    return m


def run_command(spec: dict, entry) -> int:
    os.makedirs("out", exist_ok=True)
    if spec["mc"] is None:
        return entry.main(spec["argv"])
    mc = spec["mc"]
    model = entry.ErrorModel(**mc["model"])
    route = entry.default_latency_route(mc["v0_mps"], window_m=mc["window_m"])
    cmp = entry.monte_carlo_validate(
        model,
        route,
        n_runs=mc["n_runs"],
        master_seed=mc["master_seed"],
        gt_rate_hz=mc["gt_rate_hz"],
    )
    doc = {k: getattr(cmp, k) for k in type(cmp).__dataclass_fields__}
    with open(os.path.join("out", "report.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result_path = sys.argv[2]
    sys.path.insert(0, spec["src"])
    imports = {"scipy": 0.0, "package": 0.0}
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        t = time.monotonic()
        import scipy.optimize  # noqa: F401

        imports["scipy"] = time.monotonic() - t
    t = time.monotonic()
    entry = importlib.import_module(spec["entry"])
    t_imported = time.monotonic()
    imports["package"] = t_imported - t
    in_tree = os.path.abspath(entry.__file__).startswith(os.path.abspath(spec["src"]) + os.sep)
    if spec["entry"].startswith("roadside_eval") and not in_tree:
        print(f"imported {entry.__file__}, not the tree under test", file=sys.stderr)
        return 3
    result = {"t_imported": t_imported}
    code = 0
    if not spec["import_only"]:
        if recorder is not None:
            install_tracing(recorder)
            with recorder.root():
                code = run_command(spec, entry)
            requested = spec["mc"]["n_runs"] if spec["mc"] else 0
            result["layers"] = layer_metrics(recorder.summary(), imports, requested)
        else:
            code = run_command(spec, entry)
    result["t_end"] = time.monotonic()
    result["exit_code"] = code
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
