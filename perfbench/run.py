#!/usr/bin/env python3
"""Benchmark of roadside-eval: seeded workloads, measured from outside.

usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Workloads are defined in workloads.py. A run generates the workload's inputs
from the seed (untimed), then runs a closed loop with one client: each
command runs in a fresh interpreter (child.py), and the next starts only
after the previous one exits. The loop runs for --seconds, and for at least
MIN_REPS commands. Every command's output is checked; a command that fails
any check counts in ``failed``.

--trace 0 prints the end-to-end metrics, from medians over the commands of
a run:

    wall_rel        wall time of a command (spawn of its interpreter to its
                    exit) over the reference time
    setup_s         spawn to the end of importing roadside_eval.cli (.synth
                    for mc_variance), in seconds
    throughput_rel  work per reference time after set-up: input rows for the
                    CLI workloads, Monte Carlo runs for mc_variance
    peak_rss_mb     the command's peak resident memory

The reference time is the median, over the run, of the time a fresh
interpreter takes to import numpy and scipy.optimize, the program's
dependencies; one such reference child runs before each command, and every
child of a run is pinned to the same CPU. On a shared host the speed of each
CPU drifts from one minute to the next, for the program and the reference
alike, so their ratio repeats where the seconds do not. The reference never
runs program code. The seconds (median wall_s, post_s, ref_s) go to standard
error, to the --workload all table and to the results file.

--trace 1 alternates untraced and traced commands and prints the per-layer
metrics of the traced ones (see child.py and spans.py), plus the tracing
overhead as traced over untraced throughput.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--workload
all`` a table of every workload's metrics and error rate comes first, and
the last line maps each workload to its result object. Run metadata (machine,
versions, ``src/`` line count, commit) goes to standard error and, with all
samples, to .perfbench_work/results/. Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

MIN_REPS = 3  # commands per run (per kind with --trace 1), however long they take
RUN_BUDGET_S = 150.0  # no new command starts after this, so a run ends within 180 s

# BLAS and OpenMP pools would add threads beyond the CLI's own two workers
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
E2E_UNITS = {"wall_rel": "ratio", "setup_s": "s", "throughput_rel": "1/ref", "peak_rss_mb": "MB"}
REFERENCE_ENTRY = "scipy.optimize"  # imports numpy too; see the module docstring
# per-layer metrics that must read the same in every traced command of a run
EXACT_REPEAT = (
    "ingest.read_points.calls",
    "matching.lsap_per_solve",
    "metrics.alignments_per_report",
    "core.project_per_row",
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --- metadata ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when ROOT is not itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "git_commit": _git_commit(),
    }


# --- one command -------------------------------------------------------------


def spawn(work: Path, spec_path: Path, deadline: float) -> tuple[dict | None, str | None]:
    """Run one child; return its timings, or None and the reason it failed."""
    result_path = work / "result.json"
    for stale in (result_path, work / "out" / "report.json"):
        stale.unlink(missing_ok=True)
    with open(work / "child.stderr", "w", encoding="utf-8") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            cwd=work,
            env=CHILD_ENV,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        # a blocking wait sees the exit at once; wait(timeout=...) polls in
        # steps of up to 50 ms, which would show in wall_s
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        killer = threading.Timer(max(deadline - t_spawn, 1.0), kill)
        killer.start()
        try:
            code = proc.wait()
            t_exit = time.monotonic()
        finally:
            killer.cancel()
            killer.join()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if timed_out.is_set():
        return None, "timed out"
    if code != 0 or not result_path.exists():
        tail = (work / "child.stderr").read_text(encoding="utf-8").strip().splitlines()[-3:]
        return None, f"exit code {code}: {' | '.join(tail)}"
    r = json.loads(result_path.read_text(encoding="utf-8"))
    r["wall_s"] = t_exit - t_spawn
    r["setup_s"] = r["t_imported"] - t_spawn
    r["post_s"] = r["t_end"] - r["t_imported"]
    r["rss_mb"] = r["rss_kb"] / 1024.0
    return r, None


# --- one run -----------------------------------------------------------------


class Run:
    """The commands of one (workload, seed) run and the checks on them."""

    def __init__(self, name: str, seed: int, trace: bool, smoke: bool) -> None:
        import workloads

        tag = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
        self.work = WORK_DIR / tag
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "out").mkdir(parents=True)
        self.tag = tag
        self.wl = workloads.WORKLOADS[name](self.work, seed, smoke)
        self.specs = {}
        for kind, flags in {
            "import": {"trace": False, "import_only": True},
            "plain": {"trace": False, "import_only": False},
            "traced": {"trace": True, "import_only": False},
            "reference": {"trace": False, "import_only": True, "entry": REFERENCE_ENTRY},
        }.items():
            spec = {"src": str(ROOT / "src"), "entry": self.wl.entry, "argv": self.wl.argv, "mc": self.wl.mc, **flags}
            path = self.work / f"spec-{kind}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            self.specs[kind] = path
        self.reference: bytes | None = None
        self.first_counts: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.ref: list[float] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []

    def _fail(self, msg: str) -> None:
        self.problems.append(msg)
        log(f"[{self.tag}] check failed: {msg}")

    def command(self, kind: str, deadline: float) -> None:
        """Run one timed command and check everything it produced."""
        self.attempted += 1
        r, err = spawn(self.work, self.specs[kind], deadline)
        problems = [err] if err else []
        if r is not None:
            report = self.work / "out" / "report.json"
            data = report.read_bytes() if report.exists() else None
            if data is None:
                problems.append("no report.json")
            elif self.reference is None:
                self.reference = data
            elif data != self.reference:
                problems.append(f"{kind} report.json differs from the run's first report")
            if data is not None:
                problems += self.wl.check(json.loads(data))
            if kind == "traced":
                problems += self._check_layers(r["layers"])
        if problems:
            self.failed += 1
            for p in problems:
                self._fail(p)
            return
        if kind == "plain":
            self.plain.append(r)
            self.setup.append(r["setup_s"])
        else:
            self.traced.append(r)

    def _check_layers(self, layers: dict) -> list[str]:
        problems = [f"layer counter {m} is zero" for m in self.wl.active if layers[m][0] == 0]
        counts = {
            k: v[0] for k, v in layers.items() if k in EXACT_REPEAT or v[1] == "count"
        }
        if self.first_counts is None:
            self.first_counts = counts
        else:
            problems += [
                f"{k} = {v} but {self.first_counts[k]} in the first traced command"
                for k, v in counts.items()
                if v != self.first_counts[k]
            ]
        return problems

    def measure(self, seconds: float, trace: bool) -> None:
        # Each vCPU of a shared host slows down on its own, when another
        # tenant loads the core under it. The children inherit this pin, so
        # the reference runs on the CPU that the commands run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        started = time.monotonic()
        stop_by = started + RUN_BUDGET_S
        deadline = started + 170.0
        _, err = spawn(self.work, self.specs["import"], deadline)  # warm-up: bytecode and page caches
        if err:
            self._fail(f"import-only child: {err}")
        loop_start = time.monotonic()
        rounds = 0
        while time.monotonic() < stop_by:
            if rounds >= MIN_REPS and time.monotonic() - loop_start >= seconds:
                break
            rounds += 1
            if not trace:
                r, err = spawn(self.work, self.specs["reference"], deadline)
                if err:
                    self._fail(f"reference child: {err}")
                else:
                    self.ref.append(r["setup_s"])
            self.command("plain", deadline)
            if trace:
                self.command("traced", deadline)
        if len(self.plain) < MIN_REPS or len(self.traced if trace else self.ref) < MIN_REPS:
            self._fail("too few successful commands within the run budget")

    def seconds(self) -> dict[str, float]:
        """Medians, in seconds, over the untraced commands and the reference children."""
        med = statistics.median
        out = {k: med(r[k] for r in self.plain) for k in ("wall_s", "post_s")} if self.plain else {}
        if self.ref:
            out["ref_s"] = med(self.ref)
        return out

    def metrics(self, trace: bool) -> dict:
        med = statistics.median
        if not self.plain or not (self.traced if trace else self.ref):
            return {}
        if not trace:
            sec = self.seconds()
            values = {
                "wall_rel": sec["wall_s"] / sec["ref_s"],
                "setup_s": med(self.setup),
                "throughput_rel": self.wl.units * sec["ref_s"] / sec["post_s"],
                "peak_rss_mb": med(r["rss_mb"] for r in self.plain),
            }
            return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        out = {}
        for name, (_, unit) in self.traced[0]["layers"].items():
            out[name] = {"value": med(r["layers"][name][0] for r in self.traced), "unit": unit}
        ratio = med(r["post_s"] for r in self.plain) / med(r["post_s"] for r in self.traced)
        out["trace.throughput_ratio"] = {"value": ratio, "unit": "ratio"}
        return out


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_json()["per_layer" if trace else "end_to_end"]}


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool, meta: dict) -> tuple[dict, dict]:
    """Measure one run; return its result object and its medians in seconds."""
    run = Run(name, seed, trace, smoke)
    run.measure(seconds, trace)
    metrics = run.metrics(trace)
    declared = declared_metrics(trace)
    printed = {k: v["unit"] for k, v in metrics.items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(k for k in set(printed) & set(declared) if printed[k] != declared[k])
        run._fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    samples = {"setup_s": run.setup, "ref_s": run.ref, "plain": run.plain, "traced": run.traced}
    medians = run.seconds()
    record = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke, "seconds": seconds,
              "units_per_command": run.wl.units, "metadata": meta, "problems": run.problems,
              "medians": medians, "samples": samples, "result": result}
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run.tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    n = len(run.traced if trace else run.plain)
    log(f"[{run.tag}] {n} commands measured, {len(run.setup)} set-up samples, "
        f"{run.attempted} attempted, {run.failed} failed")
    for k, v in medians.items():
        log(f"[{run.tag}]   median {k} = {v:.6g} s")
    for k, v in metrics.items():
        log(f"[{run.tag}]   {k} = {v['value']:.6g} {v['unit']}")
    return result, medians


def main(argv: list[str] | None = None) -> int:
    names = tuple(w["name"] for w in benchmark_json()["workloads"])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "roadside_eval" / "__init__.py").is_file():
        log(f"error: {ROOT / 'src' / 'roadside_eval'} not found; run from a roadside-eval checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import roadside_eval

    if Path(roadside_eval.__file__).resolve().parent != ROOT / "src" / "roadside_eval":
        log(f"error: imported {roadside_eval.__file__}, not the tree under test")
        return 2
    meta = metadata()
    log("metadata " + json.dumps(meta, sort_keys=True))
    if args.workload != "all":
        names = (args.workload,)
    runs = {n: run_one(n, args.seed, args.seconds, bool(args.trace), args.smoke, meta) for n in names}
    results = {n: result for n, (result, _) in runs.items()}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0 if results[args.workload]["correct"] else 1
    for name, (res, medians) in runs.items():
        rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
        rows += [(f"median {k}", v, "s") for k, v in medians.items()]
        rows.append(("error_rate", res["failed"] / res["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:18s} {metric:36s} {value:14.6g} {unit}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
