"""Golden outputs: eval, sweep and latency reproduce committed bytes.

A refactor that keeps the reported numbers keeps stdout, report.json,
metrics.csv and sweep.csv byte-identical on these cases. The inputs under
tests/data/ are committed rather than generated per run, so the expected
bytes do not depend on numpy's random stream. They were written by the
commands below, and test_inputs_regenerate checks that those commands still
write them byte for byte (that check does depend on the random stream):

    roadside-eval synth --template two_vehicle_plus_pedestrian --duration 20 \
        --seed 1 --noise-sigma 0.2 --miss-prob 0.05 --clutter-rate 0.5 \
        --id-switch-prob 0.01 --out-gt scene_gt.csv --out-det scene_det_a.csv
    (the same with --seed 2 and --out-det scene_det_b.csv; the gt is identical)
    roadside-eval synth --template latency_run --duration 31 --seed 42 \
        --latency-mean 0.1 --latency-std 0.02 --noise-sigma 0.05 \
        --out-gt lat_gt.csv --out-det lat_det_a.csv
    (the same with --seed 43 and --out-det lat_det_b.csv; the gt is identical)

scene_det_perframe.csv is scene_det_b.csv with the ids of a detector that
has no tracker: each distinct (timestamp, id) text pair, taken in sorted
order, is renamed to trk-NNNNNNN, the numbers drawn by
numpy.random.default_rng(11).choice(10 * n_pairs, n_pairs, replace=False).

A change that alters reported numbers on purpose regenerates
tests/data/golden/<case>/ by running the case's argv in a directory holding
the inputs: stdout goes to stdout.txt, the files under out/ next to it.
"""

from __future__ import annotations

import importlib
import shutil
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from roadside_eval.cli import main
from roadside_eval.core import TrajectorySet

DATA = Path(__file__).parent / "data"
INPUTS = (
    "scene_gt.csv",
    "scene_det_a.csv",
    "scene_det_b.csv",
    "lat_gt.csv",
    "lat_det_a.csv",
    "lat_det_b.csv",
    "scene_det_perframe.csv",
)
ALL_FORMATS = ["--formats", "table,csv,json", "--output-dir", "out"]

CASES = {
    # two trials sharing one gt file; latency defaults to 0
    "eval": ["eval", "--det", "scene_det_a.csv", "scene_det_b.csv",
             "--gt", "scene_gt.csv", *ALL_FORMATS],
    # latency estimated from the route flags
    "eval_estimated": ["eval", "--det", "lat_det_a.csv", "--gt", "lat_gt.csv",
                       "--speed", "10", *ALL_FORMATS],
    # latency provided
    "sweep": ["sweep", "--det", "scene_det_b.csv", "--gt", "scene_gt.csv",
              "--thresholds", "0.25,0.5,1.5,3.0", "--category", "vehicle",
              "--latency", "0.05", *ALL_FORMATS],
    # detection ids change every frame, so every detection track is one point
    "sweep_perframe_ids": ["sweep", "--det", "scene_det_perframe.csv",
                           "--gt", "scene_gt.csv", "--thresholds", "0.25,0.5,1.5,3.0",
                           "--category", "vehicle", "--latency", "0.05", *ALL_FORMATS],
    # the same per-frame ids through eval: tie-heavy association matrices
    "eval_perframe_ids": ["eval", "--det", "scene_det_perframe.csv", "--gt", "scene_gt.csv",
                          *ALL_FORMATS],
    "latency": ["latency", "--det", "lat_det_a.csv", "lat_det_b.csv",
                "--gt", "lat_gt.csv", "--output-dir", "out"],
}


# the synth commands in the module docstring, by the detection file they write
SYNTH = {
    f"scene_det_{trial}.csv": ["--template", "two_vehicle_plus_pedestrian", "--duration", "20",
                               "--seed", seed, "--noise-sigma", "0.2", "--miss-prob", "0.05",
                               "--clutter-rate", "0.5", "--id-switch-prob", "0.01",
                               "--out-gt", "scene_gt.csv"]
    for trial, seed in (("a", "1"), ("b", "2"))
} | {
    f"lat_det_{trial}.csv": ["--template", "latency_run", "--duration", "31", "--seed", seed,
                             "--latency-mean", "0.1", "--latency-std", "0.02",
                             "--noise-sigma", "0.05", "--out-gt", "lat_gt.csv"]
    for trial, seed in (("a", "42"), ("b", "43"))
}


@pytest.mark.parametrize("det", sorted(SYNTH))
def test_inputs_regenerate(det, tmp_path, monkeypatch):
    # swaps and clutter (scene_*) and latency jitter without them (lat_*);
    # the bytes follow numpy's random stream, like the Monte Carlo bit pin
    # in test_synth.py, so a numpy that changes the stream fails this too
    monkeypatch.chdir(tmp_path)
    assert main(["synth", *SYNTH[det], "--out-det", det]) == 0
    gt = SYNTH[det][-1]
    assert (tmp_path / gt).read_bytes() == (DATA / gt).read_bytes()
    assert (tmp_path / det).read_bytes() == (DATA / det).read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path, monkeypatch, capsys):
    check_golden(case, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("case", sorted(CASES))
def test_scoring_reads_parsed_columns_only(case, tmp_path, monkeypatch, capsys):
    # every command scores the columns, offsets and frame times the grouping
    # handed over: no pass over a set's frames or points after loading
    def refuse(*args):
        raise AssertionError("a pass over a set's frames")

    monkeypatch.setattr(TrajectorySet, "all_points", refuse)
    for name in ("columns", "offsets", "frame_times"):
        view = cached_property(refuse)
        view.__set_name__(TrajectorySet, name)
        monkeypatch.setattr(TrajectorySet, name, view)
    check_golden(case, tmp_path, monkeypatch, capsys)


# the functions whose call counts the benchmark's traced runs pin
# (perfbench/workloads.py's active layers, perfbench/test_smoke.py)
TRACED = (
    "ingest.read_points",
    "core.from_frames",
    "matching.match_frames_by_time",
    "matching.solve_assignment",
    "matching.linear_sum_assignment",
    "metrics.compute_report",
)


def count_traced_calls(monkeypatch) -> Counter:
    """Count calls through every roadside_eval module's binding of the
    TRACED functions, as the benchmark's tracer wraps them."""
    calls = Counter()
    for name in TRACED:
        module, attr = name.split(".")
        original = getattr(importlib.import_module(f"roadside_eval.{module}"), attr)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.split(".")[0] == "roadside_eval":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.mark.parametrize("case", ["eval", "sweep"])
def test_traced_calls_keep_the_benchmark_pins(case, tmp_path, monkeypatch, capsys):
    # the benchmark's traced runs fail when a layer they pin makes no call,
    # or eval stops reading 5 files and aligning twice per report
    calls = count_traced_calls(monkeypatch)
    check_golden(case, tmp_path, monkeypatch, capsys)
    assert calls["core.from_frames"] > 0 and calls["matching.solve_assignment"] > 0
    if case == "eval":
        assert calls["ingest.read_points"] == 5
        assert calls["matching.match_frames_by_time"] == 2 * calls["metrics.compute_report"] > 0
        assert calls["matching.linear_sum_assignment"] > 0


def check_golden(case, tmp_path, monkeypatch, capsys):
    for name in INPUTS:
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert main(CASES[case]) == 0
    expected = DATA / "golden" / case
    assert capsys.readouterr().out == (expected / "stdout.txt").read_text(encoding="utf-8")
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == sorted(p.name for p in expected.iterdir() if p.name != "stdout.txt")
    for name in written:
        assert (tmp_path / "out" / name).read_bytes() == (expected / name).read_bytes(), name
