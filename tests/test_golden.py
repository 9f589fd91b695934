"""Golden outputs: eval, sweep and latency reproduce committed bytes.

A refactor that keeps the reported numbers keeps stdout, report.json,
metrics.csv and sweep.csv byte-identical on these cases. The inputs under
tests/data/ are committed rather than generated per run, so the expected
bytes do not depend on numpy's random stream. They were written by:

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

import shutil
from pathlib import Path

import pytest

from roadside_eval.cli import main

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
    "latency": ["latency", "--det", "lat_det_a.csv", "lat_det_b.csv",
                "--gt", "lat_gt.csv", "--output-dir", "out"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path, monkeypatch, capsys):
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
