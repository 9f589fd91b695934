"""Command-line behavior: subcommands, formats, config files, exit codes."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import random
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadside_eval.cli as cli_mod
from roadside_eval.cli import main
from roadside_eval.core import (
    DataFrame,
    DataPoint,
    GeoPoint,
    build_trajectory_set,
    from_frames,
    paused_gc,
)
from roadside_eval.ingest import read_points
from roadside_eval.errors import EvalError
from roadside_eval.synth import TEMPLATES, default_latency_route, min_round_trip_duration_s
from test_golden import CASES as GOLDEN_CASES, INPUTS as GOLDEN_INPUTS

GT_HEADER = "timestamp,lat,lon,category,id\n"
DATA = Path(__file__).parent / "data"
SCENE = ["--det", str(DATA / "scene_det_a.csv"), "--gt", str(DATA / "scene_gt.csv")]


def strict_json(path: Path):
    """report.json parsed as JSON proper: NaN and Infinity tokens raise."""
    def refuse(token: str):
        raise ValueError(f"{token} is not a JSON value")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Shared synthetic fixture files, generated once through the CLI."""
    d = tmp_path_factory.mktemp("cli-data")
    route = default_latency_route(10.0)
    dur = min_round_trip_duration_s(route)
    rc = main([
        "synth", "--template", "latency_run", "--duration", str(dur),
        "--seed", "42", "--latency-mean", "0.1", "--noise-sigma", "0.05",
        "--out-gt", str(d / "lat_gt.csv"), "--out-det", str(d / "lat_det.csv"),
    ])
    assert rc == 0
    rc = main([
        "synth", "--template", "two_vehicle_plus_pedestrian",
        "--duration", "30", "--seed", "7",
        "--out-gt", str(d / "scene_gt.csv"),
    ])
    assert rc == 0
    rc = main([
        "synth", "--template", "two_vehicle_plus_pedestrian",
        "--duration", "30", "--seed", "7", "--noise-sigma", "0.3",
        "--out-gt", str(d / "noisy_gt.csv"), "--out-det", str(d / "noisy_det.csv"),
    ])
    assert rc == 0
    return d


def table_rows(out: str) -> list[list[str]]:
    lines = [l for l in out.splitlines() if l.strip()]
    start = next(i for i, l in enumerate(lines) if l.startswith("Trial"))
    return [re.split(r"\s{2,}", l.strip()) for l in lines[start:]]


class TestSynthCommand:
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_same_seed_byte_identical(self, tmp_path, capsys, template):
        args = [
            "synth", "--template", template,
            "--duration", "20", "--seed", "3", "--noise-sigma", "0.2",
            "--miss-prob", "0.1",
        ]
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            rc = main(args + [
                "--out-gt", str(tmp_path / d / "gt.csv"),
                "--out-det", str(tmp_path / d / "det.csv"),
            ])
            assert rc == 0
        assert (tmp_path / "a/gt.csv").read_bytes() == (tmp_path / "b/gt.csv").read_bytes()
        assert (tmp_path / "a/det.csv").read_bytes() == (tmp_path / "b/det.csv").read_bytes()

    def test_reports_point_counts(self, tmp_path, capsys):
        rc = main([
            "synth", "--template", "vehicle_plus_pedestrian",
            "--duration", "10", "--seed", "1",
            "--out-gt", str(tmp_path / "gt.csv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gt.csv" in out and "points" in out and "frames" in out

    def test_empty_frame_note(self, tmp_path, capsys):
        rc = main([
            "synth", "--template", "two_vehicle_plus_pedestrian",
            "--duration", "20", "--seed", "2", "--miss-prob", "0.9",
            "--out-gt", str(tmp_path / "gt.csv"),
            "--out-det", str(tmp_path / "det.csv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "empty detection frames" in out

    # the overflowing speed reaches NaN positions without a numpy warning:
    # the range error is the only report
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("template, duration, speed, reach", [
        ("vehicle_plus_pedestrian", "600", "40", "12000"),
        ("one_vehicle_maneuver", "100", "1e307", "nan"),
        ("two_vehicle_plus_pedestrian", "100", "1e307", "nan"),
    ])
    def test_actor_beyond_projection_range_exits_one(
        self, tmp_path, capsys, template, duration, speed, reach
    ):
        rc = main([
            "synth", "--template", template, "--duration", duration,
            "--speeds", speed, "--seed", "1",
            "--out-gt", str(tmp_path / "gt.csv"), "--out-det", str(tmp_path / "det.csv"),
        ])
        assert rc == 1
        assert f"error: {template}: veh-01 reaches {reach} m" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("det", ["g.csv", "./sub/../g.csv"])
    def test_detections_over_the_truth_file_exit_one(self, tmp_path, capsys, monkeypatch, det):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        rc = main(["synth", "--template", "latency_run", "--duration", "30",
                   "--out-gt", "g.csv", "--out-det", det])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: --out-det and --out-gt name the same file: {det}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_origin_out_of_range_exits_one(self, tmp_path, capsys):
        rc = main(["synth", "--template", "latency_run", "--duration", "30",
                   "--origin", "0,200", "--out-gt", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "error: longitude out of range: 200.0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_zero_duration_fails(self, tmp_path, capsys):
        rc = main([
            "synth", "--template", "latency_run", "--duration", "0",
            "--seed", "1", "--out-gt", str(tmp_path / "gt.csv"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_template_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "synth", "--template", "parade", "--duration", "10",
                "--out-gt", str(tmp_path / "gt.csv"),
            ])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag, value, field", [
        ("--det-rate", "inf", "det_rate_hz"),
        ("--duration", "inf", "duration_s"),
        ("--gt-rate", "inf", "gt_rate_hz"),
        ("--e1-along", "nan", "offset_e1_m"),
        ("--latency-mean", "inf", "latency_mean_s"),
        ("--noise-sigma", "nan", "noise_sigma_m"),
        ("--seed", "-1", "rng_seed"),
        ("--speeds", "x", "--speeds"),
        ("--speeds", ",", "--speeds"),
        ("--speeds", "", "--speeds"),
    ])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, flag, value, field):
        rc = main([
            "synth", "--template", "latency_run", "--duration", "60",
            "--out-gt", str(tmp_path / "gt.csv"), "--out-det", str(tmp_path / "det.csv"),
            flag, value,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err and "Traceback" not in err
        assert not (tmp_path / "det.csv").exists()

    @pytest.mark.parametrize("flag", ["--window-start", "--window-end", "--speed"])
    def test_window_and_speed_flags_need_latency_run(self, tmp_path, capsys, flag):
        rc = main([
            "synth", "--template", "two_vehicle_plus_pedestrian", "--duration", "10",
            "--out-gt", str(tmp_path / "gt.csv"), flag, "5",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {flag} " in err and "Traceback" not in err
        assert not (tmp_path / "gt.csv").exists()

    def test_route_of_another_template_sets_only_the_offset_frame(self, tmp_path, capsys):
        base = ["synth", "--template", "two_vehicle_plus_pedestrian", "--duration", "10",
                "--seed", "4", "--e1-along", "1.0"]
        for name, extra in (("east", []), ("north", ["--route", "0,0,0,1"])):
            rc = main(base + extra + ["--out-gt", str(tmp_path / f"gt_{name}.csv"),
                                      "--out-det", str(tmp_path / f"det_{name}.csv")])
            assert rc == 0
        assert (tmp_path / "gt_east.csv").read_bytes() == (tmp_path / "gt_north.csv").read_bytes()
        assert (tmp_path / "det_east.csv").read_bytes() != (tmp_path / "det_north.csv").read_bytes()

    # both flags restate the default route, so the gt must not change
    @pytest.mark.parametrize("flags", [
        ["--route", "0,0,1,0"],
        ["--window-start", "-30"],
    ], ids=["route", "window-start"])
    def test_route_flags_drive_at_the_first_of_speeds(self, tmp_path, flags):
        base = ["synth", "--template", "latency_run", "--duration", "60", "--speeds", "5"]
        assert main(base + ["--out-gt", str(tmp_path / "plain.csv")]) == 0
        assert main(base + flags + ["--out-gt", str(tmp_path / "routed.csv")]) == 0
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "routed.csv").read_bytes()

    # sizes above 2**47 bytes, so the allocation fails at once on any machine
    @pytest.mark.parametrize("flags", [
        ["--gt-rate", "1e13"],
        ["--det-rate", "1e13"],
    ], ids=["gt-rate", "det-rate"])
    def test_request_too_large_to_allocate_exits_one(self, tmp_path, capsys, flags):
        rc = main([
            "synth", "--template", "latency_run", "--duration", "30",
            "--out-gt", str(tmp_path / "gt.csv"), "--out-det", str(tmp_path / "det.csv"),
            *flags,
        ])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "error: " in err and "Traceback" not in err
        # both sets are built before either is written: no half pair is left
        assert out == ""
        assert not (tmp_path / "det.csv").exists() and not (tmp_path / "gt.csv").exists()

    # finite flags whose tick count is not: int() of it would overflow
    @pytest.mark.parametrize("flags, fields", [
        (["--duration", "1e308"], "duration_s * gt_rate_hz"),
        (["--det-rate", "1e308"], "gt time span * det_rate_hz"),
    ], ids=["duration", "det-rate"])
    def test_infinite_tick_count_exits_one(self, tmp_path, capsys, flags, fields):
        rc = main([
            "synth", "--template", "latency_run", "--duration", "60",
            "--out-gt", str(tmp_path / "gt.csv"), "--out-det", str(tmp_path / "det.csv"),
            *flags,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {fields} overflows" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestLatencyCommand:
    def test_recovers_injected_latency(self, data_dir, tmp_path, capsys):
        rc = main([
            "latency", "--det", str(data_dir / "lat_det.csv"),
            "--gt", str(data_dir / "lat_gt.csv"),
            "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        m = re.search(r"combined mean:\s+([0-9.]+) s", out)
        assert m, out
        assert float(m.group(1)) == pytest.approx(0.1, abs=0.005)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["command"] == "latency"
        assert doc["latency"]["mean_s"] == pytest.approx(0.1, abs=0.005)
        assert doc["latency"]["n_samples"] >= 20

    def test_missing_flags_exit_one(self, data_dir, capsys):
        rc = main(["latency", "--gt", str(data_dir / "lat_gt.csv")])
        assert rc == 1
        assert "--det is required" in capsys.readouterr().err

    def test_empty_detections_no_samples(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(GT_HEADER)
        rc = main([
            "latency", "--det", str(empty),
            "--gt", str(data_dir / "lat_gt.csv"),
            "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--window-start", "window_start_m"), ("--window-end", "window_end_m"),
        ("--speed", "nominal_speed_mps"),
    ])
    def test_non_finite_route_exits_one_naming_the_field(
        self, data_dir, tmp_path, capsys, flag, field
    ):
        rc = main([
            "latency", "--det", str(data_dir / "lat_det.csv"),
            "--gt", str(data_dir / "lat_gt.csv"),
            "--output-dir", str(tmp_path), flag, "nan",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {field} must be finite" in err and "Traceback" not in err

    def test_coincident_route_endpoints_exit_one(self, tmp_path, capsys):
        rc = main([
            "latency", "--det", str(DATA / "lat_det_a.csv"), "--gt", str(DATA / "lat_gt.csv"),
            "--output-dir", str(tmp_path), "--route", "1,2,1,2",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: route endpoints coincide\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n", ["1001", "100000000", "100000000000000"])
    def test_too_many_test_points_exits_one(self, tmp_path, capsys, n):
        # the bound is checked before anything is allocated for the points
        rc = main([
            "latency", "--det", str(DATA / "lat_det_a.csv"), "--gt", str(DATA / "lat_gt.csv"),
            "--output-dir", str(tmp_path), "--test-points", n,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: at most 1000 test points, got {n}" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_far_origin_exits_one_naming_the_point(self, data_dir, tmp_path, capsys):
        # about 55.6 km north of the data, with the route moved along, so
        # that the estimate itself would still succeed
        rc = main([
            "latency", "--det", str(data_dir / "lat_det.csv"),
            "--gt", str(data_dir / "lat_gt.csv"),
            "--origin", "42.8,-83.7", "--route", "0,-55600,1,-55600",
            "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        _, lat, lon, *_ = (data_dir / "lat_det.csv").read_text().splitlines()[1].split(",")
        assert f"error: point GeoPoint(lat_deg={float(lat)!r}, lon_deg={float(lon)!r}) is " in err
        assert "flat-plane validity ends at 10000 m" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


class TestEvalCommand:
    def test_inverted_window_exits_one(self, tmp_path, capsys):
        rc = main([
            "eval", *SCENE, "--output-dir", str(tmp_path),
            "--window-start", "5", "--window-end", "1",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: window_start_m must be below window_end_m\n"
        assert not list(tmp_path.iterdir())

    def test_perfect_detection_row(self, data_dir, tmp_path, capsys):
        gt = data_dir / "scene_gt.csv"
        rc = main([
            "eval", "--det", str(gt), "--gt", str(gt),
            "--trial-id", "trial-1", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        rows = table_rows(capsys.readouterr().out)
        assert rows[0] == [
            "Trial", "Category", "FP Rate %", "FN Rate %", "IDS",
            "MOTA %", "MOTP (m)", "IDF1 %", "HOTA %",
        ]
        # one row per category present, perfect scores everywhere
        body = rows[2:]
        assert [r[1] for r in body] == ["pedestrian", "vehicle"]
        for r in body:
            assert r[0] == "trial-1"
            assert r[2:] == ["0.0", "0.0", "0", "100.0", "0.000", "100.0", "100.0"]

    def test_report_json_byte_identical(self, data_dir, tmp_path):
        gt = data_dir / "noisy_gt.csv"
        det = data_dir / "noisy_det.csv"
        args = [
            "eval", "--det", str(det), "--gt", str(gt),
            "--output-dir", str(tmp_path),
        ]
        assert main(args) == 0
        first = (tmp_path / "report.json").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "report.json").read_bytes() == first

    def test_category_absent_exits_one(self, data_dir, tmp_path, capsys):
        gt = data_dir / "lat_gt.csv"  # vehicle only
        rc = main([
            "eval", "--det", str(gt), "--gt", str(gt),
            "--category", "pedestrian", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "no ground truth in category" in capsys.readouterr().err

    def test_undefined_motp_rendered_as_dash(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(GT_HEADER)
        rc = main([
            "eval", "--det", str(empty), "--gt", str(data_dir / "scene_gt.csv"),
            "--category", "vehicle", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        row = table_rows(capsys.readouterr().out)[2]
        assert row[6] == "—"      # MOTP undefined without matches
        assert row[3] == "100.0"  # everything missed
        assert row[5] == "0.0"    # MOTA 0, not undefined

    def test_metrics_csv_format(self, data_dir, tmp_path, capsys):
        gt = data_dir / "scene_gt.csv"
        rc = main([
            "eval", "--det", str(gt), "--gt", str(gt),
            "--formats", "csv", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("schema_version,trial_id,category,fp_rate_pct")
        assert len(lines) == 3
        assert not (tmp_path / "report.json").exists()

    def test_latency_flag_applied(self, data_dir, tmp_path):
        # evaluating clean gt against itself with a bogus latency must
        # misalign every frame pair; latency 0 keeps them perfect
        gt = data_dir / "scene_gt.csv"
        rc = main([
            "eval", "--det", str(gt), "--gt", str(gt), "--latency", "0.35",
            "--category", "vehicle", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["latency"]["source"] == "provided"
        assert doc["reports"][0]["motp_m"] is None or doc["reports"][0]["motp_m"] > 0.5

    def test_bad_threshold_exits_one(self, data_dir, tmp_path, capsys):
        gt = data_dir / "scene_gt.csv"
        rc = main([
            "eval", "--det", str(gt), "--gt", str(gt),
            "--threshold", "-2", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--threshold", "--max-gap"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_one(self, data_dir, tmp_path, capsys, flag, value):
        rc = main([
            "eval", "--det", str(data_dir / "noisy_det.csv"),
            "--gt", str(data_dir / "noisy_gt.csv"), "--category", "vehicle",
            flag, value, "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "finite" in err
        assert not (tmp_path / "report.json").exists()

    def test_multi_trial_shared_gt(self, data_dir, tmp_path, capsys):
        gt = data_dir / "noisy_gt.csv"
        det = data_dir / "noisy_det.csv"
        det2 = tmp_path / "copy.csv"
        shutil.copy(det, det2)
        rc = main([
            "eval", "--det", str(det), str(det2), "--gt", str(gt),
            "--category", "vehicle", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert len(doc["reports"]) == 2
        a, b = doc["reports"]
        assert a["trial_id"] != b["trial_id"]
        assert a["mota_pct"] == b["mota_pct"]

    def test_auto_trial_ids_never_collide(self, data_dir, tmp_path):
        # x.csv twice would take the suffix "-2" that a/x-2.csv already holds
        dets = [tmp_path / "a" / "x-2.csv", tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"]
        for det in dets:
            det.parent.mkdir(exist_ok=True)
            shutil.copy(data_dir / "noisy_det.csv", det)
        rc = main([
            "eval", "--det", *map(str, dets), "--gt", str(data_dir / "noisy_gt.csv"),
            "--category", "vehicle", "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["trial_id"] for r in doc["reports"]] == ["x-2", "x", "x-3"]

    def test_repeated_trial_id_exits_one(self, data_dir, tmp_path, capsys):
        det = str(data_dir / "noisy_det.csv")
        rc = main([
            "eval", "--det", det, det, "--gt", str(data_dir / "noisy_gt.csv"),
            "--trial-id", "t", "t", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "unique" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_default_origin_is_the_first_point_in_frame_order(self, tmp_path):
        # the file's first row is not its first in time: the origin comes
        # from the frame walk's first point, row 0 of the columns
        gt = tmp_path / "gt.csv"
        gt.write_text(GT_HEADER + "1700000001.0,42.316,-83.724,vehicle,v1\n"
                      "1700000000.0,42.294,-83.736,vehicle,v1\n"
                      "1700000000.0,42.307,-83.712,pedestrian,p1\n")
        assert main(["eval", "--det", str(gt), "--gt", str(gt),
                     "--output-dir", str(tmp_path / "out")]) == 0
        ts = build_trajectory_set(read_points(gt)[0], source="ground_truth")
        first = next(p.position for f in ts.frames for p in f.points)
        walked = f"{round(first.lat_deg, 2)},{round(first.lon_deg, 2)}"
        assert strict_json(tmp_path / "out" / "report.json")["config"]["origin"] == walked == "42.31,-83.71"

    def test_default_origin_skips_empty_frames(self):
        p = DataPoint(1.0, GeoPoint(42.316, -83.724), "vehicle", "v1")
        ts = from_frames([DataFrame(0.5, ()), DataFrame(1.0, (p,))], "ground_truth")
        assert cli_mod._default_origin(ts) == GeoPoint(42.32, -83.72)

    def test_far_origin_exits_one_without_traceback(self, tmp_path, capsys):
        rc = main(["eval", *SCENE, "--origin", "0,0", "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: point GeoPoint(" in err and "flat-plane validity" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


    def test_origin_out_of_range_exits_one(self, tmp_path, capsys):
        rc = main(["eval", *SCENE, "--origin", "91,0", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "error: latitude out of range: 91.0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


COMMANDS = [["eval"], ["sweep", "--thresholds", "0.5,1.5", "--category", "vehicle"]]


class TestNonFiniteLatency:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_exits_one(self, tmp_path, capsys, command, value):
        rc = main([*command, *SCENE, f"--latency={value}", "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: latency_s must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_finite_latency_writes_strict_json(self, tmp_path, command):
        rc = main([*command, *SCENE, "--latency", "0.05", "--output-dir", str(tmp_path)])
        assert rc == 0
        doc = strict_json(tmp_path / "report.json")
        assert doc["latency"]["mean_s"] == 0.05


class TestSweepCommand:
    def test_single_threshold_matches_eval(self, data_dir, tmp_path, capsys):
        gt = data_dir / "noisy_gt.csv"
        det = data_dir / "noisy_det.csv"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rc = main([
            "sweep", "--det", str(det), "--gt", str(gt),
            "--thresholds", "1.5", "--category", "vehicle",
            "--output-dir", str(out_a),
        ])
        assert rc == 0
        rc = main([
            "eval", "--det", str(det), "--gt", str(gt),
            "--category", "vehicle", "--output-dir", str(out_b),
        ])
        assert rc == 0
        sweep = json.loads((out_a / "report.json").read_text())["sweep"]
        report = json.loads((out_b / "report.json").read_text())["reports"][0]
        assert sweep["fp_rate_pct"][0] == pytest.approx(report["fp_rate_pct"], abs=1e-9)
        assert sweep["fn_rate_pct"][0] == pytest.approx(report["fn_rate_pct"], abs=1e-9)

    def test_rates_fall_to_zero_without_clutter(self, data_dir, tmp_path, capsys):
        rc = main([
            "sweep", "--det", str(data_dir / "noisy_det.csv"),
            "--gt", str(data_dir / "noisy_gt.csv"),
            "--thresholds", "0.5,1.0,1.5,3.0,6.0", "--category", "vehicle",
            "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        fp = doc["sweep"]["fp_rate_pct"]
        assert all(a >= b for a, b in zip(fp, fp[1:]))
        assert fp[0] > 0.0
        assert fp[-1] == 0.0
        assert doc["sweep"]["fn_rate_pct"][-1] == 0.0

    def test_non_ascending_thresholds_exit_one(self, data_dir, tmp_path, capsys):
        rc = main([
            "sweep", "--det", str(data_dir / "noisy_det.csv"),
            "--gt", str(data_dir / "noisy_gt.csv"),
            "--thresholds", "1.0,0.5", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "ascending" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args", [["--thresholds", "nan"], ["--thresholds", "0.5,inf"],
                 ["--thresholds", "1.5", "--max-gap", "nan"],
                 ["--thresholds", "1.5", "--max-gap", "inf"]],
    )
    def test_non_finite_value_exits_one(self, data_dir, tmp_path, capsys, args):
        rc = main([
            "sweep", "--det", str(data_dir / "noisy_det.csv"),
            "--gt", str(data_dir / "noisy_gt.csv"), "--category", "vehicle",
            *args, "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "finite" in err
        assert not (tmp_path / "report.json").exists()

    def test_no_gt_in_paired_frames_is_undefined(self, tmp_path, capsys):
        # the vehicle leaves before the detections start, so the detection
        # frames pair only with gt frames that hold no vehicle
        gt_rows = [f"{100 + k / 10:.1f},42.3,{-83.7 + 1e-5 * k:.7f},vehicle,veh-01\n"
                   for k in range(11)]
        det_rows = [f"{105 + k / 10:.1f},{42.3 + 1e-6 * k:.7f},-83.7001,pedestrian,ped-01\n"
                    for k in range(21)]
        (tmp_path / "gt.csv").write_text(GT_HEADER + "".join(gt_rows + det_rows))
        (tmp_path / "det.csv").write_text(GT_HEADER + "".join(det_rows))
        files = ["--det", str(tmp_path / "det.csv"), "--gt", str(tmp_path / "gt.csv"),
                 "--category", "vehicle", "--formats", "table,json,csv"]
        assert main(["eval", *files, "--output-dir", str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())["reports"][0]
        assert report["fp_rate_pct"] is None and report["fn_rate_pct"] is None
        capsys.readouterr()
        rc = main(["sweep", *files, "--thresholds", "1,2", "--output-dir", str(tmp_path / "sweep")])
        assert rc == 0
        assert [l.split() for l in capsys.readouterr().out.splitlines()[2:]] == [
            ["1.000", "—", "—"], ["2.000", "—", "—"],
        ]
        sweep = json.loads((tmp_path / "sweep" / "report.json").read_text())["sweep"]
        assert sweep["fp_rate_pct"] == [None, None] and sweep["fn_rate_pct"] == [None, None]
        assert (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:] == [
            "1,1.0,,", "1,2.0,,",
        ]

    def test_mixed_category_needs_flag(self, data_dir, tmp_path, capsys):
        rc = main([
            "sweep", "--det", str(data_dir / "noisy_det.csv"),
            "--gt", str(data_dir / "noisy_gt.csv"),
            "--thresholds", "1.5", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "--category" in capsys.readouterr().err


class TestConfigAndPlumbing:
    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["eval", "--help"], ["synth", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_help_states_the_gap_default(self, command, capsys):
        # matching._default_max_gap falls back to half the median gt tick
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "half the median gt tick" in out
        assert "comma list from table,csv,json" in out

    def test_config_file_supplies_flags(self, data_dir, tmp_path):
        gt = data_dir / "scene_gt.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "det": [str(gt)], "gt": [str(gt)], "threshold": 2.0,
            "category": "vehicle", "output_dir": str(tmp_path),
        }))
        rc = main(["eval", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["threshold"] == 2.0
        assert doc["config"]["category"] == "vehicle"

    def test_flags_beat_config_file(self, data_dir, tmp_path):
        gt = data_dir / "scene_gt.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "det": [str(gt)], "gt": [str(gt)], "threshold": 2.0,
            "category": "vehicle", "output_dir": str(tmp_path),
        }))
        rc = main(["eval", "--config", str(cfg), "--threshold", "3.0"])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["threshold"] == 3.0

    def test_unknown_config_key_exits_one(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = main(["eval", "--config", str(cfg)])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, flag", [
        ({"threshold": [1]}, "--threshold"),
        ({"threshold": True}, "--threshold"),
        ({"category": "bicycle"}, "--category"),
    ])
    def test_config_values_checked_like_flags(self, data_dir, tmp_path, capsys,
                                              cfg, flag):
        gt = str(data_dir / "scene_gt.csv")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"det": [gt], "gt": [gt], **cfg}))
        # a usage error exits 1 through SystemExit; any other exception escapes
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", str(path), "--output-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert f"error: argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("formats", ["table", "json"]),
        ("thresholds", [0.5, 1.5]),
        ("origin", [42.3, -83.7]),
    ], ids=["formats", "thresholds", "origin"])
    def test_config_list_for_a_one_value_flag_exits_one(self, tmp_path, capsys, key, value):
        gt = str(DATA / "scene_gt.csv")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"det": gt, "gt": gt, "thresholds": "0.5,1.5", key: value}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(path), "--output-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert (f"error: argument --{key}: config key {key!r} takes one value, not a list"
                in capsys.readouterr().err)

    def test_config_string_names_one_file(self, data_dir, tmp_path):
        # as after --det on the command line, a string is one file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "det": str(data_dir / "lat_det.csv"), "gt": str(data_dir / "lat_gt.csv"),
            "output_dir": str(tmp_path),
        }))
        assert main(["latency", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [i["role"] for i in doc["inputs"]] == ["detection", "ground_truth"]

    def test_help_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"help": True}))
        assert main(["eval", "--config", str(cfg)]) == 1
        assert "unknown config keys: ['help']" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_manifest_config_reproduces_run(self, case, tmp_path, monkeypatch, capsys):
        # the config block alone supplies every input, required ones included
        for name in GOLDEN_INPUTS:
            shutil.copy(DATA / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        argv = GOLDEN_CASES[case]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        first = {f.name: f.read_bytes() for f in Path("out").iterdir()}
        shutil.rmtree("out")
        Path("replay.json").write_text(json.dumps(json.loads(first["report.json"])["config"]))
        assert main([argv[0], "--config", "replay.json"]) == 0
        assert capsys.readouterr().out == stdout
        assert {f.name: f.read_bytes() for f in Path("out").iterdir()} == first

    @pytest.mark.parametrize("key, value, shown", [
        ("output_dir", {"a": 1}, '{"a": 1}'),
        ("output_dir", True, "true"),
        ("trial_id", {"x": 2}, '{"x": 2}'),
        ("trial_id", [{"x": 2}], '{"x": 2}'),
        ("trial_id", [True], "true"),
        ("trial_id", [None], "null"),
        ("trial_id", [["t"]], '["t"]'),
    ], ids=["object", "boolean", "object-for-a-list-flag", "object-in-a-list",
            "boolean-in-a-list", "null-in-a-list", "list-in-a-list"])
    def test_config_value_no_flag_takes_exits_one(self, tmp_path, monkeypatch, capsys,
                                                  key, value, shown):
        gt = str(DATA / "scene_gt.csv")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"det": [gt], "gt": [gt], key: value}))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", str(path)])
        assert exc.value.code == 1
        flag = "--" + key.replace("_", "-")
        assert (f"error: argument {flag}: config key {key!r} takes a string or a number, "
                f"not {shown}" in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [path]


    @pytest.mark.parametrize("argv", [
        ["eval", *SCENE],
        ["sweep", *SCENE, "--thresholds", "0.5,1.5", "--category", "vehicle"],
        ["latency", "--det", str(DATA / "lat_det_a.csv"), "--gt", str(DATA / "lat_gt.csv")],
    ], ids=["eval", "sweep", "latency"])
    def test_bad_output_dir_fails_before_printing(self, tmp_path, capsys, argv):
        # a file where the directory should be: nothing is printed first
        taken = tmp_path / "taken.csv"
        taken.write_text("")
        assert main([*argv, "--output-dir", str(taken)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: [Errno 17] File exists" in err


class TestPerCommandParser:
    """main gives arguments only to the invoked subcommand's parser; what
    a user sees must be what a parser with every subcommand filled shows."""

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("argv", [
        ["--help"],
        *([name, "--help"] for name in cli_mod._COMMANDS),
        ["bogus"],
        [],
        ["eval", "--bogus"],
        ["--bogus", "sweep"],
    ])
    def test_output_matches_the_full_parser(self, argv, capsys, monkeypatch):
        lean = self._run(argv, capsys)
        full = cli_mod.build_parser
        monkeypatch.setattr(cli_mod, "build_parser", lambda command=None: full())
        assert self._run(argv, capsys) == lean
        code, out, err = lean
        assert code in (0, 1) and (out or err)

    def test_only_the_invoked_command_gets_arguments(self, capsys, monkeypatch):
        built = []
        lean = cli_mod.build_parser

        def spy(command=None):
            parser, subparsers = lean(command)
            built.append({name: len(p._actions) for name, p in subparsers.items()})
            return parser, subparsers

        monkeypatch.setattr(cli_mod, "build_parser", spy)
        self._run(["sweep", "--help"], capsys)
        assert built[0]["sweep"] > 1
        assert [n for n, actions in built[0].items() if actions > 1] == ["sweep"]


class TestInputDiagnostics:
    """Input errors name their file; dropped rows are reported on stderr."""

    # ground truth with no usable row, and the error's tail after the file name
    UNUSABLE_TRUTH = {
        "header_only": (GT_HEADER, ""),
        "all_rejected": (
            GT_HEADER + "1700000000.0,95.0,-83.7,vehicle,v1\n1700000000.1,nan,-83.7,vehicle,v1\n",
            " (dropped 2 malformed row(s); first at line 2: latitude '95.0' outside [-90, 90])",
        ),
    }
    ORIGIN = ["--origin", "42.3,-83.7"]

    @pytest.mark.parametrize("truth", sorted(UNUSABLE_TRUTH))
    @pytest.mark.parametrize("argv", [
        ["eval", *SCENE[:2]],
        ["eval", *SCENE[:2], *ORIGIN],
        ["eval", *SCENE[:2], *ORIGIN, "--category", "vehicle"],
        ["sweep", *SCENE[:2], "--thresholds", "0.5,1.5"],
        ["sweep", *SCENE[:2], "--thresholds", "0.5,1.5", *ORIGIN],
        ["sweep", *SCENE[:2], "--thresholds", "0.5,1.5", *ORIGIN, "--category", "vehicle"],
        ["latency", "--det", str(DATA / "lat_det_a.csv")],
        ["latency", "--det", str(DATA / "lat_det_a.csv"), *ORIGIN],
    ], ids=["eval", "eval-origin", "eval-origin-category", "sweep", "sweep-origin",
            "sweep-origin-category", "latency", "latency-origin"])
    def test_unusable_truth_is_one_error_naming_the_file(self, tmp_path, capsys, argv, truth):
        text, tail = self.UNUSABLE_TRUTH[truth]
        gt = tmp_path / "gt.csv"
        gt.write_text(text)
        out = tmp_path / "out"
        assert main([*argv, "--gt", str(gt), "--output-dir", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert not (out / "report.json").exists()
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: {gt}: ground truth contains no usable points{tail}"
        ]

    def _scene_with(self, tmp_path, extra: bytes) -> Path:
        det = tmp_path / "det.csv"
        det.write_bytes((DATA / "scene_det_a.csv").read_bytes() + extra)
        return det

    def test_duplicate_record_names_file_and_both_lines(self, tmp_path, capsys):
        lines = (DATA / "scene_det_a.csv").read_text().splitlines()
        det = self._scene_with(tmp_path, (lines[3] + "\n").encode())
        rc = main(["eval", "--det", str(det), "--gt", str(DATA / "scene_gt.csv"),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {det}: duplicate record for object" in err
        assert f"(lines 4 and {len(lines) + 1})" in err
        assert "Traceback" not in err

    def test_non_utf8_input_names_file(self, tmp_path, capsys):
        det = self._scene_with(tmp_path, b"\xff\xfe\n")
        rc = main(["eval", "--det", str(det), "--gt", str(DATA / "scene_gt.csv"),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {det}: not UTF-8 text" in capsys.readouterr().err

    def test_rejections_reported_without_changing_outputs(self, tmp_path, capsys):
        args = ["--gt", str(DATA / "scene_gt.csv"), "--category", "vehicle", "--trial-id", "t"]
        assert main(["eval", *SCENE[:2], *args, "--output-dir", str(tmp_path / "a")]) == 0
        clean = capsys.readouterr()
        assert "warning:" not in clean.err
        n_lines = len((DATA / "scene_det_a.csv").read_text().splitlines())
        det = self._scene_with(tmp_path, b"1700000000.0,95.0,-83.7,vehicle,x\nbad row\n")
        assert main(["eval", "--det", str(det), *args, "--output-dir", str(tmp_path / "b")]) == 0
        dirty = capsys.readouterr()
        assert dirty.out == clean.out
        warnings = [l for l in dirty.err.splitlines() if l.startswith("warning:")]
        assert warnings == [
            f"warning: {det}: dropped 2 malformed row(s); first at line "
            f"{n_lines + 1}: latitude '95.0' outside [-90, 90]"
        ]
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert b["inputs"][0]["n_rejected"] == 2
        assert a["reports"] == b["reports"]


class TestRowOrder:
    """Scoring reads a file's records as a set: shuffled rows score the same."""

    @staticmethod
    def _run(directory: Path, command: list[str], monkeypatch) -> dict:
        monkeypatch.chdir(directory)
        assert main([*command, "--det", "scene_det_a.csv", "--gt", "scene_gt.csv",
                     "--output-dir", "out"]) == 0
        report = json.loads(Path("out/report.json").read_text())
        for entry in report["inputs"]:
            del entry["sha256"]
        return report

    @pytest.mark.parametrize("command", [
        ["eval"],
        ["sweep", "--category", "vehicle", "--thresholds", "0.5,1.5,3"],
    ], ids=["eval", "sweep"])
    def test_shuffled_rows_give_the_same_report(self, tmp_path, monkeypatch, capsys, command):
        rng = random.Random(20240611)
        for name in ("plain", "shuffled"):
            (tmp_path / name).mkdir()
        for file in ("scene_det_a.csv", "scene_gt.csv"):
            header, *rows = (DATA / file).read_text().splitlines(keepends=True)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert shuffled != rows
            (tmp_path / "plain" / file).write_text(header + "".join(rows))
            (tmp_path / "shuffled" / file).write_text(header + "".join(shuffled))
        plain = self._run(tmp_path / "plain", command, monkeypatch)
        assert self._run(tmp_path / "shuffled", command, monkeypatch) == plain


class TestIdRenaming:
    """Ids are only labels: renaming them one-to-one scores the same."""

    @staticmethod
    def _scores(directory: Path, det: str, monkeypatch) -> tuple:
        monkeypatch.chdir(directory)
        pair = ["--det", det, "--gt", "scene_gt.csv"]
        assert main(["eval", "--trial-id", "t", *pair, "--output-dir", "eval"]) == 0
        assert main(["sweep", "--category", "vehicle", "--thresholds", "0.5,1.5,3",
                     *pair, "--output-dir", "sweep"]) == 0
        return (json.loads(Path("eval/report.json").read_text())["reports"],
                json.loads(Path("sweep/report.json").read_text())["sweep"])

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize("det", ["scene_det_a.csv", "scene_det_b.csv",
                                     "scene_det_perframe.csv"])
    def test_renamed_ids_give_the_same_reports_and_sweep(
        self, tmp_path, monkeypatch, capsys, det, order
    ):
        tables = {f: list(csv.reader((DATA / f).read_text().splitlines()))
                  for f in (det, "scene_gt.csv")}
        ids = sorted({row[4] for header, *rows in tables.values() for row in rows})
        new = [f"obj-{k:05d}" for k in range(len(ids))]
        if order == "reversed":
            new.reverse()
        else:
            random.Random(20240611).shuffle(new)
        names = dict(zip(ids, new))
        for name in ("plain", "renamed"):
            (tmp_path / name).mkdir()
        for f, (header, *rows) in tables.items():
            shutil.copy(DATA / f, tmp_path / "plain" / f)
            with open(tmp_path / "renamed" / f, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(
                    [header, *([*row[:4], names[row[4]]] for row in rows)]
                )
        plain = self._scores(tmp_path / "plain", det, monkeypatch)
        assert self._scores(tmp_path / "renamed", det, monkeypatch) == plain


# per column of the wire format: values that load, and values that do not
_GOOD = (["1700000000.0", "1700000000.1", "1700000000.2", "1700000000.0004"],
         ["42.3", "42.30001", "42.29999"], ["-83.7", "-83.70002"],
         ["vehicle", "pedestrian"], ["a", "b", "veh-01"])
_BAD = (["1700000000100", "-0.0", "nan", "inf", "1e306", "", "t"],
        ["42.4", "95", "nan", ""], ["-83.9", "200", "-inf", ""],
        ["Vehicle", "cyclist", ""], ["", '"x,y"'])


@st.composite
def csv_bytes(draw) -> bytes:
    """Arbitrary bytes, or CSV text of the wire format with well-formed rows
    and rows whose every field may be malformed, sometimes with arbitrary
    bytes appended."""
    # the rare branches come last: generation favours the first choices
    if draw(st.sampled_from([False] * 5 + [True])):
        return draw(st.binary(max_size=64))
    header = draw(st.sampled_from([GT_HEADER, "\ufeffTimestamp,LAT,lon,category,id,extra\n",
                                   GT_HEADER, "timestamp,lat,lon\n", ""]))
    good = st.tuples(*map(st.sampled_from, _GOOD))
    mixed = st.tuples(*(st.sampled_from(g + b) for g, b in zip(_GOOD, _BAD)))
    # rows unique by (time, id), so that duplicates do not end most runs
    rows = draw(st.lists(good | good | mixed, min_size=1, max_size=12,
                         unique_by=lambda r: (r[0], r[4])))
    rows = [",".join(r) for r in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.binary(max_size=8)) if draw(st.sampled_from([False] * 3 + [True])) else b""
    return (header + "".join(r + end for r in rows)).encode() + tail


class TestLoadFuzz:
    @pytest.mark.parametrize("command", [
        ["eval"], ["sweep", "--thresholds", "0.5,1.5,3"], ["latency"],
    ], ids=lambda command: command[0])
    @settings(max_examples=60)
    @given(det=csv_bytes(), gt=csv_bytes())
    def test_any_bytes_exit_zero_or_one(self, command, det, gt):
        with tempfile.TemporaryDirectory() as d:
            paths = [Path(d) / "det.csv", Path(d) / "gt.csv"]
            paths[0].write_bytes(det)
            paths[1].write_bytes(gt)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main([*command, "--det", str(paths[0]), "--gt", str(paths[1]),
                           "--output-dir", str(Path(d) / "out")])
        assert rc in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestCollectorPause:
    """Every command runs with the cyclic collector paused and then restores it."""

    def test_success_restores(self, collector_was, tmp_path, capsys):
        assert main(["eval", *SCENE, "--output-dir", str(tmp_path)]) == 0
        assert gc.isenabled() is collector_was

    def test_usage_error_restores(self, collector_was, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--no-such-flag"])
        assert exc.value.code == 1
        assert gc.isenabled() is collector_was

    @pytest.mark.parametrize("error, code", [(EvalError, 1)])
    def test_failure_restores(self, collector_was, tmp_path, capsys, monkeypatch,
                              error, code):
        seen = []

        def boom(*args, **kwargs):
            seen.append(gc.isenabled())
            raise error("fabricated failure")

        monkeypatch.setattr(cli_mod, "compute_report", boom)
        assert main(["eval", *SCENE, "--output-dir", str(tmp_path)]) == code
        assert seen == [False]
        assert gc.isenabled() is collector_was

    def test_cycles_do_not_grow_with_the_input(self, tmp_path, capsys):
        # the pause is safe only while scoring makes no reference cycles: the
        # cycles a command leaves (argparse's) must not depend on its input,
        # so a per-point cycle shows here instead of as growing memory
        long = [str(tmp_path / "long_det.csv"), str(tmp_path / "long_gt.csv")]
        assert main([
            "synth", "--template", "two_vehicle_plus_pedestrian", "--duration", "100",
            "--seed", "1", "--noise-sigma", "0.2", "--miss-prob", "0.05",
            "--clutter-rate", "0.5", "--id-switch-prob", "0.01",
            "--out-det", long[0], "--out-gt", long[1],
        ]) == 0
        n_gt = len((DATA / "scene_gt.csv").read_text().splitlines())
        assert len(Path(long[1]).read_text().splitlines()) > 4 * n_gt

        def cycles_left(det: str, gt: str) -> int:
            with paused_gc():
                gc.collect()
                assert main(["eval", "--det", det, "--gt", gt, "--formats",
                             "table,csv,json", "--output-dir", str(tmp_path / "out")]) == 0
                return gc.collect()

        golden = [str(DATA / "scene_det_a.csv"), str(DATA / "scene_gt.csv")]
        cycles_left(*golden)  # first-call imports and caches settle here
        assert cycles_left(*golden) == cycles_left(*long) > 0
