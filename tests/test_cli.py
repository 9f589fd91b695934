"""Command-line behavior: subcommands, formats, config files, exit codes."""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from roadside_eval.cli import main
from roadside_eval.errors import ConsistencyError
from roadside_eval.synth import default_latency_route, min_round_trip_duration_s

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
    def test_same_seed_byte_identical(self, tmp_path, capsys):
        args = [
            "synth", "--template", "two_vehicle_plus_pedestrian",
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


class TestEvalCommand:
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

    def test_far_origin_exits_one_without_traceback(self, tmp_path, capsys):
        rc = main(["eval", *SCENE, "--origin", "0,0", "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: point GeoPoint(" in err and "flat-plane validity" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


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

    def test_manifest_config_reproduces_run(self, data_dir, tmp_path):
        gt = data_dir / "noisy_gt.csv"
        det = data_dir / "noisy_det.csv"
        out = tmp_path / "out"
        rc = main([
            "eval", "--det", str(det), "--gt", str(gt),
            "--category", "vehicle", "--output-dir", str(out),
        ])
        assert rc == 0
        first = (out / "report.json").read_bytes()
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(json.loads(first)["config"]))
        rc = main(["eval", "--config", str(cfg)])
        assert rc == 0
        assert (out / "report.json").read_bytes() == first

    def test_internal_inconsistency_exits_two(self, data_dir, tmp_path, capsys,
                                              monkeypatch):
        import roadside_eval.cli as cli_mod

        def boom(*args, **kwargs):
            raise ConsistencyError("fabricated invariant violation")

        monkeypatch.setattr(cli_mod, "compute_report", boom)
        gt = data_dir / "scene_gt.csv"
        rc = main([
            "eval", "--det", str(gt), "--gt", str(gt),
            "--output-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "fabricated invariant violation" in capsys.readouterr().err


class TestInputDiagnostics:
    """Input errors name their file; dropped rows are reported on stderr."""

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
