"""Command-line behavior: subcommands, formats, config files, exit codes."""

from __future__ import annotations

import json
import re
import shutil

import pytest

from roadside_eval.cli import main
from roadside_eval.errors import ConsistencyError
from roadside_eval.synth import default_latency_route, min_round_trip_duration_s

GT_HEADER = "timestamp,lat,lon,category,id\n"


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
