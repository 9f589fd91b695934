"""Smoke tests of the benchmark: tiny inputs, every workload, both modes.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace):
    out = _run("--workload", "all", "--smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    results = json.loads(out.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert set(results) == {w["name"] for w in BENCH["workloads"]}
    for name, res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared, name
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
        for line in ("wall_rel", "median wall_s", "error_rate") if not trace else ("trace.throughput_ratio",):
            assert any(r.startswith(name) and line in r for r in out.stdout.splitlines())


def test_exact_repeat_counts_and_active_layers():
    out = _run("--workload", "eval_intersection", "--smoke", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    # gt is parsed once in cmd_eval and once per trial with its detection file
    assert metrics["ingest.read_points.calls"]["value"] == 5
    assert metrics["metrics.alignments_per_report"]["value"] == 2
    assert metrics["synth.degrade.calls"]["value"] == 0


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-layout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = _run("--workload", BENCH["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_recorder_counts_exactly_across_threads_and_self_time():
    rec = spans.Recorder()
    leaf = rec.counted("leaf", lambda: None)

    def work():
        for _ in range(20_000):
            leaf()

    outer = rec.timed("outer", lambda: [work()])
    with rec.root():
        threads = [threading.Thread(target=outer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    s = rec.summary()
    assert s["calls"] == {"leaf": 80_000, "outer": 4}
    assert 0.0 <= s["root_self_s"] <= s["root_total_s"]
    assert s["self_s"]["outer"] == pytest.approx(s["total_s"]["outer"])


def test_install_patches_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import roadside_eval.matching as matching
    import roadside_eval.metrics as metrics

    original = matching.point_match
    rec = spans.Recorder()
    try:
        assert spans.install("roadside_eval.matching", "point_match", lambda fn: rec.timed("pm", fn)) >= 2
        assert metrics.point_match is matching.point_match is not original
    finally:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("roadside_eval"):
                for key, value in list(vars(mod).items()):
                    if value is matching.point_match:
                        setattr(mod, key, original)


def test_union_length_merges_overlaps():
    assert spans._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == pytest.approx(4.0)
