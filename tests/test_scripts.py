"""The scripts under scripts/ run to completion on the library as it is.

Every script has a run check here, and every run check names a script
that exists. Bad arguments end in argparse's usage error, exit status 2,
never a traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


# each script's run-check arguments; a case's id is the script's name
RUNS = {
    "run_synthetic_benchmark.py": ["--duration", "30"],
    "variance_grid.py": ["--runs", "100"],
}


def test_every_script_has_a_run_check():
    assert sorted(RUNS) == sorted(path.name for path in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", RUNS)
def test_script_exits_zero(script, tmp_path):
    out = run_script(script, RUNS[script], tmp_path)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]


@pytest.mark.parametrize(
    "args",
    [
        ["--runs", "50"],
        ["--seed", "-1"],
        ["--gt-rate", "0"],
        ["--det-rate", "-1"],
        ["--det-rate", "nan"],
        ["--speed-jitter", "-0.1"],
    ],
)
def test_variance_grid_rejects_bad_arguments(args, tmp_path):
    out = run_script("variance_grid.py", args, tmp_path)
    assert out.returncode == 2, out.stdout[-2000:] + out.stderr[-2000:]
    assert out.stderr.startswith("usage:")
    assert "Traceback" not in out.stderr
    assert out.stdout == ""
