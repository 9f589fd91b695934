"""The scripts under scripts/ run to completion on the library as it is.

solver_ladder.py exits non-zero when point_match or solve_assignment
disagree with the reference it checks them against, so a change to their
return values that the script was not ported to fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("solver_ladder.py", ["--frames", "1"]),
        ("run_synthetic_benchmark.py", ["--duration", "30"]),
    ],
)
def test_script_exits_zero(script, args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
