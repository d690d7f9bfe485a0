"""The demos run end to end and regenerate their committed outputs byte for byte."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
OUTPUTS = ("diagnostic-chain.dot", "diagnostic-boxes.csv")


def test_demos_run_and_regenerate_their_outputs(tmp_path):
    copy = tmp_path / "demos"
    shutil.copytree(DEMOS, copy)
    for name in OUTPUTS:
        (copy / name).unlink()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    scripts = sorted(copy.glob("0*.py"))
    assert len(scripts) == 4
    for script in scripts:
        done = subprocess.run(
            [sys.executable, str(script)], cwd=copy, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, (script.name, done.stderr)
    for name in OUTPUTS:
        assert (copy / name).read_bytes() == (DEMOS / name).read_bytes(), name
