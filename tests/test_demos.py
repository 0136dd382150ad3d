import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in demos:
        result = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert result.returncode == 0, f"{demo.name}:\n{result.stderr}"
