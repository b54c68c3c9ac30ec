import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.startswith("03_"):
        assert "sum_b N(a,b) == N(a) for all a: True" in proc.stdout
