"""The walkthrough demos run to completion against the current package."""
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env

REPO = Path(__file__).resolve().parents[1]

# 05 is a shrunken default sweep, which the run_experiment tests already cover
DEMOS = (
    "01_statevector_feature_maps.py",
    "02_quantum_kernels.py",
    "03_weighted_svm.py",
    "04_boosted_ensemble.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
