"""The demos run to completion against the current package.

Each demo runs in a fresh interpreter with a temporary working directory,
since demo 03 writes ``trajectory_seed2024.csv`` where it runs.  Demo 01
(about 5 s) and demo 06 (about 16 s) are left out to keep the suite's wall
time down: ``test_spectral`` and criterion 9 of ``test_acceptance`` already
cover the basis and probe APIs they show.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochheat

DEMOS = Path(__file__).resolve().parent.parent / "demos"
RUN = [
    "02_noise_kernels_and_sampling.py",
    "03_single_trajectory.py",
    "04_mass_martingale_bounds.py",
    "05_gamma_sweep.py",
]


@pytest.mark.parametrize("name", RUN, ids=[n.split("_")[0] for n in RUN])
def test_demo_runs(name, tmp_path):
    src = str(Path(stochheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
