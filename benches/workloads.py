"""Workload definitions for the stochheat benchmark.

Each workload is one shipped config plus config overrides.  The workload
seed becomes ``run.base_seed``; without a seed the config's own
``run.base_seed`` is used.  ``smoke`` overrides shrink a workload for the
self-test; they are never used by a measured run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SIMULATE = "simulate"
PROBE = "probe"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    config: str  # relative to the repository root
    why: str
    overrides: dict = field(default_factory=dict)
    # a measured run makes at least this many operations; more for the
    # workloads whose operations spread most from process to process
    min_ops: int = 3
    smoke: dict = field(default_factory=dict)
    # convolution_moment_probe arguments (probe workloads only)
    probe: dict = field(default_factory=dict)
    smoke_probe: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="white-1d",
            kind=SIMULATE,
            config="configs/white_noise_critical.conf",
            why="1-d white noise on the 2-worker pool: per-path stepping loop "
                "and process pool, no covariance factorization",
            min_ops=5,
            smoke={"run.paths": "8", "run.horizon": "0.01"},
        ),
        Workload(
            name="riesz-3d",
            kind=SIMULATE,
            config="configs/riesz_3d.conf",
            why="3-d Riesz noise at 8^3 points, one worker: per-step dense "
                "sampling and qv_form dominate",
            min_ops=6,
            smoke={"run.paths": "4", "run.horizon": "0.005"},
        ),
        Workload(
            name="riesz-3d-16",
            kind=SIMULATE,
            config="configs/riesz_3d.conf",
            why="Riesz at 16^3 = 4096 points, a few paths: the dense eigh "
                "set-up and its memory dominate",
            overrides={"domain.grid_points": "16", "run.paths": "4"},
            # the smoke test keeps the 8^3 grid: one 4096^2 eigh costs ~10 s
            smoke={"domain.grid_points": "8", "run.paths": "2",
                   "run.horizon": "0.005"},
        ),
        Workload(
            name="probe-1d",
            kind=PROBE,
            config="configs/dirichlet_spectral.conf",
            why="path-batched convolution moment probe: (P, grid) spectral "
                "transforms with no per-path Python loop",
            probe={"p": 20.0, "paths": 2048, "dt": 5e-5,
                   "T_grid": [0.001, 0.002, 0.005, 0.01, 0.02]},
            smoke_probe={"p": 20.0, "paths": 64, "dt": 5e-5,
                         "T_grid": [0.001, 0.002]},
        ),
    )
}


def op_overrides(workload: Workload, seed: int | None, smoke: bool,
                 workers: int | None = None) -> dict:
    """Config overrides of one operation of ``workload``."""
    out = dict(workload.overrides)
    if smoke:
        out.update(workload.smoke)
    if seed is not None:
        out["run.base_seed"] = str(seed)
    if workers is not None:
        out["run.workers"] = str(workers)
    return out


def probe_args(workload: Workload, smoke: bool) -> dict:
    return dict(workload.smoke_probe if smoke else workload.probe)
