"""Seeded ensemble orchestration, the gamma sweep, and assumption checks.

Trajectories are pure functions of (config, seed) with seeds base_seed + i.
One runner serves any worker count: seeds run in blocks of consecutive path
indices, one context per process and one batch per block, and the blocks
are merged in order, so results are independent of the worker count.  Row CSVs are written with
repr-exact floats and a stable column order, making repeated runs
byte-identical; wall-clock metrics go to a separate run_info.json that is
excluded from the determinism contract.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import SimConfig, config_hash
from .diagnostics import (
    detect_doubling,
    doubling_threshold_level,
    doubling_window,
    up_event_count,
)
from .noise import (
    DecayFitError,
    KernelValidationError,
    WhiteNoise,
    double_integral,
    verify_decay,
)
from .spectral import DomainSpec, build_basis, heat_kernel_decay_fit
from .stepping import TrajectoryRecord, build_context, run_batch

SCHEMA_VERSION = 1

ROW_COLUMNS = (
    "seed", "stop_flag", "stop_time", "max_sup_norm", "max_l1",
    "final_I", "final_Q", "clamped_fraction", "doubling_count",
)


@dataclass
class TrajectorySummary:
    seed: int
    stop_flag: str
    stop_time: float
    max_sup_norm: float
    max_l1: float
    final_I: float
    final_Q: float
    clamped_fraction: float
    doubling_count: int

    def csv_row(self) -> str:
        return (
            f"{self.seed},{self.stop_flag},{self.stop_time!r},"
            f"{self.max_sup_norm!r},{self.max_l1!r},{self.final_I!r},"
            f"{self.final_Q!r},{self.clamped_fraction!r},{self.doubling_count}"
        )

    @classmethod
    def from_csv_row(cls, row: str) -> "TrajectorySummary":
        parts = row.split(",")
        return cls(
            seed=int(parts[0]), stop_flag=parts[1], stop_time=float(parts[2]),
            max_sup_norm=float(parts[3]), max_l1=float(parts[4]),
            final_I=float(parts[5]), final_Q=float(parts[6]),
            clamped_fraction=float(parts[7]), doubling_count=int(parts[8]),
        )


def summarize(record: TrajectoryRecord) -> TrajectorySummary:
    events = detect_doubling(record)
    ups = sum(1 for e in events if e.direction == "up")
    return TrajectorySummary(
        seed=record.seed,
        stop_flag=record.stop_flag,
        stop_time=record.stop_time,
        max_sup_norm=record.max_sup_norm,
        max_l1=record.max_l1,
        final_I=record.final_I,
        final_Q=record.final_Q,
        clamped_fraction=record.clamped_fraction,
        doubling_count=ups,
    )


@dataclass
class EnsembleResult:
    rows: list
    aggregates: dict
    config_hash: str
    failures: list = field(default_factory=list)
    wall_clock: float = 0.0
    records: list | None = None

    @property
    def throughput(self) -> float:
        return len(self.rows) / self.wall_clock if self.wall_clock > 0 else math.inf

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = [f"# config_hash={self.config_hash} schema_version={SCHEMA_VERSION}"]
        lines.append(",".join(ROW_COLUMNS))
        lines += [r.csv_row() for r in self.rows]
        (out / "rows.csv").write_text("\n".join(lines) + "\n")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "aggregates": self.aggregates,
            "failures": self.failures,
        }
        (out / "aggregates.json").write_text(json.dumps(payload, indent=2) + "\n")
        info = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "wall_clock_seconds": self.wall_clock,
            "paths_per_second": self.throughput,
        }
        (out / "run_info.json").write_text(json.dumps(info, indent=2) + "\n")
        return out


def compute_aggregates(rows, u0_l1: float, mass_bound: float) -> dict:
    """Aggregate statistics; a pure function of the summary rows so that
    stored aggregates can be recomputed and cross-checked on load."""
    n = len(rows)
    if n == 0:
        return {"paths": 0}
    max_l1 = np.array([r.max_l1 for r in rows])
    final_I = np.array([r.final_I for r in rows])
    flags = [r.stop_flag for r in rows]
    doob = []
    for mult in (2.0, 4.0, 8.0):
        M = mult * u0_l1
        emp = float(np.mean(max_l1 > M))
        bound = min(1.0, u0_l1 / M)
        se = math.sqrt(max(emp * (1 - emp), 1.0 / n) / n)
        doob.append(
            {"M": M, "empirical": emp, "bound": bound, "se": se,
             "passed": emp <= bound + 3 * se}
        )
    tau_m_rows = [r for r in rows if r.stop_flag == "tau_M"]
    qv = None
    if tau_m_rows:
        q = np.array([r.final_Q for r in tau_m_rows])
        qv = {
            "M": mass_bound,
            "mean_Q_at_stop": float(np.mean(q)),
            "se": float(np.std(q, ddof=1) / math.sqrt(len(q))) if len(q) > 1 else 0.0,
            "bound": mass_bound**2,
            "n_hit": len(tau_m_rows),
        }
    counts = {}
    for r in rows:
        counts[r.doubling_count] = counts.get(r.doubling_count, 0) + 1
    return {
        "paths": n,
        "u0_l1": u0_l1,
        "stop_fractions": {
            flag: flags.count(flag) / n for flag in ("tau_n", "tau_M", "horizon")
        },
        "mean_final_I": float(np.mean(final_I)),
        "se_final_I": float(np.std(final_I, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        "mean_max_l1": float(np.mean(max_l1)),
        "max_max_sup": float(np.max([r.max_sup_norm for r in rows])),
        "mean_clamped_fraction": float(np.mean([r.clamped_fraction for r in rows])),
        "doob": doob,
        "qv_at_mass_bound": qv,
        "doubling_count_histogram": {str(k): v for k, v in sorted(counts.items())},
    }


def _run_block(seeds, context):
    """Run consecutive seeds as one batch; a failed path becomes a message."""
    records, failures = run_batch(context, seeds)
    return records, [f"seed {seed}: {exc}" for seed, exc in failures]


# (config, context) of a pool worker, built on its first block
_worker_context = None


def _run_pooled_block(config: SimConfig, seeds):
    global _worker_context
    if _worker_context is None or _worker_context[0] != config:
        _worker_context = (config, build_context(config))
    return _run_block(seeds, _worker_context[1])


def run_ensemble(config: SimConfig, keep_records: bool = False,
                 out_dir=None) -> EnsembleResult:
    """Run config.paths seeded trajectories and aggregate the results.

    Deterministic given (config, base seed): seeds run in blocks of
    consecutive path indices, merged in block order, and each path owns its
    own counter-based stream, so the worker count cannot change any output
    byte.  A pool worker builds its context once, on its first block.
    """
    t0 = time.monotonic()
    seeds = [config.base_seed + i for i in range(config.paths)]
    if config.workers > 1 and config.paths > 1:
        size = max(1, config.paths // (4 * config.workers))
        blocks = [seeds[i:i + size] for i in range(0, len(seeds), size)]
        with concurrent.futures.ProcessPoolExecutor(config.workers) as pool:
            results = list(pool.map(_run_pooled_block, [config] * len(blocks), blocks))
    else:
        results = [_run_block(seeds, build_context(config))]
    ordered = [r for records, _ in results for r in records]
    failures = [f for _, errors in results for f in errors]
    rows = [summarize(r) for r in ordered]
    u0_l1 = float(ordered[0].l1_norm[0]) if ordered else 0.0
    aggregates = compute_aggregates(rows, u0_l1, config.mass_bound)
    aggregates["failure_count"] = len(failures)
    result = EnsembleResult(
        rows=rows,
        aggregates=aggregates,
        config_hash=config_hash(config),
        failures=failures,
        wall_clock=time.monotonic() - t0,
        records=ordered if keep_records else None,
    )
    if out_dir is not None:
        result.write(out_dir)
        if config.save_trajectories > 0:
            traj_dir = Path(out_dir) / "trajectories"
            traj_dir.mkdir(exist_ok=True)
            for r in ordered[: config.save_trajectories]:
                write_trajectory_csv(r, traj_dir / f"seed{r.seed}.csv",
                                     config_hash=result.config_hash)
    return result


def write_trajectory_csv(record: TrajectoryRecord, path, config_hash=None):
    lines = []
    if config_hash is not None:
        lines.append(f"# config_hash={config_hash} schema_version={SCHEMA_VERSION}")
    lines.append(TrajectoryRecord.CSV_HEADER)
    lines += list(record.csv_rows())
    Path(path).write_text("\n".join(lines) + "\n")


def load_ensemble(out_dir) -> EnsembleResult:
    """Load a persisted ensemble and cross-check stored aggregates."""
    out = Path(out_dir)
    lines = [
        ln for ln in (out / "rows.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    header, *rows_raw = lines
    if header != ",".join(ROW_COLUMNS):
        raise ValueError(f"unexpected rows.csv header: {header}")
    rows = [TrajectorySummary.from_csv_row(r) for r in rows_raw]
    payload = json.loads((out / "aggregates.json").read_text())
    stored = payload["aggregates"]
    u0_l1 = stored.get("u0_l1", 0.0)
    qv = stored.get("qv_at_mass_bound")
    mass_bound = qv["M"] if qv else 1.0
    recomputed = compute_aggregates(rows, u0_l1, mass_bound)
    recomputed["failure_count"] = len(payload.get("failures", []))
    mismatch = {
        k for k in recomputed
        if json.loads(json.dumps(recomputed[k])) != stored.get(k)
    }
    if mismatch:
        raise ValueError(
            f"stored aggregates disagree with rows for keys {sorted(mismatch)}: "
            "result files are inconsistent"
        )
    return EnsembleResult(
        rows=rows,
        aggregates=stored,
        config_hash=payload["config_hash"],
        failures=payload.get("failures", []),
    )


# -- gamma sweep -----------------------------------------------------------


@dataclass
class SweepResult:
    gammas: list
    thresholds: list
    exit_fractions: dict  # gamma -> [fraction per threshold]
    doubling: dict  # gamma -> {m0, mean_up_events_above_m0, fast, slow}
    config_hash: str

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "gammas": self.gammas,
            "thresholds": self.thresholds,
            "exit_fractions": {str(g): v for g, v in self.exit_fractions.items()},
            "doubling": {str(g): v for g, v in self.doubling.items()},
        }

    def exit_table_csv(self) -> str:
        lines = ["gamma,threshold,exit_fraction"]
        for g in self.gammas:
            for thr, frac in zip(self.thresholds, self.exit_fractions[g]):
                lines.append(f"{g!r},{thr!r},{frac!r}")
        return "\n".join(lines) + "\n"


def sweep_gamma(config: SimConfig, gamma_grid, threshold_grid) -> SweepResult:
    """Exit fractions per (gamma, threshold) plus doubling counts per gamma.

    The gamma grid is expected to straddle the critical exponent so the
    transition is visible.  Thresholds must be powers of two; the
    truncation level is raised to the largest threshold so exits are
    observable.  All gamma cells share the same base seed (common random
    numbers).
    """
    thresholds = sorted(float(t) for t in threshold_grid)
    for thr in thresholds:
        m = math.log2(thr)
        if abs(m - round(m)) > 1e-9:
            raise ValueError(f"threshold {thr} is not a power of two")
    gammas = [float(g) for g in gamma_grid]

    fit_basis = _verification_basis(config.domain)
    _, c_fit, _ = heat_kernel_decay_fit(fit_basis)
    m0 = doubling_threshold_level(config.mass_bound, c_fit)
    beta = config.domain.dimension / 2.0

    exit_fractions = {}
    doubling = {}
    truncation = max(config.sigma.truncation, thresholds[-1])
    for g in gammas:
        cfg = replace(config, sigma=replace(config.sigma, growth=g,
                                            truncation=truncation))
        result = run_ensemble(cfg, keep_records=True)
        sups = np.array([r.max_sup_norm for r in result.rows])
        exit_fractions[g] = [float(np.mean(sups >= thr)) for thr in thresholds]
        fast = slow = 0
        ups_above = []
        for rec in result.records:
            events = detect_doubling(rec)
            ups_above.append(up_event_count(events, m0))
            for e in events:
                if e.direction == "up" and e.m > m0:
                    try:
                        window = doubling_window(config.mass_bound, e.m, beta, c_fit)
                    except ValueError:
                        continue
                    if e.rho_end - e.rho_start <= window:
                        fast += 1
                    else:
                        slow += 1
        doubling[g] = {
            "m0": m0,
            "mean_up_events_above_m0": float(np.mean(ups_above)),
            "fast_up_events": fast,
            "slow_up_events": slow,
        }
    return SweepResult(
        gammas=gammas,
        thresholds=thresholds,
        exit_fractions=exit_fractions,
        doubling=doubling,
        config_hash=config_hash(config),
    )


# -- assumption verification -------------------------------------------------


def _verification_basis(domain: DomainSpec) -> object:
    """High-resolution same-geometry basis for continuum exponent fits."""
    n = {1: 1024, 2: 1024, 3: 256}[domain.dimension]
    return build_basis(DomainSpec(domain.dimension, domain.boundary, n,
                                  length=domain.length))


@dataclass
class AssumptionReport:
    clauses: dict
    config_hash: str

    @property
    def passed(self) -> bool:
        return all(
            c.get("passed", True) or c.get("inapplicable", False)
            for c in self.clauses.values()
        )

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "clauses": self.clauses,
            "passed": self.passed,
        }


def verify_assumptions(config: SimConfig) -> AssumptionReport:
    """Executable checks of the kernel/noise decay assumptions.

    (A) heat-kernel sup decay exponent -d/2, (B) kernel-smoothed decay
    exponent -eta, (C) finite double integral of the covariance.  Failures
    are carried in the report, never raised.
    """
    d = config.domain.dimension
    clauses = {}

    fit_basis = _verification_basis(config.domain)
    slope, c_fit, rms = heat_kernel_decay_fit(fit_basis)
    clauses["A"] = {
        "fitted_slope": slope,
        "expected": -d / 2,
        "fitted_C": c_fit,
        "residual": rms,
        "passed": abs(slope + d / 2) <= 0.05,
    }

    decay_n = {1: 512, 2: 256, 3: 64}[d]
    decay_basis = build_basis(
        DomainSpec(d, config.domain.boundary, decay_n, length=config.domain.length)
    )
    try:
        report = verify_decay(config.noise, decay_basis)
        clauses["B"] = report.to_dict()
        clauses["B"]["passed"] = report.passed
    except (KernelValidationError, DecayFitError) as exc:
        clauses["B"] = {"passed": False, "error": str(exc)}

    if isinstance(config.noise, WhiteNoise):
        clauses["C"] = {
            "inapplicable": True,
            "note": "delta kernel has no finite double integral",
        }
    else:
        quad_n = {1: 512, 2: 64, 3: 16}[d]
        quad_basis = build_basis(
            DomainSpec(d, config.domain.boundary, quad_n, length=config.domain.length)
        )
        value = double_integral(config.noise, quad_basis)
        clauses["C"] = {"value": value, "passed": bool(np.isfinite(value))}

    return AssumptionReport(clauses=clauses, config_hash=config_hash(config))
