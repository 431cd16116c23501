"""Seeded ensemble orchestration, the gamma sweep, and assumption checks.

Trajectories are pure functions of (config, seed) with seeds base_seed + i.
One runner serves any worker count: the seeds run in one block of
consecutive path indices per worker, each block builds its own context,
steps its seeds as one batch and summarizes its own paths, and the blocks
are merged in order, so results are independent of the worker count.  Row
CSVs are written with repr-exact floats and a stable column order, making
repeated runs byte-identical; wall-clock metrics and the seconds of each
phase go to a separate run_info.json that is excluded from the determinism
contract."""

from __future__ import annotations

import concurrent.futures
import json
import math
import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import SimConfig, config_hash
from .diagnostics import (
    detect_doubling,
    doob_check,
    doubling_threshold_level,
    doubling_window,
    qv_report,
    up_event_count,
)
from .noise import DecayFitError, KernelValidationError, verify_decay
from .spectral import DomainSpec, build_basis, heat_kernel_decay_fit
from .stepping import TrajectoryRecord, build_context, run_batch

SCHEMA_VERSION = 2


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

    def csv_row(self) -> str:  # the fields in column order, floats repr-exact
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in astuple(self))

    @classmethod
    def from_csv_row(cls, row: str) -> "TrajectorySummary":
        kinds = {"seed": int, "stop_flag": str, "doubling_count": int}
        return cls(*(kinds.get(c, float)(v) for c, v in zip(ROW_COLUMNS, row.split(","))))


ROW_COLUMNS = tuple(f.name for f in fields(TrajectorySummary))


def summarize(record: TrajectoryRecord) -> TrajectorySummary:
    return TrajectorySummary(
        seed=record.seed,
        stop_flag=record.stop_flag,
        stop_time=record.stop_time,
        max_sup_norm=record.max_sup_norm,
        max_l1=record.max_l1,
        final_I=record.final_I,
        final_Q=record.final_Q,
        clamped_fraction=record.clamped_fraction,
        doubling_count=up_event_count(detect_doubling(record), 0),
    )


@dataclass
class EnsembleResult:
    rows: list
    aggregates: dict
    config_hash: str
    failures: list = field(default_factory=list)
    wall_clock: float = 0.0
    records: list | None = None
    # records written as trajectories/seed<k>.csv
    trajectories: list = field(default_factory=list)
    # workers, blocks and seconds per phase, for run_info.json
    run_info: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return len(self.rows) / self.wall_clock if self.wall_clock > 0 else math.inf

    def write(self, out_dir) -> Path:
        """rows.csv, aggregates.json, the trajectories and, last, run_info.json
        with the seconds this write took."""
        t0 = time.monotonic()
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
        if self.trajectories:
            traj_dir = out / "trajectories"
            traj_dir.mkdir(exist_ok=True)
            for r in self.trajectories:
                write_trajectory_csv(r, traj_dir / f"seed{r.seed}.csv",
                                     config_hash=self.config_hash)
        info = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "wall_clock_seconds": self.wall_clock,
            "paths_per_second": self.throughput,
            **self.run_info,
        }
        info["phase_seconds"] = dict(info.get("phase_seconds", {}),
                                     write=time.monotonic() - t0)
        (out / "run_info.json").write_text(json.dumps(info, indent=2) + "\n")
        return out


def compute_aggregates(rows, u0_l1: float, mass_bound: float) -> dict:
    """Aggregate statistics; a pure function of the summary rows so that
    stored aggregates can be recomputed and cross-checked on load.

    The bounds are the diagnostics' folds over the rows.  A path stops at
    the first step where I exceeds the mass bound, so its final_Q is Q at
    tau_M ∧ stop and ``qv_at_mass_bound`` equals qv_bound_check of its
    records."""
    n = len(rows)
    if n == 0:
        return {"paths": 0, "mass_bound": mass_bound}
    max_l1 = np.array([r.max_l1 for r in rows])
    final_I = np.array([r.final_I for r in rows])
    flags = [r.stop_flag for r in rows]
    doob = doob_check(rows, [2.0 * u0_l1, 4.0 * u0_l1, 8.0 * u0_l1], u0_l1=u0_l1)
    qv = qv_report([r.final_Q for r in rows],
                   int(np.count_nonzero(final_I > mass_bound)), mass_bound)
    counts = {}
    for r in rows:
        counts[r.doubling_count] = counts.get(r.doubling_count, 0) + 1
    return {
        "paths": n,
        "u0_l1": u0_l1,
        "mass_bound": mass_bound,
        "stop_fractions": {
            flag: flags.count(flag) / n for flag in ("tau_n", "tau_M", "horizon")
        },
        "mean_final_I": float(np.mean(final_I)),
        "se_final_I": float(np.std(final_I, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        "mean_max_l1": float(np.mean(max_l1)),
        "max_max_sup": float(np.max([r.max_sup_norm for r in rows])),
        "mean_clamped_fraction": float(np.mean([r.clamped_fraction for r in rows])),
        "doob": doob.entries,
        "qv_at_mass_bound": qv.to_dict(),
        "doubling_count_histogram": {str(k): v for k, v in sorted(counts.items())},
    }


def _run_isolated(context, seeds):
    """run_batch, with a batch that raises split in halves and rerun.

    A failed path becomes ``seed s: <message>``; a seed that raises on its
    own becomes ``seed s: <Class>: <message>``.  The halves are rerun down
    to single seeds, so only the seeds that raise are lost, whatever the
    blocks."""
    try:
        records, failures = run_batch(context, seeds)
    except Exception as exc:
        if len(seeds) == 1:
            return [], [f"seed {seeds[0]}: {type(exc).__name__}: {exc}"]
        half = len(seeds) // 2
        head, head_failures = _run_isolated(context, seeds[:half])
        tail, tail_failures = _run_isolated(context, seeds[half:])
        return head + tail, head_failures + tail_failures
    return records, [f"seed {seed}: {exc}" for seed, exc in failures]


def _context_telemetry(context) -> dict:
    """Numerical safeguards of a built run, for run_info.json: the Riesz
    covariance's clipped spectral mass (None for other kernels) and dt over
    the stepper's stiffness heuristic."""
    return {
        "clipped_fraction": context.sampler.clipped_fraction,
        "dt_over_heuristic": context.dt / context.dt_heuristic,
    }


def _run_block(config: SimConfig, seeds, keep_records: bool):
    """Run and summarize one block of consecutive seeds on its own context.

    Returns (rows, failures, records, u0_l1, telemetry): the summary rows and
    failure messages in seed order, the records the caller uses (all of them
    with keep_records, else the first config.save_trajectories), the initial
    mass and the context's telemetry.  An error while building the context
    is raised."""
    context = build_context(config)
    records, failures = _run_isolated(context, seeds)
    rows = [summarize(r) for r in records]
    kept = records if keep_records else records[:config.save_trajectories]
    u0_l1 = float(context.basis.integrate(context.u0))
    return rows, failures, kept, u0_l1, _context_telemetry(context)


def run_ensemble(config: SimConfig, keep_records: bool = False,
                 out_dir=None) -> EnsembleResult:
    """Run config.paths seeded trajectories and aggregate the results.

    The seeds are split into min(workers, paths) blocks of consecutive path
    indices, whose sizes differ by at most one.  One block runs in this
    process; more run on a pool with one process per block.  Each block
    builds its context, runs its seeds as one run_batch call and summarizes
    its own paths, and the blocks are merged in order.  Every path owns its
    own counter-based stream, so the worker count cannot change any output
    byte.  A block that raises is split in halves and rerun down to single
    seeds, so only the seeds that raise are recorded as failed; an error
    while building a context is raised.
    """
    t0 = time.monotonic()
    seeds = [config.base_seed + i for i in range(config.paths)]
    count = min(config.workers, config.paths)
    size, extra = divmod(config.paths, count)
    bounds = [k * size + min(k, extra) for k in range(count + 1)]
    blocks = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
    if count > 1:
        with concurrent.futures.ProcessPoolExecutor(count) as pool:
            results = list(pool.map(_run_block, [config] * count, blocks,
                                    [keep_records] * count))
    else:
        results = [_run_block(config, blocks[0], keep_records)]
    block_rows, block_failures, block_records, u0_l1s, telemetry = zip(*results)
    rows = [r for part in block_rows for r in part]
    failures = [f for part in block_failures for f in part]
    records = [r for part in block_records for r in part]
    t_blocks = time.monotonic()
    aggregates = compute_aggregates(rows, u0_l1s[0], config.mass_bound)
    aggregates["failure_count"] = len(failures)
    t_aggregates = time.monotonic()
    result = EnsembleResult(
        rows=rows,
        aggregates=aggregates,
        config_hash=config_hash(config),
        failures=failures,
        wall_clock=t_aggregates - t0,
        records=records if keep_records else None,
        trajectories=records[:config.save_trajectories],
        run_info={
            "workers": config.workers,
            "blocks": count,
            **telemetry[0],
            "phase_seconds": {"blocks": t_blocks - t0,
                              "aggregates": t_aggregates - t_blocks},
        },
    )
    if out_dir is not None:
        result.write(out_dir)
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
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"aggregates.json has schema_version {payload.get('schema_version')}; "
            f"this version reads {SCHEMA_VERSION}"
        )
    stored = payload["aggregates"]
    recomputed = compute_aggregates(rows, stored.get("u0_l1", 0.0),
                                    stored["mass_bound"])
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


def sweep_thresholds(threshold_grid) -> list:
    """The sweep's sup-norm thresholds, sorted; raises ValueError unless
    every one is a power of two."""
    thresholds = sorted(float(t) for t in threshold_grid)
    for thr in thresholds:
        if not (0 < thr < math.inf and abs(math.log2(thr) - round(math.log2(thr))) <= 1e-9):
            raise ValueError(f"threshold {thr} is not a power of two")
    return thresholds


def sweep_gamma(config: SimConfig, gamma_grid, threshold_grid) -> SweepResult:
    """Exit fractions per (gamma, threshold) plus doubling counts per gamma.

    The gamma grid is expected to straddle the critical exponent so the
    transition is visible.  Thresholds must be powers of two; the
    truncation level is raised to the largest threshold so exits are
    observable.  All gamma cells share the same base seed (common random
    numbers).
    """
    thresholds = sweep_thresholds(threshold_grid)
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
                # above m0 the window T_m is below 1, so it exists
                if e.direction == "up" and e.m > m0:
                    window = doubling_window(config.mass_bound, e.m, beta, c_fit)
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

    if not config.noise.integrable:
        clauses["C"] = {
            "inapplicable": True,
            "note": "delta kernel has no finite double integral",
        }
    else:
        quad_n = {1: 512, 2: 64, 3: 16}[d]
        quad_basis = build_basis(
            DomainSpec(d, config.domain.boundary, quad_n, length=config.domain.length)
        )
        value = config.noise.double_integral(quad_basis)
        clauses["C"] = {"value": value, "passed": bool(np.isfinite(value))}

    return AssumptionReport(clauses=clauses, config_hash=config_hash(config))
