"""Seeded ensemble orchestration, the gamma sweep, and assumption checks.

Trajectories are pure functions of (config, seed) with seeds base_seed + i.
One runner serves any worker count: the seeds run in one block of
consecutive path indices per worker, each block builds its own context,
steps its seeds as one batch and summarizes its own paths, and the blocks
are merged in order, so results are independent of the worker count.  Row
CSVs are written with repr-exact floats and a stable column order, making
repeated runs byte-identical; the wall clock, paths per second and the
seconds of each phase go to a separate run_info.json that is excluded from
the determinism contract.  Every JSON output opens with the schema_version
and config_hash header of ``write_json``, and every stamped CSV with the
stamp line of ``write_csv``."""

from __future__ import annotations

import concurrent.futures
import json
import math
import time
from collections import Counter
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, SimConfig, config_hash
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
from .stepping import BIT_GENERATOR, TrajectoryRecord, build_context, run_batch

SCHEMA_VERSION = 4


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
    """A record's row: the record's values of the columns it has, and its
    doubling count."""
    shared = {c: getattr(record, c) for c in ROW_COLUMNS if hasattr(record, c)}
    return TrajectorySummary(**shared, doubling_count=up_event_count(detect_doubling(record), 0))


@dataclass
class EnsembleResult:
    rows: list
    aggregates: dict
    config_hash: str
    failures: list = field(default_factory=list)
    records: list | None = None
    # records written as trajectories/seed<k>.csv
    trajectories: list = field(default_factory=list)
    # run_info.json: wall clock, paths/s, workers, blocks, streams,
    # telemetry, phases
    run_info: dict = field(default_factory=dict)

    def write(self, out_dir) -> Path:
        """rows.csv, aggregates.json, the trajectories and, last, run_info.json
        with the seconds this write took."""
        t0 = time.monotonic()
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "rows.csv", self.config_hash, ",".join(ROW_COLUMNS),
                  [r.csv_row() for r in self.rows])
        write_json(out / "aggregates.json", self.config_hash,
                   {"aggregates": self.aggregates, "failures": self.failures})
        if self.trajectories:
            traj_dir = out / "trajectories"
            traj_dir.mkdir(exist_ok=True)
            for r in self.trajectories:
                write_trajectory_csv(r, traj_dir / f"seed{r.seed}.csv",
                                     config_hash=self.config_hash)
        phases = dict(self.run_info.get("phase_seconds", {}), write=time.monotonic() - t0)
        write_json(out / "run_info.json", self.config_hash,
                   dict(self.run_info, phase_seconds=phases))
        return out


def write_json(path, config_hash: str, payload: dict) -> None:
    """Write a JSON output: ``payload`` under the schema_version and
    config_hash header every JSON output opens with."""
    header = {"schema_version": SCHEMA_VERSION, "config_hash": config_hash}
    Path(path).write_text(json.dumps({**header, **payload}, indent=2) + "\n")


def write_csv(path, config_hash: str | None, header: str, rows) -> None:
    """Write a CSV output: the stamp line of the config hash (none without
    one), the header and the rows."""
    stamp = [] if config_hash is None else [
        f"# config_hash={config_hash} schema_version={SCHEMA_VERSION}"]
    Path(path).write_text("\n".join([*stamp, header, *rows]) + "\n")


def compute_aggregates(rows, u0_l1: float, mass_bound: float, failure_count: int) -> dict:
    """Aggregate statistics; a pure function of the summary rows and the
    count of failed paths, so that stored aggregates can be recomputed and
    cross-checked on load.

    The bounds are the diagnostics' folds over the rows.  A path stops at
    the first step where I exceeds the mass bound, so its final_Q is Q at
    tau_M ∧ stop and ``qv_at_mass_bound`` equals qv_bound_check of its
    records."""
    n = len(rows)
    if n == 0:
        return {"paths": 0, "mass_bound": mass_bound, "failure_count": failure_count}
    max_l1 = np.array([r.max_l1 for r in rows])
    final_I = np.array([r.final_I for r in rows])
    flags = [r.stop_flag for r in rows]
    doob = doob_check(rows, [2.0 * u0_l1, 4.0 * u0_l1, 8.0 * u0_l1], u0_l1=u0_l1)
    qv = qv_report([r.final_Q for r in rows],
                   int(np.count_nonzero(final_I > mass_bound)), mass_bound)
    counts = Counter(r.doubling_count for r in rows)
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
        "failure_count": failure_count,
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
    indices (``_run_block``), whose sizes differ by at most one.  One block
    runs in this process; more run on a pool with one process per block.
    Only the seeds that raise are recorded as failed (``_run_isolated``);
    an error while building a context is raised.  The wall clock, paths per
    second and the seconds of each phase go to ``run_info``.
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
    aggregates = compute_aggregates(rows, u0_l1s[0], config.mass_bound, len(failures))
    t_aggregates = time.monotonic()
    wall_clock = t_aggregates - t0
    result = EnsembleResult(
        rows=rows,
        aggregates=aggregates,
        config_hash=config_hash(config),
        failures=failures,
        records=records if keep_records else None,
        trajectories=records[:config.save_trajectories],
        run_info={
            "wall_clock_seconds": wall_clock,
            "paths_per_second": len(rows) / wall_clock if wall_clock > 0 else math.inf,
            "workers": config.workers,
            "blocks": count,
            # the stream layout of the rows, as the probe report names its own
            "streams": {"generator": BIT_GENERATOR, "per": "path",
                        "normal_shape": list(config.noise.normal_shape(config.domain))},
            **telemetry[0],
            "phase_seconds": {"blocks": t_blocks - t0,
                              "aggregates": t_aggregates - t_blocks},
        },
    )
    if out_dir is not None:
        result.write(out_dir)
    return result


def write_trajectory_csv(record: TrajectoryRecord, path, config_hash=None):
    write_csv(path, config_hash, TrajectoryRecord.CSV_HEADER, record.csv_rows())


def load_ensemble(out_dir) -> EnsembleResult:
    """Load a persisted ensemble and cross-check stored aggregates.

    run_info.json, when present, is loaded as it stands: it lies outside
    the determinism contract, so nothing is checked against it."""
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
                                    stored["mass_bound"], len(payload.get("failures", [])))
    mismatch = {
        k for k in recomputed
        if json.loads(json.dumps(recomputed[k])) != stored.get(k)
    }
    if mismatch:
        raise ValueError(
            f"stored aggregates disagree with rows for keys {sorted(mismatch)}: "
            "result files are inconsistent"
        )
    info = out / "run_info.json"
    return EnsembleResult(
        rows=rows,
        aggregates=stored,
        config_hash=payload["config_hash"],
        failures=payload.get("failures", []),
        run_info=json.loads(info.read_text()) if info.exists() else {},
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


def sweep_gammas(gamma_grid) -> list:
    """The sweep's growth exponents; raises ValueError unless every one is
    finite and nonnegative."""
    gammas = [float(g) for g in gamma_grid]
    if not all(0 <= g < math.inf for g in gammas):
        raise ValueError(f"growth exponents {gammas} must be finite and >= 0")
    return gammas


def sweep_gamma(config: SimConfig, gamma_grid, threshold_grid) -> SweepResult:
    """Exit fractions per (gamma, threshold) plus doubling counts per gamma.

    The gamma grid is expected to straddle the critical exponent so the
    transition is visible.  Thresholds must be powers of two; the
    truncation level is raised to the largest threshold so exits are
    observable.  All gamma cells share the same base seed (common random
    numbers).  The doubling levels need a finite mass bound: an infinite
    one raises ConfigError, before any work.
    """
    thresholds = sweep_thresholds(threshold_grid)
    gammas = sweep_gammas(gamma_grid)
    if not config.mass_bound < math.inf:
        raise ConfigError(f"run.mass_bound: the sweep's doubling levels need a "
                          f"finite mass bound, got {config.mass_bound!r}")

    _, c_fit, _ = _heat_kernel_fit(config.domain)
    m0 = doubling_threshold_level(config.mass_bound, c_fit)
    beta = config.domain.dimension / 2.0

    exit_fractions = {}
    doubling = {}
    truncation = max(config.sigma.truncation, thresholds[-1])
    for g in gammas:
        cfg = config.with_sigma(replace(config.sigma, growth=g, truncation=truncation))
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


def _verification_basis(domain: DomainSpec, points: dict):
    """The domain's geometry at points[d] points per axis, every mode kept,
    for the continuum fits and quadratures."""
    return build_basis(replace(domain, grid_points=points[domain.dimension], modes=None))


def _heat_kernel_fit(domain: DomainSpec):
    """(slope, C, residual) of the heat kernel's sup decay on a fine basis."""
    return heat_kernel_decay_fit(_verification_basis(domain, {1: 1024, 2: 1024, 3: 256}))


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

    slope, c_fit, rms = _heat_kernel_fit(config.domain)
    clauses["A"] = {
        "fitted_slope": slope,
        "expected": -d / 2,
        "fitted_C": c_fit,
        "residual": rms,
        "passed": abs(slope + d / 2) <= 0.05,
    }

    decay_basis = _verification_basis(config.domain, {1: 512, 2: 256, 3: 64})
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
        quad_basis = _verification_basis(config.domain, {1: 512, 2: 64, 3: 16})
        value = config.noise.double_integral(quad_basis)
        clauses["C"] = {"value": value, "passed": bool(np.isfinite(value))}

    return AssumptionReport(clauses=clauses, config_hash=config_hash(config))
