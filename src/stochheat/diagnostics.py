"""Probabilistic diagnostics: doubling events, mass bounds, moment probes.

These are pure folds over trajectory records plus one dedicated Monte Carlo
probe for the stochastic convolution.  The mass bounds are theorems for the
continuum dynamics; here they are checked statistically (empirical value
against bound plus three standard errors).

Doubling bookkeeping: an event records the attainment of a dyadic level
2^m of the sup-norm.  The discrete series can jump several levels between
samples; one event is emitted per boundary crossed, in order, so that
successive event levels always differ by exactly one.  Once at level 1
(value 2) only the upward boundary 4 is watched, so no event below level 1
is ever emitted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .noise import SpectralSampler, make_sampler
from .spectral import SpectralBasis, loglog_slope
from .stepping import (
    _BATCH_NORMALS,
    BIT_GENERATOR,
    TrajectoryRecord,
    drawn_ahead,
    seeded_stream,
)

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class DoublingEvent:
    """One dyadic-level attainment of the sup-norm series.

    ``m`` is the level attained at ``rho_end`` (value 2^m); ``direction``
    says whether it was reached from below (up) or above (down);
    ``q_segment`` is the quadratic variation accumulated since the previous
    event (or since the start, for the first event).
    """

    index: int
    m: int
    direction: str
    rho_start: float
    rho_end: float
    q_segment: float


def detect_doubling(trajectory: TrajectoryRecord):
    """Replay the sup-norm series and emit the doubling/halving events."""
    events: list[DoublingEvent] = []
    level = 0  # occupancy level; 0 until the series first reaches 2
    prev_time = float(trajectory.t[0])
    prev_q = float(trajectory.Q[0])
    for value, when, q_now in zip(trajectory.sup_norm.tolist(), trajectory.t.tolist(),
                                  trajectory.Q.tolist()):
        # one event per boundary crossed: upward, or downward while above
        # level 1, which only watches upward (floor at value 2)
        while True:
            if value >= 2.0 ** (level + 1):
                level, direction = level + 1, UP
            elif level >= 2 and value <= 2.0 ** (level - 1):
                level, direction = level - 1, DOWN
            else:
                break
            events.append(DoublingEvent(index=len(events), m=level, direction=direction,
                                        rho_start=prev_time, rho_end=when,
                                        q_segment=q_now - prev_q))
            prev_time, prev_q = when, q_now
    return events


def up_event_count(events, m0: int) -> int:
    """Up events attaining a level strictly above m0."""
    return sum(1 for e in events if e.direction == UP and e.m > m0)


def doubling_window(M: float, m: int, beta: float, C_fit: float) -> float:
    """Deterministic decay window T_m = (C M / 2^(m-2))^(1/beta).

    Within T_m the heat flow alone brings a field of mass at most M down to
    sup-norm 2^(m-2); an up event faster than this window is noise-driven.
    """
    if M <= 0 or C_fit <= 0 or beta <= 0:
        raise ValueError("M, C_fit and beta must be positive")
    T_m = (C_fit * M / 2.0 ** (m - 2)) ** (1.0 / beta)
    if T_m >= 1.0:
        raise ValueError(
            f"T_m = {T_m:.3g} >= 1: level m={m} is below the threshold level "
            f"m0 = {doubling_threshold_level(M, C_fit)}"
        )
    return T_m


def doubling_threshold_level(M: float, C_fit: float) -> int:
    """Smallest usable level: m0 = ceil(log2(C_fit M)) + 2, so T_m < 1 above it."""
    if not (0 < M < math.inf and C_fit > 0):
        raise ValueError("M must be positive and finite, and C_fit positive")
    return int(math.ceil(math.log2(C_fit * M))) + 2


@dataclass
class DoobReport:
    """Empirical exceedance of the running L1 norm against u0_L1 / M."""

    entries: list  # dicts per M

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.entries)


def doob_check(records, M_grid, u0_l1: float | None = None) -> DoobReport:
    """Fraction of paths whose running L1 exceeds M, against the Doob bound.

    ``records`` may be trajectory records or summary rows: only their
    ``max_l1`` is read.  The initial mass is the first record's unless
    ``u0_l1`` is given."""
    records = list(records)
    if not records:
        raise ValueError("empty ensemble")
    u0 = float(records[0].l1_norm[0]) if u0_l1 is None else float(u0_l1)
    maxima = np.array([r.max_l1 for r in records])
    n = len(records)
    report = DoobReport([])
    for M in M_grid:
        bound = min(1.0, u0 / M)
        emp = float(np.mean(maxima > M))
        se = math.sqrt(max(emp * (1 - emp), 1.0 / n) / n)
        margin = (bound - emp) / se
        report.entries.append(
            {
                "M": float(M),
                "bound": bound,
                "empirical": emp,
                "se": se,
                "margin_se": margin,
                "passed": emp <= bound + 3 * se,
            }
        )
    return report


@dataclass
class QVReport:
    """Mean quadratic variation at the mass stopping time against M^2."""

    M: float
    mean_Q: float
    se: float
    n_paths: int
    n_hit: int

    @property
    def bound(self) -> float:
        return self.M**2

    @property
    def passed(self) -> bool:
        return self.mean_Q <= self.bound + 3 * self.se

    def to_dict(self):
        return {
            "M": self.M,
            "mean_Q": self.mean_Q,
            "se": self.se,
            "bound": self.bound,
            "n_paths": self.n_paths,
            "n_hit": self.n_hit,
            "passed": self.passed,
        }


def q_at_mass_stop(record: TrajectoryRecord, M: float):
    """Q at the first step where I exceeds M (or at the end if never)."""
    above = np.nonzero(record.I > M)[0]
    if len(above):
        return float(record.Q[above[0]]), True
    return float(record.Q[-1]), False


def qv_bound_check(records, M: float) -> QVReport:
    """E Q(tau_M ∧ stop) over all paths, against M^2."""
    stops = [q_at_mass_stop(r, M) for r in records]
    return qv_report([q for q, _ in stops], sum(hit for _, hit in stops), M)


def qv_report(q_values, n_hit: int, M: float) -> QVReport:
    """The QV bound's fold over Q at each path's stop tau_M ∧ stop."""
    vals = np.array(q_values, dtype=float)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return QVReport(M=float(M), mean_Q=mean, se=se, n_paths=len(vals),
                    n_hit=int(n_hit))


@dataclass
class MartingaleMeanReport:
    """|mean L1(t) - L1(0)| in standard errors at each recorded time."""

    times: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    l1_initial: float

    @property
    def max_margin_se(self) -> float:
        # floor the se at float resolution: a point-mass column (all paths
        # identical, e.g. at t=0) has ulp-level mean error and ulp-level std
        floor = 1e-12 * max(1.0, abs(self.l1_initial))
        m = np.abs(self.means - self.l1_initial) / np.maximum(self.ses, floor)
        return float(np.max(m))

    @property
    def passed(self) -> bool:
        return self.max_margin_se < 3.0


def martingale_mean_check(records) -> MartingaleMeanReport:
    """Ensemble mean of the (stopped) L1 norm at every recorded time.

    Stopped paths contribute their frozen final value, matching the
    optional-stopping form of the martingale property.
    """
    records = list(records)
    n_steps = max(len(r.t) for r in records)
    times = None
    for r in records:
        if len(r.t) == n_steps:
            times = r.t
            break
    table = np.empty((len(records), n_steps))
    for i, r in enumerate(records):
        k = len(r.l1_norm)
        table[i, :k] = r.l1_norm
        table[i, k:] = r.l1_norm[-1]
    means = table.mean(axis=0)
    ses = table.std(axis=0, ddof=1) / math.sqrt(len(records))
    return MartingaleMeanReport(
        times=times, means=means, ses=ses, l1_initial=float(records[0].l1_norm[0])
    )


# -- stochastic convolution moment probe ---------------------------------

# rows per stream of the probe: each block of rows draws from its own
# stream, so the blocks of a step can be drawn in any order, on any thread
PROBE_BLOCK_ROWS = 256


def block_rng(seed: int, block: int):
    """The stream of the probe's rows block * PROBE_BLOCK_ROWS onwards;
    independent across blocks and seeds."""
    return seeded_stream((seed, block))


def moment_admissible(p: float, beta: float, eta: float) -> bool:
    """A finite p > 2 with (1+beta)/p < (1-eta)/2 - beta/(p-2)."""
    if not 2 < p < math.inf:
        return False
    return (1 + beta) / p < (1 - eta) / 2 - beta / (p - 2)


@dataclass
class MomentProbeReport:
    """Scaling of E sup |Z|^p for the stochastic convolution."""

    p: float
    T_grid: list
    moment_estimates: list
    fitted_slope: float
    theoretical_exponent: float
    fitted_C: float
    # the stream layout the normals came from; a report of another layout
    # holds other draws
    streams: dict
    variance_checks: list = field(default_factory=list)

    @property
    def envelope_passed(self) -> bool:
        # one-sided: measured growth may not violate the upper-bound rate
        return self.fitted_slope >= self.theoretical_exponent - 0.15

    @property
    def variance_passed(self) -> bool:
        return all(v["passed"] for v in self.variance_checks)

    def to_dict(self):
        return {**asdict(self), "envelope_passed": self.envelope_passed}


class ProbeArgumentError(ValueError):
    """An argument of the moment probe that cannot give a probe; ``argument``
    is its name."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


def convolution_variance_series(sampler: SpectralSampler, t: float, x, dt: float) -> float:
    """Variance of Z(t,x) for the spectral kernel, exact for the
    exponential-Euler scheme with step dt, t = n dt:
    sum_k lambda_k^2 e_k(x)^2 dt q (1 - q^n) / (1 - q), q = e^(-2 alpha_k dt),
    which is n dt for alpha_k = 0 and tends to the continuum Ito-isometry
    series as dt -> 0."""
    n = round(t / dt)
    if abs(n * dt - t) > 1e-9 * max(t, 1.0):
        raise ValueError(f"t = {t} is not a multiple of dt = {dt}")
    basis = sampler.basis
    alpha = basis.eigenvalue_tensor()
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(
            alpha > 0,
            dt * np.exp(-2 * alpha * dt) * np.expm1(-2 * alpha * n * dt)
            / np.expm1(-2 * alpha * dt),
            n * dt,
        )
    fx = basis.axis_eigenfunctions(np.atleast_1d(np.asarray(x, dtype=float)))
    return basis.contract(sampler.weights * factor, fx * fx)


def convolution_moment_probe(basis: SpectralBasis, noise_spec, p: float,
                             T_grid, paths: int, dt: float, seed: int = 0,
                             batches: int = 32) -> MomentProbeReport:
    """Simulate Z(t,x) = conv(G, dW) and probe E sup_{t<=T,x} |Z|^p.

    The solver's exponential-Euler stepping with unit coefficient.  Heavy
    tails at large p are tamed with a median-of-means estimate over
    ``batches`` groups of paths.  A sampler with per-mode ``weights`` (the
    spectral kernel) adds its normals, scaled on the drawing thread, to the
    coefficients of Z, and its pointwise variance is compared against the
    scheme's exact eigenvalue series; every other maps them with
    ``increments`` and ``to_spectral_batch``.
    Each block of ``PROBE_BLOCK_ROWS`` rows draws its normals from its own
    SFC64 stream (``block_rng``); the blocks of a step are the units of
    ``stepping.drawn_ahead``, drawn by its helper thread and by the caller
    with the values of a serial draw per block and step.  The report names
    that layout in ``streams``.  Needs ``1 <= batches <= paths``, finite
    ``dt`` and horizons, and moments that are positive finite floats; an
    argument that cannot give a probe raises ProbeArgumentError.
    """
    if not 1 <= batches <= paths:
        raise ProbeArgumentError(
            "paths",
            f"paths = {paths} and batches = {batches}: the median of means "
            "needs 1 <= batches <= paths, at least one path per group",
        )
    beta, eta = noise_spec.params(basis.dimension)
    if not moment_admissible(p, beta, eta):
        raise ProbeArgumentError(
            "p",
            f"p = {p} is inadmissible for beta={beta}, eta={eta}: requires a "
            "finite p > 2 with (1+beta)/p < (1-eta)/2 - beta/(p-2)",
        )
    if not 0 < dt < math.inf:
        raise ProbeArgumentError("dt", f"dt = {dt} must be positive and finite")
    T_grid = sorted(float(T) for T in T_grid)
    if not T_grid:
        raise ProbeArgumentError("T_grid", "T_grid needs at least one horizon")
    steps_at = []
    for T in T_grid:  # an infinite or nan horizon takes no step
        k = round(T / dt) if T / dt < math.inf else 0
        if k < 1 or abs(k * dt - T) > 1e-9 * max(T, 1.0):
            raise ProbeArgumentError(
                "T_grid", f"T = {T} is not a positive whole number of steps dt = {dt}")
        if steps_at and k == steps_at[-1]:
            raise ProbeArgumentError(
                "T_grid", f"T_grid = {T_grid} has two horizons at step {k} of "
                f"dt = {dt}: each horizon needs its own step")
        steps_at.append(k)
    n_steps = steps_at[-1]

    sampler = make_sampler(noise_spec, basis)
    spectral = sampler.weights is not None  # independent coefficients
    # the grid point nearest the centre, where Z is recorded and the
    # oracle evaluated (a midpoint grid has no point at the centre itself)
    center_idx = tuple(
        int(np.argmin(np.abs(basis.axis_points - c))) for c in basis.center_point()
    )
    center = basis.axis_points[list(center_idx)]

    Z = np.zeros((paths,) + basis.coeff_shape)
    highest = np.zeros((paths, math.prod(basis.grid_shape)))  # running max |Z|
    sup_snapshots = np.empty((len(steps_at), paths))
    center_snapshots = np.empty((len(steps_at), paths))
    snap = 0
    center_flat = np.ravel_multi_index(center_idx, basis.grid_shape)

    # block b holds rows b*PROBE_BLOCK_ROWS onwards and draws their normals,
    # step after step, from its own stream; a chunk is the blocks of one
    # step that fit in _BATCH_NORMALS values (at least one), each a unit
    per_row = math.prod(sampler.normal_shape)
    rngs = [block_rng(seed, b) for b in range(-(-paths // PROBE_BLOCK_ROWS))]
    per_chunk = max(1, _BATCH_NORMALS // (PROBE_BLOCK_ROWS * per_row))
    groups = -(-len(rngs) // per_chunk)
    rows = min(paths, per_chunk * PROBE_BLOCK_ROWS)
    scale = math.sqrt(dt) * sampler.amplitudes if spectral else None
    decay = basis.semigroup(np.ones(basis.coeff_shape), dt)  # S(dt), mode by mode

    def blocks(k):  # the units of chunk k
        g = k % groups
        return range(g * per_chunk, min(len(rngs), (g + 1) * per_chunk))

    def fill(out, k, b):
        a = b % per_chunk * PROBE_BLOCK_ROWS
        z = out[a:a + min(PROBE_BLOCK_ROWS, paths - b * PROBE_BLOCK_ROWS)]
        rngs[b].standard_normal(out=z)
        if spectral:  # the spectral increments, scaled in place
            np.multiply(z, scale, out=z)

    with drawn_ahead((rows,) + sampler.normal_shape, fill, n_steps * groups,
                     blocks(0)) as take:
        k = 0
        for s in range(1, n_steps + 1):
            for a in range(0, paths, rows):  # Z gains a chunk at a time, in place
                k += 1
                z = take(blocks(k))[:paths - a]
                Z[a:a + rows] += z if spectral else basis.to_spectral_batch(
                    sampler.increments(dt, z))
            Z *= decay
            Z_grid = basis.to_grid_batch(Z).reshape(paths, -1)
            at_snapshot = s == steps_at[snap]
            if at_snapshot:
                center_snapshots[snap] = Z_grid[:, center_flat]
            # the running max of |Z| at every grid point, |Z| taken in place;
            # a row's sup is reduced only at the snapshots
            np.maximum(highest, np.abs(Z_grid, out=Z_grid), out=highest)
            if at_snapshot:
                sup_snapshots[snap] = highest.max(axis=1)
                snap += 1

    # median of means over batches for E sup^p
    group = paths // batches
    estimates = []
    for row in sup_snapshots:
        vals = row[: group * batches].reshape(batches, group) ** p
        estimates.append(float(np.median(vals.mean(axis=1))))

    # no kernel's forcing vanishes, so a moment that is not a positive
    # finite float left float range: the slope of its log means nothing
    for T, estimate in zip(T_grid, estimates):
        if not 0 < estimate < math.inf:
            raise ProbeArgumentError(
                "p", f"E sup |Z|^p = {estimate} at T = {T}: p = {p} takes the "
                "moment out of the positive finite floats")
    exponent = (1 - eta) * (p - 2) / 2 - 2 * beta
    slope, intercept, _ = loglog_slope(np.array(T_grid), np.array(estimates))

    variance_checks = []
    if spectral:
        for j, T in enumerate(T_grid):
            oracle = convolution_variance_series(sampler, T, center, dt)
            emp = float(center_snapshots[j].var())
            se = oracle * math.sqrt(2.0 / max(paths - 1, 1))
            variance_checks.append(
                {
                    "T": T,
                    "oracle": oracle,
                    "empirical": emp,
                    "se": se,
                    "passed": abs(emp - oracle) < 3 * se,
                }
            )

    return MomentProbeReport(
        p=p,
        T_grid=list(T_grid),
        moment_estimates=estimates,
        fitted_slope=slope,
        theoretical_exponent=exponent,
        fitted_C=float(math.exp(intercept)),
        streams={"generator": BIT_GENERATOR,
                 "rows_per_stream": PROBE_BLOCK_ROWS},
        variance_checks=variance_checks,
    )
