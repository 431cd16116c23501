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
from dataclasses import dataclass, field

import numpy as np

from .noise import SpectralKernel, SpectralSampler, kernel_params, make_sampler
from .spectral import SpectralBasis, loglog_slope
from .stepping import TrajectoryRecord, path_rng

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


def detect_doubling(trajectory: TrajectoryRecord, m0: int = 1):
    """Replay the sup-norm series and emit the doubling/halving events."""
    if m0 < 1:
        raise ValueError("m0 must be >= 1")
    sup = trajectory.sup_norm
    t = trajectory.t
    Q = trajectory.Q
    events: list[DoublingEvent] = []
    level = None  # occupancy level, None before the first attainment
    prev_time = float(t[0])
    prev_q = float(Q[0])

    def emit(new_level, direction, when, q_now):
        nonlocal prev_time, prev_q
        events.append(
            DoublingEvent(
                index=len(events),
                m=new_level,
                direction=direction,
                rho_start=prev_time,
                rho_end=when,
                q_segment=q_now - prev_q,
            )
        )
        prev_time, prev_q = when, q_now

    for s in range(len(sup)):
        value = float(sup[s])
        when = float(t[s])
        q_now = float(Q[s])
        if level is None:
            if value >= 2.0:
                target = int(math.floor(math.log2(value)))
                for lv in range(1, target + 1):
                    emit(lv, UP, when, q_now)
                level = target
            continue
        # upward crossings, one event per boundary
        while value >= 2.0 ** (level + 1):
            emit(level + 1, UP, when, q_now)
            level += 1
        # downward crossings; level 1 only watches upward (floor at value 2)
        while level >= 2 and value <= 2.0 ** (level - 1):
            emit(level - 1, DOWN, when, q_now)
            level -= 1
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
    if M <= 0 or C_fit <= 0:
        raise ValueError("M and C_fit must be positive")
    return int(math.ceil(math.log2(C_fit * M))) + 2


@dataclass
class DoobReport:
    """Empirical exceedance of the running L1 norm against u0_L1 / M."""

    u0_l1: float
    entries: list = field(default_factory=list)  # dicts per M

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.entries)

    def to_dict(self):
        return {"u0_l1": self.u0_l1, "entries": self.entries, "passed": self.passed}


def doob_check(records, M_grid) -> DoobReport:
    """Fraction of paths whose running L1 exceeds M, against the Doob bound."""
    records = list(records)
    if not records:
        raise ValueError("empty ensemble")
    u0 = float(records[0].l1_norm[0])
    maxima = np.array([r.max_l1 for r in records])
    n = len(records)
    report = DoobReport(u0_l1=u0)
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
    records = list(records)
    vals, hits = [], 0
    for r in records:
        q, hit = q_at_mass_stop(r, M)
        vals.append(q)
        hits += int(hit)
    vals = np.array(vals)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return QVReport(M=float(M), mean_Q=mean, se=se, n_paths=len(vals), n_hit=hits)


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


def moment_admissible(p: float, beta: float, eta: float) -> bool:
    """(1+beta)/p < (1-eta)/2 - beta/(p-2)."""
    if p <= 2:
        return False
    return (1 + beta) / p < (1 - eta) / 2 - beta / (p - 2)


@dataclass
class MomentProbeReport:
    """Scaling of E sup |Z|^p for the forced stochastic convolution."""

    p: float
    T_grid: list
    moment_estimates: list
    fitted_slope: float
    theoretical_exponent: float
    fitted_C: float
    variance_checks: list = field(default_factory=list)

    @property
    def envelope_passed(self) -> bool:
        # one-sided: measured growth may not violate the upper-bound rate;
        # an identically-zero convolution satisfies any envelope
        if math.isnan(self.fitted_slope):
            return True
        return self.fitted_slope >= self.theoretical_exponent - 0.15

    @property
    def variance_passed(self) -> bool:
        return all(v["passed"] for v in self.variance_checks)

    def to_dict(self):
        return {
            "p": self.p,
            "T_grid": self.T_grid,
            "moment_estimates": self.moment_estimates,
            "fitted_slope": self.fitted_slope,
            "theoretical_exponent": self.theoretical_exponent,
            "fitted_C": self.fitted_C,
            "variance_checks": self.variance_checks,
            "envelope_passed": self.envelope_passed,
        }


def convolution_variance_series(sampler: SpectralSampler, t: float, x) -> float:
    """Ito-isometry variance of Z(t,x) for phi = 1 and the spectral kernel:
    sum_k lambda_k^2 (1 - e^(-2 alpha_k t)) / (2 alpha_k) e_k(x)^2."""
    basis = sampler.basis
    alpha = basis.eigenvalue_tensor()
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(alpha > 0, (1.0 - np.exp(-2 * alpha * t)) / (2 * alpha), t)
    w = sampler.weights * factor
    x = np.atleast_1d(np.asarray(x, dtype=float))
    for i in range(basis.dimension):
        fx = basis._axis_eigenfunction_column(x[i])
        w = np.tensordot(w, fx * fx, axes=([0], [0]))
    return float(w)


def convolution_moment_probe(basis: SpectralBasis, noise_spec, p: float,
                             T_grid, paths: int, dt: float, seed: int = 0,
                             phi=None, batches: int = 32) -> MomentProbeReport:
    """Simulate Z(t,x) = conv(G, phi dW) and probe E sup_{t<=T,x} |Z|^p.

    The same exponential-Euler stepping as the solver, with the coefficient
    replaced by the deterministic field phi (default 1).  Heavy tails at
    large p are tamed with a median-of-means estimate over ``batches``
    groups of paths.  For the spectral kernel with phi = 1 the pointwise
    variance is also compared against the closed-form eigenvalue series.
    """
    beta, eta = kernel_params(noise_spec, basis.dimension)
    if not moment_admissible(p, beta, eta):
        raise ValueError(
            f"p = {p} is inadmissible for beta={beta}, eta={eta}: requires "
            "(1+beta)/p < (1-eta)/2 - beta/(p-2)"
        )
    T_grid = sorted(float(T) for T in T_grid)
    steps_at = []
    for T in T_grid:
        k = int(round(T / dt))
        if abs(k * dt - T) > 1e-9 * max(T, 1.0):
            raise ValueError(f"T = {T} is not a multiple of dt = {dt}")
        steps_at.append(k)
    n_steps = steps_at[-1]

    if phi is None:
        phi_vals = np.ones(basis.grid_shape)
    elif np.isscalar(phi):
        phi_vals = np.full(basis.grid_shape, float(phi))
    else:
        phi_vals = np.asarray(phi(*basis.grid_coordinates()), dtype=float)

    sampler = make_sampler(noise_spec, basis)
    rng = path_rng(seed)

    spectral_fast = isinstance(noise_spec, SpectralKernel) and np.all(phi_vals == 1.0)
    center = basis.center_point()
    center_idx = tuple(
        int(np.argmin(np.abs(basis.axis_points - c))) for c in center
    )

    Z = np.zeros((paths,) + basis.coeff_shape)
    running_max = np.zeros(paths)
    sup_snapshots = np.empty((len(steps_at), paths))
    center_snapshots = np.empty((len(steps_at), paths))
    snap = 0
    sqrt_dt = math.sqrt(dt)
    for s in range(1, n_steps + 1):
        if spectral_fast:
            xi = rng.standard_normal((paths,) + basis.coeff_shape)
            incr = sqrt_dt * sampler.amplitudes * xi
        else:
            dW = sampler.sample_batch(dt, rng, paths)
            incr = basis.to_spectral_batch(phi_vals * dW)
        Z += incr  # in place: one (paths, modes) temporary fewer at peak
        Z = basis.semigroup(Z, dt)
        Z_grid = basis.to_grid_batch(Z)
        flat = np.abs(Z_grid.reshape(paths, -1))
        running_max = np.maximum(running_max, flat.max(axis=1))
        if s == steps_at[snap]:
            sup_snapshots[snap] = running_max
            center_snapshots[snap] = Z_grid[(slice(None),) + center_idx]
            snap += 1
            if snap == len(steps_at):
                break

    # median of means over batches for E sup^p
    group = max(1, paths // batches)
    estimates = []
    for row in sup_snapshots:
        vals = row[: group * batches].reshape(batches, group) ** p
        estimates.append(float(np.median(vals.mean(axis=1))))

    exponent = (1 - eta) * (p - 2) / 2 - 2 * beta
    if min(estimates) > 0:
        slope, intercept, _ = loglog_slope(np.array(T_grid), np.array(estimates))
    else:
        # zero forcing: all moments vanish and satisfy any envelope
        slope, intercept = math.nan, -math.inf

    variance_checks = []
    if spectral_fast:
        for j, T in enumerate(T_grid):
            oracle = convolution_variance_series(sampler, T, center)
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
        variance_checks=variance_checks,
    )
