"""Truncated-coefficient mild-solution stepping with stopping detection.

One step of the scheme is

    u+ = S(dt) [ u + sigma_trunc(u) . dW ],   then   u+ <- max(u+, 0)

where S(dt) is the exact heat semigroup applied in the eigenbasis and dW is
a correlated Gaussian increment.  Applying the semigroup after adding the
noise mirrors the mild-solution convolution and makes the discrete mass
identity exact for Neumann/periodic conditions: the zero mode carries the
full spatial integral and S(dt) leaves it untouched, so

    integral u(t) = I(t) + clamped mass        (up to transform round-off)

with I(t) the running martingale I(0) + sum_s h^d sum_j sigma(u) dW.  The
negativity projection is accounted separately (clamped mass) so the
identity stays checkable.  Alongside I the quadratic variation

    Q(t) = sum_s dt * h^(2d) sum_ij Lambda(x_i, x_j) sigma(u_i) sigma(u_j)

is accumulated with the kernel-specific quadrature of the sampler.

A block of seeds steps as one (P, *grid) batch through ``Stepper.step``.
Each row draws its increment from its own counter-based stream keyed by
its seed (Philox; Salmon et al., SC'11), so its values do not depend on the
batch.  A row leaves the batch at its stop, the first of the sup-norm
reaching the truncation level (tau_n), the mass martingale exceeding the
bound M (tau_M) or the horizon, or as a failed path when its field goes
non-finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import make_sampler
from .spectral import SpectralBasis, build_basis

STOP_TAU_N = "tau_n"
STOP_TAU_M = "tau_M"
STOP_HORIZON = "horizon"

PAPER_REGIME = "paper regime"
EXPLOSIVE_REGIME = "conjectured explosive regime"

# grid points per stepped batch (1 MB per float64 field); a larger block of
# seeds steps as consecutive batches, which bounds the memory of the field
# temporaries and of the samplers' qv_form buffers
_BATCH_GRID_POINTS = 2**17


class BlowThroughError(RuntimeError):
    """A step produced non-finite values: dt too large for the sup-norm."""


class TrajectoryError(RuntimeError):
    """Step failure with the step index attached."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"step {step}: {cause}")
        self.step = step
        self.cause = cause


@dataclass(frozen=True)
class SigmaSpec:
    """Power-law coefficient sigma(u) = scale * u^growth, clamped at truncation.

    sigma(0) = 0 and sigma is extended by zero for u < 0, consistent with
    nonnegative solutions.  For u above the truncation level the clamped
    value sigma(truncation) is used, which is what makes each truncated
    problem globally Lipschitz.
    """

    scale: float
    growth: float
    truncation: float

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be >= 0 (coefficient taken nonnegative)")
        if self.growth < 0:
            raise ValueError("growth exponent must be >= 0")
        if self.truncation <= 0:
            raise ValueError("truncation level must be positive")

    def regime(self, gamma_c: float) -> str:
        return PAPER_REGIME if self.growth <= gamma_c else EXPLOSIVE_REGIME


def sigma_eval(spec: SigmaSpec, u):
    """Clamped coefficient sigma_n(u); vectorized over grids."""
    u = np.asarray(u, dtype=float)
    clipped = np.clip(u, 0.0, spec.truncation)
    out = spec.scale * clipped**spec.growth
    if out.ndim == 0:
        return float(out)
    return out


class Stepper:
    """Exponential-Euler stepper bound to a basis, coefficient and sampler."""

    def __init__(self, basis: SpectralBasis, sigma: SigmaSpec, sampler, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.basis = basis
        self.sigma = sigma
        self.sampler = sampler
        self.dt = dt
        # documented heuristic, not enforced: dt <= 0.5 / alpha_max keeps the
        # per-step damping of the stiffest retained mode moderate
        self.dt_heuristic = 0.5 / basis.alpha_max if basis.alpha_max > 0 else math.inf

    def step(self, u: np.ndarray, dW: np.ndarray):
        """Advance a (P, *grid) batch by one step of dt.

        Returns (u_new, I_inc, Q_inc, clamp_inc, finite): the projected
        fields and, per row, the increments of the mass martingale, of its
        quadratic variation and of the clamped mass, and whether the
        unprojected field stayed finite.
        """
        basis = self.basis
        f = sigma_eval(self.sigma, u)
        noise = f * dW
        I_inc = basis.integrate(noise)
        Q_inc = self.dt * self.sampler.qv_form(f)
        coeffs = basis.semigroup(basis.to_spectral_batch(u + noise), self.dt)
        u_raw = basis.to_grid_batch(coeffs)
        finite = np.all(np.isfinite(u_raw), axis=basis.field_axes)
        u_new = np.maximum(u_raw, 0.0)
        return u_new, I_inc, Q_inc, basis.integrate(u_new - u_raw), finite


@dataclass
class TrajectoryRecord:
    """Per-step time series of one seeded path plus its stop bookkeeping."""

    seed: int
    t: np.ndarray
    sup_norm: np.ndarray
    l1_norm: np.ndarray
    I: np.ndarray
    Q: np.ndarray
    clamped_mass: np.ndarray
    stop_flag: str
    stop_time: float

    CSV_HEADER = "step,t,sup_norm,l1_norm,I,Q,clamped_mass,stop_flag"

    @property
    def steps(self) -> int:
        return len(self.t) - 1

    @property
    def max_sup_norm(self) -> float:
        return float(np.max(self.sup_norm))

    @property
    def max_l1(self) -> float:
        return float(np.max(self.l1_norm))

    @property
    def final_I(self) -> float:
        return float(self.I[-1])

    @property
    def final_Q(self) -> float:
        return float(self.Q[-1])

    @property
    def clamped_fraction(self) -> float:
        base = self.l1_norm[0]
        return float(self.clamped_mass[-1] / base) if base > 0 else 0.0

    def csv_rows(self):
        last = len(self.t) - 1
        for s in range(len(self.t)):
            flag = self.stop_flag if s == last else "none"
            yield (
                f"{s},{self.t[s]!r},{self.sup_norm[s]!r},{self.l1_norm[s]!r},"
                f"{self.I[s]!r},{self.Q[s]!r},{self.clamped_mass[s]!r},{flag}"
            )


@dataclass
class TrajectoryContext:
    """Immutable per-config data shared by all trajectories of an ensemble."""

    basis: SpectralBasis
    sampler: object
    sigma: SigmaSpec
    u0: np.ndarray
    dt: float
    horizon: float
    mass_bound: float

    @property
    def n_steps(self) -> int:
        # SimConfig admits only a horizon that is a whole number of steps
        return int(round(self.horizon / self.dt))


def initial_field(basis: SpectralBasis, kind: str, *, value: float = 1.0,
                  mode=None, amplitude: float = 1.0, path: str | None = None):
    """Nonnegative bounded initial data on the grid."""
    if kind == "constant":
        if value < 0:
            raise ValueError("constant initial data must be >= 0 (nonnegative data assumption)")
        return np.full(basis.grid_shape, float(value))
    if kind == "eigenmode":
        if mode is None:
            mode = (1,) * basis.dimension if basis.boundary == "dirichlet" else (0,) * basis.dimension
        mode = tuple(int(k) for k in np.atleast_1d(mode))
        axes = [basis.axis_eigenfunction(k, basis.axis_points) for k in mode]
        u0 = axes[0]
        for ax in axes[1:]:
            u0 = np.multiply.outer(u0, ax)
        u0 = amplitude * u0
        if float(np.min(u0)) < -1e-12 * max(1.0, float(np.max(np.abs(u0)))):
            raise ValueError(
                f"eigenmode {mode} is sign-changing; initial data must be nonnegative"
            )
        return np.maximum(u0, 0.0)
    if kind == "file":
        if path is None:
            raise ValueError("file initial condition needs a path")
        u0 = np.load(path)
        if u0.shape != basis.grid_shape:
            raise ValueError(
                f"initial data shape {u0.shape} does not match grid {basis.grid_shape}"
            )
        if not np.all(np.isfinite(u0)):
            raise ValueError("initial data contains non-finite values")
        if float(np.min(u0)) < 0:
            raise ValueError("initial data must be nonnegative")
        return np.asarray(u0, dtype=float)
    raise ValueError(f"unknown initial condition kind {kind!r}")


def build_context(config) -> TrajectoryContext:
    """Assemble the shared basis/sampler/initial data of a SimConfig."""
    basis = build_basis(config.domain)
    sampler = make_sampler(config.noise, basis)
    u0 = initial_field(
        basis,
        config.init_kind,
        value=config.init_value,
        mode=config.init_mode,
        amplitude=config.init_amplitude,
        path=config.init_path,
    )
    return TrajectoryContext(
        basis=basis,
        sampler=sampler,
        sigma=config.sigma,
        u0=u0,
        dt=config.dt,
        horizon=config.horizon,
        mass_bound=config.mass_bound,
    )


def path_rng(seed: int):
    """Counter-based per-path stream; independent across seeds."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def run_batch(context: TrajectoryContext, seeds):
    """Run one path per seed to min(horizon, tau_n, tau_M) on one context.

    Returns (records, failures) in seed order: the record of every path
    that stopped, and (seed, TrajectoryError) for every path whose field
    went non-finite.  The seeds step as batches of at most
    ``_BATCH_GRID_POINTS`` grid points; every row owns its stream and runs
    the operations of a batch of one, so no value depends on the batch.
    """
    rows = max(1, _BATCH_GRID_POINTS // math.prod(context.basis.grid_shape))
    records, failures = [], []
    for start in range(0, len(seeds), rows):
        done, failed = _run_rows(context, seeds[start:start + rows])
        records += done
        failures += failed
    return records, failures


def _run_rows(ctx: TrajectoryContext, seeds):
    """One batch of run_batch: every seed is a row, stepped until it stops."""
    basis, sampler, dt = ctx.basis, ctx.sampler, ctx.dt
    stepper = Stepper(basis, ctx.sigma, sampler, dt)
    rngs = [path_rng(seed) for seed in seeds]
    n_steps = ctx.n_steps
    # step s is at time s * dt; summing dt step by step drifts by round-off
    t = dt * np.arange(n_steps + 1)
    sup, l1, I, Q, clamp = np.zeros((5, len(seeds), n_steps + 1))
    sup[:, 0] = np.max(ctx.u0)
    l1[:, 0] = I[:, 0] = basis.integrate(ctx.u0)
    last = np.zeros(len(seeds), dtype=int)
    flags = np.full(len(seeds), STOP_HORIZON, dtype=object)
    errors = {}
    # rows still stepping: their indices into seeds, and their fields
    live = np.arange(len(seeds))
    u = np.repeat(ctx.u0[np.newaxis], len(seeds), axis=0)
    s = 0
    while True:
        hit_n = sup[live, s] >= ctx.sigma.truncation
        hit_M = ~hit_n & (I[live, s] > ctx.mass_bound)
        flags[live[hit_n]] = STOP_TAU_N
        flags[live[hit_M]] = STOP_TAU_M
        go = ~(hit_n | hit_M)
        live, u = live[go], u[go]
        if s == n_steps or live.size == 0:
            break
        s += 1
        dW = np.stack([sampler.sample_values(dt, rngs[i]) for i in live])
        u, dI, dQ, dclamp, finite = stepper.step(u, dW)
        for i in live[~finite]:
            errors[i] = TrajectoryError(s, BlowThroughError(
                "non-finite field after step: step size too large for the "
                "current sup-norm"))
        live, u = live[finite], u[finite]
        I[live, s] = I[live, s - 1] + dI[finite]
        Q[live, s] = Q[live, s - 1] + dQ[finite]
        clamp[live, s] = clamp[live, s - 1] + dclamp[finite]
        sup[live, s] = np.max(u, axis=basis.field_axes)
        l1[live, s] = basis.integrate(u)
        last[live] = s

    records, failures = [], []
    for i, seed in enumerate(seeds):
        if i in errors:
            failures.append((seed, errors[i]))
            continue
        end = last[i] + 1
        records.append(TrajectoryRecord(
            seed=seed,
            t=t[:end],
            sup_norm=sup[i, :end],
            l1_norm=l1[i, :end],
            I=I[i, :end],
            Q=Q[i, :end],
            clamped_mass=clamp[i, :end],
            stop_flag=flags[i],
            stop_time=float(t[last[i]]),
        ))
    return records, failures


def run_trajectory(config, seed: int, context: TrajectoryContext | None = None) -> TrajectoryRecord:
    """Run one path to min(horizon, tau_n, tau_M); deterministic in (config, seed).

    A batch of one of :func:`run_batch`; raises TrajectoryError when the
    field goes non-finite.  The optional prebuilt context is a pure function
    of the config, so passing it only saves recomputation.
    """
    ctx = context if context is not None else build_context(config)
    records, failures = run_batch(ctx, [seed])
    if failures:
        error = failures[0][1]
        raise error from error.cause
    return records[0]
