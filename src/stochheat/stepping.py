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

Trajectories stop at the first of: sup-norm reaching the truncation level
(tau_n), the mass martingale exceeding the bound M (tau_M), or the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseIncrement, make_sampler
from .spectral import SpectralBasis, build_basis

STOP_TAU_N = "tau_n"
STOP_TAU_M = "tau_M"
STOP_HORIZON = "horizon"

PAPER_REGIME = "paper regime"
EXPLOSIVE_REGIME = "conjectured explosive regime"


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


@dataclass
class SimState:
    """Discretized field plus running diagnostics at one time point."""

    u: np.ndarray
    t: float
    I: float
    Q: float
    clamped_mass: float
    hit_tau_n: bool = False
    hit_tau_M: bool = False
    hit_horizon: bool = False


class Stepper:
    """Exponential-Euler stepper bound to a basis, coefficient and sampler."""

    def __init__(self, basis: SpectralBasis, sigma: SigmaSpec, sampler, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.basis = basis
        self.sigma = sigma
        self.sampler = sampler
        self.dt = dt
        d = basis.dimension
        decay = basis.axis_decay(dt)
        self._decay_axes = []
        for axis in range(d):
            shape = [1] * d
            shape[axis] = basis.axis_mode_count
            self._decay_axes.append(decay.reshape(shape))
        # documented heuristic, not enforced: dt <= 0.5 / alpha_max keeps the
        # per-step damping of the stiffest retained mode moderate
        self.dt_heuristic = 0.5 / basis.alpha_max if basis.alpha_max > 0 else math.inf

    def _apply_semigroup(self, coeffs: np.ndarray) -> np.ndarray:
        for decay in self._decay_axes:
            coeffs = coeffs * decay
        return coeffs

    def step(self, state: SimState, increment: NoiseIncrement) -> SimState:
        if increment.dt != self.dt:
            raise ValueError(
                f"increment was generated for dt={increment.dt}, stepper has {self.dt}"
            )
        basis = self.basis
        f = sigma_eval(self.sigma, state.u)
        dW = increment.values
        I_inc = basis.cell_volume * float(np.sum(f * dW))
        Q_inc = self.dt * self.sampler.qv_form(f)
        coeffs = basis.to_spectral(state.u + f * dW)
        u_raw = basis.to_grid(self._apply_semigroup(coeffs))
        if not np.all(np.isfinite(u_raw)):
            raise BlowThroughError(
                "non-finite field after step: step size too large for the "
                "current sup-norm"
            )
        u_new = np.maximum(u_raw, 0.0)
        clamp_inc = basis.cell_volume * float(np.sum(u_new - u_raw))
        return SimState(
            u=u_new,
            t=state.t + self.dt,
            I=state.I + I_inc,
            Q=state.Q + Q_inc,
            clamped_mass=state.clamped_mass + clamp_inc,
        )


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
    """Assemble the shared basis/sampler/initial data for a config object.

    ``config`` provides: domain (DomainSpec), noise (covariance spec),
    sigma (SigmaSpec), dt, horizon, mass_bound, and the init_* fields.
    """
    basis = build_basis(config.domain)
    sampler = make_sampler(config.noise, basis)
    u0 = initial_field(
        basis,
        config.init_kind,
        value=getattr(config, "init_value", 1.0),
        mode=getattr(config, "init_mode", None),
        amplitude=getattr(config, "init_amplitude", 1.0),
        path=getattr(config, "init_path", None),
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


def run_trajectory(config, seed: int, context: TrajectoryContext | None = None) -> TrajectoryRecord:
    """Run one path to min(horizon, tau_n, tau_M); deterministic in (config, seed).

    The optional prebuilt context is a pure function of the config, so
    passing it only saves recomputation and cannot change the result.
    """
    ctx = context if context is not None else build_context(config)
    basis, sigma, sampler = ctx.basis, ctx.sigma, ctx.sampler
    stepper = Stepper(basis, sigma, sampler, ctx.dt)
    rng = path_rng(seed)

    n_steps = ctx.n_steps
    # step s is at time s * dt; summing dt step by step drifts by round-off
    t = ctx.dt * np.arange(n_steps + 1)
    sup = np.zeros(n_steps + 1)
    l1 = np.zeros(n_steps + 1)
    I_arr = np.zeros(n_steps + 1)
    Q_arr = np.zeros(n_steps + 1)
    clamp = np.zeros(n_steps + 1)

    state = SimState(
        u=np.array(ctx.u0, copy=True),
        t=0.0,
        I=basis.integrate(ctx.u0),
        Q=0.0,
        clamped_mass=0.0,
    )

    def record(s, st):
        sup[s] = float(np.max(st.u))
        l1[s] = basis.integrate(st.u)
        I_arr[s] = st.I
        Q_arr[s] = st.Q
        clamp[s] = st.clamped_mass

    record(0, state)
    stop_flag = STOP_HORIZON
    last = 0
    if sup[0] >= sigma.truncation:
        state.hit_tau_n, stop_flag = True, STOP_TAU_N
    elif I_arr[0] > ctx.mass_bound:
        state.hit_tau_M, stop_flag = True, STOP_TAU_M
    else:
        for s in range(1, n_steps + 1):
            dW = sampler.sample_values(ctx.dt, rng)
            try:
                state = stepper.step(state, NoiseIncrement(dW, ctx.dt, s))
            except BlowThroughError as exc:
                raise TrajectoryError(s, exc) from exc
            record(s, state)
            last = s
            if sup[s] >= sigma.truncation:
                state.hit_tau_n, stop_flag = True, STOP_TAU_N
                break
            if I_arr[s] > ctx.mass_bound:
                state.hit_tau_M, stop_flag = True, STOP_TAU_M
                break
        else:
            state.hit_horizon = True

    end = last + 1
    return TrajectoryRecord(
        seed=seed,
        t=t[:end],
        sup_norm=sup[:end],
        l1_norm=l1[:end],
        I=I_arr[:end],
        Q=Q_arr[:end],
        clamped_mass=clamp[:end],
        stop_flag=stop_flag,
        stop_time=float(t[last]),
    )
