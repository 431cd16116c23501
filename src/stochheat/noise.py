"""Covariance kernels for the driving noise and correlated increment sampling.

Two kernel families parametrise the spatial correlation Lambda(x,y) of the
noise, plus a white-noise reference mode:

* Riesz:    Lambda(x,y) = |x-y|^(-alpha) on D x D, 0 < alpha < min(2, d/2)
* spectral: Lambda(x,y) = Gamma(theta) sum_k (a + alpha_k)^(-theta) e_k(x) e_k(y)
* white:    Lambda = delta (d=1 only; the classical critical regime
            beta = eta = 1/2, outside the finite-double-integral assumption)

Derived exponents on the box Laplacian: beta = d/2 always, eta = alpha/2
(Riesz) or max(d/2 - theta, 0) (spectral), with eta in (0,1) required.
The critical growth exponent is gamma_c = 1 + (1-eta)/(2 beta).

Increment fields carry pointwise covariance Lambda(x_i, x_j) * dt.  The
spectral sampler draws one standard normal per retained mode; the Riesz
sampler multiplies a normal vector by a matrix square root of the grid
covariance (cell-averaged diagonal, tiny jitter, negative eigenvalues
clipped and the clipped mass reported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn

from .spectral import NEUMANN, PERIODIC, SpectralBasis, loglog_slope

QV_PAIR_BUDGET = 2**16


class KernelValidationError(ValueError):
    """Covariance parameters outside the admissible range."""


class FactorizationError(RuntimeError):
    """Grid covariance not factorizable after regularization."""


class DecayFitError(RuntimeError):
    """Log-log fit residual too large: not in the power-law regime."""


@dataclass(frozen=True)
class RieszKernel:
    """Spatially homogeneous singular kernel |x-y|^(-alpha)."""

    alpha: float

    variant = "riesz"

    def validate_for(self, dimension: int, boundary: str | None = None):
        limit = min(2.0, dimension / 2.0)
        if not 0.0 < self.alpha < limit:
            raise KernelValidationError(
                f"Riesz exponent alpha={self.alpha} violates 0 < alpha < "
                f"min(2, d/2) = {limit} in dimension {dimension}"
            )


@dataclass(frozen=True)
class SpectralKernel:
    """Kernel diagonal in the eigenbasis, lambda_k^2 = Gamma(theta) (a+alpha_k)^(-theta)."""

    theta: float
    a: float = 0.0

    variant = "spectral"

    def validate_for(self, dimension: int, boundary: str | None = None):
        if self.theta <= dimension / 2.0 - 1.0:
            raise KernelValidationError(
                f"spectral decay theta={self.theta} violates theta > d/2 - 1 "
                f"= {dimension / 2 - 1} in dimension {dimension}"
            )
        if self.a < 0:
            raise KernelValidationError(f"shift a={self.a} must be >= 0")
        if boundary in (PERIODIC, NEUMANN) and self.a <= 0:
            raise KernelValidationError(
                "shift a must be positive for periodic/Neumann conditions "
                "(alpha_0 = 0 makes the zero mode weight infinite at a = 0)"
            )
        # the eta in (0,1) range is enforced by kernel_params, where the
        # derived exponents are actually consumed; smoother kernels (larger
        # theta) stay constructible for evaluation and quadrature


@dataclass(frozen=True)
class WhiteNoise:
    """Space-time white noise reference mode, d = 1 only (beta = eta = 1/2)."""

    variant = "white"

    def validate_for(self, dimension: int, boundary: str | None = None):
        if dimension != 1:
            raise KernelValidationError("white-noise mode is restricted to d = 1")


CovarianceSpec = RieszKernel | SpectralKernel | WhiteNoise


def kernel_params(spec, dimension: int):
    """(beta, eta) for the box Laplacian setting; raises if eta not in (0,1)."""
    beta = dimension / 2.0
    if isinstance(spec, RieszKernel):
        spec.validate_for(dimension)
        eta = spec.alpha / 2.0
    elif isinstance(spec, SpectralKernel):
        eta = max(dimension / 2.0 - spec.theta, 0.0)
    elif isinstance(spec, WhiteNoise):
        spec.validate_for(dimension)
        return 0.5, 0.5
    else:
        raise TypeError(f"unknown covariance spec {spec!r}")
    if not 0.0 < eta < 1.0:
        raise KernelValidationError(
            f"eta = {eta} outside (0,1): model outside the assumed decay regime"
        )
    return beta, eta


def critical_exponent(beta: float, eta: float) -> float:
    """gamma_c = 1 + (1-eta)/(2 beta)."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0,1), got {eta}")
    return 1.0 + (1.0 - eta) / (2.0 * beta)


@dataclass
class NoiseIncrement:
    """One sampled increment field with covariance Lambda * dt."""

    values: np.ndarray
    dt: float
    draw: int | None = None


# -- singular-kernel quadrature helpers ---------------------------------


def _unit_cell_mean(alpha: float, dimension: int, res: int = 64) -> float:
    """Mean of |z|^(-alpha) over the unit cell [-1/2, 1/2]^d.

    Uses the self-similar shell decomposition: the integral over the cell
    equals the integral over the annulus cell-minus-half-cell divided by
    (1 - 2^(alpha-d)), and the annulus integrand is smooth.
    """
    if dimension == 1:
        return 2.0**alpha / (1.0 - alpha)
    axes = (np.arange(res) + 0.5) / res - 0.5  # midpoints of [-1/2,1/2]
    grids = np.meshgrid(*([axes] * dimension), indexing="ij")
    r2 = sum(g**2 for g in grids)
    inside_half = np.all(
        np.stack([np.abs(g) < 0.25 for g in grids]), axis=0
    )
    vol = (1.0 / res) ** dimension
    annulus = np.where(inside_half, 0.0, r2 ** (-alpha / 2.0))
    S = float(np.sum(annulus)) * vol
    return S / (1.0 - 2.0 ** (alpha - dimension))


def riesz_double_integral(alpha: float, dimension: int, length: float,
                          res: int = 48, levels: int = 40) -> float:
    """Quadrature of the Riesz kernel over D x D, D = [0, L]^d.

    Reduces to an integral over the difference box with the triangular
    overlap weight, evaluated on dyadic shells around the singularity so
    each shell integrand is smooth.
    """
    L = length
    total = 0.0
    for j in range(levels):
        s = L * 2.0**-j  # outer half-side of this shell
        axes = (np.arange(res) + 0.5) * (2 * s / res) - s
        grids = np.meshgrid(*([axes] * dimension), indexing="ij")
        inner = np.all(np.stack([np.abs(g) <= s / 2 for g in grids]), axis=0)
        r2 = sum(g**2 for g in grids)
        weight = np.ones_like(r2)
        for g in grids:
            weight = weight * (L - np.abs(g))
        vals = np.where(inner, 0.0, weight * r2 ** (-alpha / 2.0))
        vol = (2 * s / res) ** dimension
        total += float(np.sum(vals)) * vol
    # innermost box: weight ~ L^d, closed-form singular integral
    s_last = L * 2.0**-levels
    unit = _unit_cell_mean(alpha, dimension)
    total += L**dimension * unit * (2 * s_last) ** (dimension - alpha)
    return total


# -- samplers ------------------------------------------------------------


class _Sampler:
    """A single increment is row 0 of a batched draw of one."""

    def sample_values(self, dt: float, rng) -> np.ndarray:
        return self.sample_batch(dt, rng, 1)[0]


class SpectralSampler(_Sampler):
    """Sampler for the eigenbasis-diagonal kernel."""

    def __init__(self, spec: SpectralKernel, basis: SpectralBasis):
        spec.validate_for(basis.dimension, basis.boundary)
        self.spec = spec
        self.basis = basis
        alpha = basis.eigenvalue_tensor()
        self.weights = gamma_fn(spec.theta) * (spec.a + alpha) ** (-spec.theta)
        self.amplitudes = np.sqrt(self.weights)

    def sample_batch(self, dt: float, rng, count: int) -> np.ndarray:
        """(count, *grid) increments in one vectorized draw."""
        if dt == 0.0:
            return np.zeros((count,) + self.basis.grid_shape)
        xi = rng.standard_normal((count,) + self.basis.coeff_shape)
        return self.basis.to_grid_batch(math.sqrt(dt) * self.amplitudes * xi)

    def qv_form(self, f_values: np.ndarray) -> float:
        """Quadrature of the double integral of Lambda against f (x) f."""
        c = self.basis.to_spectral(f_values)
        return float(np.sum(self.weights * c * c))

    def kernel(self, x, y) -> float:
        b = self.basis
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = self.weights
        for i in range(b.dimension):
            fx = b._axis_eigenfunction_column(x[i])
            fy = b._axis_eigenfunction_column(y[i])
            out = np.tensordot(out, fx * fy, axes=([0], [0]))
        return float(out)

    def truncation_scale(self) -> float:
        """Magnitude estimate of the dropped-mode oscillation: the outermost
        retained shell's total weight times the sup of |e_k e_k|."""
        b = self.basis
        m = b.axis_mode_count
        shell = np.zeros(b.coeff_shape, dtype=bool)
        for axis in range(b.dimension):
            sl = [slice(None)] * b.dimension
            sl[axis] = m - 1
            shell[tuple(sl)] = True
        return float(np.sum(self.weights[shell])) * (2.0 / b.length) ** b.dimension

    def double_integral(self) -> float:
        ones = self.basis._axis_one_coeffs
        out = self.weights
        for _ in range(self.basis.dimension):
            out = np.tensordot(out, ones * ones, axes=([0], [0]))
        return float(out)

    def decay_series(self, t_grid, x) -> np.ndarray:
        """F(t) = sum_k lambda_k^2 e^(-2 alpha_k t) e_k(x)^2, exact."""
        b = self.basis
        x = np.atleast_1d(np.asarray(x, dtype=float))
        w = self.weights.copy()
        for i in range(b.dimension):
            fx = b._axis_eigenfunction_column(x[i])
            shape = [1] * b.dimension
            shape[i] = b.axis_mode_count
            w = w * (fx**2).reshape(shape)
        alpha = b.eigenvalue_tensor().ravel()
        w = w.ravel()
        t_grid = np.asarray(t_grid, dtype=float)
        return np.array([float(np.sum(w * np.exp(-2.0 * alpha * t))) for t in t_grid])


def _factor_covariance(C: np.ndarray, clip_tolerance: float = 0.01):
    """Symmetric square root with negative eigenvalues clipped at zero.

    Returns (factor, clipped_fraction); raises FactorizationError when the
    clipped mass exceeds the tolerance (kernel too singular for the grid).
    """
    evals, evecs = np.linalg.eigh(C)
    neg = np.clip(evals, None, 0.0)
    clipped = abs(float(np.sum(neg)))
    total = float(np.sum(np.abs(evals)))
    frac = clipped / total if total > 0 else 0.0
    if frac > clip_tolerance:
        raise FactorizationError(
            f"covariance clipped mass fraction {frac:.3g} exceeds {clip_tolerance}: "
            "kernel too singular for this resolution"
        )
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    return factor, frac


class RieszSampler(_Sampler):
    """Dense-factorization sampler for the Riesz kernel on the grid."""

    def __init__(self, spec: RieszKernel, basis: SpectralBasis, qv_pair_seed: int = 0):
        spec.validate_for(basis.dimension)
        self.spec = spec
        self.basis = basis
        pts = np.stack([g.ravel() for g in basis.grid_coordinates()], axis=1)
        diff = pts[:, None, :] - pts[None, :, :]
        r = np.sqrt(np.sum(diff**2, axis=2))
        with np.errstate(divide="ignore"):
            C = r ** (-spec.alpha)
        diag_value = _unit_cell_mean(spec.alpha, basis.dimension) * basis.h ** (
            -spec.alpha
        )
        np.fill_diagonal(C, diag_value)
        self.matrix = C
        self.n_points = C.shape[0]
        jitter = 1e-10 * np.trace(C) / self.n_points
        self.factor, self.clipped_fraction = _factor_covariance(
            C + jitter * np.eye(self.n_points)
        )
        self._qv_exact = self.n_points**2 <= QV_PAIR_BUDGET
        if not self._qv_exact:
            pair_rng = np.random.Generator(np.random.Philox(key=qv_pair_seed))
            self._qv_i = pair_rng.integers(0, self.n_points, size=QV_PAIR_BUDGET)
            self._qv_j = pair_rng.integers(0, self.n_points, size=QV_PAIR_BUDGET)
            self._qv_vals = self.matrix[self._qv_i, self._qv_j]

    def sample_batch(self, dt: float, rng, count: int) -> np.ndarray:
        if dt == 0.0:
            return np.zeros((count,) + self.basis.grid_shape)
        z = rng.standard_normal((self.n_points, count))
        out = math.sqrt(dt) * (self.factor @ z)
        return out.T.reshape((count,) + self.basis.grid_shape)

    def qv_form(self, f_values: np.ndarray) -> float:
        f = f_values.ravel()
        h2d = self.basis.cell_volume**2
        if self._qv_exact:
            return float(h2d * f @ self.matrix @ f)
        # unbiased subsampled estimate over a fixed pair set
        est = np.mean(self._qv_vals * f[self._qv_i] * f[self._qv_j])
        return float(h2d * self.n_points**2 * est)


class WhiteNoiseSampler(_Sampler):
    """Independent per-cell increments with variance dt / h (d = 1)."""

    def __init__(self, spec: WhiteNoise, basis: SpectralBasis):
        spec.validate_for(basis.dimension)
        self.spec = spec
        self.basis = basis

    def sample_batch(self, dt: float, rng, count: int) -> np.ndarray:
        if dt == 0.0:
            return np.zeros((count,) + self.basis.grid_shape)
        scale = math.sqrt(dt / self.basis.cell_volume)
        return scale * rng.standard_normal((count,) + self.basis.grid_shape)

    def qv_form(self, f_values: np.ndarray) -> float:
        # delta kernel: the double integral collapses to int f^2
        return float(self.basis.cell_volume * np.sum(f_values**2))


def make_sampler(spec, basis: SpectralBasis, qv_pair_seed: int = 0):
    if isinstance(spec, SpectralKernel):
        return SpectralSampler(spec, basis)
    if isinstance(spec, RieszKernel):
        return RieszSampler(spec, basis, qv_pair_seed)
    if isinstance(spec, WhiteNoise):
        return WhiteNoiseSampler(spec, basis)
    raise TypeError(f"unknown covariance spec {spec!r}")


def kernel_eval(spec, basis: SpectralBasis, x, y) -> float:
    """Pointwise Lambda(x,y); truncated series for the spectral variant."""
    if isinstance(spec, RieszKernel):
        spec.validate_for(basis.dimension)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        r = float(np.sqrt(np.sum((x - y) ** 2)))
        if r == 0.0:
            raise ValueError("Riesz kernel is singular on the diagonal")
        return r ** (-spec.alpha)
    if isinstance(spec, SpectralKernel):
        return SpectralSampler(spec, basis).kernel(x, y)
    if isinstance(spec, WhiteNoise):
        raise ValueError("white noise has a distributional (delta) kernel")
    raise TypeError(f"unknown covariance spec {spec!r}")


def double_integral(spec, basis: SpectralBasis) -> float:
    """Integral of Lambda over D x D; a quadrature, no sampler for Riesz."""
    if isinstance(spec, RieszKernel):
        spec.validate_for(basis.dimension)
        return riesz_double_integral(spec.alpha, basis.dimension, basis.length)
    if isinstance(spec, SpectralKernel):
        return SpectralSampler(spec, basis).double_integral()
    if isinstance(spec, WhiteNoise):
        raise ValueError(
            "white noise has no finite double integral (outside the "
            "integrable-covariance assumption)"
        )
    raise TypeError(f"unknown covariance spec {spec!r}")


@dataclass
class DecayReport:
    """Fit of the kernel-smoothed heat decay F(t) ~ C t^(-eta)."""

    variant: str
    d: int
    theta: float | None
    alpha: float | None
    a: float | None
    fitted_slope: float
    expected_eta: float
    fitted_C: float
    residual: float
    t_grid: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def to_dict(self):
        return {
            "variant": self.variant,
            "d": self.d,
            "theta": self.theta,
            "alpha": self.alpha,
            "a": self.a,
            "fitted_slope": self.fitted_slope,
            "expected_eta": self.expected_eta,
            "fitted_C": self.fitted_C,
            "residual": self.residual,
        }

    @property
    def passed(self) -> bool:
        return abs(self.fitted_slope + self.expected_eta) <= 0.1


def _riesz_decay_values(spec, basis, t_grid):
    """Quadrature estimate of sup-point of int int G G Lambda for Riesz."""
    sampler = make_sampler(spec, basis)
    x_c = basis.center_point()
    vals = []
    for t in t_grid:
        # G(t, x_c, .) on the grid = inverse transform of e^{-alpha_k t} e_k(x_c)
        decay = basis.axis_decay(t)
        cols = [decay * basis._axis_eigenfunction_column(xc) for xc in x_c]
        coeffs = cols[0]
        for col in cols[1:]:
            coeffs = np.multiply.outer(coeffs, col)
        vals.append(sampler.qv_form(basis.to_grid(coeffs)))
    return np.array(vals)


def verify_decay(spec, basis: SpectralBasis, t_grid=None,
                 residual_tolerance: float = 0.1) -> DecayReport:
    """Fit the decay exponent of the kernel-smoothed squared heat flow.

    For the spectral kernel the series form is exact; for Riesz a grid
    quadrature against the truncated heat kernel is used; for white noise
    F(t) = G(2t, x, x).  Raises DecayFitError when the log-log residual is
    too large (the t-grid is outside the power-law regime).
    """
    if t_grid is None:
        t_grid = np.logspace(-4, -2, 25)
    t_grid = np.asarray(t_grid, dtype=float)
    d = basis.dimension
    beta, eta = kernel_params(spec, d)
    x_c = basis.center_point()
    if isinstance(spec, SpectralKernel):
        vals = SpectralSampler(spec, basis).decay_series(t_grid, x_c)
        theta, alpha, a = spec.theta, None, spec.a
    elif isinstance(spec, RieszKernel):
        vals = _riesz_decay_values(spec, basis, t_grid)
        theta, alpha, a = None, spec.alpha, None
    else:
        vals = np.array([basis.heat_kernel(2 * t, x_c, x_c) for t in t_grid])
        theta, alpha, a = None, None, None
    slope, intercept, rms = loglog_slope(t_grid, vals)
    if rms > residual_tolerance:
        raise DecayFitError(
            f"log-log fit residual {rms:.3g} exceeds {residual_tolerance}: "
            "decay is not power-law on this t-grid (spectral gap dominates "
            "for t of order one)"
        )
    return DecayReport(
        variant=spec.variant,
        d=d,
        theta=theta,
        alpha=alpha,
        a=a,
        fitted_slope=slope,
        expected_eta=eta,
        fitted_C=float(np.exp(intercept)),
        residual=rms,
        t_grid=list(map(float, t_grid)),
        values=list(map(float, vals)),
    )
