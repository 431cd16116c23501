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
spectral sampler draws one standard normal per retained mode.  The Riesz
grid covariance (cell-averaged diagonal) depends only on the lattice
offset, so the Riesz sampler embeds it in a circulant on a torus of about
twice the grid per axis and draws with one FFT pair per increment
(circulant embedding: Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1997;
Wood & Chan, J. Comput. Graph. Stat. 3, 1994); its quadratic form is an
exact FFT convolution.  Negative circulant eigenvalues, which occur for
d = 3 and small alpha, are clipped at zero, logged and reported as
``clipped_fraction``; the draws and the quadratic form share the clipped
spectrum.  Memory and work are O(N log N) in the grid size N.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
from scipy.special import gamma as gamma_fn

from .spectral import NEUMANN, PERIODIC, SpectralBasis, loglog_slope

logger = logging.getLogger(__name__)

# normal draws per chunk of a batched Riesz draw (16 MB of float64)
_CHUNK_TORUS_POINTS = 2**21


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

    def qv_form(self, f_values: np.ndarray):
        """Quadrature of the double integral of Lambda against f (x) f, per
        row of a (P, *grid) batch."""
        c = self.basis.to_spectral_batch(f_values)
        return self.basis.field_sum(self.weights * c * c)

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


def _rfft_multiplicity(embed_len: int) -> np.ndarray:
    """Number of full-spectrum entries each last-axis column of ``rfftn``
    over ``embed_len`` points stands for: 1 for the zero and Nyquist
    columns, 2 for the others (their mirror images are left out)."""
    mult = np.full(embed_len // 2 + 1, 2.0)
    mult[0] = 1.0
    if embed_len % 2 == 0:
        mult[-1] = 1.0
    return mult


def _clip_spectrum(lam: np.ndarray, embed_len: int, clip_tolerance: float = 0.01):
    """Circulant spectrum with negative eigenvalues clipped at zero.

    ``lam`` is the half spectrum of ``rfftn`` over a torus whose last axis
    has ``embed_len`` points, counted with ``_rfft_multiplicity``.  Returns
    (clipped spectrum, clipped_fraction), the fraction being the negative
    mass over the total absolute mass; raises FactorizationError when it
    exceeds the tolerance (kernel too singular for the grid).
    """
    mult = _rfft_multiplicity(embed_len)
    clipped = abs(float(np.sum(mult * np.clip(lam, None, 0.0))))
    total = float(np.sum(mult * np.abs(lam)))
    frac = clipped / total if total > 0 else 0.0
    if frac > clip_tolerance:
        raise FactorizationError(
            f"covariance clipped mass fraction {frac:.3g} exceeds {clip_tolerance}: "
            "kernel too singular for this resolution"
        )
    if clipped > 0:
        logger.warning(
            "Riesz covariance: clipped %.3g of the circulant spectral mass", frac
        )
    return np.clip(lam, 0.0, None), frac


class RieszSampler(_Sampler):
    """Circulant-embedding sampler for the Riesz kernel on the grid.

    The grid covariance depends only on the lattice offset k, as
    c(k) = |h k|^(-alpha) off the diagonal and the cell mean at k = 0, so it
    is the restriction of a circulant on the M^d torus, M >= 2g - 2.  The
    circulant's spectrum is the ``rfftn`` of its first row; a draw is
    irfftn(sqrt(lam) rfftn(z)) of a standard normal torus field z, cut to
    the grid.  ``qv_form`` is f.(C*f) for f zero-padded to the torus, which
    by Parseval is sum_k lam_k |rfftn(f)_k|^2 / M^d: one FFT per field, and
    one value per row of a (P, *grid) batch.
    """

    def __init__(self, spec: RieszKernel, basis: SpectralBasis):
        spec.validate_for(basis.dimension)
        self.spec = spec
        self.basis = basis
        d, g = basis.dimension, basis.grid_shape[0]
        M = scipy.fft.next_fast_len(2 * g - 2, real=True)
        self.embed_shape = (M,) * d
        wrap = np.minimum(np.arange(M), M - np.arange(M))
        grids = np.meshgrid(*([wrap] * d), indexing="ij", sparse=True)
        r = basis.h * np.sqrt(sum(k * k for k in grids).astype(float))
        with np.errstate(divide="ignore"):
            row = r ** (-spec.alpha)
        row[(0,) * d] = _unit_cell_mean(spec.alpha, d) * basis.h ** (-spec.alpha)
        lam = scipy.fft.rfftn(row, axes=basis.field_axes).real
        self.spectrum, self.clipped_fraction = _clip_spectrum(lam, M)
        self._amplitudes = np.sqrt(self.spectrum)
        self._qv_weights = _rfft_multiplicity(M) * self.spectrum * (
            basis.cell_volume**2 / M**d
        )
        self._grid = (Ellipsis,) + (slice(0, g),) * d

    def sample_batch(self, dt: float, rng, count: int) -> np.ndarray:
        """(count, *grid) increments; large batches are drawn in chunks of
        torus fields, which bounds memory and leaves the values unchanged."""
        out = np.zeros((count,) + self.basis.grid_shape)
        if dt == 0.0:
            return out
        amplitudes = math.sqrt(dt) * self._amplitudes
        chunk = max(1, _CHUNK_TORUS_POINTS // math.prod(self.embed_shape))
        for start in range(0, count, chunk):
            z = rng.standard_normal((min(chunk, count - start),) + self.embed_shape)
            coeffs = scipy.fft.rfftn(z, axes=self.basis.field_axes)
            coeffs *= amplitudes
            torus = scipy.fft.irfftn(coeffs, s=self.embed_shape,
                                     axes=self.basis.field_axes)
            out[start:start + len(z)] = torus[self._grid]
        return out

    def qv_form(self, f_values: np.ndarray):
        axes = self.basis.field_axes
        coeffs = scipy.fft.rfftn(f_values, s=self.embed_shape, axes=axes)
        return self.basis.field_sum(self._qv_weights * (coeffs.real**2 + coeffs.imag**2))


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

    def qv_form(self, f_values: np.ndarray):
        # delta kernel: the double integral collapses to int f^2
        return self.basis.integrate(f_values**2)


def make_sampler(spec, basis: SpectralBasis):
    if isinstance(spec, SpectralKernel):
        return SpectralSampler(spec, basis)
    if isinstance(spec, RieszKernel):
        return RieszSampler(spec, basis)
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
