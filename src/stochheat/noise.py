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

Kernel behaviour lives on the kernel classes, one code path per family:
``params(d)`` (one shared check of eta), ``sampler(basis)``, the shape of
a draw's normals ``normal_shape(domain)``, ``kernel(basis, x, y)``,
``double_integral(basis)``, ``decay_values(basis, t_grid)`` and
``integrable``; the spectral kernel's ``weights(basis)`` are
its per-mode weights, which its sampler and its other methods read.  Each
kernel is a dataclass whose fields are the noise.* config keys it reads,
its defaults their defaults.  ``KERNELS`` maps each ``noise.kind`` to its
class; ``verify_decay`` holds the log-log fit.

Increment fields carry pointwise covariance Lambda(x_i, x_j) * dt.  Every
sampler is a linear map ``increments(dt, z)`` of a (P, *normal_shape) batch
of standard normals to P increment fields; ``sample_batch`` is the serial
reference draw, and the stepping core and the moment probe draw ahead
through ``stepping.drawn_ahead``.  The spectral sampler takes one
normal per retained mode and the white-noise sampler one per cell.  The
Riesz grid covariance (cell-averaged diagonal) depends only on the lattice
offset, so the Riesz sampler embeds it in a circulant on a torus of about
twice the grid per axis (circulant embedding: Dietrich & Newsam, SIAM J.
Sci. Comput. 18, 1997; Wood & Chan, J. Comput. Graph. Stat. 3, 1994).  It
synthesizes a draw in Fourier space: two normals (real and imaginary
part) per entry of the torus's real-FFT half spectrum, scaled by the
square root of the circulant spectrum and mapped to the grid by one
inverse FFT, pruned to the grid corner.  Its quadratic form is an exact
FFT convolution, transformed from the grid corner only.  On a grid of
three axes of at most ``_DENSE_TORUS`` points each, the torus is the
minimal one, 2g - 2 points per axis, wherever that clips no spectral
mass.  There the circulant, whose first row is even along each axis, is
diagonal in a real cosine-sine tensor basis: a draw takes one normal
per torus point, and both transforms are products with that basis's
cached synthesis matrix, one ``spectral.axis_products`` chain each, the
one the dense heat flow runs on; their bits depend on the BLAS build.
Negative circulant eigenvalues, which occur for d = 3 and small alpha,
are clipped at zero, logged and reported as ``clipped_fraction``; the
draws and the quadratic form share the clipped spectrum, which each
process computes once per (alpha, d, grid).  Memory and work are
O(N log N) in the grid size N.

Every transform is ``numpy.fft`` or a numpy matrix product, and the
spectral sampler's Gamma(theta) is ``math.gamma``, so no run loads scipy;
the tests keep scipy's transforms as the oracle of the Riesz sampler's
bits on the FFT path, and of its values at round-off on the dense one.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .spectral import (NEUMANN, PERIODIC, DomainSpec, SpectralBasis, Workspaces,
                       axis_products, loglog_slope)

logger = logging.getLogger(__name__)

# standard normals per chunk of a batched draw (16 MB of float64)
_CHUNK_NORMALS = 2**21

# a 3-d Riesz grid of at most _DENSE_TORUS points per axis runs its torus
# on the real cosine-sine basis.  On 2 vCPUs with OpenBLAS 0.3.31, per
# 50-row batch at 8^3, increments took 0.34-0.48 ms (M = 14) against
# 1.2-2.0 ms by FFT (M = 15) and 0.91-1.08 ms by the complex DFT matrices
# the basis replaced; qv_form took 0.38-0.57 ms against 1.5-2.3 and
# 0.99-1.20 ms (medians of 300-400 calls), and a row's normals per step
# went from 3 600 to 2 744.  At 16^3 (M = 30) the basis also beat the FFT on
# one thread in process (5.1-6.7 against 15-18 ms for each transform), but
# no end-to-end run has measured it there.  In 1-d, one FFT call for the
# whole batch, the products gained nothing; 2-d tori stay on FFT until a
# workload measures them end to end
_DENSE_TORUS = 8

# largest share of the Riesz circulant's spectral mass that may be clipped
_CLIP_TOLERANCE = 0.01

# largest rms residual of verify_decay's log-log fit
_DECAY_RESIDUAL_TOLERANCE = 0.1


class KernelValidationError(ValueError):
    """Covariance parameters outside the admissible range."""


class FactorizationError(RuntimeError):
    """Grid covariance not factorizable after regularization."""


class DecayFitError(RuntimeError):
    """Log-log fit residual too large: not in the power-law regime."""


class _Kernel:
    """A kernel family: its ``variant``, its fields (the noise.* keys it
    reads), ``eta(d)`` and the kernel questions as methods."""

    # False for a kernel outside the finite-double-integral assumption
    integrable = True

    def params(self, dimension: int):
        """(beta, eta) for the box Laplacian setting; raises if eta not in (0,1)."""
        self.validate_for(dimension)
        eta = self.eta(dimension)
        if not 0.0 < eta < 1.0:
            raise KernelValidationError(
                f"eta = {eta} outside (0,1): model outside the assumed decay regime"
            )
        return dimension / 2.0, eta


@dataclass(frozen=True)
class RieszKernel(_Kernel):
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

    def eta(self, dimension: int) -> float:
        return self.alpha / 2.0

    def sampler(self, basis: SpectralBasis):
        return RieszSampler(self, basis)

    def normal_shape(self, domain: DomainSpec) -> tuple:
        """The shape of one draw's normals: those of the circulant
        embedding, one normal per torus point on the dense torus."""
        self.validate_for(domain.dimension)
        return _riesz_embedding(self.alpha, domain)[3]

    def kernel(self, basis: SpectralBasis, x, y) -> float:
        """Pointwise Lambda(x,y) = |x-y|^(-alpha), off the diagonal."""
        self.validate_for(basis.dimension)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        r = float(np.sqrt(np.sum((x - y) ** 2)))
        if r == 0.0:
            raise ValueError("Riesz kernel is singular on the diagonal")
        return r ** (-self.alpha)

    def double_integral(self, basis: SpectralBasis) -> float:
        """Integral of Lambda over D x D; a quadrature, no sampler."""
        self.validate_for(basis.dimension)
        return riesz_double_integral(self.alpha, basis.dimension, basis.length)

    def decay_values(self, basis: SpectralBasis, t_grid) -> np.ndarray:
        """Quadrature of int int G G Lambda at the centre: the sampler's
        quadratic form of G(t, x_c, .) on the grid."""
        sampler = self.sampler(basis)
        x_c = basis.center_point()
        vals = []
        for t in t_grid:
            # G(t, x_c, .) on the grid = inverse transform of e^{-alpha_k t} e_k(x_c)
            cols = basis.axis_decay(t) * basis.axis_eigenfunctions(x_c)
            coeffs = cols[0]
            for col in cols[1:]:
                coeffs = np.multiply.outer(coeffs, col)
            vals.append(sampler.qv_form(basis.to_grid(coeffs)))
        return np.array(vals)


@dataclass(frozen=True)
class SpectralKernel(_Kernel):
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
        # the eta in (0,1) range is enforced by params, where the derived
        # exponents are actually consumed; smoother kernels (larger theta)
        # stay constructible for evaluation and quadrature

    def eta(self, dimension: int) -> float:
        return max(dimension / 2.0 - self.theta, 0.0)

    def weights(self, basis: SpectralBasis) -> np.ndarray:
        """lambda_k^2 = Gamma(theta) (a + alpha_k)^(-theta) on the retained
        modes, in the basis's coefficient shape."""
        self.validate_for(basis.dimension, basis.boundary)
        return math.gamma(self.theta) * (self.a + basis.eigenvalue_tensor()) ** (-self.theta)

    def sampler(self, basis: SpectralBasis):
        return SpectralSampler(self, basis)

    def normal_shape(self, domain: DomainSpec) -> tuple:
        """One normal per retained mode."""
        return (domain.axis_shape[1],) * domain.dimension

    def kernel(self, basis: SpectralBasis, x, y) -> float:
        """Pointwise Lambda(x,y), the series truncated at the retained modes."""
        fx = basis.axis_eigenfunctions(np.atleast_1d(np.asarray(x, dtype=float)))
        fy = basis.axis_eigenfunctions(np.atleast_1d(np.asarray(y, dtype=float)))
        return basis.contract(self.weights(basis), fx * fy)

    def double_integral(self, basis: SpectralBasis) -> float:
        ones = basis.axis_one_coeffs
        return basis.contract(self.weights(basis), [ones * ones] * basis.dimension)

    def decay_values(self, basis: SpectralBasis, t_grid) -> np.ndarray:
        """F(t) = sum_k lambda_k^2 e^(-2 alpha_k t) e_k(x_c)^2, exact."""
        w = self.weights(basis)
        for i, e in enumerate(basis.axis_eigenfunctions(basis.center_point())):
            shape = [1] * basis.dimension
            shape[i] = basis.axis_mode_count
            w = w * (e ** 2).reshape(shape)
        alpha = basis.eigenvalue_tensor().ravel()
        w = w.ravel()
        return np.array([float(np.sum(w * np.exp(-2.0 * alpha * t))) for t in t_grid])


@dataclass(frozen=True)
class WhiteNoise(_Kernel):
    """Space-time white noise reference mode, d = 1 only (beta = eta = 1/2)."""

    variant = "white"
    integrable = False

    def validate_for(self, dimension: int, boundary: str | None = None):
        if dimension != 1:
            raise KernelValidationError("white-noise mode is restricted to d = 1")

    def eta(self, dimension: int) -> float:
        return 0.5

    def sampler(self, basis: SpectralBasis):
        return WhiteNoiseSampler(self, basis)

    def normal_shape(self, domain: DomainSpec) -> tuple:
        """One normal per cell."""
        return (domain.axis_shape[0],) * domain.dimension

    def kernel(self, basis: SpectralBasis, x, y) -> float:
        raise ValueError("white noise has a distributional (delta) kernel")

    def double_integral(self, basis: SpectralBasis) -> float:
        raise ValueError(
            "white noise has no finite double integral (outside the "
            "integrable-covariance assumption)"
        )

    def decay_values(self, basis: SpectralBasis, t_grid) -> np.ndarray:
        """F(t) = G(2t, x_c, x_c)."""
        x_c = basis.center_point()
        return np.array([basis.heat_kernel(2 * t, x_c, x_c) for t in t_grid])


# the kernel class of each noise.kind
KERNELS = {k.variant: k for k in (RieszKernel, SpectralKernel, WhiteNoise)}


def critical_exponent(beta: float, eta: float) -> float:
    """gamma_c = 1 + (1-eta)/(2 beta)."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0,1), got {eta}")
    return 1.0 + (1.0 - eta) / (2.0 * beta)


# -- singular-kernel quadrature helpers ---------------------------------


@functools.cache
def _unit_cell_mean(alpha: float, dimension: int) -> float:
    """Mean of |z|^(-alpha) over the unit cell [-1/2, 1/2]^d.

    Uses the self-similar shell decomposition: the integral over the cell
    equals the integral over the annulus cell-minus-half-cell divided by
    (1 - 2^(alpha-d)), and the annulus integrand is smooth.  A pure function
    of its arguments that sums a 64^d midpoint grid, so each process
    computes it once per (alpha, d).  The midpoints are exact dyadics,
    symmetric under each axis reflection, so the integrand is evaluated on
    the positive octant and mirrored into the full grid, which is summed.
    """
    if dimension == 1:
        return 2.0**alpha / (1.0 - alpha)
    res = 64
    half = (np.arange(res // 2) + 0.5) / res  # positive midpoints of [-1/2,1/2]
    # one broadcast axis per dimension: only the sums build a full grid
    grids = np.meshgrid(*([half] * dimension), indexing="ij", sparse=True)
    r2 = sum(g**2 for g in grids)
    inside_half = functools.reduce(operator.and_, (g < 0.25 for g in grids))
    vol = (1.0 / res) ** dimension
    annulus = np.where(inside_half, 0.0, r2 ** (-alpha / 2.0))
    for axis in range(dimension):
        annulus = np.concatenate([np.flip(annulus, axis), annulus], axis=axis)
    S = float(np.sum(annulus)) * vol
    return S / (1.0 - 2.0 ** (alpha - dimension))


def riesz_double_integral(alpha: float, dimension: int, length: float) -> float:
    """Quadrature of the Riesz kernel over D x D, D = [0, L]^d.

    Reduces to an integral over the difference box with the triangular
    overlap weight, evaluated on 40 dyadic shells around the singularity,
    48 midpoints per axis each, so each shell integrand is smooth.
    """
    L, res, levels = length, 48, 40
    total = 0.0
    for j in range(levels):
        s = L * 2.0**-j  # outer half-side of this shell
        axes = (np.arange(res) + 0.5) * (2 * s / res) - s
        # one broadcast axis per dimension, as in _unit_cell_mean
        grids = np.meshgrid(*([axes] * dimension), indexing="ij", sparse=True)
        inner = functools.reduce(operator.and_, (np.abs(g) <= s / 2 for g in grids))
        r2 = sum(g**2 for g in grids)
        weight = functools.reduce(operator.mul, (L - np.abs(g) for g in grids))
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
    """A sampler is a linear map of standard normals: ``increments(dt, z)``
    turns (P, *normal_shape) normals into (P, *grid) increments, row by row.
    Every draw goes through that map; only the normals differ in origin."""

    # share of the covariance's spectral mass clipped; only Riesz clips
    clipped_fraction = None
    # per-mode weights lambda_k^2 of a kernel diagonal in the eigenbasis,
    # whose coefficients are independent; only the spectral kernel has them
    weights = None

    def sample_batch(self, dt: float, rng, count: int) -> np.ndarray:
        """(count, *grid) increments from one stream, drawn in chunks of
        normals, which bounds memory and leaves the values unchanged."""
        out = np.empty((count,) + self.basis.grid_shape)
        chunk = max(1, _CHUNK_NORMALS // math.prod(self.normal_shape))
        for start in range(0, count, chunk):
            z = rng.standard_normal((min(chunk, count - start),) + self.normal_shape)
            out[start:start + len(z)] = self.increments(dt, z)
        return out

    def sample_values(self, dt: float, rng) -> np.ndarray:
        return self.sample_batch(dt, rng, 1)[0]


class SpectralSampler(_Sampler):
    """Sampler for the eigenbasis-diagonal kernel."""

    def __init__(self, spec: SpectralKernel, basis: SpectralBasis):
        self.spec = spec
        self.basis = basis
        self.weights = spec.weights(basis)
        self.amplitudes = np.sqrt(self.weights)
        self.normal_shape = spec.normal_shape(basis.spec)

    def increments(self, dt: float, z: np.ndarray) -> np.ndarray:
        """One normal per retained mode, scaled and sent to the grid."""
        return self.basis.to_grid_batch(math.sqrt(dt) * self.amplitudes * z)

    def qv_form(self, f_values: np.ndarray):
        """Quadrature of the double integral of Lambda against f (x) f, per
        row of a (P, *grid) batch."""
        c = self.basis.to_spectral_batch(f_values)
        return self.basis.field_sum(self.weights * c * c)


def _smooth_len(n: int) -> int:
    """The least 2·3·5-smooth integer >= n >= 1: a length whose real FFT
    is fast, as ``scipy.fft.next_fast_len(n, real=True)`` gives."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _rfft_multiplicity(embed_len: int) -> np.ndarray:
    """Number of full-spectrum entries each last-axis column of ``rfftn``
    over ``embed_len`` points stands for: 1 for the zero and Nyquist
    columns, 2 for the others (their mirror images are left out)."""
    mult = np.full(embed_len // 2 + 1, 2.0)
    mult[0] = 1.0
    if embed_len % 2 == 0:
        mult[-1] = 1.0
    return mult


def _clipped_fraction(lam: np.ndarray, embed_len: int) -> float:
    """The negative mass of a half spectrum ``lam`` (see ``_clip_spectrum``)
    over its total absolute mass."""
    mult = _rfft_multiplicity(embed_len)
    clipped = abs(float(np.sum(mult * np.clip(lam, None, 0.0))))
    total = float(np.sum(mult * np.abs(lam)))
    return clipped / total if total > 0 else 0.0


def _clip_spectrum(lam: np.ndarray, embed_len: int):
    """Circulant spectrum with negative eigenvalues clipped at zero.

    ``lam`` is the half spectrum of ``rfftn`` over a torus whose last axis
    has ``embed_len`` points, counted with ``_rfft_multiplicity``.  Returns
    (clipped spectrum, clipped_fraction), the fraction being the negative
    mass over the total absolute mass; raises FactorizationError when it
    exceeds ``_CLIP_TOLERANCE`` (kernel too singular for the grid).
    """
    frac = _clipped_fraction(lam, embed_len)
    if frac > _CLIP_TOLERANCE:
        raise FactorizationError(
            f"covariance clipped mass fraction {frac:.3g} exceeds {_CLIP_TOLERANCE}: "
            "kernel too singular for this resolution"
        )
    return np.clip(lam, 0.0, None), frac


def _dense_torus(dimension: int, points: int) -> bool:
    """Whether the Riesz torus of a grid of ``points`` per axis runs on the
    real cosine-sine basis rather than on FFTs."""
    return dimension == 3 and points <= _DENSE_TORUS


def _circulant_spectrum(alpha: float, dimension: int, h: float, embed_len: int):
    """The half spectrum of the Riesz circulant on the torus of
    ``embed_len`` points per axis, spacing h: the ``rfft`` of its first row
    over the last axis, then an ``fft`` over each leading axis, first axis
    first.  The row is |h k|^(-alpha) at the wrapped offset k, and the
    cell mean at k = 0."""
    d, M = dimension, embed_len
    wrap = np.minimum(np.arange(M), M - np.arange(M))
    grids = np.meshgrid(*([wrap] * d), indexing="ij", sparse=True)
    r = h * np.sqrt(sum(k * k for k in grids).astype(float))
    with np.errstate(divide="ignore"):
        row = r ** (-alpha)
    row[(0,) * d] = _unit_cell_mean(alpha, d) * h ** (-alpha)
    lam = np.fft.rfft(row)
    for axis in range(d - 1):
        lam = np.fft.fft(lam, axis=axis)
    return lam.real


# a run needs one embedding, and verify_assumptions one more, on its 64^3
# decay grid, whose spectrum is 8.5 MB: a small cache bounds what a process
# keeps
@functools.lru_cache(maxsize=4)
def _riesz_embedding(alpha: float, domain: DomainSpec):
    """The circulant embedding of the Riesz grid covariance on the grid of
    ``domain``, g points per axis: (M, clipped half spectrum, clipped
    fraction, normal_shape) for a torus of M points per axis.  A pure
    function of its arguments, cached, so the sampler and ``config_hash``
    of a run compute it once; the spectrum is read-only, as every caller
    shares it.

    M is ``_smooth_len(2g - 2)``, a fast FFT length.  The dense torus takes
    the minimal length 2g - 2 instead when its spectrum clips no mass, so
    the clipped fraction is never above that of the FFT length (Dietrich &
    Newsam grow an embedding until it is nonnegative).  Its normals are one
    per torus point; the FFT torus takes the (Re, Im) pairs of its half
    spectrum.  Raises FactorizationError as ``_clip_spectrum``.
    """
    d, points = domain.dimension, domain.axis_shape[0]
    # the grid spacing, as the basis computes it
    h = domain.length / domain.grid_points
    minimal = 2 * points - 2
    dense = _dense_torus(d, points)
    for M in ([minimal] if dense else []) + [_smooth_len(minimal)]:
        lam = _circulant_spectrum(alpha, d, h, M)
        if _clipped_fraction(lam, M) == 0.0:
            break
    spectrum, fraction = _clip_spectrum(lam, M)
    spectrum.flags.writeable = False
    shape = (M,) * d if dense else (M,) * (d - 1) + (M // 2 + 1, 2)
    return M, spectrum, fraction, shape


def _cosine_sine_basis(spectrum: np.ndarray, points: int, embed_len: int):
    """The real synthesis matrix of the torus and the weight of each tensor
    mode.  An axis of M points has the M modes cos(2 pi j k / M), k = 0..M//2,
    and sin(2 pi j k / M), k = 1..(M+1)//2 - 1; the matrix holds them on the
    first ``points`` points, shape (M, points).  A mode's weight is the
    circulant eigenvalue at its frequencies, read from the half spectrum,
    times m_k / M per axis, m_k as ``_rfft_multiplicity``."""
    M, d = embed_len, spectrum.ndim
    k = np.concatenate([np.arange(M // 2 + 1), np.arange(1, (M + 1) // 2)])
    phases = (2 * np.pi / M) * (np.multiply.outer(k, np.arange(points)) % M)
    matrix = np.where((np.arange(M) <= M // 2)[:, None], np.cos(phases), np.sin(phases))
    per_axis = _rfft_multiplicity(M)[k] / M
    weights = spectrum[np.ix_(*[k] * d)] * functools.reduce(np.multiply.outer, [per_axis] * d)
    return matrix, weights


class RieszSampler(_Sampler):
    """Circulant-embedding sampler for the Riesz kernel on the grid.

    The grid covariance depends only on the lattice offset k, as
    c(k) = |h k|^(-alpha) off the diagonal and the cell mean at k = 0, so it
    is the restriction of a circulant on the M^d torus of
    ``_riesz_embedding``, M >= 2g - 2, whose spectrum lam is the real FFT of
    its first row.  The row is even along each axis separately, and so is
    lam.

    A draw is synthesized in Fourier space.  On the FFT torus the normals
    are the real and imaginary parts of the half spectrum, ``normal_shape =
    (M,)*(d-1) + (M//2+1, 2)``.  They are scaled by sqrt(lam dt M^d / m),
    where m is 2 on the interior last-axis columns and 1 on the zero and
    Nyquist columns, of which ``irfft`` keeps only the Hermitian part.  The
    inverse transform is pruned to the grid: an ``ifft`` over each leading
    axis keeps its first g outputs before the next, and an ``irfft`` of M
    points over the last axis is cut to g.

    ``qv_form`` is f.(C*f) for f zero-padded to the torus, by Parseval
    sum_k m lam_k |F_k|^2 / M^d over the half spectrum F of f, which is
    transformed from the unpadded field, last axis first; one value per
    row of a (P, *grid) batch.

    Both run on ``numpy.fft``, whose pocketfft gives scipy's values bit for
    bit.  numpy transforms one line per turn of its loop, and a call is
    fast only when the axes it does not transform keep one memory order,
    without gaps, in its input and its output.  So every pass writes its
    own axis innermost, and the next pass reads a copy with its axis
    innermost, cut to the first g entries of the axis before it in
    ``increments``; the first ``increments`` pass reads its lines in place.
    Zero-padding to M is the ``n=`` of each forward transform, line by line
    inside numpy's loop.  The passes alternate between two workspaces per
    sampler and thread, so a call allocates only the C-contiguous
    increments it returns.

    On the dense torus, three axes of g <= ``_DENSE_TORUS`` points each,
    numpy's cost per line outweighs the arithmetic.  As lam is even along
    each axis, the circulant is diagonal in the real cosine-sine tensor
    basis of ``_cosine_sine_basis``, which takes one normal per torus point,
    ``normal_shape = (M,) * 3``.  ``increments`` scales them by the square
    roots of dt times the mode weights, and maps them to the grid by one
    ``axis_products`` chain with the (M, g) synthesis matrix on each axis;
    ``qv_form`` maps f by its transpose and sums the weighted squares.  The
    chains run in the same two workspaces, and a row's values do not depend
    on its batch.
    """

    def __init__(self, spec: RieszKernel, basis: SpectralBasis):
        spec.validate_for(basis.dimension)
        self.spec = spec
        self.basis = basis
        d, g = basis.dimension, basis.grid_shape[0]
        M, self.spectrum, self.clipped_fraction, self.normal_shape = _riesz_embedding(
            spec.alpha, basis.spec)
        if self.clipped_fraction > 0:
            logger.warning("Riesz covariance: clipped %.3g of the circulant spectral mass",
                           self.clipped_fraction)
        self._embed_len = M
        self._workspace = Workspaces()
        if _dense_torus(d, g):
            # the real synthesis matrix and its transpose, each C-contiguous,
            # and the mode weights in place of lam
            synthesis, weights = _cosine_sine_basis(self.spectrum, g, M)
            self._dft = synthesis, np.ascontiguousarray(synthesis.T)
            self._scales = np.sqrt(weights)
            self._qv_weights = weights * basis.cell_volume**2
        else:
            self._dft = None
            mult = _rfft_multiplicity(M)
            # the unnormalized inverse ("forward" norm) leaves 1/M^d to the scales
            self._scales = np.sqrt(self.spectrum / (mult * M**d))
            self._qv_weights = mult * self.spectrum * (basis.cell_volume**2 / M**d)

    def _innermost(self, key, axis: int, shape, dtype=complex) -> np.ndarray:
        """A workspace viewed with the logical ``shape`` (axis 0 the row,
        1..d the field axes), whose memory holds ``axis`` innermost and the
        other axes in order."""
        last = len(shape) - 1
        buf = self._workspace(key, shape[:axis] + shape[axis + 1:] + shape[axis:axis + 1], dtype)
        return buf.transpose(tuple(range(axis)) + (last,) + tuple(range(axis, last)))

    def _copy_innermost(self, key, x: np.ndarray, axis: int) -> np.ndarray:
        """x copied into the workspace of ``key`` with ``axis`` innermost."""
        out = self._innermost(key, axis, x.shape)
        np.copyto(out, x)
        return out

    def increments(self, dt: float, z: np.ndarray) -> np.ndarray:
        """Normals on the spectrum, scaled, one pruned inverse transform."""
        if self._dft is not None:
            # of the three passes the first writes "b", as "a" holds x
            x = self._workspace("a", (len(z),) + self.normal_shape)
            np.multiply(z, math.sqrt(dt) * self._scales, out=x)
            passes = [(axis, self._dft[0]) for axis in self.basis.field_axes]
            return axis_products(x, passes, np.empty((len(z),) + self.basis.grid_shape),
                                 self._workspace, "ba")
        x = self._workspace("a", (len(z),) + self.normal_shape[:-1], complex)
        np.multiply(z.view(complex)[..., 0], math.sqrt(dt) * self._scales, out=x)
        d, g, M = self.basis.dimension, self.basis.grid_shape[0], self._embed_len
        # each pass writes its axis innermost, and the next reads a copy of
        # its first g outputs with the next axis innermost; the first pass
        # reads its lines in place, strided
        for axis in range(1, d):
            if axis > 1:
                x = self._copy_innermost("a", x, axis)
            out = self._innermost("b", axis, x.shape)
            np.fft.ifft(x, axis=axis, norm="forward", out=out)
            x = out[(slice(None),) * axis + (slice(g),)]
        if d > 1:
            x = self._copy_innermost("a", x, d)
        values = self._workspace("b", x.shape[:-1] + (M,))
        np.fft.irfft(x, M, norm="forward", out=values)
        return values[..., :g].copy()

    def qv_form(self, f_values: np.ndarray):
        d = self.basis.dimension
        f = f_values.reshape((-1,) + self.basis.grid_shape)
        if self._dft is None:
            power = self._fft_power(f)
        else:
            # the coefficients of f in the real basis, squared in place
            passes = [(axis, self._dft[1]) for axis in self.basis.field_axes]
            power = axis_products(f, passes, self._workspace("a", (len(f),) + self.normal_shape),
                                  self._workspace, "ab")
            np.square(power, out=power)
        power *= self._qv_weights
        total = self.basis.field_sum(power)
        return total if f_values.ndim > d else float(total[0])

    def _fft_power(self, f: np.ndarray):
        """|F|^2 on the half spectrum of f zero-padded to the torus, in
        workspace "b"."""
        d, M = self.basis.dimension, self._embed_len
        # each pass, zero-padded from g to M points, writes its axis
        # innermost; the next reads a copy with its own axis innermost
        out = self._workspace("a", f.shape[:-1] + (M // 2 + 1,), complex)
        np.fft.rfft(f, M, out=out)
        for axis in range(d - 1, 0, -1):
            x = self._copy_innermost("b", out, axis)
            out = self._innermost("a", axis, x.shape[:axis] + (M,) + x.shape[axis + 1:])
            np.fft.fft(x, M, axis=axis, out=out)
        # the last pass wrote axis 1 innermost: square its float view in
        # memory order, in place
        squares = out.transpose((0,) + tuple(range(2, d + 1)) + (1,)).view(float)
        np.square(squares, out=squares)
        power = self._workspace("b", out.shape)
        np.add(out.real, out.imag, out=power)
        return power


class WhiteNoiseSampler(_Sampler):
    """Independent per-cell increments with variance dt / h (d = 1)."""

    def __init__(self, spec: WhiteNoise, basis: SpectralBasis):
        spec.validate_for(basis.dimension)
        self.spec = spec
        self.basis = basis
        self.normal_shape = spec.normal_shape(basis.spec)

    def increments(self, dt: float, z: np.ndarray) -> np.ndarray:
        return math.sqrt(dt / self.basis.cell_volume) * z

    def qv_form(self, f_values: np.ndarray):
        # delta kernel: the double integral collapses to int f^2
        return self.basis.integrate(f_values**2)


def make_sampler(spec, basis: SpectralBasis):
    """The sampler of kernel ``spec`` on ``basis``."""
    return spec.sampler(basis)


@dataclass(kw_only=True)
class DecayReport:
    """Fit of the kernel-smoothed heat decay F(t) ~ C t^(-eta)."""

    variant: str
    d: int
    # the kernel's own fields; None where its family has no such field
    theta: float | None = None
    alpha: float | None = None
    a: float | None = None
    fitted_slope: float
    expected_eta: float
    fitted_C: float
    residual: float
    t_grid: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def to_dict(self):
        out = asdict(self)
        del out["t_grid"], out["values"]
        return out

    @property
    def passed(self) -> bool:
        return abs(self.fitted_slope + self.expected_eta) <= 0.1


def verify_decay(spec, basis: SpectralBasis, t_grid=None) -> DecayReport:
    """Fit the decay exponent of the kernel-smoothed squared heat flow.

    The values are the kernel's ``decay_values``: the exact series for the
    spectral kernel, a grid quadrature against the truncated heat kernel for
    Riesz, F(t) = G(2t, x, x) for white noise.  Raises DecayFitError when the log-log residual is
    too large (the t-grid is outside the power-law regime).
    """
    if t_grid is None:
        t_grid = np.logspace(-4, -2, 25)
    t_grid = np.asarray(t_grid, dtype=float)
    d = basis.dimension
    _, eta = spec.params(d)
    vals = spec.decay_values(basis, t_grid)
    slope, intercept, rms = loglog_slope(t_grid, vals)
    if rms > _DECAY_RESIDUAL_TOLERANCE:
        raise DecayFitError(
            f"log-log fit residual {rms:.3g} exceeds {_DECAY_RESIDUAL_TOLERANCE}: "
            "decay is not power-law on this t-grid (spectral gap dominates "
            "for t of order one)"
        )
    return DecayReport(
        variant=spec.variant,
        d=d,
        fitted_slope=slope,
        expected_eta=eta,
        fitted_C=float(np.exp(intercept)),
        residual=rms,
        t_grid=list(map(float, t_grid)),
        values=list(map(float, vals)),
        **asdict(spec),
    )
