"""Laplacian eigenbases on a box with fast transforms and the heat semigroup.

The box is [0, L]^d (L = pi by default) and the operator is the Laplacian
under periodic, Neumann or Dirichlet boundary conditions, so eigenpairs are
closed-form tensor products of 1-d sine/cosine factors:

* Dirichlet:  e_k(x) = prod_i sqrt(2/L) sin(k_i pi x_i / L),   k_i >= 1
* Neumann:    e_k(x) = prod_i n_{k_i} cos(k_i pi x_i / L),     k_i >= 0
* periodic:   real basis {1, cos(2 pi m x/L), sin(2 pi m x/L)} per axis

with eigenvalue alpha_k = sum_i kappa_i^2 for the per-axis wavenumbers
kappa_i.  Grids are chosen so that the matching fast transform (DST-I,
DCT-II, real FFT) is exactly orthonormal under the h^d quadrature rule:

* periodic:  x_j = j h,        j = 0..n-1   (duplicated endpoint dropped)
* Dirichlet: x_j = j h,        j = 1..n-1   (boundary points dropped, u=0)
* Neumann:   x_j = (j+1/2) h,  j = 0..n-1   (cell midpoints)

where h = L/n.  Periodic mode packing per axis: index 0 is the constant,
index 2m-1 is cos(2 pi m x/L), index 2m is sin(2 pi m x/L), and index n-1
is the Nyquist cosine cos(pi n x/L).  The Nyquist mode is normalised to be
orthonormal under the grid quadrature (1/sqrt(L)); it only matters at the
resolution limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

PERIODIC = "periodic"
NEUMANN = "neumann"
DIRICHLET = "dirichlet"
BOUNDARY_CONDITIONS = (PERIODIC, NEUMANN, DIRICHLET)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DomainSpec:
    """Box domain [0, L]^d with an isotropic grid and mode cutoff.

    ``grid_points`` is the per-axis resolution n (a power of two so the
    fast transforms apply); ``modes`` is the per-axis cutoff N <= n used
    for series evaluations, defaulting to n.
    """

    dimension: int
    boundary: str
    grid_points: int
    modes: int | None = None
    length: float = math.pi

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.boundary not in BOUNDARY_CONDITIONS:
            raise ValueError(
                f"boundary must be one of {BOUNDARY_CONDITIONS}, got {self.boundary!r}"
            )
        if self.grid_points < 8:
            raise ValueError(f"grid_points must be >= 8, got {self.grid_points}")
        if not _is_power_of_two(self.grid_points):
            raise ValueError(
                f"grid_points must be a power of two, got {self.grid_points}"
            )
        if self.modes is None:
            object.__setattr__(self, "modes", self.grid_points)
        if self.modes > self.grid_points:
            raise ValueError(
                f"mode cutoff {self.modes} exceeds grid resolution {self.grid_points}"
            )
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.length <= 0:
            raise ValueError("length must be positive")


class SpectralBasis:
    """Immutable eigenbasis of the Laplacian on a DomainSpec.

    Built once per process via :func:`build_basis` and shared read-only by
    every path that process runs.
    Coefficient arrays have shape ``(m,) * d`` where m is the per-axis mode
    count; grid arrays have shape ``(g,) * d`` with g the per-axis point
    count (n, or n-1 for Dirichlet).
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        d, n, L = spec.dimension, spec.grid_points, spec.length
        self.dimension = d
        self.length = L
        self.h = L / n
        bc = spec.boundary
        self.boundary = bc

        if bc == DIRICHLET:
            self.axis_points = self.h * np.arange(1, n)
            m = min(spec.modes, n - 1)
            # axis mode numbers k = 1..m, wavenumber k pi / L
            self._axis_mode_numbers = np.arange(1, m + 1)
            self.axis_wavenumbers = self._axis_mode_numbers * (np.pi / L)
        elif bc == NEUMANN:
            self.axis_points = self.h * (np.arange(n) + 0.5)
            m = spec.modes
            self._axis_mode_numbers = np.arange(m)
            self.axis_wavenumbers = self._axis_mode_numbers * (np.pi / L)
        else:  # periodic
            self.axis_points = self.h * np.arange(n)
            m = spec.modes
            self._axis_mode_numbers = np.arange(m)
            freq = (self._axis_mode_numbers + 1) // 2
            self.axis_wavenumbers = freq * (2.0 * np.pi / L)
            # packed index n-1, if retained, is the Nyquist cosine
            if m == n:
                self.axis_wavenumbers = self.axis_wavenumbers.copy()
                self.axis_wavenumbers[n - 1] = np.pi * n / L

        self.axis_mode_count = len(self._axis_mode_numbers)
        self.axis_eigenvalues = self.axis_wavenumbers**2
        self.grid_shape = (len(self.axis_points),) * d
        self.coeff_shape = (self.axis_mode_count,) * d
        self.mode_count = self.axis_mode_count**d
        self.cell_volume = self.h**d
        # the trailing d axes of a field (grid, coefficients), batched or not
        self.field_axes = tuple(range(-d, 0))
        # per-axis integrals <1, psi_k>, used by dirichlet_mass and the
        # spectral-kernel double integral
        self._axis_one_coeffs = self._compute_axis_one_coeffs()

    # -- eigendata -----------------------------------------------------

    def axis_valid_indices(self):
        """Valid per-axis public mode indices (Dirichlet is 1-based)."""
        return self._axis_mode_numbers if self.boundary == DIRICHLET else np.arange(
            self.axis_mode_count
        )

    def _axis_storage_index(self, k: int) -> int:
        if self.boundary == DIRICHLET:
            if not 1 <= k <= self.axis_mode_count:
                raise IndexError(f"Dirichlet mode number {k} outside 1..{self.axis_mode_count}")
            return k - 1
        if not 0 <= k < self.axis_mode_count:
            raise IndexError(f"mode index {k} outside 0..{self.axis_mode_count - 1}")
        return k

    def eigenvalue(self, k) -> float:
        """alpha_k = sum_i kappa_{k_i}^2 for a multi-index k."""
        k = self._as_multi_index(k)
        return float(
            sum(self.axis_eigenvalues[self._axis_storage_index(ki)] for ki in k)
        )

    def eigenvalue_tensor(self) -> np.ndarray:
        """Full tensor of eigenvalues, shape coeff_shape."""
        d = self.dimension
        out = np.zeros(self.coeff_shape)
        for axis in range(d):
            shape = [1] * d
            shape[axis] = self.axis_mode_count
            out = out + self.axis_eigenvalues.reshape(shape)
        return out

    def sorted_eigenvalues(self) -> np.ndarray:
        return np.sort(self.eigenvalue_tensor().ravel())

    @property
    def alpha_max(self) -> float:
        return float(self.dimension * self.axis_eigenvalues[-1])

    def _as_multi_index(self, k):
        if np.isscalar(k):
            k = (int(k),)
        k = tuple(int(ki) for ki in k)
        if len(k) != self.dimension:
            raise IndexError(
                f"multi-index has {len(k)} components, domain dimension is {self.dimension}"
            )
        return k

    def axis_eigenfunction(self, k: int, x) -> np.ndarray:
        """1-d eigenfunction factor psi_k evaluated at points x."""
        x = np.asarray(x, dtype=float)
        L = self.length
        p = self._axis_storage_index(k)
        if self.boundary == DIRICHLET:
            kap = self.axis_wavenumbers[p]
            return math.sqrt(2.0 / L) * np.sin(kap * x)
        if self.boundary == NEUMANN:
            if k == 0:
                return np.full_like(x, 1.0 / math.sqrt(L))
            kap = self.axis_wavenumbers[p]
            return math.sqrt(2.0 / L) * np.cos(kap * x)
        # periodic packing
        n = self.spec.grid_points
        if k == 0:
            return np.full_like(x, 1.0 / math.sqrt(L))
        if k == n - 1:  # Nyquist cosine, grid-orthonormal normalisation
            return (1.0 / math.sqrt(L)) * np.cos(np.pi * n / L * x)
        m = (k + 1) // 2
        arg = 2.0 * np.pi * m / L * x
        if k % 2 == 1:
            return math.sqrt(2.0 / L) * np.cos(arg)
        return math.sqrt(2.0 / L) * np.sin(arg)

    def eigenfunction(self, k, x) -> float:
        """e_k(x) for a multi-index k and a point x in the closed box."""
        k = self._as_multi_index(k)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dimension,):
            raise ValueError(f"point must have {self.dimension} coordinates")
        if np.any(x < -1e-12) or np.any(x > self.length + 1e-12):
            raise ValueError("point outside the closed box")
        val = 1.0
        for ki, xi in zip(k, x):
            val *= float(self.axis_eigenfunction(ki, xi))
        return val

    def _compute_axis_one_coeffs(self) -> np.ndarray:
        """<1, psi_k> along one axis, exact integrals."""
        L = self.length
        out = np.zeros(self.axis_mode_count)
        if self.boundary == DIRICHLET:
            k = self._axis_mode_numbers
            odd = k % 2 == 1
            out[odd] = math.sqrt(2.0 / L) * 2.0 * L / (np.pi * k[odd])
        else:
            out[0] = math.sqrt(L)  # constant mode; cos/sin integrate to zero
        return out

    # -- transforms ------------------------------------------------------

    def _axis_forward(self, values: np.ndarray, axis: int) -> np.ndarray:
        h, L = self.h, self.length
        if self.boundary == DIRICHLET:
            y = scipy.fft.dst(values, type=1, axis=axis)
            c = (h * math.sqrt(2.0 / L) / 2.0) * y
        elif self.boundary == NEUMANN:
            y = scipy.fft.dct(values, type=2, axis=axis)
            c = (h * math.sqrt(2.0 / L) / 2.0) * y
            sl = [slice(None)] * values.ndim
            sl[axis] = slice(0, 1)
            c[tuple(sl)] /= math.sqrt(2.0)
        else:
            c = self._periodic_forward(values, axis)
        if self.axis_mode_count < c.shape[axis]:
            sl = [slice(None)] * c.ndim
            sl[axis] = slice(0, self.axis_mode_count)
            c = c[tuple(sl)]
        return c

    def _axis_inverse(self, coeffs: np.ndarray, axis: int) -> np.ndarray:
        n = self.spec.grid_points
        full = n - 1 if self.boundary == DIRICHLET else n
        if coeffs.shape[axis] < full:
            pad = [(0, 0)] * coeffs.ndim
            pad[axis] = (0, full - coeffs.shape[axis])
            coeffs = np.pad(coeffs, pad)
        L = self.length
        if self.boundary == DIRICHLET:
            return (math.sqrt(2.0 / L) / 2.0) * scipy.fft.dst(coeffs, type=1, axis=axis)
        if self.boundary == NEUMANN:
            z = coeffs * (math.sqrt(2.0 / L) / 2.0)
            sl = [slice(None)] * coeffs.ndim
            sl[axis] = slice(0, 1)
            z[tuple(sl)] = coeffs[tuple(sl)] / math.sqrt(L)
            return scipy.fft.dct(z, type=3, axis=axis)
        return self._periodic_inverse(coeffs, axis)

    def _periodic_forward(self, values: np.ndarray, axis: int) -> np.ndarray:
        n = self.spec.grid_points
        L = self.length
        F = np.fft.rfft(values, axis=axis)
        F = np.moveaxis(F, axis, -1)
        out_shape = F.shape[:-1] + (n,)
        c = np.empty(out_shape)
        c[..., 0] = math.sqrt(L) / n * F[..., 0].real
        c[..., 1 : n - 1 : 2] = math.sqrt(2.0 * L) / n * F[..., 1 : n // 2].real
        c[..., 2 : n - 1 : 2] = -math.sqrt(2.0 * L) / n * F[..., 1 : n // 2].imag
        c[..., n - 1] = math.sqrt(L) / n * F[..., n // 2].real
        return np.moveaxis(c, -1, axis)

    def _periodic_inverse(self, coeffs: np.ndarray, axis: int) -> np.ndarray:
        n = self.spec.grid_points
        L = self.length
        c = np.moveaxis(coeffs, axis, -1)
        F = np.empty(c.shape[:-1] + (n // 2 + 1,), dtype=complex)
        F[..., 0] = c[..., 0] * n / math.sqrt(L)
        F[..., 1 : n // 2] = (
            c[..., 1 : n - 1 : 2] - 1j * c[..., 2 : n - 1 : 2]
        ) * (n / math.sqrt(2.0 * L))
        F[..., n // 2] = c[..., n - 1] * n / math.sqrt(L)
        values = np.fft.irfft(F, n=n, axis=-1)
        return np.moveaxis(values, -1, axis)

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Grid values -> coefficients c_k = <f, e_k> under h^d quadrature."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.grid_shape:
            raise ValueError(
                f"grid shape {values.shape} does not match basis grid {self.grid_shape}"
            )
        out = values
        for axis in range(self.dimension):
            out = self._axis_forward(out, axis)
        return out

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients -> grid values sum_k c_k e_k(x_j)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != self.coeff_shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match basis {self.coeff_shape}"
            )
        out = coeffs
        for axis in range(self.dimension):
            out = self._axis_inverse(out, axis)
        return out

    def to_grid_batch(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform applied to the trailing d axes of a batch."""
        out = np.asarray(coeffs, dtype=float)
        for i in range(self.dimension):
            out = self._axis_inverse(out, axis=out.ndim - self.dimension + i)
        return out

    def to_spectral_batch(self, values: np.ndarray) -> np.ndarray:
        """Forward transform applied to the trailing d axes of a batch."""
        out = np.asarray(values, dtype=float)
        for i in range(self.dimension):
            out = self._axis_forward(out, axis=out.ndim - self.dimension + i)
        return out

    # -- semigroup and kernels -------------------------------------------

    def axis_decay(self, t: float) -> np.ndarray:
        """exp(-kappa^2 t) along one axis."""
        return np.exp(-self.axis_eigenvalues * t)

    def semigroup(self, coeffs: np.ndarray, t: float) -> np.ndarray:
        """Multiply coefficients by exp(-alpha_k t)."""
        if t < 0:
            raise ValueError(f"semigroup time must be >= 0, got {t}")
        if t == 0:
            return np.array(coeffs, dtype=float, copy=True)
        out = np.asarray(coeffs, dtype=float)
        d = self.dimension
        decay = self.axis_decay(t)
        for axis in range(d):
            shape = [1] * d
            shape[axis] = self.axis_mode_count
            out = out * decay.reshape(shape)
        return out

    def _axis_tail_sum(self, t: float) -> float:
        """Geometric-domination bound on sum over dropped modes of e^{-kappa^2 t}."""
        n, L = self.spec.grid_points, self.length
        if self.boundary == PERIODIC:
            if self.axis_mode_count == n:
                return 0.0
            m0 = (self.axis_mode_count + 1) // 2  # first dropped frequency
            base = (2.0 * np.pi / L) ** 2
            lead = 2.0 * math.exp(-base * m0**2 * t)
            ratio = math.exp(-base * (2 * m0 + 1) * t)
        else:
            full = n - 1 if self.boundary == DIRICHLET else n
            if self.axis_mode_count >= full:
                k0 = n  # first continuum mode beyond the grid's resolution
            else:
                k0 = int(self._axis_mode_numbers[-1]) + 1
            base = (np.pi / L) ** 2
            lead = math.exp(-base * k0**2 * t)
            ratio = math.exp(-base * (2 * k0 + 1) * t)
        if ratio >= 1.0:
            return math.inf
        return lead / (1.0 - ratio)

    def heat_kernel_tail_bound(self, t: float) -> float:
        """Bound on |G(t,x,y) - G_N(t,x,y)| from the dropped modes.

        Uses |e_k(x) e_k(y)| <= 2/L per axis and a geometric bound on the
        dropped per-axis exponential sums.
        """
        if t <= 0:
            raise ValueError("heat kernel tail requires t > 0")
        two_over_L = 2.0 / self.length
        retained = two_over_L * float(np.sum(self.axis_decay(t)))
        tail = two_over_L * self._axis_tail_sum(t)
        full = (retained + tail) ** self.dimension
        return full - retained**self.dimension

    def heat_kernel(self, t: float, x, y) -> float:
        """Truncated eigenexpansion G_N(t,x,y), exact tensor factorisation."""
        if t <= 0:
            raise ValueError("heat kernel requires t > 0 (series diverges at t=0)")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if x.shape != (self.dimension,) or y.shape != (self.dimension,):
            raise ValueError("points must match the domain dimension")
        decay = self.axis_decay(t)
        val = 1.0
        for i in range(self.dimension):
            fx = self._axis_eigenfunction_column(x[i])
            fy = self._axis_eigenfunction_column(y[i])
            val *= float(np.sum(decay * fx * fy))
        return val

    def _axis_eigenfunction_column(self, xi: float) -> np.ndarray:
        """All per-axis factors psi_k(xi) as a vector of length axis_mode_count."""
        L = self.length
        if self.boundary == DIRICHLET:
            return math.sqrt(2.0 / L) * np.sin(self.axis_wavenumbers * xi)
        if self.boundary == NEUMANN:
            out = math.sqrt(2.0 / L) * np.cos(self.axis_wavenumbers * xi)
            out[0] = 1.0 / math.sqrt(L)
            return out
        n = self.spec.grid_points
        m = self.axis_mode_count
        out = np.empty(m)
        out[0] = 1.0 / math.sqrt(L)
        idx = np.arange(1, m)
        freq = (idx + 1) // 2
        arg = 2.0 * np.pi / L * freq * xi
        out[1:] = np.where(
            idx % 2 == 1, math.sqrt(2.0 / L) * np.cos(arg), math.sqrt(2.0 / L) * np.sin(arg)
        )
        if m == n:
            out[n - 1] = (1.0 / math.sqrt(L)) * math.cos(np.pi * n / L * xi)
        return out

    def axis_eigenfunction_grid(self, x=None) -> np.ndarray:
        """Matrix psi_k(x_j) at points x (default the axis grid), shape
        (points, axis modes)."""
        x = self.axis_points if x is None else x
        return np.stack([self.axis_eigenfunction(k, x) for k in self.axis_valid_indices()],
                        axis=1)

    def heat_kernel_diag_max(self, t: float) -> float:
        """sup of G_N(t,x,x) over the grid points and the walls; per-axis
        maxima multiply.  For Neumann the sup sits at the walls, half a cell
        from the nearest grid point."""
        if t <= 0:
            raise ValueError("heat kernel requires t > 0")
        E = self.axis_eigenfunction_grid(np.concatenate([self.axis_points, [0.0, self.length]]))
        axis_diag = (E * E) @ self.axis_decay(t)
        return float(np.max(axis_diag)) ** self.dimension

    def dirichlet_mass(self, t: float, x) -> float:
        """g(t,x) = integral of G(t,x,y) dy, Dirichlet only."""
        if self.boundary != DIRICHLET:
            raise ValueError(
                "dirichlet_mass is identically 1 for periodic/Neumann conditions; "
                "calling it there signals misuse"
            )
        if t <= 0:
            raise ValueError("dirichlet_mass requires t > 0")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dimension,):
            raise ValueError("point must match the domain dimension")
        decay = self.axis_decay(t)
        val = 1.0
        for i in range(self.dimension):
            fx = self._axis_eigenfunction_column(x[i])
            val *= float(np.sum(decay * fx * self._axis_one_coeffs))
        return val

    # -- quadrature -------------------------------------------------------

    def field_sum(self, values: np.ndarray):
        """Sum over the trailing d axes: a float for one field, one value
        per row of a (P, *field) batch."""
        total = np.sum(values, axis=self.field_axes)
        return total if np.ndim(total) else float(total)

    def integrate(self, values: np.ndarray):
        """h^d sum over grid points (trapezoid/midpoint rule for this grid),
        per row of a batch."""
        return self.cell_volume * self.field_sum(values)

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        return float(self.cell_volume * np.sum(f * g))

    def grid_coordinates(self):
        """Tuple of d coordinate arrays (meshgrid, ij indexing)."""
        axes = (self.axis_points,) * self.dimension
        return np.meshgrid(*axes, indexing="ij")

    def center_point(self) -> np.ndarray:
        return np.full(self.dimension, self.length / 2.0)


def build_basis(spec: DomainSpec) -> SpectralBasis:
    """Construct the eigenbasis for a domain spec."""
    return SpectralBasis(spec)


def loglog_slope(x: np.ndarray, y: np.ndarray):
    """Least-squares slope/intercept/rms residual of log y vs log x."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(slope), float(intercept), rms


def heat_kernel_decay_fit(basis: SpectralBasis, t_grid=None):
    """Fit sup_x G(t,x,x) ~ C t^(-beta) over a small-t grid.

    Returns (slope, C_fit, rms_residual); slope should be close to -d/2.
    """
    if t_grid is None:
        t_grid = np.logspace(-4, -2, 17)
    t_grid = np.asarray(t_grid, dtype=float)
    vals = np.array([basis.heat_kernel_diag_max(t) for t in t_grid])
    slope, intercept, rms = loglog_slope(t_grid, vals)
    return slope, float(np.exp(intercept)), rms
