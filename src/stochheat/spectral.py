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

The transforms are numpy real FFTs, one axis at a time:

* DST-I (Dirichlet) is the imaginary part of the ``rfft`` of the odd
  extension (0, x, 0, -x reversed) to 2n points; this is the algorithm of
  scipy's DST-I, and its values are bit for bit the same.
* DCT-II and DCT-III (Neumann) use Makhoul's reordering (IEEE Trans.
  Acoust. Speech Signal Process. 28, 1980): the even entries, then the odd
  ones reversed, an ``rfft`` of n points and the twiddle exp(-i pi k/2n).
* periodic fields take a plain ``rfft``/``irfft``.

``heat_flow`` fuses to_spectral -> semigroup -> to_grid: per axis it
scales the forward spectrum mode by mode (zero beyond the cutoff, which is
the projection) and transforms back, with no coefficient array in between;
the result equals the three calls at round-off.  Every transform returns a
new C-contiguous array, so a row's sums do not depend on the batch it came
in, and its buffers are kept per thread and reused between calls.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
NEUMANN = "neumann"
DIRICHLET = "dirichlet"
BOUNDARY_CONDITIONS = (PERIODIC, NEUMANN, DIRICHLET)

# values per block of lines in a 2n-point transform workspace (512 kB): a
# (2048, 63) DST-I ran about 25% faster in blocks of 256 or 512 lines than
# whole, and a 8^3 x 50 heat flow stays one block
_BLOCK_VALUES = 2**16


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Workspaces:
    """Buffers of the calling thread, by key, reused from call to call.

    ``workspaces(key, shape, dtype)`` is a C-contiguous array of ``shape``
    and ``dtype`` at the start of the key's buffer, which grows as needed,
    so one key can serve arrays of several shapes and dtypes in turn.  A new
    buffer is zeroed, and a key that always writes the same entries of each
    row leaves the other entries zero."""

    def __init__(self):
        self._buffers = {}  # thread id -> {key: flat byte buffer}

    def __call__(self, key, shape, dtype=float) -> np.ndarray:
        buffers = self._buffers.setdefault(threading.get_ident(), {})
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buf = buffers.get(key)
        if buf is None or buf.size < size:
            buf = buffers[key] = np.zeros(size, np.uint8)
        return buf[:size].view(dtype).reshape(shape)


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
        self._workspace = Workspaces()
        self._build_transform_tables()

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
    #
    # _forward, _inverse and _sine_flow act on the last axis of an array of
    # any strides and write a C-contiguous output; _along_field_axes applies
    # them to each field axis in turn.  _flow_in_place works in place.

    def _build_transform_tables(self):
        n, L, h = self.spec.grid_points, self.length, self.h
        half = n // 2
        if self.boundary == DIRICHLET:
            # sine coefficients c = s DST-I(values), values = r DST-I(c)
            self._sine_scales = (h * math.sqrt(2.0 / L) / 2.0, math.sqrt(2.0 / L) / 2.0)
        elif self.boundary == NEUMANN:
            k = np.arange(half + 1)
            self._twiddle = np.exp(-0.5j * np.pi * k / n)
            self._twiddle_conj = self._twiddle.conj()
            base = h * math.sqrt(2.0 / L)
            # c_k = _cosine_forward[k] Re T_k and c_{n-k} = -base Im T_k,
            # for T of _cosine_spectrum
            self._cosine_forward = np.full(half + 1, base)
            self._cosine_forward[0] = base / math.sqrt(2.0)
            # T_k = _cosine_inverse[k] c_k - i (n/sqrt(2L)) c_{n-k}, as the
            # argument of _cosine_synthesis, gives the grid values
            self._cosine_inverse = np.full(half + 1, n / math.sqrt(2.0 * L))
            self._cosine_inverse[0] = n / math.sqrt(L)
            # (Makhoul index, grid index) of each part of a field: per axis
            # the first half holds the even entries, the second the odd ones
            # reversed
            parts = ((slice(None, half), slice(0, None, 2)),
                     (slice(half, None), slice(None, None, -2)))
            self._makhoul_parts = [
                tuple((Ellipsis,) + tuple(p[i] for p in combo) for i in (0, 1))
                for combo in itertools.product(parts, repeat=self.dimension)]
        self._flow_cache = (None, None)  # (t, scales) of the last heat_flow time

    def _odd_spectrum(self, x: np.ndarray) -> np.ndarray:
        """rfft of the odd extension (0, x, 0, -x reversed) to 2n points,
        x zero-padded to n - 1: its imaginary part at 1..n-1 is -DST-I(x),
        bit for bit what scipy's DST-I gives."""
        n = self.spec.grid_points
        filled = x.shape[-1]
        lead = x.shape[:-1]
        ext = self._workspace(("odd", filled), lead + (2 * n,))
        ext[..., 1:filled + 1] = x
        np.negative(x, out=ext[..., 2 * n - 1:2 * n - filled - 1:-1])
        return np.fft.rfft(ext, out=self._workspace("spectrum", lead + (n + 1,), complex))

    def _cosine_spectrum(self, x: np.ndarray) -> np.ndarray:
        """Makhoul's DCT-II: the even entries of x then the odd ones
        reversed, their rfft, times the twiddle exp(-i pi k / 2n).  Of the
        result T, DCT-II(x)_k = 2 Re T_k and DCT-II(x)_{n-k} = -2 Im T_k."""
        n = self.spec.grid_points
        half = n // 2
        lead = x.shape[:-1]
        v = self._workspace("reordered", lead + (n,))
        v[..., :half] = x[..., 0::2]
        v[..., half:] = x[..., ::-2]
        T = np.fft.rfft(v, out=self._workspace("spectrum", lead + (half + 1,), complex))
        T *= self._twiddle
        return T

    def _cosine_synthesis(self, T: np.ndarray, out: np.ndarray):
        """Inverse of _cosine_spectrum, into ``out`` (overwrites T): the
        conjugate twiddle, irfft, and the entries put back in grid order."""
        n = self.spec.grid_points
        half = n // 2
        T *= self._twiddle_conj
        v = np.fft.irfft(T, n, out=self._workspace("reordered", T.shape[:-1] + (n,)))
        out[..., 0::2] = v[..., :half]
        out[..., ::-2] = v[..., half:]

    def _forward(self, x: np.ndarray, out: np.ndarray):
        """Grid values -> the retained coefficients, along the last axis."""
        n, m = self.spec.grid_points, self.axis_mode_count
        half = n // 2
        if self.boundary == DIRICHLET:
            F = self._odd_spectrum(x)
            np.multiply(F.imag[..., 1:m + 1], -self._sine_scales[0], out=out)
        elif self.boundary == NEUMANN:
            T = self._cosine_spectrum(x)
            low = min(m, half + 1)
            np.multiply(T.real[..., :low], self._cosine_forward[:low], out=out[..., :low])
            # c_j for half < j < m sits at T_{n-j}
            np.multiply(T.imag[..., half - 1:n - m:-1], -self._cosine_forward[1],
                        out=out[..., half + 1:])
        else:
            L = self.length
            lead = x.shape[:-1]
            F = np.fft.rfft(x, out=self._workspace("spectrum", lead + (half + 1,), complex))
            c = out if m == n else self._workspace("packed", lead + (n,))
            np.multiply(F.real[..., 0], math.sqrt(L) / n, out=c[..., 0])
            np.multiply(F.real[..., 1:half], math.sqrt(2.0 * L) / n, out=c[..., 1:n - 1:2])
            np.multiply(F.imag[..., 1:half], -math.sqrt(2.0 * L) / n, out=c[..., 2:n - 1:2])
            np.multiply(F.real[..., half], math.sqrt(L) / n, out=c[..., n - 1])
            if m < n:
                out[...] = c[..., :m]

    def _inverse(self, c: np.ndarray, out: np.ndarray):
        """Retained coefficients -> grid values, along the last axis."""
        n, m = self.spec.grid_points, self.axis_mode_count
        half = n // 2
        lead = c.shape[:-1]
        if self.boundary == DIRICHLET:
            F = self._odd_spectrum(c)
            np.multiply(F.imag[..., 1:n], -self._sine_scales[1], out=out)
            return
        T = self._workspace("spectrum", lead + (half + 1,), complex)
        if self.boundary == NEUMANN:
            low = min(m, half + 1)
            np.multiply(c[..., :low], self._cosine_inverse[:low], out=T.real[..., :low])
            T.real[..., low:] = 0.0
            # Im T_k = -(n/sqrt(2L)) c_{n-k} for the retained n - k >= half
            first = max(n - m + 1, 1)
            T.imag[..., :first] = 0.0
            np.multiply(c[..., n - first:half - 1:-1], -self._cosine_inverse[1],
                        out=T.imag[..., first:])
            self._cosine_synthesis(T, out)
            return
        L = self.length
        if m < n:
            padded = self._workspace(("padded", m), lead + (n,))
            padded[..., :m] = c
            c = padded
        T.real[..., 0] = c[..., 0] * n / math.sqrt(L)
        np.multiply(c[..., 1:n - 1:2], n / math.sqrt(2.0 * L), out=T.real[..., 1:half])
        np.multiply(c[..., 2:n - 1:2], -n / math.sqrt(2.0 * L), out=T.imag[..., 1:half])
        T.real[..., half] = c[..., n - 1] * n / math.sqrt(L)
        T.imag[..., 0] = T.imag[..., half] = 0.0
        np.fft.irfft(T, n, out=out)

    def _sine_flow(self, x: np.ndarray, out: np.ndarray, scales: np.ndarray):
        """Grid values -> grid values of the Dirichlet heat flow along the
        last axis: the odd extension's spectrum scaled by ``scales``."""
        n = self.spec.grid_points
        F = self._odd_spectrum(x)
        parts = F.view(float).reshape(F.shape + (2,))  # (real, imaginary) pairs
        parts *= scales
        ext = np.fft.irfft(F, 2 * n, out=self._workspace("odd flow", x.shape[:-1] + (2 * n,)))
        out[...] = ext[..., 1:n]

    def _flow_in_place(self, v: np.ndarray, scales: np.ndarray):
        """The Neumann or periodic heat flow along the last axis of a
        C-contiguous array, in place; Neumann values are in Makhoul's
        order, which the flow keeps."""
        n = self.spec.grid_points
        T = np.fft.rfft(v, out=self._workspace("spectrum", v.shape[:-1] + (n // 2 + 1,), complex))
        if self.boundary == NEUMANN:
            T *= self._twiddle
        parts = T.view(float).reshape(T.shape + (2,))  # (real, imaginary) pairs
        parts *= scales
        if self.boundary == NEUMANN:
            T *= self._twiddle_conj
        np.fft.irfft(T, n, out=v)

    def _heat_flow_scales(self, t: float) -> np.ndarray:
        """Per-axis (real, imaginary) spectrum scales of the heat flow over
        time t: exp(-kappa_k^2 t) on the retained modes, 0 beyond them."""
        cached_t, scales = self._flow_cache
        if cached_t == t:
            return scales
        n = self.spec.grid_points
        half = n // 2
        full = np.zeros(n - 1 if self.boundary == DIRICHLET else n)
        full[:self.axis_mode_count] = self.axis_decay(t)
        if self.boundary == DIRICHLET:
            # the odd extension's spectrum is imaginary: DST-I(x)_{k-1} = -Im F_k
            scales = np.zeros((n + 1, 2))
            scales[1:n, 1] = full
        elif self.boundary == NEUMANN:
            # Re T_k carries coefficient k, Im T_k coefficient n - k
            scales = np.zeros((half + 1, 2))
            scales[:, 0] = full[:half + 1]
            scales[1:, 1] = full[n - 1:half - 1:-1]
        else:
            # Re F_m carries cos (index 2m - 1), Im F_m sin (index 2m)
            scales = np.zeros((half + 1, 2))
            scales[0, 0] = full[0]
            scales[1:half, 0] = full[1:n - 1:2]
            scales[1:half, 1] = full[2:n - 1:2]
            scales[half, 0] = full[n - 1]
        self._flow_cache = (t, scales)
        return scales

    def _by_blocks(self, transform, *arrays):
        """Call ``transform`` on blocks of the leading axis of arrays whose
        last axis is the transformed one.  A block's lines fill at most
        ``_BLOCK_VALUES`` values of the 2n-point workspaces, which keeps
        those in cache; every line is transformed alone, so the blocks do
        not change any value."""
        x = arrays[0]
        if x.ndim == 1:
            transform(*arrays)
            return
        rows = max(1, _BLOCK_VALUES // (2 * self.spec.grid_points * math.prod(x.shape[1:-1])))
        for start in range(0, len(x), rows):
            transform(*(a[start:start + rows] for a in arrays))

    def _along_field_axes(self, transform, array, length: int) -> np.ndarray:
        """Apply a last-axis transform to each field axis, first axis first.

        Each pass moves the next field axis to the end of the previous
        pass's output and writes a new array whose last axis has ``length``
        entries, so the last pass leaves the axes in order."""
        out = np.asarray(array, dtype=float)
        for _ in range(self.dimension):
            x = np.moveaxis(out, -self.dimension, -1)
            out = np.empty(x.shape[:-1] + (length,))
            self._by_blocks(transform, x, out)
        return out

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Grid values -> coefficients c_k = <f, e_k> under h^d quadrature."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.grid_shape:
            raise ValueError(
                f"grid shape {values.shape} does not match basis grid {self.grid_shape}"
            )
        return self._along_field_axes(self._forward, values, self.axis_mode_count)

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients -> grid values sum_k c_k e_k(x_j)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != self.coeff_shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match basis {self.coeff_shape}"
            )
        return self._along_field_axes(self._inverse, coeffs, self.grid_shape[0])

    def to_grid_batch(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform applied to the trailing d axes of a batch."""
        return self._along_field_axes(self._inverse, coeffs, self.grid_shape[0])

    def to_spectral_batch(self, values: np.ndarray) -> np.ndarray:
        """Forward transform applied to the trailing d axes of a batch."""
        return self._along_field_axes(self._forward, values, self.axis_mode_count)

    def heat_flow(self, values: np.ndarray, t: float) -> np.ndarray:
        """S(t) on grid values: ``to_grid(semigroup(to_spectral(values), t))``
        of one field or of each row of a (P, *grid) batch, equal at
        round-off, with no coefficient array in between.  Per axis, the
        forward spectrum is scaled mode by mode and transformed back; modes
        beyond the cutoff are projected out, at t = 0 too."""
        if t < 0:
            raise ValueError(f"heat flow time must be >= 0, got {t}")
        values = np.asarray(values, dtype=float)
        if values.shape[values.ndim - self.dimension:] != self.grid_shape:
            raise ValueError(
                f"grid shape {values.shape} does not end in the basis grid {self.grid_shape}"
            )
        scales = self._heat_flow_scales(t)
        if self.boundary == DIRICHLET:
            return self._along_field_axes(lambda x, out: self._sine_flow(x, out, scales),
                                          values, self.grid_shape[0])
        # the flow acts in place along the last axis, and a Neumann field
        # stays in Makhoul's order on every axis until the last pass; each
        # pass but the first copies the next axis to the end
        d = self.dimension
        first = np.moveaxis(values, -d, -1)
        if self.boundary == NEUMANN:
            v = np.empty(first.shape)
            for makhoul, grid in self._makhoul_parts:
                v[makhoul] = first[grid]
        else:
            v = first.copy()
        for j in range(d):
            if j:
                v = np.moveaxis(v, -d, -1).copy()
            self._by_blocks(lambda block: self._flow_in_place(block, scales), v)
        if self.boundary == PERIODIC:
            return v
        out = np.empty(v.shape)
        for makhoul, grid in self._makhoul_parts:
            out[grid] = v[makhoul]
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
