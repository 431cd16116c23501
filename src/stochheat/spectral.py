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

Everything a boundary condition decides lives in one axis class per
condition, ``_SineAxis`` (Dirichlet), ``_CosineAxis`` (Neumann) and
``_FourierAxis`` (periodic), picked once by ``_AXES``: the grid points, the
public mode numbers and wavenumbers, the one eigenfunction evaluator
psi_k(x), the integrals <1, psi_k>, the tail-sum bound, one transform pair
(analysis to a half spectrum, synthesis back) and one packing table, which
says which real or imaginary part of that spectrum carries each
coefficient and with which forward and inverse scale.  ``_Axis`` writes the
last-axis forward and inverse transforms and the heat flow once, from the
pair and the table.  ``SpectralBasis`` is their tensor product: it applies
the axis along each field axis and builds the eigenvalue tensor, heat
kernel and quadrature from per-axis factors, with no knowledge of the
boundary condition.

The transform pairs are numpy real FFTs, one axis at a time:

* Dirichlet: the ``rfft`` of the odd extension (0, x, 0, -x reversed) to
  2n points, whose imaginary part is the DST-I; this is the algorithm of
  scipy's DST-I, and the forward transform's values are bit for bit the
  same.  The synthesis is the ``irfft`` back to 2n points, read at the
  interior points.
* Neumann: DCT-II and DCT-III by Makhoul's reordering (IEEE Trans. Acoust.
  Speech Signal Process. 28, 1980): the even entries, then the odd ones
  reversed, an ``rfft`` of n points and the twiddle exp(-i pi k/2n).
* periodic: a plain ``rfft``/``irfft``.

Every field transform runs through one of two cores.
``SpectralBasis._along_field_axes`` applies a line transform of the axis to
each field axis in turn: ``forward`` for ``to_spectral``, ``inverse`` for
``to_grid`` and ``flow`` for ``heat_flow`` on a larger grid.  The flow
scales the analysis mode by mode (zero beyond the cutoff, which is the
projection) and synthesizes, with no coefficient array in between, so
``heat_flow`` equals to_spectral -> semigroup -> to_grid at round-off.
``axis_products`` multiplies the values along each field axis in turn by a
matrix: the last axis through ``matmul_lines``, in products of
``_DENSE_LINES`` lines with the last block zero-padded, and a leading one
as the matrix's transpose times one row, or one slab of a row, per
product.  Small sizes run on matrices:

* an axis of at most ``_DENSE_POINTS`` points inverts with one cached
  (modes x points) synthesis matrix by ``matmul_lines``, the fast inverse
  of each unit coefficient vector;
* a grid whose flow products stay within ``_DENSE_PRODUCT`` multiply-adds
  (axes of up to 64 points in 1-d and 2-d, up to 16 in 3-d) flows by
  ``axis_products`` with one (points x points) flow matrix per time step,
  the fast flow of the identity, cached for the last time: the last field
  axis first, then the others, first first;
* the Riesz sampler of ``noise`` runs its transforms on a small 3-d torus
  by ``axis_products`` too.

Every line goes through calls of one shape, so its values do not depend on
its batch or its position in it, and they equal the FFT inverse and flow
at round-off, with bits that depend on the BLAS build.  Every transform
returns a new C-contiguous array, so a row's sums do not depend on the
batch it came in, and its buffers are kept per thread and reused between
calls.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
NEUMANN = "neumann"
DIRICHLET = "dirichlet"

# values per block of lines in a 2n-point transform workspace (512 kB): a
# (2048, 63) DST-I ran about 25% faster in blocks of 256 or 512 lines than
# whole
_BLOCK_VALUES = 2**16

# an axis of at most _DENSE_POINTS grid points inverts with its synthesis
# matrix, _DENSE_LINES lines per matrix product, so every line goes through
# one call of one shape.  On 2 vCPUs with OpenBLAS 0.3.31, 2048 lines took
# 0.55-0.65 ms against 1.2-2.1 ms by FFT at 63 and 64 points, on one thread;
# at 128 points the products still won on wall time (2.6 against 2.7-3.1
# ms), but OpenBLAS threads each 64-line product there (2x the CPU time for
# 60 against 70 us), which would take the core of the draw helper
_DENSE_POINTS = 64
_DENSE_LINES = 64

# the heat flow runs as products with its flow matrix while none of them
# exceeds _DENSE_PRODUCT multiply-adds, 64 lines of 64 points, the size up
# to which those products ran on one thread: axes of up to 64 points in 1-d
# and 2-d, up to 16 in 3-d.  On the machine above the heat flow of 50
# fields at 8^3 took 0.10 against 1.05 ms by FFT.  At 32^3 the whole-row
# product (32 x 32 by 32 x 1024) is threaded, and a riesz_3d.conf ensemble
# of 4 paths for 100 steps ran 72-76 path-steps/s and 10.2-10.8 s of CPU
# against 82-95 and 6.6-7.3 s by FFT; at 64^3 (1 path, 20 steps) wall time
# was even and CPU 3.9-4.3 against 3.0-3.3 s
_DENSE_PRODUCT = 64**3


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def matmul_lines(lines: np.ndarray, matrix: np.ndarray, out: np.ndarray, workspace, key):
    """``out = lines @ matrix`` on the last axis, for lines of any leading
    shape into a C-contiguous ``out``: one product per block of
    ``_DENSE_LINES`` lines, the last block zero-padded in the ``key`` buffer
    of ``workspace``.  Every line goes through one call shape, so its values
    do not depend on its batch or its position in it."""
    k, n = matrix.shape
    lines = np.ascontiguousarray(lines).reshape(-1, k)
    out = out.reshape(-1, n)
    full = len(lines) - len(lines) % _DENSE_LINES
    # a stack of blocks is one matmul call, one product per block
    np.matmul(lines[:full].reshape(-1, _DENSE_LINES, k), matrix,
              out=out[:full].reshape(-1, _DENSE_LINES, n))
    if full < len(lines):
        block = workspace(key, (_DENSE_LINES, k), lines.dtype)
        block[:len(lines) - full] = lines[full:]
        block[len(lines) - full:] = 0
        out[full:] = np.matmul(block, matrix)[:len(lines) - full]


def axis_products(x: np.ndarray, passes, out: np.ndarray, workspace, keys) -> np.ndarray:
    """``x`` times the matrix of each (axis, matrix) of ``passes`` in turn,
    into ``out``: the values along field axis ``axis`` (negative, counted
    from the end) times the (k, n) ``matrix``.  The last axis goes through
    ``matmul_lines``, with its padded block in the "dense lines" workspace;
    a leading axis is the matrix's transpose times one slab of the array
    per product, so a row's values do not depend on its batch.  The last
    pass writes ``out``, and the ones before it alternate, back from it,
    between the workspaces of ``keys[1]`` and ``keys[0]``, where a key of
    None is ``out`` itself."""
    last = len(passes) - 1
    for i, (axis, matrix) in enumerate(passes):
        k, n = matrix.shape
        key = keys[(last - i) % 2]
        if i == last or key is None:
            y = out
        else:
            y = workspace(key, x.shape[:axis] + (n,) + x.shape[x.ndim + axis + 1:])
        if axis == -1:
            matmul_lines(x, matrix, y, workspace, "dense lines")
        else:
            stack = math.prod(x.shape[:axis])
            np.matmul(matrix.T, x.reshape(stack, k, -1), out=y.reshape(stack, n, -1))
        x = y
    return out


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


# -- one axis per boundary condition ---------------------------------------


class _Axis:
    """One axis [0, L] of n cells under one boundary condition.

    A subclass sets the grid ``points``, the public ``mode_numbers`` of the
    retained modes and their ``wavenumbers``, one transform pair on the last
    axis of values in ``flow_parts`` order, ``analysis(v) -> T`` to a half
    spectrum of ``spectrum_length`` complex entries and ``synthesis(T, v)``
    (which may overwrite T), and its packing table ``runs`` of (coefficient
    slice, slice of T's float view, forward scale, inverse scale).  A
    forward scale of None marks a coefficient that another run reads.  From
    these ``_Axis`` writes the reorder into flow order and back once each
    (``_analyze``, ``_synthesize``), and with them ``forward``,
    ``fft_inverse`` and ``flow``: the last axis of an array of any strides
    in grid order into a C-contiguous ``out`` in grid order.  ``inverse`` is
    ``fft_inverse`` or, on a small axis, a product with the
    ``synthesis_matrix``; ``flow_matrix`` is the flow of the identity.  The
    defaults of ``one_coeffs`` (a constant mode 0) and ``_tail_terms``
    (wavenumbers k pi / L) serve two of the three boundary conditions."""

    # (flow index, grid index) of each part of the axis; grid order unless
    # a subclass says otherwise
    flow_parts = ((slice(None), slice(None)),)

    def __init__(self, n: int, L: float):
        self.n, self.L, self.h = n, L, L / n
        self.workspace = Workspaces()

    @staticmethod
    def point_count(n: int) -> int:
        """The number of grid points of an axis of n cells."""
        return n

    def _phases(self, x) -> np.ndarray:
        """kappa_k x for every retained k, shape x.shape + (modes,)."""
        return np.multiply.outer(np.asarray(x, dtype=float), self.wavenumbers)

    def one_coeffs(self) -> np.ndarray:
        """<1, psi_k>, exact integrals: sqrt(L) for the constant mode 0,
        zero for the cosines and sines, which integrate to zero."""
        out = np.zeros(len(self.mode_numbers))
        out[0] = math.sqrt(self.L)
        return out

    def tail_sum(self, t: float) -> float:
        """Geometric-domination bound on the sum over dropped modes of
        e^{-kappa^2 t}: the first dropped term ``lead`` and a ratio bound
        between successive terms, from ``_tail_terms``."""
        lead, ratio = self._tail_terms(t)
        if ratio >= 1.0:
            return math.inf
        return lead / (1.0 - ratio)

    def _tail_terms(self, t: float):
        # wavenumbers k pi / L: the first dropped mode follows the last
        # retained one; with every grid mode retained it is k = n, the first
        # continuum mode beyond the grid's resolution
        k0 = int(self.mode_numbers[-1]) + 1
        base = (np.pi / self.L) ** 2
        return math.exp(-base * k0**2 * t), math.exp(-base * (2 * k0 + 1) * t)

    def _spectrum(self, lead) -> np.ndarray:
        """The half-spectrum workspace for lines of leading shape ``lead``."""
        return self.workspace("spectrum", lead + (self.spectrum_length,), complex)

    def _analyze(self, x: np.ndarray) -> np.ndarray:
        """The half spectrum of values ``x`` in grid order, of any strides:
        the analysis of x put in flow order."""
        if len(self.flow_parts) > 1:
            v = self.workspace("reordered", x.shape)
            for flow, grid in self.flow_parts:
                v[..., flow] = x[..., grid]
            x = v
        return self.analysis(x)

    def _synthesize(self, T: np.ndarray, out: np.ndarray):
        """The synthesis of the half spectrum ``T`` (which it may overwrite)
        put back in grid order, into ``out``."""
        if len(self.flow_parts) == 1:
            self.synthesis(T, out)
            return
        v = self.workspace("reordered", out.shape)
        self.synthesis(T, v)
        for flow, grid in self.flow_parts:
            out[..., grid] = v[..., flow]

    def forward(self, x: np.ndarray, out: np.ndarray):
        F = self._analyze(x).view(float)
        for coeffs, entries, scale, _ in self.runs:
            if scale is not None:
                np.multiply(F[..., entries], scale, out=out[..., coeffs])

    @functools.cached_property
    def synthesis_matrix(self) -> np.ndarray | None:
        """psi_k(x_j) as a (modes, points) matrix, for an axis of at most
        ``_DENSE_POINTS`` points, None for a larger one: the fast inverse of
        each unit coefficient vector, which keeps the matrix at the FFT's
        round-off (sin of the phases k pi x_j / L loses up to 1e-14 at
        k x_j ~ 200)."""
        if len(self.points) > _DENSE_POINTS:
            return None
        M = np.empty((len(self.mode_numbers), len(self.points)))
        self.fft_inverse(np.eye(len(self.mode_numbers)), M)
        return M

    def inverse(self, c: np.ndarray, out: np.ndarray):
        if self.synthesis_matrix is None:
            self.fft_inverse(c, out)
        else:
            matmul_lines(c, self.synthesis_matrix, out, self.workspace, "dense lines")

    def fft_inverse(self, c: np.ndarray, out: np.ndarray):
        """The inverse by the axis's transform pair and packing table."""
        T = self._spectrum(c.shape[:-1])
        T.fill(0)
        F = T.view(float)
        for coeffs, entries, _, scale in self.runs:
            np.multiply(c[..., coeffs], scale, out=F[..., entries])
        self._synthesize(T, out)

    def flow(self, x: np.ndarray, out: np.ndarray, scales: np.ndarray):
        """The spectrum of values ``x`` scaled by ``scales`` and transformed
        back into ``out``."""
        T = self._analyze(x)
        F = T.view(float)
        F *= scales
        self._synthesize(T, out)

    def flow_scales(self, decay: np.ndarray) -> np.ndarray:
        """Scales of the flow's spectrum: the ``decay`` exp(-kappa_k^2 t) of
        the coefficient each entry carries, zero beyond the cutoff, which
        is the projection."""
        scales = np.zeros(2 * self.spectrum_length)
        for coeffs, entries, _, _ in self.runs:
            scales[entries] = decay[coeffs]
        return scales

    def flow_matrix(self, scales: np.ndarray) -> np.ndarray:
        """The flow by ``scales`` as a (points, points) matrix, whose row i
        is the fast flow of the i-th unit vector, as the synthesis matrix is
        built: values flow as ``values @ matrix``."""
        matrix = np.empty((len(self.points),) * 2)
        self.flow(np.eye(len(self.points)), matrix, scales)
        return matrix


class _SineAxis(_Axis):
    """Dirichlet: psi_k = sqrt(2/L) sin(k pi x / L), k = 1..n-1, on the
    interior points j h; the transform is DST-I."""

    @staticmethod
    def point_count(n: int) -> int:
        return n - 1

    def __init__(self, n: int, modes: int, L: float):
        super().__init__(n, L)
        self.points = self.h * np.arange(1, n)
        # mode numbers k = 1..m, wavenumber k pi / L
        m = min(modes, n - 1)
        self.mode_numbers = np.arange(1, m + 1)
        self.wavenumbers = self.mode_numbers * (np.pi / L)
        # the odd extension's spectrum F is imaginary: c_{k-1} = -(h sqrt(2/L)
        # / 2) Im F_k, since DST-I(x)_{k-1} = -Im F_k, and the irfft of
        # Im F_k = -n sqrt(2/L) c_{k-1} is the odd extension of the values
        self.spectrum_length = n + 1
        self.runs = ((slice(0, m), slice(3, 2 * m + 2, 2),
                      -self.h * math.sqrt(2.0 / L) / 2.0, -n * math.sqrt(2.0 / L)),)

    def eigenfunctions(self, x) -> np.ndarray:
        return math.sqrt(2.0 / self.L) * np.sin(self._phases(x))

    def one_coeffs(self) -> np.ndarray:
        k = self.mode_numbers
        out = np.zeros(len(k))
        odd = k % 2 == 1
        out[odd] = math.sqrt(2.0 / self.L) * 2.0 * self.L / (np.pi * k[odd])
        return out

    def analysis(self, x: np.ndarray) -> np.ndarray:
        """rfft of the odd extension (0, x, 0, -x reversed) to 2n points:
        its imaginary part at 1..n-1 is -DST-I(x), bit for bit what scipy's
        DST-I gives."""
        n, lead = self.n, x.shape[:-1]
        ext = self.workspace("odd", lead + (2 * n,))
        ext[..., 1:n] = x
        np.negative(x, out=ext[..., :n:-1])
        return np.fft.rfft(ext, out=self._spectrum(lead))

    def synthesis(self, T: np.ndarray, v: np.ndarray):
        """irfft to 2n points, read back at the interior points 1..n-1."""
        n = self.n
        ext = np.fft.irfft(T, 2 * n, out=self.workspace("odd synthesis", v.shape[:-1] + (2 * n,)))
        v[...] = ext[..., 1:n]


class _CosineAxis(_Axis):
    """Neumann: psi_0 = 1/sqrt(L), psi_k = sqrt(2/L) cos(k pi x / L),
    k = 0..n-1, on the cell midpoints (j + 1/2) h; the transforms are
    DCT-II and DCT-III by Makhoul's reordering."""

    def __init__(self, n: int, modes: int, L: float):
        super().__init__(n, L)
        self.points = self.h * (np.arange(n) + 0.5)
        self.mode_numbers = np.arange(modes)
        self.wavenumbers = self.mode_numbers * (np.pi / L)
        half = n // 2
        self._twiddle = np.exp(-0.5j * np.pi * np.arange(half + 1) / n)
        self._twiddle_conj = self._twiddle.conj()
        self.spectrum_length = half + 1
        # Re T_k carries c_k and Im T_k carries c_{n-k}, for T of analysis;
        # c_{n/2} sits in both parts of T_{n/2}, and the forward reads the
        # real part
        base, inverse = self.h * math.sqrt(2.0 / L), n / math.sqrt(2.0 * L)
        low = min(modes, half + 1)
        self.runs = ((slice(0, 1), slice(0, 1), base / math.sqrt(2.0), n / math.sqrt(L)),
                     (slice(1, low), slice(2, 2 * low, 2), base, inverse))
        if modes > half:  # Im T_{n/2}, then Im T_{n/2-1} down to Im T_{n-m+1}
            self.runs += ((slice(half, half + 1), slice(n + 1, n + 2), None, -inverse),
                          (slice(half + 1, modes), slice(n - 1, 2 * (n - modes) + 1, -2),
                           -base, -inverse))
        # the transform pair reads and writes Makhoul's order, the even
        # entries then the odd ones reversed
        self.flow_parts = ((slice(None, half), slice(0, None, 2)),
                           (slice(half, None), slice(None, None, -2)))

    def eigenfunctions(self, x) -> np.ndarray:
        out = math.sqrt(2.0 / self.L) * np.cos(self._phases(x))
        out[..., 0] = 1.0 / math.sqrt(self.L)
        return out

    def analysis(self, v: np.ndarray) -> np.ndarray:
        """Makhoul's DCT-II of x, given in Makhoul's order v (the even
        entries of x, then the odd ones reversed): the rfft of v times the
        twiddle exp(-i pi k / 2n).  Of the result T, DCT-II(x)_k = 2 Re T_k
        and DCT-II(x)_{n-k} = -2 Im T_k."""
        T = np.fft.rfft(v, out=self._spectrum(v.shape[:-1]))
        T *= self._twiddle
        return T

    def synthesis(self, T: np.ndarray, v: np.ndarray):
        """Inverse of analysis, into ``v`` in Makhoul's order (overwrites
        T): the conjugate twiddle and irfft."""
        T *= self._twiddle_conj
        np.fft.irfft(T, self.n, out=v)


class _FourierAxis(_Axis):
    """Periodic: the real Fourier basis in the packing of the module
    docstring, on the points j h; the transform is a real FFT."""

    def __init__(self, n: int, modes: int, L: float):
        super().__init__(n, L)
        self.points = self.h * np.arange(n)
        self.mode_numbers = np.arange(modes)
        self.wavenumbers = (self.mode_numbers + 1) // 2 * (2.0 * np.pi / L)
        self.spectrum_length = n // 2 + 1
        # Re F_0 carries the constant, Re F_m the cosine 2m - 1 and Im F_m
        # the sine 2m: coefficient k sits at float entry k + 1
        top = min(modes, n - 1)
        constant, pair = (math.sqrt(L) / n, n / math.sqrt(L)), math.sqrt(2.0 * L) / n
        self.runs = ((slice(0, 1), slice(0, 1), *constant),
                     (slice(1, top, 2), slice(2, top + 1, 2), pair, n / math.sqrt(2.0 * L)),
                     (slice(2, top, 2), slice(3, top + 1, 2), -pair, -n / math.sqrt(2.0 * L)))
        if modes == n:  # packed index n-1 is the Nyquist cosine, in Re F_{n/2}
            self.wavenumbers[n - 1] = np.pi * n / L
            self.runs += ((slice(n - 1, n), slice(n, n + 1), *constant),)

    def eigenfunctions(self, x) -> np.ndarray:
        L = self.L
        phases = self._phases(x)
        # odd packed indices are cosines, even ones sines
        out = math.sqrt(2.0 / L) * np.where(self.mode_numbers % 2 == 1,
                                            np.cos(phases), np.sin(phases))
        out[..., 0] = 1.0 / math.sqrt(L)
        if len(self.mode_numbers) == self.n:  # Nyquist cosine, grid-orthonormal
            out[..., -1] = (1.0 / math.sqrt(L)) * np.cos(phases[..., -1])
        return out

    def _tail_terms(self, t: float):
        # first dropped frequency, a cosine and a sine; with every grid mode
        # retained it is n/2, whose sine the grid cannot carry
        m0 = (len(self.mode_numbers) + 1) // 2
        base = (2.0 * np.pi / self.L) ** 2
        return 2.0 * math.exp(-base * m0**2 * t), math.exp(-base * (2 * m0 + 1) * t)

    def analysis(self, x: np.ndarray) -> np.ndarray:
        return np.fft.rfft(x, out=self._spectrum(x.shape[:-1]))

    def synthesis(self, T: np.ndarray, v: np.ndarray):
        np.fft.irfft(T, self.n, out=v)


# the axis class of each boundary condition
_AXES = {PERIODIC: _FourierAxis, NEUMANN: _CosineAxis, DIRICHLET: _SineAxis}
BOUNDARY_CONDITIONS = tuple(_AXES)


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
        if self.boundary not in _AXES:
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
        # an infinite box has no grid spacing, and nan fails every comparison
        if not 0 < self.length < math.inf:
            raise ValueError(f"length must be positive and finite, got {self.length!r}")

    @property
    def axis_shape(self) -> tuple:
        """(grid points, retained modes) per axis, as the basis has them,
        without building it."""
        points = _AXES[self.boundary].point_count(self.grid_points)
        return points, min(self.modes, points)


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
        d = spec.dimension
        self.dimension = d
        self.length = spec.length
        self.boundary = spec.boundary
        self._axis = axis = _AXES[spec.boundary](spec.grid_points, spec.modes, spec.length)
        self.h = axis.h
        self.axis_points = axis.points
        points, self.axis_mode_count = spec.axis_shape
        self.axis_eigenvalues = axis.wavenumbers**2
        self.grid_shape = (points,) * d
        self.coeff_shape = (self.axis_mode_count,) * d
        self.cell_volume = self.h**d
        # the trailing d axes of a field (grid, coefficients), batched or not
        self.field_axes = tuple(range(-d, 0))
        # per-axis integrals <1, psi_k>, used by dirichlet_mass and the
        # spectral-kernel double integral
        self.axis_one_coeffs = axis.one_coeffs()
        # the heat flow multiplies by the flow matrix when its largest
        # product, blocks of lines or a whole row on the first field axis,
        # stays within _DENSE_PRODUCT multiply-adds
        g = len(axis.points)
        self._dense_flow_on = max(_DENSE_LINES, g ** (d - 1)) * g * g <= _DENSE_PRODUCT
        # (t, flow) of the last heat_flow time: the spectrum's scales, or
        # under the dense flow the flow matrix
        self._flow_cache = (None, None)

    # -- eigendata -----------------------------------------------------

    def axis_valid_indices(self):
        """Valid per-axis public mode indices (Dirichlet is 1-based)."""
        return self._axis.mode_numbers

    def axis_index(self, k: int) -> int:
        """Position of public mode index k along a coefficient axis; raises
        IndexError for a mode that is not retained."""
        first, last = (int(k) for k in self._axis.mode_numbers[[0, -1]])
        if not first <= k <= last:
            raise IndexError(f"mode number {k} outside {first}..{last}")
        return k - first

    def eigenvalue(self, k) -> float:
        """alpha_k = sum_i kappa_{k_i}^2 for a multi-index k."""
        k = self._as_multi_index(k)
        return float(sum(self.axis_eigenvalues[self.axis_index(ki)] for ki in k))

    def eigenvalue_tensor(self) -> np.ndarray:
        """Full tensor of eigenvalues, shape coeff_shape."""
        d = self.dimension
        out = np.zeros(self.coeff_shape)
        for axis in range(d):
            shape = [1] * d
            shape[axis] = self.axis_mode_count
            out = out + self.axis_eigenvalues.reshape(shape)
        return out

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

    def axis_eigenfunctions(self, x) -> np.ndarray:
        """psi_k(x) for every retained k along one axis, at points x of any
        shape: shape x.shape + (axis_mode_count,), modes in coefficient
        order."""
        return self._axis.eigenfunctions(x)

    def eigenfunction(self, k, x) -> float:
        """e_k(x) for a multi-index k and a point x in the closed box."""
        k = self._as_multi_index(k)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dimension,):
            raise ValueError(f"point must have {self.dimension} coordinates")
        if np.any(x < -1e-12) or np.any(x > self.length + 1e-12):
            raise ValueError("point outside the closed box")
        per_axis = self.axis_eigenfunctions(x)
        return math.prod(float(per_axis[i, self.axis_index(ki)]) for i, ki in enumerate(k))

    def contract(self, weights: np.ndarray, vectors) -> float:
        """sum_k weights_k prod_i vectors[i][k_i]: a tensor of coefficient
        shape contracted against one vector per field axis, first axis
        first."""
        out = weights
        for v in vectors:
            out = np.tensordot(out, v, axes=([0], [0]))
        return float(out)

    # -- transforms ------------------------------------------------------

    def _along_field_axes(self, transform, array, length: int) -> np.ndarray:
        """Apply a last-axis transform ``transform(x, out)`` to each field
        axis, first axis first.

        Each pass moves the next field axis to the end of the previous
        pass's output and writes a new array whose last axis has ``length``
        entries, so the last pass leaves the axes in order.  A pass goes by
        blocks of the leading axis whose lines fill at most
        ``_BLOCK_VALUES`` values of the 2n-point workspaces, which keeps
        those in cache; every line is transformed alone, so the blocks do
        not change any value."""
        out = np.asarray(array, dtype=float)
        for _ in range(self.dimension):
            x = np.moveaxis(out, -self.dimension, -1)
            out = np.empty(x.shape[:-1] + (length,))
            if x.ndim == 1:
                transform(x, out)
                continue
            rows = max(1, _BLOCK_VALUES // (2 * self.spec.grid_points * math.prod(x.shape[1:-1])))
            for start in range(0, len(x), rows):
                transform(x[start:start + rows], out[start:start + rows])
        return out

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Grid values -> coefficients c_k = <f, e_k> under h^d quadrature."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.grid_shape:
            raise ValueError(
                f"grid shape {values.shape} does not match basis grid {self.grid_shape}"
            )
        return self._along_field_axes(self._axis.forward, values, self.axis_mode_count)

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients -> grid values sum_k c_k e_k(x_j)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != self.coeff_shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match basis {self.coeff_shape}"
            )
        return self._along_field_axes(self._axis.inverse, coeffs, self.grid_shape[0])

    def to_grid_batch(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform applied to the trailing d axes of a batch."""
        return self._along_field_axes(self._axis.inverse, coeffs, self.grid_shape[0])

    def to_spectral_batch(self, values: np.ndarray) -> np.ndarray:
        """Forward transform applied to the trailing d axes of a batch."""
        return self._along_field_axes(self._axis.forward, values, self.axis_mode_count)

    def heat_flow(self, values: np.ndarray, t: float) -> np.ndarray:
        """S(t) on grid values: ``to_grid(semigroup(to_spectral(values), t))``
        of one field or of each row of a (P, *grid) batch, equal at
        round-off, with no coefficient array in between.  Per axis, the
        forward spectrum is scaled mode by mode and transformed back
        (``_Axis.flow``), or on a grid whose products stay within
        ``_DENSE_PRODUCT`` the values are multiplied by the flow matrix
        (``axis_products``); modes beyond the cutoff are projected out, at
        t = 0 too."""
        if t < 0:
            raise ValueError(f"heat flow time must be >= 0, got {t}")
        values = np.asarray(values, dtype=float)
        if values.shape[values.ndim - self.dimension:] != self.grid_shape:
            raise ValueError(
                f"grid shape {values.shape} does not end in the basis grid {self.grid_shape}"
            )
        cached_t, flow = self._flow_cache
        if cached_t != t:
            flow = self._axis.flow_scales(self.axis_decay(t))
            if self._dense_flow_on:
                flow = self._axis.flow_matrix(flow)
            self._flow_cache = (t, flow)
        if not self._dense_flow_on:
            return self._along_field_axes(lambda x, out: self._axis.flow(x, out, flow),
                                          values, self.grid_shape[0])
        # the last field axis, then the others, first first, alternating
        # between out and one workspace
        passes = [(-1, flow)] + [(axis, flow) for axis in self.field_axes[:-1]]
        return axis_products(values, passes, np.empty(values.shape), self._axis.workspace,
                             (None, "flow"))

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

    def heat_kernel_tail_bound(self, t: float) -> float:
        """Bound on |G(t,x,y) - G_N(t,x,y)| from the dropped modes.

        Uses |e_k(x) e_k(y)| <= 2/L per axis and a geometric bound on the
        dropped per-axis exponential sums.
        """
        if t <= 0:
            raise ValueError("heat kernel tail requires t > 0")
        two_over_L = 2.0 / self.length
        retained = two_over_L * float(np.sum(self.axis_decay(t)))
        tail = two_over_L * self._axis.tail_sum(t)
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
        per_axis = self.axis_decay(t) * self.axis_eigenfunctions(x) * self.axis_eigenfunctions(y)
        return math.prod(np.sum(per_axis, axis=-1).tolist())

    def heat_kernel_diag_max(self, t: float) -> float:
        """sup of G_N(t,x,x) over the grid points and the walls; per-axis
        maxima multiply.  For Neumann the sup sits at the walls, half a cell
        from the nearest grid point."""
        if t <= 0:
            raise ValueError("heat kernel requires t > 0")
        E = self.axis_eigenfunctions(np.concatenate([self.axis_points, [0.0, self.length]]))
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
        per_axis = self.axis_decay(t) * self.axis_eigenfunctions(x) * self.axis_one_coeffs
        return math.prod(np.sum(per_axis, axis=-1).tolist())

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
