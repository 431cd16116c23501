"""Eigenbasis, transform, semigroup and heat-kernel checks.

Oracles used here are independent of the fast-transform implementation:
a dense eigenfunction-matrix transform at n=16, scipy's DST-I, DCT-II and
DCT-III (a test-only dependency for these transforms), and
method-of-images sums for the 1-d Dirichlet and periodic heat kernels and
the Brownian exit probability.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stochheat import spectral
from stochheat.spectral import (
    BOUNDARY_CONDITIONS,
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    DomainSpec,
    build_basis,
    heat_kernel_decay_fit,
)

PI = math.pi


def closed_form_modes(basis):
    """The public mode indices one axis retains, from the spec."""
    n, N = basis.spec.grid_points, basis.spec.modes
    return range(1, min(N, n - 1) + 1) if basis.boundary == DIRICHLET else range(N)


def closed_form_eigenfunction(basis, k, x):
    """Oracle: psi_k(x) along one axis from the closed forms of the module
    docstring, for a public mode index k."""
    L, n = basis.length, basis.spec.grid_points
    x = np.asarray(x, dtype=float)
    if basis.boundary == DIRICHLET:
        return math.sqrt(2 / L) * np.sin(k * PI * x / L)
    if k == 0:
        return np.full_like(x, 1 / math.sqrt(L))
    if basis.boundary == NEUMANN:
        return math.sqrt(2 / L) * np.cos(k * PI * x / L)
    if k == n - 1:  # the periodic Nyquist cosine, normalised on the grid
        return np.cos(PI * n * x / L) / math.sqrt(L)
    m = (k + 1) // 2
    return math.sqrt(2 / L) * (np.cos if k % 2 else np.sin)(2 * PI * m * x / L)


def closed_form_matrix(basis, x):
    """Oracle: psi_k(x_j) for every retained k, one column per mode."""
    return np.stack([closed_form_eigenfunction(basis, k, x) for k in closed_form_modes(basis)],
                    axis=1)


def dense_transform_matrix(basis):
    """Oracle: matrix of e_k(x_j) columns for one axis, built pointwise
    from the closed forms on the grid of the module docstring."""
    n, h = basis.spec.grid_points, basis.length / basis.spec.grid_points
    j = {DIRICHLET: np.arange(1, n), NEUMANN: np.arange(n) + 0.5, PERIODIC: np.arange(n)}
    return closed_form_matrix(basis, h * j[basis.boundary])


def images_heat_kernel_1d(t, x, y, L=PI, terms=40):
    """Method-of-images 1-d Dirichlet heat kernel for du/dt = u_xx."""
    var = 2.0 * t  # fundamental solution is N(0, 2t)

    def gauss(z):
        return math.exp(-(z**2) / (2 * var)) / math.sqrt(2 * math.pi * var)

    total = 0.0
    for j in range(-terms, terms + 1):
        total += gauss(y - x - 2 * j * L) - gauss(y + x - 2 * j * L)
    return total


def images_exit_mass_1d(t, x, L=PI, terms=40):
    """Oracle: P(Brownian motion with generator d^2/dx^2 stays in (0,L))."""
    from scipy.stats import norm

    sd = math.sqrt(2.0 * t)
    total = 0.0
    for j in range(-terms, terms + 1):
        total += norm.cdf((2 * j * L + L - x) / sd) - norm.cdf((2 * j * L - x) / sd)
        total -= norm.cdf((2 * j * L + L + x) / sd) - norm.cdf((2 * j * L + x) / sd)
    return total


def make_basis(d=1, bc=DIRICHLET, n=32, N=None, L=PI):
    return build_basis(DomainSpec(d, bc, n, N, L))


def scipy_transform(basis, array, inverse=False):
    """Oracle: the sine/cosine transforms of the trailing d axes by
    scipy.fft, scaled to the orthonormal basis, first axis first."""
    import scipy.fft

    h, L, n = basis.h, basis.length, basis.spec.grid_points
    m = basis.axis_mode_count
    full = n - 1 if basis.boundary == DIRICHLET else n
    out = np.asarray(array, dtype=float)
    for axis in basis.field_axes:
        first = [slice(None)] * out.ndim
        first[axis] = slice(0, 1)
        first = tuple(first)
        if not inverse:
            if basis.boundary == DIRICHLET:
                c = (h * math.sqrt(2.0 / L) / 2.0) * scipy.fft.dst(out, 1, axis=axis)
            else:
                c = (h * math.sqrt(2.0 / L) / 2.0) * scipy.fft.dct(out, 2, axis=axis)
                c[first] /= math.sqrt(2.0)
            out = np.take(c, np.arange(m), axis=axis)
            continue
        pad = [(0, 0)] * out.ndim
        pad[axis] = (0, full - m)
        c = np.pad(out, pad)
        if basis.boundary == DIRICHLET:
            out = (math.sqrt(2.0 / L) / 2.0) * scipy.fft.dst(c, 1, axis=axis)
        else:
            z = c * (math.sqrt(2.0 / L) / 2.0)
            z[first] = c[first] / math.sqrt(L)
            out = scipy.fft.dct(z, 3, axis=axis)
    return out


def axis_column(basis, k):
    """psi_k on the axis grid, for a public mode index k."""
    return basis.axis_eigenfunctions(basis.axis_points)[:, basis.axis_index(k)]


def grid_eigenfunction(basis, k):
    """e_k on the grid, as the outer product of its axis factors."""
    out = np.ones(())
    for ki in k:
        out = np.multiply.outer(out, axis_column(basis, ki))
    return out


# a basis of any dimension, boundary, resolution and mode cutoff
any_basis = st.builds(
    lambda d, bc, n, fraction: make_basis(d, bc, n=n, N=max(1, round(fraction * n))),
    st.integers(1, 3), st.sampled_from(BOUNDARY_CONDITIONS), st.sampled_from([8, 16]),
    st.floats(0.0, 1.0))


class TestDomainSpec:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DomainSpec(4, DIRICHLET, 32)
        with pytest.raises(ValueError):
            DomainSpec(1, "robin", 32)
        with pytest.raises(ValueError):
            DomainSpec(1, DIRICHLET, 4)
        with pytest.raises(ValueError):
            DomainSpec(1, DIRICHLET, 24)  # not a power of two
        with pytest.raises(ValueError):
            DomainSpec(1, DIRICHLET, 16, modes=32)
        for length in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="length"):
                DomainSpec(1, NEUMANN, 16, length=length)

    def test_modes_default_to_grid(self):
        spec = DomainSpec(1, NEUMANN, 16)
        assert spec.modes == 16

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN, PERIODIC])
    @pytest.mark.parametrize("modes", [None, 16, 5])
    def test_axis_shape_counts_the_basis_arrays(self, bc, modes):
        # the kernels read the shapes from the spec, without a basis
        spec = DomainSpec(2, bc, 16, modes=modes)
        basis = build_basis(spec)
        assert spec.axis_shape == (len(basis.axis_points), len(basis.axis_valid_indices()))
        assert basis.grid_shape == (spec.axis_shape[0],) * 2
        assert basis.coeff_shape == (spec.axis_shape[1],) * 2


class TestEigenpairs:
    def test_dirichlet_first_mode(self):
        basis = make_basis(1, DIRICHLET)
        assert basis.eigenvalue((1,)) == pytest.approx(1.0)
        assert basis.eigenfunction((1,), [PI / 2]) == pytest.approx(math.sqrt(2 / PI))

    def test_neumann_constant_mode(self):
        basis = make_basis(1, NEUMANN)
        assert basis.eigenvalue((0,)) == pytest.approx(0.0)
        assert basis.eigenfunction((0,), [0.3]) == pytest.approx(1 / math.sqrt(PI))

    def test_neumann_first_cosine_at_zero(self):
        basis = make_basis(1, NEUMANN)
        assert basis.eigenfunction((1,), [0.0]) == pytest.approx(math.sqrt(2 / PI))

    def test_dirichlet_2d_tensor_additivity(self):
        basis = make_basis(2, DIRICHLET, n=16)
        assert basis.eigenvalue((2, 3)) == pytest.approx(13.0)
        assert basis.eigenfunction((1, 1), [PI / 2, PI / 2]) == pytest.approx(2 / PI)

    def test_periodic_eigenvalues_doubled_frequency(self):
        basis = make_basis(1, PERIODIC, n=16)
        # packed index 1 is cos(2x), index 2 is sin(2x): both eigenvalue 4
        assert basis.eigenvalue((1,)) == pytest.approx(4.0)
        assert basis.eigenvalue((2,)) == pytest.approx(4.0)
        assert basis.eigenvalue((3,)) == pytest.approx(16.0)

    def test_index_out_of_range(self):
        basis = make_basis(1, DIRICHLET, n=16)
        with pytest.raises(IndexError):
            basis.eigenvalue((0,))  # Dirichlet modes start at 1
        with pytest.raises(IndexError):
            basis.eigenvalue((16,))

    def test_eigenvalues_sorted_on_demand(self):
        basis = make_basis(2, NEUMANN, n=8)
        ev = np.sort(basis.eigenvalue_tensor().ravel())
        assert ev[0] == 0.0
        assert np.all(np.diff(ev) >= 0)
        assert len(ev) == 64


class TestOrthonormality:
    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_gram_matrix_first_modes(self, bc, d):
        basis = make_basis(d, bc, n=64)
        idx = basis.axis_valid_indices()[:10]
        E = np.stack([axis_column(basis, k) for k in idx])
        gram = basis.h * E @ E.T
        if d == 2:
            # tensor-product Gram is the elementwise product of axis Grams;
            # checking the axis Gram at this tolerance covers the product
            pass
        assert np.max(np.abs(gram - np.eye(len(idx)))) < 1e-8

    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    def test_gram_matrix_2d_explicit(self, bc):
        basis = make_basis(2, bc, n=16)
        idx = basis.axis_valid_indices()
        pairs = [(idx[0], idx[0]), (idx[0], idx[1]), (idx[1], idx[2]), (idx[2], idx[1])]
        fields = []
        for kx, ky in pairs:
            fx = axis_column(basis, kx)
            fy = axis_column(basis, ky)
            fields.append(np.outer(fx, fy))
        for a in range(4):
            for b in range(4):
                expected = 1.0 if a == b else 0.0
                got = basis.cell_volume * np.sum(fields[a] * fields[b])
                assert abs(got - expected) < 1e-8, (pairs[a], pairs[b])


class TestEigenfunctionEvaluator:
    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("modes", [None, 5])
    @pytest.mark.parametrize("L", [PI, 1.3])
    def test_matches_the_closed_forms(self, bc, modes, L):
        # grid points, both walls and an off-grid point; with every mode
        # retained the periodic axis ends in the Nyquist cosine
        basis = make_basis(1, bc, n=16, N=modes, L=L)
        x = np.concatenate([basis.axis_points, [0.0, L, 0.37 * L]])
        got, want = basis.axis_eigenfunctions(x), closed_form_matrix(basis, x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-13
        assert list(basis.axis_valid_indices()) == list(closed_form_modes(basis))

    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    def test_any_shape_of_points(self, bc):
        basis = make_basis(2, bc, n=8)
        x = np.array([[0.1, 0.2], [1.3, 3.0]])
        got = basis.axis_eigenfunctions(x)
        assert got.shape == (2, 2, basis.axis_mode_count)
        assert np.max(np.abs(got[1, 0] - basis.axis_eigenfunctions(1.3))) < 1e-15


class TestTransforms:
    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("modes", [1, 8, 9, 15, 16])
    def test_forward_matches_dense_oracle_n16(self, bc, modes):
        # and to_grid; the cutoffs include both Nyquist corners: Neumann's
        # coefficient n/2, carried by both parts of one spectrum entry, and
        # the periodic Nyquist cosine n - 1
        basis = make_basis(1, bc, n=16, N=modes)
        rng = np.random.default_rng(10)
        f = rng.normal(size=basis.grid_shape)
        c = rng.normal(size=basis.coeff_shape)
        E = dense_transform_matrix(basis)  # (points, modes)
        assert np.max(np.abs(basis.to_spectral(f) - basis.h * E.T @ f)) < 1e-12
        assert np.max(np.abs(basis.to_grid(c) - E @ c)) < 1e-12

    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_roundtrip_identity(self, bc, d):
        basis = make_basis(d, bc, n=16)
        rng = np.random.default_rng(11)
        f = rng.normal(size=basis.grid_shape)
        back = basis.to_grid(basis.to_spectral(f))
        scale = np.max(np.abs(f))
        assert np.max(np.abs(back - f)) < 1e-10 * scale

    def test_roundtrip_identity_3d(self):
        basis = make_basis(3, NEUMANN, n=8)
        rng = np.random.default_rng(12)
        f = rng.normal(size=basis.grid_shape)
        back = basis.to_grid(basis.to_spectral(f))
        assert np.max(np.abs(back - f)) < 1e-10

    def test_banded_roundtrip_with_cutoff(self):
        # with N < n the round trip is identity on fields supported on the
        # retained modes
        spec = DomainSpec(1, DIRICHLET, 32, modes=8)
        basis = build_basis(spec)
        rng = np.random.default_rng(13)
        c = rng.normal(size=basis.coeff_shape)
        f = basis.to_grid(c)
        c2 = basis.to_spectral(f)
        assert np.max(np.abs(c2 - c)) < 1e-10

    def test_constant_field_neumann_hits_zero_mode(self):
        basis = make_basis(2, NEUMANN, n=16)
        f = np.ones(basis.grid_shape)
        c = basis.to_spectral(f)
        # <1, e_0> = sqrt(pi) per axis
        assert c[0, 0] == pytest.approx(PI)
        mask = np.ones_like(c, dtype=bool)
        mask[0, 0] = False
        assert np.max(np.abs(c[mask])) < 1e-10

    def test_sampled_eigenfunction_gives_unit_coefficient(self):
        basis = make_basis(1, DIRICHLET, n=32)
        f = axis_column(basis, 1)
        c = basis.to_spectral(f)
        assert c[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(c[1:])) < 1e-10

    def test_shape_mismatch_raises(self):
        basis = make_basis(1, DIRICHLET, n=16)
        with pytest.raises(ValueError):
            basis.to_spectral(np.zeros(16))  # Dirichlet grid has 15 points
        with pytest.raises(ValueError):
            basis.to_grid(np.zeros(16))

    @settings(max_examples=60, deadline=None)
    @given(basis=any_basis, seed=st.integers(0, 2**31 - 1))
    def test_roundtrip_property(self, basis, seed):
        rng = np.random.default_rng(seed)
        # coefficients survive the trip to the grid and back at any cutoff
        c = rng.normal(size=basis.coeff_shape)
        u = basis.to_grid(c)
        back = basis.to_spectral(u)
        assert np.max(np.abs(back - c)) < 1e-12 * np.max(np.abs(c))
        # the retained modes are orthonormal under the grid quadrature:
        # h^d sum u v = sum c c' (Parseval for c' = c)
        c2 = rng.normal(size=basis.coeff_shape)
        v = basis.to_grid(c2)
        assert basis.integrate(u * u) == pytest.approx(np.sum(c * c), rel=1e-12)
        assert basis.integrate(u * v) == pytest.approx(
            np.sum(c * c2), rel=1e-12, abs=1e-12 * math.sqrt(np.sum(c * c) * np.sum(c2 * c2)))
        if basis.coeff_shape == basis.grid_shape:  # no mode cut off
            f = rng.normal(size=basis.grid_shape)
            back = basis.to_grid(basis.to_spectral(f))
            assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 3),
        bc=st.sampled_from(BOUNDARY_CONDITIONS),
        n=st.sampled_from([8, 16]),
        mode_fraction=st.floats(0.0, 1.0),
        rows=st.integers(1, 4),
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_batch_transforms_equal_per_row_bitwise(
        self, d, bc, n, mode_fraction, rows, t, seed
    ):
        # the probe and the batched draws rely on exact agreement, not closeness
        modes = max(1, round(mode_fraction * n))
        basis = make_basis(d, bc, n=n, N=modes)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows,) + basis.grid_shape)
        coeffs = rng.normal(size=(rows,) + basis.coeff_shape)
        assert np.array_equal(
            basis.to_spectral_batch(values),
            np.stack([basis.to_spectral(v) for v in values]),
        )
        assert np.array_equal(
            basis.to_grid_batch(coeffs),
            np.stack([basis.to_grid(c) for c in coeffs]),
        )
        assert np.array_equal(
            basis.semigroup(coeffs, t),
            np.stack([basis.semigroup(c, t) for c in coeffs]),
        )
        assert np.array_equal(
            basis.heat_flow(values, t),
            np.stack([basis.heat_flow(v, t) for v in values]),
        )


class TestFastTransforms:
    """The numpy transforms, in every dimension, boundary and mode cutoff."""

    @settings(max_examples=60, deadline=None)
    @given(basis=any_basis, data=st.data())
    def test_grid_eigenfunction_is_a_unit_vector(self, basis, data):
        valid = [int(k) for k in basis.axis_valid_indices()]
        k = tuple(data.draw(st.sampled_from(valid)) for _ in range(basis.dimension))
        c = basis.to_spectral(grid_eigenfunction(basis, k))
        unit = np.zeros(basis.coeff_shape)
        unit[tuple(valid.index(ki) for ki in k)] = 1.0
        assert np.max(np.abs(c - unit)) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(basis=any_basis, rows=st.integers(0, 3), seed=st.integers(0, 2**31 - 1))
    @example(basis=make_basis(3, NEUMANN, n=16, N=1), rows=0, seed=687290)
    # axes of 127 and 128 points, which invert by the transform pair, not by
    # the synthesis matrix
    @example(basis=make_basis(1, DIRICHLET, n=128), rows=3, seed=1)
    @example(basis=make_basis(1, NEUMANN, n=128), rows=0, seed=2)
    @example(basis=make_basis(2, DIRICHLET, n=128, N=40), rows=0, seed=3)
    @example(basis=make_basis(2, NEUMANN, n=128, N=65), rows=2, seed=4)
    def test_sine_cosine_transforms_match_scipy(self, basis, rows, seed):
        assume(basis.boundary != PERIODIC)  # a real FFT, no sine or cosine transform
        rng = np.random.default_rng(seed)
        lead = (rows,) if rows else ()
        f = rng.normal(size=lead + basis.grid_shape)
        c = rng.normal(size=lead + basis.coeff_shape)
        forward, inverse = scipy_transform(basis, f), scipy_transform(basis, c, inverse=True)
        got_forward = basis.to_spectral_batch(f) if rows else basis.to_spectral(f)
        got_inverse = basis.to_grid_batch(c) if rows else basis.to_grid(c)

        def summed_terms(array, weight):
            # each value sums terms of size at most weight^d |array| over a
            # row: its round-off scales with their sum, not with the value,
            # which cancellation can make small
            return weight**basis.dimension * np.sum(np.abs(array), axis=basis.field_axes,
                                                    keepdims=True)

        sup = math.sqrt(2.0 / basis.length)  # sup |psi_k|
        assert np.all(np.abs(got_forward - forward) <= 1e-14 * summed_terms(f, basis.h * sup))
        assert np.all(np.abs(got_inverse - inverse) <= 1e-14 * summed_terms(c, sup))

    @settings(max_examples=60, deadline=None)
    @given(basis=any_basis, rows=st.integers(0, 3), t=st.floats(0.0, 0.1),
           seed=st.integers(0, 2**31 - 1))
    def test_heat_flow_equals_the_three_transforms(self, basis, rows, t, seed):
        f = np.random.default_rng(seed).normal(size=((rows,) if rows else ()) + basis.grid_shape)
        explicit = basis.to_grid_batch(basis.semigroup(basis.to_spectral_batch(f), t))
        assert np.max(np.abs(basis.heat_flow(f, t) - explicit)) < 1e-13 * np.max(np.abs(f))

    # grids on the FFT side of the dense cutoffs, which any_basis never
    # reaches: in 1-d and 2-d axes of 127 and 128 points flow and invert by
    # the transform pair, and in 3-d at 32 points per axis the flow does
    FFT_SIDE = [(bc, d, n, modes) for bc in BOUNDARY_CONDITIONS
                for d, n, modes in [(1, 128, None), (2, 128, None), (2, 128, 65), (3, 32, None)]]

    @pytest.mark.parametrize("bc, d, n, modes", FFT_SIDE)
    def test_fft_heat_flow_equals_the_three_transforms(self, bc, d, n, modes):
        # as the two property tests next to this one: a batch and one field,
        # from inputs in Fortran order and every other row, into C-contiguous
        # outputs
        basis = make_basis(d, bc, n=n, N=modes)
        assert not basis._dense_flow_on
        rng = np.random.default_rng(n + d)
        f = np.asfortranarray(rng.normal(size=(4,) + basis.grid_shape))[::2]
        for t in (0.0, 1e-3, 0.05):
            explicit = basis.to_grid_batch(basis.semigroup(basis.to_spectral_batch(f), t))
            for got, want in [(basis.heat_flow(f, t), explicit),
                              (basis.heat_flow(f[1], t), explicit[1])]:
                assert got.flags.c_contiguous
                assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(f))

    @settings(max_examples=40, deadline=None)
    @given(basis=any_basis, rows=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_outputs_are_c_contiguous(self, basis, rows, seed):
        # inputs of other layouts: Fortran order and every other row
        rng = np.random.default_rng(seed)
        f = np.asfortranarray(rng.normal(size=(2 * rows,) + basis.grid_shape))[::2]
        c = np.asfortranarray(rng.normal(size=(2 * rows,) + basis.coeff_shape))[::2]
        outputs = [basis.to_spectral_batch(f), basis.to_grid_batch(c),
                   basis.heat_flow(f, 1e-3), basis.to_spectral(f[0]), basis.to_grid(c[0]),
                   basis.heat_flow(f[0], 1e-3)]
        assert all(out.flags.c_contiguous for out in outputs)
        assert np.array_equal(outputs[0], basis.to_spectral_batch(np.ascontiguousarray(f)))

    @settings(max_examples=30, deadline=None)
    @given(basis=any_basis, rows=st.integers(0, 5), seed=st.integers(0, 2**31 - 1))
    def test_blocks_do_not_change_values(self, basis, rows, seed):
        # blocks of one line of the leading axis against one block for all
        rng = np.random.default_rng(seed)
        lead = (rows,) if rows else ()
        f = rng.normal(size=lead + basis.grid_shape)
        c = rng.normal(size=lead + basis.coeff_shape)

        def outputs():
            return [basis.to_spectral_batch(f), basis.to_grid_batch(c), basis.heat_flow(f, 1e-3)]

        whole = outputs()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_BLOCK_VALUES", 1)
            blocked = outputs()
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

    # every size on the dense path: grid_points 8 to 64, axes of 7 to 64 points
    DENSE = [(bc, n) for bc in BOUNDARY_CONDITIONS for n in (8, 16, 32, 64)]

    @pytest.mark.parametrize("bc, n", DENSE)
    @pytest.mark.parametrize("d", [1, 2])
    def test_dense_inverse_matches_the_fft_inverse(self, bc, n, d):
        for modes in sorted({1, n // 2 + 1, n}):
            basis = make_basis(d, bc, n=n, N=modes)
            axis = basis._axis
            assert axis.synthesis_matrix is not None
            c = np.random.default_rng(n + modes).normal(size=(5,) + basis.coeff_shape)
            fft = np.asarray(c, dtype=float)
            for _ in range(d):  # the fast inverse along each field axis
                x = np.moveaxis(fft, -d, -1)
                fft = np.empty(x.shape[:-1] + (len(axis.points),))
                axis.fft_inverse(x, fft)
            scale = np.sum(np.abs(c), axis=basis.field_axes, keepdims=True)
            assert np.all(np.abs(basis.to_grid_batch(c) - fft) <= 1e-15 * scale)

    @pytest.mark.parametrize("bc, n", DENSE)
    def test_dense_inverse_row_does_not_depend_on_batch_or_position(self, bc, n):
        # batches below, at and above one block of 64 lines and across
        # several, with the row at the start, inside and at the end
        basis = make_basis(1, bc, n=n)
        rng = np.random.default_rng(n)
        row = rng.normal(size=basis.coeff_shape)
        alone = basis.to_grid(row)
        for rows in (1, 2, 63, 64, 65, 130, 200):
            for at in sorted({0, rows // 2, 63 % rows, 64 % rows, rows - 1}):
                batch = rng.normal(size=(rows,) + basis.coeff_shape)
                batch[at] = row
                assert np.array_equal(basis.to_grid_batch(batch)[at], alone)

    # each side of the dense cutoff: axes of 7 to 64 points flow by their
    # matrix, 127 and 128 points by FFT; a mode cutoff makes the flow project
    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("d, n, modes", [(1, 64, None), (1, 64, 33), (1, 128, None),
                                             (2, 16, None), (3, 8, None), (3, 8, 5),
                                             (3, 16, None)])
    def test_heat_flow_row_does_not_depend_on_batch_or_position(self, bc, d, n, modes):
        # batches below, at and above one block of 64 lines and across
        # several, with the row at the start, inside and at the end
        basis = make_basis(d, bc, n=n, N=modes)
        assert basis._dense_flow_on == (n <= 64)
        rng = np.random.default_rng(n + d)
        row = rng.normal(size=basis.grid_shape)
        for t in (0.0, 1e-3):
            alone = basis.heat_flow(row, t).tobytes()
            for rows in (1, 2, 63, 64, 65, 130):
                for at in sorted({0, rows // 2, rows - 1}):
                    batch = rng.normal(size=(rows,) + basis.grid_shape)
                    batch[at] = row
                    assert basis.heat_flow(batch, t)[at].tobytes() == alone

    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    def test_dense_path_is_chosen_by_axis_size(self, bc):
        # axes of up to 64 points invert by their matrix, larger ones by FFT
        assert make_basis(1, bc, n=64)._axis.synthesis_matrix is not None
        assert make_basis(1, bc, n=128)._axis.synthesis_matrix is None

    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    def test_dense_flow_is_chosen_by_product_size(self, bc):
        # the flow is dense while its largest product, 64 lines or a whole
        # row on the first field axis, stays within 64^3 multiply-adds
        for d, n, dense in [(1, 64, True), (1, 128, False), (2, 64, True),
                            (3, 16, True), (3, 32, False), (3, 64, False)]:
            assert make_basis(d, bc, n=n)._dense_flow_on == dense

    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_cutoff_basis_inverts_on_products_within_the_rule(self, bc, d):
        # an axis of 127 or 128 points with at most 4096 / points modes
        # inverts by its synthesis matrix, at the FFT inverse's round-off
        for modes in (8, 32, 33):
            basis = make_basis(d, bc, n=128, N=modes)
            axis = basis._axis
            dense = modes * len(axis.points) <= 4096
            assert (axis.synthesis_matrix is not None) == dense
            c = np.random.default_rng(modes).normal(size=(3,) + basis.coeff_shape)
            fft = c
            for _ in range(d):  # the fast inverse along each field axis
                x = np.moveaxis(fft, -d, -1)
                fft = np.empty(x.shape[:-1] + (len(axis.points),))
                axis.fft_inverse(x, fft)
            scale = np.sum(np.abs(c), axis=basis.field_axes, keepdims=True)
            assert np.all(np.abs(basis.to_grid_batch(c) - fft) <= 1e-15 * scale)

    def test_heat_flow_rejects_bad_time_and_shape(self):
        basis = make_basis(2, NEUMANN, n=8)
        with pytest.raises(ValueError, match="time"):
            basis.heat_flow(np.zeros(basis.grid_shape), -1e-3)
        with pytest.raises(ValueError, match="grid shape"):
            basis.heat_flow(np.zeros((3, 8, 4)), 1e-3)


class TestSemigroup:
    def test_identity_at_zero(self):
        basis = make_basis(1, DIRICHLET)
        c = np.arange(basis.axis_mode_count, dtype=float)
        assert np.array_equal(basis.semigroup(c, 0.0), c)

    def test_first_dirichlet_mode_decay(self):
        basis = make_basis(1, DIRICHLET)
        c = np.zeros(basis.coeff_shape)
        c[0] = 1.0
        out = basis.semigroup(c, 1.0)
        assert out[0] == pytest.approx(math.exp(-1.0))

    def test_neumann_constant_untouched(self):
        basis = make_basis(1, NEUMANN)
        f = np.full(basis.grid_shape, 3.7)
        c = basis.to_spectral(f)
        out = basis.to_grid(basis.semigroup(c, 5.0))
        assert np.max(np.abs(out - f)) < 1e-12

    def test_negative_time_rejected(self):
        basis = make_basis(1, NEUMANN)
        with pytest.raises(ValueError):
            basis.semigroup(np.zeros(basis.coeff_shape), -0.1)

    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    def test_semigroup_law(self, bc):
        basis = make_basis(2, bc, n=16)
        rng = np.random.default_rng(14)
        c = rng.normal(size=basis.coeff_shape)
        s, t = 0.013, 0.045
        once = basis.semigroup(c, s + t)
        twice = basis.semigroup(basis.semigroup(c, t), s)
        denom = np.abs(once) + 1e-300
        assert np.max(np.abs(once - twice) / denom) < 1e-13

    @pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
    def test_mass_conservation(self, bc):
        basis = make_basis(1, bc, n=64)
        rng = np.random.default_rng(15)
        f = np.abs(rng.normal(size=basis.grid_shape)) + 0.1
        out = basis.to_grid(basis.semigroup(basis.to_spectral(f), 0.3))
        assert basis.integrate(out) == pytest.approx(basis.integrate(f), rel=1e-12)

    def test_mass_contraction_dirichlet(self):
        basis = make_basis(1, DIRICHLET, n=64)
        rng = np.random.default_rng(16)
        f = np.abs(rng.normal(size=basis.grid_shape)) + 0.1
        out = basis.to_grid(basis.semigroup(basis.to_spectral(f), 0.3))
        assert basis.integrate(out) < basis.integrate(f)


class TestHeatKernel:
    def test_rejects_nonpositive_time(self):
        basis = make_basis(1, DIRICHLET)
        with pytest.raises(ValueError):
            basis.heat_kernel(0.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            basis.heat_kernel(-1.0, [1.0], [1.0])

    def test_neumann_long_time_uniform(self):
        basis = make_basis(1, NEUMANN, n=32)
        for x in (0.3, 1.5, 2.9):
            assert basis.heat_kernel(50.0, [x], [1.0]) == pytest.approx(1 / PI, rel=1e-12)

    def test_dirichlet_long_time_leading_mode(self):
        basis = make_basis(1, DIRICHLET, n=32)
        t = 8.0
        x, y = 1.1, 2.0
        expected = (2 / PI) * math.exp(-t) * math.sin(x) * math.sin(y)
        assert basis.heat_kernel(t, [x], [y]) == pytest.approx(expected, rel=1e-10)

    def test_matches_method_of_images(self):
        basis = make_basis(1, DIRICHLET, n=256)
        t = 0.01
        got = basis.heat_kernel(t, [PI / 2], [PI / 2])
        want = images_heat_kernel_1d(t, PI / 2, PI / 2)
        assert abs(got - want) < 1e-6

    def test_matches_method_of_images_off_diagonal(self):
        basis = make_basis(1, DIRICHLET, n=256)
        t = 0.02
        got = basis.heat_kernel(t, [1.0], [1.7])
        want = images_heat_kernel_1d(t, 1.0, 1.7)
        assert abs(got - want) < 1e-6

    @pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
    def test_kernel_integrates_to_one(self, bc):
        basis = make_basis(1, bc, n=64)
        t = 0.05
        vals = np.array([basis.heat_kernel(t, [x], [1.3]) for x in basis.axis_points])
        assert basis.integrate(vals) == pytest.approx(1.0, abs=1e-10)

    def test_tail_bound_reported_and_small(self):
        basis = make_basis(1, DIRICHLET, n=256)
        tail = basis.heat_kernel_tail_bound(0.01)
        assert 0 <= tail < 1e-8
        # G above its tail-bound floor
        val = basis.heat_kernel(0.01, [0.3], [2.8])
        assert val >= -tail

    def test_periodic_tail_bound_covers_every_grid_mode_retained(self):
        # with all n modes kept, the frequencies above n/2 are still dropped
        basis = make_basis(1, PERIODIC, n=16)
        t, x = 1e-3, 1.0
        # method of images: G(t, x, x) on the circle of length pi
        images = sum(math.exp(-(j * PI) ** 2 / (4 * t)) for j in range(-40, 41))
        images /= math.sqrt(4 * PI * t)
        missing = images - basis.heat_kernel(t, [x], [x])
        assert missing > 4.0
        assert basis.heat_kernel_tail_bound(t) >= missing

    def test_tail_bound_grows_as_t_shrinks(self):
        basis = make_basis(1, DIRICHLET, n=32, N=16)
        assert basis.heat_kernel_tail_bound(1e-3) > basis.heat_kernel_tail_bound(1e-1)

    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_decay_exponent_is_half_dimension(self, bc, d):
        basis = make_basis(d, bc, n=1024)
        slope, c_fit, rms = heat_kernel_decay_fit(basis)
        assert slope == pytest.approx(-d / 2, abs=0.05)
        assert c_fit > 0

    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    def test_decay_exponent_3d_on_the_verification_grid(self, bc):
        # for Neumann the sup of G(t,x,x) sits at a corner, half a cell from
        # the nearest grid point; the grid points alone give slope -1.41
        basis = make_basis(3, bc, n=256)
        slope, _, _ = heat_kernel_decay_fit(basis)
        assert slope == pytest.approx(-1.5, abs=0.05)
        if bc == NEUMANN:
            corner = np.zeros(3)
            assert basis.heat_kernel_diag_max(1e-3) == pytest.approx(
                basis.heat_kernel(1e-3, corner, corner), rel=1e-12)


class TestDirichletMass:
    def test_rejects_other_boundaries(self):
        basis = make_basis(1, NEUMANN)
        with pytest.raises(ValueError):
            basis.dirichlet_mass(0.1, [1.0])

    def test_approaches_one_for_small_t(self):
        basis = make_basis(1, DIRICHLET, n=512)
        # g(2^-m, x) -> 1 from below as m grows (within series resolution)
        vals = [basis.dirichlet_mass(2.0**-m, [PI / 2]) for m in (4, 6, 8, 10)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)

    def test_decays_to_zero_for_large_t(self):
        basis = make_basis(1, DIRICHLET, n=32)
        assert basis.dirichlet_mass(20.0, [PI / 2]) == pytest.approx(0.0, abs=1e-7)

    def test_matches_exit_probability_oracle(self):
        basis = make_basis(1, DIRICHLET, n=256)
        got = basis.dirichlet_mass(0.25, [PI / 2])
        want = images_exit_mass_1d(0.25, PI / 2)
        assert abs(got - want) < 1e-6

    def test_monotone_nonincreasing_in_t(self):
        basis = make_basis(1, DIRICHLET, n=256)
        x = [1.0]
        ts = np.linspace(0.01, 1.0, 20)
        vals = [basis.dirichlet_mass(t, x) for t in ts]
        eps = basis.heat_kernel_tail_bound(0.01)
        assert all(a >= b - max(eps, 1e-12) for a, b in zip(vals, vals[1:]))

    def test_2d_is_product_of_axes(self):
        b2 = make_basis(2, DIRICHLET, n=64)
        b1 = make_basis(1, DIRICHLET, n=64)
        t = 0.2
        got = b2.dirichlet_mass(t, [1.0, 2.0])
        want = b1.dirichlet_mass(t, [1.0]) * b1.dirichlet_mass(t, [2.0])
        assert got == pytest.approx(want, rel=1e-12)


class TestFieldTypes:
    def test_spectral_field_shape_checked(self):
        basis = make_basis(2, DIRICHLET, n=16)
        with pytest.raises(ValueError):
            basis.to_grid(np.zeros((3, 3)))


class TestStructure:
    """spectral.py is the one module that knows the boundary condition, and
    in it the boundary name picks an axis class once."""

    sources = sorted(Path(spectral.__file__).parent.glob("*.py"))

    def test_no_other_module_reads_private_basis_attributes(self):
        def is_basis(node):
            if isinstance(node, ast.Name):
                return node.id in ("b", "basis") or node.id.endswith("_basis")
            return isinstance(node, ast.Attribute) and node.attr == "basis"

        found = [
            (module.name, node.lineno, node.attr)
            for module in self.sources if module.name != "spectral.py"
            for node in ast.walk(ast.parse(module.read_text()))
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and is_basis(node.value)
        ]
        assert found == []

    def test_axis_classes_state_only_their_transform_pair_and_table(self):
        # forward, inverse and heat flow are written once, on _Axis, from each
        # axis's analysis/synthesis pair and its packing table
        written_once = {"forward", "inverse", "fft_inverse", "_analyze", "_synthesize",
                        "synthesis_matrix", "flow", "flow_scales", "flow_matrix"}
        tree = ast.parse(Path(spectral.__file__).read_text())
        axes = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id == "_Axis" for b in node.bases)]
        assert {axis.name for axis in axes} == {"_SineAxis", "_CosineAxis", "_FourierAxis"}

        def defined(axis):
            for node in ast.walk(axis):
                if isinstance(node, ast.FunctionDef):
                    yield node.name
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    yield node.attr  # self.name = ...
            for node in axis.body:
                if isinstance(node, ast.Assign):
                    yield from (t.id for t in node.targets if isinstance(t, ast.Name))

        found = [(axis.name, name) for axis in axes for name in defined(axis)
                 if name in written_once]
        assert found == []

    @staticmethod
    def enclosing(tree, is_site):
        """(innermost enclosing function or class, line) of each node of
        ``tree`` for which ``is_site`` holds."""
        found = []

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = node.name
            if is_site(node):
                found.append((scope, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, "<module>")
        return found

    def test_matrix_products_only_in_the_two_product_helpers(self):
        # every field transform by matrices goes through matmul_lines or the
        # product chain axis_products
        def is_matmul(node):
            return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "matmul")

        scopes = {scope for module in self.sources
                  for scope, _ in self.enclosing(ast.parse(module.read_text()), is_matmul)}
        assert scopes == {"matmul_lines", "axis_products"}

    def test_one_rule_decides_dense_or_fft(self):
        # the product limit is read only by the rule, and no module sets
        # another dense cutoff beside it and the lines per product
        def reads_limit(node):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            return name == "_DENSE_PRODUCT" and isinstance(node.ctx, ast.Load)

        def dense_names(tree):
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    yield from (t.id for t in targets
                                if isinstance(t, ast.Name) and t.id.startswith("_DENSE_"))

        trees = [ast.parse(module.read_text()) for module in self.sources]
        assert {scope for tree in trees for scope, _ in self.enclosing(tree, reads_limit)} == {
            "dense_chain"}
        assert sorted(name for tree in trees for name in dense_names(tree)) == [
            "_DENSE_LINES", "_DENSE_PRODUCT"]

    def test_flow_order_is_read_only_by_the_axis(self):
        # the flow-order reorder is written once in each direction, on _Axis
        def reads_flow_parts(node):
            return (isinstance(node, ast.Attribute) and node.attr == "flow_parts"
                    and isinstance(node.ctx, ast.Load))

        tree = ast.parse(Path(spectral.__file__).read_text())
        axis = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "_Axis")
        everywhere = [site for module in self.sources
                      for site in self.enclosing(ast.parse(module.read_text()), reads_flow_parts)]
        in_axis = self.enclosing(axis, reads_flow_parts)
        assert sorted(everywhere) == sorted(in_axis)
        assert {scope for scope, _ in in_axis} == {"_analyze", "_synthesize"}

    def test_boundary_name_compared_only_by_the_axis_map_and_dirichlet_mass(self):
        boundary_names = {"PERIODIC", "NEUMANN", "DIRICHLET", "BOUNDARY_CONDITIONS",
                          "_AXES", "bc", "boundary"}

        def names_boundary(node):
            return any(
                (isinstance(n, ast.Name) and n.id in boundary_names)
                or (isinstance(n, ast.Attribute) and n.attr == "boundary")
                or (isinstance(n, ast.Constant) and n.value in BOUNDARY_CONDITIONS)
                for n in ast.walk(node))

        class Sites(ast.NodeVisitor):
            def __init__(self):
                self.scope, self.found = ["<module>"], []

            def visit_FunctionDef(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            def visit_Compare(self, node):
                if names_boundary(node):
                    self.found.append((self.scope[-1], ast.unparse(node)))
                self.generic_visit(node)

        sites = Sites()
        sites.visit(ast.parse(Path(spectral.__file__).read_text()))
        assert sites.found == [("__post_init__", "self.boundary not in _AXES"),
                               ("dirichlet_mass", "self.boundary != DIRICHLET")]
