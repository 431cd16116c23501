"""Eigenbasis, transform, semigroup and heat-kernel checks.

Oracles used here are independent of the fast-transform implementation:
a dense eigenfunction-matrix transform at n=16, and method-of-images sums
for the 1-d Dirichlet heat kernel and the Brownian exit probability.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def dense_transform_matrix(basis):
    """Oracle: matrix of e_k(x_j) columns for one axis, built pointwise."""
    return basis.axis_eigenfunction_grid()


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

    def test_modes_default_to_grid(self):
        spec = DomainSpec(1, NEUMANN, 16)
        assert spec.modes == 16


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
        ev = basis.sorted_eigenvalues()
        assert ev[0] == 0.0
        assert np.all(np.diff(ev) >= 0)
        assert len(ev) == 64


class TestOrthonormality:
    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_gram_matrix_first_modes(self, bc, d):
        basis = make_basis(d, bc, n=64)
        idx = basis.axis_valid_indices()[:10]
        E = np.stack([basis.axis_eigenfunction(k, basis.axis_points) for k in idx])
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
        X, Y = basis.grid_coordinates()
        fields = []
        for kx, ky in pairs:
            fx = basis.axis_eigenfunction(kx, basis.axis_points)
            fy = basis.axis_eigenfunction(ky, basis.axis_points)
            fields.append(np.outer(fx, fy))
        for a in range(4):
            for b in range(4):
                expected = 1.0 if a == b else 0.0
                got = basis.inner(fields[a], fields[b])
                assert abs(got - expected) < 1e-8, (pairs[a], pairs[b])


class TestTransforms:
    @pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
    def test_forward_matches_dense_oracle_n16(self, bc):
        basis = make_basis(1, bc, n=16)
        rng = np.random.default_rng(10)
        f = rng.normal(size=basis.grid_shape)
        E = dense_transform_matrix(basis)  # (points, modes)
        oracle = basis.h * E.T @ f
        fast = basis.to_spectral(f)
        assert np.max(np.abs(fast - oracle)) < 1e-12

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
        f = basis.axis_eigenfunction(1, basis.axis_points)
        c = basis.to_spectral(f)
        assert c[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(c[1:])) < 1e-10

    def test_shape_mismatch_raises(self):
        basis = make_basis(1, DIRICHLET, n=16)
        with pytest.raises(ValueError):
            basis.to_spectral(np.zeros(16))  # Dirichlet grid has 15 points
        with pytest.raises(ValueError):
            basis.to_grid(np.zeros(16))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        bc=st.sampled_from(BOUNDARY_CONDITIONS),
    )
    def test_roundtrip_property(self, seed, bc):
        basis = make_basis(1, bc, n=16)
        f = np.random.default_rng(seed).normal(size=basis.grid_shape)
        back = basis.to_grid(basis.to_spectral(f))
        assert np.max(np.abs(back - f)) < 1e-10 * max(1.0, np.max(np.abs(f)))

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
