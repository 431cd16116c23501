"""Covariance kernels, derived exponents and sampler checks.

Independent oracles: closed-form eigenvalue series for the spectral kernel
(sum over odd k of k^-2 and k^-4), a brute-force Monte Carlo quadrature for
the Riesz double integral, Monte Carlo covariance estimates against the
kernel values, and an exact check of the circulant-embedding Riesz sampler:
fed the unit vectors as its normals, it must reproduce the dense covariance
built from the kernel's definition.  The Riesz sampler's transforms run on
numpy.fft, or on a real cosine-sine basis on small tori of three axes; the
same transforms on scipy.fft (``scipy_riesz_*``) must give its values bit
for bit on the FFT path, and scipy's DCT-I and DST-I (``scipy_dense_*``)
at round-off on the dense one.
"""

import ast
import functools
import math
import operator
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochheat
from stochheat import noise
from stochheat.spectral import DIRICHLET, NEUMANN, PERIODIC, DomainSpec, build_basis
from stochheat.noise import (
    DecayFitError,
    FactorizationError,
    KernelValidationError,
    RieszKernel,
    SpectralKernel,
    WhiteNoise,
    _clip_spectrum,
    _smooth_len,
    _unit_cell_mean,
    critical_exponent,
    make_sampler,
    riesz_double_integral,
    verify_decay,
)

PI = math.pi

# (dimension, kernel): every sampler class, Riesz in d = 1 and 3
SAMPLER_CASES = [
    (1, SpectralKernel(0.25, 1.0)),
    (1, WhiteNoise()),
    (1, RieszKernel(0.3)),
    (3, RieszKernel(1.0)),
]


def basis_for(d=1, bc=DIRICHLET, n=64, **kw):
    return build_basis(DomainSpec(d, bc, n, **kw))


def grid_coordinates(basis):
    """The d coordinate arrays of the grid (meshgrid, ij indexing)."""
    return np.meshgrid(*(basis.axis_points,) * basis.dimension, indexing="ij")


def riesz_covariance(spec, basis):
    """Dense grid covariance of the Riesz kernel from its definition:
    |x-y|^(-alpha) off the diagonal, the kernel's cell mean on it."""
    pts = np.stack([g.ravel() for g in grid_coordinates(basis)], axis=1)
    r = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(r, 1.0)
    C = r ** (-spec.alpha)
    np.fill_diagonal(C, _unit_cell_mean(spec.alpha, basis.dimension)
                     * basis.h ** (-spec.alpha))
    return C


def riesz_covariance_entry(spec, basis, i, j):
    """One entry of the grid covariance: the kernel off the diagonal."""
    if i == j:
        return _unit_cell_mean(spec.alpha, basis.dimension) * basis.h ** (-spec.alpha)
    pts = [g.ravel() for g in grid_coordinates(basis)]
    return spec.kernel(basis, [p[i] for p in pts], [p[j] for p in pts])


def scipy_riesz_row_spectrum(spec, basis, embed_len):
    """The circulant spectrum of the Riesz sampler on a torus of
    ``embed_len`` points per axis, before clipping: scipy's ``rfftn`` of
    the circulant's first row."""
    import scipy.fft

    d, M = basis.dimension, embed_len
    wrap = np.minimum(np.arange(M), M - np.arange(M))
    grids = np.meshgrid(*([wrap] * d), indexing="ij", sparse=True)
    r = basis.h * np.sqrt(sum(k * k for k in grids).astype(float))
    with np.errstate(divide="ignore"):
        row = r ** (-spec.alpha)
    row[(0,) * d] = _unit_cell_mean(spec.alpha, d) * basis.h ** (-spec.alpha)
    return scipy.fft.rfftn(row, axes=basis.field_axes).real


def scipy_riesz_spectrum(spec, basis, embed_len):
    """The circulant spectrum of the Riesz sampler, clipped."""
    return _clip_spectrum(scipy_riesz_row_spectrum(spec, basis, embed_len), embed_len)[0]


def scipy_riesz_increments(sampler, dt, z):
    """RieszSampler.increments on scipy.fft: the scaled half spectrum, an
    ifft over each leading field axis cut to its first g outputs, and an
    irfft of M points over the last, cut to g."""
    import scipy.fft

    g = sampler.basis.grid_shape[0]
    coeffs = z.view(complex)[..., 0] * (math.sqrt(dt) * sampler._scales)
    for axis in sampler.basis.field_axes[:-1]:
        coeffs = scipy.fft.ifft(coeffs, axis=axis, norm="forward", overwrite_x=True)
        coeffs = coeffs[(Ellipsis, slice(g)) + (slice(None),) * (-1 - axis)]
    return scipy.fft.irfft(coeffs, n=sampler._embed_len, norm="forward",
                           overwrite_x=True)[..., :g]


def scipy_riesz_qv_form(sampler, f_values):
    """RieszSampler.qv_form on scipy.fft: rfft over the last axis, then fft
    over each leading field axis, last first, each zero-padded to M."""
    import scipy.fft

    M = sampler._embed_len
    coeffs = scipy.fft.rfft(f_values, n=M)
    for axis in sampler.basis.field_axes[-2::-1]:
        coeffs = scipy.fft.fft(coeffs, n=M, axis=axis, overwrite_x=True)
    weighted = sampler._qv_weights * (coeffs.real**2 + coeffs.imag**2)
    return sampler.basis.field_sum(weighted)


def dense_mode_frequencies(M):
    """The frequency of each real mode of an M-point torus axis, in the
    sampler's order: the cosines k = 0..M//2, then the sines."""
    return np.concatenate([np.arange(M // 2 + 1), np.arange(1, (M + 1) // 2)])


def scipy_dense_weights(sampler):
    """The weight of each real tensor mode of the dense torus: the
    circulant eigenvalue at its frequencies, from scipy's spectrum, times
    m_k / M per axis, with m_k = 1 on the zero and Nyquist frequencies and
    2 on the others, which stand for k and -k."""
    M = sampler._embed_len
    k = dense_mode_frequencies(M)
    m = np.where((k == 0) | (2 * k == M), 1.0, 2.0) / M
    spectrum = scipy_riesz_spectrum(sampler.spec, sampler.basis, M)
    return spectrum[np.ix_(k, k, k)] * m[:, None, None] * m[:, None] * m


def scipy_dense_axis(x, axis, sampler, synthesis):
    """The dense torus's map along one axis: its M real modes to the first
    g grid points (``synthesis``), or the transpose.  At M = 2g - 2 the
    cosines on the g points are the DCT-I kernel, and the sines on the
    g - 2 interior points the DST-I kernel; at odd M the modes are summed
    from their formula."""
    import scipy.fft

    M, g = sampler._embed_len, sampler.basis.grid_shape[0]
    x = np.moveaxis(x, axis, -1)
    if M == 2 * g - 2:
        # the DCT-I counts its end points once and the others twice
        ends = np.full(g, 0.5)
        ends[[0, -1]] = 1.0
        if synthesis:
            out = scipy.fft.dct(x[..., :g] * ends, type=1)
            out[..., 1:-1] += scipy.fft.dst(x[..., g:], type=1) / 2
        else:
            out = np.concatenate([scipy.fft.dct(x * ends, type=1),
                                  scipy.fft.dst(x[..., 1:-1], type=1) / 2], axis=-1)
    else:
        k = dense_mode_frequencies(M)
        phases = 2 * np.pi * np.outer(k, np.arange(g)) / M
        modes = np.where((np.arange(M) <= M // 2)[:, None], np.cos(phases), np.sin(phases))
        out = x @ modes if synthesis else x @ modes.T
    return np.moveaxis(out, -1, axis)


def scipy_dense_increments(sampler, dt, z):
    """RieszSampler.increments on the dense torus: the normals scaled by
    sqrt(dt w), mapped to the grid along each axis."""
    x = z * np.sqrt(dt * scipy_dense_weights(sampler))
    for axis in sampler.basis.field_axes:
        x = scipy_dense_axis(x, axis, sampler, synthesis=True)
    return x


def scipy_dense_qv_form(sampler, f_values):
    """RieszSampler.qv_form on the dense torus: the weighted squares of the
    coefficients of f in the real basis, times h^(2d)."""
    x = f_values
    for axis in sampler.basis.field_axes:
        x = scipy_dense_axis(x, axis, sampler, synthesis=False)
    weights = scipy_dense_weights(sampler) * sampler.basis.cell_volume**2
    return sampler.basis.field_sum(weights * x**2)


class IdentityNormals:
    """Stub rng: successive standard_normal(shape) calls return successive
    rows of the identity, reshaped to shape, so row k of a batch is the
    sampler's linear map applied to the unit vector e_k."""

    def __init__(self):
        self.drawn = 0

    def standard_normal(self, shape):
        count, size = shape[0], math.prod(shape[1:])
        rows = np.zeros((count, size))
        rows[np.arange(count), self.drawn + np.arange(count)] = 1.0
        self.drawn += count
        return rows.reshape(shape)


class TestSpecValidation:
    def test_riesz_range_depends_on_dimension(self):
        RieszKernel(0.3).validate_for(1)
        with pytest.raises(KernelValidationError):
            RieszKernel(1.0).validate_for(1)  # needs alpha < 1/2 in d=1
        RieszKernel(1.0).validate_for(3)
        with pytest.raises(KernelValidationError):
            RieszKernel(1.6).validate_for(3)

    def test_spectral_theta_lower_bound(self):
        with pytest.raises(KernelValidationError):
            SpectralKernel(theta=0.4, a=0.0).validate_for(3, DIRICHLET)
        SpectralKernel(theta=1.2, a=0.0).validate_for(3, DIRICHLET)

    def test_spectral_shift_required_without_spectral_gap(self):
        with pytest.raises(KernelValidationError):
            SpectralKernel(theta=0.25, a=0.0).validate_for(1, NEUMANN)
        with pytest.raises(KernelValidationError):
            SpectralKernel(theta=0.25, a=0.0).validate_for(1, PERIODIC)
        SpectralKernel(theta=0.25, a=0.0).validate_for(1, DIRICHLET)
        SpectralKernel(theta=0.25, a=1.0).validate_for(1, NEUMANN)

    def test_white_noise_d1_only(self):
        WhiteNoise().validate_for(1)
        with pytest.raises(KernelValidationError):
            WhiteNoise().validate_for(2)


class TestKernelParams:
    def test_riesz_d3(self):
        assert RieszKernel(1.0).params(3) == (1.5, 0.5)

    def test_spectral_eta_zero_rejected(self):
        with pytest.raises(KernelValidationError):
            SpectralKernel(theta=1.0, a=0.0).params(2)

    def test_spectral_d2(self):
        assert SpectralKernel(theta=0.75, a=0.0).params(2) == (1.0, 0.25)

    def test_white_noise_regime(self):
        assert WhiteNoise().params(1) == (0.5, 0.5)

    def test_spectral_negative_shift_rejected(self):
        # eta = 1/2 - 0.3 is in range, but every other entry rejects a < 0
        with pytest.raises(KernelValidationError):
            SpectralKernel(theta=0.3, a=-1.0).params(1)

    def test_grid_independence(self):
        # pure arithmetic: no grid resolution enters
        beta, eta = SpectralKernel(theta=0.25, a=0.0).params(1)
        assert critical_exponent(beta, eta) == critical_exponent(*SpectralKernel(
            theta=0.25, a=0.0).params(1))


class TestCriticalExponent:
    def test_critical_white_noise_value(self):
        assert critical_exponent(0.5, 0.5) == pytest.approx(1.5)

    def test_riesz_formula(self):
        # gamma_c = 1 + (1 - alpha/2)/d
        d, alpha = 3, 1.0
        assert critical_exponent(d / 2, alpha / 2) == pytest.approx(
            1 + (1 - alpha / 2) / d
        )

    def test_direct_value(self):
        assert critical_exponent(1.0, 0.25) == pytest.approx(1.375)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            critical_exponent(0.0, 0.5)
        with pytest.raises(ValueError):
            critical_exponent(1.0, 0.0)
        with pytest.raises(ValueError):
            critical_exponent(1.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        beta=st.floats(0.25, 3.0),
        eta=st.floats(0.01, 0.99),
    )
    def test_range_property(self, beta, eta):
        g = critical_exponent(beta, eta)
        assert 1.0 < g <= 1.0 + 1.0 / (2 * beta)


class TestKernelEval:
    def test_riesz_direct_value(self):
        basis = basis_for(3, NEUMANN, n=8)
        x = np.array([0.5, 0.5, 0.5])
        y = x + np.array([PI / 2, 0, 0])
        assert RieszKernel(1.0).kernel(basis, x, y) == pytest.approx(2 / PI)

    def test_riesz_diagonal_singular(self):
        basis = basis_for(3, NEUMANN, n=8)
        with pytest.raises(ValueError):
            RieszKernel(1.0).kernel(basis, [1, 1, 1], [1, 1, 1])

    def test_spectral_closed_form_series(self):
        # Gamma(1) sum_k k^-2 (2/pi) sin^2(k pi/2) = (2/pi)(pi^2/8) = pi/4
        basis = basis_for(1, DIRICHLET, n=1024)
        val = SpectralKernel(theta=1.0, a=0.0).kernel(basis, [PI / 2], [PI / 2])
        assert val == pytest.approx(PI / 4, abs=1e-3)

    def test_spectral_large_theta_leading_term(self):
        basis = basis_for(1, DIRICHLET, n=32)
        theta = 40.0
        spec = SpectralKernel(theta=theta, a=0.0)
        x, y = [1.2], [2.1]
        lead = math.gamma(theta) * 1.0 ** (-theta) * (
            basis.eigenfunction((1,), x) * basis.eigenfunction((1,), y)
        )
        assert spec.kernel(basis, x, y) == pytest.approx(lead, rel=1e-9)

    def test_white_noise_not_pointwise(self):
        basis = basis_for(1, NEUMANN, n=16)
        with pytest.raises(ValueError):
            WhiteNoise().kernel(basis, [1.0], [2.0])

    def test_spectral_diagonal_positive(self):
        basis = basis_for(1, DIRICHLET, n=128)
        spec = SpectralKernel(theta=0.25, a=0.0)
        xs = basis.axis_points[::8]
        vals = np.array([[spec.kernel(basis, [x], [y]) for y in xs] for x in xs])
        assert np.all(np.diag(vals) > 0)

    def test_riesz_strictly_positive(self):
        basis = basis_for(1, NEUMANN, n=32)
        spec = RieszKernel(0.3)
        for dx in (0.1, 1.0, 3.0):
            assert spec.kernel(basis, [0.1], [0.1 + dx]) > 0


class TestDoubleIntegral:
    def test_spectral_neumann_only_zero_mode(self):
        basis = basis_for(2, NEUMANN, n=16)
        theta, a = 0.6, 0.7
        got = SpectralKernel(theta=theta, a=a).double_integral(basis)
        assert got == pytest.approx(math.gamma(theta) * a ** (-theta) * PI**2, rel=1e-12)

    def test_spectral_dirichlet_closed_form(self):
        # (8/pi) sum_odd k^-4 = (8/pi)(pi^4/96) = pi^3/12
        basis = basis_for(1, DIRICHLET, n=512)
        got = SpectralKernel(theta=1.0, a=0.0).double_integral(basis)
        assert got == pytest.approx(PI**3 / 12, rel=5e-3)

    def test_riesz_d3_vs_monte_carlo_oracle(self):
        got = riesz_double_integral(1.0, 3, PI)
        rng = np.random.default_rng(2024)
        npts = 400_000
        X = rng.uniform(0, PI, size=(npts, 3))
        Y = rng.uniform(0, PI, size=(npts, 3))
        vals = np.sum((X - Y) ** 2, axis=1) ** -0.5
        oracle = PI**6 * vals.mean()
        assert abs(got - oracle) / oracle < 0.01

    def test_riesz_d1_vs_monte_carlo_oracle(self):
        alpha = 0.3
        got = riesz_double_integral(alpha, 1, PI)
        rng = np.random.default_rng(7)
        npts = 400_000
        X = rng.uniform(0, PI, size=npts)
        Y = rng.uniform(0, PI, size=npts)
        oracle = PI**2 * np.mean(np.abs(X - Y) ** -alpha)
        assert abs(got - oracle) / oracle < 0.01

    @pytest.mark.parametrize("alpha, d, value", [
        (1.0, 3, "2.3800773700971765"),
        (0.5, 3, "1.5085789646495325"),
        (1.3, 3, "3.2260030107172795"),
        (1.9, 3, "6.645795245331097"),
        (0.7, 2, "2.2850340058936496"),
        (0.5, 1, "2.8284271247461903"),
    ])
    def test_unit_cell_mean_values_are_pinned(self, alpha, d, value):
        # the 64^d midpoint sum on broadcast axes gives these values bit for
        # bit; the Riesz variance and double integral rest on them
        assert repr(_unit_cell_mean.__wrapped__(alpha, d)) == value

    @pytest.mark.parametrize("alpha, d, value", [
        (1.0, 3, "2.3800773700971765"),
        (0.3, 3, "1.274037155465461"),
        (0.5, 3, "1.5085789646495325"),
        (1.4, 3, "3.594413773909659"),
        (0.7, 2, "2.2850340058936496"),
    ])
    def test_unit_cell_mean_is_the_full_grid_sum(self, alpha, d, value):
        # the octant mirrored into the full grid is the array the 64^d
        # midpoint sum of the whole cell adds up, so the sums agree bit for
        # bit with the one written out here
        axes = (np.arange(64) + 0.5) / 64 - 0.5
        grids = np.meshgrid(*([axes] * d), indexing="ij", sparse=True)
        r2 = sum(g**2 for g in grids)
        inside_half = functools.reduce(operator.and_, (np.abs(g) < 0.25 for g in grids))
        annulus = np.where(inside_half, 0.0, r2 ** (-alpha / 2.0))
        full = float(np.sum(annulus)) * (1.0 / 64) ** d / (1.0 - 2.0 ** (alpha - d))
        assert repr(_unit_cell_mean.__wrapped__(alpha, d)) == repr(full) == value

    @pytest.mark.parametrize("alpha, d, value", [
        (1.0, 3, "575.80459515752"),
        (0.5, 3, "717.4883983258608"),
        (1.4, 3, "520.2011691060655"),
        (0.7, 2, "86.73828850994722"),
        (0.3, 1, "11.764851685440236"),
    ])
    def test_double_integral_values_are_pinned(self, alpha, d, value):
        # the 48^d midpoint sums of the shells on broadcast axes give these
        # values bit for bit, as the full grids they replaced did
        assert repr(riesz_double_integral(alpha, d, PI)) == value

    def test_white_noise_has_no_double_integral(self):
        basis = basis_for(1, NEUMANN, n=16)
        with pytest.raises(ValueError):
            WhiteNoise().double_integral(basis)


class TestSampler:
    def test_zero_dt_gives_zero_field(self):
        basis = basis_for(1, DIRICHLET, n=16)
        rng = np.random.default_rng(0)
        for spec in (SpectralKernel(0.25, 0.0), RieszKernel(0.3), WhiteNoise()):
            if isinstance(spec, WhiteNoise):
                basis_w = basis_for(1, NEUMANN, n=16)
                values = make_sampler(spec, basis_w).sample_values(0.0, rng)
            else:
                values = make_sampler(spec, basis).sample_values(0.0, rng)
            assert np.all(values == 0)

    def test_spectral_variance_matches_series(self):
        basis = basis_for(1, DIRICHLET, n=64)
        spec = SpectralKernel(theta=0.25, a=0.0)
        samp = make_sampler(spec, basis)
        dt = 0.01
        rng = np.random.default_rng(42)
        draws = samp.sample_batch(dt, rng, 100_000)
        j = 17
        x = basis.axis_points[j]
        var_emp = draws[:, j].var()
        var_true = spec.kernel(basis, [x], [x]) * dt
        se = var_true * math.sqrt(2 / draws.shape[0])
        assert abs(var_emp - var_true) < 3 * se

    def test_riesz_covariance_matches_kernel_at_pairs(self):
        basis = basis_for(1, NEUMANN, n=16)
        spec = RieszKernel(0.3)
        samp = make_sampler(spec, basis)
        dt = 0.05
        rng = np.random.default_rng(43)
        draws = samp.sample_batch(dt, rng, 100_000)
        cov = lambda i, j: riesz_covariance_entry(spec, basis, i, j) * dt
        pair_rng = np.random.default_rng(99)
        for _ in range(10):
            i, j = pair_rng.integers(0, draws.shape[1], size=2)
            emp = np.mean(draws[:, i] * draws[:, j])
            true = cov(i, j)
            vi = cov(i, i)
            vj = cov(j, j)
            se = math.sqrt((true**2 + vi * vj) / draws.shape[0])
            assert abs(emp - true) < 3 * se, (i, j)

    def test_riesz_d3_smoke_covariance(self):
        basis = basis_for(3, NEUMANN, n=8)
        spec = RieszKernel(1.0)
        samp = make_sampler(spec, basis)
        assert samp.clipped_fraction < 1e-8
        dt = 0.1
        rng = np.random.default_rng(44)
        draws = samp.sample_batch(dt, rng, 20_000)
        flat = draws.reshape(draws.shape[0], -1)
        i, j = 10, 200
        cov = lambda i, j: riesz_covariance_entry(spec, basis, i, j) * dt
        true = cov(i, j)
        vi, vj = cov(i, i), cov(j, j)
        se = math.sqrt((true**2 + vi * vj) / flat.shape[0])
        assert abs(np.mean(flat[:, i] * flat[:, j]) - true) < 3 * se

    def test_white_noise_cell_variance(self):
        basis = basis_for(1, NEUMANN, n=32)
        samp = make_sampler(WhiteNoise(), basis)
        dt = 0.02
        rng = np.random.default_rng(45)
        draws = samp.sample_batch(dt, rng, 50_000)
        var_true = dt / basis.h
        var_emp = draws[:, 5].var()
        se = var_true * math.sqrt(2 / draws.shape[0])
        assert abs(var_emp - var_true) < 3 * se
        # cells independent
        corr = np.mean(draws[:, 5] * draws[:, 6]) / var_true
        assert abs(corr) < 3 / math.sqrt(draws.shape[0])

    def test_increments_have_zero_mean(self):
        basis = basis_for(1, DIRICHLET, n=32)
        samp = make_sampler(SpectralKernel(0.25, 0.0), basis)
        draws = samp.sample_batch(0.1, np.random.default_rng(46), 50_000)
        sd = draws[:, 10].std()
        assert abs(draws[:, 10].mean()) < 3 * sd / math.sqrt(draws.shape[0])

    def test_riesz_qv_quadrature_exact_small_grid(self):
        basis = basis_for(1, NEUMANN, n=32)
        spec = RieszKernel(0.3)
        samp = make_sampler(spec, basis)
        f = np.sin(basis.axis_points) + 1.5
        direct = basis.h**2 * f @ riesz_covariance(spec, basis) @ f
        assert samp.qv_form(f) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN, PERIODIC])
    @pytest.mark.parametrize("d, alpha", [(1, 0.3), (2, 0.5), (3, 1.0)])
    def test_circulant_embedding_is_exact(self, d, alpha, bc):
        # the batch of all M^d unit normals gives Y.T @ Y = the sampled
        # covariance exactly, with no Monte Carlo error
        basis = basis_for(d, bc, n=8)
        spec = RieszKernel(alpha)
        samp = make_sampler(spec, basis)
        assert samp.clipped_fraction == 0.0
        count = math.prod(samp.normal_shape)
        Y = samp.sample_batch(1.0, IdentityNormals(), count).reshape(count, -1)
        C = riesz_covariance(spec, basis)
        assert np.max(np.abs(Y.T @ Y - C) / C) < 1e-12
        f = 1.5 + np.sin(sum(grid_coordinates(basis)))
        direct = basis.cell_volume**2 * f.ravel() @ C @ f.ravel()
        assert samp.qv_form(f) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("d, spec", SAMPLER_CASES,
                             ids=[f"{d}d-{s.variant}" for d, s in SAMPLER_CASES])
    def test_batch_rows_equal_single_draws(self, d, spec, monkeypatch):
        # a batch spanning several chunks (the last one short) draws the
        # same normals in the same order as single draws
        samp = make_sampler(spec, basis_for(d, NEUMANN, n=16))
        monkeypatch.setattr(noise, "_CHUNK_NORMALS", 39 * math.prod(samp.normal_shape))
        chunks = []

        class ChunkSpy:
            inner = np.random.default_rng(3)

            def standard_normal(self, shape):
                chunks.append(shape[0])
                return self.inner.standard_normal(shape)

        batch = samp.sample_batch(0.1, ChunkSpy(), 90)
        assert chunks == [39, 39, 12]
        rng = np.random.default_rng(3)
        rows = np.stack([samp.sample_values(0.1, rng) for _ in range(90)])
        assert np.array_equal(batch, rows)

    def test_clipped_spectrum_is_logged_and_shared_by_qv(self, caplog):
        # d = 3 with alpha well below 1: the embedding's spectrum has a small
        # negative part, clipped at zero
        basis = basis_for(3, NEUMANN, n=8)
        spec = RieszKernel(0.3)
        with caplog.at_level("WARNING", logger="stochheat.noise"):
            samp = make_sampler(spec, basis)
        assert 0.0 < samp.clipped_fraction < 0.01
        warnings = [r for r in caplog.records if r.name == "stochheat.noise"]
        assert len(warnings) == 1
        assert f"{samp.clipped_fraction:.3g}" in warnings[0].getMessage()
        assert np.all(samp.spectrum >= 0)
        count = math.prod(samp.normal_shape)
        Y = samp.sample_batch(1.0, IdentityNormals(), count).reshape(count, -1)
        sampled = Y.T @ Y
        C = riesz_covariance(spec, basis)
        assert np.max(np.abs(sampled - C) / C) < 0.01
        # qv_form is the quadratic form of the covariance actually sampled
        f = 1.5 + np.sin(sum(grid_coordinates(basis)))
        exact = basis.cell_volume**2 * f.ravel() @ sampled @ f.ravel()
        assert samp.qv_form(f) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("alpha, embed_len", [
        (0.1, 15), (0.3, 15), (0.5, 15), (1.0, 14), (1.2, 14), (1.4, 14)])
    def test_dense_torus_clips_no_more_than_the_fast_length(self, alpha, embed_len):
        # the dense 8^3 torus embeds in 2g - 2 = 14 points where that clips
        # no mass, else in the fast FFT length 15: it never clips more
        basis = basis_for(3, NEUMANN, n=8)
        samp = make_sampler(RieszKernel(alpha), basis)
        fast = _smooth_len(14)
        _, fast_fraction = _clip_spectrum(
            scipy_riesz_row_spectrum(RieszKernel(alpha), basis, fast), fast)
        assert samp.clipped_fraction <= fast_fraction
        assert samp._embed_len == embed_len
        assert samp.normal_shape == (embed_len,) * 3
        # the cached spectrum is shared by every sampler of the process
        assert not samp.spectrum.flags.writeable

    @pytest.mark.parametrize("d, spec, n", [(d, s, 16) for d, s in SAMPLER_CASES]
                             + [(3, RieszKernel(1.0), 8)],
                             ids=[f"{d}d-{s.variant}" for d, s in SAMPLER_CASES] + ["3d-dense"])
    def test_kernel_names_its_samplers_normal_shape(self, d, spec, n):
        # config_hash reads the layout from the kernel, without a sampler
        basis = basis_for(d, NEUMANN, n=n)
        assert spec.normal_shape(basis.spec) == make_sampler(spec, basis).normal_shape

    def test_factorization_failure_raises(self):
        lam = np.array([3.0, -1.0])  # torus of 2 points: eigenvalues 3, -1
        with pytest.raises(FactorizationError):
            _clip_spectrum(lam, 2)

    def test_factorization_clips_small_negatives(self):
        # a symmetric spectrum on the M x M torus, lam[k] = lam[-k], with
        # small negative entries inside the half spectrum and on its last
        # column; the fraction from the half spectrum equals the full one
        rng = np.random.default_rng(5)
        for M in (6, 7):
            full = rng.uniform(0.5, 1.5, size=(M, M))
            full = (full + np.roll(full[::-1, ::-1], 1, axis=(0, 1))) / 2
            for i, j in ((1, 2), (0, M // 2)):
                full[i, j] = full[-i, -j] = -0.002
            half = full[:, : M // 2 + 1]
            neg = -np.sum(np.clip(full, None, 0.0))
            clipped, frac = _clip_spectrum(half, M)
            assert frac == pytest.approx(neg / np.sum(np.abs(full)), rel=1e-12)
            assert np.array_equal(clipped, np.clip(half, 0.0, None))


class TestRieszOnNumpyFFT:
    """The Riesz sampler's numpy.fft transforms give scipy.fft's values bit
    for bit, so every Riesz output byte on those tori is that of the scipy
    sampler.  The torus of a grid of three axes of at most 8 points maps by
    products with its real cosine-sine basis instead, and equals scipy's
    DCT-I and DST-I, or the modes' formula at odd lengths, at round-off."""

    # (d, alpha): a valid Riesz exponent per dimension; d = 3 also clips
    KERNELS = [(1, 0.3), (2, 0.7), (3, 1.0), (3, 0.3)]

    @pytest.mark.parametrize("d, alpha", KERNELS)
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_transforms_equal_scipy_bitwise(self, d, alpha, n, bc, rows):
        basis = basis_for(d, bc, n=n)
        spec = RieszKernel(alpha)
        samp = make_sampler(spec, basis)
        assert samp.spectrum.tobytes() == scipy_riesz_spectrum(
            spec, basis, samp._embed_len).tobytes()
        # the dense tori: 8 points per axis or fewer, in d = 3
        dense = samp._dft is not None
        assert dense == (d == 3 and n == 8)
        increments, qv_form = ((scipy_dense_increments, scipy_dense_qv_form) if dense
                               else (scipy_riesz_increments, scipy_riesz_qv_form))

        def assert_equal(got, want, terms):
            # bit for bit on the FFT path; on the dense path within 1e-14 of
            # the summed magnitudes of the terms each value adds up, as the
            # sine and cosine transforms are checked against scipy
            if dense:
                assert np.all(np.abs(got - want) <= 1e-14 * terms)
            else:
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

        rng = np.random.default_rng(100 * d + n + rows)
        # the stepping core passes one step of a chunk: a strided view
        z = rng.standard_normal((rows, 3) + samp.normal_shape)[:, 1]
        for dt in (5e-4, 1.0):
            got = samp.increments(dt, z)
            assert got.flags.c_contiguous
            if dense:
                # each value sums the scaled normals, times modes of at most 1
                terms = np.sum(np.abs(z) * (math.sqrt(dt) * samp._scales),
                               axis=basis.field_axes)
            else:
                # each value sums the scaled half spectrum, twice over on the
                # interior columns, at unit phases
                spectrum = z.view(complex)[..., 0] * (math.sqrt(dt) * samp._scales)
                terms = 2 * np.sum(np.abs(spectrum), axis=basis.field_axes)
            assert_equal(got, increments(samp, dt, z), terms.reshape((rows,) + (1,) * d))
        f = 0.5 + rng.random((rows,) + basis.grid_shape)
        # Parseval's sum of qv weights times |F_k|^2, each |F_k| at most the
        # sum of |f|
        terms = np.sum(samp._qv_weights) * basis.field_sum(np.abs(f)) ** 2
        assert_equal(samp.qv_form(f), qv_form(samp, f), terms)
        # one field, not a batch, gives a float
        one = samp.qv_form(f[0])
        assert isinstance(one, float)
        assert_equal(one, qv_form(samp, f[0]), terms[0])

    # each side of the dense cutoff: tori of 15 points per axis map by
    # products in d = 3, tori of 30 points and every 1-d and 2-d torus by FFT
    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("d, n", [(1, 8), (2, 8), (2, 16), (3, 8), (3, 16)])
    def test_row_does_not_depend_on_batch_or_position(self, d, n, bc):
        samp = make_sampler(RieszKernel({1: 0.3, 2: 0.7, 3: 1.0}[d]), basis_for(d, bc, n=n))
        assert (samp._dft is not None) == (d == 3 and n == 8)
        rng = np.random.default_rng(10 * d + n)
        z = rng.standard_normal(samp.normal_shape)
        f = 0.5 + rng.random(samp.basis.grid_shape)
        alone = samp.increments(5e-4, z[np.newaxis])[0].tobytes(), samp.qv_form(f)
        for rows in (1, 2, 9, 20):
            for at in sorted({0, rows // 2, rows - 1}):
                batch_z = rng.standard_normal((rows,) + samp.normal_shape)
                batch_f = 0.5 + rng.random((rows,) + samp.basis.grid_shape)
                batch_z[at], batch_f[at] = z, f
                assert samp.increments(5e-4, batch_z)[at].tobytes() == alone[0]
                assert samp.qv_form(batch_f)[at] == alone[1]

    def test_transforms_do_not_keep_state_between_calls(self):
        # the workspaces are reused: a call with fewer rows, or the other
        # method in between, leaves the next call's values unchanged
        samp = make_sampler(RieszKernel(1.0), basis_for(3, NEUMANN, n=8))
        rng = np.random.default_rng(9)
        z = rng.standard_normal((6,) + samp.normal_shape)
        f = 0.5 + rng.random((6,) + samp.basis.grid_shape)
        first = samp.increments(1e-3, z), samp.qv_form(f)
        samp.qv_form(f[:2])
        samp.increments(1e-3, z[:3])
        again = samp.increments(1e-3, z), samp.qv_form(f)
        assert first[0].tobytes() == again[0].tobytes()
        assert first[1].tobytes() == again[1].tobytes()

    def test_smooth_length_is_scipys_next_fast_len(self):
        import scipy.fft

        assert [_smooth_len(n) for n in range(1, 4097)] == [
            scipy.fft.next_fast_len(n, real=True) for n in range(1, 4097)]


class TestVerifyDecay:
    def test_spectral_d2_expected_slope(self):
        basis = basis_for(2, DIRICHLET, n=256)
        report = verify_decay(SpectralKernel(theta=0.75, a=0.0), basis)
        assert report.expected_eta == pytest.approx(0.25)
        assert report.fitted_slope == pytest.approx(-0.25, abs=0.1)
        assert report.passed

    def test_spectral_d1_expected_slope(self):
        basis = basis_for(1, DIRICHLET, n=512)
        report = verify_decay(SpectralKernel(theta=0.25, a=0.0), basis)
        assert report.fitted_slope == pytest.approx(-0.25, abs=0.1)

    def test_white_noise_slope_is_beta(self):
        basis = basis_for(1, NEUMANN, n=1024)
        report = verify_decay(WhiteNoise(), basis)
        assert report.fitted_slope == pytest.approx(-0.5, abs=0.01)

    def test_riesz_quadrature_slope(self):
        basis = basis_for(1, NEUMANN, n=256)
        report = verify_decay(RieszKernel(0.3), basis, t_grid=np.logspace(-4, -2.5, 12))
        assert report.expected_eta == pytest.approx(0.15)
        assert report.fitted_slope == pytest.approx(-0.15, abs=0.1)

    def test_large_t_grid_rejected(self):
        basis = basis_for(1, DIRICHLET, n=64)
        with pytest.raises(DecayFitError):
            verify_decay(SpectralKernel(0.25, 0.0), basis, t_grid=np.linspace(1, 4, 10))

    def test_report_serializes(self):
        basis = basis_for(1, DIRICHLET, n=128)
        report = verify_decay(SpectralKernel(0.25, 0.0), basis)
        d = report.to_dict()
        assert set(d) == {
            "variant", "d", "theta", "alpha", "a",
            "fitted_slope", "expected_eta", "fitted_C", "residual",
        }
        assert d["variant"] == "spectral"


SCIPY_IMPORT_CHECK = textwrap.dedent("""
    import sys
    import stochheat as sh

    def scipy_loaded():
        return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

    assert not scipy_loaded(), f"import stochheat loaded {scipy_loaded()}"
    for kernel, boundary in ((sh.WhiteNoise(), "neumann"), (sh.SpectralKernel(0.25), "dirichlet")):
        config = sh.SimConfig(
            domain=sh.DomainSpec(1, boundary, 16), noise=kernel,
            sigma=sh.SigmaSpec(1.0, 1.5, 64.0), dt=1e-3, horizon=5e-3,
            mass_bound=1e12, paths=2, init_value=1.0)
        sh.run_batch(sh.build_context(config), [0, 1])
    config = sh.SimConfig(
        domain=sh.DomainSpec(3, "neumann", 8), noise=sh.RieszKernel(1.0),
        sigma=sh.SigmaSpec(1.0, 1.1, 64.0), dt=1e-3, horizon=3e-3,
        mass_bound=1e12, paths=2, init_value=1.0)
    sh.run_batch(sh.build_context(config), [0, 1])
    for kernel in (sh.SpectralKernel(0.25), sh.RieszKernel(0.25)):
        sh.convolution_moment_probe(
            sh.build_basis(sh.DomainSpec(1, "dirichlet", 16)), kernel,
            p=20, T_grid=[2e-3], paths=4, dt=1e-3, batches=2)
    assert not scipy_loaded(), f"runs and probes loaded {scipy_loaded()}"
""")


def test_no_run_loads_scipy():
    # scipy is a test dependency only: no run, Riesz noise included, pays
    # for its import
    src = str(Path(stochheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCIPY_IMPORT_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestStructure:
    """noise.py is the one module that tells kernels and samplers apart by
    type; elsewhere their methods and attributes answer."""

    def test_no_other_module_tests_kernel_or_sampler_types(self):
        classes = {name for name, obj in vars(noise).items() if isinstance(obj, type)
                   and issubclass(obj, (noise._Kernel, noise._Sampler))}
        assert {"SpectralKernel", "RieszSampler"} <= classes

        def names_class(node):
            return any((isinstance(n, ast.Name) and n.id in classes)
                       or (isinstance(n, ast.Attribute) and n.attr in classes)
                       for n in ast.walk(node))

        found = [
            (module.name, node.lineno)
            for module in sorted(Path(noise.__file__).parent.glob("*.py"))
            if module.name != "noise.py"
            for node in ast.walk(ast.parse(module.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and names_class(node.args[1])
        ]
        assert found == []
