"""Covariance kernels, derived exponents and sampler checks.

Independent oracles: closed-form eigenvalue series for the spectral kernel
(sum over odd k of k^-2 and k^-4), a brute-force Monte Carlo quadrature for
the Riesz double integral, Monte Carlo covariance estimates against the
kernel values, and an exact check of the circulant-embedding Riesz sampler:
fed the unit vectors as its normals, it must reproduce the dense covariance
built from the kernel's definition.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochheat.spectral import DIRICHLET, NEUMANN, PERIODIC, DomainSpec, build_basis
from stochheat.noise import (
    DecayFitError,
    FactorizationError,
    KernelValidationError,
    RieszKernel,
    SpectralKernel,
    WhiteNoise,
    _clip_spectrum,
    _unit_cell_mean,
    critical_exponent,
    double_integral,
    kernel_eval,
    kernel_params,
    make_sampler,
    riesz_double_integral,
    verify_decay,
)

PI = math.pi


def basis_for(d=1, bc=DIRICHLET, n=64, **kw):
    return build_basis(DomainSpec(d, bc, n, **kw))


def riesz_covariance(spec, basis):
    """Dense grid covariance of the Riesz kernel from its definition:
    |x-y|^(-alpha) off the diagonal, the kernel's cell mean on it."""
    pts = np.stack([g.ravel() for g in basis.grid_coordinates()], axis=1)
    r = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(r, 1.0)
    C = r ** (-spec.alpha)
    np.fill_diagonal(C, _unit_cell_mean(spec.alpha, basis.dimension)
                     * basis.h ** (-spec.alpha))
    return C


def riesz_covariance_entry(spec, basis, i, j):
    """One entry of the grid covariance: kernel_eval off the diagonal."""
    if i == j:
        return _unit_cell_mean(spec.alpha, basis.dimension) * basis.h ** (-spec.alpha)
    pts = [g.ravel() for g in basis.grid_coordinates()]
    return kernel_eval(spec, basis, [p[i] for p in pts], [p[j] for p in pts])


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
        assert kernel_params(RieszKernel(1.0), 3) == (1.5, 0.5)

    def test_spectral_eta_zero_rejected(self):
        with pytest.raises(KernelValidationError):
            kernel_params(SpectralKernel(theta=1.0, a=0.0), 2)

    def test_spectral_d2(self):
        assert kernel_params(SpectralKernel(theta=0.75, a=0.0), 2) == (1.0, 0.25)

    def test_white_noise_regime(self):
        assert kernel_params(WhiteNoise(), 1) == (0.5, 0.5)

    def test_grid_independence(self):
        # pure arithmetic: no grid resolution enters
        beta, eta = kernel_params(SpectralKernel(theta=0.25, a=0.0), 1)
        assert critical_exponent(beta, eta) == critical_exponent(*kernel_params(
            SpectralKernel(theta=0.25, a=0.0), 1))


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
        assert kernel_eval(RieszKernel(1.0), basis, x, y) == pytest.approx(2 / PI)

    def test_riesz_diagonal_singular(self):
        basis = basis_for(3, NEUMANN, n=8)
        with pytest.raises(ValueError):
            kernel_eval(RieszKernel(1.0), basis, [1, 1, 1], [1, 1, 1])

    def test_spectral_closed_form_series(self):
        # Gamma(1) sum_k k^-2 (2/pi) sin^2(k pi/2) = (2/pi)(pi^2/8) = pi/4
        basis = basis_for(1, DIRICHLET, n=1024)
        val = kernel_eval(SpectralKernel(theta=1.0, a=0.0), basis, [PI / 2], [PI / 2])
        assert val == pytest.approx(PI / 4, abs=1e-3)

    def test_spectral_large_theta_leading_term(self):
        basis = basis_for(1, DIRICHLET, n=32)
        theta = 40.0
        spec = SpectralKernel(theta=theta, a=0.0)
        x, y = [1.2], [2.1]
        lead = math.gamma(theta) * 1.0 ** (-theta) * (
            basis.eigenfunction((1,), x) * basis.eigenfunction((1,), y)
        )
        assert kernel_eval(spec, basis, x, y) == pytest.approx(lead, rel=1e-9)

    def test_white_noise_not_pointwise(self):
        basis = basis_for(1, NEUMANN, n=16)
        with pytest.raises(ValueError):
            kernel_eval(WhiteNoise(), basis, [1.0], [2.0])

    def test_spectral_diagonal_positive_and_residue_bounded(self):
        basis = basis_for(1, DIRICHLET, n=128)
        samp = make_sampler(SpectralKernel(theta=0.25, a=0.0), basis)
        xs = basis.axis_points[::8]
        vals = np.array([[samp.kernel([x], [y]) for y in xs] for x in xs])
        assert np.all(np.diag(vals) > 0)
        # off-diagonal truncation residue stays above the reported scale
        assert vals.min() >= -samp.truncation_scale()

    def test_riesz_strictly_positive(self):
        basis = basis_for(1, NEUMANN, n=32)
        spec = RieszKernel(0.3)
        for dx in (0.1, 1.0, 3.0):
            assert kernel_eval(spec, basis, [0.1], [0.1 + dx]) > 0


class TestDoubleIntegral:
    def test_spectral_neumann_only_zero_mode(self):
        basis = basis_for(2, NEUMANN, n=16)
        theta, a = 0.6, 0.7
        got = double_integral(SpectralKernel(theta=theta, a=a), basis)
        assert got == pytest.approx(math.gamma(theta) * a ** (-theta) * PI**2, rel=1e-12)

    def test_spectral_dirichlet_closed_form(self):
        # (8/pi) sum_odd k^-4 = (8/pi)(pi^4/96) = pi^3/12
        basis = basis_for(1, DIRICHLET, n=512)
        got = double_integral(SpectralKernel(theta=1.0, a=0.0), basis)
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

    def test_white_noise_has_no_double_integral(self):
        basis = basis_for(1, NEUMANN, n=16)
        with pytest.raises(ValueError):
            double_integral(WhiteNoise(), basis)


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
        var_true = samp.kernel([x], [x]) * dt
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
        count = math.prod(samp.embed_shape)
        Y = samp.sample_batch(1.0, IdentityNormals(), count).reshape(count, -1)
        C = riesz_covariance(spec, basis)
        assert np.max(np.abs(Y.T @ Y - C) / C) < 1e-12
        f = 1.5 + np.sin(sum(basis.grid_coordinates()))
        direct = basis.cell_volume**2 * f.ravel() @ C @ f.ravel()
        assert samp.qv_form(f) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("d, alpha", [(1, 0.3), (3, 1.0)])
    def test_riesz_batch_rows_equal_single_draws(self, d, alpha):
        # chunked batches draw the same normals in the same order
        samp = make_sampler(RieszKernel(alpha), basis_for(d, NEUMANN, n=16))
        batch = samp.sample_batch(0.1, np.random.default_rng(3), 90)
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
        count = math.prod(samp.embed_shape)
        Y = samp.sample_batch(1.0, IdentityNormals(), count).reshape(count, -1)
        sampled = Y.T @ Y
        C = riesz_covariance(spec, basis)
        assert np.max(np.abs(sampled - C) / C) < 0.01
        # qv_form is the quadratic form of the covariance actually sampled
        f = 1.5 + np.sin(sum(basis.grid_coordinates()))
        exact = basis.cell_volume**2 * f.ravel() @ sampled @ f.ravel()
        assert samp.qv_form(f) == pytest.approx(exact, rel=1e-12)

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
