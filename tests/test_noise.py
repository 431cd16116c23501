"""Covariance kernels, derived exponents and sampler checks.

Independent oracles: closed-form eigenvalue series for the spectral kernel
(sum over odd k of k^-2 and k^-4), a brute-force Monte Carlo quadrature for
the Riesz double integral, and Monte Carlo covariance estimates against the
kernel values.
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
    _factor_covariance,
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
        pair_rng = np.random.default_rng(99)
        for _ in range(10):
            i, j = pair_rng.integers(0, samp.n_points, size=2)
            emp = np.mean(draws[:, i] * draws[:, j])
            true = samp.matrix[i, j] * dt
            vi = samp.matrix[i, i] * dt
            vj = samp.matrix[j, j] * dt
            se = math.sqrt((true**2 + vi * vj) / draws.shape[0])
            assert abs(emp - true) < 3 * se, (i, j)

    def test_riesz_d3_smoke_covariance(self):
        basis = basis_for(3, NEUMANN, n=8)
        samp = make_sampler(RieszKernel(1.0), basis)
        assert samp.clipped_fraction < 1e-8
        dt = 0.1
        rng = np.random.default_rng(44)
        draws = samp.sample_batch(dt, rng, 20_000)
        flat = draws.reshape(draws.shape[0], -1)
        i, j = 10, 200
        true = samp.matrix[i, j] * dt
        vi, vj = samp.matrix[i, i] * dt, samp.matrix[j, j] * dt
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
        samp = make_sampler(RieszKernel(0.3), basis)
        assert samp._qv_exact
        f = np.sin(basis.axis_points) + 1.5
        direct = basis.h**2 * f @ samp.matrix @ f
        assert samp.qv_form(f) == pytest.approx(direct, rel=1e-12)

    def test_riesz_qv_subsampled_unbiased(self):
        # d=2 grid squared exceeds the pair budget, forcing subsampling
        basis = basis_for(2, NEUMANN, n=32)
        samp = make_sampler(RieszKernel(0.5, ), basis)
        assert not samp._qv_exact
        X, Y = basis.grid_coordinates()
        f = np.sin(X) * np.sin(Y) + 1.2
        exact = basis.cell_volume**2 * f.ravel() @ samp.matrix @ f.ravel()
        est = samp.qv_form(f)
        assert est == pytest.approx(exact, rel=0.1)
        # averaging estimates over independent pair sets tightens the match
        from stochheat.noise import RieszSampler
        ests = [
            RieszSampler(RieszKernel(0.5), basis, qv_pair_seed=s).qv_form(f)
            for s in range(5)
        ]
        assert np.mean(ests) == pytest.approx(exact, rel=0.05)

    def test_factorization_failure_raises(self):
        C = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(FactorizationError):
            _factor_covariance(C)

    def test_factorization_clips_small_negatives(self):
        C = np.diag([1.0, 1e-9])
        C[0, 1] = C[1, 0] = 1e-6  # slightly indefinite
        factor, frac = _factor_covariance(C)
        assert frac < 0.01
        approx = factor @ factor.T
        assert np.all(np.linalg.eigvalsh(approx) >= -1e-15)


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
