"""Truncated-coefficient stepping: degenerations, mass identities, stops.

The discrete mass identity (integral u = I + clamped mass) is structural
for Neumann/periodic conditions and is asserted per step at round-off
level; the Dirichlet domination is checked in distribution.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochheat import stepping
from stochheat.config import SimConfig
from stochheat.spectral import (
    BOUNDARY_CONDITIONS,
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    DomainSpec,
    build_basis,
)
from stochheat.noise import (
    RieszKernel,
    SpectralKernel,
    WhiteNoise,
    double_integral,
    make_sampler,
)
from stochheat.stepping import (
    STOP_HORIZON,
    STOP_TAU_M,
    STOP_TAU_N,
    SigmaSpec,
    Stepper,
    TrajectoryError,
    TrajectoryRecord,
    build_context,
    initial_field,
    path_rng,
    run_batch,
    run_trajectory,
    sigma_eval,
)

PI = math.pi


def make_config(**overrides):
    base = dict(
        domain=DomainSpec(1, NEUMANN, 64),
        noise=WhiteNoise(),
        sigma=SigmaSpec(scale=1.0, growth=1.5, truncation=64.0),
        dt=2e-4,
        horizon=0.02,
        mass_bound=1e12,
        init_kind="constant",
        init_value=2.0,
    )
    base.update(overrides)
    return SimConfig(**base)


def admissible_kernels(d):
    """One kernel of each family admissible in dimension d, any boundary."""
    kernels = [SpectralKernel(theta=0.75, a=1.0), RieszKernel(alpha=min(2.0, d / 2) / 2)]
    return kernels + [WhiteNoise()] if d == 1 else kernels


class TestSigmaEval:
    def test_clamp_then_power(self):
        spec = SigmaSpec(scale=1.0, growth=1.5, truncation=4.0)
        assert sigma_eval(spec, 9.0) == pytest.approx(8.0)

    def test_zero_at_zero(self):
        for spec in (SigmaSpec(1, 1.5, 4), SigmaSpec(3, 2.0, 10)):
            assert sigma_eval(spec, 0.0) == 0.0

    def test_negative_branch_is_zero(self):
        spec = SigmaSpec(scale=1.0, growth=1.5, truncation=4.0)
        assert sigma_eval(spec, -1.0) == 0.0

    def test_vectorized(self):
        spec = SigmaSpec(scale=2.0, growth=2.0, truncation=3.0)
        u = np.array([-1.0, 0.0, 1.0, 3.0, 10.0])
        out = sigma_eval(spec, u)
        assert np.allclose(out, [0.0, 0.0, 2.0, 18.0, 18.0])

    def test_regime_labels(self):
        spec = SigmaSpec(scale=1.0, growth=1.5, truncation=4.0)
        assert spec.regime(1.5) == "paper regime"
        assert spec.regime(1.4) == "conjectured explosive regime"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SigmaSpec(scale=-1.0, growth=1.5, truncation=4.0)
        with pytest.raises(ValueError):
            SigmaSpec(scale=1.0, growth=1.5, truncation=0.0)


class TestStep:
    def setup_method(self):
        self.basis = build_basis(DomainSpec(1, NEUMANN, 64))
        self.kernel = SpectralKernel(theta=0.25, a=1.0)
        self.sampler = make_sampler(self.kernel, self.basis)
        self.dt = 1e-3

    def heat_flow(self, u):
        return self.basis.to_grid(self.basis.semigroup(self.basis.to_spectral(u), self.dt))

    def test_zero_sigma_reduces_to_heat_flow(self):
        sigma = SigmaSpec(scale=0.0, growth=1.5, truncation=10.0)
        stepper = Stepper(self.basis, sigma, self.sampler, self.dt)
        u = 1.0 + np.sin(2 * self.basis.axis_points) ** 2
        dW = self.sampler.sample_values(self.dt, path_rng(1))
        u_new, dI, dQ, dclamp, finite = stepper.step(u[np.newaxis], dW[np.newaxis])
        assert np.allclose(u_new[0], self.heat_flow(u), atol=1e-12)
        assert self.basis.integrate(u_new[0]) == pytest.approx(
            self.basis.integrate(u), rel=1e-12)
        assert dI.tolist() == [0.0] and dQ.tolist() == [0.0]
        assert finite.tolist() == [True]

    def test_zero_increment_keeps_I_and_Q(self):
        sigma = SigmaSpec(scale=1.0, growth=1.5, truncation=10.0)
        stepper = Stepper(self.basis, sigma, self.sampler, self.dt)
        u = np.full((1,) + self.basis.grid_shape, 2.0)
        u_new, dI, dQ, dclamp, finite = stepper.step(u, np.zeros_like(u))
        assert dI.tolist() == [0.0]
        # Q accrues the quadrature of sigma even with a zero draw: it is the
        # predictable bracket, not the realized increment
        assert dQ[0] == pytest.approx(self.dt * self.sampler.qv_form(sigma_eval(sigma, u[0])))
        assert np.allclose(u_new[0], self.heat_flow(u[0]), atol=1e-12)

    def test_dt_heuristic_documented(self):
        sigma = SigmaSpec(scale=1.0, growth=1.5, truncation=10.0)
        stepper = Stepper(self.basis, sigma, self.sampler, self.dt)
        assert stepper.dt_heuristic == pytest.approx(0.5 / self.basis.alpha_max)

    def test_I_increment_variance_matches_double_integral(self):
        # constant field, sigma constant: dI = h sigma sum dW, whose variance
        # is sigma^2 dt * double integral of the kernel
        sigma_val = 3.0
        dt = 0.01
        draws = 100_000
        rng = path_rng(123)
        batch = self.sampler.sample_batch(dt, rng, draws)
        increments = sigma_val * self.basis.cell_volume * batch.sum(axis=1)
        var_true = sigma_val**2 * dt * double_integral(self.kernel, self.basis)
        var_emp = increments.var()
        se = var_true * math.sqrt(2.0 / draws)
        assert abs(var_emp - var_true) < 3 * se


def reference_step(stepper, u, dW):
    """One step of one path on single fields, with the single-field
    transforms and whole-array sums."""
    basis = stepper.basis
    f = sigma_eval(stepper.sigma, u)
    I_inc = basis.cell_volume * float(np.sum(f * dW))
    Q_inc = stepper.dt * stepper.sampler.qv_form(f)
    coeffs = basis.semigroup(basis.to_spectral(u + f * dW), stepper.dt)
    u_raw = basis.to_grid(coeffs)
    u_new = np.maximum(u_raw, 0.0)
    clamp_inc = basis.cell_volume * float(np.sum(u_new - u_raw))
    return u_new, I_inc, Q_inc, clamp_inc, bool(np.all(np.isfinite(u_raw)))


KERNEL_CASES = [
    (d, bc, kernel)
    for d in (1, 2, 3)
    for bc in BOUNDARY_CONDITIONS
    for kernel in admissible_kernels(d)
]


class TestBatchEquivalence:
    @pytest.mark.parametrize(
        "d, bc, kernel", KERNEL_CASES,
        ids=[f"{d}d-{bc}-{k.variant}" for d, bc, k in KERNEL_CASES])
    @settings(max_examples=4, deadline=None)
    @given(rows=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
    def test_batched_step_equals_one_row_steps_bitwise(self, d, bc, kernel, rows, seed):
        # a row's values must not depend on the batch it steps in
        basis = build_basis(DomainSpec(d, bc, 8))
        sampler = make_sampler(kernel, basis)
        dt = 1e-3
        stepper = Stepper(basis, SigmaSpec(1.0, 1.5, 4.0), sampler, dt)
        rng = np.random.default_rng(seed)
        # values above the truncation level exercise the clamp of sigma
        u = rng.uniform(0.0, 6.0, size=(rows,) + basis.grid_shape)
        dW = sampler.sample_batch(dt, rng, rows)
        batched = stepper.step(u, dW)
        names = ("u", "I", "Q", "clamp", "finite")
        for i in range(rows):
            one_row = stepper.step(u[i:i + 1], dW[i:i + 1])
            reference = reference_step(stepper, u[i], dW[i])
            for name, got, single, ref in zip(names, batched, one_row, reference):
                assert np.array_equal(got[i], single[0]), name
                assert np.array_equal(got[i], ref), name
        f = sigma_eval(stepper.sigma, u)
        assert np.array_equal(sampler.qv_form(f), [sampler.qv_form(row) for row in f])


class TestRunBatch:
    def test_batch_size_does_not_change_records(self, monkeypatch):
        config = make_config(horizon=0.01)
        ctx = build_context(config)
        seeds = list(range(5))
        whole, _ = run_batch(ctx, seeds)
        # 64 grid points per row: batches of two rows
        monkeypatch.setattr(stepping, "_BATCH_GRID_POINTS", 128)
        split, _ = run_batch(ctx, seeds)
        for a, b in zip(whole, split):
            assert list(a.csv_rows()) == list(b.csv_rows())
        assert [r.seed for r in split] == seeds

    def test_batch_where_every_row_fails_returns(self):
        config = make_config(sigma=SigmaSpec(1.0, 1.5, 1e309), init_value=1e308,
                             mass_bound=float("inf"))
        ctx = build_context(config)
        with np.errstate(all="ignore"):
            records, failures = run_batch(ctx, [7, 8, 9])
            with pytest.raises(TrajectoryError) as info:
                run_trajectory(config, 8, context=ctx)
        assert records == []
        assert [(seed, exc.step) for seed, exc in failures] == [(7, 1), (8, 1), (9, 1)]
        assert str(info.value) == str(failures[1][1])


class TestMassIdentity:
    @pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
    def test_discrete_martingale_identity(self, bc):
        # integral u(t) == I(t) + clamped mass, at round-off, every step
        config = make_config(
            domain=DomainSpec(1, bc, 64),
            noise=SpectralKernel(theta=0.25, a=1.0),
            horizon=0.05,
        )
        rec = run_trajectory(config, seed=7)
        gap = np.abs(rec.l1_norm - rec.I - rec.clamped_mass)
        assert np.max(gap) < 1e-9 * max(1.0, np.max(np.abs(rec.I)))

    def test_dirichlet_domination_in_distribution(self):
        # L1 <= I + clamp up to a discretization mismatch that shrinks with dt
        def violation_stats(dt, seeds):
            config = make_config(
                domain=DomainSpec(1, DIRICHLET, 64),
                noise=SpectralKernel(theta=0.25, a=0.0),
                dt=dt,
                horizon=0.02,
                init_value=2.0,
            )
            worst = 0.0
            viols = 0
            total = 0
            for seed in seeds:
                rec = run_trajectory(config, seed)
                excess = rec.l1_norm - rec.clamped_mass - rec.I
                tol = 1e-9 * np.maximum(1.0, np.abs(rec.I))
                viols += int(np.sum(excess > tol))
                total += len(excess)
                worst = max(worst, float(np.max(excess / np.maximum(rec.I, 1e-300))))
            return viols / total, worst

        frac_coarse, worst_coarse = violation_stats(4e-4, range(30))
        frac_fine, _ = violation_stats(2e-4, range(30))
        assert frac_fine <= frac_coarse + 1e-12
        assert worst_coarse < 0.01


class TestRunTrajectory:
    def test_immediate_stop_on_truncation(self):
        config = make_config(sigma=SigmaSpec(1.0, 1.5, truncation=1.5), init_value=2.0)
        rec = run_trajectory(config, seed=0)
        assert rec.stop_flag == STOP_TAU_N
        assert rec.stop_time == 0.0
        assert len(rec.t) == 1

    def test_immediate_stop_on_mass_bound(self):
        config = make_config(mass_bound=1.0, init_value=2.0)  # I(0) = 2 pi > 1
        rec = run_trajectory(config, seed=0)
        assert rec.stop_flag == STOP_TAU_M
        assert rec.stop_time == 0.0

    def test_pure_heat_decay_of_first_mode(self):
        config = make_config(
            domain=DomainSpec(1, DIRICHLET, 64),
            noise=SpectralKernel(theta=0.25, a=0.0),
            sigma=SigmaSpec(scale=0.0, growth=1.5, truncation=100.0),
            init_kind="eigenmode",
            init_mode=(1,),
            init_amplitude=1.0,
            dt=1e-3,
            horizon=0.5,
        )
        rec = run_trajectory(config, seed=3)
        assert rec.stop_flag == STOP_HORIZON
        # sup-norm of e_1 decays like e^{-t} under pure heat flow
        ratio = rec.sup_norm[-1] / rec.sup_norm[0]
        assert ratio == pytest.approx(math.exp(-rec.t[-1]), rel=1e-6)

    def test_horizon_stop_time_is_exact(self):
        # 500 steps of dt = 2e-4: t is s * dt, not a running sum of dt
        config = make_config(dt=2e-4, horizon=0.1, init_value=0.5)
        rec = run_trajectory(config, seed=0)
        assert rec.stop_flag == STOP_HORIZON
        assert rec.stop_time == config.horizon
        assert rec.t[-1] == config.horizon
        assert np.array_equal(rec.t, 2e-4 * np.arange(len(rec.t)))

    def test_deterministic_given_config_and_seed(self):
        config = make_config(horizon=0.01)
        a = run_trajectory(config, seed=11)
        b = run_trajectory(config, seed=11)
        assert np.array_equal(a.sup_norm, b.sup_norm)
        assert np.array_equal(a.I, b.I)
        assert np.array_equal(a.Q, b.Q)
        c = run_trajectory(config, seed=12)
        assert not np.array_equal(a.sup_norm, c.sup_norm)

    def test_context_reuse_is_invisible(self):
        config = make_config(horizon=0.01)
        ctx = build_context(config)
        a = run_trajectory(config, seed=5)
        b = run_trajectory(config, seed=5, context=ctx)
        assert np.array_equal(a.sup_norm, b.sup_norm)
        assert np.array_equal(a.Q, b.Q)

    def test_positivity_maintained_and_clamp_small(self):
        config = make_config(horizon=0.05, init_value=2.0)
        rec = run_trajectory(config, seed=21)
        assert rec.clamped_fraction < 0.01
        assert np.all(rec.l1_norm >= 0)

    def test_q_nondecreasing(self):
        config = make_config(horizon=0.02)
        rec = run_trajectory(config, seed=2)
        assert np.all(np.diff(rec.Q) >= 0)

    def test_csv_rows_format(self):
        config = make_config(horizon=5 * 2e-4)
        rec = run_trajectory(config, seed=1)
        rows = list(rec.csv_rows())
        assert len(rows) == len(rec.t)
        assert rows[0].startswith("0,")
        assert rows[-1].endswith(rec.stop_flag)
        assert all(r.split(",")[7] == "none" for r in rows[:-1])
        assert TrajectoryRecord.CSV_HEADER.count(",") == rows[0].count(",")


class TestInitialField:
    def test_constant_negative_rejected(self):
        basis = build_basis(DomainSpec(1, NEUMANN, 16))
        with pytest.raises(ValueError):
            initial_field(basis, "constant", value=-1.0)

    def test_sign_changing_eigenmode_rejected(self):
        basis = build_basis(DomainSpec(1, DIRICHLET, 16))
        with pytest.raises(ValueError):
            initial_field(basis, "eigenmode", mode=(2,))

    def test_first_dirichlet_mode_allowed(self):
        basis = build_basis(DomainSpec(1, DIRICHLET, 16))
        u0 = initial_field(basis, "eigenmode", mode=(1,), amplitude=2.0)
        assert np.all(u0 >= 0)
        assert np.max(u0) == pytest.approx(2.0 * math.sqrt(2 / PI), rel=1e-3)

    def test_file_roundtrip(self, tmp_path):
        basis = build_basis(DomainSpec(1, NEUMANN, 16))
        data = np.abs(np.sin(basis.axis_points)) + 0.5
        p = tmp_path / "u0.npy"
        np.save(p, data)
        u0 = initial_field(basis, "file", path=str(p))
        assert np.array_equal(u0, data)

    def test_file_negative_rejected(self, tmp_path):
        basis = build_basis(DomainSpec(1, NEUMANN, 16))
        p = tmp_path / "u0.npy"
        np.save(p, -np.ones(basis.grid_shape))
        with pytest.raises(ValueError):
            initial_field(basis, "file", path=str(p))
