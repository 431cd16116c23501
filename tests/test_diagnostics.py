"""Doubling events, mass-bound checks and the convolution moment probe.

The doubling detector is checked against an independently coded replay
(different control flow over the same series) and hand-built series; the
mass bounds are exercised on degenerate (noise-free) and small stochastic
ensembles.
"""

import math

import numpy as np
import pytest

from stochheat.spectral import DIRICHLET, NEUMANN, PERIODIC, DomainSpec, build_basis
from stochheat.noise import SpectralKernel, WhiteNoise, make_sampler
from stochheat.config import SimConfig
from stochheat.stepping import SigmaSpec, TrajectoryRecord, build_context, run_batch
from stochheat.diagnostics import (
    DOWN,
    UP,
    convolution_moment_probe,
    convolution_variance_series,
    detect_doubling,
    doob_check,
    doubling_threshold_level,
    doubling_window,
    martingale_mean_check,
    moment_admissible,
    q_at_mass_stop,
    qv_bound_check,
    up_event_count,
)

PI = math.pi


def synthetic_record(sup_series, dt=0.01, q_series=None):
    n = len(sup_series)
    t = dt * np.arange(n)
    q = np.asarray(q_series, dtype=float) if q_series is not None else np.zeros(n)
    zeros = np.zeros(n)
    return TrajectoryRecord(
        seed=0, t=t, sup_norm=np.asarray(sup_series, dtype=float),
        l1_norm=zeros, I=zeros, Q=q, clamped_mass=zeros,
        stop_flag="horizon", stop_time=t[-1],
    )


def replay_oracle(sup_series):
    """Independent doubling replay: returns [(m, direction)] transitions."""
    out = []
    level = None
    i = 0
    series = list(sup_series)
    while i < len(series):
        v = series[i]
        if level is None:
            if v >= 2.0:
                reached = int(math.floor(math.log2(v)))
                lv = 1
                while lv <= reached:
                    out.append((lv, "up"))
                    lv += 1
                level = reached
            i += 1
            continue
        if v >= 2.0 ** (level + 1):
            out.append((level + 1, "up"))
            level += 1
            continue  # re-examine the same sample for further crossings
        if level >= 2 and v <= 2.0 ** (level - 1):
            out.append((level - 1, "down"))
            level -= 1
            continue
        i += 1
    return out


class TestDetectDoubling:
    def test_decaying_series_is_empty(self):
        rec = synthetic_record(np.linspace(1.5, 0.1, 50))
        assert detect_doubling(rec) == []

    def test_two_entry_example(self):
        rec = synthetic_record([1.0, 2.1, 4.2])
        events = detect_doubling(rec)
        assert len(events) == 2
        assert (events[0].m, events[0].direction) == (1, UP)
        assert (events[1].m, events[1].direction) == (2, UP)
        assert events[0].rho_end <= events[1].rho_end

    def test_multi_level_jump_emits_one_event_per_level(self):
        rec = synthetic_record([1.0, 9.0])
        events = detect_doubling(rec)
        assert [(e.m, e.direction) for e in events] == [(1, UP), (2, UP), (3, UP)]
        assert len({e.rho_end for e in events}) == 1  # same sample time

    def test_down_events_and_floor_at_level_one(self):
        # up to 8, fall straight to 0.5: down events stop at level 1
        rec = synthetic_record([1.0, 8.0, 0.5, 0.4, 4.1])
        events = detect_doubling(rec)
        kinds = [(e.m, e.direction) for e in events]
        assert kinds == [
            (1, UP), (2, UP), (3, UP),
            (2, DOWN), (1, DOWN),
            (2, UP),
        ]

    def test_levels_always_change_by_one(self):
        rng = np.random.default_rng(5)
        series = np.exp(np.cumsum(rng.normal(0, 0.5, size=400))) * 1.5
        events = detect_doubling(synthetic_record(series))
        ms = [e.m for e in events]
        assert all(abs(a - b) == 1 for a, b in zip(ms, ms[1:]))
        times = [e.rho_end for e in events]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_matches_independent_replay_on_gbm_proxy(self):
        rng = np.random.default_rng(17)
        # geometric-Brownian sup-norm proxy
        series = 1.2 * np.exp(np.cumsum(rng.normal(0.002, 0.35, size=1000)))
        events = detect_doubling(synthetic_record(series))
        assert [(e.m, e.direction) for e in events] == replay_oracle(series)

    def test_q_segments_accumulate(self):
        q = np.array([0.0, 1.0, 3.0, 6.0])
        rec = synthetic_record([1.0, 8.0, 1.9, 4.5], q_series=q)
        events = detect_doubling(rec)
        kinds = [(e.m, e.direction) for e in events]
        assert kinds == [(1, UP), (2, UP), (3, UP), (2, DOWN), (1, DOWN), (2, UP)]
        # three simultaneous ups at t1 share q up to there; the down pair at
        # t2 carries q=3-1; the final up carries q=6-3
        assert [e.q_segment for e in events] == pytest.approx([1, 0, 0, 2, 0, 3])
        assert sum(e.q_segment for e in events) == pytest.approx(6.0)

    def test_up_event_count_monotone_in_threshold(self):
        rng = np.random.default_rng(23)
        series = np.exp(np.cumsum(rng.normal(0.01, 0.4, size=2000))) * 1.5
        events = detect_doubling(synthetic_record(series))
        counts = [up_event_count(events, m0) for m0 in range(1, 6)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestDoublingWindow:
    def test_formula_beta_half(self):
        M, m, C = 10.0, 12, 1.3
        assert doubling_window(M, m, 0.5, C) == pytest.approx((C * M / 2 ** (m - 2)) ** 2)

    def test_window_shrinks_with_level(self):
        vals = [doubling_window(5.0, m, 0.5, 1.0) for m in range(8, 14)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # doubling m shrinks T_m by 2^(-1/beta)
        assert vals[1] / vals[0] == pytest.approx(2.0 ** (-1 / 0.5))

    def test_below_threshold_level_rejected(self):
        with pytest.raises(ValueError):
            doubling_window(10.0, 2, 0.5, 1.0)

    def test_threshold_level_makes_window_valid(self):
        M, C = 37.0, 2.2
        m0 = doubling_threshold_level(M, C)
        assert doubling_window(M, m0 + 1, 0.5, C) < 1.0


def small_ensemble(noise, sigma, paths=40, bc=NEUMANN, horizon=0.02,
                   init_value=2.0, mass_bound=1e12, dt=2e-4, n=64):
    config = SimConfig(
        domain=DomainSpec(1, bc, n),
        noise=noise,
        sigma=sigma,
        dt=dt,
        horizon=horizon,
        mass_bound=mass_bound,
        init_kind="constant",
        init_value=init_value,
    )
    records, failures = run_batch(build_context(config), list(range(paths)))
    assert not failures
    return records


class TestDoobCheck:
    def test_noise_free_never_exceeds(self):
        recs = small_ensemble(WhiteNoise(), SigmaSpec(0.0, 1.5, 100.0), paths=10)
        u0 = recs[0].l1_norm[0]
        report = doob_check(recs, [2 * u0, 4 * u0])
        for e in report.entries:
            assert e["empirical"] == 0.0
            assert e["passed"]

    def test_vacuous_bound_below_initial_mass(self):
        recs = small_ensemble(WhiteNoise(), SigmaSpec(0.0, 1.5, 100.0), paths=5)
        u0 = recs[0].l1_norm[0]
        report = doob_check(recs, [u0 / 2])
        assert report.entries[0]["bound"] == 1.0
        assert report.entries[0]["passed"]

    def test_stochastic_ensemble_respects_bound(self):
        recs = small_ensemble(
            WhiteNoise(), SigmaSpec(1.0, 1.5, 200.0), paths=200, init_value=4.0,
            horizon=0.05,
        )
        u0 = recs[0].l1_norm[0]
        report = doob_check(recs, [2 * u0, 4 * u0, 8 * u0])
        assert report.passed, report.to_dict()


class TestQVCheck:
    def test_zero_sigma_zero_q(self):
        recs = small_ensemble(WhiteNoise(), SigmaSpec(0.0, 1.5, 100.0), paths=5)
        report = qv_bound_check(recs, M=50.0)
        assert report.mean_Q == 0.0 and report.passed

    def test_immediate_stop_when_M_below_initial(self):
        recs = small_ensemble(WhiteNoise(), SigmaSpec(1.0, 1.5, 100.0), paths=3)
        q, hit = q_at_mass_stop(recs[0], M=recs[0].I[0] / 2)
        assert q == 0.0 and hit

    def test_critical_gamma_bound(self):
        u0 = 4.0
        recs = small_ensemble(
            WhiteNoise(), SigmaSpec(1.0, 1.5, 200.0), paths=200, init_value=u0,
            horizon=0.05,
        )
        l1_0 = recs[0].l1_norm[0]
        for M in (2 * l1_0, 4 * l1_0, 8 * l1_0):
            report = qv_bound_check(recs, M)
            assert report.passed, report.to_dict()


class TestMartingaleMean:
    def test_neumann_mass_is_flat_in_mean(self):
        recs = small_ensemble(
            WhiteNoise(), SigmaSpec(1.0, 1.5, 200.0), paths=300, init_value=3.0,
            horizon=0.03,
        )
        report = martingale_mean_check(recs)
        assert report.max_margin_se < 3.0


class TestMomentProbe:
    def test_inadmissible_p_rejected(self):
        basis = build_basis(DomainSpec(1, PERIODIC, 32))
        with pytest.raises(ValueError):
            convolution_moment_probe(
                basis, WhiteNoise(), p=4, T_grid=[0.01], paths=8, dt=1e-3
            )

    def test_admissibility_condition(self):
        assert moment_admissible(20, 0.5, 0.5)
        assert not moment_admissible(4, 0.5, 0.5)
        assert not moment_admissible(2, 0.5, 0.5)

    def test_zero_forcing_gives_zero_moments(self):
        basis = build_basis(DomainSpec(1, PERIODIC, 32))
        report = convolution_moment_probe(
            basis, WhiteNoise(), p=20, T_grid=[0.005, 0.01], paths=64, dt=1e-3,
            phi=0.0,
        )
        assert report.moment_estimates == [0.0, 0.0]
        assert report.envelope_passed

    def test_variance_matches_series_oracle(self):
        basis = build_basis(DomainSpec(1, DIRICHLET, 64))
        spec = SpectralKernel(theta=0.25, a=0.0)
        report = convolution_moment_probe(
            basis, spec, p=20, T_grid=[0.01, 0.02, 0.05], paths=4000, dt=5e-4,
            seed=3,
        )
        assert report.variance_checks, "spectral phi=1 probe must report the oracle"
        assert report.variance_passed, report.variance_checks

    def test_variance_series_alpha_zero_limit(self):
        basis = build_basis(DomainSpec(1, NEUMANN, 32))
        spec = SpectralKernel(theta=0.25, a=1.0)
        # zero eigenvalue mode contributes lambda_0^2 * t
        v_small = convolution_variance_series(make_sampler(spec, basis), 1e-6, [PI / 2])
        assert v_small == pytest.approx(0.0, abs=1e-4)

    def test_envelope_check_white_noise(self):
        basis = build_basis(DomainSpec(1, PERIODIC, 64))
        report = convolution_moment_probe(
            basis, WhiteNoise(), p=20,
            T_grid=[0.002, 0.005, 0.01, 0.02, 0.05], paths=1024, dt=1e-4, seed=11,
        )
        assert report.theoretical_exponent == pytest.approx(3.5)
        assert report.envelope_passed, report.fitted_slope

    def test_t_not_multiple_of_dt_rejected(self):
        basis = build_basis(DomainSpec(1, PERIODIC, 32))
        with pytest.raises(ValueError):
            convolution_moment_probe(
                basis, WhiteNoise(), p=20, T_grid=[0.0105], paths=8, dt=1e-3
            )
