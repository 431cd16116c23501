"""Doubling events, mass-bound checks and the convolution moment probe.

The doubling detector is checked against an independently coded replay
(different control flow over the same series) and hand-built series; the
mass bounds are exercised on degenerate (noise-free) and small stochastic
ensembles.
"""

import math
import threading

import numpy as np
import pytest

from stochheat.spectral import DIRICHLET, NEUMANN, PERIODIC, DomainSpec, build_basis
from stochheat import diagnostics
from stochheat.noise import RieszKernel, SpectralKernel, WhiteNoise, make_sampler
from stochheat.config import SimConfig
from stochheat.stepping import (
    SigmaSpec,
    TrajectoryRecord,
    build_context,
    run_batch,
)
from stochheat.diagnostics import (
    DOWN,
    UP,
    ProbeArgumentError,
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

from test_stepping import HELPER_SLOW, ORDERS, helper_units, interleaved

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


def test_first_attainment_one_ulp_below_a_power_of_two():
    # 8 - 1 ulp attains 4, not 8, though floor(log2) of it rounds up to 3
    value = np.nextafter(8.0, 0.0)
    events = detect_doubling(synthetic_record([1.0, value, 8.0]))
    assert [(e.m, e.direction, e.rho_end) for e in events] == [
        (1, UP, 0.01), (2, UP, 0.01), (3, UP, 0.02)]


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

    @pytest.mark.parametrize("M", [0.0, math.inf, math.nan])
    def test_threshold_level_needs_a_positive_finite_mass_bound(self, M):
        with pytest.raises(ValueError, match="M must be positive and finite"):
            doubling_threshold_level(M, 1.0)

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
        assert report.passed, report.entries


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
                basis, WhiteNoise(), p=4, T_grid=[0.01, 0.02], paths=8, dt=1e-3
            )

    def test_admissibility_condition(self):
        assert moment_admissible(20, 0.5, 0.5)
        assert not moment_admissible(4, 0.5, 0.5)
        assert not moment_admissible(2, 0.5, 0.5)
        assert not moment_admissible(math.inf, 0.5, 0.5)

    def test_variance_matches_series_oracle(self):
        basis = build_basis(DomainSpec(1, DIRICHLET, 64))
        spec = SpectralKernel(theta=0.25, a=0.0)
        report = convolution_moment_probe(
            basis, spec, p=20, T_grid=[0.01, 0.02, 0.05], paths=4000, dt=5e-4,
            seed=3,
        )
        assert report.variance_checks, "a spectral probe must report the oracle"
        assert report.variance_passed, report.variance_checks

    def test_variance_oracle_at_recorded_grid_point(self):
        # the Neumann midpoint grid has no point at the centre: the oracle
        # is taken where Z is recorded, the nearest grid point
        basis = build_basis(DomainSpec(1, NEUMANN, 32))
        spec = SpectralKernel(theta=0.25, a=1.0)
        report = convolution_moment_probe(
            basis, spec, p=20, T_grid=[0.01, 0.02], paths=64, dt=1e-3)
        x = basis.axis_points[np.argmin(np.abs(basis.axis_points - PI / 2))]
        assert x != PI / 2
        oracle = convolution_variance_series(make_sampler(spec, basis), 0.01, [x], 1e-3)
        assert report.variance_checks[0]["oracle"] == oracle

    def test_variance_series_alpha_zero_limit(self):
        basis = build_basis(DomainSpec(1, NEUMANN, 32))
        spec = SpectralKernel(theta=0.25, a=1.0)
        # zero eigenvalue mode contributes lambda_0^2 * t
        v_small = convolution_variance_series(make_sampler(spec, basis), 1e-6, [PI / 2], 1e-6)
        assert v_small == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    def test_variance_series_is_exact_for_the_scheme(self, bc):
        # Z_n = sum_{m=1..n} S^m (sqrt(dt) lambda_k xi_m) per mode, so the
        # variance is the finite geometric sum, summed term by term here
        basis = build_basis(DomainSpec(1, bc, 32))
        sampler = make_sampler(SpectralKernel(theta=0.25, a=1.0), basis)
        x, dt, n = [1.1], 5e-4, 40
        e2 = basis.axis_eigenfunctions(x[0]) ** 2
        alpha = basis.eigenvalue_tensor()
        direct = sum(
            float(np.sum(sampler.weights * e2 * dt * np.exp(-2 * alpha * m * dt)))
            for m in range(1, n + 1)
        )
        got = convolution_variance_series(sampler, n * dt, x, dt)
        assert got == pytest.approx(direct, rel=1e-12)
        # and tends to the continuum Ito-isometry series as dt -> 0
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(alpha > 0, -np.expm1(-2 * alpha * n * dt) / (2 * alpha), n * dt)
        continuum = float(np.sum(sampler.weights * e2 * factor))
        fine = convolution_variance_series(sampler, n * dt, x, dt / 1000)
        assert fine == pytest.approx(continuum, rel=1e-3)
        assert abs(got - continuum) > 10 * abs(fine - continuum)
        with pytest.raises(ValueError, match="not a multiple"):
            convolution_variance_series(sampler, 1.5 * dt, x, dt)

    @pytest.mark.parametrize("paths, batches", [(16, 32), (16, 0), (16, -2)])
    def test_batches_outside_one_to_paths_rejected(self, paths, batches):
        basis = build_basis(DomainSpec(1, PERIODIC, 32))
        with pytest.raises(ValueError, match=f"paths = {paths} and batches = {batches}"):
            convolution_moment_probe(
                basis, WhiteNoise(), p=20, T_grid=[0.01, 0.02], paths=paths, dt=1e-3,
                batches=batches,
            )

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
                basis, WhiteNoise(), p=20, T_grid=[0.0105, 0.02], paths=8, dt=1e-3
            )

    @pytest.mark.parametrize("argument, kwargs", [
        ("paths", {"paths": 4}),
        ("p", {"p": 4}),
        # each of the next three once gave moments of 0 or NaN and a pass:
        # an infinite p, an infinite dt, and sup |Z| < 1 so early that every
        # sup^200 underflows to 0
        ("p", {"p": math.inf}),
        ("dt", {"dt": math.inf}),
        ("p", {"p": 200, "T_grid": [1e-6, 2e-6, 4e-6], "dt": 1e-6, "paths": 64}),
        ("p", {"p": math.nan}),
        ("dt", {"dt": 0.0}),
        ("dt", {"dt": math.nan}),
        ("T_grid", {"T_grid": []}),
        # one horizon gives no slope, only a line through one point
        ("T_grid", {"T_grid": [0.01]}),
        ("T_grid", {"T_grid": [0.0, 0.01]}),
        ("T_grid", {"T_grid": [0.0105]}),
        ("T_grid", {"T_grid": [0.01, math.inf]}),
        ("T_grid", {"T_grid": [math.nan, 0.002]}),
        # a horizon that rounds to no step, and one of more steps than floats hold
        ("T_grid", {"T_grid": [1e-12]}),
        ("T_grid", {"T_grid": [1.0], "dt": 5e-324}),
        # a repeated horizon, and two horizons that round to one step count
        ("T_grid", {"T_grid": [0.002, 0.002, 0.004]}),
        ("T_grid", {"T_grid": [0.002, 0.002 + 5e-13, 0.004]}),
    ])
    def test_bad_argument_is_named(self, argument, kwargs):
        basis = build_basis(DomainSpec(1, PERIODIC, 32))
        args = dict(p=20, T_grid=[0.01, 0.02], paths=8, dt=1e-3, batches=8)
        args.update(kwargs)
        with pytest.raises(ProbeArgumentError) as info:
            convolution_moment_probe(basis, WhiteNoise(), **args)
        assert info.value.argument == argument

    @staticmethod
    def block_normals(streams, paths, shape):
        """One step of a serial reference: each block's rows from its stream."""
        rows = diagnostics.PROBE_BLOCK_ROWS
        return np.concatenate([
            rng.standard_normal((min(rows, paths - b * rows),) + shape)
            for b, rng in enumerate(streams)])

    def test_probe_equals_a_serial_reference_loop(self):
        # 600 paths are three blocks of rows, 256, 256 and 88, each drawing
        # from its own stream; the probe's values are those of one draw per
        # block and step, in order, and the helper is joined when it returns
        basis = build_basis(DomainSpec(1, DIRICHLET, 32))
        spec = SpectralKernel(theta=0.25, a=0.0)
        paths, dt, seed, batches = 600, 5e-4, 5, 8
        start = threading.active_count()
        report = convolution_moment_probe(
            basis, spec, p=20, T_grid=[0.01, 0.02], paths=paths, dt=dt,
            seed=seed, batches=batches)
        assert threading.active_count() == start
        assert report.streams == {"generator": "SFC64", "rows_per_stream": 256}

        amplitudes = make_sampler(spec, basis).amplitudes
        streams = [np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, b))))
                   for b in range(3)]
        centre = np.argmin(np.abs(basis.axis_points - basis.center_point()[0]))
        Z = np.zeros((paths,) + basis.coeff_shape)
        sup = np.zeros(paths)
        sups, centres = [], []
        for s in range(1, 41):
            xi = self.block_normals(streams, paths, basis.coeff_shape)
            Z = basis.semigroup(Z + math.sqrt(dt) * amplitudes * xi, dt)
            grid = basis.to_grid_batch(Z)
            sup = np.maximum(sup, np.abs(grid).max(axis=1))
            if s in (20, 40):
                sups.append(sup)
                centres.append(grid[:, centre])
        group = paths // batches
        assert report.moment_estimates == [
            float(np.median((row[:group * batches].reshape(batches, -1) ** 20).mean(axis=1)))
            for row in sups]
        assert [v["empirical"] for v in report.variance_checks] == [
            float(c.var()) for c in centres]

    # the path of every kernel without per-mode weights: each case's basis
    # and kernel
    GENERAL = {
        "white": (DomainSpec(1, PERIODIC, 32), WhiteNoise()),
        "riesz-1d": (DomainSpec(1, NEUMANN, 32), RieszKernel(alpha=0.25)),
    }

    @pytest.mark.parametrize("small_chunks", [False, True], ids=["one-chunk", "chunks"])
    @pytest.mark.parametrize("case", list(GENERAL))
    def test_general_path_equals_one_sample_batch_per_block_and_step(self, monkeypatch,
                                                                     case, small_chunks):
        # blocks of 24 rows: 64 paths are blocks of 24, 24 and 16 rows, each
        # drawing from its own stream; the probe's values are those of one
        # sample_batch call per block and step.  With a small chunk budget
        # a step spans three chunks of one block each
        domain, spec = self.GENERAL[case]
        basis = build_basis(domain)
        sampler = make_sampler(spec, basis)
        paths, dt, seed, batches = 64, 5e-4, 9, 8
        monkeypatch.setattr(diagnostics, "PROBE_BLOCK_ROWS", 24)
        if small_chunks:
            monkeypatch.setattr(diagnostics, "_BATCH_NORMALS",
                                24 * math.prod(sampler.normal_shape) + 1)
        start = threading.active_count()
        report = convolution_moment_probe(
            basis, spec, p=20, T_grid=[0.005, 0.01], paths=paths, dt=dt,
            seed=seed, batches=batches)
        assert threading.active_count() == start
        assert report.variance_checks == []
        assert report.streams["rows_per_stream"] == 24

        streams = [diagnostics.block_rng(seed, b) for b in range(3)]
        Z = np.zeros((paths,) + basis.coeff_shape)
        sup = np.zeros(paths)
        sups = []
        for s in range(1, 21):
            dW = np.concatenate([sampler.sample_batch(dt, rng, count)
                                 for rng, count in zip(streams, (24, 24, 16))])
            Z = basis.semigroup(Z + basis.to_spectral_batch(dW), dt)
            sup = np.maximum(sup, np.abs(basis.to_grid_batch(Z)).max(axis=1))
            if s in (10, 20):
                sups.append(sup)
        assert report.moment_estimates == [
            float(np.median((row.reshape(batches, -1) ** 20).mean(axis=1)))
            for row in sups]

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("case", ["white", "spectral"])
    def test_stream_error_reaches_the_caller_from_either_thread(self, monkeypatch,
                                                               case, order):
        # each block's second fill raises: the first to raise is drawn by
        # the caller when the helper is slow, by the helper when the caller
        # is slow; either way the error is raised in the caller and the
        # helper is joined
        raisers = []
        make_rng = diagnostics.block_rng

        class Stream:
            def __init__(self, seed, block):
                self.rng = make_rng(seed, block)
                self.fills = 0

            def standard_normal(self, out):
                self.fills += 1
                if self.fills == 2:
                    raisers.append(threading.get_ident())
                    raise FloatingPointError("stream unavailable")
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(diagnostics, "block_rng", Stream)
        monkeypatch.setattr(diagnostics, "PROBE_BLOCK_ROWS", 16)
        monkeypatch.setattr(diagnostics, "drawn_ahead", interleaved(order, []))
        if case == "white":
            basis, spec = build_basis(DomainSpec(1, PERIODIC, 32)), WhiteNoise()
        else:
            basis, spec = build_basis(DomainSpec(1, DIRICHLET, 32)), SpectralKernel(0.25, 0.0)
        start = threading.active_count()
        with pytest.raises(FloatingPointError, match="stream unavailable"):
            convolution_moment_probe(basis, spec, p=20, T_grid=[0.001, 0.002], paths=64,
                                     dt=5e-4, batches=8)
        assert threading.active_count() == start
        assert (raisers[0] == threading.get_ident()) == (order == HELPER_SLOW)

    @pytest.mark.parametrize("case", ["white", "spectral"])
    def test_report_does_not_depend_on_the_interleaving(self, monkeypatch, case):
        # 64 paths in blocks of 16 rows: four units per step, drawn by the
        # caller when the helper is slow and by the helper when the caller is
        if case == "white":
            basis, spec = build_basis(DomainSpec(1, PERIODIC, 32)), WhiteNoise()
        else:
            basis, spec = build_basis(DomainSpec(1, DIRICHLET, 32)), SpectralKernel(0.25, 0.0)
        monkeypatch.setattr(diagnostics, "PROBE_BLOCK_ROWS", 16)

        def probe():
            return convolution_moment_probe(basis, spec, p=20, T_grid=[0.002, 0.004],
                                            paths=64, dt=5e-4, seed=3, batches=8).to_dict()

        reports = [probe()]
        for order in ORDERS:
            drawers = []
            monkeypatch.setattr(diagnostics, "drawn_ahead", interleaved(order, drawers))
            reports.append(probe())
            if order == HELPER_SLOW:
                assert max(helper_units(drawers).values(), default=0) <= 1
            else:
                assert all(not by_caller for _, by_caller in drawers)
        assert reports[0] == reports[1] == reports[2]
