"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
statistical criteria use fixed seeds, so every run is deterministic; the
1000-path ensemble behind the martingale/Doob/QV criteria is built once and
shared.  Stated runtime budgets are asserted as measured on the host.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from stochheat.config import SimConfig, config_hash
from stochheat.diagnostics import (
    convolution_moment_probe,
    doob_check,
    martingale_mean_check,
    qv_bound_check,
)
from stochheat.ensemble import run_ensemble, sweep_gamma
from stochheat.noise import (
    RieszKernel,
    SpectralKernel,
    WhiteNoise,
    _unit_cell_mean,
    make_sampler,
    verify_decay,
)
from stochheat.spectral import (
    BOUNDARY_CONDITIONS,
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    DomainSpec,
    build_basis,
    heat_kernel_decay_fit,
)
from stochheat.stepping import SigmaSpec

PI = math.pi


def report(number: int, ok: bool, detail: str, elapsed: float, budget: float):
    line = (
        f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail} "
        f"[{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {number} exceeded runtime budget: {line}"


# shared 1000-path ensemble: Neumann d=1, gamma = 3/2 (critical), white noise
MASS_CONFIG = SimConfig(
    domain=DomainSpec(1, NEUMANN, 64),
    noise=WhiteNoise(),
    sigma=SigmaSpec(scale=1.0, growth=1.5, truncation=64.0),
    dt=2e-4,
    horizon=0.1,
    mass_bound=1e12,
    paths=1000,
    base_seed=11,
    init_kind="constant",
    init_value=4.0,
    workers=2,
)


@pytest.fixture(scope="session")
def mass_ensemble(tmp_path_factory):
    out = tmp_path_factory.mktemp("mass_ensemble")
    t0 = time.monotonic()
    result = run_ensemble(MASS_CONFIG, keep_records=True, out_dir=out / "run")
    elapsed = time.monotonic() - t0
    print(f"\n[shared ensemble: {MASS_CONFIG.paths} paths in {elapsed:.1f}s]")
    return {"result": result, "elapsed": elapsed, "out": out / "run"}


def test_criterion_1_heat_kernel_exponent():
    t0 = time.monotonic()
    details = []
    ok = True
    for d in (1, 2):
        for bc in BOUNDARY_CONDITIONS:
            basis = build_basis(DomainSpec(d, bc, 1024))
            slope, c_fit, _ = heat_kernel_decay_fit(basis, np.logspace(-4, -2, 17))
            good = abs(slope + d / 2) <= 0.05
            ok = ok and good
            details.append(f"d={d} {bc}: {slope:+.3f}")
    report(1, ok, "sup G(t,x,x) slopes vs -d/2: " + ", ".join(details),
           time.monotonic() - t0, 10)


def test_criterion_2_noise_decay_exponent():
    t0 = time.monotonic()
    basis = build_basis(DomainSpec(2, DIRICHLET, 256))
    rep = verify_decay(SpectralKernel(theta=0.75, a=0.0), basis)
    ok = abs(rep.fitted_slope + 0.25) <= 0.1
    report(2, ok,
           f"spectral d=2 theta=3/4 slope {rep.fitted_slope:+.3f} vs -0.25 +- 0.1",
           time.monotonic() - t0, 10)


def test_criterion_3_closed_form_double_integral():
    t0 = time.monotonic()
    basis = build_basis(DomainSpec(1, DIRICHLET, 512))
    got = SpectralKernel(theta=1.0, a=0.0).double_integral(basis)
    want = PI**3 / 12
    rel = abs(got - want) / want
    report(3, rel < 0.005,
           f"integral {got:.8f} vs pi^3/12 = {want:.8f} (rel err {rel:.2e})",
           time.monotonic() - t0, 1)


def test_criterion_4_sampler_covariance():
    t0 = time.monotonic()
    dt = 0.01
    draws_n = 100_000
    worsts = {}
    ok = True
    for label, basis, spec in (
        ("spectral", build_basis(DomainSpec(1, DIRICHLET, 64)),
         SpectralKernel(theta=0.25, a=0.0)),
        ("riesz", build_basis(DomainSpec(1, NEUMANN, 64)), RieszKernel(alpha=0.3)),
    ):
        sampler = make_sampler(spec, basis)
        rng = np.random.Generator(np.random.Philox(key=2001))
        flat = sampler.sample_batch(dt, rng, draws_n).reshape(draws_n, -1)
        npts = flat.shape[1]
        if label == "spectral":
            xs = basis.axis_points
            cov = lambda i, j: spec.kernel(basis, [xs[i]], [xs[j]]) * dt
        else:
            pts = basis.axis_points
            cell = _unit_cell_mean(spec.alpha, 1) * basis.h ** (-spec.alpha)
            cov = lambda i, j: (
                spec.kernel(basis, [pts[i]], [pts[j]]) if i != j else cell
            ) * dt
        pair_rng = np.random.Generator(np.random.Philox(key=555))
        worst = 0.0
        for _ in range(20):
            i, j = pair_rng.integers(0, npts, size=2)
            true = cov(i, j)
            se = math.sqrt((true**2 + cov(i, i) * cov(j, j)) / draws_n)
            dev = abs(float(np.mean(flat[:, i] * flat[:, j])) - true) / se
            worst = max(worst, dev)
        worsts[label] = worst
        ok = ok and worst < 3.0
    report(4, ok,
           "empirical covariance at 20 pairs over 1e5 draws, worst deviation: "
           + ", ".join(f"{k} {v:.2f} se" for k, v in worsts.items()),
           time.monotonic() - t0, 120)


def test_criterion_5_discrete_martingale_identity(mass_ensemble):
    t0 = time.monotonic()
    records = mass_ensemble["result"].records
    worst_excess = 0.0
    for r in records:
        gap = np.abs(r.l1_norm - r.I) - (1e-9 * np.abs(r.I) + r.clamped_mass)
        worst_excess = max(worst_excess, float(np.max(gap)))
    identity_ok = worst_excess <= 1e-12 * MASS_CONFIG.init_value

    mart = martingale_mean_check(records)
    finals = np.array([r.l1_norm[-1] for r in records])
    l0 = float(records[0].l1_norm[0])
    se = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
    final_margin = abs(float(np.mean(finals)) - l0) / se
    mean_ok = final_margin < 3.0 and mart.max_margin_se < 3.0

    clamp_mean = float(np.mean([r.clamped_fraction for r in records]))
    clamp_ok = clamp_mean < 0.01

    elapsed = mass_ensemble["elapsed"] + (time.monotonic() - t0)
    report(5, identity_ok and mean_ok and clamp_ok,
           f"per-path |L1-I| within 1e-9 I + clamp (worst excess {worst_excess:.1e}); "
           f"|mean L1(T)-L1(0)| = {final_margin:.2f} se (max over t: "
           f"{mart.max_margin_se:.2f}); run clamped fraction {clamp_mean:.2e}",
           elapsed, 300)


def test_criterion_6_dirichlet_domination():
    t0 = time.monotonic()

    def violation_stats(dt):
        config = SimConfig(
            domain=DomainSpec(1, DIRICHLET, 64),
            noise=SpectralKernel(theta=0.25, a=0.0),
            sigma=SigmaSpec(scale=1.0, growth=1.5, truncation=64.0),
            dt=dt, horizon=0.05, mass_bound=1e12,
            paths=300, base_seed=5, init_kind="constant", init_value=4.0,
            workers=2,
        )
        result = run_ensemble(config, keep_records=True)
        viols = total = 0
        worst = 0.0
        for r in result.records:
            excess = r.l1_norm - r.clamped_mass - r.I
            tol = 1e-9 * np.maximum(1.0, np.abs(r.I))
            viols += int(np.sum(excess > tol))
            total += len(excess)
            worst = max(worst, float(np.max(excess / np.maximum(r.I, 1e-300))))
        return viols / total, worst

    frac_coarse, worst_coarse = violation_stats(4e-4)
    frac_fine, _ = violation_stats(2e-4)
    trend_ok = frac_fine <= frac_coarse
    magnitude_ok = worst_coarse < 0.01
    report(6, trend_ok and magnitude_ok,
           f"L1 <= I violation fraction {frac_coarse:.2e} (dt) -> {frac_fine:.2e} "
           f"(dt/2), worst magnitude {worst_coarse:.2e} of I",
           time.monotonic() - t0, 600)


def test_criterion_7_doob_bound(mass_ensemble):
    t0 = time.monotonic()
    records = mass_ensemble["result"].records
    u0 = float(records[0].l1_norm[0])
    rep = doob_check(records, [2 * u0, 4 * u0, 8 * u0])
    detail = ", ".join(
        f"M={e['M']:.0f}: {e['empirical']:.3f} <= {e['bound']:.3f}+3se"
        for e in rep.entries
    )
    report(7, rep.passed, "exceedance vs u0_L1/M: " + detail,
           time.monotonic() - t0, 300)


def test_criterion_8_qv_bound(mass_ensemble):
    t0 = time.monotonic()
    records = mass_ensemble["result"].records
    u0 = float(records[0].l1_norm[0])
    parts = []
    ok = True
    for mult in (2.0, 4.0, 8.0):
        rep = qv_bound_check(records, mult * u0)
        ok = ok and rep.passed
        parts.append(
            f"M={rep.M:.0f}: mean Q={rep.mean_Q:.1f} <= {rep.bound:.0f}+3se "
            f"({rep.n_hit} hit)"
        )
    report(8, ok, "; ".join(parts), time.monotonic() - t0, 300)


def test_criterion_9_convolution_moment_probe():
    t0 = time.monotonic()
    basis = build_basis(DomainSpec(1, DIRICHLET, 64))
    spec = SpectralKernel(theta=0.25, a=0.0)
    rep = convolution_moment_probe(
        basis, spec, p=20,
        T_grid=[0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1],
        paths=10240, dt=5e-5, seed=42,
    )
    worst_var = max(
        abs(v["empirical"] - v["oracle"]) / v["se"] for v in rep.variance_checks
    )
    ok = rep.variance_passed and rep.envelope_passed
    report(9, ok,
           f"(a) variance vs series oracle worst {worst_var:.2f} se; "
           f"(b) slope {rep.fitted_slope:.2f} >= envelope "
           f"{rep.theoretical_exponent:.2f} - 0.15",
           time.monotonic() - t0, 600)


def test_criterion_10_gamma_sweep():
    t0 = time.monotonic()
    u0 = 8.0
    config = SimConfig(
        domain=DomainSpec(1, PERIODIC, 64),
        noise=WhiteNoise(),
        sigma=SigmaSpec(scale=1.0, growth=1.5, truncation=1024.0),
        dt=1e-4, horizon=0.05, mass_bound=8 * u0 * PI,
        paths=200, base_seed=1, init_kind="constant", init_value=u0,
        workers=2,
    )
    gammas = [1.3, 1.5, 1.7, 2.0]
    thresholds = [4.0, 16.0, 64.0, 256.0, 1024.0]
    sweep = sweep_gamma(config, gammas, thresholds)

    top = [sweep.exit_fractions[g][-1] for g in gammas]
    monotone_gamma = all(a <= b for a, b in zip(top, top[1:]))
    nested_ok = all(
        all(a >= b for a, b in zip(sweep.exit_fractions[g], sweep.exit_fractions[g][1:]))
        for g in gammas
    )
    doubling_ok = all(
        math.isfinite(sweep.doubling[g]["mean_up_events_above_m0"]) for g in gammas
    )
    counts = {g: round(sweep.doubling[g]["mean_up_events_above_m0"], 3) for g in gammas}
    report(10, monotone_gamma and nested_ok and doubling_ok,
           f"exit@2^10 by gamma {dict(zip(gammas, top))} (gamma_c=1.5); nested in "
           f"threshold: {nested_ok}; mean doublings above m0="
           f"{sweep.doubling[gammas[0]]['m0']}: {counts}",
           time.monotonic() - t0, 1200)


def test_criterion_11_determinism(mass_ensemble, tmp_path):
    t0 = time.monotonic()
    reference = (mass_ensemble["out"] / "rows.csv").read_bytes()
    for workers in (1, 2):
        cfg = SimConfig(**{**MASS_CONFIG.__dict__, "workers": workers})
        out = tmp_path / f"workers{workers}"
        run_ensemble(cfg, out_dir=out)
        assert (out / "rows.csv").read_bytes() == reference, (
            f"rows.csv differs with workers={workers}"
        )
    same_hash = config_hash(MASS_CONFIG) == config_hash(
        SimConfig(**{**MASS_CONFIG.__dict__, "workers": 4})
    )
    report(11, same_hash,
           "byte-identical rows.csv across re-runs with 1 and 2 workers; "
           "config hash worker-independent",
           time.monotonic() - t0, 3600)
