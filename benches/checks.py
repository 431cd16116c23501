"""Output checks run after the timed region of a benchmark operation.

Every reference value is computed here, apart from the package: the
initial mass, the Riesz covariance and its double integral, and the
eigen-series of the probe variance.  The rest are properties the method
must have (the mass identity, monotone Q, the stopped-martingale mean, the
Doob bound, consistent stop flags, byte-identical summary rows).

Each check returns a list of failure messages; an empty list is a pass.
Statistical checks allow five standard errors, so a correct program fails
one of them with probability below about 1e-5 per run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

Z_LIMIT = 5.0
MASS_RTOL = 1e-9
# stop_time is accumulated by repeated addition of dt, so a path that runs
# to the horizon can end a few ulps past it
TIME_RTOL = 1e-12
# closed form of int int_{[0,1]^3 x [0,1]^3} |x-y|^(-1) dx dy
RIESZ_UNIT_CUBE = 2.0 * ((1 + math.sqrt(2) - 2 * math.sqrt(3)) / 5 - math.pi / 3
                         + math.log((1 + math.sqrt(2)) * (2 + math.sqrt(3))))
QV_RTOL = 0.01


def initial_mass(config) -> float:
    """int u0 for the constant initial data of the shipped configs."""
    if config.init_kind != "constant":
        raise ValueError("checks expect constant initial data")
    return config.init_value * config.domain.length ** config.domain.dimension


def check_trajectories(sh, config, ctx, rows_by_seed) -> list:
    """Re-run the first, middle and last seed: mass identity, monotone Q,
    summary rows equal to the pooled rows.csv rows."""
    errors = []
    seeds = sorted({config.base_seed, config.base_seed + config.paths // 2,
                    config.base_seed + config.paths - 1})
    for seed in seeds:
        rec = sh.run_trajectory(config, seed, context=ctx)
        gap = np.abs(rec.l1_norm - (rec.I + rec.clamped_mass))
        allowed = MASS_RTOL * (np.abs(rec.I) + rec.clamped_mass)
        if not np.all(gap <= allowed):
            s = int(np.argmax(gap - allowed))
            errors.append(f"seed {seed}: mass identity broken at step {s}: "
                          f"|int u - I - clamped| = {gap[s]:.3g} > {allowed[s]:.3g}")
        if np.any(np.diff(rec.Q) < 0):
            errors.append(f"seed {seed}: Q decreases")
        row = sh.ensemble.summarize(rec).csv_row()
        if rows_by_seed.get(seed) != row:
            errors.append(f"seed {seed}: re-run row {row!r} differs from "
                          f"rows.csv {rows_by_seed.get(seed)!r}")
    return errors


def check_rows(config, rows, u0_mass: float) -> list:
    """Statistical and bookkeeping checks over the pooled summary rows."""
    errors = []
    n = len(rows)
    expected = [config.base_seed + i for i in range(config.paths)]
    if [r.seed for r in rows] != expected:
        return [f"rows.csv seeds are not {expected[0]}..{expected[-1]}"]

    final_I = np.array([r.final_I for r in rows])
    final_Q = np.array([r.final_Q for r in rows])
    # I is a stopped martingale and Var I = E Q (Ito isometry)
    se = math.sqrt(final_Q.mean() / n)
    if abs(final_I.mean() - u0_mass) > Z_LIMIT * se:
        errors.append(f"mean final_I {final_I.mean():.6g} is more than {Z_LIMIT} se "
                      f"({se:.3g}) from int u0 = {u0_mass:.6g}")

    max_l1 = np.array([r.max_l1 for r in rows])
    for mult in (2.0, 4.0, 8.0):
        bound = 1.0 / mult  # Doob: P(max L1 > M) <= int u0 / M
        emp = float(np.mean(max_l1 > mult * u0_mass))
        if emp > bound + Z_LIMIT * math.sqrt(bound * (1 - bound) / n):
            errors.append(f"Doob bound broken at M = {mult} int u0: "
                          f"P = {emp:.4g} > {bound:.4g}")

    horizon, trunc = config.horizon, config.sigma.truncation
    for r in rows:
        if r.stop_time > horizon * (1 + TIME_RTOL) or r.stop_time < 0:
            errors.append(f"seed {r.seed}: stop_time {r.stop_time!r} outside "
                          f"[0, horizon = {horizon!r}]")
        hit_n = r.max_sup_norm >= trunc
        if (r.stop_flag == "tau_n") != hit_n:
            errors.append(f"seed {r.seed}: stop flag {r.stop_flag} but max sup "
                          f"{r.max_sup_norm!r} vs truncation {trunc}")
        if r.stop_flag == "horizon" and abs(r.stop_time - horizon) > TIME_RTOL * horizon:
            errors.append(f"seed {r.seed}: horizon stop at t = {r.stop_time!r}")
        if r.stop_flag == "tau_M" and not r.final_I > config.mass_bound:
            errors.append(f"seed {r.seed}: tau_M with final I {r.final_I!r}")
    return errors


def riesz_grid_points(config) -> np.ndarray:
    """(N, d) cell-midpoint coordinates of the Neumann grid, C order."""
    if config.domain.boundary != "neumann":
        raise ValueError("Riesz checks expect the Neumann midpoint grid")
    n, L, d = config.domain.grid_points, config.domain.length, config.domain.dimension
    axis = (np.arange(n) + 0.5) * (L / n)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def check_riesz_covariance(config, sampler, seed: int) -> list:
    """Sampled covariance at off-diagonal pairs against dt |x-y|^(-alpha).

    The sample count keeps the dense sampling to about a second at 16^3.
    """
    d, n = config.domain.dimension, config.domain.grid_points
    samples = min(16000, 12_000_000 // n**d)
    alpha, dt = config.noise.alpha, config.dt
    pts = riesz_grid_points(config)
    base = np.full(d, n // 2 - 1)
    offsets = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (0, 2, 1), (-3, 1, 2)]
    pairs = []
    for off in offsets:
        other = base + np.array(off[:d])
        pairs.append((int(np.ravel_multi_index(base, (n,) * d)),
                      int(np.ravel_multi_index(other, (n,) * d))))
    # the two farthest cells: opposite corners
    pairs.append((0, n**d - 1))
    i_idx = np.array([p[0] for p in pairs])
    j_idx = np.array([p[1] for p in pairs])

    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(10**9)))
    prod = np.zeros(len(pairs))
    var_i = np.zeros(len(pairs))
    var_j = np.zeros(len(pairs))
    drawn = 0
    while drawn < samples:
        count = min(1000, samples - drawn)
        X = sampler.sample_batch(dt, rng, count).reshape(count, -1)
        prod += np.sum(X[:, i_idx] * X[:, j_idx], axis=0)
        var_i += np.sum(X[:, i_idx] ** 2, axis=0)
        var_j += np.sum(X[:, j_idx] ** 2, axis=0)
        drawn += count
    emp, var_i, var_j = prod / drawn, var_i / drawn, var_j / drawn

    errors = []
    r = np.linalg.norm(pts[i_idx] - pts[j_idx], axis=1)
    expected = dt * r ** (-alpha)
    se = np.sqrt((var_i * var_j + expected**2) / drawn)
    for k, (i, j) in enumerate(pairs):
        if abs(emp[k] - expected[k]) > Z_LIMIT * se[k]:
            errors.append(f"covariance at pair ({i}, {j}), |x-y| = {r[k]:.4g}: "
                          f"sampled {emp[k]:.5g}, expected {expected[k]:.5g} "
                          f"(se {se[k]:.2g})")
    return errors


def check_riesz_qv(config, sampler, grid_shape) -> list:
    """qv_form(1) against the closed-form double integral over [0, L]^3."""
    d, L, alpha = config.domain.dimension, config.domain.length, config.noise.alpha
    if d != 3 or alpha != 1.0:
        raise ValueError("the closed-form double integral is for d = 3, alpha = 1")
    exact = RIESZ_UNIT_CUBE * L ** (2 * d - alpha)
    value = sampler.qv_form(np.ones(grid_shape))
    if abs(value - exact) > QV_RTOL * exact:
        return [f"qv_form(1) = {value:.6g}, closed form {exact:.6g}"]
    return []


def probe_variance_series(config, T: float) -> float:
    """Variance of Z(T, L/2) for phi = 1: the Dirichlet eigen-series.

    sum_k Gamma(theta) (a + k'^2)^(-theta) (1 - e^(-2 k'^2 T)) / (2 k'^2)
    * (2/L) sin^2(k' L/2), k' = k pi / L, over the retained modes.
    """
    from scipy.special import gamma

    dom, noise = config.domain, config.noise
    if dom.dimension != 1 or dom.boundary != "dirichlet":
        raise ValueError("the probe oracle is for the 1-d Dirichlet box")
    L = dom.length
    modes = min(dom.modes, dom.grid_points - 1)
    kk = np.arange(1, modes + 1) * (math.pi / L)
    alpha = kk**2
    weight = gamma(noise.theta) * (noise.a + alpha) ** (-noise.theta)
    eig_sq = (2.0 / L) * np.sin(kk * L / 2) ** 2
    return float(np.sum(weight * (1 - np.exp(-2 * alpha * T)) / (2 * alpha) * eig_sq))


def check_probe(config, report, paths: int, report_path: Path) -> list:
    errors = []
    if not report.variance_checks:
        return ["probe report carries no centre variances"]
    se_rel = math.sqrt(2.0 / (paths - 1))
    for v in report.variance_checks:
        oracle = probe_variance_series(config, v["T"])
        if abs(v["empirical"] - oracle) > Z_LIMIT * se_rel * oracle:
            errors.append(f"centre variance at T = {v['T']}: {v['empirical']:.5g}, "
                          f"eigen-series {oracle:.5g}")
    est = np.array(report.moment_estimates)
    if not (np.all(np.isfinite(est)) and np.all(est > 0) and np.all(np.diff(est) >= 0)):
        errors.append(f"moment estimates not positive and nondecreasing: {est}")
    stored = json.loads(report_path.read_text())
    if stored.get("moment_estimates") != report.moment_estimates:
        errors.append("written probe report differs from the returned one")
    return errors


def check_ensemble(sh, config, ctx, out_dir: Path) -> list:
    """All checks of an ensemble operation, on its written outputs."""
    try:
        loaded = sh.load_ensemble(out_dir)
    except ValueError as exc:
        return [f"load_ensemble rejected the written files: {exc}"]
    rows = loaded.rows
    lines = (out_dir / "rows.csv").read_text().splitlines()[2:]
    rows_by_seed = {int(line.split(",", 1)[0]): line for line in lines}

    errors = check_rows(config, rows, initial_mass(config))
    errors += check_trajectories(sh, config, ctx, rows_by_seed)
    if config.noise.variant == "riesz":
        errors += check_riesz_covariance(config, ctx.sampler, config.base_seed)
        errors += check_riesz_qv(config, ctx.sampler, ctx.basis.grid_shape)
    return errors
