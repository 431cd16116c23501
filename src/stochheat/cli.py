"""Command line interface.

Subcommands: simulate, sweep-gamma, verify-assumptions, probe-convolution,
report.  Config values come from a key-value file (see config.py for the
schema) and any key can be overridden on the command line with repeated
``--set key=value`` flags.

Exit codes: 0 success, 1 configuration error, 2 runtime failure: failures
over the threshold, a dead pool worker, or inconsistent ``report`` files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from .config import ConfigError, config_hash, parse_config
from .diagnostics import ProbeArgumentError, convolution_moment_probe
from .ensemble import (
    load_ensemble,
    run_ensemble,
    sweep_gamma,
    sweep_gammas,
    sweep_thresholds,
    verify_assumptions,
    write_json,
)
from .spectral import build_basis

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _overrides(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        out[key.strip()] = val.strip()
    return out


def _load_config(args):
    return parse_config(args.config, overrides=_overrides(args.set))


def _stamp(experiment) -> str:
    """Short digest of the config hash plus the command's own arguments,
    which are part of the experiment: a stamp over the config alone would
    let two experiments on one config overwrite each other."""
    return hashlib.sha256(json.dumps(experiment).encode()).hexdigest()[:12]


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out_dir = Path(args.output or config.output_dir) / config_hash(config)
    result = run_ensemble(config, out_dir=out_dir)
    agg = result.aggregates
    print(f"config hash    : {result.config_hash}")
    print(f"paths          : {agg['paths']}  (failures: {agg['failure_count']})")
    print(f"sigma regime   : {config.sigma_regime()}")
    if agg["paths"]:  # with every path failed there is nothing to summarize
        print(f"stop fractions : {agg['stop_fractions']}")
        print(f"mean final I   : {agg['mean_final_I']:.6g} (u0 L1 = {agg['u0_l1']:.6g})")
    print(f"rows written to {out_dir}/rows.csv")
    if len(result.failures) > config.max_failures:
        print(f"failure threshold exceeded: {len(result.failures)} > "
              f"{config.max_failures}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _float_list(flag: str, text: str, check) -> list:
    """The comma-separated numbers of ``flag``, passed through ``check``."""
    try:
        return check([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def cmd_sweep_gamma(args) -> int:
    config = _load_config(args)
    gammas = _float_list("--gammas", args.gammas, sweep_gammas)
    thresholds = _float_list("--thresholds", args.thresholds, sweep_thresholds)
    result = sweep_gamma(config, gammas, thresholds)
    stamp = _stamp([result.config_hash, result.gammas, result.thresholds])
    out_dir = Path(args.output or config.output_dir) / f"sweep-{stamp}"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "sweep.json", result.config_hash, result.to_dict())
    (out_dir / "exit_fractions.csv").write_text(result.exit_table_csv())
    print("gamma | " + " | ".join(f"thr {t:g}" for t in result.thresholds))
    for g in result.gammas:
        cells = " | ".join(f"{f:7.4f}" for f in result.exit_fractions[g])
        print(f"{g:5.2f} | {cells}   (mean doublings above m0="
              f"{result.doubling[g]['m0']}: "
              f"{result.doubling[g]['mean_up_events_above_m0']:.3f})")
    print(f"sweep written to {out_dir}")
    return EXIT_OK


def cmd_verify_assumptions(args) -> int:
    config = _load_config(args)
    report = verify_assumptions(config)
    out_dir = Path(args.output or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"assumptions-{report.config_hash}.json"
    write_json(out, report.config_hash, report.to_dict())
    for name, clause in report.clauses.items():
        if clause.get("inapplicable"):
            status = "INAPPLICABLE"
        else:
            status = "PASS" if clause.get("passed") else "FAIL"
        detail = {k: v for k, v in clause.items() if k not in ("passed", "inapplicable")}
        print(f"clause ({name}): {status}  {detail}")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_probe_convolution(args) -> int:
    config = _load_config(args)
    basis = build_basis(config.domain)
    t_grid = _float_list("--T-grid", args.T_grid, list)
    dt = config.dt if args.dt is None else args.dt
    try:
        report = convolution_moment_probe(
            basis, config.noise, p=args.p, T_grid=t_grid, paths=args.paths,
            dt=dt, seed=config.base_seed,
        )
    except ProbeArgumentError as exc:
        # the probe's argument names are the flags' names: T_grid is --T-grid
        raise ConfigError(f"--{exc.argument.replace('_', '-')}: {exc}") from exc
    out_dir = Path(args.output or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    # the stream layout is part of the experiment: a report drawn from
    # other streams is another experiment and gets its own file
    stamp = _stamp([chash, args.p, t_grid, args.paths, dt, report.streams])
    out = out_dir / f"probe-{stamp}.json"
    payload = {"schema_version": 1, "config_hash": chash}
    payload.update(report.to_dict())
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"p                 : {report.p}")
    print(f"fitted slope      : {report.fitted_slope:.4f}")
    print(f"exponent envelope : {report.theoretical_exponent:.4f}")
    print(f"envelope check    : {'PASS' if report.envelope_passed else 'FAIL'}")
    if report.variance_checks:
        worst = max(
            abs(v["empirical"] - v["oracle"]) / v["se"] for v in report.variance_checks
        )
        print(f"variance oracle   : worst deviation {worst:.2f} se "
              f"({'PASS' if report.variance_passed else 'FAIL'})")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        result = load_ensemble(args.input)
    except (ValueError, FileNotFoundError) as exc:
        print(f"result files inconsistent or missing: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    agg = result.aggregates
    print(f"config hash : {result.config_hash}")
    if "streams" in result.run_info:
        print(f"streams     : {json.dumps(result.run_info['streams'])}")
    print("aggregates (recomputed from rows and verified):")
    print(json.dumps(agg, indent=2))
    # one verdict per paper bound, from the stored passed flags
    for entry in agg.get("doob", []):
        print(f"Doob bound at M = {entry['M']:.6g}: {_verdict(entry['passed'])}  "
              f"(P(max L1 > M) = {entry['empirical']:.4g}, bound u0_L1/M = "
              f"{entry['bound']:.4g}, margin {entry['margin_se']:.2f} se)")
    qv = agg.get("qv_at_mass_bound")
    if qv is not None:
        print(f"QV bound at M = {qv['M']:.6g}: {_verdict(qv['passed'])}  "
              f"(E Q(min(tau_M, stop)) = {qv['mean_Q']:.4g}, bound M^2 = "
              f"{qv['bound']:.4g}, se {qv['se']:.3g})")
    return EXIT_OK


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochheat",
        description="Monte Carlo laboratory for the superlinear stochastic heat equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="key-value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--output", help="output directory (overrides run.output_dir)")

    p = sub.add_parser("simulate", help="run a seeded trajectory ensemble")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-gamma", help="exit fractions across growth exponents")
    add_common(p)
    p.add_argument("--gammas", required=True, help="comma-separated gamma grid")
    p.add_argument("--thresholds", default="4,16,64,256,1024",
                   help="comma-separated power-of-two sup-norm thresholds")
    p.set_defaults(func=cmd_sweep_gamma)

    p = sub.add_parser("verify-assumptions", help="executable decay/integrability checks")
    add_common(p)
    p.set_defaults(func=cmd_verify_assumptions)

    p = sub.add_parser("probe-convolution", help="stochastic convolution moment probe")
    add_common(p)
    p.add_argument("--p", type=float, default=20.0, help="moment order")
    p.add_argument("--T-grid", default="0.001,0.002,0.005,0.01,0.02,0.05,0.1",
                   dest="T_grid", help="comma-separated horizons")
    p.add_argument("--paths", type=int, default=2048)
    p.add_argument("--dt", type=float, default=None, help="probe step (default run.dt)")
    p.set_defaults(func=cmd_probe_convolution)

    p = sub.add_parser("report", help="reload persisted results and verify consistency")
    p.add_argument("--input", required=True, help="ensemble output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenExecutor as exc:  # a dead pool worker, by a base that loads no multiprocessing
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
