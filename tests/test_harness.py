"""Config parsing, ensemble orchestration, sweep and CLI behaviour."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from stochheat.cli import main
from stochheat.config import (
    ConfigError,
    SimConfig,
    build_config,
    config_hash,
    parse_config,
    parse_config_lines,
    _DEFAULTS,
)
from stochheat.ensemble import (
    load_ensemble,
    run_ensemble,
    summarize,
    sweep_gamma,
    verify_assumptions,
)
from stochheat.noise import RieszKernel, SpectralKernel, WhiteNoise
from stochheat.spectral import DomainSpec
from stochheat.stepping import SigmaSpec, TrajectoryError, run_trajectory

MINIMAL = """
# minimal white-noise run
domain.dimension   = 1
domain.boundary    = neumann
domain.grid_points = 64
noise.kind         = white
sigma.scale        = 1.0
sigma.gamma        = 1.5
sigma.truncation   = 64
init.kind          = constant
init.value         = 2.0
run.dt             = 2e-4
run.horizon        = 0.004
run.mass_bound     = 1e12
run.paths          = 4
run.base_seed      = 7
"""


def write_config(tmp_path, text=MINIMAL, name="run.conf"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseConfig:
    def test_minimal_valid_and_paper_regime(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert isinstance(config.noise, WhiteNoise)
        assert config.sigma.growth == 1.5
        assert config.gamma_c() == pytest.approx(1.5)
        assert config.sigma_regime() == "paper regime"

    def test_riesz_alpha_out_of_range_rejected(self, tmp_path):
        text = MINIMAL.replace("noise.kind         = white",
                               "noise.kind = riesz\nnoise.alpha = 1.0")
        with pytest.raises(ConfigError, match="0 < alpha < min"):
            parse_config(write_config(tmp_path, text))

    def test_negative_initial_value_rejected(self, tmp_path):
        text = MINIMAL.replace("init.value         = 2.0", "init.value = -1.0")
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_key_has_field_path(self, tmp_path):
        text = MINIMAL + "\nrun.warp_speed = 9\n"
        with pytest.raises(ConfigError, match="run.warp_speed"):
            parse_config(write_config(tmp_path, text))

    def test_bad_value_type_reported(self, tmp_path):
        text = MINIMAL.replace("run.paths          = 4", "run.paths = four")
        with pytest.raises(ConfigError, match="run.paths"):
            parse_config(write_config(tmp_path, text))

    def test_overrides_win(self, tmp_path):
        config = parse_config(write_config(tmp_path), overrides={"run.paths": "9"})
        assert config.paths == 9

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/definitely/not/here.conf")

    def test_spectral_requires_theta(self, tmp_path):
        text = MINIMAL.replace("noise.kind         = white", "noise.kind = spectral")
        with pytest.raises(ConfigError, match="noise.theta"):
            parse_config(write_config(tmp_path, text))

    def test_spectral_shift_needed_for_neumann(self, tmp_path):
        text = MINIMAL.replace(
            "noise.kind         = white", "noise.kind = spectral\nnoise.theta = 0.25"
        )
        with pytest.raises(ConfigError, match="shift a must be positive"):
            parse_config(write_config(tmp_path, text))

    def test_horizon_not_whole_number_of_steps_rejected(self, tmp_path):
        # 0.0101 / 2e-4 = 50.5 steps: rounding up would stop past the horizon
        with pytest.raises(ConfigError, match=r"^run\.horizon:"):
            parse_config(write_config(tmp_path), overrides={"run.horizon": "0.0101"})
        with pytest.raises(ConfigError, match=r"^run\.horizon:"):
            parse_config(write_config(tmp_path), overrides={"run.horizon": "1e-4"})
        config = parse_config(write_config(tmp_path), overrides={"run.horizon": "0.0102"})
        assert config.horizon == 0.0102


class TestConfigHash:
    def base(self):
        values = dict(_DEFAULTS)
        values["run.paths"] = 3
        return build_config(values)

    def test_stable_across_calls(self):
        a, b = self.base(), self.base()
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_fields(self):
        a = self.base()
        values = dict(_DEFAULTS)
        values["run.paths"] = 3
        values["sigma.gamma"] = 1.7
        b = build_config(values)
        assert config_hash(a) != config_hash(b)

    def test_workers_excluded(self):
        # worker count must not change the hash of otherwise equal configs
        v1, v2 = dict(_DEFAULTS), dict(_DEFAULTS)
        v2["run.workers"] = 4
        assert config_hash(build_config(v1)) == config_hash(build_config(v2))


def small_config(**overrides):
    base = dict(
        domain=DomainSpec(1, "neumann", 64),
        noise=WhiteNoise(),
        sigma=SigmaSpec(1.0, 1.5, 64.0),
        dt=2e-4,
        horizon=0.004,
        mass_bound=1e12,
        paths=4,
        base_seed=7,
        init_kind="constant",
        init_value=2.0,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestRunEnsemble:
    def test_single_path_matches_run_trajectory(self):
        config = small_config(paths=1)
        result = run_ensemble(config, keep_records=True)
        direct = run_trajectory(config, config.base_seed)
        assert len(result.rows) == 1
        assert result.rows[0].csv_row() == summarize(direct).csv_row()
        assert np.array_equal(result.records[0].sup_norm, direct.sup_norm)

    def test_rerun_is_byte_identical(self, tmp_path):
        config = small_config()
        run_ensemble(config, out_dir=tmp_path / "a")
        run_ensemble(config, out_dir=tmp_path / "b")
        assert (tmp_path / "a/rows.csv").read_bytes() == (tmp_path / "b/rows.csv").read_bytes()
        ja = json.loads((tmp_path / "a/aggregates.json").read_text())
        jb = json.loads((tmp_path / "b/aggregates.json").read_text())
        assert ja == jb

    def test_worker_count_does_not_change_rows(self, tmp_path):
        serial = small_config(workers=1)
        parallel = small_config(workers=2)
        run_ensemble(serial, out_dir=tmp_path / "serial")
        run_ensemble(parallel, out_dir=tmp_path / "parallel")
        assert (tmp_path / "serial/rows.csv").read_bytes() == (
            tmp_path / "parallel/rows.csv"
        ).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_collected_and_run_continues(self, workers):
        config = small_config(
            init_value=1e308, sigma=SigmaSpec(1.0, 1.5, 1e309), paths=3,
            mass_bound=float("inf"), workers=workers,
        )
        with np.errstate(all="ignore"):
            result = run_ensemble(config)
        assert result.aggregates["failure_count"] == 3
        assert result.rows == []
        # the same messages, in seed order, whatever the worker count
        assert result.failures == [
            f"seed {seed}: step 1: non-finite field after step: step size "
            "too large for the current sup-norm"
            for seed in (7, 8, 9)
        ]

    def test_batch_rows_equal_single_paths(self):
        # one batch that mixes horizon and tau_n stops with one path that
        # blows through mid-run: the failure leaves the other rows unchanged
        config = small_config(
            domain=DomainSpec(1, "neumann", 16),
            noise=SpectralKernel(theta=0.75, a=1.0),
            sigma=SigmaSpec(1.0, 4.0, 1e100), dt=1e-3, horizon=0.05,
            mass_bound=float("inf"), paths=16, base_seed=0, init_value=1.5,
        )
        with np.errstate(all="ignore"):
            result = run_ensemble(config)
            with pytest.raises(TrajectoryError, match="^step 11: non-finite"):
                run_trajectory(config, 6)
            singles = [summarize(run_trajectory(config, seed)).csv_row()
                       for seed in range(16) if seed != 6]
        assert result.failures == [
            "seed 6: step 11: non-finite field after step: step size too "
            "large for the current sup-norm"
        ]
        assert {r.stop_flag for r in result.rows} == {"horizon", "tau_n"}
        assert [r.csv_row() for r in result.rows] == singles

    def test_aggregates_self_consistent_on_load(self, tmp_path):
        config = small_config(paths=6)
        run_ensemble(config, out_dir=tmp_path / "run")
        loaded = load_ensemble(tmp_path / "run")
        assert loaded.aggregates["paths"] == 6

    def test_tampered_rows_detected(self, tmp_path):
        config = small_config(paths=6)
        run_ensemble(config, out_dir=tmp_path / "run")
        rows_file = tmp_path / "run/rows.csv"
        lines = rows_file.read_text().splitlines()
        parts = lines[2].split(",")  # first data row (after comment + header)
        parts[4] = repr(float(parts[4]) * 2)  # corrupt max_l1
        lines[2] = ",".join(parts)
        rows_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_ensemble(tmp_path / "run")

    def test_saved_trajectory_csv(self, tmp_path):
        config = small_config(paths=2, save_trajectories=1)
        run_ensemble(config, out_dir=tmp_path / "run")
        traj = tmp_path / "run/trajectories/seed7.csv"
        assert traj.exists()
        lines = traj.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "step,t,sup_norm,l1_norm,I,Q,clamped_mass,stop_flag"


class TestSweepGamma:
    def test_exit_fractions_nested_in_threshold(self):
        config = small_config(paths=20, horizon=0.01, init_value=3.0,
                              sigma=SigmaSpec(1.0, 1.5, 16.0))
        result = sweep_gamma(config, [1.3, 1.7], [2.0, 4.0, 8.0])
        for g in result.gammas:
            fr = result.exit_fractions[g]
            assert all(a >= b for a, b in zip(fr, fr[1:]))

    def test_threshold_must_be_power_of_two(self):
        config = small_config()
        with pytest.raises(ValueError, match="power of two"):
            sweep_gamma(config, [1.5], [3.0])

    def test_doubling_reported_per_gamma(self):
        config = small_config(paths=10, horizon=0.01, mass_bound=100.0)
        result = sweep_gamma(config, [1.5], [4.0])
        info = result.doubling[1.5]
        assert {"m0", "mean_up_events_above_m0", "fast_up_events", "slow_up_events"} <= set(info)


class TestVerifyAssumptions:
    def test_white_noise_clauses(self):
        config = small_config()
        report = verify_assumptions(config)
        assert report.clauses["A"]["passed"]
        assert report.clauses["A"]["fitted_slope"] == pytest.approx(-0.5, abs=0.05)
        assert report.clauses["B"]["passed"]
        assert report.clauses["C"]["inapplicable"]

    def test_spectral_all_clauses_pass(self):
        config = small_config(
            domain=DomainSpec(1, "dirichlet", 64),
            noise=SpectralKernel(theta=0.25, a=0.0),
        )
        report = verify_assumptions(config)
        assert report.clauses["A"]["passed"]
        assert report.clauses["B"]["passed"]
        assert abs(report.clauses["B"]["fitted_slope"] + 0.25) < 0.1
        assert report.clauses["C"]["passed"]
        assert report.passed

    def test_eta_boundary_fails_clause_b(self):
        config = small_config(
            domain=DomainSpec(1, "dirichlet", 64),
            noise=SpectralKernel(theta=0.5, a=0.0),  # eta = 0 boundary
        )
        report = verify_assumptions(config)
        assert not report.clauses["B"]["passed"]
        assert "eta" in report.clauses["B"]["error"]

    def test_riesz_d3_clause_b_passes(self):
        # clause B smooths the heat kernel against the Riesz covariance on a
        # 64^3 grid; a dense covariance there would need terabytes
        config = small_config(
            domain=DomainSpec(3, "neumann", 8), noise=RieszKernel(alpha=1.0),
        )
        report = verify_assumptions(config)
        assert report.clauses["B"]["passed"], report.clauses["B"]
        assert report.clauses["B"]["fitted_slope"] == pytest.approx(-0.5, abs=0.1)
        assert report.clauses["C"]["passed"]


class TestCLI:
    def test_simulate_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert code == 0
        captured = capsys.readouterr()
        assert "config hash" in captured.out
        run_dirs = list((tmp_path / "out").iterdir())
        assert len(run_dirs) == 1
        assert (run_dirs[0] / "rows.csv").exists()

    def test_simulate_config_error_exit_code(self, tmp_path, capsys):
        text = MINIMAL.replace("noise.kind         = white",
                               "noise.kind = riesz\nnoise.alpha = 1.0")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_set_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main([
            "simulate", "--config", str(cfg), "--set", "run.paths=2",
            "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        run_dir = next((tmp_path / "out").iterdir())
        rows = (run_dir / "rows.csv").read_text().splitlines()
        assert len(rows) == 4  # hash comment + header + 2 paths
        assert rows[0].startswith("# config_hash=")

    def test_report_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "out")])
        run_dir = next((tmp_path / "out").iterdir())
        assert main(["report", "--input", str(run_dir)]) == 0
        captured = capsys.readouterr()
        assert "aggregates" in captured.out

    def test_report_detects_corruption(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "out")])
        run_dir = next((tmp_path / "out").iterdir())
        rows_file = run_dir / "rows.csv"
        lines = rows_file.read_text().splitlines()
        parts = lines[2].split(",")
        parts[4] = repr(float(parts[4]) + 1.0)
        lines[2] = ",".join(parts)
        rows_file.write_text("\n".join(lines) + "\n")
        assert main(["report", "--input", str(run_dir)]) == 2

    def test_verify_assumptions_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main([
            "verify-assumptions", "--config", str(cfg),
            "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "clause (A): PASS" in captured.out
        assert "clause (C): INAPPLICABLE" in captured.out

    def test_verify_assumptions_riesz_3d_passes_clause_a(self, tmp_path, capsys):
        config = Path(__file__).resolve().parent.parent / "configs" / "riesz_3d.conf"
        code = main([
            "verify-assumptions", "--config", str(config),
            "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "clause (A): PASS" in capsys.readouterr().out

    def test_probe_convolution_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main([
            "probe-convolution", "--config", str(cfg),
            "--p", "20", "--T-grid", "0.002,0.004", "--paths", "64",
            "--dt", "2e-4", "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "envelope check" in captured.out
        # probes of one config that differ only in --p must not share a file
        code = main([
            "probe-convolution", "--config", str(cfg),
            "--p", "24", "--T-grid", "0.002,0.004", "--paths", "64",
            "--dt", "2e-4", "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        reports = sorted((tmp_path / "out").glob("probe-*.json"))
        assert len(reports) == 2
        assert sorted(json.loads(r.read_text())["p"] for r in reports) == [20.0, 24.0]

    def test_sweep_gamma_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for gammas in ("1.5", "1.7"):
            code = main([
                "sweep-gamma", "--config", str(cfg), "--gammas", gammas,
                "--thresholds", "4,8", "--set", "run.paths=4",
                "--output", str(tmp_path / "out"),
            ])
            assert code == 0
        captured = capsys.readouterr()
        assert "thr 4" in captured.out
        # sweeps that differ only in their gamma grid must not share a directory
        dirs = sorted((tmp_path / "out").glob("sweep-*"))
        assert len(dirs) == 2
        assert [json.loads((d / "sweep.json").read_text())["gammas"] for d in dirs] \
            in ([[1.5], [1.7]], [[1.7], [1.5]])
