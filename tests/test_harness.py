"""Config parsing, ensemble orchestration, sweep and CLI behaviour."""

import ast
import dataclasses
import functools
import json
import math
import re
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from stochheat import config as config_module, diagnostics, ensemble, noise, stepping
from stochheat.cli import EXIT_CONFIG, EXIT_RUNTIME, main
from stochheat.config import (
    ConfigError,
    SimConfig,
    config_hash,
    parse_config,
    parse_config_lines,
    _KEYS,
    _NO_DEFAULT,
    _UNHASHED,
)
from stochheat.diagnostics import doob_check, qv_bound_check
from stochheat.ensemble import (
    EnsembleResult,
    TrajectorySummary,
    compute_aggregates,
    load_ensemble,
    run_ensemble,
    summarize,
    sweep_gamma,
    verify_assumptions,
)
from stochheat.noise import KERNELS, RieszKernel, SpectralKernel, WhiteNoise
from stochheat.spectral import DomainSpec
from stochheat.stepping import (
    SigmaSpec,
    TrajectoryError,
    build_context,
    run_trajectory,
)

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


# MINIMAL without its init.* keys: constant data of the default value 1.0,
# so an override may switch init.kind without an init.value it would not read
NO_INIT = MINIMAL.replace("init.kind          = constant\ninit.value         = 2.0\n", "")


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

    def test_negative_eigenmode_amplitude_rejected(self, tmp_path):
        # named as the amplitude, not as the (nonnegative) eigenmode
        with pytest.raises(ConfigError, match=r"^init\.amplitude:"):
            parse_config(write_config(tmp_path, NO_INIT),
                         overrides={"init.kind": "eigenmode", "init.amplitude": "-1"})

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

    @pytest.mark.parametrize("overrides, key", [
        ({"noise.alpha": "0.3"}, "noise.alpha"),
        ({"noise.kind": "riesz", "noise.alpha": "0.3", "noise.theta": "1"}, "noise.theta"),
        ({"noise.kind": "riesz", "noise.alpha": "0.3", "noise.shift": "1"}, "noise.shift"),
        ({"noise.kind": "spectral", "noise.theta": "0.25", "noise.shift": "1",
          "noise.alpha": "0.3"}, "noise.alpha"),
    ], ids=["white-alpha", "riesz-theta", "riesz-shift", "spectral-alpha"])
    def test_noise_key_the_kernel_does_not_read_rejected(self, tmp_path, overrides, key):
        # ignoring it would run another noise than the one the key describes
        kind = overrides.get("noise.kind", "white")
        with pytest.raises(ConfigError, match=rf"^{key}: not read by the {kind} kernel$"):
            parse_config(write_config(tmp_path), overrides=overrides)
        read = {k: v for k, v in overrides.items() if k != key}
        assert parse_config(write_config(tmp_path), overrides=read).noise.variant == kind

    def test_unknown_noise_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError,
                           match=r"^noise\.kind: 'pink' not one of riesz\|spectral\|white$"):
            parse_config(write_config(tmp_path), overrides={"noise.kind": "pink"})

    @pytest.mark.parametrize("key", ["run.paths", "run.workers"])
    def test_zero_paths_or_workers_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=rf"^{key}: must be >= 1$"):
            parse_config(write_config(tmp_path), overrides={key: "0"})

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

    @pytest.mark.parametrize("overrides, key", [
        ({"init.value": "64"}, "init.value"),
        ({"init.value": "100"}, "init.value"),
        # 30 e_1 = 30 sqrt(2/pi) sin(x) peaks at 23.9 at the grid point pi/2
        ({"init.kind": "eigenmode", "init.amplitude": "30", "domain.boundary": "dirichlet",
          "sigma.truncation": "20"}, "init.amplitude"),
    ])
    def test_initial_sup_at_truncation_rejected(self, tmp_path, overrides, key):
        # every path would stop at step 0 as tau_n
        with pytest.raises(ConfigError, match=rf"^{key}: .*sigma\.truncation"):
            parse_config(write_config(tmp_path, NO_INIT), overrides=overrides)
        below = dict(overrides, **{"sigma.truncation": "1e3"})
        assert parse_config(write_config(tmp_path, NO_INIT),
                            overrides=below).sigma.truncation == 1e3

    @pytest.mark.parametrize("kind, key", [
        ("constant", "init.mode"), ("constant", "init.amplitude"), ("constant", "init.path"),
        ("eigenmode", "init.value"), ("eigenmode", "init.path"),
        ("file", "init.value"), ("file", "init.mode"), ("file", "init.amplitude"),
    ])
    def test_init_key_the_kind_does_not_read_rejected(self, tmp_path, kind, key):
        # ignoring it would run the same data under another hash
        message = rf"^{key}: not read by init\.kind = {kind}$"
        value = LEGAL[key][0]
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, NO_INIT),
                         overrides={"init.kind": kind, key: value})
        text = NO_INIT + f"init.kind = {kind}\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, text))

    def test_shipped_config_rejects_unread_init_mode(self):
        shipped = Path(__file__).resolve().parent.parent / "configs/white_noise_critical.conf"
        with pytest.raises(ConfigError, match=r"^init\.mode: not read by init\.kind = constant$"):
            parse_config(shipped, overrides={"init.mode": "3"})

    @pytest.mark.parametrize("overrides, key", [
        ({"init.value": "0"}, "init.value"),
        ({"init.kind": "eigenmode", "init.amplitude": "0"}, "init.amplitude"),
        ({"init.kind": "file", "init.path": "zeros.npy"}, "init.path"),
    ], ids=["constant", "eigenmode", "file"])
    def test_zero_initial_data_rejected(self, tmp_path, monkeypatch, overrides, key):
        # int u0 = 0 leaves the Doob levels 2, 4 and 8 int u0 at 0
        monkeypatch.chdir(tmp_path)
        np.save("zeros.npy", np.zeros(64))
        with pytest.raises(ConfigError, match=rf"^{key}: initial data is zero everywhere"):
            parse_config(write_config(tmp_path, NO_INIT), overrides=overrides)

    @pytest.mark.parametrize("key", ["run.max_failures", "run.save_trajectories"])
    def test_negative_output_counts_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=rf"^{key}:"):
            parse_config(write_config(tmp_path), overrides={key: "-1"})
        assert getattr(parse_config(write_config(tmp_path), overrides={key: "0"}),
                       key.split(".")[1]) == 0

    @pytest.mark.parametrize("key, field, value", [
        ("run.dt", "dt", math.nan),
        ("run.dt", "dt", math.inf),
        ("run.horizon", "horizon", math.nan),
        ("run.horizon", "horizon", math.inf),
        ("run.mass_bound", "mass_bound", math.nan),
        ("init.value", "init_value", math.nan),
        ("init.amplitude", "init_amplitude", math.nan),
        ("sigma.scale", "sigma", SigmaSpec(math.nan, 1.5, 64.0)),
        ("sigma.gamma", "sigma", SigmaSpec(1.0, math.inf, 64.0)),
        ("sigma.truncation", "sigma", SigmaSpec(1.0, 1.5, math.nan)),
    ])
    def test_simconfig_rejects_non_finite(self, key, field, value):
        # built directly, not through the parser, which rejects nan itself
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            small_config(**{field: value})

    def test_infinite_levels_accepted(self):
        # no mass bound, and an untruncated coefficient
        config = small_config(mass_bound=math.inf, sigma=SigmaSpec(1.0, 1.5, math.inf))
        assert config.mass_bound == config.sigma.truncation == math.inf

    @pytest.mark.parametrize("paths, base_seed", [(1, -1), (2, 2**64 - 1), (1, 2**64)])
    def test_seed_outside_uint64_rejected(self, paths, base_seed):
        # path k is seeded by base_seed + k, which must be a uint64 Philox key
        with pytest.raises(ConfigError, match=r"^run\.base_seed: "):
            small_config(paths=paths, base_seed=base_seed)

    def test_last_seeds_of_uint64_accepted(self):
        assert small_config(paths=2, base_seed=2**64 - 2).base_seed == 2**64 - 2
        assert small_config(paths=1, base_seed=0).base_seed == 0


class TestConfigHash:
    def base(self, **overrides):
        return parse_config_lines([], {"run.paths": "3", **overrides})

    def test_stable_across_calls(self):
        a, b = self.base(), self.base()
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_fields(self):
        assert config_hash(self.base()) != config_hash(self.base(**{"sigma.gamma": "1.7"}))

    def test_workers_excluded(self):
        # worker count must not change the hash of otherwise equal configs
        assert config_hash(self.base()) == config_hash(self.base(**{"run.workers": "4"}))

    def test_initial_data_file_contents_hashed(self, tmp_path):
        # two arrays saved at one path are two experiments, so two stamps
        path = tmp_path / "u0.npy"
        hashes = []
        for level in (1.0, 2.0):
            np.save(path, np.full(_KEYS["domain.grid_points"][1], level))
            hashes.append(config_hash(self.base(**{"init.kind": "file",
                                                   "init.path": str(path)})))
        assert hashes[0] != hashes[1]

    def test_shipped_config_hashes_unchanged(self):
        # a refactor of the hashed payload must not move existing stamps.
        # These moved once when the paths' streams went from Philox to
        # SFC64: that changed every row, so the hash names the generator.
        # They moved again when the hash took in each kernel's normal_shape,
        # as the small 3-d Riesz torus went to the real cosine-sine basis on
        # its minimal embedding: that changed every riesz_3d row
        configs = Path(__file__).resolve().parent.parent / "configs"
        assert {c: config_hash(parse_config(configs / f"{c}.conf")) for c in (
            "dirichlet_spectral", "riesz_3d", "white_noise_critical")} == {
            "dirichlet_spectral": "d09f33ce02ed",
            "riesz_3d": "e2482cb4560d",
            "white_noise_critical": "cc5e609c71e0",
        }

    def test_bit_generator_hashed(self, monkeypatch):
        # the same config drawn from another generator is another experiment
        before = config_hash(self.base())
        monkeypatch.setattr(config_module, "BIT_GENERATOR", "PCG64")
        assert config_hash(self.base()) != before

    def test_embedding_length_hashed(self, monkeypatch):
        # the same config drawn in another layout of normals is another
        # experiment: a Riesz torus of another length moves the stamp
        riesz = {"noise.kind": "riesz", "noise.alpha": "0.25"}
        before = config_hash(self.base(**riesz))
        monkeypatch.setattr(noise, "_smooth_len", lambda n: n + 1)
        # a fresh cache, so the patched length is computed
        monkeypatch.setattr(noise, "_riesz_embedding",
                            functools.cache(noise._riesz_embedding.__wrapped__))
        assert config_hash(self.base(**riesz)) != before


SPECTRAL = {"noise.kind": "spectral", "noise.theta": "1.5", "noise.shift": "1"}

# a legal value of each key other than its default, and the keys it needs
LEGAL = {
    "domain.dimension": ("2", SPECTRAL),
    "domain.boundary": ("dirichlet", {}),
    "domain.grid_points": ("64", {}),
    "domain.modes": ("32", {}),
    "domain.length": ("2.0", {}),
    "noise.kind": ("spectral", {}),
    "noise.alpha": ("0.3", {"noise.kind": "riesz", "noise.alpha": "0.25"}),
    "noise.theta": ("2.5", SPECTRAL),
    "noise.shift": ("2.0", SPECTRAL),
    "sigma.scale": ("0.5", {}),
    "sigma.gamma": ("1.2", {}),
    "sigma.truncation": ("32", {}),
    "init.kind": ("eigenmode", {}),
    "init.value": ("2.0", {}),
    "init.mode": ("0", {"init.kind": "eigenmode"}),
    "init.amplitude": ("2.0", {"init.kind": "eigenmode"}),
    "init.path": ("u0.npy", {"init.kind": "file", "init.path": "base.npy"}),
    "run.dt": ("1e-4", {}),
    "run.horizon": ("0.2", {}),
    "run.mass_bound": ("1e6", {}),
    "run.paths": ("3", {}),
    "run.base_seed": ("5", {}),
    "run.output_dir": ("elsewhere", {}),
    "run.workers": ("2", {}),
    "run.max_failures": ("1", {}),
    "run.save_trajectories": ("1", {}),
}

# keys set only together with the value: a kernel's keys are rejected under
# another kernel, so the base config (white noise) cannot carry them
WITH_VALUE = {"noise.kind": {"noise.theta": "1.5", "noise.shift": "1"}}


class TestConfigKeys:
    """Parsing, defaults, assembly and the hash all read the one table _KEYS."""

    @staticmethod
    def field_value(config, key):
        group = key.split(".")[0]
        owner = {"domain": config.domain, "noise": config.noise,
                 "sigma": config.sigma}.get(group, config)
        return getattr(owner, _KEYS[key][2])

    @pytest.mark.parametrize("key", list(_KEYS))
    def test_each_key_reaches_its_field_and_the_hash(self, key, tmp_path, monkeypatch):
        # file data is read when the config is built: both sides need a file
        monkeypatch.chdir(tmp_path)
        for name in ("u0.npy", "base.npy"):
            np.save(name, np.full(_KEYS["domain.grid_points"][1], 2.0))
        value, context = LEGAL[key]
        base = parse_config_lines([], context)
        config = parse_config_lines([], {**context, **WITH_VALUE.get(key, {}), key: value})
        expected = _KEYS[key][0](value)
        assert self.field_value(config, key) == expected
        assert self.field_value(base, key) != expected
        assert (config_hash(config) == config_hash(base)) == (key in _UNHASHED)

    def test_init_rows_are_the_init_table(self):
        # INIT_KEYS says which keys each kind reads; every init.* row but
        # init.kind is read by some kind, and no kind reads another key
        rows = {key for key in _KEYS if key.startswith("init.")} - {"init.kind"}
        read = [key for keys in stepping.INIT_KEYS.values() for key in keys]
        assert set(read) == rows

    def test_noise_rows_are_the_kernel_fields(self):
        # the kernel dataclasses are the noise schema: one row per field,
        # whose default only the kernel states
        rows = [(field, default) for key, (_, default, field) in _KEYS.items()
                if key.startswith("noise.") and key != "noise.kind"]
        kernel_fields = {f.name for kernel in KERNELS.values()
                         for f in dataclasses.fields(kernel)}
        assert Counter(field for field, _ in rows) == Counter(kernel_fields)
        assert all(default is _NO_DEFAULT for _, default in rows)

    def test_table_defaults_are_the_dataclass_defaults(self):
        owners = {"domain": DomainSpec, "init": SimConfig, "run": SimConfig}
        compared = {}
        for key, (_, default, field) in _KEYS.items():
            owner = owners.get(key.split(".")[0])
            declared = owner.__dataclass_fields__[field].default if owner else dataclasses.MISSING
            if declared is not dataclasses.MISSING:
                compared[key] = (default, declared)
        assert len(compared) == 13
        assert all(table == declared for table, declared in compared.values()), compared

    def test_no_other_dict_literal_is_keyed_by_config_keys(self):
        # the key list lives in _KEYS alone; a second keyed dict would drift
        found = []
        for module in sorted(Path(config_module.__file__).parent.glob("*.py")):
            tree = ast.parse(module.read_text())
            table = [id(node.value) for node in tree.body if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "_KEYS" for t in node.targets)]
            found += [
                (module.name, node.lineno, k.value)
                for node in ast.walk(tree) if isinstance(node, ast.Dict) and id(node) not in table
                for k in node.keys if isinstance(k, ast.Constant) and k.value in _KEYS
            ]
        assert found == []

    def test_readme_schema_names_exactly_the_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Config schema", 1)[1].split("\n#", 1)[0]
        assert set(re.findall(r"`([a-z_]+\.[a-z_]+)`", section)) == set(_KEYS)


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

    def test_riesz_rows_do_not_depend_on_worker_count(self, tmp_path):
        # the shipped Riesz config steps on the dense heat flow and the dense
        # torus transforms: each worker count splits its 50 paths into other
        # batches
        config = parse_config(Path(__file__).resolve().parent.parent / "configs"
                              / "riesz_3d.conf")
        rows = []
        for workers in (1, 2, 3):
            out = tmp_path / f"workers{workers}"
            run_ensemble(dataclasses.replace(config, workers=workers), out_dir=out)
            rows.append((out / "rows.csv").read_bytes())
        assert rows[1] == rows[0] and rows[2] == rows[0]

    def test_initial_data_is_built_once_per_run(self, tmp_path, monkeypatch):
        # the field SimConfig checks is the field every block steps from: a
        # file is loaded once and an eigenmode built once
        path = tmp_path / "u0.npy"
        np.save(path, np.full(64, 2.0))
        loads, builds = [], []
        load, build = np.load, stepping.initial_field

        def counted(basis, kind, **keys):
            builds.append(kind)
            return build(basis, kind, **keys)

        monkeypatch.setattr(np, "load", lambda *a, **k: loads.append(a) or load(*a, **k))
        monkeypatch.setattr(stepping, "initial_field", counted)
        monkeypatch.setattr(config_module, "initial_field", counted)
        from_file = run_ensemble(small_config(init_kind="file", init_path=str(path)))
        run_ensemble(small_config(init_kind="eigenmode"))
        assert len(loads) == 1
        assert builds == ["file", "eigenmode"]
        # the loaded field steps as the constant field it holds
        assert from_file.rows == run_ensemble(small_config()).rows

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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_block_that_raises_fails_its_seeds_only(self, monkeypatch, workers):
        # an exception inside run_batch splits its block in halves down to
        # single seeds, so only the raising seed fails, whatever the blocks
        # (the pool forks, so its workers see the patched stream)
        make_rng = stepping.path_rng

        def path_rng(seed):
            if seed == 12:
                raise FloatingPointError("stream unavailable")
            return make_rng(seed)

        monkeypatch.setattr(stepping, "path_rng", path_rng)
        config = small_config(paths=16, workers=workers)
        threads = threading.active_count()
        result = run_ensemble(config)
        # every stepping loop's draw helper is joined, the failed ones too
        assert threading.active_count() == threads
        assert result.failures == ["seed 12: FloatingPointError: stream unavailable"]
        assert result.aggregates["failure_count"] == 1
        survivors = [seed for seed in range(7, 23) if seed != 12]
        monkeypatch.undo()
        assert [r.csv_row() for r in result.rows] == [
            summarize(run_trajectory(config, seed)).csv_row() for seed in survivors
        ]

    def test_raising_seed_gives_the_same_files_for_any_worker_count(
            self, monkeypatch, tmp_path):
        # seed 8 raises on its first draw; the failure list and the saved
        # trajectories (the first five successful paths) do not depend on
        # how the seeds are split into blocks
        make_rng = stepping.path_rng

        def path_rng(seed):
            if seed == 8:
                raise FloatingPointError("stream unavailable")
            return make_rng(seed)

        monkeypatch.setattr(stepping, "path_rng", path_rng)
        outputs = []
        for workers in (1, 2, 3):
            config = small_config(paths=7, workers=workers, save_trajectories=5)
            out = tmp_path / f"workers{workers}"
            result = run_ensemble(config, out_dir=out)
            assert result.failures == ["seed 8: FloatingPointError: stream unavailable"]
            files = sorted((out / "trajectories").iterdir())
            outputs.append((
                json.loads((out / "aggregates.json").read_text()),
                (out / "rows.csv").read_bytes(),
                {f.name: f.read_bytes() for f in files},
            ))
        assert set(outputs[0][2]) == {f"seed{s}.csv" for s in (7, 9, 10, 11, 12)}
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_batch_rows_equal_single_paths(self):
        # one batch that mixes horizon and tau_n stops with one path that
        # blows through mid-run: the failure leaves the other rows unchanged
        config = small_config(
            domain=DomainSpec(1, "neumann", 16),
            noise=SpectralKernel(theta=0.75, a=1.0),
            sigma=SigmaSpec(1.0, 4.0, 1e100), dt=1e-3, horizon=0.05,
            mass_bound=float("inf"), paths=16, base_seed=5, init_value=1.5,
        )
        with np.errstate(all="ignore"):
            result = run_ensemble(config)
            with pytest.raises(TrajectoryError, match="^step 17: non-finite"):
                run_trajectory(config, 20)
            singles = [summarize(run_trajectory(config, seed)).csv_row()
                       for seed in range(5, 21) if seed != 20]
        assert result.failures == [
            "seed 20: step 17: non-finite field after step: step size too "
            "large for the current sup-norm"
        ]
        assert {r.stop_flag for r in result.rows} == {"horizon", "tau_n"}
        assert [r.csv_row() for r in result.rows] == singles

    def test_aggregates_self_consistent_on_load(self, tmp_path):
        config = small_config(paths=6)
        run_ensemble(config, out_dir=tmp_path / "run")
        loaded = load_ensemble(tmp_path / "run")
        assert loaded.aggregates["paths"] == 6

    def test_qv_aggregate_is_the_bound_over_all_paths(self, tmp_path):
        # a mass bound of 100 stops some paths at tau_M; the aggregate is
        # E Q(tau_M ∧ stop) over all paths, as in qv_bound_check
        config = small_config(paths=24, horizon=0.1, init_value=30.0,
                              mass_bound=100.0, sigma=SigmaSpec(1.0, 1.5, 1e6))
        result = run_ensemble(config, keep_records=True, out_dir=tmp_path / "run")
        agg = result.aggregates
        assert 0 < agg["stop_fractions"]["tau_M"] < 1
        assert agg["mass_bound"] == 100.0
        expected = qv_bound_check(result.records, 100.0).to_dict()
        assert agg["qv_at_mass_bound"] == expected
        assert expected["n_paths"] == 24 and expected["n_hit"] > 0
        assert agg["qv_at_mass_bound"]["passed"] is True
        u0 = agg["u0_l1"]
        assert agg["doob"] == doob_check(result.records, [2 * u0, 4 * u0, 8 * u0]).entries
        loaded = load_ensemble(tmp_path / "run")
        assert loaded.aggregates == json.loads(json.dumps(agg))

    def test_older_schema_rejected_on_load(self, tmp_path):
        run_ensemble(small_config(), out_dir=tmp_path / "run")
        path = tmp_path / "run/aggregates.json"
        payload = json.loads(path.read_text())
        payload["schema_version"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema_version 1"):
            load_ensemble(tmp_path / "run")

    def test_schema_2_rejected_on_load_by_name(self, tmp_path):
        # schema 2 rows were drawn from Philox streams
        run_ensemble(small_config(), out_dir=tmp_path / "run")
        path = tmp_path / "run/aggregates.json"
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 4
        payload["schema_version"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema_version 2; this version reads 4"):
            load_ensemble(tmp_path / "run")

    def test_run_info_names_the_streams(self, tmp_path):
        run_ensemble(small_config(paths=2), out_dir=tmp_path / "run")
        info = json.loads((tmp_path / "run/run_info.json").read_text())
        # white noise on 64 cells: one normal per cell
        assert info["streams"] == {"generator": "SFC64", "per": "path", "normal_shape": [64]}
        assert load_ensemble(tmp_path / "run").run_info["streams"] == info["streams"]

    def test_run_info_reports_workers_blocks_and_phases(self, tmp_path, monkeypatch):
        config = small_config(paths=5, workers=2)
        result = run_ensemble(config, out_dir=tmp_path / "run")
        info = json.loads((tmp_path / "run/run_info.json").read_text())
        assert info["workers"] == 2 and info["blocks"] == 2
        assert set(info["phase_seconds"]) == {"blocks", "aggregates", "write"}
        assert all(v >= 0 for v in info["phase_seconds"].values())
        assert info["wall_clock_seconds"] == result.run_info["wall_clock_seconds"]
        heuristic = build_context(config).dt_heuristic
        assert info["dt_over_heuristic"] == config.dt / heuristic
        assert info["dt_over_heuristic"] > 1  # dt = 2e-4 on 64 Neumann modes
        assert info["clipped_fraction"] is None  # white noise clips nothing
        serial = run_ensemble(small_config(paths=5), out_dir=tmp_path / "serial")
        assert (serial.run_info["workers"], serial.run_info["blocks"]) == (1, 1)
        # the telemetry stays out of the rows and the aggregates
        monkeypatch.setattr(ensemble, "_context_telemetry", lambda context: {})
        run_ensemble(config, out_dir=tmp_path / "plain")
        plain = json.loads((tmp_path / "plain/run_info.json").read_text())
        assert "dt_over_heuristic" not in plain and "clipped_fraction" not in plain
        for name in ("rows.csv", "aggregates.json"):
            assert (tmp_path / "run" / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes()

    def test_run_info_reports_riesz_clipped_fraction(self, tmp_path):
        config = small_config(domain=DomainSpec(2, "neumann", 8),
                              noise=RieszKernel(alpha=0.5), paths=2)
        run_ensemble(config, out_dir=tmp_path / "run")
        info = json.loads((tmp_path / "run/run_info.json").read_text())
        assert info["clipped_fraction"] == build_context(config).sampler.clipped_fraction
        assert 0.0 <= info["clipped_fraction"] < 0.01
        # the draw layout: the (Re, Im) pairs of the 15 x 8 half spectrum
        assert info["streams"]["normal_shape"] == [15, 8, 2]

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
        # every value is a plain float that reads back bit for bit
        record = run_trajectory(config, 7)
        columns = (record.t, record.sup_norm, record.l1_norm, record.I,
                   record.Q, record.clamped_mass)
        assert len(lines) == 2 + len(record.t)
        for s, line in enumerate(lines[2:]):
            step, *values, flag = line.split(",")
            assert int(step) == s
            assert [float(v) for v in values] == [float(c[s]) for c in columns]
            assert flag == (record.stop_flag if s == record.steps else "none")


class TestSweepGamma:
    def test_exit_fractions_nested_in_threshold(self):
        config = small_config(paths=20, horizon=0.01, init_value=3.0,
                              sigma=SigmaSpec(1.0, 1.5, 16.0))
        result = sweep_gamma(config, [1.3, 1.7], [2.0, 4.0, 8.0])
        for g in result.gammas:
            fr = result.exit_fractions[g]
            assert all(a >= b for a, b in zip(fr, fr[1:]))

    def test_file_data_is_loaded_once_per_sweep(self, tmp_path, monkeypatch):
        # the initial data does not depend on sigma: each gamma's config
        # keeps the checked field
        path = tmp_path / "u0.npy"
        np.save(path, np.full(64, 2.0))
        loads, load = [], np.load
        monkeypatch.setattr(np, "load", lambda *a, **k: loads.append(a) or load(*a, **k))
        config = small_config(paths=4, horizon=0.005, init_kind="file", init_path=str(path))
        result = sweep_gamma(config, [1.3, 1.5, 1.7], [4.0])
        assert len(loads) == 1
        assert result.gammas == [1.3, 1.5, 1.7]

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

    @pytest.mark.parametrize("data", [
        None,                                 # no file at init.path
        b"",                                  # an empty file
        {"u0": np.full(64, 2.0)},             # an .npz archive, not one array
        np.full(64, 100.0),                   # at or above sigma.truncation = 64
        np.full(32, 2.0),                     # not the 64-point grid's shape
        np.array([np.nan] + [2.0] * 63),      # non-finite
        np.full(64, -1.0),                    # negative
    ], ids=["missing", "empty", "archive", "at-truncation", "wrong-shape",
            "non-finite", "negative"])
    def test_simulate_rejects_unusable_initial_data_file(self, tmp_path, capsys, data):
        path = tmp_path / "u0.npy"
        if isinstance(data, bytes):
            path.write_bytes(data)
        elif isinstance(data, dict):
            with open(path, "wb") as f:
                np.savez(f, **data)
        elif data is not None:
            np.save(path, data)
        code = main(["simulate", "--config", str(write_config(tmp_path, NO_INIT)),
                     "--set", "init.kind=file", "--set", f"init.path={path}",
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: init.path: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", [k for k, (caster, _, _) in _KEYS.items() if caster is float])
    def test_simulate_rejects_nan(self, tmp_path, capsys, key):
        code = main(["simulate", "--config", str(write_config(tmp_path)),
                     "--set", f"{key}=nan", "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("base_seed", ["-1", str(2**64 - 1)])
    def test_simulate_rejects_seed_outside_uint64(self, tmp_path, capsys, base_seed):
        # two paths from 2^64 - 1 would seed one path with 2^64
        code = main(["simulate", "--config", str(write_config(tmp_path)),
                     "--set", "run.paths=2", "--set", f"run.base_seed={base_seed}",
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: run.base_seed: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("length", ["inf", "-inf", "0"])
    def test_simulate_rejects_a_box_length_that_is_not_positive_and_finite(
            self, tmp_path, capsys, length):
        # an infinite box has no grid spacing: every path would stop at step 0
        code = main(["simulate", "--config", str(write_config(tmp_path)),
                     "--set", f"domain.length={length}", "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: domain: length ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        ["init.mode=1,x"],                            # not integers
        ["init.kind=eigenmode", "init.mode=1,2"],     # two indices at d = 1
        ["init.kind=eigenmode", "init.mode=0,0"],     # two indices, nonnegative
        ["init.kind=eigenmode", "init.mode=64"],      # off the 64-point grid
        ["init.kind=eigenmode", "init.mode=2"],       # changes sign
    ], ids=["not-integers", "two-indices", "two-zero-indices", "off-grid",
            "sign-changing"])
    def test_simulate_rejects_bad_init_mode(self, tmp_path, capsys, overrides):
        base = NO_INIT if "init.kind=eigenmode" in overrides else MINIMAL
        code = main(["simulate", "--config", str(write_config(tmp_path, base)),
                     *[item for o in overrides for item in ("--set", o)],
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: init.mode: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_simulate_where_every_path_fails(self, tmp_path, capsys):
        # every field overflows at step 1: the summary prints, the files hold
        # no rows, and the failures exceed the default max_failures = 0
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = main(["simulate", "--config", str(write_config(tmp_path)),
                         "--set", "sigma.truncation=1e309", "--set", "init.value=1e308",
                         "--set", "run.mass_bound=1e309", "--set", "run.paths=2",
                         "--output", str(out)])
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "paths          : 0  (failures: 2)" in captured.out
        assert "failure threshold exceeded: 2 > 0" in captured.err
        run_dir = next(out.iterdir())
        rows = (run_dir / "rows.csv").read_text().splitlines()
        assert [r for r in rows if not r.startswith("#")] == [",".join(ensemble.ROW_COLUMNS)]
        assert main(["report", "--input", str(run_dir)]) == 0
        assert '"failure_count": 2' in capsys.readouterr().out

    def test_simulate_from_initial_data_file(self, tmp_path, capsys):
        path = tmp_path / "u0.npy"
        np.save(path, np.full(64, 2.0))
        code = main(["simulate", "--config", str(write_config(tmp_path, NO_INIT)),
                     "--set", "init.kind=file", "--set", f"init.path={path}",
                     "--output", str(tmp_path / "out")])
        assert code == 0
        run_dir = next((tmp_path / "out").iterdir())
        agg = json.loads((run_dir / "aggregates.json").read_text())["aggregates"]
        assert agg["stop_fractions"]["tau_n"] == 0.0

    @pytest.mark.parametrize("overrides, key", [
        (["init.mode=3"], "init.mode: not read by init.kind = constant"),
        (["init.value=0"], "init.value: initial data is zero everywhere"),
    ], ids=["unread-key", "zero-data"])
    def test_simulate_rejects_unusable_init_keys(self, tmp_path, capsys, overrides, key):
        code = main(["simulate", "--config", str(write_config(tmp_path)),
                     *[item for o in overrides for item in ("--set", o)],
                     "--set", "run.paths=2", "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_simulate_rejects_noise_key_of_another_kernel(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(write_config(tmp_path)),
                     "--set", "noise.alpha=0.3", "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: noise.alpha: not read by the white kernel")
        assert not (tmp_path / "out").exists()

    def test_set_without_equals_sign_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(write_config(tmp_path)),
                     "--set", "run.paths", "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "configuration error: --set expects key=value, got 'run.paths'")
        assert not (tmp_path / "out").exists()

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

    def test_report_prints_the_streams(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "out")])
        run_dir = next((tmp_path / "out").iterdir())
        capsys.readouterr()
        assert main(["report", "--input", str(run_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ('streams     : {"generator": "SFC64", "per": "path", "normal_shape": [64]}'
                in lines)

    def test_report_prints_one_verdict_per_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "out")])
        run_dir = next((tmp_path / "out").iterdir())
        capsys.readouterr()
        assert main(["report", "--input", str(run_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        doob = [ln for ln in lines if ln.startswith("Doob bound at M = ")]
        qv = [ln for ln in lines if ln.startswith("QV bound at M = ")]
        assert len(doob) == 3 and len(qv) == 1
        assert all(": PASS  (" in ln for ln in doob + qv)

    def test_report_prints_failed_bounds(self, tmp_path, capsys):
        # every path's running mass passes 2, 4 and 8 times u0_L1 and stops
        # at tau_M with Q above M^2: all four bounds fail
        rows = [TrajectorySummary(
            seed=i, stop_flag="tau_M", stop_time=0.01, max_sup_norm=1.0,
            max_l1=10.0, final_I=1.0, final_Q=0.5, clamped_fraction=0.0,
            doubling_count=0) for i in range(8)]
        aggregates = compute_aggregates(rows, u0_l1=1.0, mass_bound=0.5, failure_count=0)
        EnsembleResult(rows=rows, aggregates=aggregates,
                       config_hash="0" * 12).write(tmp_path / "run")
        assert main(["report", "--input", str(tmp_path / "run")]) == 0
        verdicts = [ln.split("  (")[0] for ln in capsys.readouterr().out.splitlines()
                    if " bound at M = " in ln]
        assert verdicts == ["Doob bound at M = 2: FAIL", "Doob bound at M = 4: FAIL",
                            "Doob bound at M = 8: FAIL", "QV bound at M = 0.5: FAIL"]

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
        assert json.loads(reports[0].read_text())["streams"] == {
            "generator": "SFC64", "rows_per_stream": 256}

    def test_probe_of_another_stream_layout_gets_its_own_file(self, tmp_path, monkeypatch):
        # the same arguments drawn from other streams are another experiment
        cfg = write_config(tmp_path)
        args = ["probe-convolution", "--config", str(cfg), "--p", "20", "--T-grid",
                "0.002,0.004", "--paths", "64", "--dt", "2e-4", "--output", str(tmp_path)]
        assert main(args) == 0
        monkeypatch.setattr(diagnostics, "PROBE_BLOCK_ROWS", 32)
        assert main(args) == 0
        reports = [json.loads(r.read_text()) for r in tmp_path.glob("probe-*.json")]
        assert sorted(r["streams"]["rows_per_stream"] for r in reports) == [32, 256]

    @pytest.mark.parametrize("flag, value", [
        ("--paths", "16"),       # fewer paths than the 32 median-of-means groups
        ("--p", "3"),            # inadmissible moment order
        ("--p", "inf"),
        ("--T-grid", "0.0003"),  # not a multiple of dt = 2e-4
        ("--T-grid", "0.002,0.002,0.004"),  # a repeated horizon
        ("--T-grid", "0.002,inf"),
        ("--T-grid", "nan,0.002"),
        ("--dt", "0"),           # not positive (and not replaced by run.dt)
        ("--dt", "inf"),
    ])
    def test_probe_convolution_rejects_bad_argument(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path)
        args = {"--p": "20", "--T-grid": "0.002,0.004", "--paths": "64", "--dt": "2e-4"}
        args[flag] = value
        code = main(["probe-convolution", "--config", str(cfg),
                     "--output", str(tmp_path / "out"),
                     *[item for pair in args.items() for item in pair]])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {flag}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_probe_convolution_rejects_moment_out_of_float_range(self, tmp_path, capsys):
        # sup |Z| < 1 after one step, so every sup^200 underflows to 0
        code = main(["probe-convolution", "--config", str(write_config(tmp_path)),
                     "--p", "200", "--T-grid", "2e-6,4e-6", "--paths", "64",
                     "--dt", "2e-6", "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --p: ")
        assert "at T = 2e-06" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--thresholds", "3"),     # not a power of two
        ("--gammas", "1.0,x"),     # not a number
    ])
    def test_sweep_gamma_rejects_bad_argument(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path)
        args = {"--gammas": "1.5", "--thresholds": "4,8"}
        args[flag] = value
        code = main(["sweep-gamma", "--config", str(cfg), "--set", "run.paths=2",
                     "--output", str(tmp_path / "out"),
                     *[item for pair in args.items() for item in pair]])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {flag}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, value, key", [
        ("--set", "run.mass_bound=inf", "run.mass_bound"),
        ("--gammas", "-1", "--gammas"),
        ("--gammas", "1.5,nan", "--gammas"),
        ("--gammas", "inf", "--gammas"),
    ], ids=["infinite-mass-bound", "negative-gamma", "nan-gamma", "infinite-gamma"])
    def test_sweep_gamma_rejects_before_the_fit(self, tmp_path, capsys, monkeypatch,
                                                option, value, key):
        def fit(basis):
            raise AssertionError("the heat-kernel fit ran")
        monkeypatch.setattr(ensemble, "heat_kernel_decay_fit", fit)
        args = {"--gammas": "1.5", option: value}
        code = main(["sweep-gamma", "--config", str(write_config(tmp_path)),
                     "--set", "run.paths=2", "--output", str(tmp_path / "out"),
                     *[item for pair in args.items() for item in pair]])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
