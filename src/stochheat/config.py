"""Run configuration: parsing, validation, stable hashing.

Config files are flat ``key = value`` text with ``#`` comments, keys grouped
by dotted prefixes (domain.*, noise.*, sigma.*, init.*, run.*).  Example::

    domain.dimension   = 1
    domain.boundary    = neumann
    domain.grid_points = 128
    noise.kind         = white         # riesz | spectral | white
    sigma.scale        = 1.0
    sigma.gamma        = 1.5
    sigma.truncation   = 64
    init.kind          = constant      # constant | eigenmode | file
    init.value         = 2.0
    run.dt             = 2e-4
    run.horizon        = 0.1
    run.mass_bound     = 1e12
    run.paths          = 100
    run.base_seed      = 1

Unknown keys are rejected with their field path; invariant violations quote
the violated constraint.  The config hash is a stable digest over all
fields and is stamped into every output file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .noise import KERNELS, KernelValidationError, critical_exponent
from .spectral import DomainSpec, build_basis
from .stepping import SigmaSpec, initial_field


class ConfigError(ValueError):
    """Configuration schema or invariant violation, with the field path."""


@dataclass(frozen=True)
class SimConfig:
    """Validated simulation configuration."""

    domain: DomainSpec
    noise: object
    sigma: SigmaSpec
    dt: float
    horizon: float
    mass_bound: float
    paths: int = 1
    base_seed: int = 0
    init_kind: str = "constant"
    init_value: float = 1.0
    init_mode: tuple | None = None
    init_amplitude: float = 1.0
    init_path: str | None = None
    output_dir: str = "runs"
    workers: int = 1
    max_failures: int = 0
    save_trajectories: int = 0

    def __post_init__(self):
        # written as "not ... <" so that a nan fails every check
        for key, value in (("run.dt", self.dt), ("run.horizon", self.horizon)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{key}: must be positive and finite, got {value!r}")
        # +inf is a level that never stops a path: no mass bound, or an
        # untruncated coefficient
        for key, value in (("run.mass_bound", self.mass_bound),
                           ("sigma.truncation", self.sigma.truncation)):
            if not value > 0:
                raise ConfigError(f"{key}: must be positive, got {value!r}")
        for key, value in (("init.value", self.init_value),
                           ("init.amplitude", self.init_amplitude),
                           ("sigma.scale", self.sigma.scale),
                           ("sigma.gamma", self.sigma.growth)):
            if not -math.inf < value < math.inf:
                raise ConfigError(f"{key}: must be finite, got {value!r}")
        steps = round(self.horizon / self.dt)
        if abs(steps * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ConfigError(
                f"run.horizon: {self.horizon!r} is not a whole number of "
                f"run.dt = {self.dt!r} steps"
            )
        if self.paths < 1:
            raise ConfigError("run.paths: must be >= 1")
        if self.workers < 1:
            raise ConfigError("run.workers: must be >= 1")
        if self.max_failures < 0:
            raise ConfigError("run.max_failures: must be >= 0")
        if self.save_trajectories < 0:
            raise ConfigError("run.save_trajectories: must be >= 0")
        if self.init_kind not in ("constant", "eigenmode", "file"):
            raise ConfigError(
                f"init.kind: {self.init_kind!r} not one of constant|eigenmode|file"
            )
        if self.init_kind == "constant" and self.init_value < 0:
            raise ConfigError(
                "init.value: initial data must be nonnegative "
                "(nonnegative initial condition assumption)"
            )
        if self.init_kind == "eigenmode" and self.init_amplitude < 0:
            raise ConfigError("init.amplitude: must be >= 0 (nonnegative initial data)")
        if self.init_kind == "file" and not self.init_path:
            raise ConfigError("init.path: required for init.kind = file")
        try:
            self.noise.validate_for(self.domain.dimension, self.domain.boundary)
        except KernelValidationError as exc:
            raise ConfigError(f"noise: {exc}") from exc
        sup = self._initial_sup()
        if sup >= self.sigma.truncation:
            key = {"constant": "init.value", "eigenmode": "init.amplitude",
                   "file": "init.path"}[self.init_kind]
            raise ConfigError(
                f"{key}: initial sup-norm {sup:g} is at or above sigma.truncation "
                f"= {self.sigma.truncation:g}, so every path would stop at step 0 (tau_n)"
            )

    def _initial_sup(self) -> float:
        """sup of the initial field on the grid.  Data that cannot be built
        raises ConfigError naming init.path (a file missing, empty, not one
        array, of the wrong shape, non-finite or negative) or init.mode (an
        eigenmode with a wrong index count, off the grid or sign-changing)."""
        if self.init_kind == "constant":
            return self.init_value
        try:
            u0 = initial_field(build_basis(self.domain), self.init_kind,
                               mode=self.init_mode, amplitude=self.init_amplitude,
                               path=self.init_path)
        except (OSError, EOFError, ValueError, IndexError) as exc:
            key = "init.path" if self.init_kind == "file" else "init.mode"
            raise ConfigError(f"{key}: {exc}") from exc
        return float(u0.max())

    def gamma_c(self) -> float | None:
        """Critical exponent for this noise, or None outside eta in (0,1)."""
        try:
            beta, eta = self.noise.params(self.domain.dimension)
            return critical_exponent(beta, eta)
        except (KernelValidationError, ValueError):
            return None

    def sigma_regime(self) -> str:
        gc = self.gamma_c()
        if gc is None:
            return "outside decay assumptions (eta not in (0,1))"
        return self.sigma.regime(gc)

    def to_dict(self) -> dict:
        noise = {"kind": self.noise.variant}
        for key, name in self.noise.config_keys.items():
            noise[key] = getattr(self.noise, name)
        return {
            "domain": {
                "dimension": self.domain.dimension,
                "boundary": self.domain.boundary,
                "grid_points": self.domain.grid_points,
                "modes": self.domain.modes,
                "length": self.domain.length,
            },
            "noise": noise,
            "sigma": {
                "scale": self.sigma.scale,
                "gamma": self.sigma.growth,
                "truncation": self.sigma.truncation,
            },
            "init": {
                "kind": self.init_kind,
                "value": self.init_value,
                "mode": list(self.init_mode) if self.init_mode else None,
                "amplitude": self.init_amplitude,
                "path": self.init_path,
            },
            "run": {
                "dt": self.dt,
                "horizon": self.horizon,
                "mass_bound": self.mass_bound,
                "paths": self.paths,
                "base_seed": self.base_seed,
                "workers": self.workers,
                "max_failures": self.max_failures,
                "save_trajectories": self.save_trajectories,
            },
        }


def config_hash(config: SimConfig) -> str:
    """Stable 12-hex-digit digest of all config fields.

    Worker count and output directory are excluded: they must not affect
    results, and the hash certifies result-determining inputs only.  For
    file initial data the SHA-256 of the file's bytes is included, so two
    files saved at one path give two hashes.
    """
    payload = config.to_dict()
    payload["run"].pop("workers", None)
    if config.init_kind == "file":
        payload["init"]["sha256"] = hashlib.sha256(
            Path(config.init_path).read_bytes()).hexdigest()
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# -- flat key-value parsing ------------------------------------------------

_SCHEMA = {
    "domain.dimension": int,
    "domain.boundary": str,
    "domain.grid_points": int,
    "domain.modes": int,
    "domain.length": float,
    "noise.kind": str,
    "noise.alpha": float,
    "noise.theta": float,
    "noise.shift": float,
    "sigma.scale": float,
    "sigma.gamma": float,
    "sigma.truncation": float,
    "init.kind": str,
    "init.value": float,
    "init.mode": str,
    "init.amplitude": float,
    "init.path": str,
    "run.dt": float,
    "run.horizon": float,
    "run.mass_bound": float,
    "run.paths": int,
    "run.base_seed": int,
    "run.output_dir": str,
    "run.workers": int,
    "run.max_failures": int,
    "run.save_trajectories": int,
}

_DEFAULTS = {
    "domain.dimension": 1,
    "domain.boundary": "neumann",
    "domain.grid_points": 128,
    "domain.length": math.pi,
    "noise.kind": "white",
    "noise.shift": 0.0,
    "sigma.scale": 1.0,
    "sigma.gamma": 1.5,
    "sigma.truncation": 64.0,
    "init.kind": "constant",
    "init.value": 1.0,
    "init.amplitude": 1.0,
    "run.dt": 2e-4,
    "run.horizon": 0.1,
    "run.mass_bound": 1e12,
    "run.paths": 1,
    "run.base_seed": 0,
    "run.output_dir": "runs",
    "run.workers": 1,
    "run.max_failures": 0,
    "run.save_trajectories": 0,
}


def parse_config_lines(lines, overrides=None) -> SimConfig:
    """Parse ``key = value`` lines plus optional override pairs."""
    values = dict(_DEFAULTS)
    seen = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown configuration key (line {lineno})")
        seen[key] = val
    if overrides:
        for key, val in overrides.items():
            if key not in _SCHEMA:
                raise ConfigError(f"{key}: unknown configuration key (override)")
            seen[key] = val
    for key, val in seen.items():
        caster = _SCHEMA[key]
        try:
            values[key] = caster(val)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {val!r} as {caster.__name__}") from exc
        if caster is float and math.isnan(values[key]):
            raise ConfigError(f"{key}: {val!r} is not a number")
    return build_config(values)


def build_config(values: dict) -> SimConfig:
    """Assemble and validate a SimConfig from a flat value dict."""
    try:
        domain = DomainSpec(
            dimension=values["domain.dimension"],
            boundary=values["domain.boundary"],
            grid_points=values["domain.grid_points"],
            modes=values.get("domain.modes"),
            length=values["domain.length"],
        )
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from exc

    kind = values["noise.kind"]
    if kind not in KERNELS:
        raise ConfigError(f"noise.kind: {kind!r} not one of {'|'.join(KERNELS)}")
    fields = {}
    for key, name in KERNELS[kind].config_keys.items():
        if f"noise.{key}" not in values:
            raise ConfigError(f"noise.{key}: required for the {kind} kernel")
        fields[name] = values[f"noise.{key}"]
    noise = KERNELS[kind](**fields)

    try:
        sigma = SigmaSpec(
            scale=values["sigma.scale"],
            growth=values["sigma.gamma"],
            truncation=values["sigma.truncation"],
        )
    except ValueError as exc:
        raise ConfigError(f"sigma: {exc}") from exc

    raw = values.get("init.mode") or ""
    parts = raw.split(",") if isinstance(raw, str) else raw
    try:
        init_mode = tuple(int(p) for p in parts if str(p).strip()) or None
    except ValueError as exc:
        raise ConfigError(f"init.mode: {raw!r} is not a list of integers") from exc

    return SimConfig(
        domain=domain,
        noise=noise,
        sigma=sigma,
        dt=values["run.dt"],
        horizon=values["run.horizon"],
        mass_bound=values["run.mass_bound"],
        paths=values["run.paths"],
        base_seed=values["run.base_seed"],
        init_kind=values["init.kind"],
        init_value=values["init.value"],
        init_mode=init_mode,
        init_amplitude=values["init.amplitude"],
        init_path=values.get("init.path"),
        output_dir=values["run.output_dir"],
        workers=values["run.workers"],
        max_failures=values["run.max_failures"],
        save_trajectories=values["run.save_trajectories"],
    )


def parse_config(path, overrides=None) -> SimConfig:
    """Read and validate a config file; overrides win over file values."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    return parse_config_lines(p.read_text().splitlines(), overrides)
