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

Each key is one row of ``_KEYS``: its type, its default and the field it
sets.  Parsing casts values and fills defaults from that table,
``build_config`` groups them by prefix into ``DomainSpec``, ``SigmaSpec``
and ``SimConfig``, and ``config_hash`` walks it.  The noise.* rows other
than noise.kind carry no default: they name a field of a kernel dataclass,
and the kernel class of ``noise.kind`` says which it reads (its fields),
which it requires (those without a default) and the defaults.  The init.*
keys each init.kind reads are its row of ``stepping.INIT_KEYS``, and
``SimConfig`` checks the initial data with ``stepping.initial_sup``, which
names the key at fault and builds no field for constant data; any other
field it builds is kept with the config as ``initial_data``.  Unknown
keys, and noise or init keys that the chosen kernel or init.kind does not
read, are rejected with their field path; invariant violations quote the
violated constraint.  The config hash is a stable digest over every field
but those of ``_UNHASHED`` and is stamped into every output file.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .noise import KERNELS, KernelValidationError, critical_exponent
from .spectral import DomainSpec, build_basis
from .stepping import (
    BIT_GENERATOR,
    INIT_KEYS,
    InitialDataError,
    SigmaSpec,
    initial_field,
    initial_sup,
)


class ConfigError(ValueError):
    """Configuration schema or invariant violation, with the field path."""


# -- the config keys -------------------------------------------------------

def _mode_indices(raw: str) -> tuple | None:
    """``init.mode``: comma-separated integers, None when there are none."""
    try:
        return tuple(int(p) for p in raw.split(",") if p.strip()) or None
    except ValueError as exc:
        raise ConfigError(f"init.mode: {raw!r} is not a list of integers") from exc


_NO_DEFAULT = object()  # noise.* but noise.kind: the kernel class holds the default

# key: (type, default, field).  The field is set on DomainSpec for domain.*,
# on SigmaSpec for sigma.* and on SimConfig for init.* and run.*.
# noise.kind picks the kernel class; each other noise.* key names a field
# of the kernel classes that read it.
_KEYS = {
    "domain.dimension": (int, 1, "dimension"),
    "domain.boundary": (str, "neumann", "boundary"),
    "domain.grid_points": (int, 128, "grid_points"),
    "domain.modes": (int, None, "modes"),
    "domain.length": (float, math.pi, "length"),
    "noise.kind": (str, "white", "variant"),
    "noise.alpha": (float, _NO_DEFAULT, "alpha"),
    "noise.theta": (float, _NO_DEFAULT, "theta"),
    "noise.shift": (float, _NO_DEFAULT, "a"),
    "sigma.scale": (float, 1.0, "scale"),
    "sigma.gamma": (float, 1.5, "growth"),
    "sigma.truncation": (float, 64.0, "truncation"),
    "init.kind": (str, "constant", "init_kind"),
    "init.value": (float, 1.0, "init_value"),
    "init.mode": (_mode_indices, None, "init_mode"),
    "init.amplitude": (float, 1.0, "init_amplitude"),
    "init.path": (str, None, "init_path"),
    "run.dt": (float, 2e-4, "dt"),
    "run.horizon": (float, 0.1, "horizon"),
    "run.mass_bound": (float, 1e12, "mass_bound"),
    "run.paths": (int, 1, "paths"),
    "run.base_seed": (int, 0, "base_seed"),
    "run.output_dir": (str, "runs", "output_dir"),
    "run.workers": (int, 1, "workers"),
    "run.max_failures": (int, 0, "max_failures"),
    "run.save_trajectories": (int, 0, "save_trajectories"),
}

# keys that cannot affect results, left out of the config hash
_UNHASHED = ("run.workers", "run.output_dir")


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
        # path k is seeded by base_seed + k.  SeedSequence takes any
        # nonnegative int, so the generator sets no upper bound; the uint64
        # bound keeps every seed a valid seed of any numpy bit generator and
        # accepts the configs earlier versions accepted
        if not 0 <= self.base_seed <= 2**64 - self.paths:
            raise ConfigError(
                f"run.base_seed: must be in [0, 2^64 - run.paths] = "
                f"[0, {2**64 - self.paths}], got {self.base_seed!r}")
        if self.workers < 1:
            raise ConfigError("run.workers: must be >= 1")
        if self.max_failures < 0:
            raise ConfigError("run.max_failures: must be >= 0")
        if self.save_trajectories < 0:
            raise ConfigError("run.save_trajectories: must be >= 0")
        try:
            self.noise.validate_for(self.domain.dimension, self.domain.boundary)
        except KernelValidationError as exc:
            raise ConfigError(f"noise: {exc}") from exc
        try:
            sup = initial_sup(self)
        except InitialDataError as exc:
            raise ConfigError(f"{exc.key}: {exc}") from exc
        key = INIT_KEYS[self.init_kind][-1]
        if sup == 0:
            raise ConfigError(
                f"{key}: initial data is zero everywhere; every mass bound is "
                "measured against int u0, which must be positive"
            )
        if sup >= self.sigma.truncation:
            raise ConfigError(
                f"{key}: initial sup-norm {sup:g} is at or above sigma.truncation "
                f"= {self.sigma.truncation:g}, so every path would stop at step 0 (tau_n)"
            )

    @functools.cached_property
    def initial_data(self):
        """The checked initial field on the grid, built once on first use and
        pickled with the config to the pool workers; read-only, since every
        run built from the config shares it."""
        u0 = initial_field(build_basis(self.domain), self.init_kind,
                           value=self.init_value, mode=self.init_mode,
                           amplitude=self.init_amplitude, path=self.init_path)
        u0.setflags(write=False)
        return u0

    def with_sigma(self, sigma: SigmaSpec) -> SimConfig:
        """This config under ``sigma``, checked again.  The initial data does
        not depend on sigma, so the copy keeps the field this config built,
        and a sweep over sigma loads or builds it once."""
        config = copy.copy(self)
        object.__setattr__(config, "sigma", sigma)
        config.__post_init__()
        return config

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


def config_hash(config: SimConfig) -> str:
    """Stable 12-hex-digit digest of the field of every key in ``_KEYS``.

    ``_UNHASHED`` keys must not affect results, and the hash certifies
    result-determining inputs only.  For file initial data the SHA-256 of
    the file's bytes is included, so two files saved at one path give two
    hashes.  The name of the streams' bit generator is included too: the
    same config drawn from another generator is another experiment.  So is
    the shape of a draw's normals, the kernel's ``normal_shape`` on the
    domain, which the kernel computes without a basis or a sampler: the same
    config drawn in another layout is another experiment too.
    """
    owners = {"domain": config.domain, "noise": config.noise, "sigma": config.sigma}
    payload = {}
    for key, (_, _, field) in _KEYS.items():
        group, name = key.split(".")
        owner = owners.get(group, config)
        # a noise key is hashed when the kernel has its field
        if key not in _UNHASHED and hasattr(owner, field):
            payload.setdefault(group, {})[name] = getattr(owner, field)
    if "init.path" in INIT_KEYS[config.init_kind]:
        payload["init"]["sha256"] = hashlib.sha256(
            Path(config.init_path).read_bytes()).hexdigest()
    payload["generator"] = BIT_GENERATOR
    payload["normal_shape"] = list(config.noise.normal_shape(config.domain))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# -- flat key-value parsing ------------------------------------------------

def parse_config_lines(lines, overrides=None) -> SimConfig:
    """Parse ``key = value`` lines plus optional override pairs."""
    seen = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"{key}: unknown configuration key (line {lineno})")
        seen[key] = val
    for key, val in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"{key}: unknown configuration key (override)")
        seen[key] = val
    values = {key: default for key, (_, default, _) in _KEYS.items()
              if default is not _NO_DEFAULT}
    for key, val in seen.items():
        caster = _KEYS[key][0]
        try:
            values[key] = caster(val)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {val!r} as {caster.__name__}") from exc
        if caster is float and math.isnan(values[key]):
            raise ConfigError(f"{key}: {val!r} is not a number")
    # a set init.* key that the data of init.kind does not read is rejected,
    # so every unread key holds its default; SimConfig rejects an unknown kind
    kind = values["init.kind"]
    if kind in INIT_KEYS:
        for key in seen:
            if key.startswith("init.") and key not in ("init.kind", *INIT_KEYS[kind]):
                raise ConfigError(f"{key}: not read by init.kind = {kind}")
    return build_config(values)


def build_config(values: dict) -> SimConfig:
    """Assemble and validate a SimConfig from a flat dict of typed values,
    one per key of ``_KEYS`` with a default and per noise key set; a noise
    key set for a kernel that does not read it is rejected."""
    groups = {"domain": {}, "noise": {}, "sigma": {}, "init": {}, "run": {}}
    for key, (_, _, field) in _KEYS.items():
        if key in values:
            groups[key.split(".")[0]][field] = values[key]
    try:
        domain = DomainSpec(**groups["domain"])
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from exc

    noise = groups["noise"]
    kind = noise.pop("variant")
    if kind not in KERNELS:
        raise ConfigError(f"noise.kind: {kind!r} not one of {'|'.join(KERNELS)}")
    # the kernel's fields are the keys it reads; those without a default it needs
    defaults = {f.name: f.default for f in fields(KERNELS[kind])}
    for key, (_, _, field) in _KEYS.items():
        if not key.startswith("noise."):
            continue
        if field in noise and field not in defaults:
            raise ConfigError(f"{key}: not read by the {kind} kernel")
        if field not in noise and defaults.get(field) is MISSING:
            raise ConfigError(f"{key}: required for the {kind} kernel")

    try:
        sigma = SigmaSpec(**groups["sigma"])
    except ValueError as exc:
        raise ConfigError(f"sigma: {exc}") from exc
    return SimConfig(domain=domain, noise=KERNELS[kind](**noise), sigma=sigma,
                     **groups["init"], **groups["run"])


def parse_config(path, overrides=None) -> SimConfig:
    """Read and validate a config file; overrides win over file values."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    return parse_config_lines(p.read_text().splitlines(), overrides)
