"""Truncated-coefficient mild-solution stepping with stopping detection.

One step of the scheme is

    u+ = S(dt) [ u + sigma_trunc(u) . dW ],   then   u+ <- max(u+, 0)

where S(dt) is the exact heat semigroup applied in the eigenbasis and dW is
a correlated Gaussian increment.  Applying the semigroup after adding the
noise mirrors the mild-solution convolution and makes the discrete mass
identity exact for Neumann/periodic conditions: the zero mode carries the
full spatial integral and S(dt) leaves it untouched, so

    integral u(t) = I(t) + clamped mass        (up to transform round-off)

with I(t) the running martingale I(0) + sum_s h^d sum_j sigma(u) dW.  The
negativity projection is accounted separately (clamped mass) so the
identity stays checkable.  Alongside I the quadratic variation

    Q(t) = sum_s dt * h^(2d) sum_ij Lambda(x_i, x_j) sigma(u_i) sigma(u_j)

is accumulated with the kernel-specific quadrature of the sampler.

A built run is a ``Stepper``, which ``build_context`` makes from a config:
the basis, coefficient, sampler, step, initial data, horizon and mass
bound shared by every path of the config.  Its initial data is built by
``initial_field`` from the init.* keys its kind reads (``INIT_KEYS``),
once per config (``SimConfig.initial_data``); ``initial_sup`` checks it,
and builds no field for constant data.  A block of seeds steps as one
(P, *grid) batch through ``Stepper.step``.
Each row draws the standard normals of its increment from its own stream,
an SFC64 generator seeded through ``SeedSequence(seed)`` (``seeded_stream``,
the one constructor of a stream in the package), so its values do not
depend on the batch; one linear map of the sampler turns
the stacked normals into the batch's increments.  A row draws the normals
of several steps (a chunk) in one call, which takes the same values from
its stream in the same order as one call per step.  ``drawn_ahead`` hands
a chunk out as independent units, here one per row and in the convolution
probe one per block of rows: one helper thread draws the next chunk's
units while the batch steps, and the caller draws the units the helper
has not started when it needs the chunk.  A unit fills its own rows from
its own streams, so the values are those of a serial draw, whichever
thread drew them.  A row leaves
the batch at its stop, the first of the sup-norm reaching the truncation
level (tau_n), the mass martingale exceeding the bound M (tau_M) or the
horizon, or as a failed path, a ``TrajectoryError`` with the step, when
its field goes non-finite.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .noise import make_sampler
from .spectral import SpectralBasis, build_basis

STOP_TAU_N = "tau_n"
STOP_TAU_M = "tau_M"
STOP_HORIZON = "horizon"

PAPER_REGIME = "paper regime"
EXPLOSIVE_REGIME = "conjectured explosive regime"

# grid points per stepped batch (1 MB per float64 field), read by
# batch_rows alone; more rows step as consecutive batches, which bounds the
# memory of the field temporaries and of the samplers' qv_form buffers
_BATCH_GRID_POINTS = 2**17

# normals a row draws per call: ceil(_DRAW_NORMALS / normals per step) steps
# of them, at most the whole horizon; fewer when a chunk buffer of the batch
# would pass _BATCH_NORMALS values (8 MB).  A batch holds two such buffers,
# the chunk being stepped and the next one being drawn.
_DRAW_NORMALS = 2**10
_BATCH_NORMALS = 2**20


# init.kind -> the init.* keys its data reads; the last one scales the data
INIT_KEYS = {
    "constant": ("init.value",),
    "eigenmode": ("init.mode", "init.amplitude"),
    "file": ("init.path",),
}


class InitialDataError(ValueError):
    """Initial data that cannot be built; ``key`` is the init.* key at fault."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class TrajectoryError(RuntimeError):
    """A path's field went non-finite after ``step``."""

    def __init__(self, step: int):
        super().__init__(f"step {step}: non-finite field after step: step size "
                         "too large for the current sup-norm")
        self.step = step


@dataclass(frozen=True)
class SigmaSpec:
    """Power-law coefficient sigma(u) = scale * u^growth, clamped at truncation.

    sigma(0) = 0 and sigma is extended by zero for u < 0, consistent with
    nonnegative solutions.  For u above the truncation level the clamped
    value sigma(truncation) is used, which is what makes each truncated
    problem globally Lipschitz.
    """

    scale: float
    growth: float
    truncation: float

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be >= 0 (coefficient taken nonnegative)")
        if self.growth < 0:
            raise ValueError("growth exponent must be >= 0")
        if self.truncation <= 0:
            raise ValueError("truncation level must be positive")

    def regime(self, gamma_c: float) -> str:
        return PAPER_REGIME if self.growth <= gamma_c else EXPLOSIVE_REGIME


def sigma_eval(spec: SigmaSpec, u):
    """Clamped coefficient sigma_n(u); vectorized over grids."""
    u = np.asarray(u, dtype=float)
    clipped = np.clip(u, 0.0, spec.truncation)
    out = spec.scale * clipped**spec.growth
    if out.ndim == 0:
        return float(out)
    return out


def whole_steps(T: float, dt: float) -> int | None:
    """The steps k >= 1 of dt that make the horizon T, |k dt - T| <= 1e-9 T;
    None when T / dt is no finite positive whole number, nan included."""
    if not (0 < dt < math.inf and 0 < T / dt < math.inf):
        return None
    k = round(T / dt)
    return k if k >= 1 and abs(k * dt - T) <= 1e-9 * T else None


def batch_rows(grid_shape, block: int = 1) -> int:
    """The rows of a stepped batch: the most whole blocks of ``block`` rows
    whose fields fit in ``_BATCH_GRID_POINTS`` grid points, at least one."""
    return block * max(1, _BATCH_GRID_POINTS // (block * math.prod(grid_shape)))


@dataclass
class Stepper:
    """A built run: the exponential-Euler step of a basis, coefficient and
    sampler, and the per-config data every path of the run shares."""

    basis: SpectralBasis
    sigma: SigmaSpec
    sampler: object
    dt: float
    u0: np.ndarray
    horizon: float
    mass_bound: float

    @property
    def n_steps(self) -> int:
        # SimConfig admits only a horizon that is a whole number of steps
        return whole_steps(self.horizon, self.dt)

    @property
    def dt_heuristic(self) -> float:
        # documented heuristic, not enforced: dt <= 0.5 / alpha_max keeps the
        # per-step damping of the stiffest retained mode moderate
        alpha_max = self.basis.alpha_max
        return 0.5 / alpha_max if alpha_max > 0 else math.inf

    def step(self, u: np.ndarray, dW: np.ndarray):
        """Advance a (P, *grid) batch by one step of dt.

        Returns (u_new, I_inc, Q_inc, clamp_inc, finite): the projected
        fields and, per row, the increments of the mass martingale, of its
        quadratic variation and of the clamped mass, and whether the
        unprojected field stayed finite.
        """
        basis = self.basis
        f = sigma_eval(self.sigma, u)
        noise = f * dW
        I_inc = basis.integrate(noise)
        Q_inc = self.dt * self.sampler.qv_form(f)
        u_raw = basis.heat_flow(u + noise, self.dt)
        finite = np.all(np.isfinite(u_raw), axis=basis.field_axes)
        u_new = np.maximum(u_raw, 0.0)
        return u_new, I_inc, Q_inc, basis.integrate(u_new - u_raw), finite


@dataclass
class TrajectoryRecord:
    """Per-step time series of one seeded path plus its stop bookkeeping."""

    seed: int
    t: np.ndarray
    sup_norm: np.ndarray
    l1_norm: np.ndarray
    I: np.ndarray
    Q: np.ndarray
    clamped_mass: np.ndarray
    stop_flag: str
    stop_time: float

    CSV_HEADER = "step,t,sup_norm,l1_norm,I,Q,clamped_mass,stop_flag"

    @property
    def steps(self) -> int:
        return len(self.t) - 1

    @property
    def max_sup_norm(self) -> float:
        return float(np.max(self.sup_norm))

    @property
    def max_l1(self) -> float:
        return float(np.max(self.l1_norm))

    @property
    def final_I(self) -> float:
        return float(self.I[-1])

    @property
    def final_Q(self) -> float:
        return float(self.Q[-1])

    @property
    def clamped_fraction(self) -> float:
        base = self.l1_norm[0]
        return float(self.clamped_mass[-1] / base) if base > 0 else 0.0

    def csv_rows(self):
        last = len(self.t) - 1
        columns = (self.t, self.sup_norm, self.l1_norm, self.I, self.Q,
                   self.clamped_mass)
        for s in range(len(self.t)):
            flag = self.stop_flag if s == last else "none"
            values = ",".join(repr(float(c[s])) for c in columns)
            yield f"{s},{values},{flag}"


def initial_field(basis: SpectralBasis, kind: str, *, value: float = 1.0,
                  mode=None, amplitude: float = 1.0, path: str | None = None):
    """Nonnegative bounded initial data on the grid from the keys of
    ``INIT_KEYS[kind]``: a constant, an eigenmode times an amplitude or an
    ``.npy`` file of the grid's shape.  Data that cannot be built raises
    InitialDataError with the key at fault."""
    if kind not in INIT_KEYS:
        raise InitialDataError("init.kind", f"{kind!r} not one of {'|'.join(INIT_KEYS)}")
    if kind == "constant":
        return np.full(basis.grid_shape, _constant_value(value))
    if kind == "eigenmode":
        if amplitude < 0:
            raise InitialDataError("init.amplitude", "must be >= 0 (nonnegative initial data)")
        if mode is None:
            mode = (basis.axis_valid_indices()[0],) * basis.dimension
        mode = tuple(int(k) for k in np.atleast_1d(mode))
        if len(mode) != basis.dimension:
            raise InitialDataError(
                "init.mode", f"eigenmode {mode} needs one index per axis, {basis.dimension}")
        grid = basis.axis_eigenfunctions(basis.axis_points)
        try:
            axes = [grid[:, basis.axis_index(k)] for k in mode]
        except IndexError as exc:
            raise InitialDataError("init.mode", str(exc)) from exc
        u0 = amplitude * functools.reduce(np.multiply.outer, axes)
        if float(np.min(u0)) < -1e-12 * max(1.0, float(np.max(np.abs(u0)))):
            raise InitialDataError(
                "init.mode", f"eigenmode {mode} times amplitude {amplitude:g} takes "
                "negative values; initial data must be nonnegative")
        return np.maximum(u0, 0.0)
    if not path:
        raise InitialDataError("init.path", "required for init.kind = file")
    try:
        u0 = np.load(path)
    except (OSError, EOFError, ValueError) as exc:
        raise InitialDataError("init.path", str(exc)) from exc
    if not isinstance(u0, np.ndarray):
        u0.close()
        problem = f"{path} holds an archive of arrays, not one array"
    elif u0.shape != basis.grid_shape:
        problem = f"initial data shape {u0.shape} does not match grid {basis.grid_shape}"
    elif not np.all(np.isfinite(u0)):
        problem = "initial data contains non-finite values"
    elif float(np.min(u0)) < 0:
        problem = "initial data must be nonnegative"
    else:
        return np.asarray(u0, dtype=float)
    raise InitialDataError("init.path", problem)


def _constant_value(value: float) -> float:
    if value < 0:
        raise InitialDataError("init.value", "initial data must be nonnegative "
                               "(nonnegative initial condition assumption)")
    return float(value)


def initial_sup(config) -> float:
    """The sup-norm of a SimConfig's ``initial_data``, with its checks;
    constant data is checked from its value alone, with no field built."""
    if config.init_kind == "constant":
        return _constant_value(config.init_value)
    return float(config.initial_data.max())


def build_context(config) -> Stepper:
    """The built run of a SimConfig: its basis, sampler and initial data."""
    basis = build_basis(config.domain)
    return Stepper(basis, config.sigma, make_sampler(config.noise, basis),
                   config.dt, config.initial_data, config.horizon, config.mass_bound)


# the numpy bit generator of every stream, which config_hash and the reports
# name.  A name, not the class: numpy loads numpy.random (about 2.5 MB) on
# first access, which a process that only parses, hashes and aggregates
# while its pool steps need not pay
BIT_GENERATOR = "SFC64"


def seeded_stream(key):
    """The stream of ``key``, a nonnegative int or a tuple of them:
    ``BIT_GENERATOR`` seeded through ``SeedSequence(key)``, which hashes the
    key, so that streams of nearby keys are independent."""
    bit_generator = getattr(np.random, BIT_GENERATOR)
    return np.random.Generator(bit_generator(np.random.SeedSequence(key)))


def path_rng(seed: int):
    """The stream of the path of ``seed``."""
    return seeded_stream(seed)


@contextmanager
def drawn_ahead(shape, fill, chunks: int, units):
    """Yield ``take``, which hands out ``chunks`` chunks of normals in turn.

    A chunk is drawn as independent units: ``fill(out, k, unit)`` draws one
    unit of chunk k into ``out``, one of two buffers of ``shape``, and
    touches no entry another unit writes.  The fills release the GIL; the
    one helper thread draws a chunk's units in order while the caller
    transforms the previous chunk.  The k-th ``take(units)`` draws every
    unit of chunk k the helper has not started, waits for the unit in
    flight, starts chunk k+1 over ``units`` (chunk 0 is over the units
    given here) and returns chunk k, valid until the next call.  Each unit
    fills its own entries from its own streams, so no value depends on
    which thread drew it.  The helper is joined on every exit; a normal exit
    finishes a chunk drawn ahead but never taken and raises its error."""
    buffers = np.empty((2,) + tuple(shape))
    lock = threading.Lock()

    def draw(k, todo):  # the units of chunk k that no thread has started
        out = buffers[k % 2]
        while True:
            with lock:
                unit = next(todo, None)
            if unit is None:
                return
            fill(out, k, unit)

    with ThreadPoolExecutor(1) as helper:
        def start(k, units):
            todo = iter(units)
            return todo, helper.submit(draw, k, todo)

        todo, pending = start(0, units)
        taken = 0

        def take(units):
            nonlocal todo, pending, taken
            k, taken = taken, taken + 1
            draw(k, todo)  # every unit the helper has not started
            pending.result()  # and the one in flight
            if taken < chunks:
                todo, pending = start(taken, units)
            return buffers[k % 2]

        try:
            yield take
            draw(taken, todo)
            pending.result()
        finally:  # after an error, the helper starts no further unit
            with lock:
                for _ in todo:
                    pass


def run_batch(context: Stepper, seeds):
    """Run one path per seed to min(horizon, tau_n, tau_M) on one built run.

    Returns (records, failures) in seed order: the record of every path
    that stopped, and (seed, TrajectoryError) for every path whose field
    went non-finite.  The seeds step as batches of ``batch_rows`` rows;
    every row owns its stream and runs the operations of a batch of one, so
    no value depends on the batch.
    """
    rows = batch_rows(context.basis.grid_shape)
    records, failures = [], []
    for start in range(0, len(seeds), rows):
        done, failed = _run_rows(context, seeds[start:start + rows])
        records += done
        failures += failed
    return records, failures


def _run_rows(ctx: Stepper, seeds):
    """One batch of run_batch: every seed is a row, stepped until it stops."""
    basis, sampler, dt = ctx.basis, ctx.sampler, ctx.dt
    rngs = [path_rng(seed) for seed in seeds]
    n_steps = ctx.n_steps
    # step s is at time s * dt; summing dt step by step drifts by round-off
    t = dt * np.arange(n_steps + 1)
    sup, l1, I, Q, clamp = np.zeros((5, len(seeds), n_steps + 1))
    sup[:, 0] = np.max(ctx.u0)
    l1[:, 0] = I[:, 0] = basis.integrate(ctx.u0)
    last = np.zeros(len(seeds), dtype=int)
    flags = np.full(len(seeds), STOP_HORIZON, dtype=object)
    errors = {}
    # rows still stepping: their indices into seeds, and their fields
    live = np.arange(len(seeds))
    u = np.repeat(ctx.u0[np.newaxis], len(seeds), axis=0)
    # chunk k holds the normals of steps k*depth .. (k+1)*depth - 1 of the
    # rows live when chunk k-1 is taken, each row's from its own stream
    per_step = math.prod(sampler.normal_shape)
    depth = max(1, min(n_steps, -(-_DRAW_NORMALS // per_step),
                       _BATCH_NORMALS // (len(seeds) * per_step)))

    def fill(out, chunk, i):  # one unit: row i's steps of the chunk
        rngs[i].standard_normal(out=out[i, :n_steps - chunk * depth])

    shape = (len(seeds), depth) + sampler.normal_shape
    with drawn_ahead(shape, fill, -(-n_steps // depth), live.tolist()) as take:
        s = 0
        while True:
            hit_n = sup[live, s] >= ctx.sigma.truncation
            hit_M = ~hit_n & (I[live, s] > ctx.mass_bound)
            go = ~(hit_n | hit_M)
            if not go.all():
                flags[live[hit_n]] = STOP_TAU_N
                flags[live[hit_M]] = STOP_TAU_M
                live, u = live[go], u[go]
            if s == n_steps or live.size == 0:
                break
            j = s % depth
            if j == 0:
                normals = take(live.tolist())
            s += 1
            z = normals[:, j] if live.size == len(seeds) else normals[live, j]
            u, dI, dQ, dclamp, finite = ctx.step(u, sampler.increments(dt, z))
            if not finite.all():
                for i in live[~finite]:
                    errors[i] = TrajectoryError(s)
                live, u = live[finite], u[finite]
                dI, dQ, dclamp = dI[finite], dQ[finite], dclamp[finite]
            I[live, s] = I[live, s - 1] + dI
            Q[live, s] = Q[live, s - 1] + dQ
            clamp[live, s] = clamp[live, s - 1] + dclamp
            sup[live, s] = np.max(u, axis=basis.field_axes)
            l1[live, s] = basis.integrate(u)
            last[live] = s

    records, failures = [], []
    for i, seed in enumerate(seeds):
        if i in errors:
            failures.append((seed, errors[i]))
            continue
        end = last[i] + 1
        records.append(TrajectoryRecord(
            seed=seed,
            t=t[:end],
            sup_norm=sup[i, :end],
            l1_norm=l1[i, :end],
            I=I[i, :end],
            Q=Q[i, :end],
            clamped_mass=clamp[i, :end],
            stop_flag=flags[i],
            stop_time=float(t[last[i]]),
        ))
    return records, failures


def run_trajectory(config, seed: int, context: Stepper | None = None) -> TrajectoryRecord:
    """Run one path to min(horizon, tau_n, tau_M); deterministic in (config, seed).

    A batch of one of :func:`run_batch`; raises TrajectoryError when the
    field goes non-finite.  The optional prebuilt run (``build_context``)
    is a pure function of the config, so passing it only saves recomputation.
    """
    ctx = context if context is not None else build_context(config)
    records, failures = run_batch(ctx, [seed])
    if failures:
        raise failures[0][1]
    return records[0]
