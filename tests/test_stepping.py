"""Truncated-coefficient stepping: degenerations, mass identities, stops.

The discrete mass identity (integral u = I + clamped mass) is structural
for Neumann/periodic conditions and is asserted per step at round-off
level; the Dirichlet domination is checked in distribution.  The law of
the field itself is checked on additive noise, against the scheme's
exact variance built from the basis transforms and the kernel's grid
covariance.
"""

import ast
import collections
import math
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochheat
from stochheat import stepping
from stochheat.config import SimConfig
from stochheat.spectral import (
    BOUNDARY_CONDITIONS,
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    DomainSpec,
    build_basis,
)
from stochheat.diagnostics import convolution_variance_series
from stochheat.noise import (
    RieszKernel,
    SpectralKernel,
    WhiteNoise,
)
from stochheat.stepping import (
    STOP_HORIZON,
    STOP_TAU_M,
    STOP_TAU_N,
    SigmaSpec,
    TrajectoryError,
    TrajectoryRecord,
    build_context,
    initial_field,
    path_rng,
    run_batch,
    run_trajectory,
    sigma_eval,
)

from test_noise import riesz_covariance

PI = math.pi


def make_config(**overrides):
    base = dict(
        domain=DomainSpec(1, NEUMANN, 64),
        noise=WhiteNoise(),
        sigma=SigmaSpec(scale=1.0, growth=1.5, truncation=64.0),
        dt=2e-4,
        horizon=0.02,
        mass_bound=1e12,
        init_kind="constant",
        init_value=2.0,
    )
    base.update(overrides)
    return SimConfig(**base)


def admissible_kernels(d):
    """One kernel of each family admissible in dimension d, any boundary."""
    kernels = [SpectralKernel(theta=0.75, a=1.0), RieszKernel(alpha=min(2.0, d / 2) / 2)]
    return kernels + [WhiteNoise()] if d == 1 else kernels


class TestSigmaEval:
    def test_clamp_then_power(self):
        spec = SigmaSpec(scale=1.0, growth=1.5, truncation=4.0)
        assert sigma_eval(spec, 9.0) == pytest.approx(8.0)

    def test_zero_at_zero(self):
        for spec in (SigmaSpec(1, 1.5, 4), SigmaSpec(3, 2.0, 10)):
            assert sigma_eval(spec, 0.0) == 0.0

    def test_negative_branch_is_zero(self):
        spec = SigmaSpec(scale=1.0, growth=1.5, truncation=4.0)
        assert sigma_eval(spec, -1.0) == 0.0

    def test_vectorized(self):
        spec = SigmaSpec(scale=2.0, growth=2.0, truncation=3.0)
        u = np.array([-1.0, 0.0, 1.0, 3.0, 10.0])
        out = sigma_eval(spec, u)
        assert np.allclose(out, [0.0, 0.0, 2.0, 18.0, 18.0])

    def test_regime_labels(self):
        spec = SigmaSpec(scale=1.0, growth=1.5, truncation=4.0)
        assert spec.regime(1.5) == "paper regime"
        assert spec.regime(1.4) == "conjectured explosive regime"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SigmaSpec(scale=-1.0, growth=1.5, truncation=4.0)
        with pytest.raises(ValueError):
            SigmaSpec(scale=1.0, growth=1.5, truncation=0.0)


class TestStep:
    def setup_method(self):
        self.kernel = SpectralKernel(theta=0.25, a=1.0)
        self.dt = 1e-3
        self.run = build_context(make_config(noise=self.kernel, dt=self.dt))
        self.basis, self.sampler = self.run.basis, self.run.sampler

    def heat_flow(self, u):
        return self.basis.to_grid(self.basis.semigroup(self.basis.to_spectral(u), self.dt))

    def test_zero_sigma_reduces_to_heat_flow(self):
        sigma = SigmaSpec(scale=0.0, growth=1.5, truncation=10.0)
        stepper = replace(self.run, sigma=sigma)
        u = 1.0 + np.sin(2 * self.basis.axis_points) ** 2
        dW = self.sampler.sample_values(self.dt, path_rng(1))
        u_new, dI, dQ, dclamp, finite = stepper.step(u[np.newaxis], dW[np.newaxis])
        assert np.allclose(u_new[0], self.heat_flow(u), atol=1e-12)
        assert self.basis.integrate(u_new[0]) == pytest.approx(
            self.basis.integrate(u), rel=1e-12)
        assert dI.tolist() == [0.0] and dQ.tolist() == [0.0]
        assert finite.tolist() == [True]

    def test_zero_increment_keeps_I_and_Q(self):
        sigma = SigmaSpec(scale=1.0, growth=1.5, truncation=10.0)
        stepper = replace(self.run, sigma=sigma)
        u = np.full((1,) + self.basis.grid_shape, 2.0)
        u_new, dI, dQ, dclamp, finite = stepper.step(u, np.zeros_like(u))
        assert dI.tolist() == [0.0]
        # Q accrues the quadrature of sigma even with a zero draw: it is the
        # predictable bracket, not the realized increment
        assert dQ[0] == pytest.approx(self.dt * self.sampler.qv_form(sigma_eval(sigma, u[0])))
        assert np.allclose(u_new[0], self.heat_flow(u[0]), atol=1e-12)

    def test_dt_heuristic_documented(self):
        sigma = SigmaSpec(scale=1.0, growth=1.5, truncation=10.0)
        stepper = replace(self.run, sigma=sigma)
        assert stepper.dt_heuristic == pytest.approx(0.5 / self.basis.alpha_max)

    def test_I_increment_variance_matches_double_integral(self):
        # constant field, sigma constant: dI = h sigma sum dW, whose variance
        # is sigma^2 dt * double integral of the kernel
        sigma_val = 3.0
        dt = 0.01
        draws = 100_000
        rng = path_rng(123)
        batch = self.sampler.sample_batch(dt, rng, draws)
        increments = sigma_val * self.basis.cell_volume * batch.sum(axis=1)
        var_true = sigma_val**2 * dt * self.kernel.double_integral(self.basis)
        var_emp = increments.var()
        se = var_true * math.sqrt(2.0 / draws)
        assert abs(var_emp - var_true) < 3 * se


def reference_step(stepper, u, dW):
    """One step of one path on single fields, with the single-field heat
    flow and whole-array sums."""
    basis = stepper.basis
    f = sigma_eval(stepper.sigma, u)
    I_inc = basis.cell_volume * float(np.sum(f * dW))
    Q_inc = stepper.dt * stepper.sampler.qv_form(f)
    u_raw = basis.heat_flow(u + f * dW, stepper.dt)
    u_new = np.maximum(u_raw, 0.0)
    clamp_inc = basis.cell_volume * float(np.sum(u_new - u_raw))
    return u_new, I_inc, Q_inc, clamp_inc, bool(np.all(np.isfinite(u_raw)))


KERNEL_CASES = [
    (d, bc, kernel)
    for d in (1, 2, 3)
    for bc in BOUNDARY_CONDITIONS
    for kernel in admissible_kernels(d)
]


class TestBatchEquivalence:
    @pytest.mark.parametrize(
        "d, bc, kernel", KERNEL_CASES,
        ids=[f"{d}d-{bc}-{k.variant}" for d, bc, k in KERNEL_CASES])
    @settings(max_examples=4, deadline=None)
    @given(rows=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
    def test_batched_step_equals_one_row_steps_bitwise(self, d, bc, kernel, rows, seed):
        # a row's values must not depend on the batch it steps in
        dt = 1e-3
        stepper = build_context(make_config(domain=DomainSpec(d, bc, 8), noise=kernel,
                                            sigma=SigmaSpec(1.0, 1.5, 4.0), dt=dt))
        basis, sampler = stepper.basis, stepper.sampler
        rng = np.random.default_rng(seed)
        # values above the truncation level exercise the clamp of sigma
        u = rng.uniform(0.0, 6.0, size=(rows,) + basis.grid_shape)
        z = rng.standard_normal((rows,) + sampler.normal_shape)
        dW = sampler.increments(dt, z)
        batched = stepper.step(u, dW)
        names = ("u", "I", "Q", "clamp", "finite")
        for i in range(rows):
            assert np.array_equal(dW[i], sampler.increments(dt, z[i:i + 1])[0]), "dW"
            one_row = stepper.step(u[i:i + 1], dW[i:i + 1])
            reference = reference_step(stepper, u[i], dW[i])
            for name, got, single, ref in zip(names, batched, one_row, reference):
                assert np.array_equal(got[i], single[0]), name
                assert np.array_equal(got[i], ref), name
        f = sigma_eval(stepper.sigma, u)
        assert np.array_equal(sampler.qv_form(f), [sampler.qv_form(row) for row in f])


def call_sites(*callees):
    """(module, enclosing function) of every call of one of ``callees`` in the
    package."""
    class Sites(ast.NodeVisitor):
        def __init__(self):
            self.scope, self.found = ["<module>"], []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            if {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & set(callees):
                self.found.append((module.name, self.scope[-1]))
            self.generic_visit(node)

    sites = Sites()
    for module in sorted(Path(stepping.__file__).parent.glob("*.py")):
        sites.visit(ast.parse(module.read_text()))
    return sites.found


HELPER_SLOW, CALLER_SLOW = "helper slow", "caller slow"
ORDERS = (HELPER_SLOW, CALLER_SLOW)


def interleaved(order, drawers, drawn_ahead=stepping.drawn_ahead):
    """``drawn_ahead`` with one side made slow, so that the other draws
    every unit it can.  HELPER_SLOW: a unit the helper starts waits until
    every unit of its chunk has been started, so the helper draws at most
    one unit per chunk and the caller the rest.  CALLER_SLOW: ``take``
    waits until the helper has drawn every unit of the chunk, or failed.
    ``drawers`` collects (chunk, drawn by the caller) per unit."""
    caller = threading.get_ident()

    @contextmanager
    def forced(shape, fill, chunks, units):
        sizes, started = {0: len(units)}, collections.Counter()
        helper_drew = collections.Counter()
        changed = threading.Condition()
        helper_done = collections.defaultdict(threading.Event)
        failed = []

        def slow_fill(out, k, unit):
            by_caller = threading.get_ident() == caller
            with changed:
                drawers.append((k, by_caller))
                started[k] += 1
                changed.notify_all()
                if not by_caller and order == HELPER_SLOW:
                    changed.wait_for(lambda: started[k] == sizes[k] or failed, 10)
            try:
                fill(out, k, unit)
            except BaseException:
                with changed:  # a failed chunk is never finished
                    failed.append(k)
                    changed.notify_all()
                helper_done[k].set()
                raise
            if by_caller:
                return
            helper_drew[k] += 1
            if helper_drew[k] == sizes[k]:
                helper_done[k].set()

        with drawn_ahead(shape, slow_fill, chunks, units) as take:
            taken = 0

            def slow_take(units):
                nonlocal taken
                sizes[taken + 1] = len(units)
                if order == CALLER_SLOW:
                    helper_done[taken].wait(10)
                taken += 1
                return take(units)

            yield slow_take

    return forced


def helper_units(drawers):
    """Units the helper drew, per chunk."""
    return collections.Counter(k for k, by_caller in drawers if not by_caller)


class TestDrawnAhead:
    """Chunks of independent units, drawn by one helper thread and by the
    caller: the values are those of a serial draw."""

    UNITS, WIDTH, CHUNKS = 5, 7, 6

    def serial(self):
        rngs = [path_rng(u) for u in range(self.UNITS)]
        return [np.stack([rng.standard_normal(self.WIDTH) for rng in rngs])
                for _ in range(self.CHUNKS)]

    def drawn(self, draw):
        rngs = [path_rng(u) for u in range(self.UNITS)]

        def fill(out, k, unit):
            rngs[unit].standard_normal(out=out[unit])

        units = range(self.UNITS)
        with draw((self.UNITS, self.WIDTH), fill, self.CHUNKS, units) as take:
            return [take(units).copy() for _ in range(self.CHUNKS)]

    @pytest.mark.parametrize("order", ORDERS)
    def test_forced_interleavings_give_the_serial_draw(self, order):
        start = threading.active_count()
        drawers = []
        got = self.drawn(interleaved(order, drawers))
        assert threading.active_count() == start
        assert all(np.array_equal(a, b) for a, b in zip(got, self.serial()))
        assert len(drawers) == self.UNITS * self.CHUNKS
        if order == HELPER_SLOW:
            assert max(helper_units(drawers).values(), default=0) <= 1
        else:
            assert all(not by_caller for _, by_caller in drawers)

    def test_every_unit_is_drawn_once_under_frequent_thread_switches(self):
        # the helper and the caller claim units from one iterator; a claim
        # lost or made twice would skip or repeat a unit
        units, chunks = range(300), 40
        claims = []

        def fill(out, k, unit):
            claims.append((k, unit))
            out[unit] = k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with stepping.drawn_ahead((len(units),), fill, chunks, units) as take:
                for k in range(chunks):
                    assert np.array_equal(take(units), np.full(len(units), k))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(claims) == [(k, u) for k in range(chunks) for u in units]

    @pytest.mark.parametrize("order", ORDERS)
    def test_error_of_a_unit_reaches_the_caller_and_the_helper_is_joined(self, order):
        # the third chunk's units raise on the side that is not slow: under
        # HELPER_SLOW the first unit the caller draws, under CALLER_SLOW the
        # first the helper draws
        start = threading.active_count()
        drawers, raised = [], []
        units = range(self.UNITS)
        caller = threading.get_ident()

        def fill(out, k, unit):
            on_caller = threading.get_ident() == caller
            if k == 2 and on_caller == (order == HELPER_SLOW):
                raised.append(threading.get_ident())
                raise FloatingPointError("stream unavailable")
            out[unit] = k

        with pytest.raises(FloatingPointError, match="stream unavailable"):
            with interleaved(order, drawers)((self.UNITS, 1), fill, self.CHUNKS,
                                             units) as take:
                for _ in range(self.CHUNKS):
                    take(units)
        assert threading.active_count() == start
        assert len(raised) == 1
        assert (raised[0] == caller) == (order == HELPER_SLOW)


class TestRunBatch:
    def test_batch_size_does_not_change_records(self, monkeypatch):
        config = make_config(horizon=0.01)
        ctx = build_context(config)
        seeds = list(range(5))
        whole, _ = run_batch(ctx, seeds)
        # 64 grid points per row: batches of two rows
        monkeypatch.setattr(stepping, "_BATCH_GRID_POINTS", 128)
        split, _ = run_batch(ctx, seeds)
        for a, b in zip(whole, split):
            assert list(a.csv_rows()) == list(b.csv_rows())
        assert [r.seed for r in split] == seeds

    @pytest.mark.parametrize("draw_normals, batch_normals, depth", [
        (7 * 16, 2**21, 7),        # does not divide the 50 steps
        (2**11, 2**21, 50),        # 128, capped at 50
        (2**20, 2**21, 50),        # far above the horizon
        (2**11, 3 * 16 * 16, 3),   # capped by the batch's normals buffer
    ])
    def test_normals_depth_does_not_change_records(self, monkeypatch, draw_normals,
                                                   batch_normals, depth):
        # 16 rows of 16 normals per step over 50 steps; rows stop at tau_n
        # mid-chunk and seed 20 goes non-finite at step 17.  The reference
        # draws one step of normals per call, as a depth of 1 does.
        config = make_config(
            domain=DomainSpec(1, NEUMANN, 16), noise=SpectralKernel(0.75, 1.0),
            sigma=SigmaSpec(1.0, 4.0, 1e100), dt=1e-3, horizon=0.05,
            mass_bound=float("inf"), init_value=1.5)
        ctx = build_context(config)
        seeds = list(range(5, 21))
        draws = []  # steps of normals per draw call

        class CountedStream:
            def __init__(self, seed):
                self.rng = path_rng(seed)

            def standard_normal(self, out):
                draws.append(len(out))
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(stepping, "path_rng", CountedStream)
        monkeypatch.setattr(stepping, "_DRAW_NORMALS", 1)
        with np.errstate(all="ignore"):
            reference, ref_failures = run_batch(ctx, seeds)
            assert set(draws) == {1}
            draws.clear()
            monkeypatch.setattr(stepping, "_DRAW_NORMALS", draw_normals)
            monkeypatch.setattr(stepping, "_BATCH_NORMALS", batch_normals)
            records, failures = run_batch(ctx, seeds)
        assert max(draws) == depth
        assert [(seed, exc.step) for seed, exc in failures] == [(20, 17)]
        assert [(seed, str(exc)) for seed, exc in failures] == [
            (seed, str(exc)) for seed, exc in ref_failures]
        assert any(r.stop_flag == STOP_TAU_N and r.steps % depth for r in records)
        assert [r.seed for r in records] == [r.seed for r in reference]
        for a, b in zip(reference, records):
            assert list(a.csv_rows()) == list(b.csv_rows())

    def test_draws_run_on_the_helper_and_the_caller_joined_on_every_exit(self,
                                                                       monkeypatch):
        # a chunk's rows are drawn by one helper thread and by the caller,
        # whichever reaches a row first; the helper is joined when run_batch
        # returns, when rows go non-finite and when a stream raises
        start = threading.active_count()
        fillers = set()  # threads that ran a fill

        class Stream:
            def __init__(self, seed):
                self.rng = path_rng(seed)
                self.fills = 0

            def standard_normal(self, out):
                fillers.add(threading.get_ident())
                self.fills += 1
                if self.fills == raising_fill:
                    raise FloatingPointError("stream unavailable")
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(stepping, "path_rng", Stream)
        monkeypatch.setattr(stepping, "_DRAW_NORMALS", 64)  # one step per chunk
        raising_fill = None
        ctx = build_context(make_config())
        records, failures = run_batch(ctx, [1, 2, 3])
        assert len(records) == 3 and not failures
        assert threading.active_count() == start
        assert len(fillers - {threading.get_ident()}) == 1

        blow_up = build_context(make_config(
            sigma=SigmaSpec(1.0, 1.5, 1e309), init_value=1e308,
            mass_bound=float("inf")))
        with np.errstate(all="ignore"):
            records, failures = run_batch(blow_up, [7, 8])
        assert records == [] and len(failures) == 2
        assert threading.active_count() == start

        # the second chunk's error is raised in the caller, whichever
        # thread drew the row that raised
        raising_fill = 2
        with pytest.raises(FloatingPointError, match="stream unavailable"):
            run_batch(ctx, [1, 2, 3])
        assert threading.active_count() == start
        # every row stops at step 0 (tau_n), before the first chunk is read:
        # the error of that chunk is raised when the batch ends
        raising_fill = 1
        at_truncation = replace(ctx, u0=np.full_like(ctx.u0, 64.0))
        with pytest.raises(FloatingPointError, match="stream unavailable"):
            run_batch(at_truncation, [1, 2, 3])
        assert threading.active_count() == start

    @pytest.mark.parametrize("order", ORDERS)
    def test_forced_interleavings_do_not_change_records(self, monkeypatch, order):
        ctx = build_context(make_config())
        seeds = list(range(6))
        reference, _ = run_batch(ctx, seeds)
        drawers = []
        monkeypatch.setattr(stepping, "drawn_ahead", interleaved(order, drawers))
        records, failures = run_batch(ctx, seeds)
        assert not failures
        assert [list(r.csv_rows()) for r in records] == [
            list(r.csv_rows()) for r in reference]
        if order == HELPER_SLOW:
            assert max(helper_units(drawers).values(), default=0) <= 1
        else:
            assert all(not by_caller for _, by_caller in drawers)

    def test_thread_pool_is_built_only_by_drawn_ahead(self):
        # one draw-ahead helper serves the stepping core and the probe; a
        # second ThreadPoolExecutor in the package would be a second copy
        assert call_sites("ThreadPoolExecutor") == [("stepping.py", "drawn_ahead")]

    def test_init_kinds_are_compared_only_in_stepping(self):
        # initial_field owns every init.kind fact; a comparison elsewhere
        # would be a second statement of what a kind reads
        found = []
        for module in sorted(Path(stepping.__file__).parent.glob("*.py")):
            if module.name == "stepping.py":
                continue
            found += [
                (module.name, node.lineno)
                for node in ast.walk(ast.parse(module.read_text()))
                if isinstance(node, ast.Compare)
                for operand in [node.left, *node.comparators]
                for value in getattr(operand, "elts", [operand])  # x in (...)
                if isinstance(value, ast.Constant)
                and value.value in ("constant", "eigenmode", "file")
            ]
        assert found == []

    def test_a_failed_path_is_one_error_class(self):
        assert not hasattr(stepping, "BlowThroughError")
        assert not hasattr(stochheat, "BlowThroughError")

    def test_stepper_is_built_only_by_build_context(self):
        # a built run has one constructor; a second would rebuild per batch
        assert call_sites("Stepper") == [("stepping.py", "build_context")]

    def test_streams_are_built_only_by_seeded_stream(self):
        # a stream has one constructor, over the generator config_hash names;
        # a bit generator, seed sequence or Generator built elsewhere would
        # draw values that no stamp accounts for
        bit_generators = [name for name, obj in vars(np.random).items()
                          if isinstance(obj, type) and issubclass(obj, np.random.BitGenerator)]
        assert {"Philox", "SFC64", "PCG64", "MT19937"} <= set(bit_generators)
        builders = [*bit_generators, "SeedSequence", "Generator", "default_rng",
                    "RandomState"]
        assert call_sites(*builders) == [("stepping.py", "seeded_stream")] * 2
        philox = [
            (module.name, node.lineno)
            for module in sorted(Path(stepping.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(module.read_text()))
            if "Philox" in (getattr(node, "id", None), getattr(node, "attr", None))
        ]
        assert philox == []

    def test_parsing_and_hashing_do_not_load_numpy_random(self):
        # the main process of a pooled run parses, hashes and aggregates;
        # loading numpy.random there raised its peak memory by about 2.5 MB
        check = ("import sys; import stochheat as sh; "
                 "sh.config_hash(sh.parse_config(sys.argv[1])); "
                 "assert 'numpy.random' not in sys.modules, 'numpy.random loaded'")
        config = Path(__file__).resolve().parent.parent / "configs" / "white_noise_critical.conf"
        src = str(Path(stochheat.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", check, str(config)],
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                                  p for p in (src, os.environ.get("PYTHONPATH")) if p)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 - 1])
    def test_path_stream_is_sfc64_seeded_through_seed_sequence(self, seed):
        reference = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
        assert np.array_equal(path_rng(seed).standard_normal(100),
                              reference.standard_normal(100))

    def test_batch_where_every_row_fails_returns(self):
        config = make_config(sigma=SigmaSpec(1.0, 1.5, 1e309), init_value=1e308,
                             mass_bound=float("inf"))
        ctx = build_context(config)
        with np.errstate(all="ignore"):
            records, failures = run_batch(ctx, [7, 8, 9])
            with pytest.raises(TrajectoryError) as info:
                run_trajectory(config, 8, context=ctx)
        assert records == []
        assert [(seed, exc.step) for seed, exc in failures] == [(7, 1), (8, 1), (9, 1)]
        assert str(info.value) == str(failures[1][1])


def scheme_variance(basis, C, dt, n, center):
    """dt sum_{m=1..n} (S^m C S^m^T)_cc for the one-step semigroup S of the
    scheme, built column by column from the basis transforms of unit
    fields, and C the grid covariance of the increments per unit dt."""
    size = math.prod(basis.grid_shape)
    units = np.eye(size).reshape((size,) + basis.grid_shape)
    S = basis.to_grid_batch(basis.semigroup(basis.to_spectral_batch(units), dt))
    S = S.reshape(size, size).T
    row = np.eye(size)[np.ravel_multi_index(center, basis.grid_shape)]
    total = 0.0
    for _ in range(n):
        row = row @ S
        total += row @ C @ row
    return dt * total


class TestStepperLaw:
    # additive noise, sigma = 1: u_n = S^n u0 + sum_{m=1..n} S^m dW_m, so
    # Var u(T, x_c) = dt sum_m (S^m C S^m^T)_cc; constant data far above
    # the noise keeps the projection idle
    PATHS = 2000
    N_STEPS = 10
    DT = 1e-3

    def final_fields(self, monkeypatch, domain, kernel):
        config = make_config(
            domain=domain, noise=kernel,
            sigma=SigmaSpec(scale=1.0, growth=0.0, truncation=1e6),
            dt=self.DT, horizon=self.N_STEPS * self.DT, mass_bound=float("inf"),
            init_value=50.0,
        )
        last = []
        step = stepping.Stepper.step

        def spy(stepper, u, dW):
            out = step(stepper, u, dW)
            last[:] = [out[0]]
            return out

        monkeypatch.setattr(stepping.Stepper, "step", spy)
        ctx = build_context(config)
        records, failures = run_batch(ctx, list(range(self.PATHS)))
        assert failures == []
        assert all(r.stop_flag == STOP_HORIZON and r.steps == self.N_STEPS
                   for r in records)
        assert all(np.all(r.clamped_mass == 0) for r in records)
        u = last[0]
        assert u.shape == (self.PATHS,) + ctx.basis.grid_shape
        return ctx, u

    def assert_variance(self, u, center, oracle):
        emp = float(u[(slice(None),) + center].var())
        se = oracle * math.sqrt(2.0 / (self.PATHS - 1))
        assert abs(emp - oracle) < 3 * se, (emp, oracle, se)

    def test_spectral_kernel_closed_form(self, monkeypatch):
        domain = DomainSpec(1, NEUMANN, 32)
        ctx, u = self.final_fields(monkeypatch, domain, SpectralKernel(0.25, 1.0))
        basis, sampler = ctx.basis, ctx.sampler
        center = (len(basis.axis_points) // 2,)
        x_c = [basis.axis_points[center[0]]]
        oracle = convolution_variance_series(
            sampler, self.N_STEPS * self.DT, x_c, self.DT)
        # the closed form is the matrix form with the kernel's grid covariance
        G = basis.to_grid_batch(np.eye(basis.coeff_shape[0])).T
        C = G @ np.diag(sampler.weights) @ G.T
        assert scheme_variance(basis, C, self.DT, self.N_STEPS, center) == (
            pytest.approx(oracle, rel=1e-10))
        self.assert_variance(u, center, oracle)

    def test_riesz_kernel(self, monkeypatch):
        spec = RieszKernel(0.5)
        ctx, u = self.final_fields(monkeypatch, DomainSpec(2, NEUMANN, 8), spec)
        basis = ctx.basis
        center = (4, 4)
        C = riesz_covariance(spec, basis)
        oracle = scheme_variance(basis, C, self.DT, self.N_STEPS, center)
        self.assert_variance(u, center, oracle)


class TestMassIdentity:
    @pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
    def test_discrete_martingale_identity(self, bc):
        # integral u(t) == I(t) + clamped mass, at round-off, every step
        config = make_config(
            domain=DomainSpec(1, bc, 64),
            noise=SpectralKernel(theta=0.25, a=1.0),
            horizon=0.05,
        )
        rec = run_trajectory(config, seed=7)
        gap = np.abs(rec.l1_norm - rec.I - rec.clamped_mass)
        assert np.max(gap) < 1e-9 * max(1.0, np.max(np.abs(rec.I)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_identity_for_every_dimension_boundary_modes_and_kernel(self, data):
        # the zero mode carries the integral for any mode cutoff and kernel
        d = data.draw(st.sampled_from([1, 2, 3]), label="d")
        n = 16 if d < 3 else 8
        domain = DomainSpec(d, data.draw(st.sampled_from([NEUMANN, PERIODIC]), label="bc"),
                            n, modes=data.draw(st.integers(1, n), label="modes"))
        kernel = data.draw(st.sampled_from(admissible_kernels(d)), label="kernel")
        config = make_config(domain=domain, noise=kernel, dt=1e-3, horizon=8e-3)
        rec = run_trajectory(config, seed=data.draw(st.integers(0, 2**31 - 1), label="seed"))
        gap = np.abs(rec.l1_norm - rec.I - rec.clamped_mass)
        assert np.max(gap) < 1e-9 * max(1.0, np.max(np.abs(rec.I)))

    def test_dirichlet_domination_in_distribution(self):
        # L1 <= I + clamp up to a discretization mismatch that shrinks with dt
        def violation_stats(dt, seeds):
            config = make_config(
                domain=DomainSpec(1, DIRICHLET, 64),
                noise=SpectralKernel(theta=0.25, a=0.0),
                dt=dt,
                horizon=0.02,
                init_value=2.0,
            )
            worst = 0.0
            viols = 0
            total = 0
            for seed in seeds:
                rec = run_trajectory(config, seed)
                excess = rec.l1_norm - rec.clamped_mass - rec.I
                tol = 1e-9 * np.maximum(1.0, np.abs(rec.I))
                viols += int(np.sum(excess > tol))
                total += len(excess)
                worst = max(worst, float(np.max(excess / np.maximum(rec.I, 1e-300))))
            return viols / total, worst

        frac_coarse, worst_coarse = violation_stats(4e-4, range(30))
        frac_fine, _ = violation_stats(2e-4, range(30))
        assert frac_fine <= frac_coarse + 1e-12
        assert worst_coarse < 0.01


class TestRunTrajectory:
    def test_immediate_stop_on_truncation(self):
        # SimConfig rejects initial data at the truncation level; a context
        # built around it still stops every path at step 0
        config = make_config(init_value=2.0)
        ctx = replace(build_context(config), sigma=SigmaSpec(1.0, 1.5, truncation=1.5))
        rec = run_trajectory(config, seed=0, context=ctx)
        assert rec.stop_flag == STOP_TAU_N
        assert rec.stop_time == 0.0
        assert len(rec.t) == 1

    def test_immediate_stop_on_mass_bound(self):
        config = make_config(mass_bound=1.0, init_value=2.0)  # I(0) = 2 pi > 1
        rec = run_trajectory(config, seed=0)
        assert rec.stop_flag == STOP_TAU_M
        assert rec.stop_time == 0.0

    def test_pure_heat_decay_of_first_mode(self):
        config = make_config(
            domain=DomainSpec(1, DIRICHLET, 64),
            noise=SpectralKernel(theta=0.25, a=0.0),
            sigma=SigmaSpec(scale=0.0, growth=1.5, truncation=100.0),
            init_kind="eigenmode",
            init_mode=(1,),
            init_amplitude=1.0,
            dt=1e-3,
            horizon=0.5,
        )
        rec = run_trajectory(config, seed=3)
        assert rec.stop_flag == STOP_HORIZON
        # sup-norm of e_1 decays like e^{-t} under pure heat flow
        ratio = rec.sup_norm[-1] / rec.sup_norm[0]
        assert ratio == pytest.approx(math.exp(-rec.t[-1]), rel=1e-6)

    def test_horizon_stop_time_is_exact(self):
        # 500 steps of dt = 2e-4: t is s * dt, not a running sum of dt
        config = make_config(dt=2e-4, horizon=0.1, init_value=0.5)
        rec = run_trajectory(config, seed=0)
        assert rec.stop_flag == STOP_HORIZON
        assert rec.stop_time == config.horizon
        assert rec.t[-1] == config.horizon
        assert np.array_equal(rec.t, 2e-4 * np.arange(len(rec.t)))

    def test_deterministic_given_config_and_seed(self):
        config = make_config(horizon=0.01)
        a = run_trajectory(config, seed=11)
        b = run_trajectory(config, seed=11)
        assert np.array_equal(a.sup_norm, b.sup_norm)
        assert np.array_equal(a.I, b.I)
        assert np.array_equal(a.Q, b.Q)
        c = run_trajectory(config, seed=12)
        assert not np.array_equal(a.sup_norm, c.sup_norm)

    def test_context_reuse_is_invisible(self):
        config = make_config(horizon=0.01)
        ctx = build_context(config)
        a = run_trajectory(config, seed=5)
        b = run_trajectory(config, seed=5, context=ctx)
        assert np.array_equal(a.sup_norm, b.sup_norm)
        assert np.array_equal(a.Q, b.Q)

    def test_positivity_maintained_and_clamp_small(self):
        config = make_config(horizon=0.05, init_value=2.0)
        rec = run_trajectory(config, seed=21)
        assert rec.clamped_fraction < 0.01
        assert np.all(rec.l1_norm >= 0)

    def test_q_nondecreasing(self):
        config = make_config(horizon=0.02)
        rec = run_trajectory(config, seed=2)
        assert np.all(np.diff(rec.Q) >= 0)

    def test_csv_rows_format(self):
        config = make_config(horizon=5 * 2e-4)
        rec = run_trajectory(config, seed=1)
        rows = list(rec.csv_rows())
        assert len(rows) == len(rec.t)
        assert rows[0].startswith("0,")
        assert rows[-1].endswith(rec.stop_flag)
        assert all(r.split(",")[7] == "none" for r in rows[:-1])
        assert TrajectoryRecord.CSV_HEADER.count(",") == rows[0].count(",")


class TestInitialField:
    def test_constant_negative_rejected(self):
        basis = build_basis(DomainSpec(1, NEUMANN, 16))
        with pytest.raises(ValueError):
            initial_field(basis, "constant", value=-1.0)

    def test_sign_changing_eigenmode_rejected(self):
        basis = build_basis(DomainSpec(1, DIRICHLET, 16))
        with pytest.raises(ValueError):
            initial_field(basis, "eigenmode", mode=(2,))

    def test_first_dirichlet_mode_allowed(self):
        basis = build_basis(DomainSpec(1, DIRICHLET, 16))
        u0 = initial_field(basis, "eigenmode", mode=(1,), amplitude=2.0)
        assert np.all(u0 >= 0)
        assert np.max(u0) == pytest.approx(2.0 * math.sqrt(2 / PI), rel=1e-3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_eigenmode_is_the_product_of_axis_eigenfunctions(self, d):
        # e_(1,..,1)(x) = prod_i sqrt(2/L) sin(pi x_i / L) on [0, pi]^d
        config = make_config(domain=DomainSpec(d, DIRICHLET, 8),
                             noise=SpectralKernel(theta=0.75, a=1.0), init_kind="eigenmode",
                             init_mode=(1,) * d, init_amplitude=2.0)
        u0 = build_context(config).u0
        axis = math.sqrt(2 / PI) * np.sin(build_basis(config.domain).axis_points)
        product = axis
        for _ in range(d - 1):
            product = np.multiply.outer(product, axis)
        assert u0.shape == axis.shape * d
        assert np.allclose(u0, 2.0 * product, rtol=1e-12, atol=1e-15)

    def test_file_roundtrip(self, tmp_path):
        basis = build_basis(DomainSpec(1, NEUMANN, 16))
        data = np.abs(np.sin(basis.axis_points)) + 0.5
        p = tmp_path / "u0.npy"
        np.save(p, data)
        u0 = initial_field(basis, "file", path=str(p))
        assert np.array_equal(u0, data)

    def test_config_checks_constant_data_without_building_a_basis(self, monkeypatch):
        def no_basis(spec):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(stepping, "build_basis", no_basis)
        make_config(init_value=3.0)
        with pytest.raises(ValueError, match="init.value"):
            make_config(init_value=-1.0)
        with pytest.raises(ValueError, match="init.value"):
            make_config(init_value=0.0)
        with pytest.raises(ValueError, match="init.value"):
            make_config(init_value=64.0)

    @pytest.mark.parametrize("kind, keys", [
        ("constant", {"value": 2.5}),
        ("eigenmode", {"mode": (1,), "amplitude": 3.0}),
    ])
    def test_initial_sup_is_the_sup_of_the_field(self, kind, keys):
        domain = DomainSpec(1, DIRICHLET, 16)
        args = dict(value=1.0, mode=None, amplitude=1.0, path=None) | keys
        config = make_config(domain=domain, noise=SpectralKernel(theta=0.25, a=0.0),
                             init_kind=kind, **{f"init_{k}": v for k, v in args.items()})
        assert stepping.initial_sup(config) == float(
            initial_field(build_basis(domain), kind, **args).max())

    def test_file_negative_rejected(self, tmp_path):
        basis = build_basis(DomainSpec(1, NEUMANN, 16))
        p = tmp_path / "u0.npy"
        np.save(p, -np.ones(basis.grid_shape))
        with pytest.raises(ValueError):
            initial_field(basis, "file", path=str(p))
