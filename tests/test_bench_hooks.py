"""The benchmark's hooks into the package still resolve.

``benches/tracing.py`` wraps the functions and methods listed in its
``TRACED`` table, ``benches/op.py`` ends set-up at the first return of the
functions it passes to ``mark_setup_end``, and ``benches/checks.py`` calls
sampler methods in its output checks.  All of them look names up at run
time, so a renamed or deleted function breaks ``benches/run.py`` without
failing any other test.  These checks read the three files and change
nothing in them or in the package.
"""

import ast
import functools
import importlib.util
import threading
from pathlib import Path

import pytest

import stochheat

BENCHES = Path(__file__).resolve().parent.parent / "benches"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "stochheat_bench_tracing", BENCHES / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup_markers():
    """String arguments of every mark_setup_end call in op.py."""
    tree = ast.parse((BENCHES / "op.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "mark_setup_end"):
            for arg in node.args:
                names |= {c.value for c in ast.walk(arg)
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def sampler_calls():
    """Names of the methods checks.py calls on a variable named sampler."""
    tree = ast.parse((BENCHES / "checks.py").read_text())
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "sampler"}


def defined_function(modules, attr):
    """The function ``attr`` as defined (not re-exported) in the package."""
    return next(
        (getattr(m, attr) for m in modules
         if getattr(getattr(m, attr, None), "__module__", None) == m.__name__),
        None)


TRACING = load_tracing()
MODULES = TRACING.package_modules(stochheat)


HOOKS = sorted({(owner or "", attr) for _, owner, attr in TRACING.TRACED})


@pytest.mark.parametrize("owner, attr", HOOKS,
                         ids=[f"{o}.{a}" if o else a for o, a in HOOKS])
def test_traced_name_resolves(owner, attr):
    if owner:
        cls = TRACING._find_class(MODULES, owner)
        assert callable(getattr(cls, attr, None)), f"{owner}.{attr} is gone"
    else:
        assert callable(defined_function(MODULES, attr)), f"{attr} is gone"


def test_setup_markers_resolve():
    markers = setup_markers()
    assert {"build_context", "make_sampler"} <= markers
    for attr in markers:
        assert callable(defined_function(MODULES, attr)), f"{attr} is gone"


@pytest.mark.parametrize("owner", ["SpectralSampler", "RieszSampler", "WhiteNoiseSampler"])
def test_checked_sampler_methods_resolve(owner):
    calls = sampler_calls()
    assert {"sample_batch", "qv_form"} <= calls
    cls = TRACING._find_class(MODULES, owner)
    for attr in calls:
        assert callable(getattr(cls, attr, None)), f"{owner}.{attr} is gone"


class ThreadTracer(TRACING.Tracer):
    """The benchmark's tracer, also noting the threads its wrappers run on."""

    def __init__(self):
        super().__init__()
        self.threads = set()

    def wrap(self, name, fn, batch=False):
        traced = super().wrap(name, fn, batch)
        threads = self.threads

        @functools.wraps(fn)
        def noted(*args, **kwargs):
            threads.add(threading.get_ident())
            return traced(*args, **kwargs)

        return noted


def test_traced_spans_nest_inside_their_parents(monkeypatch):
    # the stepping loop and the probe draw normals on a helper thread; only
    # generator fills run there, so every traced function runs on the
    # calling thread and every span the tracer's one stack records lies
    # inside its parent's interval
    for _, owner, attr in TRACING.TRACED:
        targets = ([TRACING._find_class(MODULES, owner)] if owner
                   else [m for m in MODULES if hasattr(m, attr)])
        for target in targets:  # restored when the test ends
            monkeypatch.setattr(target, attr, getattr(target, attr))
    tracer = ThreadTracer()
    tracer.install(stochheat)
    # 128 normals per step: 8 steps per chunk, 7 chunks over 50 steps
    config = stochheat.SimConfig(
        domain=stochheat.DomainSpec(1, "neumann", 128), noise=stochheat.WhiteNoise(),
        sigma=stochheat.SigmaSpec(1.0, 1.5, 64.0), dt=2e-4, horizon=0.01,
        mass_bound=1e12, paths=6, base_seed=3, init_value=2.0)
    stochheat.ensemble.run_ensemble(config)
    stochheat.diagnostics.convolution_moment_probe(
        stochheat.build_basis(stochheat.DomainSpec(1, "dirichlet", 32)),
        stochheat.SpectralKernel(theta=0.25, a=0.0), p=20, T_grid=[0.002, 0.004],
        paths=64, dt=2e-4)
    assert tracer.threads == {threading.get_ident()}
    code, parent, start, end, _ = tracer.arrays()
    names = [tracer.names[c] for c in code]
    assert {"stepping.step", "noise.qv_form", "spectral.to_grid_batch",
            "diagnostics.convolution_moment_probe"} <= set(names)
    assert (end >= start).all() and (start > 0).all()
    child = parent >= 0
    assert (start[parent[child]] <= start[child]).all()
    assert (end[child] <= end[parent[child]]).all()
    probe = names.index("diagnostics.convolution_moment_probe")
    assert sum(1 for n, q in zip(names, parent)
               if n == "spectral.to_grid_batch" and q == probe) == 20
