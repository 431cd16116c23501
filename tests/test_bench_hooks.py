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
import importlib.util
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
