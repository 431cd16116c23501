"""In-memory span tracing of stochheat's public functions, from outside.

``Tracer.install`` replaces the package's functions and methods named in
``TRACED`` with wrappers that record one span per call: a name code, the
parent span, start and end.  Spans stay in memory and are written out once
by ``Tracer.dump``.  ``layer_metrics`` turns them into the per-layer
metrics: self time is a span's duration minus the duration of its direct
children.

The wrappers are installed at run time; no file of the package changes.
Functions are replaced in every ``stochheat`` module that binds them, so
calls through ``from .x import f`` imports are traced too.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, owner, attribute); owner is a module-level function name
# (None) or a class name found in the package
TRACED = (
    ("config.parse_config", None, "parse_config"),
    ("spectral.build_basis", None, "build_basis"),
    ("spectral.to_spectral", "SpectralBasis", "to_spectral"),
    ("spectral.to_grid", "SpectralBasis", "to_grid"),
    ("spectral.to_spectral_batch", "SpectralBasis", "to_spectral_batch"),
    ("spectral.to_grid_batch", "SpectralBasis", "to_grid_batch"),
    ("noise.make_sampler", None, "make_sampler"),
    ("noise.sample_values", "RieszSampler", "sample_values"),
    ("noise.sample_values", "SpectralSampler", "sample_values"),
    ("noise.sample_values", "WhiteNoiseSampler", "sample_values"),
    ("noise.qv_form", "RieszSampler", "qv_form"),
    ("noise.qv_form", "SpectralSampler", "qv_form"),
    ("noise.qv_form", "WhiteNoiseSampler", "qv_form"),
    ("stepping.build_context", None, "build_context"),
    ("stepping.sigma_eval", None, "sigma_eval"),
    ("stepping.step", "Stepper", "step"),
    ("stepping.run_trajectory", None, "run_trajectory"),
    ("diagnostics.detect_doubling", None, "detect_doubling"),
    ("diagnostics.convolution_moment_probe", None, "convolution_moment_probe"),
    ("ensemble.run_ensemble", None, "run_ensemble"),
    ("ensemble.summarize", None, "summarize"),
    ("ensemble.compute_aggregates", None, "compute_aggregates"),
    ("ensemble.write", "EnsembleResult", "write"),
)

BATCH_TRANSFORMS = ("spectral.to_spectral_batch", "spectral.to_grid_batch")


class Tracer:
    """Span recorder; one instance traces one operation in one process."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("d")  # batch rows per span, 0 for non-batch calls
        self._stack: list[int] = []

    def _name_code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn, batch: bool = False):
        code = self._name_code(name)
        stack = self._stack
        codes, parents, starts, ends, rows = (
            self.code, self.parent, self.start, self.end, self.rows)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            # batch transforms are methods: args = (basis, array)
            rows.append(_batch_rows(args, kwargs) if batch else 0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def install(self, package) -> None:
        """Wrap every entry of TRACED in all loaded modules of ``package``."""
        for name, owner, attr in TRACED:
            if owner is None:
                replace_function(package, attr, lambda fn, name=name: self.wrap(name, fn))
            else:
                cls = _find_class(package_modules(package), owner)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr),
                                             batch=name in BATCH_TRANSFORMS))

    def arrays(self):
        return (np.frombuffer(self.code, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.rows))

    def dump(self, path, trace_id: str) -> None:
        code, parent, start, end, rows = self.arrays()
        np.savez_compressed(path, trace_id=np.array(trace_id),
                            names=np.array(self.names), code=code,
                            parent=parent, start=start, end=end, rows=rows)

    def per_name(self) -> dict:
        """name -> {calls, self_s, rows}."""
        code, parent, start, end, rows = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for c, name in enumerate(self.names):
            sel = code == c
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "self_s": float(self_time[sel].sum()),
                "rows": float(rows[sel].sum()),
            }
        return out


def _batch_rows(args, kwargs) -> float:
    """Leading (batch) extent of a batch transform's array argument."""
    basis = args[0]
    values = np.asarray(args[1] if len(args) > 1 else next(iter(kwargs.values())))
    return float(np.prod(values.shape[: values.ndim - basis.dimension]))


def package_modules(package) -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == package.__name__ or n.startswith(package.__name__ + ".")]


def replace_function(package, attr: str, make_wrapper) -> None:
    """Rebind function ``attr`` in every package module that binds it.

    The original is the function defined (not re-exported) in the package;
    ``make_wrapper(original)`` gives its replacement.
    """
    modules = package_modules(package)
    original = next(
        (getattr(m, attr) for m in modules
         if getattr(getattr(m, attr, None), "__module__", None) == m.__name__),
        None)
    if original is None:
        raise LookupError(f"function {attr} not found in {package.__name__}")
    wrapper = make_wrapper(original)
    for mod in modules:
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _find_class(modules, owner):
    for mod in modules:
        cls = getattr(mod, owner, None)
        if isinstance(cls, type):
            return cls
    raise LookupError(f"class {owner} not found in the package")


def layer_metrics(stats: dict, probe_steps: int = 0, probe_paths: int = 0) -> dict:
    """Per-layer metrics (name -> value) from ``Tracer.per_name`` output.

    Per-call metrics of a function that was never called read 0.  For a
    probe operation, ``probe_steps`` time steps over ``probe_paths`` paths
    are the path-steps; otherwise they are the ``Stepper.step`` calls.
    """
    def get(name, key):
        return stats.get(name, {}).get(key, 0.0)

    def per_call_us(name):
        calls = get(name, "calls")
        return 1e6 * get(name, "self_s") / calls if calls else 0.0

    def total_ms(name):
        return 1e3 * get(name, "self_s")

    steps = int(get("stepping.step", "calls"))
    path_steps = probe_steps * probe_paths if probe_steps else steps
    batch_rows = sum(get(n, "rows") for n in BATCH_TRANSFORMS)
    batch_self = sum(get(n, "self_s") for n in BATCH_TRANSFORMS)
    transforms = (get("spectral.to_spectral", "calls")
                  + get("spectral.to_grid", "calls") + batch_rows)
    return {
        "spectral.build_basis_ms": total_ms("spectral.build_basis"),
        "spectral.to_spectral_us": per_call_us("spectral.to_spectral"),
        "spectral.to_grid_us": per_call_us("spectral.to_grid"),
        "spectral.batch_transform_us": 1e6 * batch_self / batch_rows if batch_rows else 0.0,
        "spectral.transforms_per_step": transforms / path_steps if path_steps else 0.0,
        "noise.make_sampler_ms": total_ms("noise.make_sampler"),
        "noise.samplers_built": int(get("noise.make_sampler", "calls")),
        "noise.sample_values_us": per_call_us("noise.sample_values"),
        "noise.qv_form_us": per_call_us("noise.qv_form"),
        "stepping.build_context_ms": total_ms("stepping.build_context"),
        "stepping.contexts_built": int(get("stepping.build_context", "calls")),
        "stepping.sigma_eval_us": per_call_us("stepping.sigma_eval"),
        "stepping.step_self_us": per_call_us("stepping.step"),
        "stepping.trajectory_self_us": (
            1e6 * get("stepping.run_trajectory", "self_s") / steps if steps else 0.0),
        "stepping.path_steps": steps,
        "diagnostics.detect_doubling_us": per_call_us("diagnostics.detect_doubling"),
        "diagnostics.probe_self_us": (
            1e6 * get("diagnostics.convolution_moment_probe", "self_s") / probe_steps
            if probe_steps else 0.0),
        "ensemble.summarize_us": per_call_us("ensemble.summarize"),
        "ensemble.aggregates_ms": total_ms("ensemble.compute_aggregates"),
        "ensemble.write_ms": total_ms("ensemble.write"),
        "ensemble.self_ms": total_ms("ensemble.run_ensemble"),
        "config.parse_ms": total_ms("config.parse_config"),
    }
