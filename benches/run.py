"""Benchmark of stochheat: end-to-end metrics per workload, or a traced run.

Usage, from the repository root:

    python3 benches/run.py                                  # every workload
    python3 benches/run.py --workload riesz-3d --seed 7 --seconds 20
    python3 benches/run.py --workload white-1d --trace 1    # per-layer metrics

Each operation (one ensemble or one probe, see workloads.py) runs in a fresh
process (op.py), so set-up is paid as a user pays it.  A run repeats the
operation of its workload until ``--seconds`` are used, at least
``min_ops`` times, and reports medians over the operations:

  run_s             spawn of the process to outputs on disk
  setup_s           spawn to the end of the first build_context/make_sampler
  path_steps_per_s  path-steps / (run_s - setup_s)
  peak_rss_mb       peak summed resident memory of the process and its pool

After the last operation its outputs are checked (checks.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
With ``--trace 1`` the run instead makes one untraced and one traced
operation, both with one worker, and reports the per-layer metrics of the
traced one plus the tracing overhead between the two.

Exit codes: 0 when every check passed, 1 when a check or an operation
failed, 2 when the package or a config is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import PROBE, WORKLOADS, op_overrides, probe_args

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
OP_SCRIPT = BENCH_DIR / "op.py"

MB = 2.0**20
PAGE = os.sysconf("SC_PAGE_SIZE")
RSS_INTERVAL = 0.1  # s between memory samples of an operation's processes
RSS_RESCAN = 1.0  # s between scans of /proc for its pool workers

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    return "count"


# -- resident memory of a process tree ------------------------------------


def _children_map() -> dict:
    children: dict[int, list] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def _tree(root: int) -> list:
    children = _children_map()
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(children.get(pid, ()))
    return pids


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * PAGE
    except (OSError, IndexError, ValueError):
        return 0


class TreeRssSampler(threading.Thread):
    """Polls the summed RSS of a process and its descendants."""

    def __init__(self, root: int):
        super().__init__(daemon=True)
        self.root = root
        self.peak = 0
        self._halt = threading.Event()

    def run(self):
        pids, scanned = [self.root], -1.0
        while True:
            now = time.monotonic()
            if now - scanned >= RSS_RESCAN:
                pids, scanned = _tree(self.root), now
            self.peak = max(self.peak, sum(_rss_bytes(p) for p in pids))
            if self._halt.wait(RSS_INTERVAL):
                return

    def stop(self) -> int:
        self._halt.set()
        self.join()
        return self.peak


# -- one operation ----------------------------------------------------------


class OpError(RuntimeError):
    pass


class Operation:
    """One op.py process: wait for its timing, then check or release it."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(OP_SCRIPT), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.rss = TreeRssSampler(self.proc.pid)
        self.rss.start()

    def _expect(self, tag: str) -> dict:
        line = self.proc.stdout.readline()
        if not line.startswith(tag + " "):
            self.proc.kill()
            self.proc.wait()
            raise OpError(f"operation {self.spec['op_id']} ended without {tag} "
                          f"(exit code {self.proc.poll()})")
        return json.loads(line[len(tag) + 1:])

    def timing(self) -> dict:
        try:
            t = self._expect("TIMING")
        finally:
            tree_peak = self.rss.stop()
        return {
            "run_s": t["end"] - self.t_spawn,
            "setup_s": t["setup_end"] - self.t_spawn,
            "path_steps_per_s": t["path_steps"] / (t["end"] - t["setup_end"]),
            "peak_rss_mb": max(tree_peak, 1024 * t["maxrss_kb"]) / MB,
            "path_steps": t["path_steps"],
            "attempted": t["attempted"],
            "failed": t["failed"],
        }

    def trace(self) -> dict:
        return self._expect("TRACE")

    def finish(self, check: bool) -> list:
        """Run the output checks (or not) and wait for the process to end."""
        self.proc.stdin.write("check\n" if check else "done\n")
        self.proc.stdin.flush()
        errors = self._expect("CHECK")["errors"] if check else []
        self.proc.stdin.close()
        if self.proc.wait() != 0:
            raise OpError(f"operation {self.spec['op_id']} exited with "
                          f"{self.proc.returncode}")
        return errors


def op_spec(workload, seed, smoke: bool, op_id: str, *, trace=False, workers=None):
    out_dir = OUT / workload.name / op_id
    spec = {
        "op_id": f"{workload.name}/{op_id}",
        "kind": workload.kind,
        "src": str(SRC),
        "config": str(ROOT / workload.config),
        "overrides": op_overrides(workload, seed, smoke, workers),
        "out_dir": str(out_dir),
        "trace": trace,
    }
    if workload.kind == PROBE:
        spec["probe"] = probe_args(workload, smoke)
    return spec


def same_outputs(a: Path, b: Path, kind: str) -> bool:
    """Deterministic outputs of two operations are byte-identical."""
    if kind == PROBE:
        key = "moment_estimates"
        return (json.loads((a / "probe.json").read_text())[key]
                == json.loads((b / "probe.json").read_text())[key])
    return (a / "rows.csv").read_bytes() == (b / "rows.csv").read_bytes()


MACHINE_FACTS = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy, scipy, stochheat
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"cores": os.cpu_count(), "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def warm_up() -> dict:
    """Import the package once, untimed, so that its bytecode is compiled and
    the file cache is warm; return the machine facts the figures depend on."""
    proc = subprocess.run([sys.executable, "-c", MACHINE_FACTS, str(SRC)],
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


# -- runs ---------------------------------------------------------------------


def measured_run(workload, seed, seconds: float, smoke: bool) -> dict:
    ops, errors = [], []
    t_begin = time.monotonic()
    while True:
        op = Operation(op_spec(workload, seed, smoke, f"op{len(ops)}"))
        timing = op.timing()
        ops.append(timing)
        elapsed = time.monotonic() - t_begin
        last = len(ops) >= workload.min_ops and elapsed + timing["run_s"] > seconds
        errors += op.finish(check=last)
        print(f"  op{len(ops) - 1}: " + "  ".join(
            f"{k}={timing[k]:.4g}" for k in END_TO_END_UNITS), flush=True)
        if last:
            break
    first = OUT / workload.name / "op0"
    for k in range(1, len(ops)):
        if not same_outputs(first, OUT / workload.name / f"op{k}", workload.kind):
            errors.append(f"op{k} outputs differ from op0 for the same seed")
    metrics = {name: statistics.median(op[name] for op in ops)
               for name in END_TO_END_UNITS}
    return {
        "errors": errors,
        "attempted": sum(op["attempted"] for op in ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "ops": ops,
    }


def traced_run(workload, seed, smoke: bool) -> dict:
    plain = Operation(op_spec(workload, seed, smoke, "untraced", workers=1))
    plain_timing = plain.timing()
    errors = plain.finish(check=True)
    traced = Operation(op_spec(workload, seed, smoke, "traced", trace=True, workers=1))
    traced_timing = traced.timing()
    layers = traced.trace()
    errors += traced.finish(check=False)
    if not same_outputs(OUT / workload.name / "untraced",
                        OUT / workload.name / "traced", workload.kind):
        errors.append("traced outputs differ from untraced ones")
    layers["trace.overhead_pct"] = 100.0 * (
        traced_timing["run_s"] / plain_timing["run_s"] - 1.0)
    return {
        "errors": errors,
        "attempted": plain_timing["attempted"] + traced_timing["attempted"],
        "failed": plain_timing["failed"] + traced_timing["failed"],
        "metrics": {k: (v, per_layer_unit(k)) for k, v in layers.items()},
        "ops": [plain_timing, traced_timing],
    }


def run_workload(name: str, seed, seconds: float, trace: bool, smoke: bool,
                 machine: dict) -> dict:
    workload = WORKLOADS[name]
    shutil.rmtree(OUT / name, ignore_errors=True)
    (OUT / name).mkdir(parents=True)
    print(f"{name}: seed {'config default' if seed is None else seed}, "
          f"{'traced' if trace else 'measured'} run", flush=True)
    try:
        result = (traced_run(workload, seed, smoke) if trace
                  else measured_run(workload, seed, seconds, smoke))
    except OpError as exc:
        result = {"errors": [str(exc)], "attempted": 1, "failed": 1, "metrics": {}}
    record = dict(result, workload=name, seed=seed, trace=trace, machine=machine)
    (OUT / name / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    for err in result["errors"]:
        print(f"  CHECK FAILED: {err}", flush=True)
    return result


def as_json(result: dict) -> dict:
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (run.base_seed); default: the config's")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload for the self-test")
    args = parser.parse_args(argv)

    missing = [p for p in [SRC / "stochheat" / "__init__.py",
                           *(ROOT / w.config for w in WORKLOADS.values())]
               if not p.is_file()]
    if missing:
        print(f"benchmark needs the stochheat sources: missing {missing[0]}",
              file=sys.stderr)
        return 2
    machine = warm_up()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace),
                               args.scale == "smoke", machine) for n in names}
    for name, result in results.items():
        print(f"{name}: " + "  ".join(
            f"{k}={v:.6g} {u}" for k, (v, u) in result["metrics"].items()))
    if len(names) == 1:
        final = as_json(results[names[0]])
    else:
        final = {
            "correct": all(not r["errors"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": {"value": v, "unit": u}
                        for n, r in results.items() for k, (v, u) in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
