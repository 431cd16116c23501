"""Smoke self-test of the benchmark (not part of the tier-1 suite).

Runs every workload at a tiny size, untraced and traced, and checks that
the last stdout line has the result shape and that every metric named in
BENCHMARK.json is printed with its unit.  It also checks that the
benchmark refuses to run, without printing a result, when the package
sources are absent.  Takes about half a minute:

    python3 benches/smoke_test.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "benches/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def last_json(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result: dict, prefix: str, declared: list) -> list:
    errors = []
    for metric in declared:
        got = result["metrics"].get(prefix + metric["name"])
        if got is None:
            errors.append(f"{prefix}{metric['name']} not printed")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            errors.append(f"{prefix}{metric['name']} printed as {got}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    errors = []
    names = [w["name"] for w in bench["workloads"]]
    if names != list(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")

    for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        proc = run(["--scale", "smoke", "--seconds", "1", "--trace", str(trace)])
        if proc.returncode != 0:
            errors.append(f"--trace {trace} exited {proc.returncode}:\n{proc.stdout}"
                          f"{proc.stderr}")
            continue
        result = last_json(proc)
        if not result["correct"] or result["attempted"] < 1 or result["failed"]:
            errors.append(f"--trace {trace}: {result['correct']=} "
                          f"{result['attempted']=} {result['failed']=}")
        for name in names:
            errors += check_metrics(result, f"{name}.", declared)

    # the form the benchmark is driven in: one workload, a seed, a length
    proc = run(["--workload", names[-1], "--seed", "12", "--seconds", "1",
                "--trace", "0", "--scale", "smoke"])
    if proc.returncode != 0:
        errors.append(f"single workload run exited {proc.returncode}")
    else:
        errors += check_metrics(last_json(proc), "", bench["end_to_end"])

    # without the package the benchmark must fail and print no result
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "benches",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", names[0], "--seconds", "1"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for err in errors:
        print(f"FAIL: {err}")
    print("smoke test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
