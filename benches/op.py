"""One benchmark operation in a fresh process.

Usage (spawned by run.py): ``python3 benches/op.py '<json spec>'``.

An ensemble operation is what ``stochheat simulate`` does: parse the config,
``run_ensemble`` with outputs written to disk.  A probe operation is what
``stochheat probe-convolution`` does: parse, ``build_basis``,
``convolution_moment_probe``, write the report.

Set-up ends when the first ``build_context`` (ensemble) or ``make_sampler``
(probe) call returns, in this process or in a pool worker forked from it;
the first step follows.  Times are read from the monotonic clock, which is
shared by all processes, so run.py can measure from its spawn time.

Protocol on stdout: one ``TIMING {json}`` line when the operation has
ended, then, in traced runs, one ``TRACE {json}`` line.  The process then
reads ``check`` or ``done`` from stdin; on ``check`` it runs the output
checks and prints one ``CHECK {json}`` line.
"""

import json
import os
import resource
import struct
import sys
import time
from pathlib import Path

import tracing  # this directory is on sys.path as the script's own


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def mark_setup_end(package, attr: str, built: list):
    """Time the first return of ``attr`` in this process and its forks.

    Each process writes the monotonic time of its first ``attr`` return to a
    pipe inherited by forked pool workers; the returned function reads them
    once the operation is over and gives the earliest (None if no call
    returned).  What the calls in this process return is kept in ``built``,
    so that the output checks can reuse a context instead of building it.
    """
    read_fd, write_fd = os.pipe()
    owner = os.getpid()
    reported: set = set()  # copied on fork, so each process reports once

    def make_wrapper(original):
        def marked(*args, **kwargs):
            result = original(*args, **kwargs)
            pid = os.getpid()
            if pid not in reported:
                reported.add(pid)
                os.write(write_fd, struct.pack("d", time.monotonic()))
            if pid == owner:
                built.append(result)
            return result
        return marked

    tracing.replace_function(package, attr, make_wrapper)

    def earliest():
        # every write happened before the operation returned; pool workers
        # may still hold the write end, so read without waiting for EOF
        os.set_blocking(read_fd, False)
        data = b""
        while True:
            try:
                chunk = os.read(read_fd, 4096)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        os.close(read_fd)
        os.close(write_fd)
        reported.add(owner)  # later calls (the output checks) are not set-up
        return min(struct.unpack(f"{len(data) // 8}d", data), default=None)

    return earliest


def run_simulate(sh, spec):
    config = sh.parse_config(spec["config"], overrides=spec["overrides"])
    out_dir = Path(spec["out_dir"])
    result = sh.run_ensemble(config, out_dir=out_dir)
    t_end = time.monotonic()
    path_steps = sum(round(r.stop_time / config.dt) for r in result.rows)
    return t_end, config, {"path_steps": path_steps, "probe_steps": 0,
                           "attempted": config.paths, "failed": len(result.failures)}


def run_probe(sh, spec):
    args = spec["probe"]
    config = sh.parse_config(spec["config"], overrides=spec["overrides"])
    basis = sh.build_basis(config.domain)
    report = sh.convolution_moment_probe(
        basis, config.noise, p=args["p"], T_grid=args["T_grid"],
        paths=args["paths"], dt=args["dt"], seed=config.base_seed)
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": 1, "config_hash": sh.config_hash(config)}
    payload.update(report.to_dict())
    (out_dir / "probe.json").write_text(json.dumps(payload, indent=2) + "\n")
    t_end = time.monotonic()
    steps = round(max(args["T_grid"]) / args["dt"])
    return t_end, (config, report), {
        "path_steps": args["paths"] * steps, "probe_steps": steps,
        "attempted": args["paths"], "failed": 0}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import stochheat as sh

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install(sh)
    built: list = []
    simulate = spec["kind"] == "simulate"
    earliest = mark_setup_end(sh, "build_context" if simulate else "make_sampler", built)

    t_end, state, counts = (run_simulate if simulate else run_probe)(sh, spec)
    setup_end = earliest()
    if setup_end is None:
        raise RuntimeError("set-up boundary not observed: no build_context or "
                           "make_sampler call returned")
    emit("TIMING", dict(counts, setup_end=setup_end, end=t_end,
                        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))

    if tracer is not None:
        tracer.dump(Path(spec["out_dir"]) / "spans.npz", trace_id=spec["op_id"])
        emit("TRACE", tracing.layer_metrics(tracer.per_name(), counts["probe_steps"],
                                            counts["attempted"]))

    command = sys.stdin.readline().strip()
    if command == "check":
        import checks
        if simulate:
            ctx = built[0] if built else sh.build_context(state)
            errors = checks.check_ensemble(sh, state, ctx, Path(spec["out_dir"]))
        else:
            config, report = state
            errors = checks.check_probe(config, report, spec["probe"]["paths"],
                                        Path(spec["out_dir"]) / "probe.json")
        emit("CHECK", {"errors": errors})
    return 0


if __name__ == "__main__":
    sys.exit(main())
