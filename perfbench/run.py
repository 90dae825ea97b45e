"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload {paper,scale,spmd,serve} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from
``src/`` as it stands (no install).  ``--trace 0`` times the workload
untraced and prints the end-to-end metrics; ``--trace 1`` runs it half
untraced and half with spans around every public call, and prints the
per-layer metrics (plus a table of self times on the lines before).
The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A wrong output
makes ``correct`` false and the exit code 1.  See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: workload -> (module, class).
WORKLOADS = {
    "paper": ("paper", "Paper"),
    "scale": ("scale", "Scale"),
    "spmd": ("spmd", "Spmd"),
    "serve": ("serve", "Serve"),
}
#: Fresh processes that repeat the set-up, beside this process's own:
#: ``setup_s`` is the median of all of them.
SETUP_PROBES = {"paper": 4, "scale": 4, "spmd": 4, "serve": 2}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _probe(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _pin_one_cpu() -> None:
    """Run this process and its children (the server) on one CPU, so
    the calibration loop measures the CPU the work runs on, and rank or
    server threads share that CPU the same way in every run."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:  # a sandbox may forbid it: measure unpinned
        print(f"note: running unpinned ({exc})", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_one_cpu()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    module_name, class_name = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(module_name), class_name)
    from common import Ledger, calibrate, speed_factor

    import_s = time.perf_counter() - T_START
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer, instrument

        tracer = Tracer()
        tracer.active = False
    ledger = Ledger()
    work = workload_cls(args.seed, ledger, tracer)
    try:
        parts = work.setup()
        setup_wall = time.perf_counter() - T_START
        # Reference-machine seconds, like every other time reported.
        setup_s = setup_wall * speed_factor([calibrate() for _ in range(5)])
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is None:
            samples = [setup_s] + [_probe(args) for _ in range(SETUP_PROBES[args.workload])]
            work.run_window(args.seconds)
        else:
            work.ledger = baseline = Ledger()
            work.run_window(args.seconds / 2)
            work.ledger = ledger
            work.start_tracing()
            restore = instrument(tracer, layers.targets())
            tracer.active = True
            try:
                work.run_window(args.seconds / 2)
            finally:
                tracer.active = False
                restore()
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            work.finish()
        errors = list(ledger.errors)
        attempted, failed = ledger.attempted, ledger.failed
        if tracer is not None:
            errors += baseline.errors
            attempted += baseline.attempted
            failed += baseline.failed
            per_op = (ledger.busy_s / ledger.attempted) / (baseline.busy_s / baseline.attempted)
            extra = dict(work.layer_counters())
            extra["setup.import_s"] = import_s
            extra["setup.warm_s"] = sum(parts.values()) if parts else setup_wall - import_s
            extra["trace.overhead_pct"] = 100.0 * (per_op - 1.0)
            values, table = layers.compute(tracer, len(ledger.latencies_ms), extra)
            for line in table:
                print(line)
            units = dict(layers.PER_LAYER)
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        else:
            found = ledger.metrics()
            found.update(work.end_to_end())
            found["setup_s"] = (statistics.median(samples), "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in found.items()}
    finally:
        work.close()
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
