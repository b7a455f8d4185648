"""One workload in one fresh process: set up, run units, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace

run.py starts this from the root of the checkout with the thread
variables pinned and `src` on PYTHONPATH.  The worker prints `READY` as
soon as its imports and inputs are ready (run.py times that line), then,
except in setup mode, one JSON line with its results.

measure  closed loop: whole batches of units until --seconds have passed;
         reports the start and raw time of every unit, the failures and
         peak memory.
trace    the workload's fixed traced set of units, run once untraced and
         once with every layer wrapped; reports the per-layer metrics and
         the tracing overhead, and writes the span table under
         .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

RUNS_DIR = Path(".perfbench_runs")
MAX_REPORTED_ERRORS = 5


def run_unit(wl, unit, tracer=None) -> tuple[float, float, str | None]:
    """Time wl.run(unit), then check its output; (start, seconds, error or
    None), the start on the system-wide perf_counter clock."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = wl.run(unit)
        err = None
    except Exception as exc:  # noqa: BLE001 - a unit that raises has failed
        err = f"{unit.tag}: {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if err is None:
        try:
            err = wl.check(unit, out)
        except Exception as exc:  # noqa: BLE001 - unreadable output fails
            err = f"{unit.tag}: check raised {type(exc).__name__}: {exc}"
    return t0, dt, err


def measure(wl, seconds: float) -> dict:
    """Closed loop over whole batches for `seconds`; raw unit times."""
    starts: list[float] = []
    latencies: list[float] = []
    errors: list[str] = []
    tags: Counter = Counter()
    start = time.perf_counter()
    for batch in wl.batches():
        if time.perf_counter() - start >= seconds:
            break
        for unit in batch:
            t0, dt, err = run_unit(wl, unit)
            starts.append(t0)
            latencies.append(dt)
            tags[unit.tag] += 1
            if err is not None:
                errors.append(err)
    return {
        "failed": len(errors),
        "errors": errors[:MAX_REPORTED_ERRORS],
        "units_by_tag": dict(tags),
        "wall_s": time.perf_counter() - start,
        "starts": starts,
        "latencies": latencies,
    }


def trace(wl, seed: int) -> dict:
    import tracing

    units = [u for batch in wl.trace_batches() for u in batch]
    untraced = [run_unit(wl, u) for u in units]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = [run_unit(wl, u, tracer) for u in units]

    n = len(units)
    metrics = wl.layer_metrics(tracer, units)
    for layer in workloads.SELF_TIME_LAYERS[wl.name]:
        metrics[f"{layer}.self_ms_per_unit.{wl.name}"] = (
            tracer.layer_self_time(layer) / n * 1e3, "ms")
    wall_untraced = sum(dt for _, dt, _ in untraced)
    wall_traced = sum(dt for _, dt, _ in traced)
    metrics[f"trace.overhead_frac.{wl.name}"] = (
        wall_traced / wall_untraced - 1.0, "frac")
    tracer.dump(RUNS_DIR / f"trace-{wl.name}-seed{seed}.json")
    errors = [e for _, _, e in untraced + traced if e is not None]
    return {
        "units": 2 * n,
        "failed": len(errors),
        "errors": errors[:MAX_REPORTED_ERRORS],
        "units_by_tag": dict(Counter(u.tag for u in units)),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    args = ap.parse_args()

    scratch = RUNS_DIR / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            result = measure(wl, args.seconds)
        else:
            result = trace(wl, args.seed)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
