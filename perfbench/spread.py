"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads sweep scenarios oracle]
        [--seeds 1 2 3 ...] [--seconds S] [--trace 0|1] [--out FILE]

Runs the command of BENCHMARK.json once per workload and seed, one run
at a time, from the root of the checkout.  For every metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, and for end-to-end metrics the bound and whether the
spread stays below a third of it.  With --out the values and their
summary are written as JSON.  Exits with 1 if a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("nan"),
            "values": values}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"seconds": args.seconds, "trace": args.trace,
                    "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            env = json.loads(lines[-2].removeprefix("env "))
            report.setdefault("environment", {
                k: env[k] for k in ("cpu_model", "nproc", "versions",
                                    "threads")})
            ok = ok and result["correct"]
            units[seed] = {"attempted": result["attempted"],
                           "failed": result["failed"],
                           "elapsed_s": elapsed,
                           "unit_tail": env.get("unit_tail")}
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, "
                  f"{result['attempted']} units, {result['failed']} failed",
                  flush=True)
        summary = {name: summarize(v) for name, v in values.items()
                   if len(v) >= 2}
        report["workloads"][workload] = {"runs": units, "metrics": summary}
        for name, s in summary.items():
            line = (f"  {workload:9s} {name:48s} median {s['median']:<12.6g} "
                    f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                    f"spread {s['spread']:.4f}")
            if name in bounds:
                wide = s["spread"] >= bounds[name] / 3
                line += f"  bound {bounds[name]}{'  WIDE' if wide else ''}"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
