"""Benchmark of sgphase: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep|scenarios|oracle \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory holding `src/sgphase`).
Every workload runs in fresh worker processes (perfbench/worker.py) with
the BLAS/OpenMP thread variables pinned to 1; the seed only shapes the
inputs the worker generates.

--trace 0  end-to-end metrics of the named workload, measured untraced:
           setup_s       median over SETUP_SAMPLES fresh processes (half
                         started before the measuring worker, half after)
                         of the time from process start until the first
                         unit can begin: interpreter, imports and input
                         generation
           units_per_s   units completed per second of unit time
           unit_p50_ms   median unit latency
           unit_tail_ms  latency at the highest percentile with at least
                         ten samples beyond it; a run with ten or fewer
                         units has no such percentile and repeats the
                         median, as the environment record says
           peak_rss_mb   peak resident memory of the measuring process
           Times are scaled to the host's reference speed with the
           calibration kernel (calibration.py, HostSampler, host_scaled);
           the raw unit times are in the environment record.
--trace 1  per-layer metrics from the fixed traced set of every workload
           (the set of per-layer metrics spans all three, so this mode
           runs all three whatever --workload names; --seconds is unused),
           plus the time of a fresh `import sgphase.cli`.

Failed units (raised, non-zero exit, non-finite or wrong output) are
counted in `failed`; failed_frac = failed / attempted is printed in the
environment record, and any failure makes the command exit with 1.  The
last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from importlib import metadata
from pathlib import Path

import calibration
import workloads
from worker import RUNS_DIR

HERE = Path(__file__).resolve().parent
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170   # the whole command must end within 180 s
CAL_EVERY_S = 0.05
NEAR_SAMPLES = 4


class BenchError(RuntimeError):
    pass


def _on_alarm(signum, frame):
    raise BenchError(f"benchmark exceeded {DEADLINE_S} s")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
    return env


class HostSampler(threading.Thread):
    """Times a calibration kernel every CAL_EVERY_S until stopped; run.py
    is pinned to the worker's CPU, so a sample briefly takes the CPU from
    the worker and reads the host's speed at that moment."""

    def __init__(self, kernel: str):
        super().__init__(daemon=True)
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._halt = threading.Event()

    def _sample(self) -> None:
        self.samples.append((time.perf_counter(),
                             calibration.sample(self.kernel)))

    def run(self) -> None:
        self._sample()
        while not self._halt.wait(CAL_EVERY_S):
            self._sample()

    def stop(self) -> list[tuple[float, float]]:
        self._halt.set()
        self.join()
        self._sample()
        return self.samples


def host_scaled(starts, latencies, samples, ref: float) -> list[float]:
    """Times on the reference host: each time, less the kernel samples that
    overlapped it (they held its CPU), times the kernel's reference time
    `ref` over the median kernel time of the samples taken during it and
    the NEAR_SAMPLES before and after it."""
    times = [t for t, _ in samples]
    kernel = [c for _, c in samples]
    longest = max(kernel)
    out = []
    for start, dt in zip(starts, latencies):
        end = start + dt
        lo = bisect_left(times, start)
        hi = bisect_right(times, end)
        held = sum(max(0.0, min(end, t + c) - max(start, t))
                   for t, c in samples[bisect_left(times, start - longest):hi])
        near = kernel[max(lo - NEAR_SAMPLES, 0):hi + NEAR_SAMPLES]
        out.append((dt - held) * ref / statistics.median(near))
    return out


class Runner:
    """Starts the worker processes and makes sure none outlives a run."""

    def __init__(self):
        self.env = child_env()
        self.live: list[subprocess.Popen] = []

    def _start(self, cmd) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                text=True)
        self.live.append(proc)
        return proc

    def _finish(self, proc: subprocess.Popen, what: str) -> str:
        out, _ = proc.communicate()
        self.live.remove(proc)
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with code {proc.returncode}")
        return out

    def worker(self, workload: str, seed: int, seconds: float,
               mode: str) -> tuple[float, dict | None]:
        """(set-up seconds, worker result); the result is None in setup
        mode.  Outside trace mode the host sampler runs for the worker's
        whole life: the set-up time is host-scaled, and a measure result
        also holds the samples."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--mode", mode]
        kernel = workloads.WORKLOADS[workload].kernel
        sampler = HostSampler(kernel) if mode != "trace" else None
        if sampler is not None:
            sampler.start()
        try:
            t0 = time.perf_counter()
            proc = self._start(cmd)
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = self._finish(proc, f"{workload} worker ({mode})")
        finally:
            samples = sampler.stop() if sampler is not None else None
        if first.strip() != "READY":
            raise BenchError(f"{workload} worker did not get ready")
        if samples is not None:
            setup_s = host_scaled([t0], [setup_s], samples,
                                  calibration.REF_S[kernel])[0]
        if mode == "setup":
            return setup_s, None
        res = json.loads(out.strip().splitlines()[-1])
        if samples is not None:
            res["host_samples"] = samples
        return setup_s, res

    def import_time(self) -> float:
        code = ("import time; t = time.perf_counter(); import sgphase.cli; "
                "print(time.perf_counter() - t)")
        proc = self._start([sys.executable, "-c", code])
        return float(self._finish(proc, "import probe").strip())

    def stop_all(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args) -> dict:
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "versions": versions,
        "threads": {v: "1" for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(runner: Runner, args, env: dict) -> tuple[dict, int, int]:
    # set-up samples before and after the measuring worker, so that their
    # median does not hang on the host's state during one second
    def setup_only() -> float:
        return runner.worker(args.workload, args.seed, args.seconds,
                             "setup")[0]

    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    setup_s, res = runner.worker(args.workload, args.seed, args.seconds,
                                 "measure")
    setups.append(setup_s)
    setups += [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    env["setup_samples_s"] = setups

    raw = res["latencies"]
    ref = calibration.REF_S[workloads.WORKLOADS[args.workload].kernel]
    lat = sorted(host_scaled(res["starts"], raw, res["host_samples"], ref))
    n = len(lat)
    tail_value, tail_pct, beyond = workloads.tail(lat)
    scales = [ref / c for _, c in res["host_samples"]]
    env["units"] = {args.workload: n}
    env["units_by_tag"] = res["units_by_tag"]
    env["unit_tail"] = {"percentile": tail_pct, "samples_beyond": beyond,
                        "samples": n}
    env["wall_s"] = res["wall_s"]
    env["host_samples"] = len(scales)
    env["host_scale"] = {"min": min(scales),
                         "median": statistics.median(scales),
                         "max": max(scales)}
    env["raw"] = {"units_per_s": n / sum(raw),
                  "unit_p50_ms": statistics.median(raw) * 1e3,
                  "unit_tail_ms": workloads.tail(sorted(raw))[0] * 1e3}
    env["errors"] = res["errors"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (n / sum(lat), "1/s"),
        "unit_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "unit_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return metrics, n, res["failed"]


def per_layer(runner: Runner, args, env: dict) -> tuple[dict, int, int]:
    imports = [runner.import_time() for _ in range(IMPORT_SAMPLES)]
    metrics = {"cli.import_s": (statistics.median(imports), "s")}
    attempted = failed = 0
    env["units"], env["units_by_tag"], env["errors"] = {}, {}, []
    for workload in WORKLOADS:
        _, res = runner.worker(workload, args.seed, args.seconds, "trace")
        metrics.update({k: (m["value"], m["unit"])
                        for k, m in res["metrics"].items()})
        attempted += res["units"]
        failed += res["failed"]
        env["units"][workload] = res["units"]
        env["units_by_tag"][workload] = res["units_by_tag"]
        env["errors"] += res["errors"]
    env["import_samples_s"] = imports
    return metrics, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not Path("src/sgphase/__init__.py").is_file():
        print("error: run from the root of an sgphase checkout "
              "(src/sgphase not found)", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    env = environment(args)
    # the workers and the host sampler share one CPU (see HostSampler)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["pinned_cpu"] = cpu
    runner = Runner()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(runner, args, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        runner.stop_all()

    env["failed_frac"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = RUNS_DIR / (f"run-{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    record.write_text(json.dumps({"environment": env, "result": result},
                                 indent=1) + "\n")
    for err in env["errors"]:
        print(f"failed unit: {err}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
