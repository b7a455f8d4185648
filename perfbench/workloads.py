"""The three benchmark workloads: inputs from a seed, units, checks.

Each workload is a closed loop driven by one caller.  `batches()` yields
lists of units forever; the worker runs whole batches until its time is
up.  `run(unit)` is the only timed call and uses nothing but the public
sgphase API that the roadmap keeps; `check(unit, out)` returns None or the
reason the unit failed.  A workload object imports sgphase itself, so the
imports count towards set-up time, and it reaches every sgphase function
through its module at call time, so that the tracer's wrappers are seen.

sweep      one unit = validate -> PhasePipeline(cfg) -> breakdown() at T5
           for one config of the recorded pool (sweep_pool.csv), visited
           in a seeded permutation per pass.  Dominated by per-config
           construction: regime intervals, segments, window, and the
           nuclear crossing scan for the ~9% boosted draws.
scenarios  one unit = one CLI scenario run in process through
           sgphase.cli.main into a scratch --out directory; one batch is
           the seven scenarios in a seeded order.  Dominated by the scalar
           breakdown() per phase_curve sample and by CSV writing.
oracle     one unit = cli.main(["oracle-compare", ...]) plus delta_phi_ode
           on four configs, in a seeded order.  Dominated by the split-step
           grid and its FFTs; the ODE route is the only other user of
           scipy.integrate.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

POOL = Path(__file__).with_name("sweep_pool.csv")
EXPECTATIONS = Path("src/sgphase/data/baseline.expectations")

# bulk density of the reference sphere (m = 5.5e-15 kg, R = 1 um); the
# sweep scales the mass with R at this density, as the radius sweep does
RHO = 5.5e-15 / (4.0 / 3.0 * math.pi * 1e-18)

POOL_COLUMNS = ("radius_m", "beta_plus_sq", "T1_s", "B0_grad_T_per_m",
                "sqrtQ0_m", "nuclear", "delta_phi_rad", "max_sqrtQ_over_R")

SWEEP_REL_TOL = 1e-9
CURVE_REL_TOL = 1e-12
ODE_ABS_TOL = 1e-5          # acceptance criterion 9
ORACLE_PHI_REL_TOL = 1e-2   # acceptance criterion 10
ORACLE_Q_REL_TOL = 1e-4     # acceptance criterion 10


def _sgphase(name: str):
    return importlib.import_module(f"sgphase.{name}")


def pool_config(row: dict):
    """ExperimentConfig of one pool row (paper constants, B0 = 0,
    hold = 4 T1, mass at the reference density)."""
    p = _sgphase("params")
    R = float(row["radius_m"])
    T1 = float(row["T1_s"])
    return p.ExperimentConfig(
        constants=p.get_constants("paper"),
        sphere=p.SphereParams(mass=RHO * 4.0 / 3.0 * math.pi * R**3,
                              radius=R),
        weights=p.SpinWeights.from_plus(float(row["beta_plus_sq"])),
        protocol=p.Protocol.from_t1(
            T1, hold=4.0 * T1, B0=0.0,
            B0_grad=float(row["B0_grad_T_per_m"])),
        initial=p.InitialState.from_sqrt(float(row["sqrtQ0_m"])),
        nuclear_correction=row["nuclear"] == "1")


def read_pool(path: Path = POOL) -> tuple[dict, list[dict]]:
    """Header metadata ('# key=value' lines) and the rows of a pool file."""
    meta = {}
    lines = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            else:
                lines.append(line)
    rows = list(csv.DictReader(lines))
    if not rows or tuple(rows[0]) != POOL_COLUMNS:
        raise ValueError(f"{path}: expected columns {POOL_COLUMNS}")
    return meta, rows


def rel_err(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref != 0.0 else math.inf


@dataclass(frozen=True)
class Unit:
    tag: str            # unit kind, e.g. the scenario name
    index: int          # pool index (sweep) or position in the batch
    steps: tuple = ()   # oracle: the order of the pass's five steps


class Sweep:
    name = "sweep"
    kernel = "python"   # host speed probe (calibration.py)
    trace_units = 2000

    def __init__(self, seed: int, scratch: Path):
        self.params = _sgphase("params")
        self.phase = _sgphase("phase")
        _, rows = read_pool()
        self.configs = [pool_config(r) for r in rows]
        self.refs = [float(r["delta_phi_rad"]) for r in rows]
        self.tags = ["nuclear" if r["nuclear"] == "1" else "plain"
                     for r in rows]
        self.seed = seed

    def batches(self):
        rng = random.Random(self.seed)
        order = list(range(len(self.configs)))
        while True:
            rng.shuffle(order)
            for i in order:
                yield [Unit(self.tags[i], i)]

    def trace_batches(self):
        it = self.batches()
        return [next(it) for _ in range(self.trace_units)]

    def run(self, unit: Unit) -> float:
        cfg = self.configs[unit.index]
        report = self.params.validate(cfg)
        if not report.ok:
            raise ValueError("; ".join(str(v) for v in report.violations))
        return self.phase.PhasePipeline(cfg).breakdown().delta_phi

    def check(self, unit: Unit, out: float) -> str | None:
        if not math.isfinite(out):
            return f"non-finite delta_phi {out!r}"
        ref = self.refs[unit.index]
        err = rel_err(out, ref)
        if err > SWEEP_REL_TOL:
            return (f"pool row {unit.index}: delta_phi {out!r} differs from "
                    f"the reference {ref!r} by rel {err:.2e}")
        return None

    def layer_metrics(self, tr, units: list) -> dict:
        us = 1e6
        ri = tr.durations["gaussian.regime_intervals"]
        return {
            "params.validate_us": (_median(tr, "params.validate") * us, "us"),
            "phase.pipeline_build_us": (
                _median(tr, "phase.PhasePipeline.__init__") * us, "us"),
            "phase.breakdown_us": (
                _median(tr, "phase.PhasePipeline.breakdown") * us, "us"),
            "trajectories.separation_window_us": (
                _median(tr, "trajectories.separation_window") * us, "us"),
            "gaussian.regime_intervals_us": (
                _median(tr, "gaussian.regime_intervals") * us, "us"),
            "gaussian.regime_intervals_tail_us": (
                tail(sorted(ri))[0] * us if ri else 0.0, "us"),
            "gaussian.intervals_per_branch": (
                _ratio(tr.extra["gaussian.regime_intervals.intervals"],
                       tr.calls("gaussian.regime_intervals")), "count"),
        }


SCENARIOS = (
    # tag, CLI arguments before --out
    ("baseline", ["baseline", "--expectations", str(EXPECTATIONS)]),
    ("contributions", ["contributions"]),
    ("baseline-codata", ["baseline", "--constants", "codata"]),
    ("short-protocol", ["short-protocol"]),
    ("q0-sweep", ["q0-sweep"]),
    ("radius-sweep", ["radius-sweep"]),
    ("baseline-nuclear", ["baseline", "--config", "{nuclear_cfg}"]),
)

# nuclear boost active: the packet starts below the nucleon scale
NUCLEAR_CFG = "nuclear_correction = true\ninitial.sqrtQ0_m = 1e-13\n"


class Scenarios:
    name = "scenarios"
    kernel = "python"

    def __init__(self, seed: int, scratch: Path):
        self.cli = _sgphase("cli")
        self.seed = seed
        nuclear_cfg = scratch / "nuclear.cfg"
        nuclear_cfg.write_text(NUCLEAR_CFG)
        self.argv = {}
        self.out = {}
        for tag, args in SCENARIOS:
            self.out[tag] = scratch / tag
            self.argv[tag] = [a.format(nuclear_cfg=nuclear_cfg)
                              for a in args] + ["--out", str(self.out[tag])]

    def batches(self):
        rng = random.Random(self.seed)
        tags = [tag for tag, _ in SCENARIOS]
        while True:
            rng.shuffle(tags)
            yield [Unit(tag, i) for i, tag in enumerate(tags)]

    def trace_batches(self):
        return [next(self.batches())]

    def run(self, unit: Unit) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(self.argv[unit.tag])
        return rc, buf.getvalue()

    def check(self, unit: Unit, out: tuple[int, str]) -> str | None:
        rc, text = out
        if rc != 0:
            return f"{unit.tag}: exit code {rc}: {text.strip()[-300:]}"
        if "--expectations" in self.argv[unit.tag] and (
                "FAIL" in text or "PASS" not in text):
            return f"{unit.tag}: expectations not met: {text.strip()}"
        out_dir = self.out[unit.tag]
        summary = json.loads((out_dir / "summary.json").read_text())
        res = summary["results"]
        if unit.tag == "radius-sweep":
            return _check_radius_csv(out_dir / "radius_sweep.csv", res)
        if unit.tag == "q0-sweep":
            pairs = [(f"contributions_q0_{tag}.csv", r["delta_phi_T5_rad"])
                     for tag, r in res["per_sqrt_Q0"].items()]
        else:
            name = ("contributions.csv" if unit.tag == "contributions"
                    else "phase_curve.csv")
            pairs = [(name, res["delta_phi_T5_rad"])]
        for name, final in pairs:
            last = _last_csv_row(out_dir / name)
            err = rel_err(float(last["delta_phi_rad"]), final)
            if not math.isfinite(final) or err > CURVE_REL_TOL:
                return (f"{unit.tag}: last row of {name} "
                        f"({last['delta_phi_rad']}) differs from "
                        f"delta_phi_T5_rad {final!r} by rel {err:.2e}")
        return None

    def layer_metrics(self, tr, units: list) -> dict:
        n = len(units)
        out = {
            "phase.curve_sample_us": (
                _ratio(tr.total("phase.phase_curve"),
                       tr.extra["phase.phase_curve.samples"]) * 1e6, "us"),
            "trajectories.protocol_segments_calls_per_unit": (
                _ratio(tr.calls("trajectories.protocol_segments"), n),
                "count"),
            "gaussian.integral_calls_per_unit": (
                _ratio(tr.calls("gaussian.integral_q")
                       + tr.calls("gaussian.integral_inv_q"), n),
                "count"),
            "cli.csv_write_ms": (
                _median(tr, "phase.PhaseCurve.to_csv") * 1e3, "ms"),
        }
        # each unit makes one run_scenario call, in unit order
        runs = tr.durations["cli.run_scenario"]
        for unit, dur in zip(units, runs):
            out[f"cli.run_scenario_ms.{unit.tag}"] = (dur * 1e3, "ms")
        return out


class Oracle:
    name = "oracle"
    kernel = "numpy"

    def __init__(self, seed: int, scratch: Path):
        self.cli = _sgphase("cli")
        self.phase = _sgphase("phase")
        p = _sgphase("params")
        self.seed = seed
        self.out = scratch / "oracle-compare"
        self.configs = {
            "baseline": p.baseline_config(),
            "short-protocol": p.short_protocol_config(),
            "sqrtQ0-1e-13": p.baseline_config(sqrt_Q0=1e-13),
            "nuclear": p.baseline_config(sqrt_Q0=1e-13,
                                         nuclear_correction=True),
        }
        self._closed = None

    def batches(self):
        rng = random.Random(self.seed)
        steps = ["oracle-compare", *self.configs]
        while True:
            rng.shuffle(steps)
            yield [Unit("pass", 0, tuple(steps))]

    def trace_batches(self):
        return [next(self.batches())]

    def run(self, unit: Unit) -> dict:
        out = {}
        for step in unit.steps:
            if step == "oracle-compare":
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    out[step] = self.cli.main(
                        ["oracle-compare", "--out", str(self.out)])
            else:
                out[step] = self.phase.delta_phi_ode(
                    self.configs[step]).delta_phi
        return out

    def check(self, unit: Unit, out: dict) -> str | None:
        if out["oracle-compare"] != 0:
            return f"oracle-compare: exit code {out['oracle-compare']}"
        res = json.loads((self.out / "summary.json").read_text())["results"]
        if not (res["delta_phi_rel_error"] <= ORACLE_PHI_REL_TOL
                and res["max_Q_rel_error"] <= ORACLE_Q_REL_TOL):
            return (f"oracle-compare: delta_phi rel error "
                    f"{res['delta_phi_rel_error']:.3e}, max Q rel error "
                    f"{res['max_Q_rel_error']:.3e}")
        if self._closed is None:
            self._closed = {tag: self.phase.PhasePipeline(cfg).breakdown()
                            .delta_phi for tag, cfg in self.configs.items()}
        for tag, closed in self._closed.items():
            dev = abs(out[tag] - closed)
            if not dev < ODE_ABS_TOL:
                return (f"delta_phi_ode on {tag}: {out[tag]!r} deviates from "
                        f"the closed form {closed!r} by {dev:.2e} rad")
        return None

    def layer_metrics(self, tr, units: list) -> dict:
        steps = tr.extra["oracle.evolve_grid.steps"]
        grid = "oracle.evolve_grid"
        return {
            "oracle.evolve_grid_s": (tr.total(grid), "s"),
            "oracle.step_us": (_ratio(tr.total(grid), steps) * 1e6, "us"),
            "oracle.fft_calls_per_step": (
                _ratio(tr.nested_calls[grid, "fft.fft"]
                       + tr.nested_calls[grid, "fft.ifft"], steps), "count"),
            "oracle.extract_moments_calls_per_step": (
                _ratio(tr.nested_calls[grid, "oracle.extract_moments"],
                       steps), "count"),
            "potential.effective_omega_s_calls_per_step": (
                _ratio(tr.nested_calls[grid, "potential.effective_omega_s"],
                       steps), "count"),
            "phase.ode_ms": (_median(tr, "phase.delta_phi_ode") * 1e3, "ms"),
            "phase.ode_nfev": (
                _ratio(tr.extra["phase.solve_ivp.nfev"],
                       tr.calls("phase.delta_phi_ode")), "count"),
        }


WORKLOADS = {w.name: w for w in (Sweep, Scenarios, Oracle)}

# layers whose self time each workload's traced run reports
SELF_TIME_LAYERS = {
    "sweep": ("params", "trajectories", "potential", "gaussian", "phase"),
    "scenarios": ("params", "trajectories", "potential", "gaussian", "phase",
                  "cli"),
    "oracle": ("params", "trajectories", "potential", "gaussian", "phase",
               "oracle", "cli", "fft"),
}


def tail(sorted_values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    still has at least ten samples beyond it.  With ten or fewer samples
    there is no such percentile, and rather than a thinner tail this
    returns the median, marked by a percentile of 50."""
    n = len(sorted_values)
    k = n - 10
    if k < 1:
        return statistics.median(sorted_values), 50.0, n // 2
    return sorted_values[k - 1], 100.0 * k / n, n - k


def _median(tr, name: str) -> float:
    d = tr.durations.get(name)
    return statistics.median(d) if d else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _last_csv_row(path: Path) -> dict:
    with open(path) as f:
        header = f.readline().strip().split(",")
        last = None
        for line in f:
            last = line
    if last is None:
        raise ValueError(f"{path} has no data rows")
    return dict(zip(header, last.strip().split(",")))


def _check_radius_csv(path: Path, res: dict) -> str | None:
    if res["n_failed"] != 0:
        return f"radius-sweep: {res['n_failed']} points failed"
    with open(path) as f:
        rows = list(csv.DictReader(f))
    by_radius = res["delta_phi_rad"]
    if len(rows) != res["n_points"] or len(rows) != len(by_radius):
        return "radius-sweep: CSV and summary disagree on the point count"
    for row in rows:
        value = float(row["delta_phi_rad"])
        final = by_radius[f"{float(row['radius_m']):.3e}"]
        if not math.isfinite(value) or rel_err(value, final) > CURVE_REL_TOL:
            return (f"radius-sweep: CSV delta_phi {value!r} differs from the "
                    f"summary value {final!r}")
    return None
