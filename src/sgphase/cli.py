"""Scenario runner: named experiments, CSV/JSON artifacts, expectation checks.

Outputs are deterministic for a fixed configuration: CSV bodies are
byte-identical across repeat runs (every CSV is written by
`phase.write_csv`, which sets the number format; no timestamps);
summaries additionally carry the wall time, which is the only
non-reproducible field.

`contributions` is an alias of `baseline`: the same computation and the
same results, with the phase curve (the accumulated delta_phi and its
per-term contributions) written as contributions.csv instead of
phase_curve.csv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .oracle import (GridEscapeError, PhaseUnwrapError, StepSizeError,
                     evolve_grid, scaled_config, scaled_grid_spec)
from .params import (ExperimentConfig, baseline_config,
                     config_to_mapping, get_constants, load_config,
                     separation_time, short_protocol_config, validate)
from .params import omega_s as omega_s_of
from .phase import (CURVE_TERMS, IntegrationError, PhasePipeline,
                    fit_log_slope, i2_difference_estimate, naive_estimate,
                    naive_estimate_two_term, phase_curve, radius_sweep,
                    write_csv)
from .trajectories import branch_distance

EXIT_OK = 0
EXIT_COMPARE_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# the PhaseBreakdown differences and BranchPhase terms a summary reports:
# the phase curve's terms plus the boundary term
_SUMMARY_TERMS = (*CURVE_TERMS[1:], "boundary_diff")
_BRANCH_TERMS = ("i1", "i2", "const_self", "newton_cross", "classical")


def build_id(config: ExperimentConfig) -> str:
    payload = json.dumps({"version": __version__,
                          "config": config_to_mapping(config)},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _summary_base(scenario: str, config: ExperimentConfig) -> dict:
    return {
        "scenario": scenario,
        "constants": config.constants.name,
        "build_id": build_id(config),
        "config": config_to_mapping(config),
        "derived": {
            "omega_s_rad_per_s": omega_s_of(config.sphere, config.constants),
            "separation_time_s": separation_time(config),
            "omega_trap_rad_per_s": config.omega_trap,
        },
        "results": {},
    }


def _phase_results(pipe: PhasePipeline, curve_path: Path) -> dict:
    """Write the phase curve of `pipe` to curve_path and return its
    results at T5."""
    phase_curve(pipe).to_csv(curve_path)
    bd = pipe.breakdown()
    out = {
        "delta_phi_T5_rad": bd.delta_phi,
        "naive_estimate_rad": naive_estimate(pipe.config),
        "terms": {k: getattr(bd, k) for k in _SUMMARY_TERMS},
        "branch_plus": {k: getattr(bd.plus, k) for k in _BRANCH_TERMS},
        "branch_minus": {k: getattr(bd.minus, k) for k in _BRANCH_TERMS},
    }
    if abs(out["naive_estimate_rad"]) > 0:
        out["ratio_delta_phi_to_naive"] = (out["delta_phi_T5_rad"]
                                           / out["naive_estimate_rad"])
    return out


def _run_baseline(config: ExperimentConfig, out: Path,
                  curve_csv: str = "phase_curve.csv") -> dict:
    return _phase_results(PhasePipeline(config), out / curve_csv)


def _run_q0_sweep(config: ExperimentConfig, out: Path) -> dict:
    sqrt_q0s = (1e-9, 1e-10, 1e-13)
    results = {}
    for s in sqrt_q0s:
        cfg = replace(config, initial=type(config.initial)(Q0=s * s))
        tag = f"{s:.0e}"
        res = _phase_results(PhasePipeline(cfg),
                             out / f"contributions_q0_{tag}.csv")
        res["i2_difference_estimate_rad"] = i2_difference_estimate(cfg)
        results[tag] = res
    return {"per_sqrt_Q0": results}


def _run_short_protocol(config: ExperimentConfig, out: Path) -> dict:
    pipe = PhasePipeline(config)
    res = _phase_results(pipe, out / "phase_curve.csv")
    res["two_term_estimate_rad"] = naive_estimate_two_term(config)
    # branch distance on the hold plateau [T2, T3]
    res["plateau_distance_m"] = branch_distance(config.protocol.T2,
                                                pipe.trajectory)
    res["contact_distance_m"] = 2.0 * config.sphere.radius
    res["plateau_to_contact_ratio"] = (res["plateau_distance_m"]
                                       / res["contact_distance_m"])
    return res


def _run_radius_sweep(config: ExperimentConfig, out: Path) -> dict:
    radii = [float(r) for r in np.geomspace(0.5e-6, 2e-6, 9)]
    points = radius_sweep(config, radii)
    write_csv(out / "radius_sweep.csv", "radius_m,mass_kg,delta_phi_rad,error",
              ((p.radius, p.mass, "" if p.delta_phi is None else p.delta_phi,
                p.error or "") for p in points))
    slope = fit_log_slope(points)
    return {
        "n_points": len(points),
        "n_failed": sum(1 for p in points if p.error),
        "log_slope": slope,
        "delta_phi_rad": {f"{p.radius:.3e}": p.delta_phi for p in points},
    }


def _run_oracle_compare(config: ExperimentConfig, out: Path) -> dict:
    spec = scaled_grid_spec()
    pipe = PhasePipeline(config)
    closed = pipe.breakdown().delta_phi
    run = evolve_grid(config, spec)
    # (n, 2) histories, columns plus and minus as in run.moments
    q_closed = np.array([[ab.q(t) for ab in pipe.branches.values()]
                         for t in run.t])
    q_grid = run.moments.Q
    write_csv(out / "oracle_compare.csv",
              "t_s,Q_plus_grid,Q_plus_closed,Q_minus_grid,Q_minus_closed,"
              "delta_phi_grid",
              ((t, qg[0], qc[0], qg[1], qc[1], dphi) for t, qg, qc, dphi
               in zip(run.t, q_grid, q_closed, run.delta_phi)))
    q_rel = float(np.max(np.abs(q_grid - q_closed) / q_closed))
    return {
        "scaled_constants": config.constants.name,
        "omega_s_T5": (omega_s_of(config.sphere, config.constants)
                       * config.protocol.T5),
        "grid_points": spec.n,
        "delta_phi_closed_rad": closed,
        "delta_phi_grid_rad": run.delta_phi_final,
        "delta_phi_rel_error": abs(run.delta_phi_final - closed) / abs(closed),
        "max_Q_rel_error": q_rel,
        "norm_drift": run.max_norm_drift,
        "n_steps": run.n_steps,
    }


_RUNNERS = {
    "baseline": _run_baseline,
    "contributions": partial(_run_baseline, curve_csv="contributions.csv"),
    "q0-sweep": _run_q0_sweep,
    "short-protocol": _run_short_protocol,
    "radius-sweep": _run_radius_sweep,
    "oracle-compare": _run_oracle_compare,
}
SCENARIOS = tuple(_RUNNERS)


def _require_finite(node, path: str = "results") -> None:
    """Raise FloatingPointError at the first non-finite float in a result
    tree (None marks a failed sweep point and is allowed)."""
    if isinstance(node, dict):
        for key, value in node.items():
            _require_finite(value, f"{path}.{key}")
    elif isinstance(node, float) and not math.isfinite(node):
        raise FloatingPointError(f"non-finite result {path} = {node!r}")


def run_scenario(name: str, config: ExperimentConfig,
                 out_dir: str | Path) -> dict:
    """Execute one scenario, write its artifacts and summary.json.

    A non-finite result raises FloatingPointError before the summary is
    written."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = _summary_base(name, config)
    start = time.perf_counter()
    summary["results"] = _RUNNERS[name](config, out)
    _require_finite(summary["results"])
    summary["wall_time_s"] = time.perf_counter() - start
    with open(out / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


# ---------------------------------------------------------------------------
# expectations

def _lookup(summary: dict, dotted: str):
    node = summary
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(f"quantity {dotted!r} not present in summary")
        node = node[part]
    return node


def compare(summary: dict, expectations_path: str | Path) -> tuple[bool, list[str]]:
    """Check summary values against an expectations file.

    Each line: quantity,target,tolerance,tag with tolerance rel:X or abs:X.
    Returns (all_passed, report_lines); an empty file passes with a warning.
    """
    lines: list[str] = []
    ok = True
    rules = []
    for lineno, raw in enumerate(
            Path(expectations_path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ValueError(
                f"{expectations_path}:{lineno}: expected "
                f"'quantity,target,tolerance,tag', got {raw!r}")
        quantity, target_s, tol_s, tag = parts
        try:
            target = float(target_s)
        except ValueError:
            raise ValueError(f"{expectations_path}:{lineno}: bad target "
                             f"{target_s!r}") from None
        kind, _, tol_v = tol_s.partition(":")
        if kind not in ("rel", "abs") or not tol_v:
            raise ValueError(f"{expectations_path}:{lineno}: tolerance must "
                             f"be rel:X or abs:X, got {tol_s!r}")
        rules.append((quantity, target, kind, float(tol_v), tag))

    if not rules:
        return True, ["WARNING: expectations file contains no rules; "
                      "trivially passing"]
    for quantity, target, kind, tol, tag in rules:
        try:
            value = float(_lookup(summary, quantity))
        except KeyError as exc:
            ok = False
            lines.append(f"FAIL {quantity}: {exc} [{tag}]")
            continue
        err = abs(value - target)
        bound = tol * abs(target) if kind == "rel" else tol
        passed = err <= bound and math.isfinite(value)
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {quantity}: "
                     f"value={value:.10g} target={target:.10g} "
                     f"|err|={err:.3e} bound={bound:.3e} [{tag}]")
    return ok, lines


# ---------------------------------------------------------------------------
# entry point

def _build_config(args) -> ExperimentConfig:
    if args.scenario == "short-protocol":
        cfg = short_protocol_config(args.constants)
    elif args.scenario == "oracle-compare":
        cfg = scaled_config()  # fixed desk-scale setup; takes no --config
    else:
        cfg = baseline_config(args.constants)
    if args.config is not None:
        if args.scenario == "oracle-compare":
            raise ValueError("oracle-compare runs the fixed scaled "
                             "configuration and takes no --config")
        cfg = load_config(args.config, base=cfg)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgphase",
        description="Self-gravity phase shift in a Stern-Gerlach "
                    "interferometer: scenario runner")
    parser.add_argument("scenario", choices=SCENARIOS,
                        help="contributions is an alias of baseline that "
                             "writes its phase curve as contributions.csv")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value configuration file")
    parser.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: ./out)")
    parser.add_argument("--constants", choices=("paper", "codata"),
                        default="paper")
    parser.add_argument("--expectations", metavar="PATH",
                        help="compare the summary against this file")
    args = parser.parse_args(argv)

    try:
        get_constants(args.constants)
        config = _build_config(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    report = validate(config)
    if not report.ok:
        print("error: configuration invalid:", file=sys.stderr)
        for v in report.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        summary = run_scenario(args.scenario, config, args.out)
    except (GridEscapeError, StepSizeError, PhaseUnwrapError,
            IntegrationError, ArithmeticError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    dp = summary["results"].get("delta_phi_T5_rad")
    if dp is not None:
        print(f"{args.scenario}: delta_phi(T5) = {dp:.6f} rad "
              f"[constants={summary['constants']}]")
    else:
        print(f"{args.scenario}: done [constants={summary['constants']}]")

    if args.expectations:
        try:
            ok, lines = compare(summary, args.expectations)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        for line in lines:
            print(line)
        if not ok:
            return EXIT_COMPARE_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
