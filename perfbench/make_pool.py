"""Draw the sweep workload's config pool and record its reference phases.

    PYTHONPATH=src python3 perfbench/make_pool.py

Writes perfbench/sweep_pool.csv: POOL_SIZE configs drawn near the CLI
scenarios from a fixed master seed, each with delta_phi(T5) from
PhasePipeline(cfg).breakdown() and the largest packet width over the
protocol, max sqrt(Q)/R.  The table is recorded once; the benchmark
checks every sweep unit against it, so rerun this only on purpose and
only at a commit whose delta_phi values are trusted.

Draws (inputs rounded to 6 significant digits so the table holds them
exactly): R log-uniform in 0.5-2 um at the reference density,
|beta_+|^2 uniform in 0.1-0.45, T1 log-uniform in 0.025-0.25 s with hold
4 T1, B0' log-uniform in 0.5e6-2e6 T/m, sqrt(Q0) log-uniform in
1e-13-1e-9 m; NUCLEAR_SHARE of the draws set nuclear_correction with
sqrt(Q0) below the 1e-12 m nucleon scale, so the boost and its crossing
scan run.  A draw is kept only if validate() accepts it, the packets
separate with a plateau distance at least TANGENCY_MARGIN beyond contact
2R (so no reference sits on the tangency jump of delta_phi), and no
packet grows wider than in the paper's own sqrt(Q0) = 1e-13 m case,
the widest the model's quadratic overlap is trusted for.
"""

from __future__ import annotations

import math
import random

import numpy as np

import workloads

MASTER_SEED = 200607420
SOURCE_COMMIT = "d2f3a30"   # the sgphase source the references come from
POOL_SIZE = 4096
NUCLEAR_SHARE = 0.1
TANGENCY_MARGIN = 0.01


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw(rng: random.Random) -> dict:
    nuclear = rng.random() < NUCLEAR_SHARE
    return {
        "radius_m": _sig6(_loguniform(rng, 0.5e-6, 2e-6)),
        "beta_plus_sq": _sig6(rng.uniform(0.1, 0.45)),
        "T1_s": _sig6(_loguniform(rng, 0.025, 0.25)),
        "B0_grad_T_per_m": _sig6(_loguniform(rng, 0.5e6, 2e6)),
        "sqrtQ0_m": _sig6(_loguniform(rng, 1e-13,
                                      1e-12 if nuclear else 1e-9)),
        "nuclear": "1" if nuclear else "0",
    }


def max_sqrt_q_over_r(cfg) -> float:
    """Largest sqrt(Q)/R of either branch over [0, T5], from the closed-form
    regime intervals sampled at 4097 points each."""
    from sgphase.gaussian import moments_from_a
    from sgphase.params import Branch
    from sgphase.phase import PhasePipeline

    pipe = PhasePipeline(cfg)
    m, hbar = cfg.sphere.mass, cfg.constants.hbar
    widest = 0.0
    for b in Branch:
        for iv in pipe.branches[b].intervals:
            q0, p0, s0 = moments_from_a(iv.A_start, m, hbar)
            tau = np.linspace(0.0, iv.t_hi - iv.t_lo, 4097)
            w = iv.nu * iv.omega
            if w == 0.0:
                q = q0 + 2.0 * s0 * tau / m + p0 * tau**2 / m**2
            else:
                th = w * tau
                q = (q0 * np.cos(th) ** 2 + p0 / (m * w) ** 2 * np.sin(th) ** 2
                     + s0 / (m * w) * np.sin(2.0 * th))
            widest = max(widest, math.sqrt(float(q.max())))
    return widest / cfg.sphere.radius


def main() -> None:
    from sgphase.params import baseline_config, validate
    from sgphase.phase import PhasePipeline
    from sgphase.trajectories import plateau_distance

    bound = max_sqrt_q_over_r(baseline_config(sqrt_Q0=1e-13))
    rng = random.Random(MASTER_SEED)
    rows: list[dict] = []
    rejected = {"validate": 0, "tangency": 0, "width": 0}
    draws = 0
    while len(rows) < POOL_SIZE:
        row = draw(rng)
        draws += 1
        cfg = workloads.pool_config(row)
        if not validate(cfg).ok:
            rejected["validate"] += 1
            continue
        contact = 2.0 * cfg.sphere.radius
        if plateau_distance(cfg) < (1.0 + TANGENCY_MARGIN) * contact:
            rejected["tangency"] += 1
            continue
        ratio = max_sqrt_q_over_r(cfg)
        if ratio > bound:
            rejected["width"] += 1
            continue
        dphi = PhasePipeline(cfg).breakdown().delta_phi
        if not math.isfinite(dphi):
            raise SystemExit(f"non-finite delta_phi for draw {row}")
        rows.append({**row, "delta_phi_rad": repr(float(dphi)),
                     "max_sqrtQ_over_R": f"{ratio:.6g}"})

    path = workloads.POOL
    widest = max(float(r["max_sqrtQ_over_R"]) for r in rows)
    with open(path, "w") as f:
        f.write(f"# master_seed={MASTER_SEED}\n")
        f.write(f"# source_commit={SOURCE_COMMIT}\n")
        f.write(f"# draws={draws}\n")
        for why, count in rejected.items():
            f.write(f"# rejected_{why}={count}\n")
        f.write(f"# nuclear_rows={sum(r['nuclear'] == '1' for r in rows)}\n")
        f.write(f"# width_bound_sqrtQ_over_R={bound:.6g}\n")
        f.write(f"# max_sqrtQ_over_R={widest:.6g}\n")
        f.write(",".join(workloads.POOL_COLUMNS) + "\n")
        for r in rows:
            f.write(",".join(str(r[c]) if not isinstance(r[c], float)
                             else f"{r[c]:.6g}"
                             for c in workloads.POOL_COLUMNS) + "\n")
    print(f"wrote {len(rows)} rows to {path} from {draws} draws "
          f"({rejected}); max sqrt(Q)/R = {widest:.4g} (bound {bound:.4g})")


if __name__ == "__main__":
    main()
