"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time
from dataclasses import replace

import numpy as np

from sgphase.gaussian import AnalyticBranch, spread_Q
from sgphase.oracle import evolve_grid, scaled_config, scaled_grid_spec
from sgphase.params import (Branch, ConstantsSet, Protocol, SpinWeights,
                            baseline_config, omega_s, separation_time,
                            validate)
from sgphase.phase import (PhasePipeline, delta_phi_ode, fit_log_slope,
                           i2_difference_estimate, naive_estimate,
                           naive_estimate_two_term, radius_sweep)
from sgphase.potential import (quadratic_truncation_error, quadratic_v_eff,
                               v_eff, v_eff_derivative)
from sgphase.trajectories import (classical_phase, mean_state,
                                  plateau_distance)


def verdict(num: int, text: str, passed: bool) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if passed else 'FAIL'}] {text}")
    assert passed, f"criterion {num} failed: {text}"


def test_criterion_01_baseline_phase_shift():
    cfg = baseline_config()
    start = time.perf_counter()
    bd = PhasePipeline(cfg).breakdown()
    naive = naive_estimate(cfg)
    elapsed = time.perf_counter() - start
    ok = (abs(bd.delta_phi - (-15.33)) <= 0.03 * 15.33
          and abs(naive - (-15.59)) <= 0.02 * 15.59
          and elapsed < 1.0)
    cfg2 = baseline_config("codata")
    ratio2 = PhasePipeline(cfg2).delta_phi() / naive_estimate(cfg2)
    ok = ok and 0.95 <= abs(bd.delta_phi / naive) <= 1.01
    ok = ok and 0.95 <= abs(ratio2) <= 1.01
    verdict(1, f"delta_phi(T5)={bd.delta_phi:.4f} (target -15.33 +-3%), "
               f"naive={naive:.4f} (target -15.59 +-2%), "
               f"ratio paper/codata={bd.delta_phi/naive:.4f}/{ratio2:.4f}, "
               f"runtime {elapsed*1e3:.0f} ms", ok)


def test_criterion_02_separation_time():
    Ts = separation_time(baseline_config())
    ok = abs(Ts - 0.034) <= 0.03 * 0.034
    verdict(2, f"T_s={Ts:.6f} s (target 0.034 +-3%)", ok)


def test_criterion_03_omega_s():
    w = omega_s(baseline_config().sphere, baseline_config().constants)
    ok = 6.0e-4 <= w <= 6.2e-4
    verdict(3, f"omega_s={w:.4e} rad/s (target [6.0e-4, 6.2e-4])", ok)


def test_criterion_04_symmetry_null():
    cfg = replace(baseline_config(), weights=SpinWeights(0.5, 0.5))
    dp = PhasePipeline(cfg).delta_phi()
    ok = abs(dp) < 1e-10
    verdict(4, f"|delta_phi| = {abs(dp):.2e} rad at equal weights "
               f"(bound 1e-10)", ok)


def test_criterion_05_i2_at_small_spread():
    cfg = baseline_config(sqrt_Q0=1e-13)
    w_trap = cfg.omega_trap
    est = i2_difference_estimate(cfg)
    full = PhasePipeline(cfg).breakdown().i2_diff
    ok = (abs(w_trap - 1.82e6) <= 0.01 * 1.82e6
          and abs(est - 0.0704) <= 0.01 * 0.0704
          and abs(full - 0.07035) <= 0.01 * 0.07035)
    verdict(5, f"omega_trap={w_trap:.4e} (1.82e6 +-1%), "
               f"I2 estimate={est:.5f} (0.0704 +-1%), "
               f"full={full:.5f} (0.07035 +-1%)", ok)


def test_criterion_06_short_protocol():
    from sgphase.params import short_protocol_config
    cfg = short_protocol_config()
    est = naive_estimate_two_term(cfg)
    d = plateau_distance(cfg)
    contact = 2.0 * cfg.sphere.radius
    ok = -0.9 <= est <= -0.5 and abs(d / contact - 1.0) <= 0.2
    verdict(6, f"two-term estimate={est:.4f} rad (target [-0.9,-0.5]), "
               f"plateau d / 2R = {d/contact:.3f} (within 20%)", ok)


def test_criterion_07_classical_cancellation():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        k1 = int(rng.integers(64, 4096))
        kh = int(rng.integers(0, 8192))
        b0 = float(rng.uniform(0.0, 0.1))
        protocol = Protocol.from_t1(k1 * 2.0**-12, hold=kh * 2.0**-12, B0=b0)
        cfg = replace(baseline_config(), protocol=protocol)
        assert validate(cfg).ok
        diff = abs(classical_phase(Branch.PLUS, cfg)
                   - classical_phase(Branch.MINUS, cfg))
        worst = max(worst, diff)
    ok = worst < 1e-10
    verdict(7, f"max |S_cl,+ - S_cl,-|/hbar = {worst:.2e} rad over 20 "
               f"random protocols (bound 1e-10)", ok)


def test_criterion_08_trajectory_invariance():
    base = baseline_config()
    g_zero = replace(base, constants=ConstantsSet(
        name="g0", G=0.0, hbar=1.00e-34, mu_B=9.274e-24, g_factor=2.0))
    same = True
    for t in np.linspace(0.0, 2.0, 101):
        for b in Branch:
            a = mean_state(b, float(t), base)
            c = mean_state(b, float(t), g_zero)
            same = same and a.mean_z == c.mean_z and a.mean_p == c.mean_p
    verdict(8, "mean trajectories bitwise identical for G=0 vs G=6.674e-11",
            same)


def test_criterion_09_analytic_vs_ode():
    cfg = baseline_config()
    res = delta_phi_ode(cfg, rtol=1e-12, n_eval=101)
    branches = {Branch.PLUS: res.A_plus, Branch.MINUS: res.A_minus}
    worst_a = 0.0
    for b, a_ode in branches.items():
        ab = AnalyticBranch(cfg, b)
        for t, a_num in zip(res.t, a_ode):
            worst_a = max(worst_a, abs(ab.a(t) - a_num) / abs(a_num))
    bd = PhasePipeline(cfg).breakdown()
    dq_plus = abs(res.quantum_plus - bd.plus.quantum_integral)
    dq_minus = abs(res.quantum_minus - bd.minus.quantum_integral)
    d_phi = abs(res.delta_phi - bd.delta_phi)
    ok = worst_a < 1e-8 and dq_plus < 1e-5 and dq_minus < 1e-5 \
        and d_phi < 1e-5
    verdict(9, f"max |A_ode-A_closed|/|A| = {worst_a:.2e} (<1e-8); "
               f"quantum-phase deviations ({dq_plus:.2e}, {dq_minus:.2e}) "
               f"and delta_phi deviation {d_phi:.2e} rad (<1e-5)", ok)


def test_criterion_10_oracle_cross_check():
    cfg = scaled_config()
    w_t5 = omega_s(cfg.sphere, cfg.constants) * cfg.protocol.T5
    spec = scaled_grid_spec()  # N = 4096
    start = time.perf_counter()
    run = evolve_grid(cfg, spec)
    elapsed = time.perf_counter() - start
    closed = PhasePipeline(cfg).delta_phi()
    rel_phi = abs(run.delta_phi_final - closed) / abs(closed)
    worst_q = 0.0
    for b in Branch:
        ab = AnalyticBranch(cfg, b)
        q_ref = np.array([ab.q(t) for t in run.t])
        worst_q = max(worst_q, float(np.max(
            np.abs(run.q_history(b) - q_ref) / q_ref)))
    ok = (abs(w_t5 - 0.3) < 0.05 and spec.n == 4096
          and rel_phi <= 1e-2 and worst_q <= 1e-4 and elapsed < 120.0)
    verdict(10, f"scaled run (omega_s T5={w_t5:.2f}, N={spec.n}): "
                f"delta_phi rel err {rel_phi:.2e} (<=1e-2), "
                f"max Q rel err {worst_q:.2e} (<=1e-4), "
                f"runtime {elapsed:.1f} s (<120 s)", ok)


def test_criterion_11_potential_regularity():
    cfg = baseline_config()
    sphere, consts = cfg.sphere, cfg.constants
    R = sphere.radius
    v_in = v_eff(2.0 * R, sphere, consts)
    v_out = -consts.G * sphere.mass**2 / (2.0 * R)
    slope = consts.G * sphere.mass**2 / (4.0 * R * R)
    ok = (abs(v_in / v_out - 1.0) < 1e-12
          and abs(v_eff_derivative(2.0 * R, sphere, consts) / slope - 1.0)
          < 1e-12)
    scale = consts.G * sphere.mass**2 / R
    for x in np.linspace(0.0, 2.0, 41):
        d = float(x) * R
        direct = quadratic_v_eff(d, sphere, consts) - v_eff(d, sphere, consts)
        formula = quadratic_truncation_error(d, sphere, consts)
        ok = ok and abs(direct - formula) <= 1e-13 * scale
    verdict(11, "v_eff value and slope continuous at 2R to 1e-12; "
                "truncation-error formula exact on [0, 2R]", ok)


def test_criterion_12_free_spreading_limit():
    cfg = replace(scaled_config(), constants=ConstantsSet(
        name="free", G=0.0, hbar=1.0, mu_B=1.0, g_factor=2.0))
    from sgphase.oracle import GridSpec
    run = evolve_grid(cfg, GridSpec(n=2048, z_min=-32.0, z_max=32.0,
                                    dt=1e-3, snapshot_stride=100))
    Q0 = cfg.initial.Q0
    m = cfg.sphere.mass
    hbar = cfg.constants.hbar
    law = Q0 * (1.0 + (hbar * run.t / (2.0 * m * Q0)) ** 2)
    worst_grid = max(float(np.max(np.abs(run.q_history(b) - law) / law))
                     for b in Branch)
    worst_closed = max(abs(spread_Q(float(t), 1.0, cfg) - ref) / ref
                       for t, ref in zip(run.t, law))
    ok = worst_grid <= 1e-6 and worst_closed <= 1e-12
    verdict(12, f"G=0 spreading: grid vs law {worst_grid:.2e} (<=1e-6), "
                f"closed form vs law {worst_closed:.2e}", ok)


def test_criterion_13_radius_sweep_scaling():
    cfg = baseline_config()
    radii = np.geomspace(0.5e-6, 2e-6, 9)
    points = radius_sweep(cfg, radii)
    slope = fit_log_slope(points)
    mags = [abs(p.delta_phi) for p in points]
    ok = 4.75 <= slope <= 5.25 and mags == sorted(mags)
    verdict(13, f"log|delta_phi| vs log R slope = {slope:.3f} "
                f"(target [4.75, 5.25], monotone growth)", ok)
