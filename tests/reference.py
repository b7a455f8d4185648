"""Reference formulas of the paper (arXiv:2006.07420) that only the tests
use, written out directly rather than through the closed-form pipeline.

- `spread_Q`, `spread_P`: the spreading law of a Gaussian packet that
  starts in the trap ground state (variance Q0, no position-momentum
  correlation) under the harmonic self-gravity potential
  (m/2)(nu omega_s)^2 z^2 of one branch,

      Q(t) = Q0 cos^2(nu w t) + hbar^2 sin^2(nu w t) / (4 m^2 w^2 nu^2 Q0),
      P(t) = P0 cos^2(nu w t) + (m w nu)^2 Q0 sin^2(nu w t),
      P0 = hbar^2 / (4 Q0),

  with the free law Q(t) = Q0 (1 + (hbar t / 2 m Q0)^2) and P = P0 when
  nu omega_s = 0.
- `v_eff_derivative`: the slope of the sphere-sphere self-energy, the
  derivative of the overlap polynomial
  (G m^2/R)(-6/5 + x^2/2 - (3/16) x^3 + (1/160) x^5), x = d/R, for
  d <= 2R and of the Newton potential -G m^2/d beyond.
- `quadratic_v_eff`: the paper's second-order truncation
  (G m^2/R)(-6/5 + (d/R)^2/2) of that energy for narrow packets, whose
  curvature gives the pulsation omega_s = sqrt(G m / R^3).
- `lambda_of_t`: the gradient sign schedule of the protocol, written as
  an if-ladder over the protocol times rather than read off the
  trajectory's segments.
- `f_quantum`: the phase-rate integrand of one branch,

      F_Q = hbar^2/(4 m Q) + (m omega_s^2/2) Q nu^2
            - (6/5) G m^2/R nu^2 - (1 - nu^2) G m^2 / d,

  kinetic spread, harmonic self-term, constant self-energy and the Newton
  attraction toward the other packet; the branch phase carries
  -int F_Q dt / hbar.
- `mean_state`, `action_parts`, `interval_sums`, `separated_inv_d` and
  `breakdown`: the phase terms as walks over the trajectory segments and
  the regime intervals from t = 0, each summing piece by piece left to
  right. The pipeline reads the same sums from its prefix table, and
  test_phase.py checks that every `PhaseBreakdown` field it returns is
  bitwise this `breakdown`.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from sgphase.gaussian import integral_inv_q, integral_q
from sgphase.params import (Branch, ConstantsSet, ExperimentConfig,
                            Protocol, SphereParams, omega_s)
from sgphase.phase import (BranchPhase, PhaseBreakdown, PhasePipeline,
                           _inv_quadratic_integral)
from sgphase.trajectories import Trajectory, branch_distance


def spread_Q(t: float, nu: float, config: ExperimentConfig) -> float:
    """Position variance Q(t) of the packet at constant nu (m^2)."""
    Q0 = config.initial.Q0
    m = config.sphere.mass
    hbar = config.constants.hbar
    w = omega_s(config.sphere, config.constants)
    if w == 0.0 or nu == 0.0:
        return Q0 * (1.0 + (hbar * t / (2.0 * m * Q0)) ** 2)
    th = nu * w * t
    c, s = math.cos(th), math.sin(th)
    return Q0 * c * c + (hbar * s) ** 2 / (4.0 * m * m * w * w * nu * nu * Q0)


def spread_P(t: float, nu: float, config: ExperimentConfig) -> float:
    """Momentum variance of the same packet ((kg m/s)^2)."""
    Q0 = config.initial.Q0
    m = config.sphere.mass
    hbar = config.constants.hbar
    w = omega_s(config.sphere, config.constants)
    P0 = hbar * hbar / (4.0 * Q0)
    if w == 0.0 or nu == 0.0:
        return P0
    th = nu * w * t
    c, s = math.cos(th), math.sin(th)
    return P0 * c * c + (m * w * nu) ** 2 * Q0 * s * s


def v_eff_derivative(d: float, sphere: SphereParams,
                     constants: ConstantsSet) -> float:
    """dV/dd of the self-energy (J/m), analytic on both branches."""
    if d < 0.0:
        raise ValueError(f"displacement must be >= 0, got {d}")
    m, R = sphere.mass, sphere.radius
    if d <= 2.0 * R:
        x = d / R
        return (constants.G * m * m / R**2) * (x - 9.0 / 16.0 * x**2
                                               + 1.0 / 32.0 * x**4)
    return constants.G * m * m / d**2


def quadratic_v_eff(d: float, sphere: SphereParams,
                    constants: ConstantsSet) -> float:
    """Two-term truncation (G m^2/R)(-6/5 + (d/R)^2 / 2), valid for d << R."""
    if d < 0.0:
        raise ValueError(f"displacement must be >= 0, got {d}")
    m, R = sphere.mass, sphere.radius
    x = d / R
    return (constants.G * m * m / R) * (-6.0 / 5.0 + 0.5 * x**2)


def lambda_of_t(t: float, protocol: Protocol) -> int:
    """Gradient sign schedule.

    +1 on [0,T1] and [T4,T5], 0 on [T2,T3], -1 on (T1,T2) and (T3,T4).
    Boundary values are fixed as lambda(T1)=+1, lambda(T2)=lambda(T3)=0,
    lambda(T4)=-1; the choice is observationally irrelevant (measure zero)
    but pinned for reproducibility.
    """
    T1, T2, T3, T4, T5 = protocol.times
    if t < 0.0 or t > T5:
        raise ValueError(f"t={t} outside protocol range [0, {T5}]")
    if t <= T1:
        return 1
    if t < T2:
        return -1
    if t <= T3:
        return 0
    if t <= T4:
        return -1
    return 1


def f_quantum(pipe: PhasePipeline, branch: Branch, t: float) -> float:
    """F_Q of one branch at time t (J), with Q(t), nu and omega from the
    pipeline's regime intervals and d(t) from its trajectory."""
    ab = pipe.branches[branch]
    iv = ab.interval(t)
    Q = ab.q(t)
    m = pipe.config.sphere.mass
    c = pipe.config.constants
    val = (c.hbar**2 / (4.0 * m * Q)
           + 0.5 * m * iv.omega**2 * Q * iv.nu**2
           - 1.2 * c.G * m * m / pipe.config.sphere.radius * iv.nu**2)
    if iv.nu < 1.0 and c.G != 0.0:
        val -= ((1.0 - iv.nu**2) * c.G * m * m
                / branch_distance(t, pipe.trajectory))
    return val


def mean_state(branch: Branch, t: float,
               traj: Trajectory) -> tuple[float, float]:
    """Closed-form (<z> (m), <p> (kg m/s)) of a branch at time t."""
    segments = traj.segments
    T5 = segments[-1].t_hi
    if t < 0.0 or t > T5:
        raise ValueError(f"t={t} outside protocol range [0, {T5}]")
    starts = [s.t_lo for s in segments]
    s = segments[max(bisect_right(starts, t) - 1, 0)]
    m, F = traj.m, traj.F
    tau = t - s.t_lo
    z = s.z0 + s.p0 * tau / m + s.lam * F * tau * tau / (2.0 * m)
    p = s.p0 + s.lam * F * tau
    return branch.sign * z, branch.sign * p


def action_parts(traj: Trajectory,
                 t: float | None = None) -> tuple[float, float]:
    """The two parts of the classical action up to t (default T5), from
    one walk over the segments: the branch-symmetric kinetic and gradient
    part (J s) and int lambda dt (s)."""
    T5 = traj.segments[-1].t_hi
    if t is None:
        t = T5
    if t < 0.0 or t > T5:
        raise ValueError(f"t={t} outside protocol range [0, {T5}]")
    m, F = traj.m, traj.F
    common = 0.0
    lam_time = 0.0
    for seg in traj.segments:
        if t <= seg.t_lo:
            break
        tau = min(t, seg.t_hi) - seg.t_lo
        lam, z0, p0 = float(seg.lam), seg.z0, seg.p0
        # kinetic: int (p0 + lam F u)^2 / 2m du
        kin = (p0 * p0 * tau + p0 * lam * F * tau**2
               + (lam * F) ** 2 * tau**3 / 3.0) / (2.0 * m)
        # gradient part of -V_ext is branch-independent: +lam F <z>_+
        zint = z0 * tau + p0 * tau**2 / (2.0 * m) + lam * F * tau**3 / (6.0 * m)
        common += kin + lam * F * zint
        lam_time += lam * tau
    return common, lam_time


def interval_sums(pipe: PhasePipeline, branch: Branch,
                  t: float) -> tuple[float, float, float]:
    """(i1, i2, const_self) of one branch up to t, from one walk over
    its regime intervals."""
    m, hbar = pipe._mass, pipe._hbar
    i1 = i2 = const = 0.0
    for iv in pipe.branches[branch].intervals:
        if t <= iv.t_lo:
            break
        # a whole interval adds its integrals over its full length
        tau = (iv.t_hi if t >= iv.t_hi else t) - iv.t_lo
        inv_q = integral_inv_q(iv.A_start, iv.nu, iv.omega, m, hbar, tau)
        q = integral_q(iv.A_start, iv.nu, iv.omega, m, hbar, tau)
        i1 += inv_q
        i2 += 0.5 * m * iv.omega**2 * iv.nu**2 / hbar * q
        const += iv.nu**2 * (min(t, iv.t_hi) - iv.t_lo)
    return (0.25 * hbar / m * i1, i2, -pipe._const_rate * const)


def separated_inv_d(pipe: PhasePipeline, t: float) -> float | None:
    """int dt / d over the separated part of [0, t] (s/m), with d from
    the piecewise quadratic trajectory; shared by both branches'
    Newton terms, None when there is no Newton term."""
    if pipe.window is None or pipe._newton_scale == 0.0:
        return None
    w0, w1 = pipe.window
    t_hi = min(t, w1)
    if t_hi <= w0:
        return None
    m = pipe._mass
    F = pipe.trajectory.F
    total = 0.0
    for seg in pipe.trajectory.segments:
        lo = max(w0, seg.t_lo)
        hi = min(t_hi, seg.t_hi)
        if hi <= lo:
            continue
        # d(tau) = 2 z0 + (2 p0/m) tau + (lam F/m) tau^2, tau local
        c0 = 2.0 * seg.z0
        c1 = 2.0 * seg.p0 / m
        c2 = seg.lam * F / m
        total += _inv_quadratic_integral(c0, c1, c2,
                                         lo - seg.t_lo, hi - seg.t_lo)
    return total


def breakdown(pipe: PhasePipeline, t: float | None = None) -> PhaseBreakdown:
    """Per-branch terms and their differences at t (default T5), each
    term summed by a walk from t = 0."""
    if t is None:
        t = pipe.config.protocol.T5
    z, p = mean_state(Branch.PLUS, t, pipe.trajectory)
    boundary_zp = -z * p / pipe._hbar
    z_sq = z**2
    inv_d = separated_inv_d(pipe, t)
    common, lam_time = action_parts(pipe.trajectory, t)
    im_a = {}
    phases = {}
    for b in Branch:
        im_a[b] = pipe.branches[b].a(t).imag
        i1, i2, const_self = interval_sums(pipe, b, t)
        nu = pipe.config.weights.beta(b)
        action = common - b.sign * pipe.trajectory.E0 * lam_time
        phases[b] = BranchPhase(
            boundary_zp=boundary_zp,
            boundary_width=-0.5 * z_sq * im_a[b],
            classical=action / pipe._hbar,
            i1=i1,
            i2=i2,
            const_self=const_self,
            newton_cross=(0.0 if inv_d is None else
                          -pipe._newton_scale * (1.0 - nu * nu) * inv_d),
        )
    plus, minus = phases[Branch.PLUS], phases[Branch.MINUS]
    boundary_diff = -0.5 * z_sq * (im_a[Branch.PLUS] - im_a[Branch.MINUS])
    c = pipe.config.constants
    classical_diff = -(c.g_factor * c.mu_B * pipe.config.protocol.B0
                       / c.hbar) * lam_time
    i1_diff = -(plus.i1 - minus.i1)
    i2_diff = -(plus.i2 - minus.i2)
    const_diff = -(plus.const_self - minus.const_self)
    newton_diff = -(plus.newton_cross - minus.newton_cross)
    delta_phi = (boundary_diff + classical_diff + i1_diff + i2_diff
                 + const_diff + newton_diff)
    return PhaseBreakdown(
        t=t, plus=plus, minus=minus, delta_phi=delta_phi,
        i1_diff=i1_diff, i2_diff=i2_diff, const_self_diff=const_diff,
        newton_diff=newton_diff, classical_diff=classical_diff,
        boundary_diff=boundary_diff)
