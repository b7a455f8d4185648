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
"""

from __future__ import annotations

import math

from sgphase.params import (Branch, ConstantsSet, ExperimentConfig,
                            Protocol, SphereParams, omega_s)
from sgphase.phase import PhasePipeline
from sgphase.trajectories import branch_distance


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
    iv = ab._interval(t)
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
