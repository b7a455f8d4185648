"""Gaussian-ansatz evolution of the branch wavepackets.

Each branch stays Gaussian, psi = exp(-A z^2/2 + B z + C), because its
potential is at most quadratic in z.  The width coefficient A obeys a
Riccati equation i dA/dt = (hbar/m) A^2 - 2 V2/hbar whose solution under a
constant harmonic curvature V2 = (m/2)(nu omega_s)^2 ... nu^2 is known in
closed form; B and C follow by quadrature.  The closed form is evaluated
here in a cancellation-free rational-trigonometric arrangement that
degenerates smoothly to the free-packet law as omega_s -> 0.

The piecewise regime structure (packet overlap vs separation, optional
nuclear pulsation boost) is handled by chaining the closed form across
regime intervals with A continuous at every switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Branch, ExperimentConfig
from .params import omega_s as omega_s_of
from .potential import NUCLEON_SCALE, effective_omega_s
from .trajectories import separation_window


class IntegrationError(RuntimeError):
    """Adaptive ODE step failed (step-size underflow / stiffness)."""


# ---------------------------------------------------------------------------
# closed-form propagation of A

def propagate_a(A0: complex, nu: float, omega: float, mass: float,
                hbar: float, dt: float) -> complex:
    """Advance the width coefficient A by dt under constant curvature.

    For omega > 0 the Riccati solution is written as

        A(dt) = nk (A0 cos th + i nk sin th) / (nk cos th + i A0 sin th),
        nk = nu m omega / hbar,  th = nu omega dt,

    algebraically identical to the textbook (1 + c0 e^{-2 i th}) form but
    free of the 1 - c0 cancellation, so it remains accurate down to
    omega -> 0 where it reduces to the free law A0 / (1 + i hbar A0 dt/m).
    """
    if omega == 0.0 or nu == 0.0:
        return A0 / (1.0 + 1j * hbar * A0 * dt / mass)
    nk = nu * mass * omega / hbar
    th = nu * omega * dt
    c, s = math.cos(th), math.sin(th)
    return nk * (A0 * c + 1j * nk * s) / (nk * c + 1j * A0 * s)


def moments_from_a(A: complex, mass: float, hbar: float) -> tuple[float, float, float]:
    """(Q, P, sigma_zp) of the Gaussian with width coefficient A.

    Q = 1/(2 Re A), P = hbar^2 |A|^2 / (2 Re A), sigma = -hbar Im A/(2 Re A);
    Q P - sigma^2 = hbar^2/4 for any pure Gaussian.
    """
    re, im = A.real, A.imag
    if re <= 0.0:
        raise ValueError(f"non-normalizable Gaussian: Re A = {re} <= 0")
    Q = 0.5 / re
    P = 0.5 * hbar * hbar * (re * re + im * im) / re
    sigma = -hbar * im * Q
    return Q, P, sigma


def a_analytic(t: float, nu: float, config: ExperimentConfig) -> complex:
    """Closed-form A(t) for constant regime weight nu from the trap ground
    state A(0) = 1/(2 Q0) (real)."""
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    A0 = complex(0.5 / config.initial.Q0, 0.0)
    w = omega_s_of(config.sphere, config.constants)
    return propagate_a(A0, nu, w, config.sphere.mass, config.constants.hbar, t)


# ---------------------------------------------------------------------------
# closed-form spreads

def spread_Q(t: float, nu: float, config: ExperimentConfig) -> float:
    """Position variance Q(t) = Q0 cos^2(nu w t) + hbar^2 sin^2(nu w t) /
    (4 m^2 w^2 nu^2 Q0) for constant nu from the ground state (m^2)."""
    Q0 = config.initial.Q0
    m = config.sphere.mass
    hbar = config.constants.hbar
    w = omega_s_of(config.sphere, config.constants)
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
    w = omega_s_of(config.sphere, config.constants)
    P0 = hbar * hbar / (4.0 * Q0)
    if w == 0.0 or nu == 0.0:
        return P0
    th = nu * w * t
    c, s = math.cos(th), math.sin(th)
    return P0 * c * c + (m * w * nu) ** 2 * Q0 * s * s


def width_difference(t: float, config: ExperimentConfig) -> float:
    """Quadratic-order width split D(t) = sqrt(Q_-) - sqrt(Q_+)
    = (sqrt(Q0)/2)(1 - 2 |beta_-|^2)(omega_s t)^2 (m)."""
    w = omega_s_of(config.sphere, config.constants)
    wt = w * t
    return 0.5 * config.initial.sqrt_Q0 * (
        1.0 - 2.0 * config.weights.beta_minus_sq) * wt * wt


def width_difference_exact(t: float, config: ExperimentConfig) -> float:
    """Exact sqrt(Q_-) - sqrt(Q_+) from the closed-form spreads at the
    separated-regime weights (m)."""
    nu_p = config.weights.beta(Branch.PLUS)
    nu_m = config.weights.beta(Branch.MINUS)
    return math.sqrt(spread_Q(t, nu_m, config)) - math.sqrt(spread_Q(t, nu_p, config))


# ---------------------------------------------------------------------------
# segment integral kernels (feed the phase module)

def integral_inv_q(A0: complex, nu: float, omega: float, mass: float,
                   hbar: float, tau: float) -> float:
    """int_0^tau dt / Q(t) for the packet starting at width coefficient A0
    under constant curvature (s / m^2).

    With u = tan(nu omega t) the integrand is rational and the arctan
    antiderivative is continued through the tangent poles (one +pi per
    half-period) so the result is smooth in tau.
    """
    Q0, P0, s0 = moments_from_a(A0, mass, hbar)
    if omega == 0.0 or nu == 0.0:
        y1 = 2.0 * (P0 * tau / mass + s0) / hbar
        y0 = 2.0 * s0 / hbar
        return (2.0 * mass / hbar) * (math.atan(y1) - math.atan(y0))
    wt = nu * omega
    th = wt * tau
    y = 2.0 * P0 * math.tan(th) / (mass * wt * hbar) + 2.0 * s0 / hbar
    y0 = 2.0 * s0 / hbar
    n_poles = math.floor(th / math.pi + 0.5)
    return (2.0 * mass / hbar) * (math.atan(y) + math.pi * n_poles - math.atan(y0))


def integral_q(A0: complex, nu: float, omega: float, mass: float,
               hbar: float, tau: float) -> float:
    """int_0^tau Q(t) dt for the same packet (m^2 s)."""
    Q0, P0, s0 = moments_from_a(A0, mass, hbar)
    if omega == 0.0 or nu == 0.0:
        return Q0 * tau + s0 * tau * tau / mass + P0 * tau**3 / (3.0 * mass * mass)
    wt = nu * omega
    th = wt * tau
    s2, c2 = math.sin(2.0 * th), math.cos(2.0 * th)
    alpha = Q0
    beta = P0 / (mass * mass * wt * wt)
    gamma = s0 / (mass * wt)
    return (alpha * (0.5 * tau + s2 / (4.0 * wt))
            + beta * (0.5 * tau - s2 / (4.0 * wt))
            + gamma * (1.0 - c2) / (2.0 * wt))


# ---------------------------------------------------------------------------
# piecewise regime structure

@dataclass(frozen=True)
class RegimeInterval:
    """Maximal interval over which a branch sees constant (nu, omega)."""

    t_lo: float
    t_hi: float
    nu: float
    omega: float
    A_start: complex


def _nuclear_crossing(A0: complex, nu: float, omega: float, mass: float,
                      hbar: float, t_lo: float, t_hi: float) -> float | None:
    """First time in (t_lo, t_hi) where sqrt(Q) reaches the nucleon scale,
    found by coarse scan plus bisection on the closed-form Q."""
    target = NUCLEON_SCALE * NUCLEON_SCALE

    def q_at(t: float) -> float:
        return moments_from_a(
            propagate_a(A0, nu, omega, mass, hbar, t - t_lo), mass, hbar)[0]

    if q_at(t_lo) >= target:
        return None
    grid = np.linspace(t_lo, t_hi, 1025)
    above = [t for t in grid[1:] if q_at(t) >= target]
    if not above:
        return None
    hi = above[0]
    lo = max(t_lo, hi - (grid[1] - grid[0]))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if q_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def regime_intervals(config: ExperimentConfig,
                     branch: Branch) -> tuple[RegimeInterval, ...]:
    """Split [0, T5] into constant-(nu, omega) intervals for one branch and
    carry A across every switch (A is continuous; only its ODE changes)."""
    T5 = config.protocol.T5
    window = separation_window(config)
    if window is None:
        nu_bounds = [(0.0, T5, 1.0)]
    else:
        t_in, t_out = window
        nu = config.weights.beta(branch)
        nu_bounds = [(0.0, t_in, 1.0), (t_in, t_out, nu), (t_out, T5, 1.0)]

    m = config.sphere.mass
    hbar = config.constants.hbar
    base_w = omega_s_of(config.sphere, config.constants)
    A = complex(0.5 / config.initial.Q0, 0.0)
    out: list[RegimeInterval] = []
    for lo, hi, nu in nu_bounds:
        if hi <= lo:
            continue
        t = lo
        while t < hi:
            Q = moments_from_a(A, m, hbar)[0]
            w = effective_omega_s(Q, config.sphere, config.constants,
                                  config.nuclear_correction)
            t_next = hi
            if w != base_w:
                # boosted: revert once the packet outgrows the nucleon scale
                cross = _nuclear_crossing(A, nu, w, m, hbar, t, hi)
                if cross is not None:
                    t_next = cross
            out.append(RegimeInterval(t_lo=t, t_hi=t_next, nu=nu, omega=w,
                                      A_start=A))
            A = propagate_a(A, nu, w, m, hbar, t_next - t)
            t = t_next
    return tuple(out)


class AnalyticBranch:
    """Closed-form width evolution of one branch across all regimes."""

    def __init__(self, config: ExperimentConfig, branch: Branch):
        self.config = config
        self.branch = branch
        self.intervals = regime_intervals(config, branch)
        self._starts = [iv.t_lo for iv in self.intervals]

    def _interval(self, t: float) -> RegimeInterval:
        T5 = self.config.protocol.T5
        if t < 0.0 or t > T5:
            raise ValueError(f"t={t} outside [0, {T5}]")
        idx = 0
        for i, lo in enumerate(self._starts):
            if t >= lo:
                idx = i
        return self.intervals[idx]

    def a(self, t: float) -> complex:
        iv = self._interval(t)
        return propagate_a(iv.A_start, iv.nu, iv.omega, self.config.sphere.mass,
                           self.config.constants.hbar, t - iv.t_lo)

    def moments(self, t: float) -> tuple[float, float, float]:
        """(Q, P, sigma_zp) at time t."""
        return moments_from_a(self.a(t), self.config.sphere.mass,
                              self.config.constants.hbar)

    def q(self, t: float) -> float:
        return self.moments(t)[0]

    def p_var(self, t: float) -> float:
        return self.moments(t)[1]


@dataclass(frozen=True)
class SpreadCurve:
    """Sampled branch spreads plus the free-particle reference."""

    t: np.ndarray
    Q_plus: np.ndarray
    Q_minus: np.ndarray
    Q_free: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("t_s,Q_plus_m2,Q_minus_m2,Q_free_m2\n")
            for row in zip(self.t, self.Q_plus, self.Q_minus, self.Q_free):
                f.write(",".join(format(x, ".17e") for x in row) + "\n")


def spread_curve(config: ExperimentConfig,
                 t_grid: np.ndarray | None = None) -> SpreadCurve:
    if t_grid is None:
        t_grid = np.linspace(0.0, config.protocol.T5, 2000)
    plus = AnalyticBranch(config, Branch.PLUS)
    minus = AnalyticBranch(config, Branch.MINUS)
    Q0 = config.initial.Q0
    m = config.sphere.mass
    hbar = config.constants.hbar
    free = Q0 * (1.0 + (hbar * t_grid / (2.0 * m * Q0)) ** 2)
    return SpreadCurve(
        t=np.asarray(t_grid, dtype=float),
        Q_plus=np.array([plus.q(t) for t in t_grid]),
        Q_minus=np.array([minus.q(t) for t in t_grid]),
        Q_free=free,
    )
