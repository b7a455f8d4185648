"""Gaussian-ansatz evolution of the branch wavepackets.

Each branch stays Gaussian, psi = exp(-A z^2/2 + B z + C), because its
potential is at most quadratic in z.  The width coefficient A obeys a
Riccati equation i dA/dt = (hbar/m) A^2 - 2 V2/hbar whose solution under a
constant harmonic curvature V2 = (m/2)(nu omega)^2 is known in closed
form; B and C follow by quadrature.  The closed form is evaluated here in
a cancellation-free rational-trigonometric arrangement that degenerates
smoothly to the free-packet law as nu omega -> 0.

The piecewise regime structure (packet overlap vs separation, optional
nuclear pulsation boost) is handled by chaining the closed form across
regime intervals with A continuous at every switch.  The separation
window comes in as an argument (`trajectories.separation_window` of the
config's trajectory), so this module needs nothing from the means.

The nuclear boost holds while sqrt(Q) is below the nucleon scale and ends
at the first root of Q = T = NUCLEON_SCALE^2.  Within an interval Q is a
quadratic form in (cos th, sin th), so that root is the smaller-angle
root of a quadratic in u = tan th (`_nuclear_crossing`), solved without
cancellation.  The boosted interval ends at a time t with Q(t) >= T as
`propagate_a` evaluates it, so the interval that starts there is never
boosted.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .params import Branch, ExperimentConfig
from .params import omega_s as omega_s_of
from .potential import NUCLEON_SCALE, effective_omega_s
from .trajectories import _quadratic_roots


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
    """Maximal interval over which a branch sees constant (nu, omega),
    with int dt/Q (s/m^2) and int Q dt (m^2 s) over the whole of it."""

    t_lo: float
    t_hi: float
    nu: float
    omega: float
    A_start: complex
    inv_q_integral: float
    q_integral: float


def _nuclear_crossing(A0: complex, nu: float, omega: float, mass: float,
                      hbar: float, t_lo: float, t_hi: float) -> float | None:
    """First time in (t_lo, t_hi) where sqrt(Q) reaches the nucleon scale,
    or None if Q stays below T = NUCLEON_SCALE^2 until t_hi.

    With th = nu omega (t - t_lo) the variance of the packet is
    Q = alpha cos^2 th + beta sin^2 th + gamma sin 2th (the coefficients
    of `integral_q`), so Q = T is the quadratic

        (beta - T) u^2 + 2 gamma u + (alpha - T) = 0,   u = tan th,

    whose roots map to th = atan(u) mod pi (plus th = pi/2 when
    beta = T); the smallest is the first crossing.  The free packet
    (nu omega = 0) solves the quadratic in t - t_lo directly.

    Invariant: the returned t satisfies Q(t) >= T as `propagate_a`
    evaluates it, so the interval that starts at t is never boosted.  The
    root is exact to an ulp or two, but that Q carries a few ulps of
    rounding, and its slope at the root vanishes as Q0 -> T, so clearing
    the rounding can take thousands of ulps of t.  A shortfall is made up
    in steps that double from one ulp, which take a few evaluations
    either way.
    """
    target = NUCLEON_SCALE * NUCLEON_SCALE
    Q0, P0, s0 = moments_from_a(A0, mass, hbar)
    if Q0 >= target:
        return None
    wt = nu * omega
    if wt == 0.0:
        taus = [tau for tau in _quadratic_roots(P0 / (mass * mass),
                                                2.0 * s0 / mass, Q0 - target)
                if tau > 0.0]
    else:
        lead = P0 / (mass * wt) ** 2 - target
        taus = [(math.atan(u) % math.pi) / wt for u in
                _quadratic_roots(lead, 2.0 * s0 / (mass * wt), Q0 - target)]
        if lead == 0.0:
            taus.append(0.5 * math.pi / wt)
    if not taus:
        return None
    t, step = t_lo + min(taus), 0.0
    while t < t_hi:
        if moments_from_a(propagate_a(A0, nu, omega, mass, hbar, t - t_lo),
                          mass, hbar)[0] >= target:
            return t
        step = 2.0 * step if step else math.ulp(t)
        t += step
    return None


def regime_intervals(config: ExperimentConfig, branch: Branch,
                     window: tuple[float, float] | None
                     ) -> tuple[RegimeInterval, ...]:
    """Split [0, T5] into constant-(nu, omega) intervals for one branch and
    carry A across every switch (A is continuous; only its ODE changes).
    `window` is the config's separation window (None: never separated)."""
    T5 = config.protocol.T5
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
            tau = t_next - t
            out.append(RegimeInterval(
                t_lo=t, t_hi=t_next, nu=nu, omega=w, A_start=A,
                inv_q_integral=integral_inv_q(A, nu, w, m, hbar, tau),
                q_integral=integral_q(A, nu, w, m, hbar, tau)))
            A = propagate_a(A, nu, w, m, hbar, tau)
            t = t_next
    return tuple(out)


class AnalyticBranch:
    """Closed-form width evolution of one branch across all regimes;
    `window` as for `regime_intervals`."""

    def __init__(self, config: ExperimentConfig, branch: Branch,
                 window: tuple[float, float] | None):
        self.config = config
        self.intervals = regime_intervals(config, branch, window)
        self._starts = [iv.t_lo for iv in self.intervals]

    def interval(self, t: float) -> RegimeInterval:
        """The regime interval that holds t: the last one starting at or
        before t.  Raises ValueError outside [0, T5]."""
        T5 = self.config.protocol.T5
        if t < 0.0 or t > T5:
            raise ValueError(f"t={t} outside [0, {T5}]")
        return self.intervals[bisect_right(self._starts, t) - 1]

    def a(self, t: float) -> complex:
        iv = self.interval(t)
        return propagate_a(iv.A_start, iv.nu, iv.omega, self.config.sphere.mass,
                           self.config.constants.hbar, t - iv.t_lo)

    def q(self, t: float) -> float:
        """Position variance Q(t) (m^2)."""
        return moments_from_a(self.a(t), self.config.sphere.mass,
                              self.config.constants.hbar)[0]
