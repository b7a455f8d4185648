"""Closed-form mean trajectories of the two spin branches.

The packet means obey the classical equations of motion under the
Stern-Gerlach force alone: self-gravity exerts no net force on its own
packet (V1 + 2 V2 <z> = 0), so <z>+-, <p>+- depend only on the sphere
mass, the magnetic protocol and the gradient sign schedule lambda(t).

The plus branch accelerates toward +z during the first interval; the
minus branch mirrors it exactly, <z>_-(t) = -<z>_+(t).

`protocol_segments` builds a config's `Trajectory` once; the means, the
branch distance and the separation window are all read off that one
value.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .params import Branch, ExperimentConfig

# gradient sign on the five protocol intervals [0,T1], ..., [T4,T5]
LAMBDAS = (1, -1, 0, -1, 1)


@dataclass(frozen=True)
class Segment:
    """One constant-lambda interval with plus-branch start values.

    Within the segment (local time tau = t - t_lo):
        p(tau) = p0 + lam * F * tau
        z(tau) = z0 + p0 tau / m + lam * F * tau^2 / (2 m)
    where F = g mu_B B0' / 2 is the gradient force on the plus branch.
    """

    t_lo: float
    t_hi: float
    lam: int
    z0: float
    p0: float


@dataclass(frozen=True)
class Trajectory:
    """The plus-branch segments of one config and the constants that
    evaluate them: sphere mass m (kg), gradient force F = (g mu_B/2) B0'
    (N), uniform-field energy E0 = (g mu_B/2) B0 (J) and radius R (m)."""

    segments: tuple[Segment, ...]
    m: float
    F: float
    E0: float
    R: float


def protocol_segments(config: ExperimentConfig) -> Trajectory:
    """The config's trajectory: plus-branch segments with start values
    accumulated across intervals."""
    p = config.protocol
    c = config.constants
    half_g_mu = 0.5 * c.g_factor * c.mu_B
    F = half_g_mu * p.B0_grad
    m = config.sphere.mass
    bounds = (0.0,) + p.times
    segs: list[Segment] = []
    z, mom = 0.0, 0.0
    for lam, lo, hi in zip(LAMBDAS, bounds[:-1], bounds[1:]):
        segs.append(Segment(t_lo=lo, t_hi=hi, lam=lam, z0=z, p0=mom))
        tau = hi - lo
        z = z + mom * tau / m + lam * F * tau * tau / (2.0 * m)
        mom = mom + lam * F * tau
    return Trajectory(segments=tuple(segs), m=m, F=F, E0=half_g_mu * p.B0,
                      R=config.sphere.radius)


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


def branch_distance(t: float, traj: Trajectory) -> float:
    """Inter-branch distance d(t) = |<z>_+ - <z>_-| = 2 |<z>_+| (m)."""
    return 2.0 * abs(mean_state(Branch.PLUS, t, traj)[0])


def plateau_distance(config: ExperimentConfig) -> float:
    """Branch distance on the hold plateau [T2, T3] (m)."""
    return branch_distance(config.protocol.T2, protocol_segments(config))


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of a x^2 + b x + c = 0, ascending; numerically stable form."""
    if a == 0.0:
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    if b == 0.0:
        r = sq / (2.0 * a)
        return tuple(sorted({-r, r}))
    q = -0.5 * (b + math.copysign(sq, b))
    r1, r2 = q / a, c / q
    return (min(r1, r2), max(r1, r2))


def separation_window(traj: Trajectory) -> tuple[float, float] | None:
    """First and last time the branch distance exceeds 2R, or None.

    The boundary d = 2R itself counts as overlap; between the returned
    times the packets are treated as separated (nu < 1 regimes).
    """
    hits: list[float] = []
    for seg in traj.segments:
        # z(tau) = R  with z quadratic in local time
        span = seg.t_hi - seg.t_lo
        eps = 1e-12 * span
        for tau in _quadratic_roots(seg.lam * traj.F / (2.0 * traj.m),
                                    seg.p0 / traj.m, seg.z0 - traj.R):
            if -eps <= tau <= span + eps:
                hits.append(seg.t_lo + min(max(tau, 0.0), span))
    if not hits:
        return None
    t_enter, t_exit = min(hits), max(hits)
    if t_exit <= t_enter:
        return None  # tangency: never strictly beyond 2R
    return (t_enter, t_exit)


def action_parts(traj: Trajectory,
                 t: float | None = None) -> tuple[float, float]:
    """The two parts of the classical action up to t (default T5), from
    one walk over the segments: the branch-symmetric kinetic and gradient
    part (J s) and int lambda dt (s).

    The action of a branch mean is S = int [ <p>^2/(2m) - V_ext(<z>) ] dt
    with the magnetic potential V_ext,+- = +-lambda (g mu_B/2)(B0 - B0'
    <z>+-), so S+- = common -+ E0 int lambda dt.  Both parts are exact
    segment-wise polynomial integrals; no quadrature.  The branch
    difference reduces to the single product B0 * int lambda dt, which
    vanishes at T5 for every protocol obeying the recombination constraint,
    so the uniform-field phase cancels at the end.
    """
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
