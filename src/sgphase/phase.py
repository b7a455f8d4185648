"""Spin-relative phase shift and its decomposition.

The phase of each branch is Im C(t).  After the boundary terms (which
vanish at recombination) and the classical action (identical for both
branches up to the uniform-field term, which integrates to zero) are
split off, the branch phase reduces to minus the time integral of

    F_Q = hbar^2/(4 m Q) + (m omega_s^2/2) Q nu^2
          - (6/5) G m^2/R nu^2 - (1 - nu^2) G m^2 / d,

i.e. kinetic spread, harmonic self-term, constant self-energy and the
Newton attraction toward the other packet.  Every term is integrated in
closed form segment by segment; the adaptive ODE route is kept only as a
cross-check of the analytic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .gaussian import AnalyticBranch, integral_inv_q, integral_q
from .params import (Branch, ExperimentConfig, SphereParams, omega_s,
                     require_valid, separation_time)
from .trajectories import (action_parts, branch_distance, mean_state,
                           protocol_segments, separation_window)


@dataclass(frozen=True)
class BranchPhase:
    """Itemized contributions to Im C of one branch (rad).

    total = boundary_zp + boundary_width + classical
            - (i1 + i2 + const_self + newton_cross)
    with i1, i2, const_self, newton_cross carrying the signs they have
    inside F_Q (the last two are negative).
    """

    boundary_zp: float
    boundary_width: float
    classical: float
    i1: float
    i2: float
    const_self: float
    newton_cross: float


@dataclass(frozen=True)
class PhaseBreakdown:
    """Per-branch phase terms and their well-conditioned differences.

    The per-branch totals are dominated by the classical action (~1e12 rad
    at the physical baseline), so delta_phi is assembled from the per-term
    differences, never from the difference of the two totals.  Differences
    use the contribution-to-delta_phi sign convention.
    """

    t: float
    plus: BranchPhase
    minus: BranchPhase
    delta_phi: float
    i1_diff: float
    i2_diff: float
    const_self_diff: float
    newton_diff: float
    classical_diff: float
    boundary_diff: float


def _inv_quadratic_integral(c0: float, c1: float, c2: float,
                            ta: float, tb: float) -> float:
    """int_{ta}^{tb} du / (c0 + c1 u + c2 u^2), no poles inside [ta, tb].

    Closed-form log/atan antiderivatives; a nearly double root (as in the
    pure-quadratic flight segments) falls back to the exact double-root
    form to avoid cancellation.
    """
    if tb <= ta:
        return 0.0
    if c2 == 0.0:
        if c1 == 0.0:
            return (tb - ta) / c0
        return (math.log(abs(c1 * tb + c0)) - math.log(abs(c1 * ta + c0))) / c1
    disc = c1 * c1 - 4.0 * c2 * c0
    scale = max(c1 * c1, abs(4.0 * c2 * c0))
    if abs(disc) <= 1e-12 * scale:
        return -2.0 / (2.0 * c2 * tb + c1) + 2.0 / (2.0 * c2 * ta + c1)
    if disc > 0.0:
        sq = math.sqrt(disc)

        def F(u: float) -> float:
            num = 2.0 * c2 * u + c1 - sq
            den = 2.0 * c2 * u + c1 + sq
            return math.log(abs(num / den)) / sq

        return F(tb) - F(ta)
    sq = math.sqrt(-disc)
    return 2.0 / sq * (math.atan((2.0 * c2 * tb + c1) / sq)
                       - math.atan((2.0 * c2 * ta + c1) / sq))


class PhasePipeline:
    """Closed-form phase evaluation of one config.

    The trajectory, the separation window and each branch's regime
    intervals are built once here; every later evaluation only reads them.
    """

    def __init__(self, config: ExperimentConfig):
        require_valid(config)
        self.config = config
        self.trajectory = protocol_segments(config)
        self.window = separation_window(self.trajectory)
        self.branches = {b: AnalyticBranch(config, b, self.window)
                         for b in Branch}
        c = config.constants
        s = config.sphere
        self._const_rate = 1.2 * c.G * s.mass**2 / (c.hbar * s.radius)
        self._newton_scale = c.G * s.mass**2 / c.hbar
        self._mass = s.mass
        self._hbar = c.hbar

    # -- quantum integral pieces -------------------------------------------

    def _interval_sums(self, branch: Branch,
                       t: float) -> tuple[float, float, float]:
        """(i1, i2, const_self) of one branch up to t, from one walk over
        its regime intervals; a whole interval adds its stored integrals."""
        m, hbar = self._mass, self._hbar
        i1 = i2 = const = 0.0
        for iv in self.branches[branch].intervals:
            if t <= iv.t_lo:
                break
            if t >= iv.t_hi:
                inv_q, q = iv.inv_q_integral, iv.q_integral
            else:
                tau = t - iv.t_lo
                inv_q = integral_inv_q(iv.A_start, iv.nu, iv.omega, m, hbar,
                                       tau)
                q = integral_q(iv.A_start, iv.nu, iv.omega, m, hbar, tau)
            i1 += inv_q
            i2 += 0.5 * m * iv.omega**2 * iv.nu**2 / hbar * q
            const += iv.nu**2 * (min(t, iv.t_hi) - iv.t_lo)
        return (0.25 * hbar / m * i1, i2, -self._const_rate * const)

    def _separated_inv_d(self, t: float) -> float | None:
        """int dt / d over the separated part of [0, t] (s/m), with d from
        the piecewise quadratic trajectory; shared by both branches'
        Newton terms, None when there is no Newton term."""
        if self.window is None or self._newton_scale == 0.0:
            return None
        w0, w1 = self.window
        t_hi = min(t, w1)
        if t_hi <= w0:
            return None
        m = self._mass
        F = self.trajectory.F
        total = 0.0
        for seg in self.trajectory.segments:
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

    # -- assembly ------------------------------------------------------------

    def breakdown(self, t: float | None = None) -> PhaseBreakdown:
        """Per-branch terms and their differences at t (default T5).

        Raises FloatingPointError when delta_phi is not finite."""
        if t is None:
            t = self.config.protocol.T5
        # the branch means are mirror images, so both branches share
        # <z><p>, <z>^2 and the inter-branch distance; each term that
        # depends on them is evaluated once
        z, p = mean_state(Branch.PLUS, t, self.trajectory)
        boundary_zp = -z * p / self._hbar
        z_sq = z**2
        inv_d = self._separated_inv_d(t)
        # one segment walk serves both actions and the classical difference
        common, lam_time = action_parts(self.trajectory, t)
        im_a = {}
        phases = {}
        for b in Branch:
            im_a[b] = self.branches[b].a(t).imag
            i1, i2, const_self = self._interval_sums(b, t)
            nu = self.config.weights.beta(b)
            action = common - b.sign * self.trajectory.E0 * lam_time
            phases[b] = BranchPhase(
                boundary_zp=boundary_zp,
                boundary_width=-0.5 * z_sq * im_a[b],
                classical=action / self._hbar,
                i1=i1,
                i2=i2,
                const_self=const_self,
                newton_cross=(0.0 if inv_d is None else
                              -self._newton_scale * (1.0 - nu * nu) * inv_d),
            )
        plus, minus = phases[Branch.PLUS], phases[Branch.MINUS]
        # the width boundary term differs only through Im A
        boundary_diff = -0.5 * z_sq * (im_a[Branch.PLUS] - im_a[Branch.MINUS])
        # only the uniform-field part of the action is branch-asymmetric
        c = self.config.constants
        classical_diff = -(c.g_factor * c.mu_B * self.config.protocol.B0
                           / c.hbar) * lam_time
        i1_diff = -(plus.i1 - minus.i1)
        i2_diff = -(plus.i2 - minus.i2)
        const_diff = -(plus.const_self - minus.const_self)
        newton_diff = -(plus.newton_cross - minus.newton_cross)
        delta_phi = (boundary_diff + classical_diff + i1_diff + i2_diff
                     + const_diff + newton_diff)
        if not math.isfinite(delta_phi):
            raise FloatingPointError(
                f"non-finite delta_phi = {delta_phi!r} at t = {t} (terms: "
                f"i1 {i1_diff!r}, i2 {i2_diff!r}, const {const_diff!r}, "
                f"newton {newton_diff!r}, boundary {boundary_diff!r})")
        return PhaseBreakdown(
            t=t, plus=plus, minus=minus, delta_phi=delta_phi,
            i1_diff=i1_diff, i2_diff=i2_diff, const_self_diff=const_diff,
            newton_diff=newton_diff, classical_diff=classical_diff,
            boundary_diff=boundary_diff)

    def delta_phi(self, t: float | None = None) -> float:
        return self.breakdown(t).delta_phi


# ---------------------------------------------------------------------------
# paper estimates

def naive_estimate(config: ExperimentConfig) -> float:
    """One-term estimate: the constant self-energy alone,
    (6/5)(G m^2 / hbar R)(T5 - 2 T_s)(|b+|^2 - |b-|^2) (rad)."""
    c = config.constants
    s = config.sphere
    Ts = separation_time(config)
    dt = config.protocol.T5 - 2.0 * Ts
    dbeta = config.weights.beta_plus_sq - config.weights.beta_minus_sq
    return 1.2 * c.G * s.mass**2 / (c.hbar * s.radius) * dt * dbeta


def naive_estimate_two_term(config: ExperimentConfig) -> float:
    """Two-term estimate for side-by-side flight (d ~ 2R): constant
    self-energy plus the Newton cross term at contact distance (rad)."""
    c = config.constants
    s = config.sphere
    Ts = separation_time(config)
    dt = config.protocol.T5 - 2.0 * Ts
    dbeta = config.weights.beta_plus_sq - config.weights.beta_minus_sq
    return c.G * s.mass**2 / (c.hbar * s.radius) * (1.2 - 0.5) * dt * dbeta


def i2_difference_estimate(config: ExperimentConfig) -> float:
    """Spreading-dominated estimate of the I2 branch asymmetry,
    omega_s^2 hbar t^3 |b+^2 - b-^2| / (24 m Q0) at t = T5 - T_s (rad)."""
    t = config.protocol.T5 - separation_time(config)
    w = omega_s(config.sphere, config.constants)
    dbeta = abs(config.weights.beta_plus_sq - config.weights.beta_minus_sq)
    return (w * w * config.constants.hbar * t**3 * dbeta
            / (24.0 * config.sphere.mass * config.initial.Q0))


# ---------------------------------------------------------------------------
# phase curve

# the PhaseBreakdown fields a phase curve samples, in CSV column order after t
CURVE_TERMS = ("delta_phi", "i1_diff", "i2_diff", "const_self_diff",
               "newton_diff", "classical_diff")


def write_csv(path, header: str, rows) -> None:
    """Write the header line and one line per row.  Text cells are written
    as is, quoted (RFC 4180) when they hold a comma, a quote or a line
    break; every other cell is a number, in the exponent format below,
    which round-trips a double exactly and is the same on every run."""
    def text(s: str) -> str:
        if any(c in s for c in ',"\r\n'):
            return '"' + s.replace('"', '""') + '"'
        return s

    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join([text(x) if isinstance(x, str)
                              else format(x, ".17e") for x in row]) + "\n")


@dataclass(frozen=True)
class PhaseCurve:
    """Accumulated phase difference and its per-term contributions."""

    t: np.ndarray
    delta_phi: np.ndarray
    i1_diff: np.ndarray
    i2_diff: np.ndarray
    const_self_diff: np.ndarray
    newton_diff: np.ndarray
    classical_diff: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, "t_s,delta_phi_rad,i1_diff,i2_diff,const_self_diff,"
                        "newton_diff,classical_diff",
                  zip(self.t, *(getattr(self, k) for k in CURVE_TERMS)))


def phase_curve(pipe: PhasePipeline, n_samples: int = 2000) -> PhaseCurve:
    """The breakdown of `pipe` at n_samples even times on [0, T5]; only
    samples the given pipeline and builds nothing."""
    ts = np.linspace(0.0, pipe.config.protocol.T5, n_samples)
    terms = attrgetter(*CURVE_TERMS)
    cols = np.empty((len(CURVE_TERMS), n_samples))
    for i, t in enumerate(ts):
        cols[:, i] = terms(pipe.breakdown(float(t)))
    return PhaseCurve(t=ts, **dict(zip(CURVE_TERMS, cols)))


# ---------------------------------------------------------------------------
# adaptive-ODE cross-check of the closed forms

ODE_RTOL = 1e-12


class IntegrationError(RuntimeError):
    """Adaptive ODE step failed (step-size underflow / stiffness)."""


@dataclass(frozen=True)
class OdeCrossCheck:
    """Quantum phases integrated through the width ODE instead of the
    closed forms.

    The boundary and classical terms cancel identically between branches
    (antisymmetry of the means; int lambda dt = 0), and at the physical
    baseline the per-branch Im C is ~1e12 rad, far beyond double-precision
    absolute comparison, so the cross-check is carried out on the
    per-branch quantum integrals and their difference.
    """

    t: np.ndarray
    A_plus: np.ndarray
    A_minus: np.ndarray
    quantum_plus: float   # int F_Q,+ dt / hbar at T5
    quantum_minus: float
    delta_phi: float


def delta_phi_ode(config: ExperimentConfig,
                  n_eval: int = 201) -> OdeCrossCheck:
    """Integrate dA/dt and dq/dt = F_Q/hbar per branch with an adaptive
    high-order scheme and reassemble the phase difference.  The trajectory
    and the regime intervals are read from the config's PhasePipeline."""
    # imported here: no other path needs scipy, and it is most of the
    # package's import time and resident memory
    from scipy.integrate import solve_ivp

    pipe = PhasePipeline(config)
    m = config.sphere.mass
    c = config.constants
    hbar = c.hbar
    G = c.G
    R = config.sphere.radius
    traj = pipe.trajectory
    A0 = 0.5 / config.initial.Q0

    bounds = sorted({0.0, config.protocol.T5,
                     *(iv.t_hi for ab in pipe.branches.values()
                       for iv in ab.intervals),
                     *(s.t_hi for s in traj.segments)})

    def rhs(t, y, nus, omegas):
        out = np.empty(6)
        d = None
        for k, branch in enumerate(Branch):
            re_a, im_a = y[3 * k], y[3 * k + 1]
            nu, w = nus[k], omegas[k]
            V2 = 0.5 * m * w * w * nu * nu
            out[3 * k] = 2.0 * (hbar / m) * re_a * im_a
            out[3 * k + 1] = -(hbar / m) * (re_a**2 - im_a**2) + 2.0 * V2 / hbar
            Q = 0.5 / re_a
            fq = (hbar * hbar / (4.0 * m * Q) + V2 * Q
                  - 1.2 * G * m * m / R * nu * nu)
            if nu < 1.0 and G != 0.0:
                if d is None:
                    d = branch_distance(t, traj)
                fq -= (1.0 - nu * nu) * G * m * m / d
            out[3 * k + 2] = fq / hbar
        return out

    t_eval = np.linspace(0.0, config.protocol.T5, n_eval)
    y = np.array([A0, 0.0, 0.0, A0, 0.0, 0.0])
    atol = ODE_RTOL * np.array([A0, A0, 1.0, A0, A0, 1.0])
    ts, ys = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ivs = [pipe.branches[b].interval(0.5 * (lo + hi)) for b in Branch]
        nus = tuple(iv.nu for iv in ivs)
        omegas = tuple(iv.omega for iv in ivs)
        inside = t_eval[(t_eval >= lo) & (t_eval < hi)]
        pts = np.unique(np.concatenate([inside, [lo, hi]]))
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", t_eval=pts,
                        args=(nus, omegas), rtol=ODE_RTOL, atol=atol)
        if not sol.success:
            raise IntegrationError(f"phase ODE failed on [{lo}, {hi}]: "
                                   f"{sol.message}")
        keep = sol.t < hi if hi < bounds[-1] else np.ones_like(sol.t, bool)
        ts.append(sol.t[keep])
        ys.append(sol.y[:, keep])
        y = sol.y[:, -1]

    t_all = np.concatenate(ts)
    y_all = np.concatenate(ys, axis=1)
    q_plus, q_minus = y[2], y[5]
    # the uniform-field classical difference, zero at T5 by int lambda = 0
    b0_diff = -(c.g_factor * c.mu_B * config.protocol.B0 / hbar
                ) * action_parts(traj)[1]
    return OdeCrossCheck(
        t=t_all,
        A_plus=y_all[0] + 1j * y_all[1],
        A_minus=y_all[3] + 1j * y_all[4],
        quantum_plus=q_plus,
        quantum_minus=q_minus,
        delta_phi=-(q_plus - q_minus) + b0_diff,
    )


# ---------------------------------------------------------------------------
# radius sweep

@dataclass(frozen=True)
class SweepPoint:
    radius: float
    mass: float
    delta_phi: float | None
    error: str | None = None


def radius_sweep(config: ExperimentConfig, R_list) -> list[SweepPoint]:
    """Run the full closed-form pipeline at each radius with the mass
    scaled at fixed density; per-point failures are recorded, not raised."""
    rho = config.sphere.density

    def run_one(R: float) -> SweepPoint:
        try:
            mass = rho * 4.0 / 3.0 * math.pi * R**3
            cfg = replace(config, sphere=SphereParams(mass=mass, radius=R))
            return SweepPoint(radius=R, mass=mass,
                              delta_phi=PhasePipeline(cfg).delta_phi())
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            return SweepPoint(radius=R, mass=float("nan"), delta_phi=None,
                              error=f"{type(exc).__name__}: {exc}")

    return [run_one(R) for R in R_list]


def fit_log_slope(points: list[SweepPoint]) -> float:
    """Least-squares slope of log|delta_phi| against log R; with fewer than
    two nonzero results it is not a number (FloatingPointError)."""
    good = [(p.radius, p.delta_phi) for p in points
            if p.delta_phi is not None and p.delta_phi != 0.0]
    if len(good) < 2:
        raise FloatingPointError("need at least two successful sweep points")
    x = np.log([r for r, _ in good])
    y = np.log([abs(d) for _, d in good])
    return float(np.polyfit(x, y, 1)[0])
