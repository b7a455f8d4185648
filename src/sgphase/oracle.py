"""Independent grid solver for the nonlinear branch equations.

Strang-split split-operator scheme on a uniform 1D grid (Feit, Fleck &
Steiger, J. Comput. Phys. 47, 412, 1982; Strang, SIAM J. Numer. Anal. 5,
506, 1968): kinetic propagation in spectral space, potential propagation
in position space, with the branch self-potential rebuilt every step from
the instantaneous moments of the grid state (means, spreads, inter-branch
distance).  The gradient sign lambda and the Stern-Gerlach row of the
potential are set once per segment piece (`_segment_bounds`).  The state
of both branches is one (2, N) array, rows plus and minus (see GridRun);
the step, the moments, the center phases and the recorded histories all
work row-wise on that one layout.  A step costs one forward and one
inverse FFT; the closing kinetic half-kick of a step and the opening
half-kick of the next are merged into one full kick.  The potential kick
is one real cos/sin evaluation of the phase V dt/hbar, written with the
potential, densities and kinetic product into buffers allocated once per
run, so a step allocates only its two FFT results.  Nothing here reuses
the Gaussian closed forms, so agreement on spreads and on the final phase
difference validates the analytic pipeline end to end.

The physical baseline is not grid-tractable (packet separation ~2e-4 m
against a 1e-9 m width), so cross-checks run at a scaled configuration in
natural units with G inflated until omega_s T5 ~ 0.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Branch, ConstantsSet, ExperimentConfig, InitialState, \
    Protocol, SphereParams, SpinWeights
from .potential import effective_omega_s, v_eff
from .trajectories import protocol_segments, separation_window


# grid points on each side of <z> in the center-phase fit
CENTER_HALF_WIDTH = 3


class GridEscapeError(RuntimeError):
    """Probability mass reached the grid boundary."""


class StepSizeError(RuntimeError):
    """Potential phase advance per step too large for the splitting."""


class PhaseUnwrapError(RuntimeError):
    """Phase difference jumped by more than pi/2 between snapshots."""


@dataclass(frozen=True)
class GridSpec:
    n: int
    z_min: float
    z_max: float
    dt: float
    snapshot_stride: int = 40

    def __post_init__(self):
        # check_health reads four edge cells on each side
        if self.n < 8:
            raise ValueError(f"n must be >= 8, got {self.n}")
        if not -math.inf < self.z_min < self.z_max < math.inf:
            raise ValueError(f"z_min and z_max must be finite with z_min "
                             f"< z_max, got [{self.z_min}, {self.z_max}]")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.snapshot_stride < 1:
            raise ValueError(
                f"snapshot_stride must be >= 1, got {self.snapshot_stride}")

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / self.n

    def grid(self) -> np.ndarray:
        return self.z_min + self.dz * np.arange(self.n)


@dataclass
class GridState:
    z: np.ndarray
    dz: float
    psi: np.ndarray      # (2, N): one row per branch
    t: float


@dataclass(frozen=True)
class Moments:
    """One value per branch: (2,) fields for a state, (n_snapshots, 2)
    fields for a history."""

    mean_z: np.ndarray
    mean_p: np.ndarray
    Q: np.ndarray
    P: np.ndarray


def initial_grid_state(config: ExperimentConfig, spec: GridSpec) -> GridState:
    """Both branches in the same normalized ground-state Gaussian."""
    z = spec.grid()
    Q0 = config.initial.Q0
    psi = np.exp(-z * z / (4.0 * Q0)).astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * spec.dz)
    return GridState(z=z, dz=spec.dz, psi=np.stack([psi, psi]), t=0.0)


def extract_moments(state: GridState, hbar: float) -> Moments:
    """Row-wise moments: position moments by direct sums, momentum moments
    from one (2, N) FFT."""
    w = np.abs(state.psi) ** 2
    wsum = w.sum(axis=1)
    mean_z = np.sum(state.z * w, axis=1) / wsum
    Q = np.sum((state.z - mean_z[:, None]) ** 2 * w, axis=1) / wsum

    k = 2.0 * np.pi * np.fft.fftfreq(state.z.size, d=state.dz)
    wk = np.abs(np.fft.fft(state.psi)) ** 2
    wk_sum = wk.sum(axis=1)
    mean_p = hbar * (np.sum(k * wk, axis=1) / wk_sum)
    P = np.sum((hbar * k - mean_p[:, None]) ** 2 * wk, axis=1) / wk_sum
    return Moments(mean_z=mean_z, mean_p=mean_p, Q=Q, P=P)


def center_phase(state: GridState, mean_z: np.ndarray) -> np.ndarray:
    """Phase of each row at its own center <z> (from extract_moments): a
    quadratic fit to the local unwrapped phase over the 2 CENTER_HALF_WIDTH
    + 1 grid points around the one nearest <z>, evaluated at <z>."""
    phases = []
    for psi, mz in zip(state.psi, mean_z):
        idx = int(round((mz - state.z[0]) / state.dz))
        idx = min(max(idx, CENTER_HALF_WIDTH),
                  psi.size - CENTER_HALF_WIDTH - 1)
        sl = slice(idx - CENTER_HALF_WIDTH, idx + CENTER_HALF_WIDTH + 1)
        coeffs = np.polyfit(state.z[sl] - mz, np.unwrap(np.angle(psi[sl])), 2)
        phases.append(np.polyval(coeffs, 0.0))
    return np.array(phases)


def _unwrap_difference(raw) -> np.ndarray:
    """Unwrap a history of wrapped phase differences, referenced to zero
    at its first value; a jump beyond pi/2 between neighbours is
    ambiguous and raises PhaseUnwrapError."""
    diff = np.unwrap(np.asarray(raw))
    steps = np.abs(np.diff(diff))
    if steps.size and float(steps.max()) > 0.5 * math.pi:
        raise PhaseUnwrapError(
            f"phase difference jumped by {steps.max():.3f} rad between "
            f"recorded states; record the history more densely")
    return diff - diff[0]


def _convolution_kernel(z: np.ndarray, sphere: SphereParams,
                        constants: ConstantsSet) -> np.ndarray:
    """v_eff sampled on the grid displacements (-(n-1)..(n-1)) dz."""
    n = z.size
    offsets = float(z[1] - z[0]) * np.arange(-(n - 1), n)
    return np.array([v_eff(abs(d), sphere, constants) for d in offsets])


def self_potential_convolution(z: np.ndarray, density: np.ndarray,
                               kernel: np.ndarray) -> np.ndarray:
    """Full self-potential int rho(z') v_eff(|z - z'|) dz' by direct
    linear convolution on the grid (np.convolve, O(n^2)) with the kernel
    of _convolution_kernel.  `density` must integrate to 1."""
    return np.convolve(density * float(z[1] - z[0]), kernel, mode="valid")


@dataclass
class GridRun:
    """Snapshot history of a grid evolution.

    Branches sit in Branch iteration order, plus then minus: the rows of
    final_state.psi and the columns of the (n_snapshots, 2) moments
    fields.  delta_phi is the phase of the plus row minus that of the
    minus row."""

    t: np.ndarray
    moments: Moments
    delta_phi: np.ndarray          # unwrapped phase difference history
    final_state: GridState
    max_norm_drift: float
    n_steps: int

    @property
    def delta_phi_final(self) -> float:
        return float(self.delta_phi[-1])


def _segment_bounds(
        config: ExperimentConfig) -> list[tuple[float, float, int]]:
    """(t_lo, t_hi, lambda) pieces chaining 0 to T5: the segments of the
    config's trajectory, split at the ends of its separation window, so
    the gradient sign and the overlap regime are constant on each."""
    traj = protocol_segments(config)
    cuts = separation_window(traj) or ()
    pieces = []
    for seg in traj.segments:
        pts = sorted({seg.t_lo, seg.t_hi,
                      *(c for c in cuts if seg.t_lo < c < seg.t_hi)})
        pieces += [(lo, hi, seg.lam) for lo, hi in zip(pts[:-1], pts[1:])]
    return pieces


def _position_moments(z: np.ndarray, w: np.ndarray,
                      sq: np.ndarray) -> tuple[list[float], list[float]]:
    """<z> and the centred second moment Q of each row of the (2, N)
    densities w, by direct sums in position space; the centred squares
    are written into the (2, N) scratch buffer sq."""
    wsum = w.sum(axis=1)
    mean_z = (w @ z) / wsum
    Q = []
    for row in (0, 1):
        np.subtract(z, mean_z[row], out=sq[row])
        np.square(sq[row], out=sq[row])
        Q.append(float(w[row] @ sq[row] / wsum[row]))
    return mean_z.tolist(), Q


def evolve_grid(config: ExperimentConfig, spec: GridSpec,
                t_end: float | None = None, *,
                full_convolution: bool = False) -> GridRun:
    """Propagate both branches of `config` from t = 0 to t_end (default
    T5, and 0 < t_end <= T5) and extract moment and phase histories.

    Each step is a Strang step: kinetic half-kick exp(-i hbar k^2 dt/4m)
    in spectral space, potential kick at the half step in position space,
    kinetic half-kick.  Both branches are one (2, N) array, rows in the
    order GridRun states, so a step costs one inverse and one forward FFT.
    The sign lambda and the Stern-Gerlach row are set once per piece of
    `_segment_bounds`.  Within a piece the closing half-kick of a step and the
    opening half-kick of the next are merged into one full kick
    exp(-i hbar k^2 dt/2m).  A piece opens with a half-kick (dt changes
    at piece bounds), and a snapshot step (every snapshot_stride-th step
    and the last step of each piece) closes with one, so health checks,
    recorded moments and phases all see full-step states; the next step
    goes on from the same spectrum with the full kick.  Between snapshots
    the potential needs only <z> and Q, taken from |psi|^2 in position
    space.  One recording routine checks the t = 0 state and every
    snapshot, takes its full Moments (with the spectral <p> and P) and
    center phases, and stores them as (n_snapshots, 2) histories.

    The potential kick is real arithmetic: the phase theta = -V dt/hbar
    goes into a real buffer and the kick cos(theta) + i sin(theta) into a
    complex one.  That buffer, the potential, |psi|^2 and the kinetic
    product are allocated once per run, so a step allocates only the
    results of its two FFTs.  The snapshot state is an array of its own:
    the next piece restarts from it and it is the returned final state.

    full_convolution replaces the quadratic overlap-regime self-potential
    with the exact convolution against v_eff.
    """
    c = config.constants
    m = config.sphere.mass
    hbar = c.hbar
    R = config.sphere.radius
    G = c.G
    # branch weights in the row order of the (2, N) state: plus, minus
    w_pm = (config.weights.beta_plus_sq, config.weights.beta_minus_sq)

    if t_end is None:
        t_end = config.protocol.T5
    if not 0.0 < t_end <= config.protocol.T5:
        raise ValueError(f"t_end must lie in (0, T5 = {config.protocol.T5}], "
                         f"got {t_end}")
    if spec.dz > config.initial.sqrt_Q0 / 8.0:
        raise ValueError(
            f"grid too coarse: dz={spec.dz} > sqrt(Q0)/8={config.initial.sqrt_Q0/8}")

    k = 2.0 * np.pi * np.fft.fftfreq(spec.n, d=spec.dz)
    z = spec.grid()
    kernel = (_convolution_kernel(z, config.sphere, c)
              if full_convolution else None)
    # Stern-Gerlach energy +-lambda(t) (g mu_B/2) (B0 - B0' z) of the plus
    # and minus branch; the field profile is built once per run
    sg_half = 0.5 * c.g_factor * c.mu_B
    field = config.protocol.B0 - config.protocol.B0_grad * z
    # work buffers, allocated once per run: the potential v, the densities
    # w, the real scratch theta (centred squares, then the kick phase), the
    # Stern-Gerlach row sg, the kick and the kinetic product kin * phi
    shape = (2, z.size)
    v = np.empty(shape)
    w = np.empty(shape)
    theta = np.empty(shape)
    sg = np.empty(z.size)
    kick = np.empty(shape, dtype=complex)
    kphi = np.empty(shape, dtype=complex)

    times: list[float] = []
    history: list[Moments] = []
    raw_diff = []
    max_drift = 0.0
    n_steps = 0

    def potential(mean_z, Q, dens: np.ndarray | None):
        """(2, N) potential of the plus and minus rows, written into v,
        from each row's <z> and Q and the current piece's Stern-Gerlach
        row sg; dens are the (2, N) densities for the convolution."""
        d = abs(mean_z[0] - mean_z[1])
        overlap = d <= 2.0 * R
        if full_convolution and overlap and dens is not None:
            v[:] = self_potential_convolution(
                z, w_pm[0] * dens[0] + w_pm[1] * dens[1], kernel)
        else:
            for row in (0, 1):
                nu = 1.0 if overlap else math.sqrt(w_pm[row])
                w_eff = (effective_omega_s(max(Q[row], 1e-300), config.sphere,
                                           c, config.nuclear_correction)
                         if G > 0 else 0.0)
                nu2 = nu * nu
                curv = 0.5 * m * w_eff**2
                offset = nu2 * (curv * Q[row] - 1.2 * G * m * m / R)
                if nu < 1.0 and G != 0.0 and d > 0.0:
                    offset -= (1.0 - nu2) * G * m * m / d
                vr = v[row]
                np.subtract(z, mean_z[row], out=vr)
                np.square(vr, out=vr)
                vr *= nu2 * curv
                vr += offset
        v[0] += sg
        v[1] -= sg
        return v

    def check_health(full: np.ndarray, t: float) -> None:
        """Norm and edge-mass checks of the (2, N) full-step state."""
        nonlocal max_drift
        dens = full.real ** 2 + full.imag ** 2
        dens *= spec.dz
        norms = dens.sum(axis=1)
        edges = dens[:, :4].sum(axis=1) + dens[:, -4:].sum(axis=1)
        for b, row, nrm, edge in zip(Branch, dens, norms, edges):
            max_drift = max(max_drift, abs(nrm - 1.0))
            if abs(nrm - 1.0) > 1e-6:
                raise RuntimeError(
                    f"norm lost on branch {b.name} at t={t}: {nrm}")
            if edge > 1e-10:
                mz = float(z @ row / nrm)
                raise GridEscapeError(
                    f"branch {b.name} reached the boundary at t={t}: "
                    f"edge probability {edge:.3e}, <z>={mz:.4e}")

    def record(snap: GridState) -> GridState:
        """Check, measure and store a full-step state."""
        check_health(snap.psi, snap.t)
        mom = extract_moments(snap, hbar)
        phase = center_phase(snap, mom.mean_z)
        times.append(snap.t)
        history.append(mom)
        raw_diff.append(phase[0] - phase[1])
        return snap

    state = record(initial_grid_state(config, spec))
    pieces = [(lo, min(hi, t_end), lam)
              for lo, hi, lam in _segment_bounds(config) if lo < t_end]
    for lo, hi, lam in pieces:
        np.multiply(field, lam * sg_half, out=sg)
        n_sub = math.ceil((hi - lo) / spec.dt)
        dt = (hi - lo) / n_sub
        kin_half = np.exp(-1j * hbar * k * k * dt / (4.0 * m))
        kin_full = np.exp(-1j * hbar * k * k * dt / (2.0 * m))
        # splitting sanity: the potential multiplier must not alias, i.e.
        # its phase advance per step must vary by well under pi between
        # neighboring cells (uniform and linear offsets are harmless).  A
        # piece starts on the last recorded state, so its moments are the
        # last recorded ones.
        vtest = potential(history[-1].mean_z, history[-1].Q, None)
        cell_jump = float(np.max(np.abs(np.diff(vtest, axis=1)))) * dt / hbar
        if cell_jump > 0.5 * math.pi:
            raise StepSizeError(
                f"potential phase aliases at t={lo}: {cell_jump:.2f} rad "
                f"between neighboring cells per step; reduce dt below "
                f"{0.5 * math.pi * hbar * dt / cell_jump:.3e}")

        # phi is the spectrum still owed a kinetic kick: kin_half at the
        # segment start, kin_full (two merged half-kicks) after a step
        phi = np.fft.fft(state.psi)
        kin = kin_half
        phase_per_v = -dt / hbar
        for i in range(n_sub):
            t0 = lo + i * dt
            np.multiply(kin, phi, out=kphi)
            psi = np.fft.ifft(kphi)
            kin = kin_full
            # shared moments at the half step
            np.multiply(psi.real, psi.real, out=w)
            np.multiply(psi.imag, psi.imag, out=theta)
            w += theta
            mean_z, Q = _position_moments(z, w, theta)
            potential(mean_z, Q, w)
            # kick exp(-i v dt/hbar) = cos(theta) + i sin(theta)
            np.multiply(v, phase_per_v, out=theta)
            np.cos(theta, out=kick.real)
            np.sin(theta, out=kick.imag)
            psi *= kick
            phi = np.fft.fft(psi)
            n_steps += 1
            if n_steps % spec.snapshot_stride == 0 or i == n_sub - 1:
                np.multiply(kin_half, phi, out=kphi)
                state = record(GridState(z=z, dz=spec.dz,
                                         psi=np.fft.ifft(kphi), t=t0 + dt))

    # one (n_snapshots, 2) array per Moments field
    moments = Moments(*(np.array(col) for col in zip(
        *(vars(mom).values() for mom in history))))
    return GridRun(t=np.asarray(times), moments=moments,
                   delta_phi=_unwrap_difference(raw_diff), final_state=state,
                   max_norm_drift=max_drift, n_steps=n_steps)


# ---------------------------------------------------------------------------
# scaled desk configuration for oracle cross-checks

SCALED_CONSTANTS = ConstantsSet(name="scaled-natural", G=22.5 / 27.0,
                                hbar=1.0, mu_B=1.0, g_factor=2.0)


def scaled_config() -> ExperimentConfig:
    """Natural-units configuration with G inflated so omega_s T5 = 0.3.

    m = hbar = sqrt(Q0) = 1, R = 10/3, B0' = 80: the packets separate to
    d = 10 on the plateau (crossing 2R = 20/3 inside the second interval)
    while the widths stay near 1, so a 4096-point grid resolves the whole
    protocol.
    """
    return ExperimentConfig(
        constants=SCALED_CONSTANTS,
        sphere=SphereParams(mass=1.0, radius=10.0 / 3.0),
        weights=SpinWeights.from_plus(1.0 / 3.0),
        protocol=Protocol.from_t1(0.25, hold=1.0, B0=0.0, B0_grad=80.0),
        initial=InitialState(Q0=1.0),
    )


def scaled_grid_spec() -> GridSpec:
    return GridSpec(n=4096, z_min=-32.0, z_max=32.0, dt=2.5e-4,
                    snapshot_stride=40)
