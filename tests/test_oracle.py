import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sgphase.oracle
from sgphase.gaussian import AnalyticBranch
from sgphase.oracle import (GridEscapeError, GridSpec, Moments,
                            PhaseUnwrapError, StepSizeError,
                            _convolution_kernel, _segment_bounds,
                            center_phase, evolve_grid, extract_moments,
                            initial_grid_state, scaled_config,
                            self_potential_convolution)
from sgphase.params import (Branch, ConstantsSet, InitialState,
                            SphereParams, SpinWeights, omega_s)
from sgphase.phase import PhasePipeline
from sgphase.trajectories import (action_parts, mean_state,
                                  protocol_segments, separation_window)

from reference import lambda_of_t, spread_Q


@pytest.fixture(scope="module")
def scaled():
    return scaled_config()


@pytest.fixture(scope="module")
def spec_small():
    return GridSpec(n=2048, z_min=-32.0, z_max=32.0, dt=1e-3,
                    snapshot_stride=100)


def no_gravity(config):
    c = config.constants
    return replace(config, constants=ConstantsSet(
        name="g-zero", G=0.0, hbar=c.hbar, mu_B=c.mu_B, g_factor=c.g_factor))


def no_gradient(config, B0=0.0):
    """The same run with the Stern-Gerlach gradient off: no separation,
    and a uniform field B0 gives the branches flat energies
    +-lambda(t) g mu_B B0/2."""
    return replace(config, protocol=replace(config.protocol, B0=B0,
                                            B0_grad=0.0))


def shifted_boosted_state(config, spec, a=3.0, k0=5.0):
    """Initial state with the plus row moved by a and boosted by hbar k0;
    the minus row stays the ground state."""
    state = initial_grid_state(config, spec)
    psi = np.exp(-(state.z - a) ** 2 / (4.0 * config.initial.Q0)
                 + 1j * k0 * state.z)
    state.psi[0] = psi / math.sqrt(np.sum(np.abs(psi) ** 2) * state.dz)
    return state


def assert_moments_equal(a, b):
    for name in vars(a):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestMoments:
    def test_initial_gaussian(self, scaled, spec_small):
        state = initial_grid_state(scaled, spec_small)
        m = extract_moments(state, scaled.constants.hbar)
        hbar = scaled.constants.hbar
        Q0 = scaled.initial.Q0
        np.testing.assert_allclose(m.mean_z, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.mean_p, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.Q, Q0, rtol=1e-9)
        np.testing.assert_allclose(m.P, hbar**2 / (4 * Q0), rtol=1e-9)
        assert np.all(m.Q * m.P >= hbar**2 / 4.0 * (1.0 - 1e-6))

    def test_translation_covariance(self, scaled, spec_small):
        a = 3.0
        state = shifted_boosted_state(scaled, spec_small, a=a, k0=0.0)
        m = extract_moments(state, scaled.constants.hbar)
        assert m.mean_z[0] == pytest.approx(a, rel=1e-9)
        assert m.Q[0] == pytest.approx(scaled.initial.Q0, rel=1e-9)
        assert abs(m.mean_z[1]) < 1e-12  # the minus row stays put

    def test_boost_covariance(self, scaled, spec_small):
        k0 = 5.0
        state = shifted_boosted_state(scaled, spec_small, a=0.0, k0=k0)
        m = extract_moments(state, scaled.constants.hbar)
        assert m.mean_p[0] == pytest.approx(scaled.constants.hbar * k0,
                                            rel=1e-9)
        assert abs(m.mean_p[1]) < 1e-12

    def test_rows_are_independent(self, scaled, spec_small):
        # swapping the rows of a state swaps every per-branch result
        # bitwise, and a row's results do not move when the other row
        # changes: no row's moments or phase depend on the other row
        state = shifted_boosted_state(scaled, spec_small)
        swapped = replace(state, psi=state.psi[::-1].copy())
        hbar = scaled.constants.hbar
        m, ms = extract_moments(state, hbar), extract_moments(swapped, hbar)
        assert m.mean_z[0] != m.mean_z[1] and m.mean_p[0] != m.mean_p[1]
        assert_moments_equal(ms, Moments(*(f[::-1] for f in vars(m).values())))
        phase = center_phase(state, m.mean_z)
        np.testing.assert_array_equal(center_phase(swapped, ms.mean_z),
                                      phase[::-1])
        twin = replace(state, psi=np.stack([state.psi[0], state.psi[0]]))
        mt = extract_moments(twin, hbar)
        assert_moments_equal(Moments(*(f[:1] for f in vars(mt).values())),
                             Moments(*(f[:1] for f in vars(m).values())))
        assert center_phase(twin, mt.mean_z)[0] == phase[0]


class TestFreeSpreading:
    def test_matches_exact_law(self, scaled, spec_small):
        cfg = no_gradient(no_gravity(scaled))
        run = evolve_grid(cfg, spec_small)
        hbar = cfg.constants.hbar
        m = cfg.sphere.mass
        Q0 = cfg.initial.Q0
        law = Q0 * (1.0 + (hbar * run.t / (2 * m * Q0)) ** 2)
        rel = np.abs(run.moments.Q - law[:, None]) / law[:, None]
        assert float(rel.max()) < 1e-6

    def test_symmetric_null_phase(self, scaled, spec_small):
        cfg = replace(no_gravity(scaled), weights=SpinWeights.from_plus(0.5))
        run = evolve_grid(cfg, spec_small)
        assert abs(run.delta_phi_final) < 1e-4

    def test_norm_conserved(self, scaled, spec_small):
        run = evolve_grid(no_gravity(scaled), spec_small)
        assert run.max_norm_drift < 1e-9


class TestHarmonicOnly:
    def test_width_matches_closed_form(self, scaled, spec_small):
        # co-located packets (d = 0 <= 2R) keep nu = 1 throughout
        run = evolve_grid(no_gradient(scaled), spec_small)
        q_ref = np.array([spread_Q(t, 1.0, scaled) for t in run.t])[:, None]
        rel = np.abs(run.moments.Q - q_ref) / q_ref
        assert float(rel.max()) < 1e-6


class TestEhrenfest:
    def test_means_track_trajectories(self, scaled, spec_small):
        run = evolve_grid(scaled, spec_small)
        traj = protocol_segments(scaled)
        z_ref, p_ref = np.array([mean_state(Branch.PLUS, t, traj)
                                 for t in run.t]).T
        z_scale = float(np.abs(z_ref).max())
        p_scale = float(np.abs(p_ref).max())
        assert np.abs(run.moments.mean_z[:, 0] - z_ref).max() \
            < 1e-4 * z_scale
        assert np.abs(run.moments.mean_p[:, 0] - p_ref).max() \
            < 1e-4 * p_scale


class TestPhaseExtraction:
    def test_uniform_field_phase(self, scaled, spec_small):
        # a uniform field alone splits the branch energies by
        # lambda(t) g mu_B B0, so the phase difference follows
        # -g mu_B B0 Lambda(t) / hbar at every recorded time
        B0 = 0.04
        cfg = replace(no_gradient(no_gravity(scaled), B0=B0),
                      weights=SpinWeights.from_plus(0.5))
        c = cfg.constants
        run = evolve_grid(cfg, spec_small)
        traj = protocol_segments(cfg)
        expected = np.array([-c.g_factor * c.mu_B * B0 / c.hbar
                             * action_parts(traj, t)[1]
                             for t in run.t])
        assert float(np.abs(expected).max()) > 0.01
        np.testing.assert_allclose(run.delta_phi, expected, rtol=0,
                                   atol=1e-8)

    def test_unwrap_guard(self, scaled):
        # force > pi/2 jumps between snapshots with a strong uniform field
        # (fast dephasing) and a sparse history
        cfg = replace(no_gradient(no_gravity(scaled), B0=20.0),
                      weights=SpinWeights.from_plus(0.5))
        spec = GridSpec(n=1024, z_min=-32.0, z_max=32.0, dt=1e-3,
                        snapshot_stride=10**9)
        with pytest.raises(PhaseUnwrapError):
            evolve_grid(cfg, spec, t_end=0.25)


class TestScaledCrossCheck:
    def test_phase_and_widths_match_closed_forms(self, scaled):
        spec = GridSpec(n=2048, z_min=-32.0, z_max=32.0, dt=1e-3,
                        snapshot_stride=100)
        run = evolve_grid(scaled, spec)
        pipe = PhasePipeline(scaled)
        closed = pipe.delta_phi()
        assert run.delta_phi_final == pytest.approx(closed, rel=1e-2)
        branches = [pipe.branches[b] for b in Branch]
        q_ref = np.array([[ab.q(t) for ab in branches] for t in run.t])
        rel = np.abs(run.moments.Q - q_ref) / q_ref
        assert float(rel.max()) < 1e-4

    def test_second_order_convergence(self, scaled):
        closed = PhasePipeline(scaled).delta_phi()
        errs = []
        for dt in (1.6e-2, 8e-3, 4e-3):
            spec = GridSpec(n=2048, z_min=-32.0, z_max=32.0, dt=dt,
                            snapshot_stride=10**9)
            run = evolve_grid(scaled, spec)
            errs.append(abs(run.delta_phi_final - closed))
        for coarse, fine in zip(errs[:-1], errs[1:]):
            assert 3.0 <= coarse / fine <= 5.0


class TestSegmentBounds:
    @pytest.mark.parametrize("which", ["scaled", "baseline"])
    def test_pieces_chain_and_carry_their_segment_lambda(self, request,
                                                         which):
        config = request.getfixturevalue(which)
        traj = protocol_segments(config)
        pieces = _segment_bounds(config)
        assert pieces[0][0] == 0.0
        assert pieces[-1][1] == config.protocol.T5
        for (_, hi, _), (lo, _, _) in zip(pieces[:-1], pieces[1:]):
            assert hi == lo
        for lo, hi, lam in pieces:
            assert lo < hi
            (seg,) = [s for s in traj.segments
                      if s.t_lo <= lo and hi <= s.t_hi]
            assert lam == seg.lam
            assert lam == lambda_of_t(0.5 * (lo + hi), config.protocol)
        # the separation window's ends are piece bounds
        assert set(separation_window(traj)) <= {lo for lo, _, _ in pieces}


class TestRegressionPin:
    @pytest.mark.parametrize("B0", [0.0, 1.0])
    def test_scaled_run_pinned(self, scaled, spec_small, B0):
        # values of the unmerged Strang loop (two half-kicks per step, one
        # branch per FFT); the merged loop must reproduce them.  A uniform
        # field B0 moves the phase difference mid-run (by up to 0.5 rad at
        # B0 = 1) but, with Lambda(T5) = 0, leaves the pins unchanged
        cfg = replace(scaled, protocol=replace(scaled.protocol, B0=B0))
        run = evolve_grid(cfg, spec_small)
        assert run.n_steps == 2002
        assert len(run.t) == 28
        assert run.delta_phi_final == pytest.approx(-0.09194534262907927,
                                                    abs=1e-10)
        assert run.moments.Q[-1, 0] == pytest.approx(1.9406865797488986,
                                                     rel=1e-11)
        assert run.moments.Q[-1, 1] == pytest.approx(1.911685184979211,
                                                     rel=1e-11)
        # the returned state is the full-step state the last moments saw
        last = Moments(*(f[-1] for f in vars(run.moments).values()))
        assert_moments_equal(
            extract_moments(run.final_state, scaled.constants.hbar), last)

    @pytest.mark.parametrize("bound", [2, 3])
    def test_stop_at_segment_bound_is_prefix(self, scaled, spec_small, bound):
        # a run stopped at a segment bound ends on a snapshot, and the full
        # run restarts the next segment from that same snapshot state, so
        # the short run is bitwise the head of the full one
        t_end = _segment_bounds(scaled)[bound][0]
        full = evolve_grid(scaled, spec_small)
        head = evolve_grid(scaled, spec_small, t_end=t_end)
        n = len(head.t)
        assert head.t[-1] == t_end
        np.testing.assert_array_equal(head.t, full.t[:n])
        np.testing.assert_array_equal(head.delta_phi, full.delta_phi[:n])
        assert_moments_equal(head.moments, Moments(
            *(f[:n] for f in vars(full.moments).values())))


class TestCrossTermRouting:
    def test_pure_plus_weights_feel_no_cross_term(self, scaled):
        # with weights (1, 0): nu_+ = 1 always, so the plus branch keeps the
        # full harmonic self-term through the separation window and never
        # acquires a Newton cross term; the minus branch drops to nu = 0
        # (free spreading) while separated
        cfg = replace(scaled, weights=SpinWeights.from_plus(1.0))
        spec = GridSpec(n=2048, z_min=-32.0, z_max=32.0, dt=1e-3,
                        snapshot_stride=100)
        run = evolve_grid(cfg, spec)
        q_plus_ref = np.array([spread_Q(t, 1.0, cfg) for t in run.t])
        # pure weights are outside validate's domain, so no PhasePipeline
        minus_ref = AnalyticBranch(
            cfg, Branch.MINUS, separation_window(protocol_segments(cfg)))
        q_minus_ref = np.array([minus_ref.q(t) for t in run.t])
        assert float((np.abs(run.moments.Q[:, 0] - q_plus_ref)
                      / q_plus_ref).max()) < 1e-4
        assert float((np.abs(run.moments.Q[:, 1] - q_minus_ref)
                      / q_minus_ref).max()) < 1e-4
        # the piecewise minus reference really is free while separated
        assert [iv.nu for iv in minus_ref.intervals] == [1.0, 0.0, 1.0]


class TestGuards:
    def test_grid_escape(self, scaled):
        cfg = no_gravity(scaled)
        spec = GridSpec(n=256, z_min=-8.0, z_max=8.0, dt=1e-3,
                        snapshot_stride=50)
        with pytest.raises(GridEscapeError, match="boundary"):
            evolve_grid(cfg, spec)

    def test_step_rejection(self, scaled):
        steep = replace(scaled, protocol=replace(scaled.protocol,
                                                 B0_grad=8e4))
        spec = GridSpec(n=1024, z_min=-32.0, z_max=32.0, dt=0.25,
                        snapshot_stride=10)
        with pytest.raises(StepSizeError, match="alias"):
            evolve_grid(steep, spec, t_end=0.25)

    def test_too_coarse_grid_rejected(self, scaled):
        spec = GridSpec(n=64, z_min=-32.0, z_max=32.0, dt=1e-3)
        with pytest.raises(ValueError, match="too coarse"):
            evolve_grid(scaled, spec)

    @pytest.mark.parametrize("spec_kw, t_end_over_T5", [
        ({}, 2.0),                  # past recombination, lambda frozen
        ({}, -0.5),                 # would be a 0-step run
        ({"dt": 0.0}, None),
        ({"dt": -1e-3}, 0.25),      # would take one step per segment
        ({"dt": math.inf}, None),
        ({"snapshot_stride": 0}, None),
        ({"n": 0}, None),           # was a bare ZeroDivisionError
        ({"z_min": 32.0, "z_max": -32.0}, None),
    ], ids=["past-T5", "negative-t_end", "zero-dt", "negative-dt",
            "infinite-dt", "zero-stride", "zero-n", "reversed-bounds"])
    def test_invalid_run_rejected(self, scaled, spec_small, spec_kw,
                                  t_end_over_T5):
        t_end = (None if t_end_over_T5 is None
                 else t_end_over_T5 * scaled.protocol.T5)
        with pytest.raises(ValueError, match="must"):
            evolve_grid(scaled, replace(spec_small, **spec_kw), t_end=t_end)


def overlap_config():
    """Heavy slow-spreading packet far narrower than the sphere, for
    convolution-vs-quadratic checks in the overlap regime."""
    # omega_s = sqrt(G m / R^3) = 0.3
    return replace(
        scaled_config(),
        constants=ConstantsSet(name="overlap-natural", G=0.225, hbar=1.0,
                               mu_B=1.0, g_factor=2.0),
        sphere=SphereParams(mass=50.0, radius=5.0),
        initial=InitialState(Q0=0.01))


class TestConvolutionMode:
    def test_quadratic_truncation_spot_check(self):
        # narrow normalized density against the exact kernel: value at the
        # center is -(6/5) G m^2/R + (m w^2/2) Q; the curvature is m w^2
        # reduced by the kernel's cubic term, (9/8)<|s|>/R relative
        cfg = overlap_config()
        c = cfg.constants
        sphere = cfg.sphere
        n = 4096
        z = np.linspace(-2.0, 2.0, n, endpoint=False)
        sq = 0.04  # width well under R = 5
        dens = np.exp(-(z**2) / (2 * sq * sq))
        dens /= dens.sum() * (z[1] - z[0])
        v = self_potential_convolution(z, dens,
                                       _convolution_kernel(z, sphere, c))
        w = omega_s(sphere, c)
        m = sphere.mass
        center = n // 2
        expected_center = (-1.2 * c.G * m * m / sphere.radius
                           + 0.5 * m * w * w * sq * sq)
        assert v[center] == pytest.approx(expected_center, rel=1e-4)
        window = abs(z) < 2.5 * sq
        curv = np.polyfit(z[window], v[window], 2)[0]
        mean_abs_s = sq * math.sqrt(2.0 / math.pi)
        expected_curv = m * w * w * (1.0 - 9.0 / 8.0 * mean_abs_s
                                     / sphere.radius)
        assert 2.0 * curv == pytest.approx(expected_curv, rel=5e-3)

    def test_full_convolution_evolution_matches_quadratic(self):
        # overlap regime only: no gradient, packets co-located, so the
        # convolution mode must reproduce the quadratic-model widths up to
        # (width/R)^3 kernel corrections
        cfg = overlap_config()
        spec = GridSpec(n=512, z_min=-2.0, z_max=2.0, dt=2e-3,
                        snapshot_stride=100)
        base = evolve_grid(no_gradient(cfg), spec, t_end=1.0)
        conv = evolve_grid(no_gradient(cfg), spec, t_end=1.0,
                           full_convolution=True)
        q_b = base.moments.Q[:, 0]
        q_c = conv.moments.Q[:, 0]
        # the residual is the real cubic-kernel correction: curvature softer
        # by (9/8)<|s|>/R ~ 2%, entering the width at order (omega t)^2
        w = omega_s(cfg.sphere, cfg.constants)
        bound = 2.0 * (9.0 / 8.0) * (0.8 * math.sqrt(q_b.max())
                                     / cfg.sphere.radius) * (w * 1.0) ** 2
        dev = float(np.abs(q_c / q_b - 1.0).max())
        assert dev < bound
        assert conv.delta_phi_final == pytest.approx(base.delta_phi_final,
                                                     abs=1e-6)


class TestCenterPhase:
    def test_reads_quadratic_phase_at_center(self, scaled, spec_small):
        state = initial_grid_state(scaled, spec_small)
        phi0, k0, curv = 0.7, 2.0, 0.3
        state.psi[0] *= np.exp(1j * (phi0 + k0 * state.z + curv * state.z**2))
        phase = center_phase(
            state, extract_moments(state, scaled.constants.hbar).mean_z)
        assert phase[0] == pytest.approx(phi0, abs=1e-9)
        assert phase[1] == pytest.approx(0.0, abs=1e-9)


class TestIndependence:
    def test_no_closed_form_imports(self):
        # the grid solver is an oracle only while it shares no code with
        # the Gaussian closed forms it checks
        tree = ast.parse(Path(sgphase.oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                imported.add(mod if node.level == 0 else f"sgphase.{mod}")
                if node.level == 1 and not mod:
                    imported.update(f"sgphase.{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
        assert "sgphase.params" in imported  # the walk sees the imports
        assert not imported & {"sgphase.gaussian", "sgphase.phase"}
