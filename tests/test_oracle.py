import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sgphase.oracle
from sgphase.gaussian import AnalyticBranch, spread_Q
from sgphase.oracle import (GridEscapeError, GridSpec, PhaseUnwrapError,
                            StepSizeError, center_phase, evolve_grid,
                            extract_moments, initial_grid_state, norm_sq,
                            scaled_config, self_potential_convolution)
from sgphase.params import (Branch, ConstantsSet, InitialState,
                            SphereParams, SpinWeights, omega_s)
from sgphase.phase import PhasePipeline
from sgphase.trajectories import mean_state


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


class TestMoments:
    def test_initial_gaussian(self, scaled, spec_small):
        state = initial_grid_state(scaled, spec_small)
        m = extract_moments(state, Branch.PLUS, scaled.constants.hbar)
        hbar = scaled.constants.hbar
        Q0 = scaled.initial.Q0
        assert m.mean_z == pytest.approx(0.0, abs=1e-12)
        assert m.mean_p == pytest.approx(0.0, abs=1e-12)
        assert m.Q == pytest.approx(Q0, rel=1e-9)
        assert m.P == pytest.approx(hbar**2 / (4 * Q0), rel=1e-9)
        assert m.Q * m.P >= hbar**2 / 4.0 * (1.0 - 1e-6)

    def test_translation_covariance(self, scaled, spec_small):
        state = initial_grid_state(scaled, spec_small)
        a = 3.0
        state.psi_plus = np.exp(-(state.z - a) ** 2
                                / (4.0 * scaled.initial.Q0)).astype(complex)
        state.psi_plus /= math.sqrt(norm_sq(state, Branch.PLUS))
        m = extract_moments(state, Branch.PLUS, scaled.constants.hbar)
        assert m.mean_z == pytest.approx(a, rel=1e-9)
        assert m.Q == pytest.approx(scaled.initial.Q0, rel=1e-9)

    def test_boost_covariance(self, scaled, spec_small):
        state = initial_grid_state(scaled, spec_small)
        k0 = 5.0
        state.psi_plus = state.psi_plus * np.exp(1j * k0 * state.z)
        m = extract_moments(state, Branch.PLUS, scaled.constants.hbar)
        assert m.mean_p == pytest.approx(scaled.constants.hbar * k0, rel=1e-9)


class TestFreeSpreading:
    def test_matches_exact_law(self, scaled, spec_small):
        cfg = no_gravity(scaled)
        run = evolve_grid(cfg, spec_small, include_gradient=False)
        hbar = cfg.constants.hbar
        m = cfg.sphere.mass
        Q0 = cfg.initial.Q0
        law = Q0 * (1.0 + (hbar * run.t / (2 * m * Q0)) ** 2)
        for b in Branch:
            rel = np.abs(run.q_history(b) - law) / law
            assert float(rel.max()) < 1e-6

    def test_symmetric_null_phase(self, scaled, spec_small):
        cfg = replace(no_gravity(scaled), weights=SpinWeights(0.5, 0.5))
        run = evolve_grid(cfg, spec_small)
        assert abs(run.delta_phi_final) < 1e-4

    def test_norm_conserved(self, scaled, spec_small):
        run = evolve_grid(no_gravity(scaled), spec_small)
        assert run.max_norm_drift < 1e-9


class TestHarmonicOnly:
    def test_width_matches_closed_form(self, scaled, spec_small):
        run = evolve_grid(scaled, spec_small, forced_nu=1.0,
                          include_gradient=False)
        q_ref = np.array([spread_Q(t, 1.0, scaled) for t in run.t])
        for b in Branch:
            rel = np.abs(run.q_history(b) - q_ref) / q_ref
            assert float(rel.max()) < 1e-6


class TestEhrenfest:
    def test_means_track_trajectories(self, scaled, spec_small):
        run = evolve_grid(scaled, spec_small)
        z_ref = np.array([mean_state(Branch.PLUS, t, scaled).mean_z
                          for t in run.t])
        p_ref = np.array([mean_state(Branch.PLUS, t, scaled).mean_p
                          for t in run.t])
        z_scale = float(np.abs(z_ref).max())
        p_scale = float(np.abs(p_ref).max())
        assert np.abs(run.mean_z_history(Branch.PLUS) - z_ref).max() \
            < 1e-4 * z_scale
        assert np.abs(run.mean_p_history(Branch.PLUS) - p_ref).max() \
            < 1e-4 * p_scale


class TestPhaseExtraction:
    def test_constant_offset_phase(self, scaled, spec_small):
        # a flat extra potential on one branch shifts the phase difference
        # by exactly -V0 tau / hbar
        cfg = replace(no_gravity(scaled), weights=SpinWeights(0.5, 0.5))
        v0 = 0.04
        tau = 0.8

        def bump(z, t):
            return v0 if t <= tau else 0.0

        run = evolve_grid(cfg, spec_small, include_gradient=False,
                          extra_potential_plus=bump)
        expected = -v0 * tau / cfg.constants.hbar
        assert run.delta_phi_final == pytest.approx(expected, rel=1e-6)

    def test_unwrap_guard(self, scaled):
        # force > pi/2 jumps between snapshots with a fast dephasing and a
        # sparse history
        cfg = replace(no_gravity(scaled), weights=SpinWeights(0.5, 0.5))
        spec = GridSpec(n=1024, z_min=-32.0, z_max=32.0, dt=1e-3,
                        snapshot_stride=10**9)

        def fast(z, t):
            return 40.0

        with pytest.raises(PhaseUnwrapError):
            evolve_grid(cfg, spec, t_end=0.25, include_gradient=False,
                        extra_potential_plus=fast)


class TestScaledCrossCheck:
    def test_phase_and_widths_match_closed_forms(self, scaled):
        spec = GridSpec(n=2048, z_min=-32.0, z_max=32.0, dt=1e-3,
                        snapshot_stride=100)
        run = evolve_grid(scaled, spec)
        closed = PhasePipeline(scaled).delta_phi()
        assert run.delta_phi_final == pytest.approx(closed, rel=1e-2)
        branches = {b: AnalyticBranch(scaled, b) for b in Branch}
        for b in Branch:
            q_ref = np.array([branches[b].q(t) for t in run.t])
            rel = np.abs(run.q_history(b) - q_ref) / q_ref
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


class TestCrossTermRouting:
    def test_pure_plus_weights_feel_no_cross_term(self, scaled):
        # with weights (1, 0): nu_+ = 1 always, so the plus branch keeps the
        # full harmonic self-term through the separation window and never
        # acquires a Newton cross term; the minus branch drops to nu = 0
        # (free spreading) while separated
        cfg = replace(scaled, weights=SpinWeights(1.0, 0.0))
        spec = GridSpec(n=2048, z_min=-32.0, z_max=32.0, dt=1e-3,
                        snapshot_stride=100)
        run = evolve_grid(cfg, spec)
        q_plus_ref = np.array([spread_Q(t, 1.0, cfg) for t in run.t])
        minus_ref = AnalyticBranch(cfg, Branch.MINUS)
        q_minus_ref = np.array([minus_ref.q(t) for t in run.t])
        assert float((np.abs(run.q_history(Branch.PLUS) - q_plus_ref)
                      / q_plus_ref).max()) < 1e-4
        assert float((np.abs(run.q_history(Branch.MINUS) - q_minus_ref)
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
        v = self_potential_convolution(z, dens, sphere, c)
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
        base = evolve_grid(cfg, spec, t_end=1.0, include_gradient=False)
        conv = evolve_grid(cfg, spec, t_end=1.0, include_gradient=False,
                           full_convolution=True)
        q_b = base.q_history(Branch.PLUS)
        q_c = conv.q_history(Branch.PLUS)
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
        state.psi_plus = state.psi_plus * np.exp(
            1j * (phi0 + k0 * state.z + curv * state.z**2))
        assert center_phase(state, Branch.PLUS) == pytest.approx(phi0,
                                                                 abs=1e-9)


class TestStateHistory:
    def test_snapshots_and_phase_extraction(self, scaled, spec_small, tmp_path):
        from sgphase.oracle import (dump_state_csv, extract_phase,
                                    extract_phase_difference)
        run = evolve_grid(scaled, spec_small, t_end=0.5,
                          state_times=[0.0, 0.2, 0.4])
        assert run.states is not None and len(run.states) == 3
        assert run.states[0].t == 0.0
        assert run.states[1].t >= 0.2
        # extraction over the recorded states reproduces the run history
        diff = extract_phase_difference(run.states)
        for st, d in zip(run.states, diff):
            idx = int(np.argmin(np.abs(run.t - st.t)))
            assert d == pytest.approx(float(run.delta_phi[idx]), abs=1e-9)
        phases = extract_phase(run.states, Branch.PLUS)
        assert phases.shape == (3,)
        # dump format: one row per grid point, both branches
        path = tmp_path / "snap.csv"
        dump_state_csv(run.states[-1], path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("z_m,re_psi_plus,im_psi_plus,"
                            "re_psi_minus,im_psi_minus")
        assert len(lines) == spec_small.n + 1


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
