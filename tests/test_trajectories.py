import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from sgphase.params import (Branch, ConstantsSet, Protocol, SphereParams,
                            baseline_config, separation_time)
from sgphase.phase import PhasePipeline
from sgphase.trajectories import (branch_distance, mean_state,
                                  plateau_distance, protocol_segments,
                                  separation_window)

from reference import action_parts, lambda_of_t

times_strategy = st.floats(min_value=0.0, max_value=2.0)


@pytest.fixture(scope="module")
def traj(baseline):
    return protocol_segments(baseline)


def dyadic_protocol(k1: int, kh: int, b0: float = 0.0) -> Protocol:
    scale = 2.0**-12
    return Protocol.from_t1(k1 * scale, hold=kh * scale, B0=b0)


def classical_phases(config, t=None):
    """Classical action S/hbar of each branch mean up to t (rad), as the
    shipped breakdown assembles it from `action_piece` per segment."""
    bd = PhasePipeline(config).breakdown(t)
    return {Branch.PLUS: bd.plus.classical, Branch.MINUS: bd.minus.classical}


class TestLambda:
    def test_segment_values(self, baseline):
        p = baseline.protocol
        assert lambda_of_t(0.1, p) == 1
        assert lambda_of_t(1.0, p) == 0
        assert lambda_of_t(0.3, p) == -1
        assert lambda_of_t(1.6, p) == -1
        assert lambda_of_t(1.9, p) == 1

    def test_boundary_table(self, baseline):
        p = baseline.protocol
        assert lambda_of_t(0.0, p) == 1
        assert lambda_of_t(p.T1, p) == 1
        assert lambda_of_t(p.T2, p) == 0
        assert lambda_of_t(p.T3, p) == 0
        assert lambda_of_t(p.T4, p) == -1
        assert lambda_of_t(p.T5, p) == 1

    def test_out_of_range(self, baseline):
        with pytest.raises(ValueError):
            lambda_of_t(-0.1, baseline.protocol)
        with pytest.raises(ValueError):
            lambda_of_t(2.5, baseline.protocol)

    def test_partial_integral(self, baseline, traj):
        p = baseline.protocol
        assert action_parts(traj, p.T1)[1] == pytest.approx(p.T1)
        assert action_parts(traj, p.T2)[1] == pytest.approx(0.0, abs=1e-15)
        assert action_parts(traj)[1] == pytest.approx(0.0, abs=1e-15)


class TestMeanState:
    def test_endpoints(self, baseline, traj):
        for b in Branch:
            z_start, p_start = mean_state(b, 0.0, traj)
            z_end, p_end = mean_state(b, baseline.protocol.T5, traj)
            assert z_start == 0.0 and p_start == 0.0
            assert abs(z_end) < 1e-18
            assert abs(p_end) < 1e-30

    def test_plateau_values(self, baseline, traj):
        # independent closed form: z = (g mu_B / 2m) B0' T1^2 on the plateau
        c = baseline.constants
        expected = (c.g_factor * c.mu_B / (2.0 * baseline.sphere.mass)
                    * baseline.protocol.B0_grad * baseline.protocol.T1**2)
        z, p = mean_state(Branch.PLUS, 1.0, traj)
        assert z == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.054e-4, rel=1e-3)
        assert p == 0.0
        assert branch_distance(1.0, traj) == pytest.approx(2.1e-4, rel=5e-3)

    def test_momentum_after_first_kick(self, baseline_codata):
        # (g mu_B / 2) B0' T1 evaluated independently
        _, p = mean_state(Branch.PLUS, 0.25,
                          protocol_segments(baseline_codata))
        expected = 9.274e-24 * 1e6 * 0.25
        assert p == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.32e-18, rel=2e-3)

    def test_continuity_at_boundaries(self, baseline, traj):
        # the jump across each boundary must be pure slope, no offset
        eps = 1e-9
        m = baseline.sphere.mass
        F = traj.F
        zs = abs(mean_state(Branch.PLUS, 1.0, traj)[0])
        ps = abs(mean_state(Branch.PLUS, 0.25, traj)[1])
        for T in baseline.protocol.times[:4]:
            z_before, p_before = mean_state(Branch.PLUS, T - eps, traj)
            z_after, p_after = mean_state(Branch.PLUS, T + eps, traj)
            _, p_at = mean_state(Branch.PLUS, T, traj)
            z_jump = abs(z_after - z_before) - 2 * eps * abs(p_at) / m
            p_jump = abs(p_after - p_before) - 2 * eps * F
            assert z_jump <= 1e-12 * zs
            assert p_jump <= 1e-12 * ps

    @given(times_strategy)
    def test_antisymmetry(self, t):
        traj = protocol_segments(baseline_config())
        z_plus, p_plus = mean_state(Branch.PLUS, t, traj)
        z_minus, p_minus = mean_state(Branch.MINUS, t, traj)
        assert z_minus == -z_plus
        assert p_minus == -p_plus

    def test_velocity_is_momentum_over_mass(self, baseline, traj):
        h = 1e-7
        m = baseline.sphere.mass
        for t in (0.1, 0.4, 1.0, 1.6, 1.9):
            dz = (mean_state(Branch.PLUS, t + h, traj)[0]
                  - mean_state(Branch.PLUS, t - h, traj)[0]) / (2 * h)
            p = mean_state(Branch.PLUS, t, traj)[1]
            if p == 0.0:
                assert dz == pytest.approx(0.0, abs=1e-12)
            else:
                assert dz == pytest.approx(p / m, rel=1e-6)

    def test_shape_triangular_with_flat_top(self, traj):
        ts = np.linspace(0, 2.0, 401)
        zs = np.array([mean_state(Branch.PLUS, t, traj)[0] for t in ts])
        plateau = (ts >= 0.5) & (ts <= 1.5)
        assert np.ptp(zs[plateau]) == pytest.approx(0.0, abs=1e-18)
        rising = (ts > 0.01) & (ts < 0.49)
        assert np.all(np.diff(zs[rising]) > 0)
        falling = (ts > 1.51) & (ts < 1.99)
        assert np.all(np.diff(zs[falling]) < 0)

    def test_out_of_range(self, traj):
        with pytest.raises(ValueError):
            mean_state(Branch.PLUS, -0.5, traj)


class TestSelfGravityIndependence:
    def test_bitwise_invariance_under_G(self, baseline, traj):
        g_off = protocol_segments(replace(baseline, constants=ConstantsSet(
            name="g-off", G=0.0, hbar=1e-34, mu_B=9.274e-24, g_factor=2.0)))
        for t in np.linspace(0.0, 2.0, 97):
            z_a, p_a = mean_state(Branch.PLUS, float(t), traj)
            z_b, p_b = mean_state(Branch.PLUS, float(t), g_off)
            assert z_a == z_b
            assert p_a == p_b

    def test_independent_of_weights_and_spread(self, baseline, traj):
        from sgphase.params import InitialState, SpinWeights
        other = protocol_segments(replace(
            baseline, weights=SpinWeights.from_plus(0.9),
            initial=InitialState.from_sqrt(1e-13)))
        for t in (0.1, 0.7, 1.9):
            assert (mean_state(Branch.PLUS, t, traj)[0]
                    == mean_state(Branch.PLUS, t, other)[0])


class TestSeparationWindow:
    def test_baseline_window_matches_formula(self, baseline, traj):
        t_in, t_out = separation_window(traj)
        Ts = separation_time(baseline)
        assert t_in == pytest.approx(Ts, rel=1e-12)
        assert t_out == pytest.approx(baseline.protocol.T5 - Ts, rel=1e-12)
        assert branch_distance(t_in, traj) == pytest.approx(
            2.0 * baseline.sphere.radius, rel=1e-12)

    def test_short_protocol_crosses_in_second_segment(self, short_protocol):
        t_in, t_out = separation_window(protocol_segments(short_protocol))
        p = short_protocol.protocol
        assert p.T1 < t_in < p.T2
        # root of the second-segment quadratic, solved independently
        c = short_protocol.constants
        a_d = (c.g_factor * c.mu_B * p.B0_grad
               / (2.0 * short_protocol.sphere.mass))
        R = short_protocol.sphere.radius
        expected = 2.0 * p.T1 - math.sqrt(2.0 * p.T1**2 - 2.0 * R / a_d)
        assert t_in == pytest.approx(expected, rel=1e-10)
        assert t_out == pytest.approx(p.T5 - expected, rel=1e-10)

    def test_never_separates(self, baseline):
        fat = replace(baseline, sphere=SphereParams(mass=5.5e-15, radius=1e-3))
        assert separation_window(protocol_segments(fat)) is None

    def test_plateau_distance(self, short_protocol):
        d = plateau_distance(short_protocol)
        assert d == pytest.approx(2.108e-6, rel=1e-3)


class TestClassicalAction:
    def test_branches_equal_at_T5(self, baseline):
        s = classical_phases(baseline)
        assert s[Branch.PLUS] == s[Branch.MINUS]

    @given(st.integers(min_value=64, max_value=2048),
           st.integers(min_value=0, max_value=4096),
           st.floats(min_value=0.0, max_value=0.1))
    def test_branch_difference_vanishes(self, k1, kh, b0):
        cfg = replace(baseline_config(),
                      protocol=dyadic_protocol(k1, kh, b0))
        s = classical_phases(cfg)
        diff = s[Branch.PLUS] - s[Branch.MINUS]
        assert abs(diff) < 1e-10

    def test_uniform_field_part_cancels(self, baseline):
        with_b0 = replace(baseline,
                          protocol=replace(baseline.protocol, B0=0.1))
        assert classical_phases(with_b0)[Branch.PLUS] == pytest.approx(
            classical_phases(baseline)[Branch.PLUS], rel=1e-12)

    def test_zero_gradient_zero_action(self, baseline):
        p = baseline.protocol
        still = replace(baseline, protocol=replace(p, B0_grad=1e-300))
        hbar = still.constants.hbar
        assert classical_phases(still)[Branch.PLUS] * hbar == pytest.approx(
            0.0, abs=1e-250)

    def test_against_quadrature(self, baseline):
        # independent route: integrate the Lagrangian sampled from
        # mean_state and lambda_of_t
        cfg = replace(baseline, protocol=replace(baseline.protocol, B0=0.05))
        c = cfg.constants
        m = cfg.sphere.mass
        traj = protocol_segments(cfg)
        s = classical_phases(cfg)

        def lagrangian(t, branch):
            z, p = mean_state(branch, t, traj)
            lam = lambda_of_t(t, cfg.protocol)
            v_ext = (branch.sign * lam * 0.5 * c.g_factor * c.mu_B
                     * (cfg.protocol.B0 - cfg.protocol.B0_grad * z))
            return p**2 / (2.0 * m) - v_ext

        for branch in Branch:
            val, err = quad(lagrangian, 0.0, cfg.protocol.T5, args=(branch,),
                            points=list(cfg.protocol.times[:4]), limit=200,
                            epsabs=1e-18, epsrel=1e-12)
            assert s[branch] == pytest.approx(val / c.hbar, rel=1e-9)

    def test_partial_time(self, baseline, traj):
        # kinetic-only check on the first segment: S(t) = F^2 t^3 / 6m + grad part
        F = traj.F
        m = baseline.sphere.mass
        t = 0.1
        kin = F * F * t**3 / (6.0 * m)
        # gradient potential term: + int lam F z dt = F * alpha t^3 / 3
        alpha = F / (2.0 * m)
        grad = F * alpha * t**3 / 3.0
        assert classical_phases(baseline, t)[Branch.PLUS] == pytest.approx(
            (kin + grad) / baseline.constants.hbar, rel=1e-12)


class TestSegments:
    def test_segment_structure(self, baseline, traj):
        segs = traj.segments
        assert [s.lam for s in segs] == [1, -1, 0, -1, 1]
        assert segs[0].t_lo == 0.0
        assert segs[-1].t_hi == baseline.protocol.T5
        # start values chain continuously
        m = baseline.sphere.mass
        F = traj.F
        for prev, nxt in zip(segs[:-1], segs[1:]):
            tau = prev.t_hi - prev.t_lo
            z_end = prev.z0 + prev.p0 * tau / m + prev.lam * F * tau**2 / (2 * m)
            p_end = prev.p0 + prev.lam * F * tau
            assert nxt.z0 == pytest.approx(z_end, rel=1e-14, abs=1e-300)
            assert nxt.p0 == pytest.approx(p_end, rel=1e-14, abs=1e-300)
