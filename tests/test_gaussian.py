import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgphase.gaussian import (_nuclear_crossing, integral_inv_q, integral_q,
                              moments_from_a, propagate_a, regime_intervals)
from sgphase.params import (Branch, ConstantsSet, baseline_config, omega_s,
                            separation_time)
from sgphase.phase import PhasePipeline
from sgphase.potential import NUCLEAR_BOOST, NUCLEON_SCALE
from sgphase.trajectories import protocol_segments, separation_window

from reference import spread_P, spread_Q

nu_strategy = st.floats(min_value=0.05, max_value=1.0)
t_strategy = st.floats(min_value=0.0, max_value=2.0)


def intervals(config, branch):
    window = separation_window(protocol_segments(config))
    return regime_intervals(config, branch, window)


def scaled_g(config, factor):
    c = config.constants
    return replace(config, constants=ConstantsSet(
        name=f"{c.name}-gx{factor:g}", G=c.G * factor, hbar=c.hbar,
        mu_B=c.mu_B, g_factor=c.g_factor))


class TestAnalyticA:
    def test_initial_condition(self, baseline):
        A0 = complex(0.5 / baseline.initial.Q0, 0.0)
        w = omega_s(baseline.sphere, baseline.constants)
        assert propagate_a(A0, 1.0, w, baseline.sphere.mass,
                           baseline.constants.hbar, 0.0) == A0

    @given(t_strategy, nu_strategy)
    def test_re_inverse_matches_reference_form(self, t, nu):
        cfg = baseline_config()
        w = omega_s(cfg.sphere, cfg.constants)
        Q0 = cfg.initial.Q0
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        A = propagate_a(complex(0.5 / Q0, 0.0), nu, w, m, hbar, t)
        th = nu * w * t
        expected = (2.0 * Q0 * math.cos(th) ** 2
                    + (hbar * math.sin(th)) ** 2
                    / (2.0 * m * m * w * w * nu * nu * Q0))
        assert 1.0 / A.real == pytest.approx(expected, rel=1e-12)

    def test_quarter_period_extremum(self, baseline):
        cfg = scaled_g(baseline, 1.0)
        w = omega_s(cfg.sphere, cfg.constants)
        nu = 0.5
        t = math.pi / (2.0 * nu * w)
        Q = spread_Q(t, nu, cfg)
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        assert Q == pytest.approx(hbar**2 / (4 * m * m * w * w * nu * nu
                                             * cfg.initial.Q0), rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0), nu_strategy)
    def test_propagation_group_property(self, t1, t2, nu):
        cfg = baseline_config()
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        w = omega_s(cfg.sphere, cfg.constants)
        A0 = complex(0.5 / cfg.initial.Q0, 0.0)
        direct = propagate_a(A0, nu, w, m, hbar, t1 + t2)
        chained = propagate_a(propagate_a(A0, nu, w, m, hbar, t1),
                              nu, w, m, hbar, t2)
        assert cmath.isclose(direct, chained, rel_tol=1e-12)

    def test_free_limit_degeneracy(self, baseline):
        cfg = scaled_g(baseline, 1e-24)  # omega_s scaled by 1e-12
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        A0 = 0.5 / cfg.initial.Q0
        w = omega_s(cfg.sphere, cfg.constants)
        for t in (0.1, 0.5, 1.0, 2.0):
            free = A0 / (1.0 + 1j * hbar * A0 * t / m)
            harm = propagate_a(complex(A0, 0.0), 1.0, w, m, hbar, t)
            assert cmath.isclose(harm, free, rel_tol=1e-9)

    def test_omega_zero_uses_free_law(self, baseline):
        cfg = scaled_g(baseline, 0.0)
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        A0 = 0.5 / cfg.initial.Q0
        w = omega_s(cfg.sphere, cfg.constants)
        A = propagate_a(complex(A0, 0.0), 1.0, w, m, hbar, 1.0)
        assert cmath.isclose(A, A0 / (1.0 + 1j * hbar * A0 / m), rel_tol=1e-15)


class TestMoments:
    @given(st.floats(min_value=1e15, max_value=1e19),
           st.floats(min_value=-1e18, max_value=1e18))
    def test_pure_state_identity(self, re_a, im_a):
        hbar = 1e-34
        Q, P, sigma = moments_from_a(complex(re_a, im_a), 5.5e-15, hbar)
        assert Q * P - sigma * sigma == pytest.approx(hbar**2 / 4.0, rel=1e-12)

    def test_nonnormalizable_rejected(self):
        with pytest.raises(ValueError):
            moments_from_a(complex(-1.0, 0.0), 1.0, 1.0)


class TestSpreads:
    def test_minimum_uncertainty_at_start(self, baseline):
        Q0 = baseline.initial.Q0
        hbar = baseline.constants.hbar
        assert spread_Q(0.0, 1.0, baseline) == Q0
        assert spread_P(0.0, 1.0, baseline) == pytest.approx(
            hbar**2 / (4.0 * Q0), rel=1e-15)

    @given(t_strategy, nu_strategy)
    def test_heisenberg_floor(self, t, nu):
        cfg = baseline_config()
        hbar = cfg.constants.hbar
        prod = spread_Q(t, nu, cfg) * spread_P(t, nu, cfg)
        assert prod - hbar**2 / 4.0 >= -1e-20 * hbar**2

    @given(t_strategy, nu_strategy)
    def test_spread_matches_propagate_a(self, t, nu):
        cfg = baseline_config()
        A = propagate_a(complex(0.5 / cfg.initial.Q0, 0.0), nu,
                        omega_s(cfg.sphere, cfg.constants), cfg.sphere.mass,
                        cfg.constants.hbar, t)
        assert spread_Q(t, nu, cfg) == pytest.approx(0.5 / A.real, rel=1e-12)

    def test_baseline_spreading_and_self_gravity_correction(self, baseline):
        t = 2.0
        Q0 = baseline.initial.Q0
        m = baseline.sphere.mass
        hbar = baseline.constants.hbar
        w = omega_s(baseline.sphere, baseline.constants)
        q_free = Q0 * (1.0 + (hbar * t / (2.0 * m * Q0)) ** 2)
        q = spread_Q(t, 1.0, baseline)
        assert q == pytest.approx(q_free, rel=1e-5)
        rel = (q_free - q) / q
        assert rel == pytest.approx((w * t) ** 2, rel=0.05)
        assert 0.5e-6 < rel < 3e-6

    def test_free_particle_reference(self, baseline):
        cfg = scaled_g(baseline, 0.0)
        t = 1.7
        Q0 = cfg.initial.Q0
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        assert spread_Q(t, 1.0, cfg) == pytest.approx(
            Q0 * (1 + (hbar * t / (2 * m * Q0)) ** 2), rel=1e-15)
        assert spread_P(t, 1.0, cfg) == pytest.approx(hbar**2 / (4 * Q0),
                                                      rel=1e-15)

    def test_free_reference_bounds_plus_branch(self, baseline):
        # self-gravity only narrows: the plus branch starts at Q0 and
        # never spreads wider than the free packet
        plus = PhasePipeline(baseline).branches[Branch.PLUS]
        Q0 = baseline.initial.Q0
        m = baseline.sphere.mass
        hbar = baseline.constants.hbar
        t = np.linspace(0.0, 2.0, 7)
        q_plus = np.array([plus.q(ti) for ti in t])
        q_free = Q0 * (1.0 + (hbar * t / (2.0 * m * Q0)) ** 2)
        assert q_plus[0] == pytest.approx(Q0)
        assert np.all(q_plus > 0)
        assert np.all(q_free[1:] >= q_plus[1:])


def _breathing_config(g_factor: float):
    """Visible harmonic breathing with a packet near the equilibrium width,
    so adaptive quadrature resolves every oscillation."""
    return scaled_g(baseline_config(sqrt_Q0=1e-10), g_factor)


def _pole_times(nu, w, tau):
    out = []
    k = 0
    while (k + 0.5) * math.pi / (nu * w) < tau:
        out.append((k + 0.5) * math.pi / (nu * w))
        k += 1
    return out


class TestSegmentIntegrals:
    @given(t_strategy, nu_strategy)
    def test_inv_q_against_quadrature(self, tau, nu):
        from scipy.integrate import quad
        cfg = _breathing_config(1.1e7)  # omega_s ~ 2 rad/s
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        w = omega_s(cfg.sphere, cfg.constants)
        A0 = complex(0.5 / cfg.initial.Q0, 0.0)
        closed = integral_inv_q(A0, nu, w, m, hbar, tau)
        val, _ = quad(lambda s: 1.0 / spread_Q(s, nu, cfg), 0.0, tau,
                      points=_pole_times(nu, w, tau) or None, limit=500)
        assert closed == pytest.approx(val, rel=1e-8, abs=1e-12)

    @given(t_strategy, nu_strategy)
    def test_q_against_quadrature(self, tau, nu):
        from scipy.integrate import quad
        cfg = _breathing_config(1.1e7)
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        w = omega_s(cfg.sphere, cfg.constants)
        A0 = complex(0.5 / cfg.initial.Q0, 0.0)
        closed = integral_q(A0, nu, w, m, hbar, tau)
        val, _ = quad(lambda s: spread_Q(s, nu, cfg), 0.0, tau, limit=500)
        assert closed == pytest.approx(val, rel=1e-9, abs=1e-30)

    def test_inv_q_pole_continuation(self):
        # nu w tau ~ 12 rad: the arctan antiderivative must be continued
        # through several tangent poles
        from scipy.integrate import quad
        cfg = _breathing_config(1e8)  # omega_s ~ 6 rad/s
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        w = omega_s(cfg.sphere, cfg.constants)
        A0 = complex(0.5 / cfg.initial.Q0, 0.0)
        tau = 2.0
        closed = integral_inv_q(A0, 1.0, w, m, hbar, tau)
        val, _ = quad(lambda s: 1.0 / spread_Q(s, 1.0, cfg), 0.0, tau,
                      points=_pole_times(1.0, w, tau), limit=800)
        assert len(_pole_times(1.0, w, tau)) >= 3
        assert closed == pytest.approx(val, rel=1e-8)


class TestRegimeIntervals:
    def test_baseline_structure(self, baseline):
        ivs = intervals(baseline, Branch.PLUS)
        Ts = separation_time(baseline)
        assert len(ivs) == 3
        assert [iv.nu for iv in ivs] == pytest.approx(
            [1.0, baseline.weights.beta(Branch.PLUS), 1.0])
        assert ivs[1].t_lo == pytest.approx(Ts, rel=1e-12)
        assert ivs[2].t_lo == pytest.approx(baseline.protocol.T5 - Ts,
                                            rel=1e-12)

    def test_a_continuous_at_switches(self, baseline):
        ab = PhasePipeline(baseline).branches[Branch.MINUS]
        for iv_prev, iv_next in zip(ab.intervals[:-1], ab.intervals[1:]):
            left = propagate_a(iv_prev.A_start, iv_prev.nu, iv_prev.omega,
                               baseline.sphere.mass, baseline.constants.hbar,
                               iv_prev.t_hi - iv_prev.t_lo)
            assert cmath.isclose(left, iv_next.A_start, rel_tol=1e-14)

    def test_nuclear_boost_window(self):
        cfg = baseline_config(sqrt_Q0=1e-13, nuclear_correction=True)
        ivs = intervals(cfg, Branch.PLUS)
        w0 = omega_s(cfg.sphere, cfg.constants)
        assert ivs[0].omega == pytest.approx(NUCLEAR_BOOST * w0)
        # free-spreading estimate of the crossing time sqrt(Q) = 1e-12 m
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        Q0 = cfg.initial.Q0
        t_star = (2 * m * Q0 / hbar) * math.sqrt((1e-12) ** 2 / Q0 - 1.0)
        assert ivs[0].t_hi == pytest.approx(t_star, rel=1e-3)
        assert ivs[1].omega == pytest.approx(w0)

    def test_nuclear_boost_negligible_for_wide_packets(self, baseline):
        cfg = replace(baseline, nuclear_correction=True)
        ivs_on = intervals(cfg, Branch.PLUS)
        ivs_off = intervals(baseline, Branch.PLUS)
        assert [iv.omega for iv in ivs_on] == [iv.omega for iv in ivs_off]


HBAR = 1.0545718e-34


class TestNuclearCrossing:
    @pytest.mark.parametrize("q0_over_t, mass, rel", [
        # Q = (T/4) cos^2 th + T (1 + 1e-8) sin^2 th (m from Q P = hbar^2/4)
        # reaches T only within ~1e-4 rad of each peak th = pi/2 + k pi, far
        # narrower than a scan step over ten half-periods: the crossing is
        # the first peak's root
        (0.25, HBAR / (NUCLEON_SCALE**2 * math.sqrt(1.0 + 1e-8)), 1e-12),
        # with Q0 just below T the slope of Q at the root is so small that
        # the rounding of the propagated Q takes thousands of ulps of t to
        # clear
        (1.0 - 12e-6, 5.5e-15, 1e-10),
    ], ids=["narrow", "just-below-the-scale"])
    def test_first_root(self, q0_over_t, mass, rel):
        T = NUCLEON_SCALE**2
        A0 = complex(0.5 / (q0_over_t * T), 0.0)
        # alpha and beta as the crossing reads them
        Q0, P0, _ = moments_from_a(A0, mass, HBAR)
        beta = P0 / (mass * mass)
        t = _nuclear_crossing(A0, 1.0, 1.0, mass, HBAR, 0.0, 10.0 * math.pi)
        assert t == pytest.approx(math.atan(math.sqrt((T - Q0) / (beta - T))),
                                  rel=rel)
        assert moments_from_a(propagate_a(A0, 1.0, 1.0, mass, HBAR, t),
                              mass, HBAR)[0] >= T

    def test_free_packet_crossing(self):
        # nu omega = 0: Q = Q0 + P0 tau^2 / m^2 from a sigma = 0 start
        T = NUCLEON_SCALE**2
        m = 5.5e-15
        A0 = complex(0.5 / (T / 9.0), 0.0)
        Q0, P0, _ = moments_from_a(A0, m, HBAR)
        t = _nuclear_crossing(A0, 0.0, 1.0, m, HBAR, 0.0, 1.0)
        assert t == pytest.approx(m * math.sqrt((T - Q0) / P0), rel=1e-12)
        assert moments_from_a(propagate_a(A0, 0.0, 1.0, m, HBAR, t),
                              m, HBAR)[0] >= T

    def test_boosted_bounds_are_floats(self):
        cfg = baseline_config(sqrt_Q0=1e-13, nuclear_correction=True)
        pipe = PhasePipeline(cfg)
        w0 = omega_s(cfg.sphere, cfg.constants)
        for b in Branch:
            ivs = pipe.branches[b].intervals
            assert ivs[0].omega > w0   # the crossing path runs
            for iv in ivs:
                assert type(iv.t_lo) is float and type(iv.t_hi) is float
        assert type(pipe.breakdown().delta_phi) is float
