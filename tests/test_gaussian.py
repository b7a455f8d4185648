import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgphase.gaussian import (AnalyticBranch, integral_inv_q, integral_q,
                              moments_from_a, propagate_a, regime_intervals,
                              spread_curve, spread_P, spread_Q,
                              width_difference, width_difference_exact)
from sgphase.params import (Branch, ConstantsSet, SpinWeights,
                            baseline_config, omega_s, separation_time)
from sgphase.potential import NUCLEAR_BOOST

nu_strategy = st.floats(min_value=0.05, max_value=1.0)
t_strategy = st.floats(min_value=0.0, max_value=2.0)


def scaled_g(config, factor):
    c = config.constants
    return replace(config, constants=ConstantsSet(
        name=f"{c.name}-gx{factor:g}", G=c.G * factor, hbar=c.hbar,
        mu_B=c.mu_B, g_factor=c.g_factor))


class TestAnalyticA:
    def test_initial_condition(self, baseline):
        from sgphase.gaussian import a_analytic
        A0 = a_analytic(0.0, 1.0, baseline)
        assert A0 == complex(0.5 / baseline.initial.Q0, 0.0)

    @given(t_strategy, nu_strategy)
    def test_re_inverse_matches_reference_form(self, t, nu):
        cfg = baseline_config()
        from sgphase.gaussian import a_analytic
        A = a_analytic(t, nu, cfg)
        w = omega_s(cfg.sphere, cfg.constants)
        Q0 = cfg.initial.Q0
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
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
        from sgphase.gaussian import a_analytic
        for t in (0.1, 0.5, 1.0, 2.0):
            free = A0 / (1.0 + 1j * hbar * A0 * t / m)
            harm = a_analytic(t, 1.0, cfg)
            assert cmath.isclose(harm, free, rel_tol=1e-9)

    def test_omega_zero_uses_free_law(self, baseline):
        cfg = scaled_g(baseline, 0.0)
        from sgphase.gaussian import a_analytic
        m = cfg.sphere.mass
        hbar = cfg.constants.hbar
        A0 = 0.5 / cfg.initial.Q0
        A = a_analytic(1.0, 1.0, cfg)
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
    def test_spread_matches_a_analytic(self, t, nu):
        cfg = baseline_config()
        from sgphase.gaussian import a_analytic
        A = a_analytic(t, nu, cfg)
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


class TestWidthDifference:
    def test_symmetric_weights_vanish(self, baseline):
        cfg = replace(baseline, weights=SpinWeights(0.5, 0.5))
        assert width_difference(1.0, cfg) == 0.0

    def test_baseline_formula(self, baseline):
        t = 1.3
        w = omega_s(baseline.sphere, baseline.constants)
        expected = -(baseline.initial.sqrt_Q0 / 6.0) * (w * t) ** 2
        assert width_difference(t, baseline) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_negligible_at_three_seconds(self, baseline):
        assert abs(width_difference(3.0, baseline)) <= 1e-15

    def test_formula_tracks_exact_difference(self, baseline):
        t = 2.0
        w = omega_s(baseline.sphere, baseline.constants)
        exact = width_difference_exact(t, baseline)
        formula = width_difference(t, baseline)
        assert exact == pytest.approx(formula,
                                      abs=abs(formula) * (w * t) * 5 + 1e-30)


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
        ivs = regime_intervals(baseline, Branch.PLUS)
        Ts = separation_time(baseline)
        assert len(ivs) == 3
        assert [iv.nu for iv in ivs] == pytest.approx(
            [1.0, baseline.weights.beta(Branch.PLUS), 1.0])
        assert ivs[1].t_lo == pytest.approx(Ts, rel=1e-12)
        assert ivs[2].t_lo == pytest.approx(baseline.protocol.T5 - Ts,
                                            rel=1e-12)

    def test_a_continuous_at_switches(self, baseline):
        ab = AnalyticBranch(baseline, Branch.MINUS)
        for iv_prev, iv_next in zip(ab.intervals[:-1], ab.intervals[1:]):
            left = propagate_a(iv_prev.A_start, iv_prev.nu, iv_prev.omega,
                               baseline.sphere.mass, baseline.constants.hbar,
                               iv_prev.t_hi - iv_prev.t_lo)
            assert cmath.isclose(left, iv_next.A_start, rel_tol=1e-14)

    def test_nuclear_boost_window(self):
        cfg = baseline_config(sqrt_Q0=1e-13, nuclear_correction=True)
        ivs = regime_intervals(cfg, Branch.PLUS)
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
        ivs_on = regime_intervals(cfg, Branch.PLUS)
        ivs_off = regime_intervals(baseline, Branch.PLUS)
        assert [iv.omega for iv in ivs_on] == [iv.omega for iv in ivs_off]


class TestSpreadCurve:
    def test_csv_export(self, baseline, tmp_path):
        curve = spread_curve(baseline, np.linspace(0.0, 2.0, 7))
        path = tmp_path / "spread.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,Q_plus_m2,Q_minus_m2,Q_free_m2"
        assert len(lines) == 8
        assert curve.Q_plus[0] == pytest.approx(baseline.initial.Q0)
        # spreading packets, free reference slightly wider than nu > 0 branches
        assert np.all(curve.Q_plus > 0)
        assert np.all(curve.Q_free[1:] >= curve.Q_plus[1:])
