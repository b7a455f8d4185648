import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgphase.params import SphereParams, get_constants
from sgphase.potential import (NUCLEAR_BOOST, effective_omega_s,
                               quadratic_truncation_error, v_eff)
from sgphase.params import omega_s

from reference import quadratic_v_eff, v_eff_derivative

PAPER = get_constants("paper")
SPHERE = SphereParams(mass=5.5e-15, radius=1e-6)
SCALE = PAPER.G * SPHERE.mass**2 / SPHERE.radius  # G m^2 / R


class TestVEff:
    def test_contact_value(self):
        assert v_eff(0.0, SPHERE, PAPER) == pytest.approx(-1.2 * SCALE,
                                                          rel=1e-15)

    def test_continuity_at_2R(self):
        R = SPHERE.radius
        inner = v_eff(2.0 * R, SPHERE, PAPER)
        outer = -PAPER.G * SPHERE.mass**2 / (2.0 * R)
        assert inner == pytest.approx(outer, rel=1e-12)

    def test_slope_continuity_at_2R(self):
        R = SPHERE.radius
        expected = PAPER.G * SPHERE.mass**2 / (4.0 * R * R)
        assert v_eff_derivative(2.0 * R, SPHERE, PAPER) == pytest.approx(
            expected, rel=1e-12)
        # one-sided finite differences as an independent check
        h = 1e-6 * R
        inner_fd = (v_eff(2 * R, SPHERE, PAPER)
                    - v_eff(2 * R - h, SPHERE, PAPER)) / h
        outer_fd = (v_eff(2 * R + h, SPHERE, PAPER)
                    - v_eff(2 * R, SPHERE, PAPER)) / h
        assert inner_fd == pytest.approx(expected, rel=1e-5)
        assert outer_fd == pytest.approx(expected, rel=1e-5)

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0))
    def test_monotone_inside(self, x1, x2):
        lo, hi = sorted((x1, x2))
        R = SPHERE.radius
        assert v_eff(lo * R, SPHERE, PAPER) <= v_eff(hi * R, SPHERE, PAPER) + 1e-30

    @given(st.floats(min_value=2.0, max_value=1e6),
           st.floats(min_value=2.0, max_value=1e6))
    def test_monotone_outside_and_to_zero(self, x1, x2):
        lo, hi = sorted((x1, x2))
        R = SPHERE.radius
        v_lo = v_eff(lo * R, SPHERE, PAPER)
        v_hi = v_eff(hi * R, SPHERE, PAPER)
        assert v_lo <= v_hi
        assert v_hi < 0.0

    def test_negative_displacement_rejected(self):
        with pytest.raises(ValueError):
            v_eff(-1e-9, SPHERE, PAPER)


class TestQuadraticForm:
    def test_matches_at_origin(self):
        assert quadratic_v_eff(0.0, SPHERE, PAPER) == v_eff(0.0, SPHERE, PAPER)

    def test_small_displacement_bound(self):
        d = 0.01 * SPHERE.radius
        err = abs(quadratic_v_eff(d, SPHERE, PAPER) - v_eff(d, SPHERE, PAPER))
        bound = (3.0 / 16.0) * (0.01**3) * SCALE * (1.0 + 1e-9)
        assert err <= bound

    def test_difference_at_R(self):
        d = SPHERE.radius
        diff = quadratic_v_eff(d, SPHERE, PAPER) - v_eff(d, SPHERE, PAPER)
        assert diff == pytest.approx((3.0 / 16.0 - 1.0 / 160.0) * SCALE,
                                     rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=2.0))
    def test_truncation_error_formula_exact(self, x):
        d = x * SPHERE.radius
        direct = quadratic_v_eff(d, SPHERE, PAPER) - v_eff(d, SPHERE, PAPER)
        formula = quadratic_truncation_error(d, SPHERE, PAPER)
        # the direct subtraction loses digits for small x; bound absolutely
        assert direct == pytest.approx(formula, abs=1e-13 * SCALE)

    def test_truncation_error_outside_rejected(self):
        with pytest.raises(ValueError):
            quadratic_truncation_error(3.0 * SPHERE.radius, SPHERE, PAPER)


class TestEffectiveOmegaS:
    def test_wide_packet_unboosted(self):
        w = effective_omega_s((1e-9) ** 2, SPHERE, PAPER, True)
        assert w == omega_s(SPHERE, PAPER)

    def test_toggle_off(self):
        w = effective_omega_s((1e-13) ** 2, SPHERE, PAPER, False)
        assert w == omega_s(SPHERE, PAPER)

    def test_narrow_packet_boosted(self):
        w = effective_omega_s((1e-13) ** 2, SPHERE, PAPER, True)
        assert w == NUCLEAR_BOOST * omega_s(SPHERE, PAPER)
        assert 0.1 <= w <= 10.0  # of the order of 1 rad/s
