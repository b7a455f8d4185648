import csv
import math
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

import sgphase.phase
from sgphase import trajectories
from sgphase.gaussian import (integral_inv_q, integral_q, moments_from_a,
                              propagate_a)
from sgphase.params import (Branch, ConstantsSet, InitialState, Protocol,
                            SphereParams, SpinWeights, baseline_config,
                            omega_s, separation_time, short_protocol_config,
                            validate)
from sgphase.phase import (CURVE_TERMS, PhasePipeline, delta_phi_ode,
                           fit_log_slope, i2_difference_estimate,
                           naive_estimate, naive_estimate_two_term,
                           phase_curve, radius_sweep)
from sgphase.potential import NUCLEON_SCALE
from sgphase.trajectories import (plateau_distance, protocol_segments,
                                  separation_window)

import reference
from reference import f_quantum, spread_Q


def without_gravity(config):
    c = config.constants
    return replace(config, constants=ConstantsSet(
        name="g-zero", G=0.0, hbar=c.hbar, mu_B=c.mu_B, g_factor=c.g_factor))


def _random_config(radius, beta_plus_sq, k1, log_grad, log_sqrt_q0):
    """Valid config at the reference density with a dyadic T1 = k1 2^-12 s
    (so the recombination constraint holds exactly) and hold 4 T1."""
    base = baseline_config()
    T1 = k1 * 2.0**-12
    mass = base.sphere.density * 4.0 / 3.0 * math.pi * radius**3
    return replace(
        base, sphere=SphereParams(mass=mass, radius=radius),
        weights=SpinWeights.from_plus(beta_plus_sq),
        protocol=Protocol.from_t1(T1, hold=4.0 * T1, B0_grad=10.0**log_grad),
        initial=InitialState.from_sqrt(10.0**log_sqrt_q0))


config_strategy = st.builds(
    _random_config,
    st.floats(min_value=0.5e-6, max_value=2e-6),
    st.floats(min_value=0.1, max_value=0.45),
    st.integers(min_value=102, max_value=1024),   # T1 0.025-0.25 s
    st.floats(min_value=5.5, max_value=6.5),
    st.floats(min_value=-12.0, max_value=-9.0),
)

# config_strategy's ranges with the nuclear boost on and the packet
# starting below the nucleon scale, sqrt(Q0) = 1e-14 - 9e-13 m
boosted_strategy = st.builds(
    lambda *args: replace(_random_config(*args), nuclear_correction=True),
    st.floats(min_value=0.5e-6, max_value=2e-6),
    st.floats(min_value=0.1, max_value=0.45),
    st.integers(min_value=102, max_value=1024),
    st.floats(min_value=5.5, max_value=6.5),
    st.floats(min_value=-14.0, max_value=math.log10(9e-13)),
)


# the short protocol at 0.9 B0': plateau distance ~0.95 (2R), no separation
SUB_TANGENT = replace(short_protocol_config(), protocol=replace(
    short_protocol_config().protocol, B0_grad=9e5))

# -0.0, nan, the infinities, the smallest subnormal, the largest
# subnormal, the smallest normal and the largest double
SPECIAL_DOUBLES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                   -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1]


def _kernel_args(t, nu, config):
    """Arguments of the segment kernels for one constant-nu interval [0, t]
    starting from the trap ground state."""
    A0 = complex(0.5 / config.initial.Q0, 0.0)
    w = omega_s(config.sphere, config.constants)
    return A0, nu, w, config.sphere.mass, config.constants.hbar, t


def i1_single(t, nu, config):
    """Kinetic-spread phase integral (hbar/4m) int_0^t dt/Q (rad)."""
    return 0.25 * config.constants.hbar / config.sphere.mass * integral_inv_q(
        *_kernel_args(t, nu, config))


def i2_single(t, nu, config):
    """Harmonic self-term phase integral (m w^2 nu^2 / 2 hbar) int Q dt."""
    m = config.sphere.mass
    w = omega_s(config.sphere, config.constants)
    return 0.5 * m * w * w * nu * nu / config.constants.hbar * integral_q(
        *_kernel_args(t, nu, config))


class TestFQuantum:
    def test_initial_value(self, baseline):
        c = baseline.constants
        m = baseline.sphere.mass
        Q0 = baseline.initial.Q0
        w = omega_s(baseline.sphere, c)
        expected = (c.hbar**2 / (4 * m * Q0) + 0.5 * m * w * w * Q0
                    - 1.2 * c.G * m * m / baseline.sphere.radius)
        assert f_quantum(PhasePipeline(baseline), Branch.PLUS,
                         0.0) == pytest.approx(expected, rel=1e-12)

    def test_plateau_newton_term(self, baseline):
        t = 1.0
        d = plateau_distance(baseline)
        c = baseline.constants
        m = baseline.sphere.mass
        pipe = PhasePipeline(baseline)
        with_n = f_quantum(pipe, Branch.PLUS, t)
        # rebuild without the cross term from the other pieces
        Q = pipe.branches[Branch.PLUS].q(t)
        nu2 = baseline.weights.beta_plus_sq
        w = omega_s(baseline.sphere, c)
        no_cross = (c.hbar**2 / (4 * m * Q) + 0.5 * m * w * w * Q * nu2
                    - 1.2 * c.G * m * m / baseline.sphere.radius * nu2)
        assert with_n - no_cross == pytest.approx(
            -(2.0 / 3.0) * c.G * m * m / d, rel=1e-10)

    def test_symmetric_weights_equal(self, baseline):
        pipe = PhasePipeline(replace(baseline,
                                     weights=SpinWeights.from_plus(0.5)))
        for t in (0.0, 0.2, 1.0, 1.9):
            assert f_quantum(pipe, Branch.PLUS, t) == f_quantum(
                pipe, Branch.MINUS, t)


class TestI1:
    def test_zero_at_start(self, baseline):
        assert i1_single(0.0, 1.0, baseline) == 0.0

    def test_small_time_limit(self, baseline):
        # hbar t / (4 m Q0) up to O((hbar t / 2 m Q0)^2) arctan corrections
        c = baseline.constants
        t = 1.0
        x = c.hbar * t / (2 * baseline.sphere.mass * baseline.initial.Q0)
        expected = c.hbar * t / (4 * baseline.sphere.mass
                                 * baseline.initial.Q0)
        assert i1_single(t, 1.0, baseline) == pytest.approx(expected,
                                                            rel=x * x)

    def test_branch_difference_negligible(self, baseline):
        t = baseline.protocol.T5
        nu_p = baseline.weights.beta(Branch.PLUS)
        nu_m = baseline.weights.beta(Branch.MINUS)
        assert abs(i1_single(t, nu_p, baseline)
                   - i1_single(t, nu_m, baseline)) < 1e-8


class TestI2:
    def test_against_quadrature(self, baseline):
        c = baseline.constants
        m = baseline.sphere.mass
        w = omega_s(baseline.sphere, c)
        nu = baseline.weights.beta(Branch.MINUS)
        t = 1.7
        val, _ = quad(lambda s: 0.5 * m * w * w * nu * nu
                      * spread_Q(s, nu, baseline) / c.hbar, 0.0, t)
        assert i2_single(t, nu, baseline) == pytest.approx(val, rel=1e-10)

    def test_small_spread_difference_matches_paper_estimate(self):
        cfg = baseline_config(sqrt_Q0=1e-13)
        t = cfg.protocol.T5 - separation_time(cfg)
        nu_p = cfg.weights.beta(Branch.PLUS)
        nu_m = cfg.weights.beta(Branch.MINUS)
        diff = i2_single(t, nu_m, cfg) - i2_single(t, nu_p, cfg)
        assert diff == pytest.approx(i2_difference_estimate(cfg), rel=1e-3)

    def test_estimate_reference_values(self):
        cfg = baseline_config(sqrt_Q0=1e-13)
        assert i2_difference_estimate(cfg) == pytest.approx(0.0704, rel=0.01)
        assert cfg.omega_trap == pytest.approx(1.82e6, rel=0.01)

    def test_trap_form_identity(self):
        # the estimate written with the trap frequency omega_trap = hbar/(m Q0)
        cfg = baseline_config(sqrt_Q0=2.4e-12)
        t = cfg.protocol.T5 - separation_time(cfg)
        w = omega_s(cfg.sphere, cfg.constants)
        dbeta = abs(cfg.weights.beta_plus_sq - cfg.weights.beta_minus_sq)
        trap_form = dbeta * cfg.omega_trap * w * w * t**3 / 24.0
        assert trap_form == pytest.approx(i2_difference_estimate(cfg),
                                          rel=1e-12)


class TestImC:
    def test_boundary_terms_vanish_at_recombination(self, baseline):
        bd = PhasePipeline(baseline).breakdown()
        for bp in (bd.plus, bd.minus):
            assert abs(bp.boundary_zp) < 1e-12
            assert abs(bp.boundary_width) < 1e-12
        assert abs(bd.boundary_diff) < 1e-12

    def test_no_gravity_no_branch_difference(self, baseline):
        pipe = PhasePipeline(without_gravity(baseline))
        for t in (0.3, 1.0, 1.7, 2.0):
            assert pipe.delta_phi(t) == 0.0

    def test_delta_phi_is_sum_of_diffs(self, baseline):
        bd = PhasePipeline(baseline).breakdown(1.3)
        total = (bd.boundary_diff + bd.classical_diff + bd.i1_diff
                 + bd.i2_diff + bd.const_self_diff + bd.newton_diff)
        assert bd.delta_phi == pytest.approx(total, rel=1e-15)


class TestDeltaPhi:
    def test_baseline_final_value(self, baseline):
        value = PhasePipeline(baseline).delta_phi()
        assert value == pytest.approx(-15.33, rel=0.03)

    def test_quadrature_oracle_for_quantum_difference(self, baseline):
        # independent route to delta_phi(T5): adaptive quadrature of the
        # instantaneous F_Q difference over the protocol
        c = baseline.constants
        t_in, t_out = separation_window(protocol_segments(baseline))
        pts = sorted(set(list(baseline.protocol.times[:4]) + [t_in, t_out]))
        pipe = PhasePipeline(baseline)

        def integrand(t):
            return (f_quantum(pipe, Branch.PLUS, t)
                    - f_quantum(pipe, Branch.MINUS, t)) / c.hbar

        val = 0.0
        bounds = [0.0] + pts + [baseline.protocol.T5]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            piece, _ = quad(integrand, lo, hi, limit=200)
            val += piece
        assert -val == pytest.approx(pipe.delta_phi(), rel=1e-8)

    @given(config_strategy)
    @example(baseline_config())
    def test_symmetric_weights_null(self, config):
        cfg = replace(config, weights=SpinWeights.from_plus(0.5))
        assert PhasePipeline(cfg).delta_phi() == 0.0

    @given(config_strategy,
           st.floats(min_value=-3.0, max_value=1.0).map(lambda x: 10.0**x))
    @example(baseline_config(), 0.1)
    def test_uniform_field_invariance(self, config, B0):
        # the uniform-field phase is proportional to Lambda(T5), which is
        # exactly 0 for these dyadic protocols
        with_b0 = replace(config, protocol=replace(config.protocol, B0=B0))
        assert PhasePipeline(with_b0).delta_phi() \
            == PhasePipeline(config).delta_phi()

    @given(config_strategy)
    @example(baseline_config())
    @example(SUB_TANGENT)
    def test_weight_swap_antisymmetry(self, config):
        # only |beta_+|^2 is stored; snapped to b = 1 - (1 - |beta_+|^2),
        # which is exact for |beta_+|^2 <= 1/2 (Sterbenz), 1 - b is exact
        # too, so the swapped config carries exactly the swapped weights
        config = replace(config, weights=SpinWeights.from_plus(
            1.0 - config.weights.beta_minus_sq))
        w = config.weights
        assert 1.0 - w.beta_minus_sq == w.beta_plus_sq
        swapped = replace(config,
                          weights=SpinWeights.from_plus(w.beta_minus_sq))
        dp = PhasePipeline(config).delta_phi()
        assert PhasePipeline(swapped).delta_phi() == -dp
        # packets that never clear contact d = 2R keep nu = 1 throughout
        if plateau_distance(config) <= 2.0 * config.sphere.radius:
            assert dp == 0.0

    def test_tangency_jump_pinned(self, short_protocol):
        # the short protocol's plateau distance reaches 2R at this gradient;
        # the hard switch of nu at d = 2R makes delta_phi jump from 0 there
        tangent = 1e6 / 1.05386

        def at(scale):
            return replace(short_protocol, protocol=replace(
                short_protocol.protocol, B0_grad=scale * tangent))

        below, above = at(1.0 - 1e-5), at(1.0 + 1e-5)
        contact = 2.0 * short_protocol.sphere.radius
        assert plateau_distance(below) < contact < plateau_distance(above)
        assert PhasePipeline(below).delta_phi() == 0.0
        assert PhasePipeline(above).delta_phi() == pytest.approx(-0.4721,
                                                                 rel=0.01)

    def test_nuclear_toggle_negligible_at_narrow_spread(self):
        off = baseline_config(sqrt_Q0=1e-13)
        on = baseline_config(sqrt_Q0=1e-13, nuclear_correction=True)
        a = PhasePipeline(off).delta_phi()
        b = PhasePipeline(on).delta_phi()
        assert b == pytest.approx(a, rel=1e-6)

    def test_curve_starts_at_zero_and_lands_on_final(self, baseline):
        pipe = PhasePipeline(baseline)
        curve = phase_curve(pipe, n_samples=51)
        assert curve.delta_phi[0] == 0.0
        assert curve.delta_phi[-1] == pytest.approx(pipe.delta_phi(),
                                                    rel=1e-12)
        assert curve.const_self_diff[-1] == pytest.approx(-15.5948, rel=1e-3)
        # constant self-energy contribution decreases monotonically
        assert np.all(np.diff(curve.const_self_diff) <= 1e-15)

    def test_csv_columns(self, baseline, tmp_path):
        curve = phase_curve(PhasePipeline(baseline), n_samples=5)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("t_s,delta_phi_rad,i1_diff,i2_diff,const_self_diff,"
                          "newton_diff,classical_diff")

    @given(st.lists(st.floats(), min_size=1, max_size=8))
    @example(SPECIAL_DOUBLES)
    def test_number_rows_are_written_as_format_writes_them(self, row):
        # write_csv formats a row of numbers with one "%.17e,..." pattern;
        # the cells must be the digits format(x, ".17e") gives, signed
        # zeros, nan, infinities and subnormals included
        header = ",".join(f"c{i}" for i in range(len(row)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "numbers.csv"
            sgphase.phase.write_csv(path, header, [
                tuple(row), tuple(map(np.float64, row))])
            written = path.read_text()
        expected = ",".join(format(x, ".17e") for x in row)
        assert written == f"{header}\n{expected}\n{expected}\n"

    def test_write_csv_round_trips_text_and_numbers(self, tmp_path):
        path = tmp_path / "cells.csv"
        texts = ["plain", "a, b", 'say "x"', "two\nlines", ""]
        sgphase.phase.write_csv(path, "x,text", [(0.1, t) for t in texts])
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["x", "text"]
        assert [r[1] for r in rows[1:]] == texts
        assert all(r[0] == "1.00000000000000006e-01" for r in rows[1:])


class TestNuclearBoost:
    @given(boosted_strategy)
    def test_boost_ends_where_the_packet_reaches_the_nucleon_scale(
            self, config):
        target = NUCLEON_SCALE**2
        m, hbar = config.sphere.mass, config.constants.hbar
        w0 = omega_s(config.sphere, config.constants)
        pipe = PhasePipeline(config)
        for b in Branch:
            ivs = pipe.branches[b].intervals
            assert ivs[0].omega > w0
            for iv, nxt in zip(ivs, ivs[1:] + (None,)):
                if iv.omega == w0:
                    continue
                # a boosted interval is always followed by an un-boosted one
                assert nxt is not None and nxt.omega == w0

                def q(t, iv=iv):
                    a = propagate_a(iv.A_start, iv.nu, iv.omega, m, hbar,
                                    t - iv.t_lo)
                    return moments_from_a(a, m, hbar)[0]

                assert q(iv.t_hi) >= target
                assert moments_from_a(nxt.A_start, m, hbar)[0] >= target
                span = iv.t_hi - iv.t_lo
                assert all(q(iv.t_lo + k / 16.0 * span) < target
                           for k in range(1, 16))


def in_units(config, L, T, M, B):
    """`config` in units of L metres, T seconds, M kilograms and B tesla.
    With power-of-two units every input and constant changes by an exact
    factor."""
    c, s, p = config.constants, config.sphere, config.protocol
    energy = M * L * L / (T * T)
    return replace(
        config,
        constants=ConstantsSet(name=c.name, G=c.G * M * T * T / L**3,
                               hbar=c.hbar / (energy * T),
                               mu_B=c.mu_B * B / energy,
                               g_factor=c.g_factor),
        sphere=SphereParams(mass=s.mass / M, radius=s.radius / L),
        protocol=Protocol(T1=p.T1 / T, hold=p.hold / T, B0=p.B0 / B,
                          B0_grad=p.B0_grad * L / B),
        initial=InitialState(Q0=config.initial.Q0 / (L * L)))


# (L, T, M, B) unit sets, from nanometre and picogram scale to a change of
# every unit at once
UNIT_SETS = ((2.0**-30, 1.0, 2.0**-47, 1.0),
             (2.0**-20, 2.0**3, 2.0**-48, 2.0**-7),
             (2.0**-33, 2.0**-2, 2.0**-50, 2.0**10),
             (2.0**5, 2.0**-5, 2.0**3, 1.0))


class TestUnitCovariance:
    @given(config_strategy, st.sampled_from(UNIT_SETS))
    @example(baseline_config(), UNIT_SETS[2])
    def test_results_do_not_depend_on_the_units(self, config, units):
        """A change of units changes no verdict and no physics.

        `validate` gives the same verdict, the separation window and every
        regime bound scale exactly with the time unit, and delta_phi agrees
        to 4e-15 relative. It is not bitwise equal: `omega_s` takes
        radius**3 through libm's pow, which can move omega_s by one ulp,
        and the cancellation in the closed-form kernels (ROADMAP item 15)
        amplifies that: over the sweep pool i1_diff moves by up to 9e-6
        relative while delta_phi moves by at most 7e-16. Boosted configs are
        left out because NUCLEON_SCALE is an absolute length in metres
        (ROADMAP item 11)."""
        L, T, M, B = units
        scaled = in_units(config, L, T, M, B)
        assert validate(scaled).ok == validate(config).ok
        pipe, pipe_s = PhasePipeline(config), PhasePipeline(scaled)
        if pipe.window is None:
            assert pipe_s.window is None
        else:
            assert pipe_s.window == tuple(t / T for t in pipe.window)
        for b in Branch:
            assert [(iv.t_lo / T, iv.t_hi / T)
                    for iv in pipe.branches[b].intervals] == [
                (iv.t_lo, iv.t_hi) for iv in pipe_s.branches[b].intervals]
        dp = pipe.delta_phi()
        assert abs(pipe_s.delta_phi() - dp) <= 4e-15 * abs(dp)


class TestTrajectoryBuilds:
    def test_one_trajectory_per_config(self, baseline, monkeypatch):
        # the pipeline builds the trajectory once; every later breakdown
        # and every phase_curve sample of that pipeline only reads it
        builds = []
        build = trajectories.protocol_segments

        def counted(config):
            builds.append(config)
            return build(config)

        for module in (sgphase.phase, trajectories):
            monkeypatch.setattr(module, "protocol_segments", counted)
        pipe = PhasePipeline(baseline)
        assert len(builds) == 1
        for frac in (1.0, 0.3, 0.61):
            pipe.breakdown(frac * baseline.protocol.T5)
        assert len(builds) == 1
        phase_curve(pipe)
        assert len(builds) == 1


def _hex_fields(record, prefix=""):
    """Every float field of a PhaseBreakdown, branches included, as
    float.hex, so that a signed zero counts as a difference."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            out.update(_hex_fields(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = float.hex(value)
    return out


def _probe_times(pipe):
    """0, T5, every segment, regime and window bound with its neighbour
    doubles on either side, and 37 even times."""
    T5 = pipe.config.protocol.T5
    bounds = {0.0, T5, *(s.t_lo for s in pipe.trajectory.segments),
              *(iv.t_lo for ab in pipe.branches.values()
                for iv in ab.intervals),
              *(pipe.window or ())}
    near = {math.nextafter(b, d) for b in bounds for d in (0.0, T5)}
    return sorted(bounds | near | set(np.linspace(0.0, T5, 37).tolist()))


# configs at the edges of the piece structure: a zero-length hold segment,
# a uniform field (Lambda enters classical and classical_diff), no
# gravity, no separation window, and a boosted packet with both
EDGE_IDS = ("hold-0", "B0", "G-0", "no-window", "boosted-hold-0-B0")
EDGE_CONFIGS = (
    replace(baseline_config(), protocol=replace(baseline_config().protocol,
                                                hold=0.0)),
    replace(baseline_config(), protocol=replace(baseline_config().protocol,
                                                B0=0.1)),
    without_gravity(baseline_config()),
    SUB_TANGENT,
    replace(baseline_config(sqrt_Q0=1e-13, nuclear_correction=True),
            protocol=replace(baseline_config().protocol, hold=0.0, B0=0.1)),
)


class TestPrefixTable:
    """The pipeline reads each term from its prefix table; the walks from
    t = 0 that it replaced are kept in tests/reference.py, and every field
    must be bitwise theirs."""

    def check_against_walks(self, config):
        pipe = PhasePipeline(config)
        for t in _probe_times(pipe):
            assert _hex_fields(pipe.breakdown(t)) == _hex_fields(
                reference.breakdown(pipe, t)), f"t = {t!r}"

    @given(config_strategy)
    @example(baseline_config())
    @example(EDGE_CONFIGS[0])
    @example(EDGE_CONFIGS[1])
    @example(EDGE_CONFIGS[2])
    @example(EDGE_CONFIGS[3])
    def test_breakdown_is_bitwise_the_walk(self, config):
        self.check_against_walks(config)

    @given(boosted_strategy)
    @example(EDGE_CONFIGS[4])
    def test_boosted_breakdown_is_bitwise_the_walk(self, config):
        self.check_against_walks(config)

    @pytest.mark.parametrize("config", (baseline_config(), *EDGE_CONFIGS),
                             ids=("baseline", *EDGE_IDS))
    def test_curve_samples_are_the_breakdown(self, config):
        pipe = PhasePipeline(config)
        curve = phase_curve(pipe)
        for i, t in enumerate(curve.t.tolist()):
            bd = pipe.breakdown(t)
            for name in CURVE_TERMS:
                assert float.hex(float(getattr(curve, name)[i])) \
                    == float.hex(getattr(bd, name)), (name, t)


    def test_times_outside_the_protocol_are_refused(self, baseline):
        pipe = PhasePipeline(baseline)
        for t in (-5e-324, math.nextafter(baseline.protocol.T5, math.inf)):
            with pytest.raises(ValueError, match="outside protocol range"):
                pipe.breakdown(t)


class TestOdeCrossCheck:
    def test_matches_closed_form(self, baseline):
        res = delta_phi_ode(baseline, n_eval=41)
        bd = PhasePipeline(baseline).breakdown()
        assert abs(res.delta_phi - bd.delta_phi) < 1e-5
        # int F_Q dt / hbar of each branch: the sum of its four itemized terms
        for q_ode, bp in ((res.quantum_plus, bd.plus),
                          (res.quantum_minus, bd.minus)):
            assert abs(q_ode - (bp.i1 + bp.i2 + bp.const_self
                                + bp.newton_cross)) < 1e-5

    def test_a_agrees_with_analytic(self, baseline):
        res = delta_phi_ode(baseline, n_eval=41)
        ab = PhasePipeline(baseline).branches[Branch.PLUS]
        rel = max(abs(ab.a(t) - a) / abs(a)
                  for t, a in zip(res.t, res.A_plus))
        assert rel < 1e-8


class TestEstimates:
    def test_naive_baseline(self, baseline):
        assert naive_estimate(baseline) == pytest.approx(-15.59, rel=0.02)

    def test_naive_symmetric_zero(self, baseline):
        cfg = replace(baseline, weights=SpinWeights.from_plus(0.5))
        assert naive_estimate(cfg) == 0.0

    def test_dominant_term(self, baseline):
        dp = PhasePipeline(baseline).delta_phi()
        assert abs(dp - naive_estimate(baseline)) / abs(dp) <= 0.05

    def test_short_protocol_two_term(self, short_protocol):
        est = naive_estimate_two_term(short_protocol)
        assert -0.9 <= est <= -0.5


class TestRadiusSweep:
    def test_reference_point_consistency(self, baseline):
        points = radius_sweep(baseline, [baseline.sphere.radius])
        assert points[0].delta_phi == pytest.approx(
            PhasePipeline(baseline).delta_phi(), rel=1e-12)
        assert points[0].mass == pytest.approx(baseline.sphere.mass, rel=1e-12)

    def test_fixed_density_slope(self, baseline):
        radii = np.geomspace(0.5e-6, 2e-6, 7)
        points = radius_sweep(baseline, radii)
        slope = fit_log_slope(points)
        assert 4.75 <= slope <= 5.25

    def test_vanishes_with_radius(self, baseline):
        # |delta_phi| falls steeply with R (the fixed-density mass dies as
        # R^3); below R ~ 5e-8 m the fixed-Q0 spread term takes over and
        # the narrow-packet model itself stops applying
        radii = [1e-6, 5e-7, 2e-7, 1e-7]
        points = radius_sweep(baseline, radii)
        mags = [abs(p.delta_phi) for p in points]
        assert mags == sorted(mags, reverse=True)
        assert mags[-1] < 1e-3

    def test_per_point_errors_isolated(self, baseline):
        points = radius_sweep(baseline, [1e-6, -1.0, 2e-6])
        assert points[0].error is None
        assert points[1].error is not None
        assert points[1].delta_phi is None
        assert points[2].error is None

    def test_non_finite_point_is_an_error(self):
        # validate accepts sqrt(Q0) = 1e-100 m, but the phase terms are
        # not representable in double precision
        narrow = baseline_config(sqrt_Q0=1e-100)
        [point] = radius_sweep(narrow, [narrow.sphere.radius])
        assert point.delta_phi is None
        assert point.error.startswith("FloatingPointError")

    def test_fit_needs_two_points(self, baseline):
        with pytest.raises(FloatingPointError):
            fit_log_slope(radius_sweep(baseline, [1e-6]))


class TestComputabilityGuard:
    def test_disordered_protocol_rejected(self, baseline):
        # T2..T5 follow T1 and the hold in order unless T1 is below half an
        # ulp of T3 = 2 T1 + hold, where T3 + T1 rounds back to T3
        for T1, ordered in ((2.0**-52, True), (2.0**-54, False)):
            cfg = replace(baseline, protocol=Protocol(T1, hold=1.0))
            p = cfg.protocol
            assert (0.0 < p.T1 < p.T2 <= p.T3 < p.T4 < p.T5) == ordered
            if ordered:
                PhasePipeline(cfg)
            else:
                with pytest.raises(ValueError, match="protocol: "):
                    PhasePipeline(cfg)

    def test_negative_g_rejected(self, baseline):
        c = baseline.constants
        bad = replace(baseline, constants=ConstantsSet(
            name="neg", G=-1.0, hbar=c.hbar, mu_B=c.mu_B,
            g_factor=c.g_factor))
        with pytest.raises(ValueError, match="G must be"):
            PhasePipeline(bad)

    def test_same_policy_as_validate(self, baseline, out_of_domain):
        for field, cfg in out_of_domain:
            assert not validate(cfg).ok
            with pytest.raises(ValueError, match=f"{field}: "):
                PhasePipeline(cfg)
            with pytest.raises(ValueError, match=f"{field}: "):
                delta_phi_ode(cfg)
        g_zero = without_gravity(baseline)
        assert validate(g_zero).ok
        assert PhasePipeline(g_zero).delta_phi() == 0.0
