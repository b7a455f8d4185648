import math
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgphase.params import (CONSTANTS, Branch, InitialState,
                            Protocol, SphereParams, SpinWeights,
                            baseline_config, config_from_mapping,
                            config_to_mapping, get_constants, load_config,
                            omega_s, separation_time, validate)
from sgphase.trajectories import action_parts, mean_state, protocol_segments


def dyadic(k: int, scale: float = 2.0**-12) -> float:
    """Exactly representable time value k * 2^-12 s."""
    return k * scale


# build protocols whose times satisfy the recombination constraint exactly
# in floating point (dyadic T1 and hold make every sum exact)
protocol_strategy = st.builds(
    lambda k1, kh, b0: Protocol.from_t1(dyadic(k1), hold=dyadic(kh), B0=b0),
    st.integers(min_value=16, max_value=4096),
    st.integers(min_value=0, max_value=8192),
    st.floats(min_value=0.0, max_value=0.1),
)


def init_leaves(config):
    """{path: value} over the init fields of a config: the fields of its
    sphere, weights, protocol and initial parts, the constants set (one
    value, chosen by name) and the nuclear_correction flag."""
    leaves = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "constants" or not is_dataclass(value):
            leaves[f.name] = value
        else:
            leaves.update({f"{f.name}.{g.name}": getattr(value, g.name)
                           for g in fields(value) if g.init})
    return leaves


class TestConstantsRegistry:
    def test_builtin_sets(self):
        paper = get_constants("paper")
        codata = get_constants("codata")
        assert paper.hbar == 1.00e-34
        assert codata.hbar == 1.0546e-34
        for cset in (paper, codata):
            assert cset.G == 6.674e-11
            assert cset.mu_B == 9.274e-24
            assert cset.g_factor == 2.0

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown constants set"):
            get_constants("si-1901")

    def test_registry_is_complete(self):
        assert set(CONSTANTS) == {"paper", "codata"}


class TestValidate:
    def test_baseline_passes(self, baseline):
        report = validate(baseline)
        assert report.ok
        assert report.violations == ()

    def test_broken_recombination_fails(self, out_of_domain):
        # the recombination constraint holds by construction; what is left
        # to reject is a pulse length or hold time outside its domain
        protocols = [(f, c) for f, c in out_of_domain
                     if f.startswith("protocol")]
        assert protocols
        for field, cfg in protocols:
            report = validate(cfg)
            assert [v.field for v in report.violations] == [field], cfg

    def test_symmetric_weights_pass(self, baseline):
        cfg = replace(baseline, weights=SpinWeights.from_plus(0.5))
        assert validate(cfg).ok

    def test_weight_sum_violation(self, out_of_domain):
        # |beta_-|^2 is derived, so the weights sum to 1 by construction;
        # what is left to reject is |beta_+|^2 outside (0, 1)
        w = SpinWeights.from_plus(0.4)
        assert w.beta_minus_sq == 1.0 - 0.4
        weights = [(f, c) for f, c in out_of_domain
                   if f.startswith("weights")]
        assert weights
        for field, cfg in weights:
            report = validate(cfg)
            assert [v.field for v in report.violations] == [field], cfg

    def test_nonpositive_values_flagged(self, baseline):
        cfg = replace(baseline, sphere=SphereParams(mass=-1.0, radius=1e-6))
        assert not validate(cfg).ok

    def test_idempotent_and_pure(self, baseline):
        first = validate(baseline)
        second = validate(baseline)
        assert first == second
        with pytest.raises(FrozenInstanceError):
            baseline.sphere.mass = 1.0


class TestOmegaS:
    def test_baseline_value(self, baseline):
        w = omega_s(baseline.sphere, baseline.constants)
        assert 6.0e-4 <= w <= 6.2e-4

    def test_quadruple_mass_doubles(self, baseline):
        s = baseline.sphere
        w1 = omega_s(s, baseline.constants)
        w2 = omega_s(SphereParams(4.0 * s.mass, s.radius), baseline.constants)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-14)

    def test_fixed_density_radius_independent(self, baseline):
        rho = baseline.sphere.density
        w_ref = omega_s(baseline.sphere, baseline.constants)
        for R in (2e-7, 5e-6, 3e-5):
            m = rho * 4.0 / 3.0 * math.pi * R**3
            w = omega_s(SphereParams(m, R), baseline.constants)
            assert w == pytest.approx(w_ref, rel=1e-12)


class TestSeparationTime:
    def test_baseline_value(self, baseline):
        assert separation_time(baseline) == pytest.approx(0.034, rel=0.03)

    def test_gradient_scaling(self, baseline):
        p = baseline.protocol
        strong = replace(baseline,
                         protocol=replace(p, B0_grad=4.0 * p.B0_grad))
        assert separation_time(strong) == pytest.approx(
            0.5 * separation_time(baseline), rel=1e-14)

    def test_codata_closed_form(self, baseline_codata):
        # independent evaluation of sqrt(4 m R / (g mu_B B0'))
        expected = math.sqrt(4.0 * 5.5e-15 * 1e-6 / (2.0 * 9.274e-24 * 1e6))
        assert separation_time(baseline_codata) == pytest.approx(expected,
                                                                 rel=1e-14)
        assert expected == pytest.approx(0.0344, rel=2e-3)


class TestInvariants:
    @given(protocol_strategy)
    def test_lambda_integral_vanishes(self, protocol):
        traj = protocol_segments(replace(baseline_config(), protocol=protocol))
        assert action_parts(traj)[1] == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(min_value=1e-15, max_value=1e-6))
    def test_omega_trap_identity(self, sqrt_q0):
        cfg = baseline_config(sqrt_Q0=sqrt_q0)
        product = cfg.omega_trap * cfg.sphere.mass * cfg.initial.Q0
        assert product == pytest.approx(cfg.constants.hbar, rel=1e-14)

    def test_protocol_from_t1_exact(self):
        p = Protocol.from_t1(0.25, hold=1.0)
        assert p.times == (0.25, 0.5, 1.5, 1.75, 2.0)
        assert p.T2 - p.T1 == p.T1
        assert p.T4 - p.T3 == p.T1
        assert p.T5 - p.T4 == p.T1


class TestConfigFile:
    def test_roundtrip(self, tmp_path, baseline):
        mapping = config_to_mapping(baseline)
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(f"{k} = {v}" for k, v in mapping.items()))
        loaded = load_config(path)
        assert loaded == baseline

    def test_keys_map_one_to_one_onto_init_fields(self, baseline):
        # each key sets one init field and each init field has one key, so
        # a derived value cannot become settable, nor a settable value
        # drop out of the file schema, unseen
        base = init_leaves(baseline)
        set_by = {}
        for key, value in config_to_mapping(baseline).items():
            if key == "constants.name":
                new = "codata"
            elif isinstance(value, bool):
                new = not value
            else:
                new = 2.0 * value + 1.0
            got = init_leaves(config_from_mapping({key: new}, base=baseline))
            [set_by[key]] = [leaf for leaf in base if got[leaf] != base[leaf]]
        assert sorted(set_by.values()) == sorted(base)

    def test_t1_alone_gives_a_recombining_protocol(self, tmp_path, baseline):
        # T2..T5 follow from T1 and the hold, so one key moves them all
        path = tmp_path / "exp.cfg"
        path.write_text("protocol.T1_s = 0.05\n")
        cfg = load_config(path)
        assert validate(cfg).ok
        p = cfg.protocol
        assert (p.T1, p.hold) == (0.05, baseline.protocol.hold)
        traj = protocol_segments(cfg)
        for b in Branch:
            z_top, p_top = mean_state(b, p.T2, traj)[0], traj.F * p.T1
            z_end, p_end = mean_state(b, p.T5, traj)
            assert abs(z_end) <= 1e-12 * abs(z_top)
            assert abs(p_end) <= 1e-12 * p_top

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("sphere.mass_kg = 5.5e-15\nsphere.charge_C = 0\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("sphere.mass_kg = 1e-15\nsphere.mass_kg = 2e-15\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_config(path)

    def test_comments_and_overrides(self, tmp_path, baseline):
        path = tmp_path / "exp.cfg"
        path.write_text("# heavier sphere\n"
                        "sphere.mass_kg = 1.1e-14  # doubled\n"
                        "constants.name = codata\n"
                        "nuclear_correction = true\n")
        cfg = load_config(path)
        assert cfg.sphere.mass == 1.1e-14
        assert cfg.constants.name == "codata"
        assert cfg.nuclear_correction is True
        assert cfg.sphere.radius == baseline.sphere.radius

    def test_bad_boolean(self):
        with pytest.raises(ValueError, match="boolean"):
            config_from_mapping({"nuclear_correction": "maybe"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            load_config(path)


class TestTypes:
    def test_spin_weights_helpers(self):
        w = SpinWeights.from_plus(1.0 / 3.0)
        assert w.beta_sq(Branch.PLUS) == pytest.approx(1.0 / 3.0)
        assert w.beta(Branch.PLUS) == pytest.approx(1.0 / math.sqrt(3.0))

    def test_density(self, baseline):
        rho = baseline.sphere.density
        assert rho == pytest.approx(1313.0, rel=1e-3)

    def test_initial_state(self):
        st0 = InitialState.from_sqrt(1e-9)
        assert st0.Q0 == 1e-18
        assert st0.sqrt_Q0 == pytest.approx(1e-9)

    def test_branch_helpers(self):
        assert Branch.PLUS.sign == 1.0
        assert Branch.MINUS.sign == -1.0
