import json
from dataclasses import replace
from pathlib import Path

import pytest

from sgphase.cli import (EXIT_COMPARE_FAILED, EXIT_NUMERICAL, EXIT_OK,
                         EXIT_VALIDATION, build_id, compare, main,
                         run_scenario)
from sgphase.params import ConstantsSet, baseline_config

SHIPPED = Path(__file__).resolve().parents[1] / "src" / "sgphase" / "data" \
    / "baseline.expectations"


def read_summary(out_dir) -> dict:
    return json.loads((Path(out_dir) / "summary.json").read_text())


class TestBaselineScenario:
    def test_run_and_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["baseline", "--out", str(out)]) == EXIT_OK
        assert (out / "phase_curve.csv").exists()
        summary = read_summary(out)
        assert summary["constants"] == "paper"
        assert summary["results"]["delta_phi_T5_rad"] == pytest.approx(
            -15.33, rel=0.03)
        assert summary["results"]["naive_estimate_rad"] == pytest.approx(
            -15.59, rel=0.02)
        assert summary["build_id"]

    def test_csv_bodies_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["baseline", "--out", str(out1)]) == EXIT_OK
        assert main(["baseline", "--out", str(out2)]) == EXIT_OK
        assert (out1 / "phase_curve.csv").read_bytes() == \
            (out2 / "phase_curve.csv").read_bytes()

    def test_symmetric_override_gives_null(self, tmp_path):
        cfg_file = tmp_path / "sym.cfg"
        cfg_file.write_text("weights.beta_plus_sq = 0.5\n")
        out = tmp_path / "run"
        assert main(["baseline", "--config", str(cfg_file),
                     "--out", str(out)]) == EXIT_OK
        assert abs(read_summary(out)["results"]["delta_phi_T5_rad"]) < 1e-10

    def test_codata_constants(self, tmp_path):
        out = tmp_path / "run"
        assert main(["baseline", "--constants", "codata",
                     "--out", str(out)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["constants"] == "codata"
        assert 0.95 <= summary["results"]["ratio_delta_phi_to_naive"] <= 1.01


class TestValidationPaths:
    def test_unknown_config_key(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("sphere.color = red\n")
        assert main(["baseline", "--config", str(cfg_file),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_invalid_protocol(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("protocol.T5_s = 2.1\n")
        assert main(["baseline", "--config", str(cfg_file),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_missing_config_file(self, tmp_path):
        assert main(["baseline", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_unknown_scenario_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["warp-drive", "--out", str(tmp_path / "o")])


class TestNonFiniteResults:
    # both spreads pass validate (Q0 > 0) but are too narrow for double
    # precision: the first yields a NaN phase term, the second divides by
    # an underflowed width
    @pytest.mark.parametrize("sqrt_q0", ["1e-100", "1e-160"])
    def test_exit_numerical_without_summary(self, tmp_path, sqrt_q0):
        cfg_file = tmp_path / "narrow.cfg"
        cfg_file.write_text(f"initial.sqrtQ0_m = {sqrt_q0}\n")
        out = tmp_path / "run"
        assert main(["baseline", "--config", str(cfg_file),
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert not (out / "summary.json").exists()


class TestExpectations:
    def test_shipped_expectations_pass(self, tmp_path):
        out = tmp_path / "run"
        assert main(["baseline", "--out", str(out),
                     "--expectations", str(SHIPPED)]) == EXIT_OK

    def test_perturbed_gravity_fails_phase_lines(self, tmp_path):
        c = baseline_config().constants
        perturbed = replace(
            baseline_config(),
            constants=ConstantsSet(name="paper", G=1.1 * c.G, hbar=c.hbar,
                                   mu_B=c.mu_B, g_factor=c.g_factor))
        summary = run_scenario("baseline", perturbed, tmp_path / "run")
        ok, lines = compare(summary, SHIPPED)
        assert not ok
        assert any(line.startswith("FAIL results.delta_phi_T5_rad")
                   for line in lines)

    def test_empty_file_trivially_passes_with_warning(self, tmp_path):
        exp = tmp_path / "empty.expectations"
        exp.write_text("# nothing to check\n")
        out = tmp_path / "run"
        summary = run_scenario("baseline", baseline_config(), out)
        ok, lines = compare(summary, exp)
        assert ok
        assert any("WARNING" in line for line in lines)

    def test_malformed_file_is_an_error(self, tmp_path):
        exp = tmp_path / "bad.expectations"
        exp.write_text("results.delta_phi_T5_rad,-15.3\n")
        summary = run_scenario("baseline", baseline_config(), tmp_path / "o")
        with pytest.raises(ValueError, match="quantity,target,tolerance"):
            compare(summary, exp)

    def test_malformed_tolerance(self, tmp_path):
        exp = tmp_path / "bad.expectations"
        exp.write_text("results.delta_phi_T5_rad,-15.3,closeish,tag\n")
        summary = run_scenario("baseline", baseline_config(), tmp_path / "o")
        with pytest.raises(ValueError, match="tolerance"):
            compare(summary, exp)

    def test_missing_quantity_fails(self, tmp_path):
        exp = tmp_path / "missing.expectations"
        exp.write_text("results.no_such_thing,1.0,rel:0.1,tag\n")
        summary = run_scenario("baseline", baseline_config(), tmp_path / "o")
        ok, lines = compare(summary, exp)
        assert not ok

    def test_cli_exit_on_comparison_failure(self, tmp_path):
        exp = tmp_path / "strict.expectations"
        exp.write_text("results.delta_phi_T5_rad,-14.0,rel:0.001,wrong\n")
        assert main(["baseline", "--out", str(tmp_path / "o"),
                     "--expectations", str(exp)]) == EXIT_COMPARE_FAILED


class TestSweepScenarios:
    def test_q0_sweep_artifacts(self, tmp_path):
        out = tmp_path / "q0"
        assert main(["q0-sweep", "--out", str(out)]) == EXIT_OK
        for tag in ("1e-09", "1e-10", "1e-13"):
            assert (out / f"contributions_q0_{tag}.csv").exists()
        summary = read_summary(out)
        small = summary["results"]["per_sqrt_Q0"]["1e-13"]
        assert small["i2_difference_estimate_rad"] == pytest.approx(
            0.0704, rel=0.01)
        assert small["terms"]["i2_diff"] == pytest.approx(0.07035, rel=0.01)

    def test_radius_sweep_artifacts(self, tmp_path):
        out = tmp_path / "rs"
        assert main(["radius-sweep", "--out", str(out)]) == EXIT_OK
        summary = read_summary(out)
        assert 4.75 <= summary["results"]["log_slope"] <= 5.25
        assert summary["results"]["n_failed"] == 0
        body = (out / "radius_sweep.csv").read_text().splitlines()
        assert body[0] == "radius_m,mass_kg,delta_phi_rad,error"
        assert len(body) == 10

    def test_short_protocol_summary(self, tmp_path):
        out = tmp_path / "sp"
        assert main(["short-protocol", "--out", str(out)]) == EXIT_OK
        res = read_summary(out)["results"]
        assert -0.9 <= res["two_term_estimate_rad"] <= -0.5
        assert res["plateau_to_contact_ratio"] == pytest.approx(1.0, abs=0.2)

    def test_contributions_scenario(self, tmp_path):
        out = tmp_path / "contrib"
        assert main(["contributions", "--out", str(out)]) == EXIT_OK
        header = (out / "contributions.csv").read_text().splitlines()[0]
        assert "const_self_diff" in header and "newton_diff" in header


class TestBuildId:
    def test_stable_and_config_sensitive(self):
        cfg = baseline_config()
        assert build_id(cfg) == build_id(cfg)
        other = baseline_config(sqrt_Q0=1e-10)
        assert build_id(cfg) != build_id(other)

    def test_oracle_compare_rejects_config(self, tmp_path):
        cfg_file = tmp_path / "x.cfg"
        cfg_file.write_text("sphere.mass_kg = 1e-15\n")
        assert main(["oracle-compare", "--config", str(cfg_file),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
