import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sgphase.cli
import sgphase.phase
import sgphase.trajectories
from sgphase.cli import (EXIT_COMPARE_FAILED, EXIT_NUMERICAL, EXIT_OK,
                         EXIT_VALIDATION, build_id, compare, main,
                         run_scenario)
from sgphase.oracle import GridSpec, evolve_grid, scaled_config
from sgphase.params import (Branch, ConstantsSet, InitialState,
                            baseline_config)
from sgphase.phase import PhasePipeline

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

    def test_invalid_protocol(self, tmp_path, capsys):
        # the file sets the pulse length, the hold time and |beta_+|^2;
        # each is checked by validate, which names the field
        cfg_file = tmp_path / "bad.cfg"
        for line, field in (("protocol.T1_s = 0", "protocol.T1"),
                            ("protocol.T1_s = nan", "protocol.T1"),
                            ("protocol.hold_s = -0.5", "protocol.hold"),
                            ("protocol.hold_s = inf", "protocol.hold"),
                            ("weights.beta_plus_sq = 1.5",
                             "weights.beta_plus_sq")):
            cfg_file.write_text(line + "\n")
            assert main(["baseline", "--config", str(cfg_file),
                         "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
            assert f"  - {field}: " in capsys.readouterr().err

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
        # the library raises before any artefact is written
        assert not list(out.glob("*.csv"))

    def test_radius_sweep_exits_numerical_without_artefacts(self, tmp_path,
                                                             capsys):
        # every sweep point fails, so the slope is not a number
        cfg_file = tmp_path / "narrow.cfg"
        cfg_file.write_text("initial.sqrtQ0_m = 1e-100\n")
        out = tmp_path / "run"
        assert main(["radius-sweep", "--config", str(cfg_file),
                     "--out", str(out)]) == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FloatingPointError"
        assert not (out / "summary.json").exists()
        assert not list(out.glob("*.csv"))


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

    def test_failed_sweep_point_keeps_its_row(self, tmp_path, monkeypatch):
        # the error text of a failed point holds commas; its row must still
        # parse to the header's four fields with the text intact
        failed, = sgphase.phase.radius_sweep(baseline_config(sqrt_Q0=1e-100),
                                             [1e-6])
        assert failed.error and "," in failed.error
        good = sgphase.phase.radius_sweep(baseline_config(), [0.5e-6, 1e-6])
        monkeypatch.setattr(sgphase.cli, "radius_sweep",
                            lambda config, radii: [*good, failed])
        out = tmp_path / "rs"
        assert main(["radius-sweep", "--out", str(out)]) == EXIT_OK
        with open(out / "radius_sweep.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["radius_m", "mass_kg", "delta_phi_rad", "error"]
        assert [len(r) for r in rows] == [4] * 4
        assert rows[3][2] == "" and rows[3][3] == failed.error
        assert read_summary(out)["results"]["n_failed"] == 1

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

    def test_contributions_is_an_alias_of_baseline(self, tmp_path):
        base, contrib = tmp_path / "base", tmp_path / "contrib"
        assert main(["baseline", "--out", str(base)]) == EXIT_OK
        assert main(["contributions", "--out", str(contrib)]) == EXIT_OK
        assert (contrib / "contributions.csv").read_bytes() == \
            (base / "phase_curve.csv").read_bytes()
        assert read_summary(contrib)["results"] == \
            read_summary(base)["results"]


class TestSummaryReportsBreakdown:
    @pytest.mark.parametrize("scenario", ["baseline", "q0-sweep"])
    def test_terms_equal_the_breakdown(self, tmp_path, scenario):
        out = tmp_path / scenario
        assert main([scenario, "--out", str(out)]) == EXIT_OK
        res = read_summary(out)["results"]
        if scenario == "baseline":
            per_config = [(baseline_config(), res)]
        else:
            per_config = [(replace(baseline_config(),
                                   initial=InitialState(Q0=s * s)),
                           res["per_sqrt_Q0"][tag])
                          for tag, s in (("1e-09", 1e-9), ("1e-10", 1e-10),
                                         ("1e-13", 1e-13))]
        for cfg, r in per_config:
            bd = PhasePipeline(cfg).breakdown()
            assert r["delta_phi_T5_rad"] == bd.delta_phi
            assert r["terms"] == {
                k: getattr(bd, k) for k in (
                    "i1_diff", "i2_diff", "const_self_diff", "newton_diff",
                    "classical_diff", "boundary_diff")}
            for key, branch in (("branch_plus", bd.plus),
                                ("branch_minus", bd.minus)):
                assert r[key] == {
                    k: getattr(branch, k) for k in (
                        "i1", "i2", "const_self", "newton_cross",
                        "classical")}


class TestOneBuildPerConfig:
    @pytest.mark.parametrize("scenario, n_configs", [
        ("baseline", 1), ("short-protocol", 1), ("q0-sweep", 3)])
    def test_one_pipeline_and_trajectory_per_config(
            self, tmp_path, monkeypatch, scenario, n_configs):
        # the pipeline that writes a config's phase curve also gives its
        # T5 results and the plateau distance
        pipelines, trajectories = [], []
        init = PhasePipeline.__init__
        build = sgphase.trajectories.protocol_segments

        def counted_init(self, config):
            pipelines.append(config)
            init(self, config)

        def counted_build(config):
            trajectories.append(config)
            return build(config)

        monkeypatch.setattr(PhasePipeline, "__init__", counted_init)
        for module in (sgphase.phase, sgphase.trajectories):
            monkeypatch.setattr(module, "protocol_segments", counted_build)
        assert main([scenario, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(pipelines) == n_configs
        assert len(trajectories) == n_configs


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


class TestOracleCompare:
    def test_csv_and_summary_follow_the_run(self, tmp_path, monkeypatch):
        # a small grid through the real CLI path; the run it makes is
        # captured so the artefacts can be checked against it
        small = GridSpec(n=2048, z_min=-32.0, z_max=32.0, dt=1e-3,
                         snapshot_stride=100)
        monkeypatch.setattr(sgphase.cli, "scaled_grid_spec", lambda: small)
        runs = []

        def capture(*args, **kwargs):
            runs.append(evolve_grid(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(sgphase.cli, "evolve_grid", capture)
        out = tmp_path / "o"
        assert main(["oracle-compare", "--out", str(out)]) == EXIT_OK
        (run,) = runs
        lines = (out / "oracle_compare.csv").read_text().splitlines()
        assert lines[0] == ("t_s,Q_plus_grid,Q_plus_closed,Q_minus_grid,"
                            "Q_minus_closed,delta_phi_grid")
        assert len(lines) == 1 + len(run.t)
        table = np.array([[float(x) for x in line.split(",")]
                          for line in lines[1:]])
        np.testing.assert_array_equal(table[:, 0], run.t)
        q_grid, q_closed = table[:, [1, 3]], table[:, [2, 4]]
        np.testing.assert_array_equal(q_grid, run.moments.Q)
        pipe = PhasePipeline(scaled_config())
        for col, b in enumerate(Branch):
            ab = pipe.branches[b]
            np.testing.assert_array_equal(q_closed[:, col],
                                          [ab.q(t) for t in run.t])
        np.testing.assert_array_equal(table[:, 5], run.delta_phi)
        results = read_summary(out)["results"]
        assert results["grid_points"] == small.n
        assert results["n_steps"] == run.n_steps
        assert results["max_Q_rel_error"] == float(
            np.max(np.abs(q_grid - q_closed) / q_closed))
