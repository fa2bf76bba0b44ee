import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qsdlab
from qsdlab.artifacts import write_csv
from qsdlab.cli import DEFAULTS, RunConfig, parse_config_file, run, validate


def read(path):
    with open(path) as fh:
        return fh.read()


def ou_chi_reference(n, density, times):
    """chi(t) of `evolve --example ou --n n` from the eigenbasis of the symmetric
    bands: |(e^{-(lam_k - lam_0) t} c_k)_{k >= 1}| / |c_0| with c = V^T (m0 / d)."""
    from scipy.linalg import eigh_tridiagonal

    from qsdlab.grid_measure import build_grid
    from qsdlab.potential import quadratic_potential
    from qsdlab.spectral import _symmetric_bands, assemble_generator

    grid = build_grid(0.0, 8.0, n)
    op = assemble_generator(quadratic_potential(1.0), grid)
    d, off = _symmetric_bands(op.off_upper, op.off_lower)
    lam, v = eigh_tridiagonal(-op.diag, -off)
    m0 = density(grid.nodes)
    c = v.T @ (m0 / m0.sum() / d)
    return [np.linalg.norm(np.exp(-(lam[1:] - lam[0]) * t) * c[1:]) / abs(c[0]) for t in times]


class TestValidate:
    def base_config(self, **kw):
        cfg = RunConfig(DEFAULTS)
        cfg["command"] = "eigen"
        cfg["example"] = "ou"
        cfg.update(kw)
        return cfg

    def test_valid_ou_config_is_clean(self):
        assert validate(self.base_config()) == []

    def test_grid_n_diagnostic(self):
        diags = validate(self.base_config(**{"grid.n": 2}))
        assert any("grid.n must be >= 3" in d for d in diags)

    def test_delta_diagnostic(self):
        cfg = self.base_config(example=None)
        cfg["potential.family"] = "shifted-power"
        cfg["potential.delta"] = 2.0
        diags = validate(cfg)
        assert any("delta > 2" in d for d in diags)

    def test_missing_problem_diagnostic(self):
        cfg = self.base_config(example=None)
        diags = validate(cfg)
        assert any("potential.family" in d for d in diags)

    def test_ou_lambda_diagnostic(self):
        for lam in (0.0, -1.0, math.nan):
            diags = validate(self.base_config(**{"potential.lambda": lam}))
            assert "potential.lambda must be positive" in diags

    def test_example_and_potential_family_exit_one_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["report", "--example", "ou", "--potential", "shifted-power", "--n", "200",
                    "--t-max", "1", "--samples", "11", "--output", str(out)]) == 1
        assert capsys.readouterr().err == \
            "qsdlab: example and potential.family exclude each other; set one\n"
        assert not out.exists()

    @pytest.mark.parametrize("changes, message", [
        ({"command": "plot"}, "command must be one of"),
        ({"example": "brownian", "example.N": 0.0}, "example.N must be positive"),
        ({"flow.t_max": 0.0}, "flow.t_max must be positive"),
        ({"flow.samples": 1}, "flow.samples must be >= 2"),
        ({"mc.dt": 0.0}, "mc.dt must be positive"),
        ("grid.n 400", "expected 'key = value'"),
    ], ids=["command", "example.N", "flow.t_max", "flow.samples", "mc.dt", "config-line"])
    def test_diagnostic(self, tmp_path, changes, message):
        if isinstance(changes, str):  # a config-file line
            conf = tmp_path / "run.conf"
            conf.write_text(f"example = ou\n{changes}\n")
            with pytest.raises(ValueError, match=f"run.conf:2: {message}"):
                parse_config_file(conf)
        else:
            assert [d for d in validate(self.base_config(**changes)) if d.startswith(message)]

    @pytest.mark.parametrize("argv, conf, unread", [
        (["--example", "brownian", "--lambda", "-5", "--delta", "1"], None,
         "brownian does not read potential.delta, potential.lambda"),
        (["--potential", "zero", "--x-min", "-1", "--x-max", "1", "--N", "7"], None,
         "zero does not read example.N"),
        (["--example", "ou", "--delta", "5", "--table-path", "/nonexistent"], None,
         "ou does not read potential.delta, potential.table_path"),
        (["--x-max", "2.5"], "potential.family = shifted-power\npotential.lambda = 2\n",
         "shifted-power does not read potential.lambda"),
    ], ids=["brownian", "zero", "ou", "config-file"])
    def test_setting_the_problem_does_not_read_exits_one_without_outputs(
            self, tmp_path, capsys, argv, conf, unread):
        if conf is not None:
            (tmp_path / "run.conf").write_text(conf)
            argv = [*argv, "--config", str(tmp_path / "run.conf")]
        out = tmp_path / "x"
        assert run(["eigen", *argv, "--n", "50", "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"qsdlab: {unread}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, value", [
        (["report", "--example", "ou", "--n", "50", "--t-max", "1", "--samples", "11"], "-1"),
        (["eigen", "--example", "ou", "--n", "50"], "-1"),
        (["rates", "--potential", "shifted-power", "--delta", "3", "--x-max", "2.5", "--n", "50"], "0"),
        (["rates", "--potential", "shifted-power", "--delta", "3", "--x-max", "2.5", "--n", "50"], "nan"),
    ], ids=["report-negative", "eigen-negative", "rates-zero", "rates-nan"])
    def test_nonpositive_lambda0_lower_exits_one_without_outputs(self, tmp_path, capsys, argv, value):
        out = tmp_path / "x"
        assert run([*argv, "--lambda0-lower", value, "--output", str(out)]) == 1
        assert capsys.readouterr().err == "qsdlab: rates.lambda0_lower must be positive\n"
        assert not out.exists()

    def test_mc_diagnostics(self):
        cfg = self.base_config(**{"mc.particles": 10, "mc.dt": 2.0, "mc.horizon": 1.0})
        diags = validate(cfg)
        assert any("mc.particles" in d for d in diags)
        assert any("mc.dt" in d for d in diags)


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# comment\n"
            "example = brownian\n"
            "example.N = 1.0\n"
            "grid.n = 503\n"
        )
        parsed = parse_config_file(conf)
        assert parsed["grid.n"] == 503
        out = tmp_path / "out"
        code = run(["eigen", "--config", str(conf), "--n", "301",
                    "--output", str(out)])
        assert code == 0
        lines = read(out / "eta.csv").splitlines()
        assert len(lines) == 302  # the flag wins over the file

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("grid.m = 10\n")
        with pytest.raises(ValueError):
            parse_config_file(conf)

    def test_missing_config_exits_one_without_outputs(self, tmp_path):
        out = tmp_path / "fresh"
        code = run(["eigen", "--config", str(tmp_path / "nope.conf"),
                    "--output", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("line", ["mc.seed = 3", "rates.use_drift_form = false",
                                      "example.lambda = 2"])
    def test_removed_keys_exit_one_without_outputs(self, tmp_path, capsys, line):
        conf = tmp_path / "old.conf"
        conf.write_text(f"example = ou\n{line}\n")
        out = tmp_path / "x"
        assert run(["simulate", "--config", str(conf), "--output", str(out)]) == 1
        assert "unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_ou_example_reads_potential_lambda(self, tmp_path):
        # --lambda and the config file set the one key potential.lambda
        conf = tmp_path / "ou.conf"
        conf.write_text("example = ou\npotential.lambda = 2\ngrid.n = 400\n")
        assert run(["eigen", "--config", str(conf), "--output", str(tmp_path / "eig")]) == 0
        assert abs(json.loads(read(tmp_path / "eig" / "eigen.json"))["lambda0"] - 2.0) < 1e-4

    def test_simulate_dt_flag_matches_config_key(self, tmp_path):
        common = ["--example", "brownian", "--n", "100", "--particles", "300", "--horizon", "0.05"]
        conf = tmp_path / "dt.conf"
        conf.write_text("mc.dt = 2e-3\n")
        flag, keyed = tmp_path / "flag", tmp_path / "key"
        assert run(["simulate", *common, "--dt", "2e-3", "--output", str(flag)]) == 0
        assert run(["simulate", *common, "--config", str(conf), "--output", str(keyed)]) == 0
        for name in ("survival.csv", "positions.csv"):
            assert (flag / name).read_bytes() == (keyed / name).read_bytes(), name
        assert len(read(flag / "survival.csv").splitlines()) == 27  # header, t = 0 and 25 steps

    def test_boolean_key_false_and_unparsable(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("example = brownian\nmc.resample = false\n")
        assert parse_config_file(conf)["mc.resample"] is False
        conf.write_text("example = brownian\nmc.resample = maybe\n")
        out = tmp_path / "x"
        assert run(["simulate", "--config", str(conf), "--output", str(out)]) == 1
        assert "mc.resample: expected a boolean, got 'maybe'" in capsys.readouterr().err
        assert not out.exists()

    def test_mc_dt_flag_is_gone(self, tmp_path):
        out = tmp_path / "x"
        assert run(["simulate", "--example", "brownian", "--mc-dt", "1e-3",
                    "--output", str(out)]) == 1
        assert not out.exists()


class TestCsvWriter:
    def test_bytes_match_per_value_join(self, tmp_path):
        def per_value(header, rows):
            lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
            return "\n".join(lines) + "\n"

        mixed = [
            (0, 1.5, np.float64(-2.25)),
            (7, -math.inf, math.nan),
            (0.0, -0.0, 1e-300),
            (np.float64(1.0) / 3.0, 10**6, np.nextafter(1.0, 2.0)),
        ]
        write_csv(str(tmp_path / "mixed.csv"), "a,b,c", [np.array(col) for col in zip(*mixed)])
        assert read(tmp_path / "mixed.csv") == per_value("a,b,c", mixed)

        # the simulate command's position columns: int ids against the float
        # ids and numpy rows written before
        positions = np.array([[0.5, -0.25], [1e-300, -0.0], [-1.0 / 3.0, 2.0**-60]])
        header = "particle_id,x1,x2"
        write_csv(str(tmp_path / "positions.csv"), header, (np.arange(len(positions)), *positions.T))
        expected = per_value(header, [(float(i), *row) for i, row in enumerate(positions)])
        assert read(tmp_path / "positions.csv") == expected

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_boundaries_match_per_value_join(self, tmp_path, extra):
        from qsdlab.artifacts import _CHUNK_ROWS

        rng = np.random.default_rng(extra + 1)
        vals = rng.standard_normal((_CHUNK_ROWS + extra, 2)) * 1e3
        write_csv(str(tmp_path / "c.csv"), "i,a,b", (np.arange(len(vals)), *vals.T))
        rows = [(i, *row) for i, row in enumerate(vals.tolist())]
        expected = "".join(["i,a,b\n"] + [",".join(f"{v:.17g}" for v in row) + "\n" for row in rows])
        assert read(tmp_path / "c.csv") == expected

    @pytest.mark.parametrize("columns", [
        (np.array([0.5, 1.5]), np.array(["0.5", "1.5"])),
        (np.array([0.5, 1.5]), np.array([0.5, 1.5], dtype=object)),
        (np.array([0.5, 1.5]), np.array([[0.5, 1.5]])),
        (np.full(4097, 0.5), np.full(4096, 1.5)),  # rows past the first chunk
    ], ids=["str", "object", "2d", "unequal-lengths"])
    def test_bad_column_raises_and_keeps_target(self, tmp_path, columns):
        target = tmp_path / "t.csv"
        target.write_text("old\n")
        with pytest.raises(ValueError, match="of 'a,b'"):
            write_csv(str(target), "a,b", columns)
        assert read(target) == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_positions_ids_keep_their_bytes(self, tmp_path):
        from qsdlab.montecarlo import ParticleEnsemble, save_positions_csv

        positions = np.random.default_rng(5).standard_normal((5000, 2))
        ensemble = ParticleEnsemble(positions=positions, alive_count=5000, t=1.0, initial_count=5000,
                                    log_survival_estimate=0.0, survival_curve=np.zeros((1, 3)))
        save_positions_csv(ensemble, tmp_path / "p.csv")
        expected = "".join(["particle_id,x1,x2\n"] + [f"{float(i):.17g},{a:.17g},{b:.17g}\n"
                                                       for i, (a, b) in enumerate(positions)])
        assert read(tmp_path / "p.csv") == expected

    @pytest.mark.parametrize("row", [(1.0, 2.0, 3.0), (1.0,)])
    def test_row_length_mismatch_raises_and_keeps_target(self, tmp_path, row):
        # rows of three values, or of one, under two header columns: one
        # column per value
        target = tmp_path / "t.csv"
        target.write_text("old\n")
        with pytest.raises(ValueError, match=f"{len(row)} columns for the header 'a,b'"):
            write_csv(str(target), "a,b", [np.array([0.5, v]) for v in row])
        assert read(target) == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


class TestCommands:
    def test_eigen_brownian(self, tmp_path):
        out = tmp_path / "eig"
        code = run(["eigen", "--example", "brownian", "--N", "1",
                    "--n", "1999", "--output", str(out)])
        assert code == 0
        payload = json.loads(read(out / "eigen.json"))
        assert abs(payload["lambda0"] - math.pi**2 / 8.0) < 1e-4
        assert (out / "eta.csv").exists() and (out / "alpha.csv").exists()

    def test_artifact_mode_follows_umask(self, tmp_path):
        out = tmp_path / "eig"
        old = os.umask(0o022)
        try:
            code = run(["eigen", "--example", "brownian", "--n", "99",
                        "--output", str(out)])
        finally:
            os.umask(old)
        assert code == 0
        for name in ("eigen.json", "eta.csv", "alpha.csv"):
            assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o666 & ~0o022

    def test_rates_shifted_power(self, tmp_path):
        out = tmp_path / "rates"
        code = run(["rates", "--potential", "shifted-power", "--delta", "3",
                    "--lambda0-lower", "1", "--n", "1500", "--x-max", "2.5",
                    "--output", str(out)])
        assert code == 0
        table = json.loads(read(out / "rates.json"))
        assert table["kappa_tilde_basic"] >= 6.0
        assert table["kappa_tilde_refined"] >= table["kappa_tilde_basic"]
        assert table["lambda0_lower_used"] == 1.0

    def test_rates_without_a_refined_cdfi_rate(self, tmp_path):
        # the drift form of kappa~ needs V' > 0, which V = 0 does not have
        out = tmp_path / "rates"
        assert run(["rates", "--potential", "zero", "--x-min", "-1", "--x-max", "1",
                    "--n", "200", "--output", str(out)]) == 0
        table = json.loads(read(out / "rates.json"))
        assert table["kappa_tilde_refined"] is None
        assert table["kappa_tilde_basic"] > 0.0

    def test_brownian_report_takes_the_analytic_curvature(self, tmp_path):
        out = tmp_path / "rep"
        assert run(["report", "--example", "brownian", "--N", "2", "--n", "200",
                    "--samples", "11", "--output", str(out)]) == 0
        assert json.loads(read(out / "report.json"))["kappa"] == (math.pi / 4.0) ** 2

    # lambda0 of delta = 3 on (0, 2.5) at n = 400 is 7.959: a lower bound of
    # 50 would certify kappa_tilde = 35.88, above the gap 11.17
    @pytest.mark.parametrize("command", ["rates", "report"])
    def test_lambda0_lower_above_lambda0_exits_one_without_outputs(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        assert run([command, "--potential", "shifted-power", "--delta", "3", "--lambda0-lower", "50",
                    "--x-max", "2.5", "--n", "400", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("qsdlab: lambda0_lower = 50 exceeds the upper bound 7.9589")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    def test_evolve_curves(self, tmp_path):
        out = tmp_path / "evo"
        code = run(["evolve", "--example", "brownian", "--n", "400",
                    "--t-max", "1.0", "--samples", "11",
                    "--initial", "gaussian-truncated", "--output", str(out)])
        assert code == 0
        rows = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)
        assert rows.shape == (11, 6)
        assert rows[-1, 1] < rows[1, 1]  # TV to the QSD decreases

    def test_report_fields(self, tmp_path):
        out = tmp_path / "rep"
        code = run(["report", "--example", "ou", "--n", "800", "--t-max", "2.0",
                    "--samples", "21", "--initial", "gaussian-truncated",
                    "--initial-center", "1.2", "--initial-width", "0.4",
                    "--output", str(out)])
        assert code == 0
        payload = json.loads(read(out / "report.json"))
        assert payload["gap"] == pytest.approx(2.0, abs=1e-4)
        assert payload["kappa"] == 2.0
        assert (out / "curves.csv").exists()

    def test_default_report_fits_over_a_window_that_ends_at_the_last_sample(self, tmp_path):
        # the default OU report has its burn-in (1.8) after 3/gap (1.5): the
        # default window then ends at the last sample time, not before it starts
        out = tmp_path / "rep"
        assert run(["report", "--example", "ou", "--output", str(out)]) == 0
        payload = json.loads(read(out / "report.json"))
        start, end = payload["fit_window"]
        assert start < end == 2.0
        for name in ("fitted_rate_tv", "fitted_rate_w1", "fitted_rate_chi2"):
            assert math.isfinite(payload[name]) and payload[name] > 0.0
        assert any("ended at the last sample time" in note for note in payload["notes"])

    def test_default_report_window_without_width_keeps_nan(self, tmp_path):
        out = tmp_path / "rep"
        assert run(["report", "--potential", "shifted-power", "--t-max", "0.3",
                    "--samples", "4", "--output", str(out)]) == 0
        payload = json.loads(read(out / "report.json"))
        start, end = payload["fit_window"]
        assert start == end == 0.3
        assert payload["fitted_rate_tv"] is None
        assert any("no width" in note for note in payload["notes"])

    def test_report_window_with_too_few_samples_has_a_note(self, tmp_path):
        # burn-in is not reached by t = 1, so the window (1.0, 1.5) holds one sample
        out = tmp_path / "rep"
        assert run(["report", "--example", "ou", "--n", "300", "--t-max", "1",
                    "--output", str(out)]) == 0
        payload = json.loads(read(out / "report.json"))
        assert payload["fit_window"] == [1.0, pytest.approx(1.5, rel=1e-5)]
        assert payload["fitted_rate_tv"] is None
        assert "default fit window holds 1 sample(s), fewer than the 5 a fit needs, " \
            "so the fitted rates are NaN" in payload["notes"]

    def test_report_json_is_strict(self, tmp_path):
        # the fitted rates of this window are NaN in memory and null on disk
        out = tmp_path / "rep"
        assert run(["report", "--example", "ou", "--n", "300", "--t-max", "1", "--output", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        payload = json.loads(read(out / "report.json"), parse_constant=reject)
        assert payload["fitted_rate_chi2"] is None
        assert "prefactor_Cd" not in payload

    def test_simulate_deterministic(self, tmp_path):
        args = ["simulate", "--example", "brownian", "--n", "200",
                "--particles", "500", "--horizon", "0.2", "--dt", "1e-3",
                "--seed", "9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        assert read(out1 / "positions.csv") == read(out2 / "positions.csv")
        assert read(out1 / "survival.csv") == read(out2 / "survival.csv")

    def test_simulate_all_absorbed_exits_two(self, tmp_path):
        out = tmp_path / "dead"
        code = run(["simulate", "--potential", "zero", "--x-min", "-0.02",
                    "--x-max", "0.02", "--n", "50", "--particles", "200",
                    "--horizon", "1.0", "--dt", "1e-3", "--output", str(out)])
        assert code == 2

    def test_chi_far_below_its_start_meets_the_eigenbasis(self, tmp_path):
        # chi falls from 5.3e3 to 2.8e-13 at t = 15 and 2.6e-26 at t = 30,
        # 29 decades, and keeps its relative accuracy
        out = tmp_path / "ou"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["evolve", "--example", "ou", "--n", "2000", "--t-max", "30",
                        "--samples", "31", "--initial", "gaussian-truncated",
                        "--initial-center", "1.5", "--output", str(out)])
        assert code == 0
        rows = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)
        assert not np.isnan(rows).any()
        gaussian = lambda x: np.exp(-((x - 1.5) ** 2) / 2.0)
        np.testing.assert_allclose(rows[[15, 30], 3], ou_chi_reference(2000, gaussian, [15.0, 30.0]),
                                   rtol=1e-8, atol=0.0)

    def test_chi_decays_past_1e_128(self, tmp_path):
        # from a uniform law chi(0) = 3.6e11; a distance left along the principal
        # eigenvector by roundoff would stay flat near 7e-13
        out = tmp_path / "ou"
        assert run(["evolve", "--example", "ou", "--n", "200", "--t-max", "300",
                    "--samples", "3", "--output", str(out)]) == 0
        chi = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)[1, 3]
        # the slow mode is 7e-11 of |w_perp(0)|: the start's own roundoff leaves
        # it about eps / 7e-11 = 3e-6 relative (it reads 1.6e-6), in any method
        # that works on w_perp(0) in the 2-norm
        np.testing.assert_allclose(chi, ou_chi_reference(200, np.ones_like, [150.0]), rtol=1e-5, atol=0.0)

    def test_chi_of_a_uniform_law_on_the_default_mesh(self, tmp_path):
        out = tmp_path / "ou"
        assert run(["evolve", "--example", "ou", "--n", "2000", "--t-max", "30",
                    "--samples", "31", "--output", str(out)]) == 0
        chi = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)[-1, 3]
        np.testing.assert_allclose(chi, ou_chi_reference(2000, np.ones_like, [30.0]), rtol=1e-3, atol=0.0)

    def test_chi_below_roundoff_on_three_nodes(self, tmp_path):
        # chi(2) / chi(0) = e^-269: the law and survival are kept, and chi with them
        out = tmp_path / "ou"
        assert run(["evolve", "--example", "ou", "--n", "3", "--t-max", "2", "--samples", "2",
                    "--initial", "gaussian-truncated", "--initial-center", "1.2",
                    "--initial-width", "0.25", "--output", str(out)]) == 0
        gaussian = lambda x: np.exp(-((x - 1.2) ** 2) / (2.0 * 0.25**2))
        chi = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)[-1, 3]
        np.testing.assert_allclose(chi, ou_chi_reference(3, gaussian, [2.0]), rtol=1e-6, atol=0.0)

    def test_rates_convergence_failure_exits_two(self, tmp_path, monkeypatch):
        from qsdlab import spectral

        monkeypatch.setattr(spectral, "MAX_ITER", 1)
        code = run(["rates", "--potential", "shifted-power", "--delta", "3",
                    "--lambda0-lower", "1", "--n", "200", "--x-max", "2.5",
                    "--output", str(tmp_path / "rates")])
        assert code == 2

    def test_validation_exit_code(self, tmp_path):
        code = run(["eigen", "--example", "brownian", "--n", "2",
                    "--output", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["--example", "ou", "--lambda", "0"],
        ["--example", "ou", "--lambda", "-1"],
        ["--example", "ou", "--n", "many"],
        ["--example", "levy"],
        ["--potential", "cubic"],
        ["--example", "ou", "--initial", "dirac"],
        ["--example", "ou", "--t-max", "inf"],
        ["--example", "ou", "--initial", "gaussian-truncated", "--initial-width", "-1"],
        ["--example", "ou", "--initial", "gaussian-truncated", "--initial-width", "0"],
    ])
    def test_invalid_values_exit_one_without_outputs(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert run(["eigen", *argv, "--output", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("qsdlab: ") and "Traceback" not in err

    @pytest.mark.parametrize("law", [
        ["--initial", "gaussian-truncated", "--initial-center", "inf"],
        ["--initial", "uniform", "--initial-lo", "5", "--initial-hi", "1"],
    ])
    def test_initial_law_without_mass_exits_one_without_outputs(self, tmp_path, capsys, law):
        argv = ["evolve", "--example", "ou", "--n", "200", *law]
        out = tmp_path / "x" / "y"
        assert run([*argv, "--output", str(out)]) == 1
        assert not (tmp_path / "x").exists()
        err = capsys.readouterr().err
        assert err.startswith("qsdlab: ") and "Traceback" not in err
        # a directory that was there before stays
        out.mkdir(parents=True)
        assert run([*argv, "--output", str(out)]) == 1
        assert out.is_dir() and not list(out.iterdir())

    def test_underflowing_grid_spacing_exits_one(self, tmp_path, capsys):
        for half_width in ("1e-160", "1e300"):  # h^2 underflows, then overflows
            assert run(["eigen", "--example", "brownian", "--N", half_width,
                        "--output", str(tmp_path / half_width)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("qsdlab: grid spacing") and "Traceback" not in err

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon_exits_one_without_outputs(self, tmp_path, capsys, horizon):
        out = tmp_path / "x"
        assert run(["simulate", "--example", "brownian", "--particles", "200",
                    "--horizon", horizon, "--output", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("qsdlab: mc.horizon ") and "Traceback" not in err

    @pytest.mark.parametrize("horizon, dt", [("1e300", "1e-10"), ("1", "5e-324")])
    def test_overflowing_step_count_exits_one_without_outputs(self, tmp_path, capsys,
                                                             horizon, dt):
        out = tmp_path / "x"
        assert run(["simulate", "--example", "brownian", "--particles", "100",
                    "--horizon", horizon, "--dt", dt, "--output", str(out)]) == 1
        assert capsys.readouterr().err == "qsdlab: the step count horizon / dt must be finite\n"
        assert not out.exists()

    def test_eigen_artifacts_match_library_savers(self, tmp_path):
        from qsdlab import spectral
        from qsdlab.grid_measure import build_grid, save_measure_csv
        from qsdlab.potential import quadratic_potential

        out = tmp_path / "cli"
        assert run(["eigen", "--example", "ou", "--n", "300", "--output", str(out)]) == 0
        spec, grid = quadratic_potential(1.0), build_grid(0.0, 8.0, 300)
        op = spectral.assemble_generator(spec, grid)
        eigen = spectral.principal_eigenpair(op)
        lib = tmp_path / "lib"
        lib.mkdir()
        spectral.save_eigen_json(eigen, lib / "eigen.json")
        spectral.save_eigen_csv(eigen, grid, lib / "eta.csv")
        save_measure_csv(spectral.qsd_from_eigen(op, eigen), lib / "alpha.csv")
        for name in ("eigen.json", "eta.csv", "alpha.csv"):
            assert (out / name).read_bytes() == (lib / name).read_bytes(), name
        assert list(json.loads(read(out / "eigen.json"))) == [
            "lambda0", "lambda1", "gap", "normalization"]

    @pytest.mark.parametrize("n", [4096, 4097, 9000])
    def test_eigen_csvs_match_savers_across_chunk_edges(self, tmp_path, n):
        # eta.csv and alpha.csv each format the node column, and a per-value
        # join is the reference
        from qsdlab import spectral
        from qsdlab.grid_measure import build_grid, save_measure_csv
        from qsdlab.potential import quadratic_potential

        out = tmp_path / "cli"
        assert run(["eigen", "--example", "ou", "--n", str(n), "--output", str(out)]) == 0
        spec, grid = quadratic_potential(1.0), build_grid(0.0, 8.0, n)
        op = spectral.assemble_generator(spec, grid)
        eigen = spectral.principal_eigenpair(op)
        alpha = spectral.qsd_from_eigen(op, eigen)
        spectral.save_eigen_csv(eigen, build_grid(0.0, 8.0, n), tmp_path / "eta.csv")
        save_measure_csv(alpha, tmp_path / "alpha.csv")
        for name, header, values in (("eta.csv", "x,eta", eigen.eta),
                                     ("alpha.csv", "x,density", alpha.density)):
            rows = [f"{x:.17g},{v:.17g}\n" for x, v in zip(grid.nodes, values)]
            expected = "".join([header + "\n"] + rows)
            assert read(out / name) == read(tmp_path / name) == expected, name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [500.0, 1500.0])
    def test_potential_range_beyond_float64_exits_two(self, tmp_path, capsys, a):
        # V = a x^2 on (0, 2): for a = 500 the eigenvector of the symmetric
        # form spans more decades than a float64 holds, for a = 1500 the
        # symmetrising scale itself does
        x = np.linspace(0.0, 2.0, 2001)
        table = tmp_path / "steep.csv"
        write_csv(str(table), "x,V,Vp,Vpp", (x, a * x * x, 2.0 * a * x, np.full_like(x, 2.0 * a)))
        out = tmp_path / "eig"
        assert run(["eigen", "--potential", "tabulated", "--table-path", str(table),
                    "--n", "300", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qsdlab: numerical failure: ") and err.count("\n") == 1
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_generator_band_exits_two(self, tmp_path, capsys):
        # V = 1e300 x^2: the product of the two off bands overflows
        out = tmp_path / "eig"
        assert run(["eigen", "--potential", "quadratic", "--lambda", "1e300", "--n", "50",
                    "--output", str(out)]) == 2
        assert capsys.readouterr().err == ("qsdlab: numerical failure: non-finite generator scaling: "
                                           "not reversible, or weights over too many decades\n")
        assert not out.exists()

    # lambda1 - lambda0 of V = a (x^2 - 1)^2 tabulated at 2001 points on
    # (-2, 2), at n = 150: the 100-digit Sturm references of
    # test_spectral.TestMetastable, far below eps * ||L_h||
    @pytest.mark.parametrize("a, gap", [(48.0, 6.109903677247741e-20), (64.0, 9.186338627057832e-27)])
    def test_eigen_metastable_gap(self, tmp_path, a, gap):
        x = np.linspace(-2.0, 2.0, 2001)
        table = tmp_path / "well.csv"
        write_csv(str(table), "x,V,Vp,Vpp",
                  (x, a * (x * x - 1.0) ** 2, 4.0 * a * x * (x * x - 1.0), a * (12.0 * x * x - 4.0)))
        out = tmp_path / "eig"
        assert run(["eigen", "--potential", "tabulated", "--table-path", str(table),
                    "--n", "150", "--output", str(out)]) == 0
        assert abs(json.loads(read(out / "eigen.json"))["gap"] - gap) / gap <= 1e-12

    def test_custom_initial_measure(self, tmp_path):
        from qsdlab.grid_measure import GridMeasure, build_grid, save_measure_csv

        g = build_grid(-1.0, 1.0, 400)
        mpath = tmp_path / "mu.csv"
        save_measure_csv(GridMeasure(g, np.exp(-g.nodes**2)), mpath)
        out = tmp_path / "evo"
        code = run(["evolve", "--example", "brownian", "--n", "400",
                    "--t-max", "0.5", "--samples", "6", "--initial", "custom",
                    "--initial-path", str(mpath), "--output", str(out)])
        assert code == 0

    BROWNIAN_50 = ["--example", "brownian", "--N", "1", "--n", "50"]

    def evolve_custom_tv0(self, tmp_path, law):
        out = tmp_path / "evo"
        assert run(["evolve", *self.BROWNIAN_50, "--samples", "2", "--initial", "custom",
                    "--initial-path", str(law), "--output", str(out)]) == 0
        return np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)[0, 1]

    def test_custom_law_on_the_run_nodes_round_trips(self, tmp_path):
        # alpha.csv's grid ends, rebuilt from its nodes, come out an ulp off
        # (-1, 1) at n = 50; regridding would smooth the QSD by TV 2e-3
        assert run(["eigen", *self.BROWNIAN_50, "--output", str(tmp_path / "eig")]) == 0
        assert self.evolve_custom_tv0(tmp_path, tmp_path / "eig" / "alpha.csv") <= 1e-12

    def test_custom_law_on_other_nodes_is_regridded(self, tmp_path):
        from qsdlab import spectral
        from qsdlab.grid_measure import (
            GridMeasure, build_grid, load_measure_csv, regrid, save_measure_csv, tv_distance,
        )
        from qsdlab.potential import zero_potential

        law = tmp_path / "mu.csv"
        g60 = build_grid(-1.0, 1.0, 60)
        save_measure_csv(GridMeasure(g60, np.exp(-4.0 * g60.nodes**2)), law)
        spec, grid = zero_potential(domain=(-1.0, 1.0)), build_grid(-1.0, 1.0, 50)
        op = spectral.assemble_generator(spec, grid)
        eigen = spectral.principal_eigenpair(op)
        alpha = spectral.qsd_from_eigen(op, eigen)
        expected = tv_distance(regrid(load_measure_csv(law), grid), alpha)
        assert self.evolve_custom_tv0(tmp_path, law) == pytest.approx(expected, rel=1e-12)


class TestFlowCommands:
    BASE = ["--example", "ou", "--n", "300", "--t-max", "2.0", "--samples", "21",
            "--initial", "gaussian-truncated", "--initial-center", "1.2", "--initial-width", "0.4"]

    def test_evolve_and_report_write_the_same_curves(self, tmp_path):
        for command in ("evolve", "report"):
            assert run([command, *self.BASE, "--output", str(tmp_path / command)]) == 0
        assert (tmp_path / "evolve" / "curves.csv").read_bytes() == \
            (tmp_path / "report" / "curves.csv").read_bytes()

    def test_evolve_writes_the_library_exponential_curves(self, tmp_path):
        from qsdlab import spectral
        from qsdlab.analytics import decay_curves, write_curves_csv
        from qsdlab.grid_measure import GridMeasure, build_grid
        from qsdlab.potential import quadratic_potential

        out = tmp_path / "cli"
        assert run(["evolve", *self.BASE, "--output", str(out)]) == 0
        spec, grid = quadratic_potential(1.0), build_grid(0.0, 8.0, 300)
        op = spectral.assemble_generator(spec, grid)
        eigen = spectral.principal_eigenpair(op)
        mu = GridMeasure(grid, np.exp(-((grid.nodes - 1.2) ** 2) / (2.0 * 0.4**2)))
        times = np.linspace(0.0, 2.0, 21)
        lib = tmp_path / "lib.csv"
        write_curves_csv(str(lib), times, decay_curves(op, eigen, mu, times))
        assert (out / "curves.csv").read_bytes() == lib.read_bytes()

    @pytest.mark.parametrize("command", ["evolve", "report"])
    def test_flow_commands_reject_a_time_step(self, tmp_path, capsys, command):
        out = tmp_path / command
        assert run([command, *self.BASE, "--dt", "1e-3", "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"qsdlab: --dt: {command} evaluates the flow without time steps\n"
        assert not out.exists()

    def test_evolve_exits_two_at_the_krylov_cap(self, tmp_path, capsys, monkeypatch):
        from qsdlab import doob

        monkeypatch.setattr(doob, "KRYLOV_MAX_DIM", 2)
        assert run(["evolve", *self.BASE, "--output", str(tmp_path / "evo")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: Krylov exponential not converged: basis size 2" in err
        assert not (tmp_path / "evo" / "curves.csv").exists()

    def test_evolve_exits_two_at_a_vast_time(self, tmp_path, capsys):
        out = tmp_path / "evo"
        assert run(["evolve", "--example", "ou", "--n", "200", "--t-max", "1e200",
                    "--samples", "3", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"qsdlab: numerical failure: Krylov exponential not converged: "
                            r"basis size \d+, [^\n]*\n", err)
        assert not (out / "curves.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["evolve", "report"])
    @pytest.mark.parametrize("t_max", [5e-324, 2e-323])
    def test_subnormal_horizon_keeps_the_start_law(self, tmp_path, command, t_max):
        # the flow's Krylov shift, a tenth of t_max, rounds to 0 at such a t_max
        out = tmp_path / command
        assert run([command, "--example", "ou", "--n", "50", "--samples", "2",
                    "--t-max", repr(t_max), "--output", str(out)]) == 0
        start, end = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)
        assert end[0] == t_max and end[-1] == -t_max
        assert np.array_equal(end[1:3], start[1:3])  # tv and w1


class TestQsdInitialLaw:
    OU = ["--example", "ou", "--n", "400"]

    def test_evolve_from_the_qsd_stays_there(self, tmp_path):
        # the QSD is invariant for the conditioned flow and its mass decays as exp(-lambda0 t)
        assert run(["eigen", *self.OU, "--output", str(tmp_path / "eig")]) == 0
        assert run(["evolve", *self.OU, "--initial", "qsd", "--output", str(tmp_path / "evo")]) == 0
        lam0 = json.loads(read(tmp_path / "eig" / "eigen.json"))["lambda0"]
        rows = np.loadtxt(tmp_path / "evo" / "curves.csv", delimiter=",", skiprows=1)
        assert rows.shape == (41, 6)
        assert np.all(rows[:, 1] <= 1e-12)
        np.testing.assert_allclose(rows[:, 5], -lam0 * rows[:, 0], rtol=1e-9, atol=0.0)

    # the law moves off the computed QSD by 7.1e-12 in TV at n = 8000 (2.8e-16 at
    # 2000), saturating at t ~ 2 / gap: far inside the flow's 1e-10 tolerance
    @pytest.mark.parametrize(("n", "tv"), [("2000", 1e-12), ("8000", 1e-11)])
    def test_evolve_from_the_qsd_on_a_fine_mesh(self, tmp_path, n, tv):
        # w_perp(0) of the QSD is roundoff, so chi is 0 after t = 0
        ou = ["--example", "ou", "--n", n]
        assert run(["eigen", *ou, "--output", str(tmp_path / "eig")]) == 0
        assert run(["evolve", *ou, "--initial", "qsd", "--output", str(tmp_path / "evo")]) == 0
        lam0 = json.loads(read(tmp_path / "eig" / "eigen.json"))["lambda0"]
        rows = np.loadtxt(tmp_path / "evo" / "curves.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] <= tv)
        np.testing.assert_allclose(rows[:, 5], -lam0 * rows[:, 0], rtol=1e-9, atol=0.0)
        assert np.all(rows[1:, 3] == 0.0)

    def test_survival_weight_is_the_exp_of_log_survival(self, tmp_path):
        # exp(-720) is subnormal, 2.0323073001e-313: written as it is, not cut to 0
        out = tmp_path / "evo"
        assert run(["evolve", "--example", "ou", "--n", "200", "--t-max", "720", "--samples", "3",
                    "--initial", "qsd", "--output", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in read(out / "curves.csv").splitlines()[1:]]
        assert len(rows) == 3 and 0.0 < rows[-1][4] < 1e-300
        assert all(row[4] == math.exp(row[5]) for row in rows)

    def test_report_writes_the_evolve_curves(self, tmp_path):
        for command in ("evolve", "report"):
            assert run([command, *self.OU, "--initial", "qsd", "--output", str(tmp_path / command)]) == 0
        assert (tmp_path / "evolve" / "curves.csv").read_bytes() == \
            (tmp_path / "report" / "curves.csv").read_bytes()

    def test_simulate_from_the_qsd(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", *self.OU, "--initial", "qsd", "--particles", "1000",
                    "--horizon", "0.1", "--dt", "1e-3", "--output", str(out)]) == 0
        x = np.loadtxt(out / "positions.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        assert x.size > 0 and np.all(x > 0.0)


class TestGridBounds:
    @pytest.mark.parametrize("argv", [
        ["--example", "ou", "--x-max", "0"],
        ["--example", "ou", "--x-min", "1"],
        ["--example", "brownian", "--x-min", "-5", "--x-max", "5"],
        ["--potential", "shifted-power", "--x-min", "0.5"],
        ["--potential", "quadratic", "--x-max", "-1"],
        ["--potential", "zero", "--x-min", "0"],
        ["--potential", "zero", "--x-min", "-1", "--x-max", "inf"],
    ])
    def test_ignored_or_empty_bounds_exit_one_without_outputs(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert run(["eigen", *argv, "--n", "50", "--output", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("qsdlab: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv, x_min, x_max", [
        (["--example", "ou", "--x-max", "4"], 0.0, 4.0),
        (["--potential", "quadratic", "--x-min", "1", "--x-max", "3"], 1.0, 3.0),
    ])
    def test_given_bounds_are_used(self, tmp_path, argv, x_min, x_max):
        from qsdlab.grid_measure import build_grid

        out = tmp_path / "eig"
        assert run(["eigen", *argv, "--n", "49", "--output", str(out)]) == 0
        nodes = np.loadtxt(out / "eta.csv", delimiter=",", skiprows=1)[:, 0]
        np.testing.assert_array_equal(nodes, build_grid(x_min, x_max, 49).nodes)

    def test_negative_values_in_scientific_notation(self, tmp_path):
        base = ["eigen", "--potential", "zero", "--x-max", "1", "--n", "50"]
        assert run([*base, "--x-min", "-1e-3", "--output", str(tmp_path / "a")]) == 0
        assert run([*base, "--x-min=-1e-3", "--output", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "eta.csv").read_bytes() == (tmp_path / "b" / "eta.csv").read_bytes()
        assert np.loadtxt(tmp_path / "a" / "eta.csv", delimiter=",", skiprows=1)[0, 0] == \
            pytest.approx(-1e-3 + 1.001 / 51)


class TestPathKinds:
    @pytest.mark.parametrize("argv", [
        ["eigen", "--potential", "tabulated", "--table-path", "{dir}"],
        ["evolve", "--example", "ou", "--n", "100", "--initial", "custom", "--initial-path", "{dir}"],
        ["eigen", "--config", "{dir}"],
    ], ids=["table-path", "initial-path", "config"])
    def test_directory_for_a_file_exits_one_without_outputs(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert run([a.format(dir=tmp_path) for a in argv] + ["--output", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("qsdlab: ") and err.count("\n") == 1

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
    def test_output_naming_a_file_exits_one_before_solving(self, tmp_path, capsys, below):
        target = tmp_path / "taken"
        target.write_text("old\n")
        assert run(["eigen", "--example", "ou", "--n", "100", "--output", str(target / below)]) == 1
        assert capsys.readouterr().err == "qsdlab: output must name a directory, not a file\n"
        assert read(target) == "old\n" and [p.name for p in tmp_path.iterdir()] == ["taken"]

    # a numpy warning on a header-only file would print ahead of the one error line
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["evolve", "simulate"])
    @pytest.mark.parametrize("text", ["x,density\n", "x\n0.25\n0.5\n0.75\n"], ids=["header-only", "one-column"])
    def test_custom_law_without_two_columns_exits_one(self, tmp_path, capsys, command, text):
        law = tmp_path / "mu.csv"
        law.write_text(text)
        out = tmp_path / "x"
        assert run([command, "--example", "ou", "--n", "100", "--particles", "200", "--initial", "custom",
                    "--initial-path", str(law), "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "qsdlab: measure CSV must have columns x,density\n"

    def test_eigenvector_as_a_custom_law_exits_one(self, tmp_path, capsys):
        # eta.csv holds two columns too, but they are x,eta, not a density
        assert run(["eigen", "--example", "ou", "--n", "50", "--output", str(tmp_path / "eig")]) == 0
        out = tmp_path / "x"
        assert run(["evolve", "--example", "ou", "--n", "50", "--initial", "custom",
                    "--initial-path", str(tmp_path / "eig" / "eta.csv"), "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "qsdlab: measure CSV must have columns x,density\n"

    def test_potential_table_with_other_column_names_exits_one(self, tmp_path, capsys):
        x = np.linspace(-2.0, 2.0, 41)
        table = tmp_path / "v.csv"
        write_csv(str(table), "x,V,dV,d2V", (x, x * x, 2.0 * x, np.full_like(x, 2.0)))
        out = tmp_path / "x"
        assert run(["eigen", "--potential", "tabulated", "--table-path", str(table), "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "qsdlab: potential CSV must have columns x,V,Vp,Vpp\n"

    def test_custom_law_with_crlf_line_ends_loads(self, tmp_path):
        assert run(["eigen", "--example", "ou", "--n", "50", "--output", str(tmp_path / "eig")]) == 0
        law = tmp_path / "crlf.csv"
        law.write_bytes((tmp_path / "eig" / "alpha.csv").read_bytes().replace(b"\n", b"\r\n"))
        assert run(["evolve", "--example", "ou", "--n", "50", "--samples", "2", "--initial", "custom",
                    "--initial-path", str(law), "--output", str(tmp_path / "evo")]) == 0

    @pytest.mark.filterwarnings("error")
    def test_header_only_potential_table_exits_one(self, tmp_path, capsys):
        table = tmp_path / "v.csv"
        table.write_text("x,V,Vp,Vpp\n")
        out = tmp_path / "x"
        assert run(["eigen", "--potential", "tabulated", "--table-path", str(table), "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "qsdlab: potential CSV must have columns x,V,Vp,Vpp\n"


class TestRunProblem:
    OU = ["--example", "ou", "--n", "200"]
    QSD = ["--initial", "qsd"]
    MC = ["--particles", "200", "--horizon", "0.05"]

    # each command solves once for lambda0 and eta, and once more for the gap
    # where it reports lambda1; the qsd initial law reuses the run's eigenpair
    @pytest.mark.parametrize("command, extra, solves", [
        ("eigen", [], 2),
        ("rates", [], 2),
        ("evolve", [], 1),
        ("evolve", QSD, 1),
        ("simulate", MC, 0),
        ("simulate", [*MC, *QSD], 1),
        ("report", [], 2),
        ("report", QSD, 2),
    ], ids=["eigen", "rates", "evolve", "evolve-qsd", "simulate", "simulate-qsd", "report", "report-qsd"])
    def test_inverse_iterations_per_command(self, tmp_path, monkeypatch, command, extra, solves):
        from qsdlab import spectral

        calls = []
        solve = spectral._inverse_iteration
        monkeypatch.setattr(spectral, "_inverse_iteration", lambda *a: calls.append(1) or solve(*a))
        assert run([command, *self.OU, *extra, "--output", str(tmp_path / "x")]) == 0
        assert len(calls) == solves

    @pytest.mark.parametrize("argv, lo, hi", [
        (["--potential", "quadratic", "--x-min", "1", "--x-max", "3"], 1.0, 3.0),
        (["--example", "ou", "--x-max", "2"], 0.0, 2.0),
    ], ids=["quadratic", "ou"])
    def test_simulate_absorbs_at_the_bounds_it_is_given(self, tmp_path, argv, lo, hi):
        out = tmp_path / "sim"
        assert run(["simulate", *argv, "--n", "100", "--particles", "500", "--horizon", "0.2",
                    "--dt", "1e-3", "--output", str(out)]) == 0
        x = np.loadtxt(out / "positions.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        assert x.size > 0 and np.all((x > lo) & (x < hi))

    def test_simulate_all_absorbed_is_a_numerical_failure(self, tmp_path, capsys):
        assert run(["simulate", "--potential", "zero", "--x-min", "-0.02", "--x-max", "0.02", "--n", "50",
                    "--particles", "200", "--output", str(tmp_path / "dead")]) == 2
        assert capsys.readouterr().err == \
            "qsdlab: numerical failure: simulation ended with status all_absorbed\n"


class TestProcess:
    SIMULATE = ["simulate", "--example", "brownian", "--N", "1.0", "--particles", "1000",
                "--dt", "0.001", "--horizon", "0.1", "--seed", "3"]

    def python(self, code, *args):
        # a fresh interpreter: this one has scipy loaded by the other tests
        src = os.path.dirname(os.path.dirname(qsdlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_simulate_runs_without_scipy(self, tmp_path):
        code = (
            "import json, sys\n"
            "from qsdlab import cli\n"
            "seen = ['scipy' in sys.modules]\n"
            "for initial in ('uniform', 'gaussian-truncated'):\n"
            f"    status = cli.run({self.SIMULATE!r} + ['--initial', initial, '--output', sys.argv[1] + initial])\n"
            "    seen.append([status, 'scipy' in sys.modules])\n"
            "print(json.dumps(seen))\n"
        )
        assert self.python(code, str(tmp_path / "sim-")) == [False, [0, False], [0, False]]

    def test_solvers_import_scipy_at_their_first_solve(self, tmp_path):
        code = (
            "import json, sys\n"
            "from qsdlab import cli\n"
            "status = cli.run(['eigen', '--example', 'ou', '--lambda', '1.0', '--n', '50',"
            " '--output', sys.argv[1]])\n"
            "print(json.dumps([status, 'scipy.linalg' in sys.modules]))\n"
        )
        assert self.python(code, str(tmp_path / "eig")) == [0, True]

    def test_simulate_on_a_vast_interval_warns_nothing(self, tmp_path):
        # positions near 1e199 overflow the bridge products (x - b)(y - b) to +inf
        src = os.path.dirname(os.path.dirname(qsdlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qsdlab.cli", "simulate",
             "--potential", "zero", "--x-min", "0", "--x-max", "1e200", "--n", "50",
             "--particles", "100", "--horizon", "0.01", "--dt", "0.001", "--output", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "survival.csv").stat().st_size and (tmp_path / "positions.csv").stat().st_size

    def test_consecutive_runs_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process; each run parses afresh
        for flags, name in ((["--resample"], "fv"), ([], "plain")):
            assert run([*self.SIMULATE, *flags, "--output", str(tmp_path / name)]) == 0
        alive = {name: np.loadtxt(tmp_path / name / "survival.csv", delimiter=",", skiprows=1)[:, 1]
                 for name in ("fv", "plain")}
        assert np.all(alive["fv"] == 1.0) and alive["plain"][-1] < 1.0
        for _ in range(2):
            assert run(["simulate", "--no-such-flag"]) == 1
        assert capsys.readouterr().err.count("unrecognized arguments: --no-such-flag") == 2
