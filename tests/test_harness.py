import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import qtcov
from qtcov import harness
from qtcov import rng as qrng
from qtcov.cli import build_parser
from qtcov.doa import DoaScene
from qtcov.errors import ConfigError, EmptyTable, MixedMetrics
from qtcov.harness import (ExperimentConfig, ResultTable, Row, config_to_text,
                           default_config, parse_config, resolve_ruler,
                           run_experiment, write_outputs)
from qtcov.qspa import QspaOptions
from qtcov.svgplot import emit_plot


def tiny_config(**kw):
    base = ExperimentConfig("custom", d=4, rulers=("full",), deltas=((0.5, 0.5),),
                            n_values=(50,), trials=3, seed=11, estimators=("qtscm",))
    return replace(base, **kw)


class TestConfig:
    @pytest.mark.parametrize("exp", ["exp1", "exp2", "exp3a", "exp3b", "exp4", "exp4b", "exp5"])
    def test_presets_roundtrip_through_text(self, exp):
        cfg = default_config(exp)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            parse_config("qtcov-config 1\nexperiment = exp2\nbogus = 3\n")

    def test_requires_schema_line(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = exp2\n")

    def test_profile_caps_n(self):
        cfg = tiny_config(n_values=(100_000,))
        with pytest.raises(ConfigError):
            cfg.validate()
        replace(cfg, profile="full").validate()

    def test_rejects_unknown_scene_key(self):
        with pytest.raises(ConfigError, match="scene_freq"):
            parse_config("qtcov-config 1\nexperiment = custom\nscene_freq = 0.1\n")

    def test_rejects_empty_n_values(self):
        with pytest.raises(ConfigError, match="n_values"):
            parse_config("qtcov-config 1\nexperiment = custom\nn_values =\n")

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ConfigError):
            tiny_config(estimators=("magic",)).validate()

    def test_named_rulers_resolve(self):
        assert resolve_ruler("A", 16).size == 9
        assert resolve_ruler("B", 16).size == 9

    def test_qspa_options_from_config(self):
        text = ("qtcov-config 1\nexperiment = custom\nqspa_newton_tol = 1e-6\n"
                "qspa_max_outer = 12\nqspa_epsilon_reg = 0.5\n")
        cfg = parse_config(text)
        assert cfg.qspa.newton_tol == 1e-6
        assert cfg.qspa.max_outer == 12
        assert cfg.qspa.epsilon_reg == 0.5
        again = parse_config(config_to_text(cfg))
        assert again.qspa == cfg.qspa
        auto = parse_config("qtcov-config 1\nexperiment = custom\nqspa_epsilon_reg = auto\n")
        assert auto.qspa.epsilon_reg is None


class TestResultTable:
    def test_csv_roundtrip_exact(self):
        table = run_experiment(tiny_config())
        text = table.to_csv()
        assert ResultTable.from_csv(text).to_csv() == text

    def test_runs_are_byte_identical(self):
        cfg = tiny_config(estimators=("qtscm", "qscm"), n_values=(20, 50))
        a = run_experiment(cfg).to_csv()
        b = run_experiment(cfg).to_csv()
        assert a == b

    def test_mean_and_stderr_rows(self):
        table = run_experiment(tiny_config())
        stats = {r.stat for r in table.rows}
        assert stats == {"mean", "stderr"}
        for r in table.rows:
            assert math.isfinite(r.value)

    def test_emit_trials(self):
        table = run_experiment(tiny_config(emit_trials=True))
        assert sum(r.stat.startswith("trial:") for r in table.rows) == 3


class TestRunnerSemantics:
    def test_single_sample_matches_handrolled_reference(self):
        # trials=1, n=1, Delta=0: the mean row must equal the per-lag average
        # of z z^H computed from scratch with the same seed derivation
        d = 3
        cfg = tiny_config(d=d, n_values=(1,), trials=1, deltas=((0.0, 0.0),), seed=5)
        table = run_experiment(cfg)
        T = qtcov.random_toeplitz_covariance(d, 5)
        ts = qrng.trial_seed(5, 0)
        z = qtcov.sample_complex_gaussian(T, qtcov.full_ruler(d), 1, ts).data[0]
        gens = np.empty(d, complex)
        for s in range(d):
            gens[s] = np.mean([z[j] * np.conj(z[j + s]) for j in range(d - s)])
        gens[0] = gens[0].real
        est = qtcov.toeplitz_from_generators(gens)
        expect = np.linalg.norm(est.dense - T.dense, 2) / np.linalg.norm(T.dense, 2)
        [mean_row] = table.means()
        assert mean_row.value == pytest.approx(expect, rel=1e-12)

    def test_qscm_skipped_on_sparse_rulers(self):
        cfg = tiny_config(rulers=("1,2,4",), estimators=("qscm", "qtscm"))
        table = run_experiment(cfg)
        assert {r.estimator for r in table.rows} == {"qtscm"}

    def test_failed_cell_recorded_as_nan(self):
        # a negative level fails spec validation inside the cell
        cfg = tiny_config(deltas=((-1.0, -1.0),))
        table = run_experiment(cfg)
        assert len(table.rows) == 1
        assert math.isnan(table.rows[0].value)
        assert table.rows[0].note != ""

    def test_linalg_error_recorded_for_its_cell_only(self, monkeypatch):
        def broken(batch, opts):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        monkeypatch.setitem(harness.ESTIMATORS, "qscm", broken)
        table = run_experiment(tiny_config(estimators=("qtscm", "qscm")))
        means = {r.estimator: r for r in table.means()}
        assert math.isnan(means["qscm"].value)
        assert means["qscm"].note == "LinAlgError: Matrix is not positive definite"
        assert np.isfinite(means["qtscm"].value) and means["qtscm"].note == ""

    def test_subnormal_level_is_named_in_its_row_note(self):
        table = run_experiment(parse_config("qtcov-config 1\nexperiment = custom\nd = 4\n"
                                            "deltas = 1e-310:1e-310, 0.5:0.5\n"))
        means = table.means()
        assert len(means) == 2
        assert math.isnan(means[0].value)
        assert means[0].note == "QtcovError: quantization level 1e-310 is subnormal"
        assert np.isfinite(means[1].value) and means[1].note == ""

    def test_dither_drawn_per_ruler_and_each_spec_quantized_once(self, monkeypatch):
        cfg = tiny_config(d=6, rulers=("full", "alpha:0.5"), deltas=((0.5, 0.5), (1.5, 0.5)),
                          estimators=("qtscm", "qspa"), trials=3)
        plain = run_experiment(cfg).to_csv()
        calls = {"unit_dither": 0, "quantize_batch": 0}

        def counted(name):
            fn = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(harness, name, counted(name))
        table = run_experiment(cfg)
        assert table.to_csv() == plain
        assert len(table.means()) == 8  # 2 rulers x 2 levels x 2 estimators
        assert calls == {"unit_dither": 3 * 2, "quantize_batch": 3 * 2 * 2}

    def test_nonconverged_qspa_noted_and_kept(self):
        cfg = tiny_config(d=6, estimators=("qspa",), qspa=replace(QspaOptions(), max_outer=1))
        table = run_experiment(cfg)
        assert [r.note for r in table.rows] == ["nonconverged 3/3"] * 2
        assert np.isfinite(table.means()[0].value)
        assert "nonconverged 3/3" in table.to_csv()

    def test_unresolved_spectrum_noted_and_kept(self, monkeypatch):
        # a scaled identity has a flat MUSIC spectrum with no peaks to resolve
        monkeypatch.setitem(harness.ESTIMATORS, "qtscm",
                            lambda batch, opts: (2.0 * np.eye(batch.dim), True))
        scene = DoaScene(8, (0.1, 0.3, 0.6), (1.0, 1.0, 1.0), 0.1)
        table = run_experiment(tiny_config(scene=scene, music_grid=512, emit_trials=True))
        assert [r.note for r in table.rows] == ["unresolved 3/3"] * 5
        assert np.isfinite(table.means()[0].value)

    def test_doa_runner_rows(self):
        cfg = replace(default_config("exp5"), trials=2, n_values=(200,),
                      rulers=("alpha:0.5",), estimators=("qtscm",))
        table = run_experiment(cfg)
        assert all(r.metric == "freq_mse" for r in table.rows)
        assert len(table.means()) == 1


class TestPlots:
    def test_single_series_two_points(self):
        rows = [Row("custom", "qtscm", 4, n, 1.0, 1.0, None, "full", "mean",
                    "rel_error_spectral", v) for n, v in [(10, 0.5), (100, 0.2)]]
        svg = emit_plot(ResultTable(rows), "line-loglog")
        assert svg.count("<polyline") == 1
        poly = svg.split("<polyline")[1].split("/>")[0]
        assert poly.count(",") == 2  # two vertices
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_heatmap_cells_and_symmetry(self):
        cfg = replace(default_config("exp1"), trials=20, seed=9,
                      deltas=tuple((a, b) for a in (1.0, 3.0) for b in (1.0, 3.0)))
        table = run_experiment(cfg)
        svg = emit_plot(table, "heatmap")
        assert svg.count("<rect") >= 4  # 4 cells plus background
        vals = {(r.delta_r, r.delta_i): r.value for r in table.means()}
        gap = abs(vals[(1.0, 3.0)] - vals[(3.0, 1.0)])
        se = [r.value for r in table.rows if r.stat == "stderr"]
        assert gap < 4 * max(se)

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            emit_plot(ResultTable(), "line-linear")

    def test_mixed_metrics(self):
        rows = [Row("x", "qtscm", 4, 10, 1, 1, None, "full", "mean", "rel_error_spectral", 0.5),
                Row("x", "qtscm", 4, 10, 1, 1, None, "full", "mean", "freq_mse", 0.1)]
        with pytest.raises(MixedMetrics):
            emit_plot(ResultTable(rows), "line-linear")


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "qtcov.cli", *args],
                              capture_output=True, text=True)

    def test_ruler_command(self):
        r = self.run_cli("ruler", "--d", "16", "--ruler", "alpha:0.5")
        assert r.returncode == 0
        assert "1,2,3,4,8,12,16" in r.stdout
        assert "12.80" in r.stdout

    def test_ruler_command_rejects_non_ruler(self):
        r = self.run_cli("ruler", "--d", "4", "--ruler", "1,4")
        assert r.returncode == 1
        assert "lag" in r.stderr

    @pytest.mark.parametrize("command", [["simulate", "-o", "b.qtb"], ["doa"]])
    def test_outdir_only_on_experiment(self, command):
        # simulate and doa write no output directory, so they take no --outdir
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--outdir", "out"])

    def test_simulate_estimate_roundtrip(self, tmp_path):
        batch = tmp_path / "b.qtb"
        truth = tmp_path / "t.csv"
        trace = tmp_path / "trace.csv"
        r = self.run_cli("simulate", "--d", "6", "--ruler", "1,2,4,6", "--n", "200",
                         "--delta", "1,1", "--seed", "3", "--cov-seed", "4",
                         "-o", str(batch), "--truth-out", str(truth))
        assert r.returncode == 0, r.stderr
        r2 = self.run_cli("estimate", "--batch", str(batch),
                          "--estimator", "qtscm", "qspa", "--truth", str(truth),
                          "--qspa-trace", str(trace))
        assert r2.returncode == 0, r2.stderr
        lines = r2.stdout.strip().splitlines()
        assert lines[0].startswith("estimator,")
        assert len(lines) == 3
        errs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(0 < e < 1.5 for e in errs)
        assert trace.read_text().startswith("iteration,mu,objective,kkt_residual")

    def test_experiment_writes_outputs(self, tmp_path):
        env_cfg = tmp_path / "exp.cfg"
        env_cfg.write_text(
            "qtcov-config 1\nexperiment = custom\nd = 4\nrulers = full\n"
            "deltas = 0.5:0.5\nn_values = 30\ntrials = 2\nseed = 7\n"
            f"estimators = qtscm\noutdir = {tmp_path}\n")
        r = self.run_cli("experiment", "--config", str(env_cfg))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "custom.csv").exists()
        assert (tmp_path / "custom.svg").exists()

    def test_doa_command(self):
        r = self.run_cli("doa", "--n", "500", "--seed", "2", "--estimator",
                         "qtscm", "--grid", "1024")
        assert r.returncode == 0, r.stderr
        assert "estimated frequencies:" in r.stdout
        assert "frequency mse:" in r.stdout


class TestInputErrors:
    """Bad input exits with code 1 and a one-line message, never a traceback."""

    run_cli = TestCli.run_cli

    def assert_clean_failure(self, r, *words):
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        for word in words:
            assert word in r.stderr

    def test_non_integer_config_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("qtcov-config 1\nexperiment = custom\nd = abc\n")
        self.assert_clean_failure(self.run_cli("experiment", "--config", str(cfg)),
                                  "'d'", "abc")

    def test_scene_powers_without_freqs(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("qtcov-config 1\nexperiment = custom\nscene_powers = 1, 1\n")
        self.assert_clean_failure(self.run_cli("experiment", "--config", str(cfg)),
                                  "scene_freqs")

    def test_non_numeric_truth_file(self, tmp_path):
        batch, truth = tmp_path / "b.qtb", tmp_path / "t.txt"
        r = self.run_cli("simulate", "--d", "4", "--n", "20", "-o", str(batch))
        assert r.returncode == 0, r.stderr
        truth.write_text("not a number\n")
        r = self.run_cli("estimate", "--batch", str(batch), "--truth", str(truth))
        self.assert_clean_failure(r, str(truth))

    def test_non_numeric_delta(self, tmp_path):
        r = self.run_cli("simulate", "--d", "4", "--delta", "abc",
                         "-o", str(tmp_path / "b.qtb"))
        self.assert_clean_failure(r, "--delta", "abc")

    def test_subnormal_delta(self, tmp_path):
        r = self.run_cli("simulate", "--d", "4", "--delta", "1e-310",
                         "-o", str(tmp_path / "b.qtb"))
        self.assert_clean_failure(r, "1e-310", "subnormal")
        assert not (tmp_path / "b.qtb").exists()

    def test_unparsable_ruler_spec(self):
        self.assert_clean_failure(self.run_cli("ruler", "--d", "16", "--ruler", "alpha:abc"),
                                  "alpha:abc")

    def test_truncated_batch_file(self, tmp_path):
        batch = tmp_path / "b.qtb"
        r = self.run_cli("simulate", "--d", "16", "--n", "100", "-o", str(batch))
        assert r.returncode == 0, r.stderr
        batch.write_bytes(batch.read_bytes()[:700])
        self.assert_clean_failure(self.run_cli("estimate", "--batch", str(batch)),
                                  "payload")


class TestOutputs:
    def test_write_outputs_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTCOV_OUTDIR", str(tmp_path / "envdir"))
        cfg = tiny_config()
        table = run_experiment(cfg)
        csv_path, svg_path = write_outputs(cfg, table)
        assert str(tmp_path / "envdir") in csv_path
