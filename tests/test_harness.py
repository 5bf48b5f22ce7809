import csv
import hashlib
import importlib.util
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import qtcov
from qtcov import cli, harness, qspa
from qtcov import rng as qrng
from qtcov.cli import build_parser, main
from qtcov.doa import DoaScene
from qtcov.errors import EmptyTable, QtcovError
from qtcov.harness import (PRESETS, ExperimentConfig, ResultTable, Row, config_to_text,
                           default_config, parse_config, resolve_ruler,
                           run_experiment, write_outputs)
from qtcov.estimators import spectral_norm
from qtcov.qspa import QspaSolution
from qtcov.svgplot import emit_plot
from qtcov.toeplitz import as_dense


# sha256 of `qtcov experiment --preset P --profile Q --show-config`
SHOW_CONFIG_DIGESTS = {
    ("exp1", "ci"): "f84e457f5fd3930272b38ea7be18e2ea2a24ee43c9fcff8ef90e4e0b2301604e",
    ("exp1", "full"): "5af745c6659d1376c9c899286139c71261541605cc894d6550aadb656eaf2e94",
    ("exp2", "ci"): "0ad9f56bc99ea9795122aa310a7de9b3933d75337d9ef1927fbb1628cf3a2d16",
    ("exp2", "full"): "956d08a8fc43b14559ae9487bfe905c530f89faec4f4e0d5d3ec157cc4b1969b",
    ("exp3a", "ci"): "c42013921d4677cc59b33685bae4080c3dcc74378fb692c63137de92ec5f14c0",
    ("exp3a", "full"): "c02dc6426a837531bc18efa22ec2a2181175dfb64c50e2f7c2f4911f93dd3fe2",
    ("exp3b", "ci"): "350235af6f2f900f418a1318441f8fb1ebb1f72f42e19947533f1e4821143acc",
    ("exp3b", "full"): "539d3bba177ce1ccf03b736eeb86a63bc77ccfe71452f1973b0447cafcfe5dc1",
    ("exp4", "ci"): "01ba9a224eaed7611330709907fb2d131ff39e8352d403a1d72e24efec54414d",
    ("exp4", "full"): "78d7bea30176c038152c1ee9e1765cc5489d7b96f7ec4bcff415001b5713fd06",
    ("exp4b", "ci"): "0b5da29fdd4326cc7eb9933d69132cb28af0fbb6ca3cc976d7be108e14a3208e",
    ("exp4b", "full"): "31af6ead88baf93a0408299e707e0282932bdb842f7aff79ecbca0002621eb92",
    ("exp5", "ci"): "0049539262a5883c1662866e85495847d967e6aa1507b7d8c470c1ef238075ab",
    ("exp5", "full"): "a6d5457824987229b5cceaf30a38e16786da6f9515a033eac48c5bea09b46aa4",
}


def mean_rows(table):
    """The table's mean rows, in table order."""
    return [r for r in table.rows if r.stat == "mean"]


def tiny_config(**kw):
    base = ExperimentConfig("custom", d=4, rulers=("full",), deltas=((0.5, 0.5),),
                            n_values=(50,), trials=3, seed=11, estimators=("qtscm",))
    return replace(base, **kw)


# configs besides the presets that must survive the text round trip
ROUNDTRIP_CONFIGS = {
    "index_list_ruler": ExperimentConfig("custom", d=6, rulers=("1,2,4,6", "full")),
}


class TestConfig:
    @pytest.mark.parametrize("exp", ["exp1", "exp2", "exp3a", "exp3b", "exp4", "exp4b", "exp5",
                                     *ROUNDTRIP_CONFIGS])
    def test_presets_roundtrip_through_text(self, exp):
        cfg = ROUNDTRIP_CONFIGS[exp] if exp in ROUNDTRIP_CONFIGS else default_config(exp)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_rejects_out_of_range_bit_depth_before_running(self):
        # under tail_bound the inf row would take the 2000 row's level, which underflows
        with pytest.raises(QtcovError, match="bit depth 2000 is outside 1..63"):
            parse_config("qtcov-config 1\nexperiment = custom\nd = 4\nbits = 2000, inf\n"
                         "level_rule = tail_bound\n")

    def test_rejects_unknown_keys(self):
        with pytest.raises(QtcovError, match="unknown config key 'bogus'"):
            parse_config("qtcov-config 1\nexperiment = exp2\nbogus = 3\n")

    @pytest.mark.parametrize("key, lines", [
        ("trials", "trials = 5\nd = 4\ntrials = 10"),
        ("experiment", "experiment = exp2"),
    ])
    def test_rejects_a_key_set_twice(self, key, lines):
        # a later line would otherwise override an earlier one without a word
        with pytest.raises(QtcovError, match=f"config key '{key}' is set twice"):
            parse_config(f"qtcov-config 1\nexperiment = custom\n{lines}\n")

    def test_requires_schema_line(self):
        with pytest.raises(QtcovError,
                           match="config must start with the schema line 'qtcov-config 1'"):
            parse_config("experiment = exp2\n")

    def test_profile_caps_n(self):
        cfg = tiny_config(n_values=(100_000,))
        with pytest.raises(QtcovError, match="n up to 100000 exceeds the ci profile cap of "):
            cfg.validate()
        replace(cfg, profile="full").validate()

    def test_rejects_unknown_scene_key(self):
        with pytest.raises(QtcovError, match="unknown config key 'scene_freq'"):
            parse_config("qtcov-config 1\nexperiment = custom\nscene_freq = 0.1\n")

    def test_rejects_empty_n_values(self):
        with pytest.raises(QtcovError, match="n_values must list at least one entry"):
            parse_config("qtcov-config 1\nexperiment = custom\nn_values =\n")

    def test_rejects_unknown_estimator(self):
        with pytest.raises(QtcovError, match="unknown estimator 'magic'"):
            tiny_config(estimators=("magic",)).validate()

    def test_named_rulers_resolve(self):
        assert resolve_ruler("A", 16).size == 9
        assert resolve_ruler("B", 16).size == 9

    @pytest.mark.parametrize("key", ["qspa_barrier_mu0", "qspa_barrier_shrink",
                                     "qspa_epsilon_reg", "qspa_newton_tol", "qspa_max_outer",
                                     "qspa_max_inner", "c_bit", "delta_prime"])
    def test_rejects_removed_barrier_schedule_keys(self, key):
        # the solver's schedule, budgets and regularization and the tail
        # bound's constants are fixed (see qtcov.qspa and qtcov.quantizer)
        with pytest.raises(QtcovError, match=f"unknown config key '{key}'"):
            parse_config(f"qtcov-config 1\nexperiment = custom\n{key} = 0.5\n")

    def test_benchmark_workload_configs_parse(self):
        # bench/run.py hands each workload's config and its warm-up variant to
        # `qtcov experiment`, so a key the harness drops would fail its runs
        path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert set(workloads.WORKLOADS) == {"level_grid", "qspa_fit", "doa_scene"}
        for workload in workloads.WORKLOADS.values():
            for warmup in (False, True):
                cfg = parse_config(workload.config_text(seed=7, warmup=warmup))
                assert (cfg.experiment, cfg.seed) == (workload.key("experiment"), 7)

    @pytest.mark.parametrize("lines, message", [
        ("profile = bogus", "unknown profile 'bogus'"),
        ("emit_trials = maybe", "'emit_trials': cannot parse 'maybe'"),
        ("deltas = 1:2:3", "'1:2:3' is not an r:i pair"),
        ("rulers =", "rulers must list at least one entry"),
        ("estimators =", "estimators must list at least one entry"),
        ("deltas =", "deltas must list at least one entry"),
        ("scene_noise_var = auto", "'scene_noise_var': cannot parse 'auto'"),
        ("d = 4\nscene_freqs = 0.1\nscene_powers = 1\nmusic_grid = 31", "music_grid 31 < 8d = 32"),
        # validate builds each dimension's truth and grid as the run does
        ("d = 4\nscene_freqs = 0.1, 0.1\nscene_powers = 1, 1", "frequencies must be distinct"),
        ("d = 4\nscene_freqs = 0.1, 0.3\nscene_powers = 8e307, 8e307\nlevel_rule = tail_bound\n"
         "bits = 2", "the tail-bound level overflows at gamma0 = 1.6e+308"),
    ])
    def test_rejects_bad_value(self, lines, message):
        with pytest.raises(QtcovError, match=re.escape(message)):
            parse_config(f"qtcov-config 1\nexperiment = custom\n{lines}\n")

    @pytest.mark.parametrize("lines, message", [
        ("d_values = 4, 8, 4", "d_values lists 4 twice"),
        ("d = 4\nrulers = full, 1 2 3 4, full", "rulers lists full twice"),
        ("deltas = 1, 1:1", "deltas lists 1.0:1.0 twice"),
        ("bits = 2, inf, 2", "bits lists 2 twice"),
        ("bits = inf, 3, inf", "bits lists inf twice"),
        ("n_values = 20, 20", "n_values lists 20 twice"),
        ("estimators = qtscm, qscm, qtscm", "estimators lists qtscm twice"),
    ])
    def test_rejects_repeated_entries(self, lines, message):
        # a repeated entry would run and write its cells twice
        with pytest.raises(QtcovError, match=re.escape(message)):
            parse_config(f"qtcov-config 1\nexperiment = custom\n{lines}\n")
        with pytest.raises(QtcovError, match="rulers lists full twice"):
            ExperimentConfig("custom", d=4, rulers=("full", "full"), deltas=((1, 1), (1, 1)),
                             n_values=(20, 20), estimators=("qtscm", "qtscm"),
                             trials=2).validate()

    @pytest.mark.parametrize("lines, message", [
        ("d = 4\nrulers = full, 1 2 3 4, alpha:1",
         "rulers full and 1 2 3 4 are the same ruler at d = 4"),
        ("d_values = 16, 4\nrulers = alpha:0.5, alpha:0.6",
         "rulers alpha:0.5 and alpha:0.6 are the same ruler at d = 4"),
        ("d = 4\nbits = 2\ndeltas = 1:1, 1:2",
         "deltas 1.0:1.0 and 1.0:2.0 give the same cells under level_rule = fixed at bits = 2"),
        ("d = 4\nbits = inf, 3\ndeltas = 1:1, 1:2",
         "deltas 1.0:1.0 and 1.0:2.0 give the same cells under level_rule = fixed at bits = 3"),
        ("d = 4\nlevel_rule = tail_bound\nbits = 2\ndeltas = 1, 3",
         "deltas 1.0:1.0 and 3.0:3.0 give the same cells under level_rule = tail_bound"),
        ("d = 4\nlevel_rule = datadriven\ndeltas = 1, 3", "unknown level rule 'datadriven'"),
        ("d = 8\nd_values = 8, 12\nscene_freqs = 0.1, 0.3\nscene_powers = 1, 1",
         "d_values cannot sweep a scene config; the scene fixes d = 8"),
    ])
    def test_rejects_entries_that_run_the_same_cells(self, lines, message):
        # distinct entries that resolve to the same cells would write identical rows
        with pytest.raises(QtcovError, match=re.escape(message)):
            parse_config(f"qtcov-config 1\nexperiment = custom\nn_values = 50\n{lines}\n")

    @pytest.mark.parametrize("lines", [
        "deltas = 1:1, 1:2",
        "level_rule = tail_bound\ndeltas = 1, 3",
        "bits = 2\ndeltas = 1:1, 2:1",
    ])
    def test_keeps_deltas_that_give_distinct_cells(self, lines):
        cfg = parse_config(f"qtcov-config 1\nexperiment = custom\nd = 4\n{lines}\n")
        assert len(cfg.deltas) == 2

    def test_rulers_checked_at_the_scene_dimension(self):
        # the run covers the scene's d, where 1 2 3 4 misses lags
        scene = DoaScene(8, (0.1, 0.3), (1.0, 1.0), 0.1)
        with pytest.raises(QtcovError, match="lag"):
            tiny_config(rulers=("1,2,3,4",), scene=scene).validate()

    @pytest.mark.parametrize("word, value", [("1", True), ("TRUE", True), ("yes", True),
                                             ("0", False), ("false", False), ("No", False)])
    def test_boolean_words(self, word, value):
        cfg = parse_config(f"qtcov-config 1\nexperiment = custom\nemit_trials = {word}\n")
        assert cfg.emit_trials is value

    @pytest.mark.parametrize("preset, profile", sorted(SHOW_CONFIG_DIGESTS))
    def test_show_config_text_is_pinned(self, preset, profile, capsys):
        assert main(["experiment", "--preset", preset, "--profile", profile,
                     "--show-config"]) == 0
        text = capsys.readouterr().out
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == SHOW_CONFIG_DIGESTS[preset, profile], text


class TestResultTable:
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
        est = qtcov.HermitianToeplitz(gens)
        expect = np.linalg.norm(est.dense - T.dense, 2) / np.linalg.norm(T.dense, 2)
        [mean_row] = mean_rows(table)
        assert mean_row.value == pytest.approx(expect, rel=1e-12)

    def test_qscm_skipped_on_sparse_rulers(self):
        cfg = tiny_config(rulers=("1,2,4",), estimators=("qscm", "qtscm"))
        table = run_experiment(cfg)
        assert {r.estimator for r in table.rows} == {"qtscm"}

    def test_failed_cell_recorded_as_nan(self):
        # a level near the float limit overflows the cell's Gram matrix
        cfg = tiny_config(deltas=((1e300, 1e300),))
        table = run_experiment(cfg)
        assert len(table.rows) == 1
        assert math.isnan(table.rows[0].value)
        assert table.rows[0].note == "FloatingPointError: overflow encountered in matmul"

    def test_linalg_error_recorded_for_its_cell_only(self, monkeypatch):
        def broken(batch, gram):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        monkeypatch.setitem(harness.ESTIMATORS, "qscm", broken)
        table = run_experiment(tiny_config(estimators=("qtscm", "qscm")))
        means = {r.estimator: r for r in mean_rows(table)}
        assert math.isnan(means["qscm"].value)
        assert means["qscm"].note == "LinAlgError: Matrix is not positive definite"
        assert np.isfinite(means["qtscm"].value) and means["qtscm"].note == ""

    def test_overflow_is_named_in_its_row_note(self):
        table = run_experiment(tiny_config(deltas=((1e300, 1e300), (0.5, 0.5))))
        means = mean_rows(table)
        assert math.isnan(means[0].value)
        assert means[0].note.startswith("FloatingPointError: overflow")
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
        assert len(mean_rows(table)) == 8  # 2 rulers x 2 levels x 2 estimators
        assert calls == {"unit_dither": 3 * 2, "quantize_batch": 3 * 2 * 2}

    def test_level_grid_quantizes_each_plane_once_per_trial_and_ruler(self, monkeypatch):
        levels = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
        grid = tiny_config(d=6, rulers=("full", "alpha:0.5"), trials=2, n_values=(30,),
                           deltas=tuple((a, b) for a in levels for b in levels))
        # k = 2 and 3 take their own tail-bound levels, and inf reuses k = 3's
        tail = replace(grid, deltas=((1.0, 1.0),), bits=(2, 3, None), level_rule="tail_bound")
        # (config, its cells, its planes per trial and ruler: real + imaginary)
        for cfg, cells, planes in ((grid, 2 * 64, 8 + 8), (tail, 2 * 3, 3 + 3)):
            plain = run_experiment(cfg).to_csv()
            calls, events = [], []
            kernel, cell_spec = qtcov.quantizer._quantize_plane, harness._cell_spec
            draw = harness.sample_complex_gaussian

            def counted(x, delta, k, *masks):
                calls.append((delta, k))
                return kernel(x, delta, k, *masks)

            def built(*args):
                events.append("spec")
                return cell_spec(*args)

            def drawn(*args, **kwargs):
                events.append("draw")
                return draw(*args, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(qtcov.quantizer, "_quantize_plane", counted)
                m.setattr(harness, "_cell_spec", built)
                m.setattr(harness, "sample_complex_gaussian", drawn)
                assert run_experiment(cfg).to_csv() == plain
            assert len(calls) == 2 * 2 * planes  # trials x rulers x planes
            # one spec per cell (each has one estimator), all built before the first draw
            assert events == ["spec"] * cells + ["draw"] * 2

    @pytest.mark.parametrize("deltas, most", [
        # Delta_r-major 8 x 8 grid: one real plane and the eight imaginary ones
        (tuple((a, b) for a in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
               for b in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)), (1, 8)),
        # no level shared: nothing outlives its cell
        (((0.5, 1.0), (1.5, 2.0), (2.5, 0.0)), (0, 0)),
    ])
    def test_planes_are_dropped_after_their_last_use(self, monkeypatch, deltas, most):
        cfg = tiny_config(d=6, rulers=("full", "alpha:0.5"), trials=2, n_values=(30, 40),
                          deltas=deltas, estimators=("qtscm", "qscm"))
        held = []
        quantize = harness.quantize_batch

        def watched(raw, spec, unit=None, planes=None, **buffers):
            out = quantize(raw, spec, unit=unit, planes=planes, **buffers)
            kept = [key for key, plane in planes.items() if plane is not None]
            held.append(tuple(sum(key[0] == part for key in kept) for part in (0, 1)))
            return out
        monkeypatch.setattr(harness, "quantize_batch", watched)
        run_experiment(cfg)
        assert len(held) == 2 * 2 * 2 * len(deltas)  # n values x trials x rulers x pairs
        assert tuple(map(max, zip(*held))) == most

    def test_each_exp5_cell_matches_a_run_of_its_ruler_and_n_alone(self):
        # the trials of a (d, n) group share one set of buffers
        cfg = replace(default_config("exp5"), trials=3)
        rows = run_experiment(cfg).rows
        for rspec, n in product(cfg.rulers, cfg.n_values):
            alone = run_experiment(replace(cfg, rulers=(rspec,), n_values=(n,))).rows
            assert alone == [row for row in rows if (row.ruler, row.n) == (rspec, n)]

    def test_a_config_repeats_its_bytes_after_runs_of_other_shapes(self):
        a = tiny_config(d=6, rulers=("full", "alpha:0.5"), bits=(2, None), n_values=(40, 90),
                        deltas=((1.0, 1.0), (0.5, 1.5)), estimators=("qtscm", "qscm"))
        first = run_experiment(a).to_csv()
        for b in (replace(a, d=8), replace(a, n_values=(200,)), replace(a, d=4, trials=1)):
            run_experiment(b)
            assert run_experiment(a).to_csv() == first

    def test_a_doa_scene_run_holds_four_row_sized_arrays(self):
        # block, w (then the quantized batch), one float buffer and the unit
        # pair, each n x d complex values: 9.77 MiB at n = 1e4 and d = 16
        cfg = replace(default_config("exp5"), n_values=(10_000,), estimators=("qtscm", "qscm"),
                      trials=1)
        run_experiment(cfg)  # memoized rulers and first-call set-up are not a trial's
        peaks = {}
        for trials in (1, 3):
            tracemalloc.start()
            try:
                run_experiment(replace(cfg, trials=trials))
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] <= 10.3 * 2 ** 20
        # the trials' values take a few KiB; a trial's own array would take MiBs
        assert peaks[3] - peaks[1] < 16 * 10_000

    def test_one_gram_matrix_per_quantized_batch(self, monkeypatch):
        cfg = tiny_config(d=6, rulers=("full", "alpha:0.5"), deltas=((0.5, 0.5), (1.5, 0.5)),
                          estimators=("qtscm", "qscm", "qspa"), trials=3)
        plain = run_experiment(cfg).to_csv()
        grams = []
        gram = qtcov.estimators.quantized_sample_covariance

        def counted(batch, **buffers):
            grams.append(batch)
            return gram(batch, **buffers)
        monkeypatch.setattr(harness, "quantized_sample_covariance", counted)
        monkeypatch.setattr(qtcov.estimators, "quantized_sample_covariance", counted)
        assert run_experiment(cfg).to_csv() == plain
        assert len(grams) == 3 * 2 * 2  # trials x rulers x levels, whatever the estimators

    def test_nonconverged_qspa_noted_and_kept(self, monkeypatch):
        monkeypatch.setattr(qspa, "_MAX_OUTER", 1)
        cfg = tiny_config(d=6, estimators=("qspa",))
        table = run_experiment(cfg)
        assert [r.note for r in table.rows] == ["nonconverged 3/3"] * 2
        assert np.isfinite(mean_rows(table)[0].value)
        assert "nonconverged 3/3" in table.to_csv()

    def test_unresolved_spectrum_noted_and_kept(self, monkeypatch):
        # a scaled identity has a flat MUSIC spectrum with no peaks to resolve
        monkeypatch.setitem(harness.ESTIMATORS, "qtscm",
                            lambda batch, gram: (2.0 * np.eye(batch.dim), None))
        scene = DoaScene(8, (0.1, 0.3, 0.6), (1.0, 1.0, 1.0), 0.1)
        table = run_experiment(tiny_config(scene=scene, music_grid=512, emit_trials=True))
        assert [r.note for r in table.rows] == ["unresolved 3/3"] * 5
        assert np.isfinite(mean_rows(table)[0].value)

    def test_doa_runner_rows(self):
        cfg = replace(default_config("exp5"), trials=2, n_values=(200,),
                      rulers=("alpha:0.5",), estimators=("qtscm",))
        table = run_experiment(cfg)
        assert all(r.metric == "freq_mse" for r in table.rows)
        assert len(mean_rows(table)) == 1


class TestStackedScoring:
    """The estimates of one (d, n, trial) are scored together."""

    LEVELS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

    @pytest.mark.parametrize("d", [4, 8, 16, 32])
    def test_stacked_errors_are_bit_equal_to_single_ones(self, rng, d):
        from conftest import random_hermitian
        T = qtcov.random_toeplitz_covariance(d, 11)
        score = harness._scorer(tiny_config(d=d), T)
        truth = T.dense
        norm = spectral_norm(truth)
        ests = []
        for i in range(7):
            noise = 0.1 * random_hermitian(rng, d)
            # Toeplitz and dense estimates, mixed in no fixed pattern
            ests.append(qtcov.HermitianToeplitz(noise[0] + T.generators) if i % 3 != 1
                        else truth + noise)
        toeplitz_only = [e for e in ests if not isinstance(e, np.ndarray)]
        for batch in (ests, ests[:1], ests[1:2], toeplitz_only):
            scored = score(batch)
            expect = [float(spectral_norm(as_dense(e) - truth) / norm) for e in batch]
            assert np.array([v for v, _ in scored]).tobytes() == np.array(expect).tobytes()
            assert all(resolved for _, resolved in scored)

    def test_one_stacked_call_per_d_n_and_trial(self, monkeypatch):
        cfg = tiny_config(d_values=(4, 6), rulers=("full", "alpha:0.5"), trials=2,
                          n_values=(30, 40), estimators=("qtscm", "qscm"),
                          deltas=tuple((a, b) for a in self.LEVELS for b in self.LEVELS))
        plain = run_experiment(cfg).to_csv()
        shapes = []
        norm = harness.spectral_norm

        def counted(M):
            shapes.append(np.shape(M))
            return norm(M)
        monkeypatch.setattr(harness, "spectral_norm", counted)
        assert run_experiment(cfg).to_csv() == plain
        stacks = [shape for shape in shapes if len(shape) == 3]
        assert len(shapes) - len(stacks) == 2  # the truth's norm, once per d
        # d x n x trials calls, each over 64 levels x (qtscm and qscm on full, qtscm on alpha)
        assert stacks == [(64 * 3, d, d) for d in (4, 6) for _ in range(2 * 2)]

    def test_a_non_finite_estimate_fails_its_cell_only(self, monkeypatch):
        cfg = tiny_config(d=6, rulers=("full", "alpha:0.5"), deltas=((0.5, 0.5), (1.5, 0.5)),
                          estimators=("qtscm", "qscm"), emit_trials=True)
        plain = run_experiment(cfg).rows
        qscm = harness.ESTIMATORS["qscm"]

        def broken(batch, gram):
            est, record = qscm(batch, gram)
            return (est * np.nan if batch.spec.delta_r == 1.5 else est), record
        monkeypatch.setitem(harness.ESTIMATORS, "qscm", broken)
        rows = run_experiment(cfg).rows
        failed = [r for r in rows if r.estimator == "qscm" and r.delta_r == 1.5]
        assert len(failed) == 1 and math.isnan(failed[0].value)
        assert failed[0].note == "LinAlgError: SVD did not converge"
        assert [r for r in rows if r not in failed] == [r for r in plain if not (
            r.estimator == "qscm" and r.delta_r == 1.5)]

    def test_degraded_counts_are_noted_in_a_fixed_order(self, monkeypatch):
        # the first degraded trial is unresolved, the later ones nonconverged
        trial = iter(range(3))
        qtscm = harness.ESTIMATORS["qtscm"]

        def solver(batch, gram):
            est, _ = qtscm(batch, gram)
            return est, SimpleNamespace(converged=next(trial) == 0)
        estimate = harness.estimate_frequencies
        resolved = iter([False, True, True])

        def music(est, k, grid):
            return next(resolved), estimate(est, k, grid)[1]
        monkeypatch.setitem(harness.ESTIMATORS, "qtscm", solver)
        monkeypatch.setattr(harness, "estimate_frequencies", music)
        scene = DoaScene(8, (0.1, 0.3, 0.6), (1.0, 1.0, 1.0), 0.1)
        table = run_experiment(tiny_config(scene=scene, music_grid=512))
        assert [r.note for r in table.rows] == ["nonconverged 2/3; unresolved 1/3"] * 2

    def test_music_runs_once_per_estimate(self, monkeypatch):
        calls = {"estimate_frequencies": 0, "frequency_mse": 0}
        for name in calls:
            fn = getattr(harness, name)

            def counted(*args, fn=fn, name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(harness, name, counted)
        scene = DoaScene(8, (0.1, 0.3, 0.6), (1.0, 1.0, 1.0), 0.1)
        cfg = tiny_config(scene=scene, music_grid=512, rulers=("full", "alpha:0.5"),
                          estimators=("qtscm", "qscm"), n_values=(30, 40))
        run_experiment(cfg)
        # (2 estimators on full + 1 on alpha) x 2 n values x 3 trials
        assert calls == {"estimate_frequencies": 18, "frequency_mse": 18}

    def test_estimators_pass_their_solver_record(self):
        T = qtcov.random_toeplitz_covariance(4, 3)
        raw = qtcov.sample_complex_gaussian(T, qtcov.full_ruler(4), 200, 5)
        batch = qtcov.quantize_batch(raw, qtcov.QuantizationSpec(0.5, 0.5))
        gram = qtcov.quantized_sample_covariance(batch)
        for name in ("qtscm", "qscm"):
            assert harness.ESTIMATORS[name](batch, gram)[1] is None
        est, record = harness.ESTIMATORS["qspa"](batch, gram)
        assert isinstance(record, QspaSolution) and est is record.T_breve

    def test_rulers_are_built_once_per_process(self, monkeypatch):
        cfg = tiny_config(d=6, rulers=("full", "alpha:0.5"), estimators=("qtscm", "qspa"))
        plain = run_experiment(cfg).to_csv()
        builds = []
        init = qtcov.rulers.Ruler.__init__

        def counted(self, *args):
            builds.append(args)
            init(self, *args)
        monkeypatch.setattr(qtcov.rulers.Ruler, "__init__", counted)
        assert run_experiment(cfg).to_csv() == plain
        assert builds == []


class TestPlots:
    def test_single_series_two_points(self):
        rows = [Row("custom", "qtscm", 4, n, 1.0, 1.0, None, "full", "mean",
                    "rel_error_spectral", v) for n, v in [(10, 0.5), (100, 0.2)]]
        svg = emit_plot(ResultTable(rows), "line-loglog")
        assert svg.count("<polyline") == 1
        poly = svg.split("<polyline")[1].split("/>")[0]
        assert poly.count(",") == 2  # two vertices
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_loglog_axis_turns_linear_at_n_zero(self):
        rows = [Row("custom", "qtscm", 4, n, 1.0, 1.0, None, "full", "mean",
                    "rel_error_spectral", v) for n, v in [(0, math.nan), (10, 0.5), (100, 0.2)]]
        svg = emit_plot(ResultTable(rows), "line-loglog")
        assert svg.count("<polyline") == 1

    def test_heatmap_cells_and_symmetry(self):
        cfg = replace(default_config("exp1"), trials=20, seed=9,
                      deltas=tuple((a, b) for a in (1.0, 3.0) for b in (1.0, 3.0)))
        table = run_experiment(cfg)
        svg = emit_plot(table, "heatmap")
        assert svg.count("<rect") >= 4  # 4 cells plus background
        vals = {(r.delta_r, r.delta_i): r.value for r in mean_rows(table)}
        gap = abs(vals[(1.0, 3.0)] - vals[(3.0, 1.0)])
        se = [r.value for r in table.rows if r.stat == "stderr"]
        assert gap < 4 * max(se)

    def test_bit_depth_axis_draws_the_unclipped_reference_dashed(self):
        # exp4 sweeps the bit depth; its unclipped rows have no depth, so
        # they are a dashed line across the k range, not a point on it
        cfg = replace(default_config("exp4"), trials=2, estimators=("qtscm",),
                      rulers=("full",))
        svg = emit_plot(run_experiment(cfg), PRESETS["exp4"][0])
        assert ">k</text>" in svg and ">delta_r</text>" not in svg
        assert svg.count("<polyline") == 1 and svg.count("<circle") == 5
        dashed = [ln for ln in svg.splitlines() if "stroke-dasharray" in ln]
        assert len(dashed) == 2  # the reference line and its legend entry
        assert 'x1="70"' in dashed[0] and 'x2="620"' in dashed[0]  # the plot's width
        assert "qtscm full unclipped" in svg

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            emit_plot(ResultTable(), "line-linear")

    def test_mixed_metrics(self):
        rows = [Row("x", "qtscm", 4, 10, 1, 1, None, "full", "mean", "rel_error_spectral", 0.5),
                Row("x", "qtscm", 4, 10, 1, 1, None, "full", "mean", "freq_mse", 0.1)]
        with pytest.raises(QtcovError, match=re.escape(
                "cannot plot mixed metrics ['freq_mse', 'rel_error_spectral']")):
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
        # the per-lag pair counts, whose reciprocals phi sums
        counts = [int(c) for c in re.findall(r"^  lag +\d+: (\d+) pairs$", r.stdout, re.M)]
        assert counts == list(resolve_ruler("alpha:0.5", 16).lag_sizes)
        phi = re.search(r"phi = (\S+)", r.stdout).group(1)
        assert phi == f"{sum(1 / c for c in counts):.6f}"

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
        header, *records = trace.read_text().splitlines()
        assert header == "iteration,mu,objective,kkt_residual"
        assert records
        for record in records:
            for value in record.split(","):
                float(value)  # raises on a numpy scalar repr such as np.float64(...)

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

    def test_show_config_prints_the_config_that_runs(self, tmp_path, capsys, monkeypatch):
        # the flags override the file's outdir and seed in the run and in the printout
        path = tmp_path / "exp.cfg"
        path.write_text("qtcov-config 1\nexperiment = custom\nd = 4\nn_values = 30\n"
                        "trials = 2\nseed = 7\noutdir = from_file\n")
        ran = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg: ran.append(cfg) or run_experiment(cfg))
        argv = ["experiment", "--config", str(path), "--outdir", str(tmp_path / "out"),
                "--seed", "5"]
        assert main(argv + ["--show-config"]) == 0
        shown = parse_config(capsys.readouterr().out)
        assert shown.outdir == str(tmp_path / "out") and shown.seed == 5
        assert main(argv) == 0
        assert ran == [shown]
        assert (tmp_path / "out" / "custom.csv").exists()

    def test_show_config_rejects_an_n_above_the_overriding_profile_cap(self, tmp_path, capsys):
        path = tmp_path / "big.cfg"
        path.write_text("qtcov-config 1\nexperiment = custom\nprofile = full\n"
                        "n_values = 100000\n")
        assert main(["experiment", "--config", str(path), "--profile", "ci",
                     "--show-config"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "exceeds the ci profile cap" in err

    def test_doa_command(self):
        r = self.run_cli("doa", "--n", "500", "--seed", "2", "--estimator",
                         "qtscm", "--grid", "1024")
        assert r.returncode == 0, r.stderr
        assert "estimated frequencies:" in r.stdout
        assert "frequency mse:" in r.stdout

    def test_doa_scene_from_an_experiment_config(self, tmp_path, capsys):
        scene = tmp_path / "scene.cfg"
        scene.write_text("qtcov-config 1\nscene_freqs = 0.1, 0.4\nscene_powers = 1, 1\n")
        argv = ["doa", "--scene", str(scene), "--n", "200", "--estimator", "qtscm",
                "--grid", "256"]
        assert main(argv) == 1
        assert "config needs an experiment id" in capsys.readouterr().err
        scene.write_text("qtcov-config 1\nexperiment = custom\nd = 8\n"
                         "scene_freqs = 0.1, 0.4\nscene_powers = 1, 1\n")
        assert main(argv) == 0
        assert "true frequencies:      0.100000 0.400000\n" in capsys.readouterr().out

    def test_doa_warnings_go_to_stderr(self, monkeypatch, capsys):
        unconverged = SimpleNamespace(converged=False)  # a solver record that did not converge
        monkeypatch.setitem(cli.ESTIMATORS, "qtscm",
                            lambda batch, gram: (qtcov.qtscm(batch, gram), unconverged))
        monkeypatch.setattr(cli, "estimate_frequencies",
                            lambda est, k, grid: (False, np.linspace(0.1, 0.9, k)))
        assert main(["doa", "--n", "200", "--estimator", "qtscm", "--grid", "256"]) == 0
        out, err = capsys.readouterr()
        assert "warning" not in out and "estimated frequencies:" in out
        assert "qtscm did not converge" in err and "degenerate spectrum" in err

    def test_exp5_runs_without_scipy(self, tmp_path):
        cfg = tmp_path / "doa.cfg"
        cfg.write_text("qtcov-config 1\nexperiment = exp5\nd = 8\nn_values = 100\n"
                       "trials = 1\nmusic_grid = 64\nscene_freqs = 0.1, 0.4\n"
                       "scene_powers = 1, 1\n")
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from qtcov import cli\n"
                f"sys.exit(cli.main(['experiment', '--config', {str(cfg)!r}, "
                f"'--outdir', {str(tmp_path)!r}]))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "exp5.csv", newline="") as fh:
            means = [r for r in csv.DictReader(fh) if r["stat"] == "mean"]
        assert means and all(r["metric"] == "freq_mse" and np.isfinite(float(r["value"]))
                             for r in means)


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

    @pytest.mark.parametrize("level", ["nan", "inf"])
    def test_non_finite_delta(self, tmp_path, level):
        r = self.run_cli("simulate", "--d", "4", "--delta", level,
                         "-o", str(tmp_path / "b.qtb"))
        self.assert_clean_failure(r, f"level {level} is not finite")
        assert not (tmp_path / "b.qtb").exists()

    @pytest.mark.parametrize("lines, message", [
        ("scene_freqs = 0.1, 0.3\nscene_powers = 1, 1\nscene_noise_var = nan", "noise variance"),
        ("scene_freqs = 0.1, 0.3\nscene_powers = 1, -1", "powers must be finite and > 0"),
        ("scene_freqs = 0.3, 2.3\nscene_powers = 1, 1", "frequencies must lie in [0, 1)"),
        ("scene_freqs = 0.1, 0.3\nscene_powers = 1e308, 1e308", "scene_powers"),
        ("scene_freqs = 0.1, 0.3\nscene_powers = 8e307, 8e307\nlevel_rule = tail_bound\n"
         "bits = 2", "the tail-bound level overflows at gamma0 = 1.6e+308"),
    ])
    def test_bad_scene_in_config(self, tmp_path, capsys, lines, message):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("qtcov-config 1\nexperiment = custom\nd = 4\nn_values = 20\n"
                       f"trials = 1\n{lines}\n")
        assert main(["experiment", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["experiment", "--config"], ["doa", "--scene"]])
    def test_config_file_that_is_not_utf8(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfeqtcov-config 1\nexperiment = custom\n")
        assert main(command + [str(cfg)] + (["--outdir", str(tmp_path)]
                                           if command[0] == "experiment" else [])) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: config file {cfg} is not UTF-8 text")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_bit_depth_above_63(self, tmp_path, capsys):
        batch = tmp_path / "b.qtb"
        assert main(["simulate", "--d", "4", "--n", "20", "--bits", "2000", "-o", str(batch)]) == 1
        assert "bit depth 2000 is outside 1..63" in capsys.readouterr().err
        assert not batch.exists()

    def test_kbit_level_near_tiny_writes_clip_codes(self, tmp_path):
        batch = tmp_path / "b.qtb"
        assert main(["simulate", "--d", "6", "--n", "50", "--cov-seed", "1", "--delta",
                     "2.3e-308", "--bits", "2", "-o", str(batch)]) == 0
        data = qtcov.load_batch(str(batch)).data
        assert set(data.real.ravel()) | set(data.imag.ravel()) == {-2.5 * 2.3e-308, 2.5 * 2.3e-308}

    def test_unparsable_ruler_spec(self):
        self.assert_clean_failure(self.run_cli("ruler", "--d", "16", "--ruler", "alpha:abc"),
                                  "alpha:abc")

    @pytest.mark.parametrize("estimator", list(harness.ESTIMATORS))
    def test_raw_batch_file(self, tmp_path, capsys, estimator):
        raw = qtcov.sample_complex_gaussian(qtcov.random_toeplitz_covariance(4, 1),
                                            qtcov.full_ruler(4), 20, 2)
        qtcov.save_batch(raw, tmp_path / "raw.qtb")
        assert main(["estimate", "--batch", str(tmp_path / "raw.qtb"),
                     "--estimator", estimator]) == 1
        assert "estimators expect a quantized batch" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, keep_payload, message", [
        (b"\nn=20\n", b"\nn=0\n", False, "at least one sample"),
        (b"\nstage=quantized\n", b"\nstage=raw\n", True, "does not fit its levels"),
    ], ids=["no_samples", "raw_stage_with_levels"])
    def test_hand_edited_batch_header(self, tmp_path, capsys, old, new, keep_payload, message):
        batch = tmp_path / "b.qtb"
        assert main(["simulate", "--d", "4", "--n", "20", "--bits", "2", "-o", str(batch)]) == 0
        head, payload = batch.read_bytes().split(b"\n\n", 1)
        assert old in head + b"\n"
        batch.write_bytes((head + b"\n").replace(old, new) + b"\n"
                          + (payload if keep_payload else b""))
        capsys.readouterr()
        assert main(["estimate", "--batch", str(batch)]) == 1
        assert message in capsys.readouterr().err

    def test_qspa_trace_without_qspa(self, tmp_path, capsys):
        batch, trace = tmp_path / "b.qtb", tmp_path / "trace.csv"
        assert main(["simulate", "--d", "4", "--n", "20", "-o", str(batch)]) == 0
        capsys.readouterr()
        assert main(["estimate", "--batch", str(batch), "--estimator", "qtscm",
                     "--qspa-trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "--qspa-trace" in err and "add qspa to --estimator" in err
        assert not trace.exists()

    def test_truncated_batch_file(self, tmp_path):
        batch = tmp_path / "b.qtb"
        r = self.run_cli("simulate", "--d", "16", "--n", "100", "-o", str(batch))
        assert r.returncode == 0, r.stderr
        batch.write_bytes(batch.read_bytes()[:700])
        self.assert_clean_failure(self.run_cli("estimate", "--batch", str(batch)),
                                  "payload")

    def test_codes_payload_batch_file(self, tmp_path):
        # older qtcov versions wrote k-bit batches as two int64 code planes
        batch = tmp_path / "b.qtb"
        assert main(["simulate", "--d", "4", "--n", "20", "--bits", "2", "-o", str(batch)]) == 0
        blob = batch.read_bytes()
        assert b"\npayload=complex128\n" in blob
        batch.write_bytes(blob.replace(b"\npayload=complex128\n", b"\npayload=codes\n", 1))
        self.assert_clean_failure(self.run_cli("estimate", "--batch", str(batch)),
                                  "payload=codes", str(batch))

    @pytest.mark.parametrize("estimator", list(harness.ESTIMATORS))
    def test_non_finite_batch_file(self, tmp_path, estimator):
        batch = tmp_path / "b.qtb"
        assert main(["simulate", "--d", "4", "--n", "20", "-o", str(batch)]) == 0
        head, payload = batch.read_bytes().split(b"\n\n", 1)
        batch.write_bytes(head + b"\n\n" + np.array([np.nan], "<c16").tobytes() + payload[16:])
        self.assert_clean_failure(
            self.run_cli("estimate", "--batch", str(batch), "--estimator", estimator),
            str(batch), "non-finite values")

    @pytest.mark.parametrize("text, message", [
        ("", "holds no generators"),
        ("# no data\n", "holds no generators"),
        ("nan\n0.5\n0.1\n0.0\n", "holds a non-finite generator"),
        ("inf\n0.5\n0.1\n0.0\n", "holds a non-finite generator"),
        ("1.0\n(0.5+infj)\n0.1\n0.0\n", "holds a non-finite generator"),
    ], ids=["empty", "comment_only", "nan", "inf", "inf_imaginary"])
    def test_bad_truth_file(self, tmp_path, text, message):
        batch, truth = tmp_path / "b.qtb", tmp_path / "truth.txt"
        assert main(["simulate", "--d", "4", "--n", "20", "-o", str(batch)]) == 0
        truth.write_text(text)
        r = self.run_cli("estimate", "--batch", str(batch), "--truth", str(truth))
        self.assert_clean_failure(r, f"truth file {truth} {message}")
        assert "Warning" not in r.stderr and r.stdout == ""

    def test_datadriven_level_rule_is_unknown(self, tmp_path):
        cfg = tmp_path / "dd.cfg"
        cfg.write_text("qtcov-config 1\nexperiment = custom\nd = 4\nn_values = 20\n"
                       "trials = 1\nlevel_rule = datadriven\n")
        r = self.run_cli("experiment", "--config", str(cfg), "--outdir", str(tmp_path))
        self.assert_clean_failure(r, "unknown level rule 'datadriven'")
        assert not (tmp_path / "custom.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        ("deltas = 1e-310:1e-310, 0.5:0.5",
         "deltas 1e-310:1e-310 at bits = inf: quantization level 1e-310 is subnormal"),
        ("deltas = 0.5:0.5, nan:nan",
         "deltas nan:nan at bits = inf: quantization level nan is not finite"),
        ("deltas = 0.5:0.5, inf:0.5",
         "deltas inf:0.5 at bits = inf: quantization level inf is not finite"),
        ("deltas = -1:-1",
         "deltas -1.0:-1.0 at bits = inf: quantization levels must be nonnegative"),
        ("bits = inf, 2\ndeltas = 0:0",
         "deltas 0.0:0.0 at bits = 2: finite-bit quantization requires delta_r == delta_i > 0"),
        ("n_values = 20, 0", "n_values lists 0; a cell needs n >= 1 samples"),
        ("n_values = -5", "n_values lists -5; a cell needs n >= 1 samples"),
    ], ids=["subnormal_level", "nan_level", "inf_level", "negative_level", "zero_level_at_2_bits",
            "n_0", "n_negative"])
    def test_unusable_level_or_sample_size(self, tmp_path, lines, message):
        # a level, a bit depth and n are fixed before the first draw
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"qtcov-config 1\nexperiment = custom\nd = 4\ntrials = 1\n{lines}\n")
        r = self.run_cli("experiment", "--config", str(cfg), "--outdir", str(tmp_path))
        self.assert_clean_failure(r, message)
        assert not (tmp_path / "custom.csv").exists()

    def test_dimension_with_no_grid_cell(self, tmp_path):
        # qscm needs a full ruler; a run with no cell would write a header-only CSV
        cfg = tmp_path / "qscm.cfg"
        cfg.write_text("qtcov-config 1\nexperiment = custom\nestimators = qscm\n"
                       "rulers = alpha:0.5\nn_values = 20\ntrials = 1\n")
        r = self.run_cli("experiment", "--config", str(cfg), "--outdir", str(tmp_path))
        self.assert_clean_failure(r, "no grid cell at d = 16")
        assert not (tmp_path / "custom.csv").exists()

    @pytest.mark.parametrize("truth_d", [8, 1])
    def test_truth_of_another_dimension(self, tmp_path, truth_d):
        batch, truth = tmp_path / "b.qtb", tmp_path / "truth.csv"
        assert main(["simulate", "--d", "4", "--n", "20", "--bits", "2", "-o", str(batch)]) == 0
        np.savetxt(truth, qtcov.random_toeplitz_covariance(truth_d, 1).generators)
        self.assert_clean_failure(
            self.run_cli("estimate", "--batch", str(batch), "--truth", str(truth)),
            "estimate dimension 4 does not match truth dimension " + str(truth_d))


class TestOutputs:
    def test_all_nan_table_writes_no_svg_and_drops_a_stale_one(self, tmp_path):
        # an earlier plot must not stay beside a CSV it does not show
        cfg = tiny_config(deltas=((1e300, 1e300),), outdir=str(tmp_path))
        (tmp_path / "custom.svg").write_text("<svg/>")
        csv_path, svg_path = write_outputs(cfg, run_experiment(cfg))
        assert svg_path is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["custom.csv"]
