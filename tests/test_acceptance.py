"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Statistical checks follow the experiment protocol of the harness: the ground
truth covariance is fixed per check, trials vary only the sample and dither
draws, and grid cells within a trial share the underlying Gaussian block
(common random numbers), so gaps between cells are assessed with the standard
error of the trial-paired differences.
"""

import time

import numpy as np
import pytest

import qtcov
from qtcov import rng as qrng
from qtcov import (DoaScene, QuantizationSpec, Ruler, coverage_coefficient,
                   estimate_frequencies, frequency_mse, full_ruler,
                   make_ruler_alpha, qspa_solve, qtscm, quantize_batch,
                   quantized_sample_covariance, random_toeplitz_covariance,
                   relative_spectral_error, sample_complex_gaussian,
                   select_level_tail_bound)
from qtcov.quantizer import unit_dither
from qtcov.sampling import SampleBatch

from oracles import grid_oracle_d2, wishart_rhat

OMEGA_A = [1, 2, 3, 4, 5, 6, 7, 8, 16]
OMEGA_B = [1, 2, 3, 5, 8, 11, 14, 15, 16]


def _report(num, label, ok, detail):
    line = f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _restrict(batch, ruler, n=None):
    n = batch.count if n is None else n
    return SampleBatch(ruler, batch.data[:n, ruler.positions], batch.seed, batch.spec)


def _paired_gap_se(a, b):
    diff = np.asarray(a) - np.asarray(b)
    return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(diff.size))


def test_criterion_01_coverage_coefficients():
    t0 = time.time()
    phi_a = coverage_coefficient(Ruler(OMEGA_A, 16))
    phi_b = coverage_coefficient(Ruler(OMEGA_B, 16))
    ok = abs(phi_a - 10.70) <= 0.01 and abs(phi_b - 7.11) <= 0.01
    _report(1, "coverage coefficients", ok,
            f"phi_A={phi_a:.4f}, phi_B={phi_b:.4f} ({time.time() - t0:.2f}s)")


def test_criterion_02_unbiasedness():
    t0 = time.time()
    d, n, trials, seed = 8, 500, 400, 2
    T = random_toeplitz_covariance(d, seed)
    spec = QuantizationSpec(2.0, 2.0)
    ruler = full_ruler(d)
    samples = np.empty((trials, d), complex)
    for t in range(trials):
        raw = sample_complex_gaussian(T, ruler, n, qrng.trial_seed(seed, t))
        samples[t] = qtscm(quantize_batch(raw, spec)).generators
    worst = 0.0
    for part, truth in ((samples.real, T.generators.real),
                        (samples.imag, T.generators.imag)):
        mean = part.mean(axis=0)
        se = part.std(axis=0, ddof=1) / np.sqrt(trials)
        dev = np.abs(mean - truth)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dev == 0, 0.0, dev / np.where(se == 0, np.inf, se))
        worst = max(worst, float(np.max(ratio)))
    _report(2, "unbiasedness", worst <= 5.0,
            f"max |mean-truth|/SE = {worst:.2f} over {2 * d} components "
            f"({time.time() - t0:.1f}s)")


def test_criterion_03_error_rate_slope():
    t0 = time.time()
    d, trials, seed = 16, 100, 404
    n_values = (100, 1000, 10000)
    spec = QuantizationSpec(5.0, 5.0)
    T = random_toeplitz_covariance(d, seed)
    slopes = {}
    for name, ruler in (("full", full_ruler(d)), ("alpha:0.5", make_ruler_alpha(d, 0.5))):
        means = []
        for n in n_values:
            errs = []
            for t in range(trials):
                raw = sample_complex_gaussian(T, ruler, n, qrng.trial_seed(seed, t))
                errs.append(relative_spectral_error(qtscm(quantize_batch(raw, spec)), T))
            means.append(np.mean(errs))
        slopes[name] = float(np.polyfit(np.log10(n_values), np.log10(means), 1)[0])
    ok = all(-0.6 <= s <= -0.4 for s in slopes.values())
    _report(3, "n^-1/2 error rate", ok,
            ", ".join(f"{k}: slope {v:.3f}" for k, v in slopes.items())
            + f" ({time.time() - t0:.1f}s)")


def test_criterion_04_ruler_ordering():
    t0 = time.time()
    d, n, trials, seed = 16, 1000, 100, 36
    spec = QuantizationSpec(1.0, 1.0)
    T = random_toeplitz_covariance(d, seed)
    rulers = {"B": Ruler(OMEGA_B, d), "A": Ruler(OMEGA_A, d),
              "half": make_ruler_alpha(d, 0.5)}
    errs = {k: [] for k in rulers}
    for t in range(trials):
        ts = qrng.trial_seed(seed, t)
        raw = sample_complex_gaussian(T, full_ruler(d), n, ts)
        qfull = quantize_batch(raw, spec)
        for key, ruler in rulers.items():
            errs[key].append(relative_spectral_error(qtscm(_restrict(qfull, ruler)), T))
    gap_ab, se_ab = _paired_gap_se(errs["A"], errs["B"])
    gap_ha, se_ha = _paired_gap_se(errs["half"], errs["A"])
    ok = gap_ab > 2 * se_ab and gap_ha > 2 * se_ha
    _report(4, "ruler ordering", ok,
            f"err B {np.mean(errs['B']):.4f} < A {np.mean(errs['A']):.4f} < "
            f"half {np.mean(errs['half']):.4f}; gaps/SE {gap_ab / se_ab:.1f}, "
            f"{gap_ha / se_ha:.1f} ({time.time() - t0:.1f}s)")


def test_criterion_05_level_symmetry_and_growth():
    t0 = time.time()
    d, n, trials, seed = 16, 500, 100, 5
    levels = np.linspace(np.sqrt(2), 4 * np.sqrt(2), 6)  # ||Delta|| from 2 to 8
    T = random_toeplitz_covariance(d, seed)
    ruler = full_ruler(d)
    errs = np.empty((6, 6, trials))
    for t in range(trials):
        ts = qrng.trial_seed(seed, t)
        raw = sample_complex_gaussian(T, ruler, n, ts)
        unit = unit_dither(raw.data.shape, ts)
        for i, dr in enumerate(levels):
            for j, di in enumerate(levels):
                qb = quantize_batch(raw, QuantizationSpec(dr, di), unit=unit)
                errs[i, j, t] = relative_spectral_error(qtscm(qb), T)
    mean = errs.mean(axis=2)
    se = errs.std(axis=2, ddof=1) / np.sqrt(trials)
    worst = 0.0
    for i in range(6):
        for j in range(i + 1, 6):
            ratio = abs(mean[i, j] - mean[j, i]) / np.hypot(se[i, j], se[j, i])
            worst = max(worst, float(ratio))
    grew = mean[5, 5] > mean[0, 0]
    ok = worst < 3.0 and grew
    _report(5, "level symmetry + growth", ok,
            f"max asym {worst:.2f} combined SEs; err(||D||=8) {mean[5, 5]:.3f} > "
            f"err(||D||=2) {mean[0, 0]:.3f} ({time.time() - t0:.1f}s)")


def test_criterion_06_finite_bit_equivalence():
    t0 = time.time()
    d, n = 6, 8
    ruler = Ruler([1, 2, 4, 6], d)
    batches = 0
    for i in range(1000):
        k = 3 + i % 3
        T = random_toeplitz_covariance(d, 7000 + i)
        raw = sample_complex_gaussian(T, ruler, n, 7000 + i)
        zmax = float(np.max(np.abs(raw.data)))
        if zmax == 0.0:
            continue
        delta = 1.02 * zmax / (2 ** (k - 1) - 2 * np.sqrt(2))
        # dither moduli are at most sqrt(2)*delta, so max|z + tau| stays below
        # the no-clipping threshold (2^(k-1) - sqrt(2)) * delta by construction
        assert zmax + np.sqrt(2) * delta <= (2 ** (k - 1) - np.sqrt(2)) * delta
        unit = unit_dither(raw.data.shape, i)
        fin = quantize_batch(raw, QuantizationSpec(delta, delta, k), unit=unit)
        inf = quantize_batch(raw, QuantizationSpec(delta, delta), unit=unit)
        assert np.array_equal(fin.data, inf.data)
        assert np.array_equal(qtscm(fin).generators, qtscm(inf).generators)
        batches += 1
    _report(6, "finite-bit equivalence", batches == 1000,
            f"{batches} constructed batches bit-identical ({time.time() - t0:.1f}s)")


def test_criterion_07_bit_sweep_plateau():
    t0 = time.time()
    d, n, trials, seed = 16, 500, 100, 505
    ks = (2, 3, 4, 5, 6)
    T = random_toeplitz_covariance(d, seed)
    gamma0 = T.generators[0].real
    ruler = full_ruler(d)
    errs = {k: [] for k in (*ks, "inf")}
    for t in range(trials):
        ts = qrng.trial_seed(seed, t)
        raw = sample_complex_gaussian(T, ruler, n, ts)
        unit = unit_dither(raw.data.shape, ts)
        for k in ks:
            delta = select_level_tail_bound(gamma0, n, ruler.size, k)
            qb = quantize_batch(raw, QuantizationSpec(delta, delta, k), unit=unit)
            errs[k].append(relative_spectral_error(qtscm(qb), T))
        delta6 = select_level_tail_bound(gamma0, n, ruler.size, 6)
        qb = quantize_batch(raw, QuantizationSpec(delta6, delta6), unit=unit)
        errs["inf"].append(relative_spectral_error(qtscm(qb), T))
    mean = {k: np.mean(v) for k, v in errs.items()}
    se = {k: np.std(v, ddof=1) / np.sqrt(trials) for k, v in errs.items()}
    monotone = all(mean[ks[i + 1]] <= mean[ks[i]] + 2 * np.hypot(se[ks[i + 1]], se[ks[i]])
                   for i in range(len(ks) - 1))
    plateau = mean[6] - mean["inf"] < np.hypot(se[6], se["inf"])
    _report(7, "bit-sweep plateau", monotone and plateau,
            "err(k): " + " ".join(f"{k}:{mean[k]:.3f}" for k in ks)
            + f", unclipped {mean['inf']:.3f} ({time.time() - t0:.1f}s)")


def _check_solution(sol, m):
    shifted = sol.T_breve.dense
    assert np.linalg.eigvalsh(shifted)[0] >= -1e-8 * sol.u[0].real
    assert sol.objective >= 2 * m - 1e-9
    assert sol.converged


def test_criterion_08_qspa_correctness():
    t0 = time.time()
    # (b) d=2 brute-force grid oracle
    spec = QuantizationSpec(1.0, 1.0)
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(42 + i)
        Rhat = wishart_rhat(rng, 2, 10)
        sol = qspa_solve(Rhat, full_ruler(2), spec, n=10)
        _check_solution(sol, 2)
        worst = max(worst, abs(sol.objective - grid_oracle_d2(Rhat, spec.lag0_bias)))
    oracle_ok = worst < 1e-4

    # (c) d=16 accuracy ordering vs the projection estimator
    d, n, trials, seed = 16, 10_000, 100, 202
    spec5 = QuantizationSpec(5.0, 5.0)
    ruler = full_ruler(d)
    T = random_toeplitz_covariance(d, seed)
    err_spa, err_tscm = [], []
    for t in range(trials):
        raw = sample_complex_gaussian(T, ruler, n, qrng.trial_seed(seed, t))
        qb = quantize_batch(raw, spec5)
        err_tscm.append(relative_spectral_error(qtscm(qb), T))
        sol = qspa_solve(quantized_sample_covariance(qb), ruler, spec5, n=n)
        _check_solution(sol, ruler.size)  # (a) on every solve
        err_spa.append(relative_spectral_error(sol.T_breve, T))
    order_ok = np.mean(err_spa) <= np.mean(err_tscm)
    _report(8, "covariance fitting", oracle_ok and order_ok,
            f"max |obj - grid oracle| = {worst:.2e}; mean err fit {np.mean(err_spa):.4f}"
            f" <= projection {np.mean(err_tscm):.4f} ({time.time() - t0:.1f}s)")


def test_criterion_09_doa_recovery():
    t0 = time.time()
    scene = DoaScene(16, (0.08, 0.21, 0.37, 0.68, 0.81), (1.0,) * 5, 0.1)
    assert scene.snr_db == pytest.approx(10.0)
    R = scene.covariance()
    ruler = make_ruler_alpha(16, 0.5)
    spec = QuantizationSpec(2.0, 2.0, 2)
    trials, seed = 50, 606
    mses = {}
    for n in (1000, 10000):
        per = {"qtscm": [], "qspa": []}
        for t in range(trials):
            raw = sample_complex_gaussian(R, ruler, n, qrng.trial_seed(seed, t))
            qb = quantize_batch(raw, spec)
            _, f_t = estimate_frequencies(qtscm(qb), scene.k_sources)
            per["qtscm"].append(frequency_mse(f_t, scene.freqs))
            sol = qspa_solve(quantized_sample_covariance(qb), ruler, spec, n=n)
            _, f_s = estimate_frequencies(sol.T_breve, scene.k_sources)
            per["qspa"].append(frequency_mse(f_s, scene.freqs))
        mses[n] = {k: (np.mean(v), np.std(v, ddof=1) / np.sqrt(trials))
                   for k, v in per.items()}
    ordering = mses[10000]["qspa"][0] < mses[10000]["qtscm"][0]
    monotone = all(mses[10000][k][0] < mses[1000][k][0]
                   + 2 * np.hypot(mses[10000][k][1], mses[1000][k][1])
                   for k in ("qtscm", "qspa"))
    _report(9, "doa recovery", ordering and monotone,
            f"mse@1e4 fit {mses[10000]['qspa'][0]:.2e} < proj "
            f"{mses[10000]['qtscm'][0]:.2e}; decreasing in n ({time.time() - t0:.1f}s)")


def test_criterion_10_quantizer_micro_properties():
    t0 = time.time()
    n = 1_000_000
    delta = 1.0
    gen = np.random.default_rng(10)
    x = gen.standard_normal(n)
    # x as the one column of a d = 1 raw batch; its real plane takes the dither
    raw = SampleBatch(full_ruler(1), x[:, None] + 0j, 11)
    unit = unit_dither(raw.data.shape, 11)
    tau = delta * unit[0][:, 0]
    xq = quantize_batch(raw, QuantizationSpec(delta, delta), unit=unit).data.real[:, 0]
    noise_ok = abs(np.mean((xq - x) ** 2) - delta ** 2 / 4) <= 0.01 * delta ** 2 / 4
    dither_ok = abs(tau.var() - delta ** 2 / 6) <= 0.01 * delta ** 2 / 6

    d, nb = 4, 100_000
    T = qtcov.HermitianToeplitz([1.0, 0, 0, 0])
    raw = sample_complex_gaussian(T, full_ruler(d), nb, 12)
    spec = QuantizationSpec(1.0, 1.0)
    zq = quantize_batch(raw, spec).data
    resid = zq.T @ zq.conj() / nb - T.dense - spec.lag0_bias * np.eye(d)
    bias_dev = float(np.max(np.abs(resid)))
    bias_ok = bias_dev < 5.0 / np.sqrt(nb)
    _report(10, "quantizer moments", noise_ok and dither_ok and bias_ok,
            f"noise power {np.mean((xq - x) ** 2):.4f}~0.25, dither var "
            f"{tau.var():.4f}~{1 / 6:.4f}, bias residual {bias_dev:.4f} < "
            f"{5 / np.sqrt(nb):.4f} ({time.time() - t0:.1f}s)")
