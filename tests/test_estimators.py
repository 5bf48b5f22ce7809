import tracemalloc

import numpy as np
import pytest

from qtcov import (HermitianToeplitz, QuantizationSpec, Ruler, cli, full_ruler, qscm,
                   qtscm, quantize_batch, quantized_sample_covariance,
                   random_toeplitz_covariance, relative_spectral_error,
                   sample_complex_gaussian, save_batch, toeplitz_adjoint_project)
from qtcov import rng as qrng
from qtcov.errors import QtcovError
from qtcov.estimators import spectral_norm
from qtcov.harness import ESTIMATORS
from qtcov.sampling import SampleBatch

OMEGA_A = [1, 2, 3, 4, 5, 6, 7, 8, 16]
OMEGA_B = [1, 2, 3, 5, 8, 11, 14, 15, 16]


def quantized(data, ruler, spec, seed=0):
    return SampleBatch(ruler, data, seed, spec)


class TestGram:
    def test_single_sample_outer_product(self):
        b = quantized(np.array([[1.0, 1j]]), full_ruler(2), QuantizationSpec(0, 0))
        np.testing.assert_array_equal(quantized_sample_covariance(b),
                                      np.array([[1, -1j], [1j, 1]]))

    def test_zero_batch(self):
        b = quantized(np.zeros((5, 2), complex), full_ruler(2), QuantizationSpec(0, 0))
        np.testing.assert_array_equal(quantized_sample_covariance(b), np.zeros((2, 2)))

    def test_identity_plus_bias_mc(self):
        T = HermitianToeplitz([1.0, 0.0])
        raw = sample_complex_gaussian(T, full_ruler(2), 100_000, 71)
        b = quantize_batch(raw, QuantizationSpec(1.0, 1.0))
        R = quantized_sample_covariance(b)
        assert np.linalg.norm(R - 1.5 * np.eye(2), 2) < 0.05

    def test_conjugate_goes_into_scratch(self):
        raw = sample_complex_gaussian(random_toeplitz_covariance(16, 3), full_ruler(16),
                                      10_000, 4)
        b = quantize_batch(raw, QuantizationSpec(1.0, 0.5))
        scratch = np.full_like(b.data, complex(np.nan, np.inf))
        tracemalloc.start()
        try:
            gram = quantized_sample_covariance(b, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gram.tobytes() == quantized_sample_covariance(b).tobytes()
        assert scratch.tobytes() == b.data.conj().tobytes()
        assert peak <= 0.01 * b.data.nbytes

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_a_non_finite_batch_fails_before_each_estimator(self, estimator, value):
        # before, qscm returned nan, qtscm raised at HermitianToeplitz and
        # qspa a LinAlgError from its eigenvalue solver
        data = np.ones((5, 4), complex)
        data[2, 1] = value
        raw = SampleBatch(full_ruler(4), data, 0)
        b = quantize_batch(raw, QuantizationSpec(1.0, 1.0))
        with pytest.raises(QtcovError, match="Gram matrix of the batch is not finite"):
            ESTIMATORS[estimator](b, quantized_sample_covariance(b))

    def test_empty(self):
        # an empty batch cannot be built, so no Gram matrix of one exists
        with pytest.raises(QtcovError, match="batch has no samples"):
            quantized(np.zeros((0, 2), complex), full_ruler(2), QuantizationSpec(0, 0))


class TestQtscm:
    def test_zero_batch_zero_level(self):
        b = quantized(np.zeros((3, 4), complex), full_ruler(4), QuantizationSpec(0, 0))
        np.testing.assert_array_equal(qtscm(b).dense, np.zeros((4, 4)))

    def test_scalar_bias_arithmetic(self):
        b = quantized(np.array([[3.0 + 0j]]), full_ruler(1), QuantizationSpec(2.0, 2.0))
        assert qtscm(b).generators[0] == 7.0  # 9 - (4 + 4)/4

    def test_exact_identity_with_adjoint(self):
        T = random_toeplitz_covariance(6, 31)
        ruler = Ruler([1, 2, 4, 6], 6)
        raw = sample_complex_gaussian(T, ruler, 40, 32)
        spec = QuantizationSpec(1.0, 0.5)
        b = quantize_batch(raw, spec)
        expect = toeplitz_adjoint_project(quantized_sample_covariance(b), ruler)
        expect[0] -= spec.lag0_bias
        np.testing.assert_array_equal(qtscm(b).generators, expect)

    def test_unbiased_mc(self):
        # mean over 200 trials of n=500 within 4 K^2 / sqrt(200*500) entrywise
        d, n, trials = 8, 500, 200
        T = random_toeplitz_covariance(d, 40)
        spec = QuantizationSpec(1.0, 1.0)
        ruler = full_ruler(d)
        acc = np.zeros(d, complex)
        for t in range(trials):
            ts = qrng.trial_seed(40, t)
            raw = sample_complex_gaussian(T, ruler, n, ts)
            acc += qtscm(quantize_batch(raw, spec)).generators
        acc /= trials
        K2 = (np.sqrt(np.linalg.norm(T.dense, 2)) + 2 * np.sqrt(spec.norm_sq)) ** 2
        tol = 4 * K2 / np.sqrt(trials * n)
        assert np.max(np.abs(acc - T.generators)) < tol

    def test_expectation_is_ruler_free(self):
        # Monte Carlo means agree across rulers of equal truth
        d, n, trials = 16, 200, 150
        T = random_toeplitz_covariance(d, 50)
        spec = QuantizationSpec(1.0, 1.0)
        rulers = [Ruler(OMEGA_A, d), Ruler(OMEGA_B, d),
                  Ruler([1, 2, 3, 4, 8, 12, 16], d)]
        means = []
        for r in rulers:
            acc = np.zeros(d, complex)
            for t in range(trials):
                ts = qrng.trial_seed(51, t)
                raw = sample_complex_gaussian(T, r, n, ts)
                acc += qtscm(quantize_batch(raw, spec)).generators
            means.append(acc / trials)
        scale = T.generators[0].real + spec.lag0_bias
        for m in means[1:]:
            assert np.max(np.abs(m - means[0])) < 8 * scale / np.sqrt(trials * n)

    def test_empty_batch(self):
        with pytest.raises(QtcovError, match="batch has no samples"):
            quantized(np.zeros((0, 2), complex), full_ruler(2), QuantizationSpec(0, 0))


class TestQscm:
    def test_zero(self):
        b = quantized(np.zeros((2, 3), complex), full_ruler(3), QuantizationSpec(0, 0))
        np.testing.assert_array_equal(qscm(b), np.zeros((3, 3)))

    def test_scalar_equals_qtscm(self):
        b = quantized(np.array([[2.0 - 1j]]), full_ruler(1), QuantizationSpec(1.0, 0.5))
        np.testing.assert_allclose(qscm(b), qtscm(b).dense)

    def test_requires_full_ruler(self):
        ruler = Ruler([1, 2, 4], 4)
        b = quantized(np.zeros((2, 3), complex), ruler, QuantizationSpec(0, 0))
        with pytest.raises(QtcovError, match="qscm is defined on the full ruler only"):
            qscm(b)

    def test_projection_reduces_error_mc(self):
        # the Toeplitz projection beats the raw sample covariance on average
        d, n, trials = 8, 500, 100
        T = random_toeplitz_covariance(d, 60)
        spec = QuantizationSpec(1.0, 1.0)
        ruler = full_ruler(d)
        worse = 0
        err_q, err_t = [], []
        for t in range(trials):
            ts = qrng.trial_seed(61, t)
            raw = sample_complex_gaussian(T, ruler, n, ts)
            b = quantize_batch(raw, spec)
            err_q.append(relative_spectral_error(qscm(b), T))
            err_t.append(relative_spectral_error(qtscm(b), T))
        assert np.mean(err_q) > np.mean(err_t)


class TestReport:
    def test_csv_row(self, tmp_path, capsys):
        # `qtcov estimate` writes one row per estimator after its header
        T = random_toeplitz_covariance(4, 70)
        raw = sample_complex_gaussian(T, full_ruler(4), 100, 7)
        batch = quantize_batch(raw, QuantizationSpec(1.0, 1.0, 2))
        save_batch(batch, tmp_path / "b.qtb")
        np.savetxt(tmp_path / "truth.csv", T.generators)
        assert cli.main(["estimate", "--batch", str(tmp_path / "b.qtb"),
                         "--truth", str(tmp_path / "truth.csv")]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split(",")[0] == "estimator"
        assert row.split(",")[0] == "qtscm"
        assert '"1,2,3,4"' in row
        assert row.endswith("," + repr(relative_spectral_error(qtscm(batch), T)))

    def test_relative_error_of_truth_is_zero(self):
        T = random_toeplitz_covariance(4, 71)
        assert relative_spectral_error(T, T) == 0.0
        assert relative_spectral_error(T.dense, T) == 0.0

    @pytest.mark.parametrize("where", ["estimate", "truth"])
    def test_relative_error_rejects_a_non_finite_matrix(self, capfd, where):
        # checked before LAPACK, which would print DLASCL lines and return nan
        T = random_toeplitz_covariance(4, 71).dense
        bad = T.copy()
        bad[1, 2] = np.inf
        args = (bad, T) if where == "estimate" else (T, bad)
        with pytest.raises(QtcovError, match="relative spectral error of a non-finite matrix"):
            relative_spectral_error(*args)
        assert capfd.readouterr().err == ""


class TestSpectralNorm:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (16, 16), (7, 3)])
    def test_bits_of_the_two_norm(self, rng, shape):
        # the same LAPACK singular values as np.linalg.norm(M, 2), so the
        # scores, and every digest built from them, keep their bits
        for M in (rng.standard_normal(shape),
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            assert spectral_norm(M).tobytes() == np.linalg.norm(M, 2).tobytes()

    @pytest.mark.parametrize("shape", [(4, 5, 5), (2, 3, 16, 16), (3, 7, 3)])
    def test_a_stack_keeps_the_bits_of_each_single_call(self, rng, shape):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        norms = spectral_norm(M)
        assert norms.shape == shape[:-2]
        for idx in np.ndindex(shape[:-2]):
            assert norms[idx].tobytes() == spectral_norm(M[idx]).tobytes()

    def test_relative_spectral_error_bits(self, rng):
        T = random_toeplitz_covariance(8, 3)
        est = T.dense + 0.1 * rng.standard_normal((8, 8))
        expect = float(np.linalg.norm(est - T.dense, 2) / np.linalg.norm(T.dense, 2))
        assert relative_spectral_error(est, T) == expect
