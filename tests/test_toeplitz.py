import re

import numpy as np
import pytest

from qtcov import HermitianToeplitz, toeplitz_adjoint_project, vandermonde_synthesize
from qtcov.errors import QtcovError
from qtcov.estimators import spectral_norm
from qtcov.rulers import Ruler, full_ruler
from qtcov.sampling import random_toeplitz_covariance
from qtcov.toeplitz import as_dense_stack, toeplitz_dense


def steering(f, d):
    return np.exp(2j * np.pi * f * np.arange(d))


class TestConstruction:
    def test_scalar(self):
        T = HermitianToeplitz([1.0])
        assert T.dense.tolist() == [[1.0 + 0j]]

    def test_two_by_two(self):
        T = HermitianToeplitz([2.0, 1j])
        expect = np.array([[2.0, 1j], [-1j, 2.0]])
        np.testing.assert_array_equal(T.dense, expect)

    def test_hermitian_reflection(self):
        T = HermitianToeplitz([1.0, 0.5 + 0.5j, 0.2])
        assert T.dense[0, 2] == 0.2
        assert T.dense[2, 0] == 0.2

    def test_rejects_complex_diagonal(self):
        with pytest.raises(QtcovError, match=r"got imaginary part 1e-14$"):
            HermitianToeplitz([1.0 + 1e-14j, 0.5])

    @pytest.mark.parametrize("gens", [[np.inf, 0.5, 0.1, 0.0], [1.0, np.nan],
                                      [1.0, complex(0.5, -np.inf)]])
    def test_rejects_non_finite_generators(self, gens):
        with pytest.raises(QtcovError, match="generators must be finite"):
            HermitianToeplitz(gens)

    def test_rejects_empty(self):
        with pytest.raises(QtcovError, match="need at least one generator"):
            HermitianToeplitz([])

    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_densify_roundtrip_and_hermitian(self, rng, d):
        gens = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        gens[0] = gens[0].real
        T = HermitianToeplitz(gens)
        M = T.dense
        np.testing.assert_array_equal(M[0, :], T.generators)
        np.testing.assert_array_equal(M, M.conj().T)

    def test_generators_immutable(self):
        T = HermitianToeplitz([1.0, 1j])
        with pytest.raises(ValueError):
            T.generators[0] = 5.0

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 32])
    def test_stacked_build_is_byte_equal_to_single_builds(self, rng, d):
        gens = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
        gens[:, 0] = gens[:, 0].real
        singles = [HermitianToeplitz(g) for g in gens]
        stack = toeplitz_dense(gens)
        assert stack.shape == (3, d, d)
        for M, T in zip(stack, singles):
            assert M.tobytes() == T.dense.tobytes()
        # mixed with dense matrices, in order
        mats = [singles[0], singles[1].dense, singles[2]]
        assert as_dense_stack(mats).tobytes() == stack.tobytes()
        assert as_dense_stack([singles[1].dense]).tobytes() == stack[1:2].tobytes()

    def test_dense_is_a_fresh_array_on_every_access(self):
        T = HermitianToeplitz([2.0, 1j, 0.5])
        M = T.dense
        M[0, 0] = 99.0
        assert T.dense[0, 0] == 2.0
        assert not np.shares_memory(T.dense, T.dense)


class TestVandermonde:
    def test_zero_frequency_is_all_ones(self):
        T = vandermonde_synthesize([0.0], [1.0], 2)
        np.testing.assert_allclose(T.dense, np.ones((2, 2)), atol=1e-15)

    def test_quarter_frequency(self):
        T = vandermonde_synthesize([0.25], [1.0], 2)
        np.testing.assert_allclose(T.generators, [1.0, -1j], atol=1e-15)

    def test_matches_outer_product_sum(self):
        freqs, powers, d = (0.1, 0.3), (2.0, 1.0), 4
        T = vandermonde_synthesize(freqs, powers, d)
        M = sum(p * np.outer(steering(f, d), steering(f, d).conj())
                for f, p in zip(freqs, powers))
        np.testing.assert_allclose(T.dense, M, atol=1e-12)

    def test_errors(self):
        with pytest.raises(QtcovError, match="frequencies must be distinct"):
            vandermonde_synthesize([0.1, 0.1], [1.0, 1.0], 3)
        with pytest.raises(QtcovError, match="2 frequencies vs 1 powers"):
            vandermonde_synthesize([0.1, 0.2], [1.0], 3)
        with pytest.raises(ValueError):
            vandermonde_synthesize([0.1], [-1.0], 3)

    @pytest.mark.parametrize("power", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_bad_power_with_a_typed_error(self, power):
        with pytest.raises(QtcovError, match="powers must be finite and positive"):
            vandermonde_synthesize([0.1], [power], 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_always_psd(self, seed):
        T = random_toeplitz_covariance(6, seed)
        assert np.linalg.eigvalsh(T.dense)[0] >= -1e-9 * T.generators[0].real


def lag_sum_bound(T):
    """sum_{|k| < d} |r_k|: the sup of the Toeplitz symbol's modulus, so a
    closed-form upper bound on the spectral norm of a Hermitian Toeplitz
    matrix."""
    r = np.abs(T.generators)
    return 2 * r.sum() - r[0]


class TestSpectralNormBound:
    # the harness divides by spectral_norm(truth); on a covariance it lies in
    # [r_0, sum_k |r_k|], so it is never zero and never above the symbol bound
    def test_identity(self):
        T = HermitianToeplitz([1.0] + [0.0] * 7)
        assert spectral_norm(T.dense) == pytest.approx(1.0)
        assert lag_sum_bound(T) == 1.0

    def test_single_source_d8(self):
        T = vandermonde_synthesize([0.3], [1.0], 8)
        assert spectral_norm(T.dense) == pytest.approx(8.0)
        assert lag_sum_bound(T) == pytest.approx(15.0)

    @pytest.mark.parametrize("seed", range(100))
    def test_dominates_dense_norm_random_psd(self, seed):
        d = 2 + seed % 11
        T = random_toeplitz_covariance(d, seed)
        norm = spectral_norm(T.dense)
        assert lag_sum_bound(T) >= norm - 1e-9
        assert norm >= T.generators[0].real - 1e-9


class TestAdjointProject:
    def test_identity_full_ruler(self):
        out = toeplitz_adjoint_project(np.eye(3), full_ruler(3))
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("indices", [[1, 2, 3, 4, 5], [1, 2, 3, 5], [1, 2, 4, 5]])
    def test_toeplitz_restriction_recovers_generators_exactly(self, rng, indices):
        gens = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        gens[0] = gens[0].real
        T = HermitianToeplitz(gens)
        ruler = Ruler(indices, 5)
        M = T.dense[np.ix_(ruler.positions, ruler.positions)]
        out = toeplitz_adjoint_project(M, ruler)
        np.testing.assert_array_equal(out, T.generators)

    def test_matches_naive_double_loop(self, rng):
        from conftest import random_hermitian
        M = random_hermitian(rng, 4)
        ruler = full_ruler(4)
        out = toeplitz_adjoint_project(M, ruler)
        for s in range(4):
            pairs = [(j, k) for j in range(4) for k in range(4) if k - j == s]
            naive = np.mean([M[j, k] for j, k in pairs])
            assert out[s] == pytest.approx(naive, abs=1e-14)

    def test_size_mismatch(self):
        with pytest.raises(QtcovError,
                           match=re.escape("matrix shape (3, 3) does not match |ruler| = 4")):
            toeplitz_adjoint_project(np.eye(3), full_ruler(4))

    def test_lag0_is_real(self, rng):
        from conftest import random_hermitian
        out = toeplitz_adjoint_project(random_hermitian(rng, 5), full_ruler(5))
        assert out[0].imag == 0.0


class TestMinEigenvalue:
    @pytest.mark.parametrize("seed", range(10))
    def test_synthesized_nonnegative(self, seed):
        T = random_toeplitz_covariance(8, seed)
        assert np.linalg.eigvalsh(T.dense)[0] >= -1e-9 * T.generators[0].real
