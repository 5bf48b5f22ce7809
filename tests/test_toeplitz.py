import numpy as np
import pytest

from qtcov import (min_eigenvalue, spectral_density,
                   spectral_norm_bound, toeplitz_adjoint_project,
                   toeplitz_from_generators, vandermonde_synthesize)
from qtcov.errors import (DuplicateFrequency, EmptyGenerators, LengthMismatch,
                          NonRealDiagonal, QtcovError, ResolutionTooCoarse, SizeMismatch)
from qtcov.rulers import full_ruler, validate_ruler
from qtcov.sampling import random_toeplitz_covariance


def steering(f, d):
    return np.exp(2j * np.pi * f * np.arange(d))


class TestConstruction:
    def test_scalar(self):
        T = toeplitz_from_generators([1.0])
        assert T.dense.tolist() == [[1.0 + 0j]]

    def test_two_by_two(self):
        T = toeplitz_from_generators([2.0, 1j])
        expect = np.array([[2.0, 1j], [-1j, 2.0]])
        np.testing.assert_array_equal(T.dense, expect)

    def test_hermitian_reflection(self):
        T = toeplitz_from_generators([1.0, 0.5 + 0.5j, 0.2])
        assert T.dense[0, 2] == 0.2
        assert T.dense[2, 0] == 0.2

    def test_rejects_complex_diagonal(self):
        with pytest.raises(NonRealDiagonal):
            toeplitz_from_generators([1.0 + 1e-14j, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(EmptyGenerators):
            toeplitz_from_generators([])

    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_densify_roundtrip_and_hermitian(self, rng, d):
        gens = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        gens[0] = gens[0].real
        T = toeplitz_from_generators(gens)
        M = T.dense
        np.testing.assert_array_equal(M[0, :], T.generators)
        np.testing.assert_array_equal(M, M.conj().T)

    def test_generators_immutable(self):
        T = toeplitz_from_generators([1.0, 1j])
        with pytest.raises(ValueError):
            T.generators[0] = 5.0


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
        with pytest.raises(DuplicateFrequency):
            vandermonde_synthesize([0.1, 0.1], [1.0, 1.0], 3)
        with pytest.raises(LengthMismatch):
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
        assert min_eigenvalue(T) >= -1e-9 * T.generators[0].real


class TestSpectralDensity:
    def test_identity_is_flat(self):
        T = toeplitz_from_generators([1.0, 0.0, 0.0])
        for theta in (0.0, 0.123, 0.5, 0.999):
            assert spectral_density(T, theta) == pytest.approx(1.0)

    def test_single_source_peak(self):
        d, f = 8, 0.3
        T = vandermonde_synthesize([f], [1.0], d)
        assert spectral_density(T, f) == pytest.approx(2 * d - 1)

    def test_grid_max_dominates_norm(self, rng):
        gens = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        gens[0] = gens[0].real
        T = toeplitz_from_generators(gens)
        d = T.dim
        theta = np.arange(int(np.ceil(4 * np.pi * d * d))) / (4 * np.pi * d * d)
        grid_max = np.max(np.abs(spectral_density(T, theta)))
        # |L| bounds the norm for Hermitian (possibly indefinite) inputs
        assert grid_max >= np.linalg.norm(T.dense, 2) - 1e-6


class TestSpectralNormBound:
    def test_identity(self):
        T = toeplitz_from_generators([1.0] + [0.0] * 7)
        assert spectral_norm_bound(T) == pytest.approx(1.0)

    def test_grid_values_are_pointwise_densities(self, rng):
        from qtcov import spectral_density_grid
        gens = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        gens[0] = gens[0].real
        T = toeplitz_from_generators(gens)
        grid = spectral_density_grid(T, 32)
        assert grid.values.dtype == float and grid.values.shape == (32,)
        for j in (0, 5, 31):
            assert grid.values[j] == pytest.approx(spectral_density(T, j / 32))

    def test_single_source_d8(self):
        T = vandermonde_synthesize([0.3], [1.0], 8)
        bound = spectral_norm_bound(T)
        assert 14.9 <= bound <= 15.0 + 1e-9
        assert bound >= np.linalg.norm(T.dense, 2)

    def test_resolution_checked(self):
        T = toeplitz_from_generators([1.0, 0.5, 0.2, 0.1])
        with pytest.raises(ResolutionTooCoarse):
            spectral_norm_bound(T, resolution=7)

    @pytest.mark.parametrize("seed", range(100))
    def test_dominates_dense_norm_random_psd(self, seed):
        d = 2 + seed % 11
        T = random_toeplitz_covariance(d, seed)
        assert spectral_norm_bound(T) >= np.linalg.norm(T.dense, 2) - 1e-9


class TestAdjointProject:
    def test_identity_full_ruler(self):
        out = toeplitz_adjoint_project(np.eye(3), full_ruler(3))
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("indices", [[1, 2, 3, 4, 5], [1, 2, 3, 5], [1, 2, 4, 5]])
    def test_toeplitz_restriction_recovers_generators_exactly(self, rng, indices):
        gens = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        gens[0] = gens[0].real
        T = toeplitz_from_generators(gens)
        ruler = validate_ruler(indices, 5)
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
        with pytest.raises(SizeMismatch):
            toeplitz_adjoint_project(np.eye(3), full_ruler(4))

    def test_lag0_is_real(self, rng):
        from conftest import random_hermitian
        out = toeplitz_adjoint_project(random_hermitian(rng, 5), full_ruler(5))
        assert out[0].imag == 0.0


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(toeplitz_from_generators([1.0, 0, 0, 0])) == pytest.approx(1.0)

    def test_all_ones_is_singular(self):
        assert min_eigenvalue(toeplitz_from_generators([1.0, 1.0])) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_synthesized_nonnegative(self, seed):
        T = random_toeplitz_covariance(8, seed)
        assert min_eigenvalue(T) >= -1e-9 * T.generators[0].real
