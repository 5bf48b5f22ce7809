import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import redrawn_quantize
from qtcov import (QuantizationSpec, draw_triangular_dither, full_ruler,
                   parse_ruler_spec, quantize_batch, quantize_complex, quantize_complex_2kbit,
                   quantize_kbit, quantize_uniform, random_toeplitz_covariance,
                   sample_complex_gaussian, select_level_datadriven,
                   select_level_tail_bound, toeplitz_from_generators)
from qtcov.errors import EmptyBatch, NonPositiveGamma0, QtcovError
from qtcov.quantizer import codes_to_values, unit_dither, values_to_codes
from qtcov.sampling import SampleBatch


class TestUniform:
    def test_examples(self):
        assert quantize_uniform(0.3, 1.0) == 0.5
        assert quantize_uniform(-0.7, 0.5) == -0.75
        assert quantize_uniform(1.23, 0.0) == 1.23

    def test_nan_propagates(self):
        assert math.isnan(quantize_uniform(float("nan"), 1.0))

    def test_cell_boundary_floor_semantics(self):
        # exactly representable edges map up to the cell midpoint above
        assert quantize_uniform(2.0, 1.0) == 2.5
        assert quantize_uniform(-1.0, 0.5) == -0.75
        assert quantize_uniform(0.0, 0.25) == 0.125

    def test_error_bounded_by_half_step(self, rng):
        x = rng.standard_normal(10_000) * 5
        for delta in (0.1, 1.0, 3.7):
            err = np.abs(quantize_uniform(x, delta) - x)
            assert err.max() <= delta / 2 + 1e-12

    def test_rejects_subnormal_level(self):
        # x / level would overflow to [inf, -inf]
        with pytest.raises(QtcovError, match="1e-310 is subnormal"):
            quantize_uniform(np.array([1.0, -0.5]), 1e-310)

    def test_rejects_negative_level(self):
        # a negative level would silently give [0.5, -0.5]
        with pytest.raises(QtcovError, match="nonnegative"):
            quantize_uniform(np.array([1.0, -0.5]), -1.0)


class TestSpec:
    @pytest.mark.parametrize("pair", [(1e-310, 1.0), (1.0, 5e-324), (1e-310, 1e-310)])
    def test_rejects_subnormal_level(self, pair):
        # x / level overflows to inf for a subnormal level
        with pytest.raises(QtcovError, match="subnormal"):
            QuantizationSpec(*pair)
        with pytest.raises(QtcovError, match=repr(min(pair))):
            QuantizationSpec(*pair)

    def test_smallest_normal_level_is_accepted(self):
        tiny = np.finfo(float).tiny
        assert QuantizationSpec(tiny, 0.0).delta_r == tiny


class TestKBit:
    def test_interior(self):
        assert quantize_kbit(0.3, 1.0, 2) == 0.5

    def test_rejects_subnormal_level(self):
        with pytest.raises(QtcovError, match="1e-310 is subnormal"):
            quantize_kbit(np.array([1.0, -0.5]), 1e-310, 2)

    def test_clips(self):
        assert quantize_kbit(5.0, 1.0, 2) == 2.5
        assert quantize_kbit(-5.0, 1.0, 2) == -2.5
        assert quantize_kbit(1.0, 1.0, 2) == 2.5  # boundary belongs to the clip

    def test_matches_uniform_in_interior(self, rng):
        x = rng.uniform(-2.9, 2.9, 1000)
        for k in (3, 4):
            np.testing.assert_array_equal(quantize_kbit(x, 1.0, k), quantize_uniform(x, 1.0))

    def test_alphabet_size(self, rng):
        k, delta = 3, 0.5
        x = rng.standard_normal(200_000) * 4
        vals = np.unique(quantize_kbit(x, delta, k))
        assert vals.size <= 2 ** k
        codes = vals / delta - 0.5
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(QtcovError):
            quantize_kbit(1.0, 0.0, 2)
        with pytest.raises(QtcovError):
            quantize_kbit(1.0, 1.0, 0)


class TestDither:
    def test_zero_level(self):
        np.testing.assert_array_equal(draw_triangular_dither(0.0, 100, 1), np.zeros(100))

    def test_moments(self):
        d = draw_triangular_dither(2.0, 1_000_000, 3)
        assert abs(d.mean()) < 0.005
        assert d.var() == pytest.approx(4.0 / 6.0, rel=0.01)
        assert np.abs(d).max() <= 2.0

    def test_deterministic(self):
        np.testing.assert_array_equal(draw_triangular_dither(1.0, 50, 9),
                                      draw_triangular_dither(1.0, 50, 9))


class TestComplexQuantization:
    def test_zero_level_identity(self):
        z = 0.37 - 1.2j
        assert quantize_complex(z, QuantizationSpec(0.0, 0.0), 0.0) == z

    def test_componentwise(self):
        out = quantize_complex(0.3 - 0.7j, QuantizationSpec(1.0, 0.5), 0.0)
        assert out == 0.5 - 0.75j

    def test_second_moment_identity_mc(self):
        # E[zq_j zq_k^*] = E[z_j z_k^*] + ||Delta||^2/4 on the diagonal
        T = random_toeplitz_covariance(4, 14)
        n = 100_000
        raw = sample_complex_gaussian(T, full_ruler(4), n, 15)
        spec = QuantizationSpec(1.0, 1.0)
        zq = quantize_batch(raw, spec).data
        emp = zq.T @ zq.conj() / n
        resid = emp - T.dense - spec.lag0_bias * np.eye(4)
        assert np.max(np.abs(resid)) < 5.0 / np.sqrt(n) * (T.generators[0].real + 1)

    def test_2kbit_examples(self):
        assert quantize_complex_2kbit(10 + 10j, 1.0, 2, 0.0) == 2.5 + 2.5j

    def test_2kbit_equals_unclipped_inside_box(self, rng):
        k, delta = 3, 1.0
        lim = (2 ** (k - 1) - 1) * delta
        z = rng.uniform(-lim * 0.99, lim * 0.99, 500) + 1j * rng.uniform(-lim * 0.99, lim * 0.99, 500)
        spec = QuantizationSpec(delta, delta)
        np.testing.assert_array_equal(quantize_complex_2kbit(z, delta, k, 0.0),
                                      quantize_complex(z, spec, 0.0))


class TestBatchPipeline:
    def test_quantized_points_on_half_grid(self):
        T = random_toeplitz_covariance(4, 3)
        raw = sample_complex_gaussian(T, full_ruler(4), 200, 4)
        spec = QuantizationSpec(0.5, 0.25)
        zq = quantize_batch(raw, spec).data
        np.testing.assert_allclose((zq.real / 0.5 - 0.5) % 1.0, 0.0, atol=1e-9)
        np.testing.assert_allclose((zq.imag / 0.25 - 0.5) % 1.0, 0.0, atol=1e-9)

    def test_dither_replay_equality_across_quantizers(self):
        # same dither seed and level: the 2k-bit path agrees bit-for-bit with
        # the unclipped path whenever nothing clips
        T = random_toeplitz_covariance(4, 6)
        raw = sample_complex_gaussian(T, full_ruler(4), 100, 8)
        delta = float(np.max(np.abs(raw.data))) / (2 ** 5 - 2 * np.sqrt(2)) * 1.01
        inf_b = quantize_batch(raw, QuantizationSpec(delta, delta))
        fin_b = quantize_batch(raw, QuantizationSpec(delta, delta, 6))
        np.testing.assert_array_equal(inf_b.data, fin_b.data)

    def test_level_scales_common_dither_stream(self):
        # one seed, two levels: dither scales linearly, so outputs pair up
        T = toeplitz_from_generators([0.0, 0.0])
        raw = sample_complex_gaussian(T, full_ruler(2), 50, 5)  # all zeros
        a = quantize_batch(raw, QuantizationSpec(1.0, 1.0), dither_seed=77).data
        b = quantize_batch(raw, QuantizationSpec(2.0, 2.0), dither_seed=77).data
        np.testing.assert_array_equal(quantize_uniform(a.real * 2, 2.0), b.real)


LEVELS = st.just(0.0) | st.floats(0.01, 4.0)  # zero, or far from subnormal


class TestPreDrawnDither:
    """A unit pair drawn once reproduces the per-level dither bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rspec=st.sampled_from(("full", "alpha:0.5")),
           pair=st.tuples(LEVELS, LEVELS),
           bits=st.sampled_from((None, 1, 2, 3)), datadriven=st.booleans())
    @example(seed=3, rspec="full", pair=(1.5, 0.5), bits=None, datadriven=False)
    @example(seed=4, rspec="alpha:0.5", pair=(0.0, 0.7), bits=None, datadriven=False)
    @example(seed=5, rspec="full", pair=(0.0, 0.0), bits=None, datadriven=False)
    @example(seed=6, rspec="alpha:0.5", pair=(1.0, 1.0), bits=2, datadriven=True)
    def test_shared_unit_pair_is_byte_identical(self, seed, rspec, pair, bits, datadriven):
        T = random_toeplitz_covariance(8, 21)
        raw = sample_complex_gaussian(T, parse_ruler_spec(rspec, 8), 40, seed)
        if datadriven:
            pair = (select_level_datadriven(raw),) * 2
        if bits is not None:
            level = pair[0] if pair[0] > 0 else 1.0  # finite bits need equal positive levels
            pair = (level, level)
        spec = QuantizationSpec(*pair, bits)
        own = quantize_batch(raw, spec).data
        shared = quantize_batch(raw, spec, unit=unit_dither(raw.data.shape, seed)).data
        assert np.array_equal(own.view(np.uint8), shared.view(np.uint8))
        assert np.array_equal(own.view(np.uint8), redrawn_quantize(raw, spec, seed).view(np.uint8))

    def test_unit_pair_must_match_the_batch(self):
        raw = sample_complex_gaussian(random_toeplitz_covariance(4, 2), full_ruler(4), 10, 1)
        with pytest.raises(QtcovError):
            quantize_batch(raw, QuantizationSpec(1.0, 1.0), unit=unit_dither((10, 3), 1))


class TestLevelSelection:
    def test_tail_bound_unit_case(self):
        # log(n |Omega|) + delta' = 1 and k = 2 gives exactly sqrt(gamma0)
        assert select_level_tail_bound(1.0, 1, 1, 2, delta_prime=1.0) == pytest.approx(1.0)

    def test_extra_bit_halves_level(self):
        a = select_level_tail_bound(2.0, 100, 7, 3)
        b = select_level_tail_bound(2.0, 100, 7, 4)
        assert a == pytest.approx(2 * b)

    def test_gamma0_scaling(self):
        a = select_level_tail_bound(1.0, 100, 7, 2)
        b = select_level_tail_bound(2.0, 100, 7, 2)
        assert b == pytest.approx(np.sqrt(2) * a)

    def test_rejects_nonpositive_gamma0(self):
        with pytest.raises(NonPositiveGamma0):
            select_level_tail_bound(0.0, 100, 7, 2)

    def test_datadriven_examples(self):
        r = full_ruler(2)
        batch = SampleBatch(2, 1, r, np.array([[3.0, -4.0j]]), "raw", 0)
        assert select_level_datadriven(batch) == 4.0
        zero = SampleBatch(2, 1, r, np.zeros((1, 2)), "raw", 0)
        assert select_level_datadriven(zero) == 0.0
        empty = SampleBatch(2, 0, r, np.zeros((0, 2)), "raw", 0)
        with pytest.raises(EmptyBatch):
            select_level_datadriven(empty)

    def test_datadriven_rayleigh_range(self):
        T = toeplitz_from_generators([1.0, 0.0])
        raw = sample_complex_gaussian(T, full_ruler(2), 5000, 123)  # n|Omega| = 1e4
        assert 2.5 <= select_level_datadriven(raw) <= 5.5


class TestNoiseMoments:
    def test_quantization_noise_power(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1_000_000)
        for delta in (0.5, 1.0):
            tau = draw_triangular_dither(delta, x.size, 81)
            xq = quantize_uniform(x + tau, delta)
            assert np.mean((xq - x) ** 2) == pytest.approx(delta ** 2 / 4, rel=0.01)

    def test_unbiased_second_moment_rate(self):
        # |E[xq^2] - E[x^2] - Delta^2/4| shrinks like 1/sqrt(n)
        rng = np.random.default_rng(6)
        delta = 1.0
        errs = {}
        for n in (10_000, 1_000_000):
            x = rng.standard_normal(n)
            tau = draw_triangular_dither(delta, n, 82)
            xq = quantize_uniform(x + tau, delta)
            errs[n] = abs(np.mean(xq * xq) - np.mean(x * x) - delta ** 2 / 4)
            assert errs[n] < 5.0 / np.sqrt(n)


class TestCodes:
    def test_roundtrip_bit_exact(self):
        T = random_toeplitz_covariance(3, 12)
        raw = sample_complex_gaussian(T, full_ruler(3), 64, 13)
        spec = QuantizationSpec(0.7, 0.7, 3)
        batch = quantize_batch(raw, spec)
        back = codes_to_values(values_to_codes(batch.data, spec), spec)
        np.testing.assert_array_equal(back, batch.data)

    def test_codes_require_bits(self):
        with pytest.raises(QtcovError):
            values_to_codes(np.zeros(3, complex), QuantizationSpec(1.0, 1.0))


class TestSpecValidation:
    def test_bits_require_equal_positive_levels(self):
        with pytest.raises(QtcovError):
            QuantizationSpec(1.0, 2.0, 2)
        with pytest.raises(QtcovError):
            QuantizationSpec(0.0, 0.0, 2)
        with pytest.raises(QtcovError):
            QuantizationSpec(-1.0, 1.0)

    def test_norm(self):
        spec = QuantizationSpec(3.0, 4.0)
        assert spec.norm_sq == 25.0
        assert spec.lag0_bias == 6.25
