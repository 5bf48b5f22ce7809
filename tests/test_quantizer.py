import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import redrawn_quantize
from qtcov import (HermitianToeplitz, QuantizationSpec, full_ruler, quantize_batch,
                   random_toeplitz_covariance, resolve_ruler, sample_complex_gaussian,
                   select_level_datadriven, select_level_tail_bound)
from qtcov.errors import EmptyBatch, QtcovError
from qtcov.quantizer import unit_dither
from qtcov.sampling import SampleBatch, load_batch, save_batch


def quantize(z, spec, unit=(0.0, 0.0)):
    """quantize_batch on the values z (any shape), held as the one column of a
    raw d = 1 full-ruler batch.  `unit` is the level-free dither pair, each
    part shaped like z or a scalar; the default zero pair adds no dither."""
    z = np.asarray(z, dtype=complex)
    raw = SampleBatch(full_ruler(1), z.reshape(-1, 1), 0)
    unit = [np.broadcast_to(s, z.shape).reshape(raw.data.shape) for s in unit]
    out = quantize_batch(raw, spec, unit=unit).data.reshape(z.shape)
    return out if out.ndim else out[()]


def uniform(x, delta):
    """The real part of quantizing x at level delta, with no dither."""
    return quantize(x, QuantizationSpec(delta, delta)).real


def kbit(x, delta, k):
    """The real part of quantizing x at level delta and depth k, with no dither."""
    return quantize(x, QuantizationSpec(delta, delta, k)).real


class TestUniform:
    def test_examples(self):
        assert uniform(0.3, 1.0) == 0.5
        assert uniform(-0.7, 0.5) == -0.75
        assert uniform(1.23, 0.0) == 1.23

    def test_nan_propagates(self):
        assert math.isnan(uniform(float("nan"), 1.0))

    def test_cell_boundary_floor_semantics(self):
        # exactly representable edges map up to the cell midpoint above
        assert uniform(2.0, 1.0) == 2.5
        assert uniform(-1.0, 0.5) == -0.75
        assert uniform(0.0, 0.25) == 0.125

    def test_error_bounded_by_half_step(self, rng):
        x = rng.standard_normal(10_000) * 5
        for delta in (0.1, 1.0, 3.7):
            err = np.abs(uniform(x, delta) - x)
            assert err.max() <= delta / 2 + 1e-12

    def test_rejects_subnormal_level(self):
        # x / level would overflow to [inf, -inf]
        with pytest.raises(QtcovError, match="1e-310 is subnormal"):
            uniform(np.array([1.0, -0.5]), 1e-310)

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_level(self, level):
        # an infinite level would give [inf, inf], a nan one [nan, nan]
        with pytest.raises(QtcovError, match=f"{level!r} is not finite"):
            uniform(np.array([1.0, -0.5]), level)

    def test_rejects_negative_level(self):
        # a negative level would silently give [0.5, -0.5]
        with pytest.raises(QtcovError, match="nonnegative"):
            uniform(np.array([1.0, -0.5]), -1.0)


class TestSpec:
    @pytest.mark.parametrize("pair", [(1e-310, 1.0), (1.0, 5e-324), (1e-310, 1e-310)])
    def test_rejects_subnormal_level(self, pair):
        # x / level overflows to inf for a subnormal level
        with pytest.raises(QtcovError, match="subnormal"):
            QuantizationSpec(*pair)
        with pytest.raises(QtcovError, match=repr(min(pair))):
            QuantizationSpec(*pair)

    @pytest.mark.parametrize("pair", [(np.nan, np.nan), (1.0, np.nan), (np.inf, 1.0),
                                      (-np.inf, 0.0)])
    def test_rejects_non_finite_level(self, pair):
        with pytest.raises(QtcovError, match="not finite"):
            QuantizationSpec(*pair)

    def test_rejects_non_finite_level_with_bits(self):
        with pytest.raises(QtcovError, match="inf is not finite"):
            QuantizationSpec(np.inf, np.inf, 2)

    def test_smallest_normal_level_is_accepted(self):
        tiny = np.finfo(float).tiny
        assert QuantizationSpec(tiny, 0.0).delta_r == tiny


class TestKBit:
    def test_interior(self):
        assert kbit(0.3, 1.0, 2) == 0.5

    def test_rejects_subnormal_level(self):
        with pytest.raises(QtcovError, match="1e-310 is subnormal"):
            kbit(np.array([1.0, -0.5]), 1e-310, 2)

    @pytest.mark.parametrize("level", [np.nan, np.inf])
    def test_rejects_non_finite_level(self, level):
        with pytest.raises(QtcovError, match="not finite"):
            kbit(np.array([1.0, -0.5]), level, 2)

    def test_clips(self):
        assert kbit(5.0, 1.0, 2) == 2.5
        assert kbit(-5.0, 1.0, 2) == -2.5
        assert kbit(1.0, 1.0, 2) == 2.5  # boundary belongs to the clip

    def test_level_near_tiny_clips_where_the_divide_overflows(self):
        # 5 / 2.3e-308 overflows; the k-bit path clips such values, the uniform path raises
        x, delta = np.array([5.0, -5.0, 0.0]), 2.3e-308
        with np.errstate(over="raise"):
            np.testing.assert_array_equal(kbit(x, delta, 2),
                                          [2.5 * delta, -2.5 * delta, 0.5 * delta])
            with pytest.raises(FloatingPointError, match="overflow"):
                uniform(x, delta)

    def test_matches_uniform_in_interior(self, rng):
        x = rng.uniform(-2.9, 2.9, 1000)
        for k in (3, 4):
            np.testing.assert_array_equal(kbit(x, 1.0, k), uniform(x, 1.0))

    def test_alphabet_size(self, rng):
        k, delta = 3, 0.5
        x = rng.standard_normal(200_000) * 4
        vals = np.unique(kbit(x, delta, k))
        assert vals.size <= 2 ** k
        codes = vals / delta - 0.5
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(QtcovError):
            kbit(1.0, 0.0, 2)
        with pytest.raises(QtcovError):
            kbit(1.0, 1.0, 0)


class TestDither:
    def test_zero_level(self):
        # a zero level applies no dither, whatever the drawn pair holds
        z = np.arange(1, 101) * (0.3 - 0.7j)
        np.testing.assert_array_equal(
            quantize(z, QuantizationSpec(0.0, 0.0), unit_dither((100,), 1)), z)

    def test_moments(self):
        # triangular dither at level 2 is 2 * (u0 + u1)
        for part in unit_dither((1_000_000,), 3):
            d = 2.0 * part
            assert abs(d.mean()) < 0.005
            assert d.var() == pytest.approx(4.0 / 6.0, rel=0.01)
            assert np.abs(d).max() <= 2.0

    def test_deterministic(self):
        assert list(map(bits_of, unit_dither((50,), 9))) == \
            list(map(bits_of, unit_dither((50,), 9)))


class TestComplexQuantization:
    def test_zero_level_identity(self):
        z = 0.37 - 1.2j
        assert quantize(z, QuantizationSpec(0.0, 0.0)) == z

    def test_componentwise(self):
        out = quantize(0.3 - 0.7j, QuantizationSpec(1.0, 0.5))
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
        assert quantize(10 + 10j, QuantizationSpec(1.0, 1.0, 2)) == 2.5 + 2.5j

    def test_2kbit_equals_unclipped_inside_box(self, rng):
        k, delta = 3, 1.0
        lim = (2 ** (k - 1) - 1) * delta
        z = rng.uniform(-lim * 0.99, lim * 0.99, 500) + 1j * rng.uniform(-lim * 0.99, lim * 0.99, 500)
        np.testing.assert_array_equal(quantize(z, QuantizationSpec(delta, delta, k)),
                                      quantize(z, QuantizationSpec(delta, delta)))


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
        T = HermitianToeplitz([0.0, 0.0])
        raw = sample_complex_gaussian(T, full_ruler(2), 50, 5)  # all zeros
        unit = unit_dither(raw.data.shape, 77)
        a = quantize_batch(raw, QuantizationSpec(1.0, 1.0), unit=unit).data
        b = quantize_batch(raw, QuantizationSpec(2.0, 2.0), unit=unit).data
        np.testing.assert_array_equal(uniform(a.real * 2, 2.0), b.real)


LEVELS = st.just(0.0) | st.floats(0.01, 4.0)  # zero, or far from subnormal


def bits_of(a):
    return np.asarray(a).tobytes()


class TestPreDrawnDither:
    """A unit pair drawn once reproduces the per-level dither bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rspec=st.sampled_from(("full", "alpha:0.5")),
           pair=st.tuples(LEVELS, LEVELS),
           bits=st.sampled_from((None, 1, 2, 3, 4)), datadriven=st.booleans())
    @example(seed=3, rspec="full", pair=(1.5, 0.5), bits=None, datadriven=False)
    @example(seed=4, rspec="alpha:0.5", pair=(0.0, 0.7), bits=None, datadriven=False)
    @example(seed=5, rspec="full", pair=(0.0, 0.0), bits=None, datadriven=False)
    @example(seed=6, rspec="alpha:0.5", pair=(1.0, 1.0), bits=2, datadriven=True)
    def test_shared_unit_pair_is_byte_identical(self, seed, rspec, pair, bits, datadriven):
        T = random_toeplitz_covariance(8, 21)
        raw = sample_complex_gaussian(T, resolve_ruler(rspec, 8), 40, seed)
        if datadriven:
            pair = (select_level_datadriven(raw),) * 2
        if bits is not None:
            level = pair[0] if pair[0] > 0 else 1.0  # finite bits need equal positive levels
            pair = (level, level)
        spec = QuantizationSpec(*pair, bits)
        own = quantize_batch(raw, spec).data
        shared = quantize_batch(raw, spec, unit=unit_dither(raw.data.shape, seed)).data
        assert bits_of(own) == bits_of(shared) == bits_of(redrawn_quantize(raw, spec, seed))

    def test_unit_pair_must_match_the_batch(self):
        raw = sample_complex_gaussian(random_toeplitz_covariance(4, 2), full_ruler(4), 10, 1)
        with pytest.raises(QtcovError):
            quantize_batch(raw, QuantizationSpec(1.0, 1.0), unit=unit_dither((10, 3), 1))


class TestSharedPlanes:
    """Specs that share a plane key give the bytes of their own fresh call
    when quantize_batch shares the quantized planes through a mapping."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rspec=st.sampled_from(("full", "alpha:0.5")),
           reals=st.lists(LEVELS, min_size=1, max_size=4, unique=True),
           imags=st.lists(LEVELS, min_size=1, max_size=4, unique=True),
           depths=st.lists(st.sampled_from((None, 1, 2, 3, 4)), min_size=1, max_size=3,
                           unique=True))
    @example(seed=7, rspec="full", reals=[0.5, 1.5], imags=[1.5, 0.5, 0.0],
             depths=[None, 2])
    @example(seed=8, rspec="alpha:0.5", reals=[0.0, 1.0], imags=[0.0], depths=[None])
    def test_shared_planes_are_byte_identical(self, seed, rspec, reals, imags, depths):
        T = random_toeplitz_covariance(8, 21)
        raw = sample_complex_gaussian(T, resolve_ruler(rspec, 8), 40, seed)
        unit = unit_dither(raw.data.shape, seed)
        specs = [QuantizationSpec(a, b) if k is None else QuantizationSpec(a, a, k)
                 for k in depths for a in reals for b in (imags if k is None else imags[:1])
                 if k is None or a > 0]
        planes = dict.fromkeys(key for spec in specs for key in spec.plane_keys)
        for spec in specs:
            shared = quantize_batch(raw, spec, unit=unit, planes=planes).data
            assert bits_of(shared) == bits_of(quantize_batch(raw, spec, unit=unit).data)
        assert all(not plane.flags.writeable for plane in planes.values())

    def test_a_negative_zero_level_keeps_its_own_plane(self):
        # -0.0 == 0.0, but they scale the dither to zeros of opposite sign,
        # which a -0.0 sample keeps; each level gets the bytes of its own call
        raw = SampleBatch(full_ruler(1), np.full((6, 1), complex(-0.0, 1.0)), 3)
        unit = unit_dither(raw.data.shape, 3)
        specs = [QuantizationSpec(-0.0, 1.0), QuantizationSpec(0.0, 1.0)]
        planes = dict.fromkeys(key for spec in specs for key in spec.plane_keys)
        assert len(planes) == 3
        fresh = [bits_of(quantize_batch(raw, spec, unit=unit).data) for spec in specs]
        assert fresh[0] != fresh[1]
        assert [bits_of(quantize_batch(raw, spec, unit=unit, planes=planes).data)
                for spec in specs] == fresh

    def test_only_reserved_keys_are_kept(self):
        raw = sample_complex_gaussian(random_toeplitz_covariance(4, 2), full_ruler(4), 30, 5)
        spec = QuantizationSpec(1.5, 0.5)
        _, imag_key = spec.plane_keys
        planes = {imag_key: None}
        quantize_batch(raw, spec, planes=planes)
        assert list(planes) == [imag_key] and planes[imag_key].shape == raw.data.shape


class TestPlaneKernel:
    """quantize_batch's in-place plane kernel gives the bits of the
    whole-array quantizers kept in tests/oracles.py, without and with a bit
    depth (its own dither draw is checked in TestPreDrawnDither)."""

    @staticmethod
    def assert_public_quantizers_match(z, delta, bits, unit):
        sr, si = unit
        for spec in (QuantizationSpec(delta, delta / 2), QuantizationSpec(delta, delta, bits)):
            tau = spec.delta_r * sr + 1j * spec.delta_i * si
            want = (oracles.quantize_complex(z, spec, tau) if spec.bits_k is None
                    else oracles.quantize_complex_2kbit(z, delta, bits, tau))
            assert bits_of(quantize(z, spec, unit)) == bits_of(want)
        assert bits_of(uniform(z.real, delta)) == \
            bits_of(oracles.quantize_uniform(z.real, delta))
        assert bits_of(kbit(z.imag, delta, bits)) == \
            bits_of(oracles.quantize_kbit(z.imag, delta, bits))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), delta=st.floats(0.05, 4.0),
           bits=st.sampled_from((1, 2, 3, 4)), scale=st.floats(0.1, 10.0))
    def test_public_quantizers_match_oracle(self, seed, delta, bits, scale):
        gen = np.random.default_rng(seed)
        z = scale * (gen.standard_normal(50) + 1j * gen.standard_normal(50))
        unit = gen.uniform(-1.0, 1.0, (2, 50))
        self.assert_public_quantizers_match(z, delta, bits, unit)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_clip_thresholds_match_oracle(self, bits):
        # half-integer multiples of the level, so values sit on the cell
        # edges and on both clip thresholds; the dither is a scalar zero
        z = 0.75 * (np.arange(-25, 25) + 1j * np.arange(25, -25, -1)) / 2
        self.assert_public_quantizers_match(z, 0.75, bits, (0.0, 0.0))

    @pytest.mark.parametrize("spec", [QuantizationSpec(1.5, 0.5), QuantizationSpec(0.0, 0.0),
                                      QuantizationSpec(2.0, 2.0, 2)])
    def test_inputs_are_not_written(self, spec):
        # on the full ruler the raw batch is the sampled block itself, as the
        # runner builds it; quantizing must leave it and the dither pair alone
        T = random_toeplitz_covariance(16, 8)
        block = sample_complex_gaussian(T, full_ruler(16), 300, 9).data
        raw = SampleBatch(full_ruler(16), full_ruler(16).columns(block), 9)
        assert raw.data is block
        unit = unit_dither(raw.data.shape, 9)
        before = [bits_of(a) for a in (raw.data, *unit)]
        quantize_batch(raw, spec, unit=unit)
        quantize_batch(raw, spec)
        assert [bits_of(a) for a in (raw.data, *unit)] == before

    def test_unit_pair_does_not_keep_the_draw_alive(self):
        # the four-array draw must not outlive unit_dither through views
        for plane in unit_dither((200, 9), 3):
            owner = plane if plane.base is None else plane.base
            assert owner.nbytes <= 2 * plane.nbytes

    @pytest.mark.parametrize("spec", [QuantizationSpec(1.5, 0.5), QuantizationSpec(2.0, 2.0, 2)])
    def test_peak_allocation(self, spec):
        # whole-array temporaries peaked at 4.05x the batch's bytes; the
        # kernel needs the output, one scratch plane and the clip masks
        T = random_toeplitz_covariance(16, 4)
        raw = sample_complex_gaussian(T, full_ruler(16), 10_000, 5)
        unit = unit_dither(raw.data.shape, 5)
        tracemalloc.start()
        try:
            quantize_batch(raw, spec, unit=unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * raw.data.nbytes


class TestLevelSelection:
    def test_tail_bound_unit_case(self):
        # n |Omega| = 1 and k = 2 leave sqrt(gamma0 delta'), delta' = log 10
        assert select_level_tail_bound(1.0 / math.log(10.0), 1, 1, 2) == pytest.approx(1.0)

    def test_extra_bit_halves_level(self):
        a = select_level_tail_bound(2.0, 100, 7, 3)
        b = select_level_tail_bound(2.0, 100, 7, 4)
        assert a == pytest.approx(2 * b)

    def test_gamma0_scaling(self):
        a = select_level_tail_bound(1.0, 100, 7, 2)
        b = select_level_tail_bound(2.0, 100, 7, 2)
        assert b == pytest.approx(np.sqrt(2) * a)

    def test_rejects_nonpositive_gamma0(self):
        with pytest.raises(QtcovError, match="gamma0 must be positive, got 0.0"):
            select_level_tail_bound(0.0, 100, 7, 2)

    def test_datadriven_examples(self):
        r = full_ruler(2)
        batch = SampleBatch(r, np.array([[3.0, -4.0j]]), 0)
        assert select_level_datadriven(batch) == 4.0
        zero = SampleBatch(r, np.zeros((1, 2)), 0)
        assert select_level_datadriven(zero) == 0.0
        with pytest.raises(EmptyBatch):  # no batch to select a level from
            SampleBatch(r, np.zeros((0, 2)), 0)

    def test_datadriven_rayleigh_range(self):
        T = HermitianToeplitz([1.0, 0.0])
        raw = sample_complex_gaussian(T, full_ruler(2), 5000, 123)  # n|Omega| = 1e4
        assert 2.5 <= select_level_datadriven(raw) <= 5.5


class TestNoiseMoments:
    def test_quantization_noise_power(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1_000_000)
        unit = unit_dither(x.shape, 81)
        for delta in (0.5, 1.0):
            xq = quantize(x, QuantizationSpec(delta, delta), unit).real
            assert np.mean((xq - x) ** 2) == pytest.approx(delta ** 2 / 4, rel=0.01)

    def test_unbiased_second_moment_rate(self):
        # |E[xq^2] - E[x^2] - Delta^2/4| shrinks like 1/sqrt(n)
        rng = np.random.default_rng(6)
        delta = 1.0
        errs = {}
        for n in (10_000, 1_000_000):
            x = rng.standard_normal(n)
            xq = quantize(x, QuantizationSpec(delta, delta), unit_dither((n,), 82)).real
            errs[n] = abs(np.mean(xq * xq) - np.mean(x * x) - delta ** 2 / 4)
            assert errs[n] < 5.0 / np.sqrt(n)


class TestCodes:
    def test_depth_63_clip_codes_roundtrip_through_a_batch_file(self, tmp_path):
        data = np.array([[1e19 - 1e19j, -1e19 + 0.3j, 0.2 - 2.6j]])
        raw = SampleBatch(full_ruler(3), data, 5)
        batch = quantize_batch(raw, QuantizationSpec(1.0, 1.0, 63))
        clip = 2.0 ** 62  # the codes 2^62 and -2^62 - 1, each plus 1/2
        assert batch.data[0, 0] == clip - 1j * clip and batch.data[0, 1].real == -clip
        save_batch(batch, tmp_path / "b.qtb")
        back = load_batch(tmp_path / "b.qtb")
        assert back.spec == batch.spec
        np.testing.assert_array_equal(back.data, batch.data)


class TestSpecValidation:
    @pytest.mark.parametrize("k", [64, 2000])
    def test_rejects_depth_above_63(self, k):
        with pytest.raises(QtcovError, match=f"bit depth {k} is outside 1..63"):
            QuantizationSpec(1.0, 1.0, k)

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
