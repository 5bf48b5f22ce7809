import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtcov
from oracles import (brute_force_frequency_mse, exact_circular_distance,
                     music_direct_derivatives, music_direct_estimate, music_direct_grid,
                     music_noise_subspace, wishart_rhat)
from qtcov import (DoaScene, HermitianToeplitz, circular_distance, estimate_frequencies,
                   frequency_mse, vandermonde_synthesize)
from qtcov import rng as qrng
from qtcov.doa import _grid_spectrum, _lag_coefficients, _pick_peaks
from qtcov.errors import QtcovError
from qtcov.harness import FIVE_SOURCE_SCENE

FIVE_SOURCE_FREQS = (0.08, 0.21, 0.37, 0.68, 0.81)
# eighths give duplicate and antipodal points and exact ties; the floats reach
# past [0, 1), which frequency_mse reduces modulo one
CIRCLE_POINTS = st.one_of(st.sampled_from([j / 8 for j in range(8)]),
                          st.floats(-2, 3, allow_nan=False))


def pseudo_spectrum(T, K, grid_size):
    """The MUSIC pseudo-spectrum 1 / ||E_n^H a(j / grid_size)||^2 that
    estimate_frequencies picks its peaks from."""
    return _grid_spectrum(_lag_coefficients(T, K, grid_size), grid_size)


def exact_scene_cov(freqs, d, noise=0.0):
    T = vandermonde_synthesize(freqs, (1.0,) * len(freqs), d)
    gens = T.generators.copy()
    gens[0] = gens[0].real + noise
    return HermitianToeplitz(gens)


class TestScene:
    def test_covariance_is_toeplitz_psd(self):
        scene = DoaScene(16, FIVE_SOURCE_FREQS, (1.0,) * 5, 0.1)
        R = scene.covariance()
        assert np.linalg.eigvalsh(R.dense)[0] >= 0.1 - 1e-9

    def test_snr_definition(self):
        scene = DoaScene(16, FIVE_SOURCE_FREQS, (1.0,) * 5, 0.1)
        assert scene.snr_db == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(QtcovError, match=re.escape("need 1 <= K < d sources")):
            DoaScene(4, (0.1, 0.2, 0.3, 0.4), (1, 1, 1, 1), 0.0)
        with pytest.raises(QtcovError, match="freqs and powers must have equal length"):
            DoaScene(8, (0.1, 0.2), (1.0,), 0.0)

    @pytest.mark.parametrize("freqs, powers, noise_var, message", [
        ((0.3, 2.3), (1.0, 1.0), 0.1, "frequencies"),
        ((-0.1, 0.3), (1.0, 1.0), 0.1, "frequencies"),
        ((0.3, 1.0), (1.0, 1.0), 0.1, "frequencies"),
        ((0.3, np.nan), (1.0, 1.0), 0.1, "frequencies"),
        ((0.1, 0.3), (1.0, -1.0), 0.1, "powers"),
        ((0.1, 0.3), (1.0, 0.0), 0.1, "powers"),
        ((0.1, 0.3), (1.0, np.nan), 0.1, "powers"),
        ((0.1, 0.3), (1.0, np.inf), 0.1, "powers"),
        ((0.1, 0.3), (1.0, 1.0), np.nan, "noise variance"),
        ((0.1, 0.3), (1.0, 1.0), np.inf, "noise variance"),
    ])
    def test_rejects_bad_source_or_noise(self, freqs, powers, noise_var, message):
        with pytest.raises(QtcovError, match=message):
            DoaScene(4, freqs, powers, noise_var)


class TestSpectrum:
    def test_single_source_peak_dominates(self):
        d, f, grid = 8, 0.3, 640  # f falls exactly on the grid
        T = exact_scene_cov([f], d)
        spec = pseudo_spectrum(T, 1, grid)
        peak = int(np.argmax(spec))
        assert abs(peak / grid - f) <= 1 / grid
        away = [spec[j] for j in range(grid) if min(abs(j - peak), grid - abs(j - peak)) >= 2]
        assert spec[peak] >= 1e3 * max(away)

    def test_isotropic_spectrum_is_flat(self):
        T = HermitianToeplitz([1.0, 0, 0, 0])
        spec = pseudo_spectrum(T, 1, 64)
        assert (spec.max() - spec.min()) / spec.mean() < 1e-9

    def test_five_source_scene_gives_five_peaks(self):
        T = exact_scene_cov(FIVE_SOURCE_FREQS, 16)
        grid = 4096
        spec = pseudo_spectrum(T, 5, grid)
        left, right = np.roll(spec, 1), np.roll(spec, -1)
        peaks = np.flatnonzero((spec > left) & (spec > right))
        top5 = np.sort(peaks[np.argsort(spec[peaks])[-5:]])
        np.testing.assert_allclose(top5 / grid, FIVE_SOURCE_FREQS, atol=2 / grid)

    def test_k_out_of_range(self):
        T = exact_scene_cov([0.3], 8)
        with pytest.raises(QtcovError, match=re.escape("need 1 <= K < d = 8, got K = 8")):
            pseudo_spectrum(T, 8, 512)
        with pytest.raises(QtcovError, match=re.escape("need 1 <= K < d = 8, got K = 0")):
            pseudo_spectrum(T, 0, 512)

    def test_grid_too_small(self):
        T = exact_scene_cov([0.3], 8)
        with pytest.raises(QtcovError):
            pseudo_spectrum(T, 1, 32)

    def test_accepts_dense_input(self):
        T = exact_scene_cov([0.3], 8)
        np.testing.assert_array_equal(pseudo_spectrum(T.dense, 1, 512),
                                      pseudo_spectrum(T, 1, 512))


class TestEstimateFrequencies:
    def test_single_source(self):
        T = exact_scene_cov([0.3], 8)
        resolved, freqs = estimate_frequencies(T, 1, 512)
        assert resolved
        assert abs(freqs[0] - 0.3) <= 1 / 512

    def test_five_source_scene(self):
        T = exact_scene_cov(FIVE_SOURCE_FREQS, 16)
        resolved, freqs = estimate_frequencies(T, 5, 4096)
        assert resolved
        np.testing.assert_allclose(freqs, FIVE_SOURCE_FREQS, atol=2 / 4096)

    def test_degenerate_is_flagged(self):
        T = HermitianToeplitz([1.0, 0, 0, 0])
        resolved, freqs = estimate_frequencies(T, 1, 64)
        assert not resolved
        assert freqs.shape == (1,)

    def test_scale_invariance_power_of_two(self):
        T = exact_scene_cov(FIVE_SOURCE_FREQS, 16, noise=0.05)
        _, base = estimate_frequencies(T, 5, 1024)
        for c in (0.25, 2.0, 1024.0):
            scaled = HermitianToeplitz(c * T.generators)
            _, freqs = estimate_frequencies(scaled, 5, 1024)
            np.testing.assert_array_equal(freqs, base)

    def test_isotropic_shift_invariance(self):
        T = exact_scene_cov(FIVE_SOURCE_FREQS, 16)
        _, base = estimate_frequencies(T, 5, 1024)
        shifted = exact_scene_cov(FIVE_SOURCE_FREQS, 16, noise=0.7)
        _, freqs = estimate_frequencies(shifted, 5, 1024)
        np.testing.assert_allclose(freqs, base, atol=1e-9)


def perturbed_scene(d, K, noise, scale, seed):
    """K random sources plus white noise, perturbed by scale times a random
    Wishart matrix of d to 4d complex samples (dense, not Toeplitz)."""
    rs = np.random.default_rng(seed)
    R = vandermonde_synthesize(rs.random(K), rs.uniform(0.1, 2.0, K), d).dense
    m = int(rs.integers(d, 4 * d + 1))
    return R + noise * np.eye(d) + scale * wishart_rhat(rs, d, m)


def nearest(freqs, others):
    """Index into `others` of each frequency's circular nearest neighbour and
    the largest of those distances."""
    dist = circular_distance(freqs[:, None], others[None, :])
    return dist.argmin(axis=1), dist.min(axis=1).max()


class TestAgainstDirectMusic:
    """The lag-polynomial MUSIC against the steering-matrix grid and scalar
    golden-section refinement it replaced (`oracles.music_direct_estimate`).

    The polynomial is accurate to a small multiple of eps * (d - K) absolute,
    not relative to D: where the grid D comes within about 1e-8 (d - K) of zero (a weak
    perturbation of a near-noiseless scene) its spectrum is off by more than
    1e-7 relative, 6e-6 at worst in 4000 draws with a 1e-2 Wishart term.  So
    the grid D must be within 1e-7 relative plus 4 d eps (d - K) absolute.
    The refined frequencies need no such margin: Newton on D' resolves them
    below the rounding level of D.
    """

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(4, 16), data=st.data(), grid=st.sampled_from(("8d", 512, 4096)),
           log_noise=st.floats(-6.0, np.log10(3.0)), log_scale=st.floats(-3.0, 0.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_direct_music(self, d, data, grid, log_noise, log_scale, seed):
        K = data.draw(st.integers(1, d - 1), label="K")
        G = 8 * d if grid == "8d" else grid
        T = perturbed_scene(d, K, 10 ** log_noise, 10 ** log_scale, seed)
        resolved0, chosen0, freqs0 = music_direct_estimate(T, K, G)
        En = music_noise_subspace(T, K)

        spectrum = pseudo_spectrum(T, K, G)
        resolved, chosen = _pick_peaks(spectrum, K)
        assert resolved == resolved0
        assert sorted(chosen) == sorted(chosen0)
        D_direct = 1.0 / music_direct_grid(En, G)
        D_grid = 1.0 / spectrum
        eps = np.finfo(float).eps
        assert np.all(np.abs(D_grid - D_direct) <= 1e-7 * D_direct + 4 * d * eps * (d - K))

        resolved, freqs = estimate_frequencies(T, K, G)
        assert resolved == resolved0
        match, gap = nearest(freqs, freqs0)
        assert gap <= 1e-6
        D_new = music_direct_derivatives(En, freqs)[0]
        D_old = music_direct_derivatives(En, freqs0[match])[0]
        assert np.all(D_new <= D_old + 1e-13 * (d - K))

    def test_exp5_quantized_estimates(self):
        scene = FIVE_SOURCE_SCENE
        spec = qtcov.QuantizationSpec(2.0, 2.0, 2)
        for rspec in ("full", "alpha:0.5"):
            ruler = qtcov.resolve_ruler(rspec, scene.d)
            for n in (1000, 10000):
                for t in range(3):
                    raw = qtcov.sample_complex_gaussian(scene.covariance(), ruler, n,
                                                        qrng.trial_seed(5, t))
                    est = qtcov.qtscm(qtcov.quantize_batch(raw, spec))
                    resolved0, _, freqs0 = music_direct_estimate(est, 5, 4096)
                    resolved, freqs = estimate_frequencies(est, 5, 4096)
                    assert resolved == resolved0
                    assert nearest(freqs, freqs0)[1] <= 1e-9


class TestPolynomialTraps:
    # D at the source is zero up to rounding: the polynomial gives about
    # +9e-16 at 0.3, exactly 0 at 1/16 and -2e-16 at 0.25
    @pytest.mark.parametrize("d, f, grid", [(8, 0.3, 640), (4, 0.0625, 32), (4, 0.25, 32)])
    def test_noiseless_source_on_the_grid(self, d, f, grid):
        T = exact_scene_cov([f], d)
        spec = pseudo_spectrum(T, 1, grid)
        assert np.all(np.isfinite(spec)) and np.all(spec > 0)
        resolved, freqs = estimate_frequencies(T, 1, grid)
        assert resolved
        assert circular_distance(freqs[0], f) <= 1e-12

    def test_coarse_grid_where_newton_from_the_grid_point_stalls(self):
        # found by a search of random coarse-grid scenes: the peak at grid
        # point 30 lies where D is concave, so Newton started there cannot
        # step, and the source at 0.92 is half a cell away
        scene = DoaScene(4, (0.01, 0.12, 0.92), (1.0, 1.0, 1.0), 0.1)
        T, G = scene.covariance(), 32
        resolved0, chosen0, freqs0 = music_direct_estimate(T, 3, G)
        assert 30 in chosen0
        assert music_direct_derivatives(music_noise_subspace(T, 3), 30 / G)[2][0] < 0
        resolved, freqs = estimate_frequencies(T, 3, G)
        assert resolved and resolved0
        np.testing.assert_allclose(freqs, scene.freqs, atol=1e-9)
        assert nearest(freqs, freqs0)[1] <= 1e-9


class TestSnrTrend:
    def test_mse_decreases_with_snr(self):
        # quantized pipeline end to end: higher SNR -> lower frequency MSE
        import qtcov
        from qtcov import rng as qrng
        freqs = FIVE_SOURCE_FREQS
        ruler = qtcov.make_ruler_alpha(16, 0.5)
        stats = []
        for snr_db in (0.0, 10.0, 20.0):
            noise_var = sum((1.0,) * 5) / (5 * 10 ** (snr_db / 10))
            scene = DoaScene(16, freqs, (1.0,) * 5, noise_var)
            assert scene.snr_db == pytest.approx(snr_db)
            R = scene.covariance()
            per = []
            for t in range(10):
                raw = qtcov.sample_complex_gaussian(R, ruler, 2000, qrng.trial_seed(17, t))
                qb = qtcov.quantize_batch(raw, qtcov.QuantizationSpec(2.0, 2.0, 2))
                _, est = estimate_frequencies(qtcov.qtscm(qb), 5, 2048)
                per.append(frequency_mse(est, freqs))
            stats.append((np.mean(per), np.std(per, ddof=1) / np.sqrt(len(per))))
        # monotone decrease within error bars; at high SNR the curve flattens
        # onto the quantization floor
        for (m_lo, se_lo), (m_hi, se_hi) in zip(stats, stats[1:]):
            assert m_hi < m_lo + 2 * np.hypot(se_lo, se_hi)
        assert stats[-1][0] < stats[0][0]


class TestFrequencyMse:
    def test_exact_match(self):
        assert frequency_mse([0.1, 0.5], [0.1, 0.5]) == 0.0

    def test_wraparound(self):
        assert frequency_mse([0.99], [0.01]) == pytest.approx(4e-4)

    def test_permutation_free(self):
        assert frequency_mse([0.1, 0.2], [0.2, 0.1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(QtcovError, match=re.escape(
                "need two nonempty 1-D sets of one length, got (1,) vs (2,)")):
            frequency_mse([0.1], [0.1, 0.2])

    def test_symmetric_and_bounded(self, rng):
        for _ in range(20):
            a = rng.uniform(0, 1, 4)
            b = rng.uniform(0, 1, 4)
            assert frequency_mse(a, b) == pytest.approx(frequency_mse(b, a))
            assert frequency_mse(a, b) <= 0.25

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda k: st.lists(
        st.tuples(CIRCLE_POINTS, CIRCLE_POINTS), min_size=k, max_size=k)))
    @example([(0.0, 0.125), (0.25, 0.375), (0.5, 0.625), (0.75, 0.875)])  # shifts tie
    @example([(0.1, 0.6), (0.1, 0.1), (0.6, 0.6)])  # duplicates and antipodes
    # two matchings tie exactly; a distance rounded after the wrap made one look cheaper
    @example([(0.0, 2.2250738585072014e-308), (0.125, 1.0), (1.5618742855042711e-15, 0.125)])
    # both tiny negative truths reduce to 1.0 mod 1; their circle order is the exact one
    @example([(-1.0, -3.649711180057782e-169), (-0.875, -0.875),
              (3.2815529240786152e-65, -3.2815529240786152e-65)])
    def test_matches_brute_force_matching(self, pairs):
        est, truth = (np.array(v) for v in zip(*pairs))
        best = brute_force_frequency_mse(est, truth)
        assert abs(frequency_mse(est, truth) - best) <= 1e-12 * best

    def test_rejects_empty_sets(self):
        with pytest.raises(QtcovError, match=re.escape(
                "need two nonempty 1-D sets of one length, got (0,) vs (0,)")):
            frequency_mse([], [])

    def test_circular_distance(self):
        assert circular_distance(0.9, 0.1) == pytest.approx(0.2)
        assert circular_distance(0.2, 0.4) == pytest.approx(0.2)

    def test_circular_distance_reduces_modulo_one(self):
        assert circular_distance(0.3, 2.3) == pytest.approx(0.0, abs=1e-12)
        assert circular_distance(1.25, 0.0) == pytest.approx(0.25)
        assert circular_distance(-0.9, 0.0) == pytest.approx(0.1)

    @given(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True))
    @example(0.5000000000000001, 6e-17)  # a - b rounds to 1/2, yet lies past it
    def test_circular_distance_unchanged_on_the_unit_interval(self, a, b):
        # correctly rounded everywhere; within half a turn these are the bits
        # of the plain difference
        assert circular_distance(a, b) == float(exact_circular_distance(a, b))
        if abs(Fraction(a) - Fraction(b)) <= Fraction(1, 2):
            assert circular_distance(a, b) == abs(a - b)
