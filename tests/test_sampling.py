import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complex_gaussian_draw
from qtcov import (HermitianToeplitz, QuantizationSpec, Ruler, SampleBatch, full_ruler,
                   load_batch, quantize_batch, random_toeplitz_covariance, resolve_ruler,
                   sample_complex_gaussian, save_batch)
from qtcov.errors import QtcovError


class TestRandomCovariance:
    def test_scalar_positive(self):
        T = random_toeplitz_covariance(1, 5)
        assert T.generators[0].real > 0

    def test_deterministic(self):
        a = random_toeplitz_covariance(6, 11)
        b = random_toeplitz_covariance(6, 11)
        np.testing.assert_array_equal(a.generators, b.generators)

    def test_eigenvalue_sweep(self):
        for seed in range(1000):
            T = random_toeplitz_covariance(8, seed)
            assert np.linalg.eigvalsh(T.dense)[0] >= -1e-9 * T.generators[0].real


class TestComplexGaussian:
    def test_identity_covariance_mc(self):
        T = HermitianToeplitz([1.0, 0.0])
        b = sample_complex_gaussian(T, full_ruler(2), 100_000, 7)
        emp = b.data.T @ b.data.conj() / b.count
        assert np.linalg.norm(emp - np.eye(2), 2) < 0.03

    def test_zero_covariance(self):
        T = HermitianToeplitz([0.0, 0.0, 0.0])
        b = sample_complex_gaussian(T, full_ruler(3), 100, 3)
        assert np.all(b.data == 0)

    def test_mean_is_zero(self):
        T = random_toeplitz_covariance(4, 2)
        b = sample_complex_gaussian(T, full_ruler(4), 100_000, 5)
        gamma0 = T.generators[0].real
        assert np.max(np.abs(b.data.mean(axis=0))) < 0.02 * np.sqrt(gamma0)

    def test_pseudo_covariance_vanishes(self):
        T = random_toeplitz_covariance(4, 9)
        n = 50_000
        b = sample_complex_gaussian(T, full_ruler(4), n, 13)
        pseudo = b.data.T @ b.data / n  # plain transpose, no conjugate
        gamma0 = T.generators[0].real
        assert np.linalg.norm(pseudo, 2) <= 5 * np.sqrt(4 / n) * gamma0

    def test_real_part_variance(self):
        T = random_toeplitz_covariance(3, 21)
        b = sample_complex_gaussian(T, full_ruler(3), 100_000, 23)
        gamma0 = T.generators[0].real
        np.testing.assert_allclose(b.data.real.var(axis=0), gamma0 / 2, rtol=0.05)

    def test_bitwise_deterministic(self):
        T = random_toeplitz_covariance(5, 1)
        a = sample_complex_gaussian(T, full_ruler(5), 64, 99)
        b = sample_complex_gaussian(T, full_ruler(5), 64, 99)
        np.testing.assert_array_equal(a.data, b.data)

    def test_sparse_ruler_is_column_restriction(self):
        T = random_toeplitz_covariance(6, 4)
        ruler = Ruler([1, 2, 4, 6], 6)
        full = sample_complex_gaussian(T, full_ruler(6), 50, 17)
        sparse = sample_complex_gaussian(T, ruler, 50, 17)
        np.testing.assert_array_equal(sparse.data, full.data[:, ruler.positions])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 12), n=st.integers(1, 40),
           rspec=st.sampled_from(("full", "alpha:0.5")))
    def test_matches_oracle_bytes(self, seed, d, n, rspec):
        # two (n, d) draws scaled into w.real and w.imag give the bits of two
        # (n, d) draws joined by a + 1j*b, also when z and w are written into
        # buffers that hold another draw's values
        T = random_toeplitz_covariance(d, seed % 97)
        ruler = resolve_ruler(rspec, d)
        batch = sample_complex_gaussian(T, ruler, n, seed)
        assert batch.data.tobytes() == complex_gaussian_draw(T, ruler, n, seed).tobytes()
        out, scratch = np.full((2, n, d), complex(np.nan, np.inf))
        full = sample_complex_gaussian(T, full_ruler(d), n, seed, out=out, scratch=scratch)
        assert full.data is out
        assert batch.data.tobytes() == full.data[:, ruler.positions].tobytes()
        again = sample_complex_gaussian(T, ruler, n, seed, out=out, scratch=scratch)
        assert again.data.tobytes() == batch.data.tobytes()

    def test_peak_allocation(self):
        # the normals, the complex w and z = w F^T; the full-ruler batch is z
        # itself (two normal draws, their complex join and a copy of z's
        # columns peaked at 3x)
        T = random_toeplitz_covariance(16, 6)
        tracemalloc.start()
        try:
            batch = sample_complex_gaussian(T, full_ruler(16), 10_000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * batch.data.nbytes

    def test_rejects_indefinite(self):
        T = HermitianToeplitz([1.0, 2.0])  # eigenvalues -1 and 3
        with pytest.raises(QtcovError, match=r"covariance has eigenvalue \S+ < -1e-6 \* gamma_0"):
            sample_complex_gaussian(T, full_ruler(2), 10, 0)


class TestSampleBatch:
    RULER = Ruler([1, 2, 3, 5], 5)

    def test_dim_is_the_ruler_dimension(self):
        assert SampleBatch(self.RULER, np.zeros((7, 4)), 3).dim == 5

    def test_count_is_the_number_of_rows(self):
        assert SampleBatch(self.RULER, np.zeros((7, 4)), 3).count == 7

    def test_stage_follows_the_spec(self):
        raw = SampleBatch(self.RULER, np.zeros((7, 4)), 3)
        quantized = quantize_batch(raw, QuantizationSpec(1.0, 1.0))
        assert (raw.stage, quantized.stage) == ("raw", "quantized")
        assert SampleBatch(self.RULER, raw.data, 3, QuantizationSpec(0, 0)).stage == "quantized"

    def test_derived_fields_cannot_be_set(self):
        batch = SampleBatch(self.RULER, np.zeros((7, 4)), 3)
        for name in ("dim", "count", "stage"):
            with pytest.raises(AttributeError):
                setattr(batch, name, 1)

    @pytest.mark.parametrize("shape", [(7, 3), (7, 5), (4,), (2, 7, 4)])
    def test_data_must_be_rows_on_the_ruler(self, shape):
        with pytest.raises(QtcovError, match="does not match"):
            SampleBatch(self.RULER, np.zeros(shape), 3)

    def test_empty_batch_cannot_be_built(self):
        with pytest.raises(QtcovError, match="batch has no samples"):
            SampleBatch(self.RULER, np.zeros((0, 4)), 3)


class TestBatchSerialization:
    @pytest.mark.parametrize("bits", [None, 2, 4])
    def test_roundtrip(self, tmp_path, bits):
        T = random_toeplitz_covariance(5, 8)
        ruler = Ruler([1, 2, 3, 5], 5)
        raw = sample_complex_gaussian(T, ruler, 20, 31)
        spec = QuantizationSpec(0.75, 0.75, bits) if bits else QuantizationSpec(0.75, 0.5)
        batch = quantize_batch(raw, spec)
        path = tmp_path / "batch.qtb"
        save_batch(batch, path)
        back = load_batch(path)
        np.testing.assert_array_equal(back.data, batch.data)
        assert back.spec == batch.spec
        assert back.ruler == batch.ruler
        assert (back.dim, back.count, back.stage, back.seed) == \
               (batch.dim, batch.count, batch.stage, batch.seed)

    def test_raw_roundtrip(self, tmp_path):
        T = random_toeplitz_covariance(3, 2)
        raw = sample_complex_gaussian(T, full_ruler(3), 10, 5)
        path = tmp_path / "raw.qtb"
        save_batch(raw, path)
        back = load_batch(path)
        np.testing.assert_array_equal(back.data, raw.data)
        assert back.stage == "raw" and back.spec is None

    def test_kbit_values_past_2_53_levels_roundtrip_bit_exact(self, tmp_path):
        # at k = 60 and Delta = 1e-17 the level indices reach 2^59, where
        # float64 no longer holds every integer: the file keeps the values
        T = random_toeplitz_covariance(8, 4)
        raw = sample_complex_gaussian(T, full_ruler(8), 100, 4)
        batch = quantize_batch(raw, QuantizationSpec(1e-17, 1e-17, 60))
        assert np.max(np.abs(batch.data.real)) / 1e-17 > 2.0 ** 53
        save_batch(batch, tmp_path / "b.qtb")
        back = load_batch(tmp_path / "b.qtb")
        assert back.data.tobytes() == batch.data.tobytes()
        assert back.spec == batch.spec


def _simulated_batch(d, n, bits, delta, seed, quantized=True):
    T = random_toeplitz_covariance(d, seed)
    raw = sample_complex_gaussian(T, full_ruler(d), n, seed)
    if not quantized:
        return raw
    spec = QuantizationSpec(delta, delta, bits) if bits else QuantizationSpec(delta, 0.5 * delta)
    return quantize_batch(raw, spec)


def _saved_blob(batch):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.qtb")
        save_batch(batch, path)
        with open(path, "rb") as fh:
            return fh.read()


def _load_blob(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.qtb")
        with open(path, "wb") as fh:
            fh.write(blob)
        return load_batch(path)


batches = st.builds(_simulated_batch, d=st.integers(1, 6), n=st.integers(1, 12),
                    bits=st.sampled_from([None, 1, 2, 5]),
                    delta=st.floats(0.05, 4.0), seed=st.integers(0, 2**32),
                    quantized=st.booleans())


class TestBatchFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(batches)
    def test_roundtrip_is_bit_exact(self, batch):
        back = _load_blob(_saved_blob(batch))
        assert back.data.tobytes() == batch.data.tobytes()
        assert back.spec == batch.spec and back.ruler == batch.ruler
        assert (back.dim, back.count, back.stage, back.seed) == \
               (batch.dim, batch.count, batch.stage, batch.seed)

    @settings(max_examples=60, deadline=None)
    @given(batches, st.data())
    def test_truncated_file_raises_typed_error(self, batch, data):
        blob = _saved_blob(batch)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(QtcovError):
            _load_blob(blob[:cut])

    @settings(max_examples=150, deadline=None)
    @given(batches, st.data())
    def test_fuzzed_file_raises_only_typed_errors(self, batch, data):
        blob = bytearray(_saved_blob(batch))
        header_end = blob.index(b"\n\n") + 2
        for _ in range(data.draw(st.integers(1, 4))):
            pos = data.draw(st.integers(0, header_end - 1))
            blob[pos] = data.draw(st.integers(0, 255))
        try:
            _load_blob(bytes(blob))
        except QtcovError:
            pass

    def test_cut_payload_is_batch_format_error(self):
        blob = _saved_blob(_simulated_batch(16, 100, None, 1.0, 3))
        with pytest.raises(QtcovError, match=r"payload of \d+ bytes in .* does not hold n=100 "):
            _load_blob(blob[:700])

    def test_huge_dimension_fails_before_allocating(self):
        blob = _saved_blob(_simulated_batch(1, 3, None, 1.0, 3))
        blob = blob.replace(b"d=1\n", b"d=1000000000000\n", 1)
        with pytest.raises(QtcovError, match="lag 1 is not covered"):
            _load_blob(blob)

    @pytest.mark.parametrize("quantized, written, swapped", [
        (False, b"stage=raw\n", b"stage=quantized\n"),
        (True, b"stage=quantized\n", b"stage=raw\n"),
    ], ids=["raw", "quantized"])
    def test_stage_that_disagrees_with_the_levels_is_batch_format_error(
            self, quantized, written, swapped):
        # save_batch writes "quantized" exactly when it writes levels
        blob = _saved_blob(_simulated_batch(4, 10, None, 1.0, 3, quantized))
        assert written in blob
        with pytest.raises(QtcovError, match=r"stage '\w+' in .* does not fit its levels"):
            _load_blob(blob.replace(written, swapped, 1))

    def test_zero_samples_is_batch_format_error(self):
        blob = _saved_blob(_simulated_batch(4, 1, 2, 1.0, 3))
        head = blob.split(b"\n\n", 1)[0].replace(b"\nn=1\n", b"\nn=0\n", 1)
        with pytest.raises(QtcovError, match=r"n=0 in .*: a batch holds at least one sample"):
            _load_blob(head + b"\n\n")

    def test_codes_payload_is_batch_format_error(self):
        # older qtcov versions wrote k-bit batches as two int64 code planes
        blob = _saved_blob(_simulated_batch(4, 10, 2, 1.0, 3))
        blob = blob.replace(b"\npayload=complex128\n", b"\npayload=codes\n", 1)
        with pytest.raises(QtcovError, match=r"payload=codes in .*b\.qtb is not read"):
            _load_blob(blob)

    @pytest.mark.parametrize("line", [b"delta_r=3.0", b"seed=5"])
    def test_field_set_twice_is_batch_format_error(self, line):
        # a second delta_r would set the level whose bias the estimators remove
        blob = _saved_blob(_simulated_batch(4, 10, None, 1.0, 3))
        blob = blob.replace(b"\npayload=", b"\n" + line + b"\npayload=", 1)
        key = line.split(b"=")[0].decode()
        with pytest.raises(QtcovError, match=rf"batch header in .*b\.qtb sets {key} twice$"):
            _load_blob(blob)

    def test_field_qtcov_does_not_write_is_batch_format_error(self):
        blob = _saved_blob(_simulated_batch(4, 10, 2, 1.0, 3))
        blob = blob.replace(b"\npayload=", b"\nbits=3\npayload=", 1)
        with pytest.raises(QtcovError, match=r"batch header in .*b\.qtb has field 'bits', "
                                             r"which qtcov does not write"):
            _load_blob(blob)

    def test_bit_depth_on_a_raw_batch_is_batch_format_error(self):
        blob = _saved_blob(_simulated_batch(4, 10, None, 1.0, 3, quantized=False))
        assert b"stage=raw\n" in blob and b"delta_r=" not in blob
        blob = blob.replace(b"\npayload=", b"\nbits_k=2\npayload=", 1)
        with pytest.raises(QtcovError, match=r"batch header in .*b\.qtb sets bits_k without "
                                             r"delta_r: a raw batch has no quantizer fields"):
            _load_blob(blob)

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, -np.inf)],
                             ids=["nan", "inf"])
    def test_non_finite_payload_is_batch_format_error(self, value):
        # estimators given a nan or inf value would print a nan row or a raw LinAlgError
        blob = _saved_blob(_simulated_batch(4, 10, None, 1.0, 3))
        head, payload = blob.split(b"\n\n", 1)
        payload = np.array([value], "<c16").tobytes() + payload[16:]
        with pytest.raises(QtcovError, match=r"payload of .*b\.qtb holds non-finite values"):
            _load_blob(head + b"\n\n" + payload)

    def test_save_refuses_a_non_finite_batch(self, tmp_path):
        batch = _simulated_batch(4, 10, None, 1.0, 3, quantized=False)
        batch.data[2, 1] = np.nan
        with pytest.raises(QtcovError, match="non-finite values"):
            save_batch(batch, tmp_path / "b.qtb")
        assert not (tmp_path / "b.qtb").exists()

    def test_missing_field_is_batch_format_error(self):
        blob = _saved_blob(_simulated_batch(4, 10, 2, 1.0, 3))
        head, payload = blob.split(b"\n\n", 1)
        head = b"\n".join(ln for ln in head.split(b"\n") if not ln.startswith(b"n="))
        with pytest.raises(QtcovError, match=r"batch header in .* lacks n$"):
            _load_blob(head + b"\n\n" + payload)
