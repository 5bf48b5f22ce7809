"""Triangular-dithered uniform quantization for complex data.

The scalar quantizer maps x to Delta * (floor(x / Delta) + 1/2); at Delta = 0
it is the identity.  Complex values are quantized componentwise with levels
(Delta_r, Delta_i) after adding a triangular dither (sum of two independent
uniforms on [-Delta/2, Delta/2] per part).  The finite-bit variant clips to
k bits per real component.  Dither makes the quantized second moment an
unbiased shift of the true one: E[zq_j zq_k^*] = E[z_j z_k^*] plus
(Delta_r^2 + Delta_i^2)/4 on the diagonal.
"""

import math

import numpy as np

from . import rng
from .errors import EmptyBatch, NonPositiveGamma0, QtcovError
from .sampling import SampleBatch


def _check_level(level):
    """Raise QtcovError unless `level` is zero or a normal positive float."""
    if level < 0:
        raise QtcovError("quantization levels must be nonnegative")
    if 0 < level < np.finfo(float).tiny:  # x / level would overflow
        raise QtcovError(f"quantization level {float(level)!r} is subnormal")


class QuantizationSpec:
    """Quantization levels (delta_r, delta_i) plus optional per-part bit depth.

    bits_k = None means the infinite-level quantizer; a finite bit depth
    requires equal positive levels on both parts.
    """

    __slots__ = ("delta_r", "delta_i", "bits_k")

    def __init__(self, delta_r, delta_i, bits_k=None):
        _check_level(delta_r)
        _check_level(delta_i)
        if bits_k is not None:
            if int(bits_k) < 1:
                raise QtcovError("bit depth must be >= 1")
            if delta_r != delta_i or delta_r <= 0:
                raise QtcovError("finite-bit quantization requires delta_r == delta_i > 0")
        self.delta_r = float(delta_r)
        self.delta_i = float(delta_i)
        self.bits_k = None if bits_k is None else int(bits_k)

    @property
    def norm_sq(self):
        """||Delta||^2 = delta_r^2 + delta_i^2."""
        return self.delta_r ** 2 + self.delta_i ** 2

    @property
    def lag0_bias(self):
        """Additive diagonal bias ||Delta||^2 / 4 of the quantized covariance."""
        return self.norm_sq / 4.0

    def __repr__(self):
        bits = f", bits_k={self.bits_k}" if self.bits_k is not None else ""
        return f"QuantizationSpec({self.delta_r:g}, {self.delta_i:g}{bits})"

    def __eq__(self, other):
        return (isinstance(other, QuantizationSpec)
                and (self.delta_r, self.delta_i, self.bits_k)
                == (other.delta_r, other.delta_i, other.bits_k))


def quantize_uniform(x, delta):
    """Uniform mid-riser quantizer; delta = 0 passes x through unchanged."""
    _check_level(delta)
    if delta == 0:
        return x
    return delta * (np.floor(x / delta) + 0.5)


def quantize_kbit(x, delta, k):
    """k-bit quantizer: uniform in the interior, clipped outside.

    Values at or above (2^(k-1) - 1) * delta map to (2^(k-1) + 1/2) * delta,
    values below the mirrored threshold map to the negative clip level.
    """
    if delta <= 0:
        raise QtcovError("finite-bit quantization requires delta > 0")
    if k < 1:
        raise QtcovError("bit depth must be >= 1")
    half = 2 ** (k - 1)
    out = np.asarray(quantize_uniform(np.asarray(x, dtype=float), delta))
    out = np.where(np.asarray(x) >= (half - 1) * delta, (half + 0.5) * delta, out)
    out = np.where(np.asarray(x) < (1 - half) * delta, -(half + 0.5) * delta, out)
    return out if np.ndim(x) else float(out)


def quantize_complex(z, spec, dither):
    """Componentwise dithered quantization of complex data (infinite-level)."""
    zr = np.real(z) + np.real(dither)
    zi = np.imag(z) + np.imag(dither)
    return quantize_uniform(zr, spec.delta_r) + 1j * quantize_uniform(zi, spec.delta_i)


def quantize_complex_2kbit(z, delta, k, dither):
    """Componentwise dithered 2k-bit quantization (k bits per real part)."""
    zr = np.real(z) + np.real(dither)
    zi = np.imag(z) + np.imag(dither)
    return quantize_kbit(zr, delta, k) + 1j * quantize_kbit(zi, delta, k)


def draw_triangular_dither(delta, count, seed):
    """count i.i.d. draws of U(-delta/2, delta/2) + U(-delta/2, delta/2)."""
    if delta < 0:
        raise QtcovError("dither level must be nonnegative")
    u = rng.stream(seed, rng.DITHER).random((2, count)) - 0.5
    return delta * (u[0] + u[1])


def unit_dither(shape, seed):
    """Level-free dither sums (u0 + u1, u2 + u3) of four U(-1/2, 1/2) arrays.

    Scaled by (delta_r, delta_i) they are the real and imaginary triangular
    dither of a batch of that shape, so one draw serves every level.
    """
    u = rng.stream(seed, rng.DITHER).random((4,) + tuple(shape)) - 0.5
    return u[0] + u[1], u[2] + u[3]


def quantize_batch(batch, spec, dither_seed=None, unit=None):
    """Quantize a raw batch; the dither is applied and discarded.

    The dither is drawn internally from `dither_seed` (default: the batch
    seed), independent of the Gaussian sample stream, unless `unit`, a pair
    from `unit_dither(batch.data.shape, seed)`, is passed pre-drawn.  Either
    way it is scaled by the levels of `spec`, so a pair drawn once serves
    every level.  Estimators only ever see the returned quantized values.
    """
    if batch.stage != "raw":
        raise QtcovError("quantize_batch expects a raw batch")
    if unit is None:
        unit = unit_dither(batch.data.shape,
                           batch.seed if dither_seed is None else dither_seed)
    sr, si = unit
    if sr.shape != batch.data.shape or si.shape != batch.data.shape:
        raise QtcovError(f"dither shape {sr.shape} does not match the batch "
                         f"shape {batch.data.shape}")
    tau = spec.delta_r * sr + 1j * spec.delta_i * si
    if spec.bits_k is not None:
        data = quantize_complex_2kbit(batch.data, spec.delta_r, spec.bits_k, tau)
    else:
        data = quantize_complex(batch.data, spec, tau)
    return SampleBatch(batch.dim, batch.count, batch.ruler, data,
                       "quantized", batch.seed, spec)


def select_level_tail_bound(gamma0, n, ruler_size, k, delta_prime=math.log(10.0),
                            c_bit=1.0):
    """Delta = c_bit * 2^(2-k) * sqrt(gamma0 * (log(n |Omega|) + delta_prime)).

    Sizes the k-bit clip range against the Rayleigh tail of the largest of
    n |Omega| sample moduli, so clipping happens with probability at most about
    e^-delta_prime over the whole batch.  Defaults c_bit = 1 and
    delta_prime = log(10); both constants are free and can be overridden.
    """
    if gamma0 <= 0:
        raise NonPositiveGamma0(f"gamma0 must be positive, got {gamma0}")
    if n * ruler_size < 1:
        raise QtcovError("need n * |ruler| >= 1")
    if delta_prime < 0:
        raise QtcovError("delta_prime must be nonnegative")
    return c_bit * 2.0 ** (2 - k) * math.sqrt(gamma0 * (math.log(n * ruler_size) + delta_prime))


def select_level_datadriven(batch):
    """Max modulus over all entries of a raw batch (parameter-free level rule)."""
    if batch.data.size == 0:
        raise EmptyBatch("cannot select a level from an empty batch")
    return float(np.max(np.abs(batch.data)))


# --- integer code representation for finite-bit batches ----------------------

def values_to_codes(values, spec):
    """Integer codes (re, im) of finite-bit quantized values: v = Delta*(code + 1/2)."""
    if spec.bits_k is None:
        raise QtcovError("codes exist only for finite-bit quantization")
    delta = spec.delta_r
    re = np.rint(np.real(values) / delta - 0.5).astype(np.int64)
    im = np.rint(np.imag(values) / delta - 0.5).astype(np.int64)
    return re, im


def codes_to_values(codes, spec):
    """Inverse of values_to_codes (bit-exact for the quantizer's output set)."""
    if spec.bits_k is None:
        raise QtcovError("codes exist only for finite-bit quantization")
    delta = spec.delta_r
    re, im = codes
    return delta * (re + 0.5) + 1j * (delta * (im + 0.5))
