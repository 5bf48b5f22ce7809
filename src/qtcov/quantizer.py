"""Triangular-dithered uniform quantization for complex data.

The scalar quantizer maps x to Delta * (floor(x / Delta) + 1/2); at Delta = 0
it is the identity.  Complex values are quantized componentwise with levels
(Delta_r, Delta_i) after adding a triangular dither (sum of two independent
uniforms on [-Delta/2, Delta/2] per part).  The finite-bit variant clips to
k bits per real component.  Dither makes the quantized second moment an
unbiased shift of the true one: E[zq_j zq_k^*] = E[z_j z_k^*] plus
(Delta_r^2 + Delta_i^2)/4 on the diagonal.

Every quantizer here runs through one kernel that quantizes a real plane in
place; complex data is built plane by plane, with no complex temporary.
"""

import math

import numpy as np

from . import rng
from .errors import EmptyBatch, NonPositiveGamma0, QtcovError
from .sampling import SampleBatch


def _check_level(level):
    """Raise QtcovError unless `level` is zero or a normal positive float."""
    if not np.isfinite(level):  # nan passes every comparison below
        raise QtcovError(f"quantization level {float(level)!r} is not finite")
    if level < 0:
        raise QtcovError("quantization levels must be nonnegative")
    if 0 < level < np.finfo(float).tiny:  # x / level would overflow
        raise QtcovError(f"quantization level {float(level)!r} is subnormal")


def _check_depth(k, error=QtcovError):
    """Raise `error` unless 1 <= k <= 63: a batch file stores the clip
    codes -2^(k-1) - 1 and 2^(k-1) as int64."""
    if not 1 <= k <= 63:
        raise error(f"bit depth {k} is outside 1..63")


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
            _check_depth(int(bits_k))
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


def _quantize_plane(x, delta, k):
    """Quantize the float64 array x in place, as delta * (floor(x / delta) + 1/2).

    delta = 0 leaves x unchanged.  With a bit depth k, values at or above
    (2^(k-1) - 1) * delta take code 2^(k-1) and values below the mirrored
    threshold take code -2^(k-1) - 1; both masks are taken before the divide,
    so a value whose x / delta overflows (it lies beyond a threshold) only
    gets its clip code.
    """
    if delta == 0:
        return
    if k is not None:
        half = 2 ** (k - 1)
        top = x >= (half - 1) * delta
        bottom = x < (1 - half) * delta
    with np.errstate(over=None if k is None else "ignore"):
        x /= delta
    np.floor(x, out=x)
    if k is not None:
        np.putmask(x, top, half)
        np.putmask(x, bottom, -half - 1)
    x += 0.5
    x *= delta


def _quantize_real(x, delta, k):
    out = np.array(x, dtype=float)
    _quantize_plane(out, delta, k)
    return out if out.ndim else float(out)


def _check_kbit(delta, k):
    if delta <= 0:
        raise QtcovError("finite-bit quantization requires delta > 0")
    _check_depth(k)
    _check_level(delta)


def quantize_uniform(x, delta):
    """Uniform mid-riser quantizer; delta = 0 passes x through unchanged."""
    _check_level(delta)
    return _quantize_real(x, delta, None)


def quantize_kbit(x, delta, k):
    """k-bit quantizer: uniform in the interior, clipped outside.

    Values at or above (2^(k-1) - 1) * delta map to (2^(k-1) + 1/2) * delta,
    values below the mirrored threshold map to the negative clip level.
    """
    _check_kbit(delta, k)
    return _quantize_real(x, delta, k)


def _quantize_parts(z, dither, scales, levels, k):
    """Q(z + dither) for complex z, written into one new complex128 array.

    Each real plane is formed as scale * dither part + z part in one
    contiguous float64 scratch plane, quantized there in place with its level
    and the bit depth k, and copied into the output's .real or .imag view;
    no complex temporary is made.  Contiguous planes keep the ufuncs on
    their vector loops, which the stride-16 views would not.
    """
    z = np.asarray(z)
    out = np.empty(np.broadcast_shapes(z.shape, *map(np.shape, dither)), np.complex128)
    x = np.empty(out.shape)
    for plane, part, tau, scale, delta in zip((out.real, out.imag), (z.real, z.imag),
                                              dither, scales, levels):
        np.multiply(tau, scale, out=x)
        x += part
        _quantize_plane(x, delta, k)
        plane[...] = x
    return out if out.ndim else out[()]


def quantize_complex(z, spec, dither):
    """Componentwise dithered quantization of complex data (infinite-level)."""
    levels = (spec.delta_r, spec.delta_i)
    return _quantize_parts(z, (np.real(dither), np.imag(dither)), (1.0, 1.0), levels, None)


def quantize_complex_2kbit(z, delta, k, dither):
    """Componentwise dithered 2k-bit quantization (k bits per real part)."""
    _check_kbit(delta, k)
    return _quantize_parts(z, (np.real(dither), np.imag(dither)), (1.0, 1.0), (delta, delta), k)


def draw_triangular_dither(delta, count, seed):
    """count i.i.d. draws of U(-delta/2, delta/2) + U(-delta/2, delta/2)."""
    if delta < 0:
        raise QtcovError("dither level must be nonnegative")
    u = rng.stream(seed, rng.DITHER).random((2, count)) - 0.5
    return delta * (u[0] + u[1])


def unit_dither(shape, seed):
    """Level-free dither sums (u0 + u1, u2 + u3) of four U(-1/2, 1/2) arrays.

    Scaled by (delta_r, delta_i) they are the real and imaginary triangular
    dither of a batch of that shape, so one draw serves every level.  The
    stream is read two arrays at a time into one reused buffer, which gives
    the values of a single (4,) + shape draw; the two sums are views of one
    (2,) + shape array, so nothing else stays alive.
    """
    gen = rng.stream(seed, rng.DITHER)
    u = np.empty((2,) + tuple(shape))
    sums = np.empty_like(u)
    for out in sums:
        gen.random(out=u)
        u -= 0.5
        np.add(u[0], u[1], out=out)
    return sums[0], sums[1]


def quantize_batch(batch, spec, dither_seed=None, unit=None):
    """Quantize a raw batch; the dither is applied and discarded.

    The dither is drawn internally from `dither_seed` (default: the batch
    seed), independent of the Gaussian sample stream, unless `unit`, a pair
    from `unit_dither(batch.data.shape, seed)`, is passed pre-drawn.  Either
    way it is scaled by the levels of `spec`, so a pair drawn once serves
    every level.  The planes delta_r * sr + Re z and delta_i * si + Im z are
    quantized one at a time and written into one new complex128 array, with
    the bits of `quantize_complex(batch.data, spec, delta_r * sr + 1j *
    delta_i * si)` (or its 2k-bit form) but for the sign of an exact zero
    input at a zero level.  Neither the batch nor the pair is written.
    Estimators only ever see the returned quantized values.
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
    levels = (spec.delta_r, spec.delta_i)
    data = _quantize_parts(batch.data, unit, levels, levels, spec.bits_k)
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
