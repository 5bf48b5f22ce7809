"""Triangular-dithered uniform quantization for complex data.

The scalar quantizer maps x to Delta * (floor(x / Delta) + 1/2); at Delta = 0
it is the identity.  Complex values are quantized componentwise with levels
(Delta_r, Delta_i) after adding a triangular dither (sum of two independent
uniforms on [-Delta/2, Delta/2] per part).  The finite-bit variant is the
same quantizer with a bit depth: it clips to k bits per real component.
Dither makes the quantized second moment an unbiased shift of the true one:
E[zq_j zq_k^*] = E[z_j z_k^*] plus (Delta_r^2 + Delta_i^2)/4 on the diagonal.

`quantize_batch` is the one quantizer: it scales a level-free dither pair
from `unit_dither` by the spec's levels and runs each real plane through one
in-place kernel, so a pair drawn once replays or shares the dither across
levels.  A real plane depends only on its part, level and bit depth, so specs
of one batch and pair can also share the quantized planes themselves.
"""

import math

import numpy as np

from . import rng
from .errors import QtcovError
from .sampling import SampleBatch

_TINY = np.finfo(float).tiny  # the smallest normal positive float
_DELTA_PRIME = math.log(10.0)  # tail_bound clips a batch with probability about e^-this


def _check_level(level):
    """Raise QtcovError unless `level` is zero or a normal positive float."""
    if not np.isfinite(level):  # nan passes every comparison below
        raise QtcovError(f"quantization level {float(level)!r} is not finite")
    if level < 0:
        raise QtcovError("quantization levels must be nonnegative")
    if 0 < level < _TINY:  # x / level would overflow
        raise QtcovError(f"quantization level {float(level)!r} is subnormal")


def _check_depth(k):
    """Raise QtcovError unless 1 <= k <= 63, the bit depths that a spec, a
    config and the command line accept; the float64 kernel takes any k."""
    if not 1 <= k <= 63:
        raise QtcovError(f"bit depth {k} is outside 1..63")


class QuantizationSpec:
    """Quantization levels (delta_r, delta_i) plus optional per-part bit depth.

    bits_k = None means the infinite-level quantizer; a finite bit depth
    requires equal positive levels on both parts.

    `plane_keys` holds the keys of the real and the imaginary plane that
    `quantize_batch` forms: (part, level, sign of the level, bit depth), part
    0 real and 1 imaginary.  Specs with equal keys give that plane the same
    bytes.  The sign is kept because -0.0 == 0.0, yet the two scale the
    dither to zeros of opposite sign, which a -0.0 sample keeps.
    """

    __slots__ = ("delta_r", "delta_i", "bits_k", "plane_keys")

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
        self.plane_keys = tuple((part, delta, math.copysign(1.0, delta), self.bits_k)
                                for part, delta in enumerate((self.delta_r, self.delta_i)))

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


def quantize_batch(batch, spec, unit=None, planes=None):
    """The quantized batch of a raw one (a batch without a spec): the same
    ruler and seed, new data, and `spec`.  The dither is applied and discarded.

    `unit` is a pair from `unit_dither(batch.data.shape, seed)`, drawn
    independently of the Gaussian sample stream; by default it is drawn from
    the batch seed.  It is scaled by the levels of `spec`, so a pair drawn
    once serves every level and replays the same dither.  Each real plane,
    delta_r * sr + Re z and then delta_i * si + Im z, is formed in one
    contiguous float64 plane, quantized there in place with its level and
    the spec's bit depth, and copied into the .real or .imag view of one new
    complex128 array; no complex temporary is made, and contiguous planes
    keep the ufuncs on their vector loops, which the stride-16 views would
    not.  Neither the batch nor the pair is written.  Estimators only ever
    see the returned quantized values.

    `planes` shares quantized planes between the specs of one batch and pair.
    It is a dict owned by the caller and holds the keys of `spec.plane_keys`
    that the caller wants kept: a key mapped to None is quantized and stored
    there read-only, and a stored plane is copied as it is, without
    quantizing again.  A plane whose key is absent is formed in a scratch
    plane and dropped.  The caller drops a key after its last use.
    """
    if batch.spec is not None:
        raise QtcovError("quantize_batch expects a raw batch")
    z = batch.data
    if unit is None:
        unit = unit_dither(z.shape, batch.seed)
    sr, si = unit
    if sr.shape != z.shape or si.shape != z.shape:
        raise QtcovError(f"dither shape {sr.shape} does not match the batch "
                         f"shape {z.shape}")
    data = np.empty(z.shape, np.complex128)
    scratch = None
    for plane, part, s, delta, key in zip((data.real, data.imag), (z.real, z.imag), (sr, si),
                                          (spec.delta_r, spec.delta_i), spec.plane_keys):
        x = planes.get(key) if planes else None
        if x is None:
            keep = planes is not None and key in planes
            x = np.empty(z.shape) if keep or scratch is None else scratch
            np.multiply(s, delta, out=x)
            x += part
            _quantize_plane(x, delta, spec.bits_k)
            if keep:
                x.flags.writeable = False
                planes[key] = x
            else:
                scratch = x
        plane[...] = x
    return SampleBatch(batch.ruler, data, batch.seed, spec)


def select_level_tail_bound(gamma0, n, ruler_size, k):
    """Delta = 2^(2-k) * sqrt(gamma0 * (log(n |Omega|) + delta')), delta' = log(10).

    Sizes the k-bit clip range against the Rayleigh tail of the largest of
    n |Omega| sample moduli, so clipping happens with probability at most about
    e^-delta' = 1/10 over the whole batch.
    """
    if gamma0 <= 0:
        raise QtcovError(f"gamma0 must be positive, got {gamma0}")
    if n * ruler_size < 1:
        raise QtcovError("need n * |ruler| >= 1")
    return 2.0 ** (2 - k) * math.sqrt(gamma0 * (math.log(n * ruler_size) + _DELTA_PRIME))


def select_level_datadriven(batch):
    """Max modulus over all entries of a raw batch (parameter-free level rule)."""
    return float(np.max(np.abs(batch.data)))

