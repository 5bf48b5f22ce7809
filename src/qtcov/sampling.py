"""Ground-truth covariance synthesis, complex Gaussian sample generation and
the batch file format.

A `SampleBatch` is n >= 1 draws on a ruler with their seed, plus the
QuantizationSpec once they are quantized.  Samples are circularly
symmetric: z ~ CN(0, T) with E[z z^H] = T, vanishing pseudo-covariance
E[z z^T], and per-coordinate real/imaginary variance gamma_0 / 2 each.  All
draws are reproducible through the stream derivation in `qtcov.rng`.
"""

import numpy as np

from . import rng
from .errors import QtcovError
from .rulers import Ruler
from .toeplitz import vandermonde_synthesize

BATCH_FORMAT = "qtcov-batch 1"
_REQUIRED_FIELDS = ("d", "n", "ruler", "stage", "seed", "payload")
_SPEC_FIELDS = ("delta_r", "delta_i", "bits_k")  # written for a quantized batch only


class SampleBatch:
    """n >= 1 complex observation vectors restricted to a ruler.

    A batch is its ruler, its (n, |ruler|) data, the 64-bit seed it was
    derived from and, once quantized, the QuantizationSpec that produced it;
    `dim`, `count` and `stage` ("raw" without a spec, "quantized" with one)
    are read off those.
    """

    __slots__ = ("ruler", "data", "seed", "spec")

    def __init__(self, ruler, data, seed, spec=None):
        data = np.asarray(data, dtype=np.complex128)
        if data.ndim != 2 or data.shape[1] != ruler.size:
            raise QtcovError(
                f"data shape {data.shape} does not match (n, |ruler|={ruler.size})")
        if data.shape[0] == 0:
            raise QtcovError("batch has no samples")
        self.ruler = ruler
        self.data = data
        self.seed = int(seed)
        self.spec = spec

    @property
    def dim(self):
        return self.ruler.dim

    @property
    def count(self):
        return self.data.shape[0]

    @property
    def stage(self):
        return "raw" if self.spec is None else "quantized"

    def __repr__(self):
        return (f"SampleBatch(d={self.dim}, n={self.count}, |ruler|={self.ruler.size}, "
                f"stage={self.stage!r}, seed={self.seed})")


def random_toeplitz_covariance(d, seed):
    """Random PSD Toeplitz covariance from the Vandermonde construction.

    Draws d distinct uniform frequencies (redrawn if any two fall within 1e-6
    of each other) and d absolute standard-normal powers; deterministic in
    `seed`.
    """
    if d < 1:
        raise QtcovError("need d >= 1")
    gen = rng.stream(seed, rng.COVARIANCE)
    while True:
        freqs = gen.uniform(0.0, 1.0, size=d)
        if d == 1 or np.min(np.diff(np.sort(freqs))) >= 1e-6:
            break
    powers = np.abs(gen.standard_normal(d))
    return vandermonde_synthesize(freqs, powers, d)


def _psd_factor(T):
    """F with F F^H = T via Hermitian eigendecomposition, negatives clipped."""
    lam, vec = np.linalg.eigh(T.dense)
    gamma0 = T.generators[0].real
    if lam[0] < -1e-6 * max(gamma0, 1e-300):
        raise QtcovError(f"covariance has eigenvalue {lam[0]:g} < -1e-6 * gamma_0")
    return vec * np.sqrt(np.clip(lam, 0.0, None))


def sample_complex_gaussian(T, ruler, n, seed, out=None, scratch=None):
    """n i.i.d. draws from CN(0, T), restricted to the ruler indices.

    The underlying d-dimensional draw order is fixed, so for a common seed the
    batch on a sparse ruler is exactly the column restriction of the batch on
    the full ruler.  z = w F^T is written into `out` and the standard normals
    w into `scratch`, both (n, d) complex128 arrays, each allocated where it
    is omitted, so the peak is w plus z.  The normals are drawn as two (n, d)
    arrays, real parts first, each into the memory of z that the product
    later overwrites, and scaled by sqrt(1/2) into w.real and w.imag.  On the
    full ruler the batch holds z itself, on a sparse one a copy of its ruler
    columns.
    """
    if n < 1:
        raise QtcovError("need n >= 1")
    if ruler.dim != T.dim:
        raise QtcovError(f"ruler dimension {ruler.dim} != covariance dimension {T.dim}")
    F = _psd_factor(T)
    shape = (n, T.dim)
    z = np.empty(shape, np.complex128) if out is None else out
    w = np.empty(shape, np.complex128) if scratch is None else scratch
    normals = z.reshape(-1).view(np.float64)[:n * T.dim].reshape(shape)
    gen = rng.stream(seed, rng.GAUSS)
    for part in (w.real, w.imag):
        gen.standard_normal(out=normals)
        np.multiply(normals, np.sqrt(0.5), out=part)
    np.matmul(w, F.T, out=z)
    return SampleBatch(ruler, ruler.columns(z), seed)


# --- batch file format -------------------------------------------------------
#
# Text header (latin-1, key=value lines) terminated by a blank line, followed
# by the batch's values as raw little-endian complex128, whatever the stage:
# the quantizer's own output, so a batch comes back bit for bit.

def save_batch(batch, path):
    """Write a batch to `path`: its header, then its values as complex128."""
    if not np.isfinite(batch.data).all():
        raise QtcovError("batch holds non-finite values, which a batch file does not store")
    lines = [BATCH_FORMAT,
             f"d={batch.dim}",
             f"n={batch.count}",
             f"ruler={batch.ruler.to_string()}",
             f"stage={batch.stage}",
             f"seed={batch.seed}"]
    if batch.spec is not None:
        lines.append(f"delta_r={batch.spec.delta_r!r}")
        lines.append(f"delta_i={batch.spec.delta_i!r}")
        if batch.spec.bits_k is not None:
            lines.append(f"bits_k={batch.spec.bits_k}")
    lines.append("payload=complex128")
    header = "\n".join(lines) + "\n\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("latin-1"))
        fh.write(batch.data.astype("<c16").tobytes())


def load_batch(path):
    """Read a batch written by save_batch; a malformed file raises QtcovError."""
    from .quantizer import QuantizationSpec  # local import to avoid a cycle

    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, payload = blob.partition(b"\n\n")
    lines = head.decode("latin-1").splitlines()
    if not lines or lines[0] != BATCH_FORMAT:
        raise QtcovError(f"unrecognized batch format in {path}")
    try:
        fields = {}
        for line in lines[1:]:
            key, value = line.split("=", 1)
            if key in fields:
                raise QtcovError(f"batch header in {path} sets {key} twice")
            if key not in _REQUIRED_FIELDS + _SPEC_FIELDS:
                raise QtcovError(f"batch header in {path} has field {key!r}, "
                                 "which qtcov does not write")
            fields[key] = value
        missing = [key for key in _REQUIRED_FIELDS if key not in fields]
        if missing:
            raise QtcovError(f"batch header in {path} lacks {', '.join(missing)}")
        d, n, seed = int(fields["d"]), int(fields["n"]), int(fields["seed"])
        ruler = Ruler.from_string(fields["ruler"], d)
        spec = None
        if "delta_r" in fields:
            bits = int(fields["bits_k"]) if "bits_k" in fields else None
            spec = QuantizationSpec(float(fields["delta_r"]), float(fields["delta_i"]), bits)
        else:
            for key in _SPEC_FIELDS:
                if key in fields:
                    raise QtcovError(f"batch header in {path} sets {key} without delta_r: "
                                     "a raw batch has no quantizer fields")
    except QtcovError:
        raise
    except (ValueError, KeyError) as err:
        raise QtcovError(f"bad batch header in {path}: {err!r}") from None
    if fields["stage"] != ("raw" if spec is None else "quantized"):
        raise QtcovError(f"stage {fields['stage']!r} in {path} does not fit its levels")
    if n < 1:
        raise QtcovError(f"n={n} in {path}: a batch holds at least one sample")
    if fields["payload"] != "complex128":
        raise QtcovError(f"payload={fields['payload']} in {path} is not read: batch files "
                         "hold complex128 values (payload=codes files, from an older "
                         "qtcov, must be simulated again)")
    if len(payload) != 16 * n * ruler.size:
        raise QtcovError(f"payload of {len(payload)} bytes in {path} does not hold "
                         f"n={n} x |ruler|={ruler.size} entries")
    data = np.frombuffer(payload, dtype="<c16").reshape(n, ruler.size).copy()
    if not np.isfinite(data).all():
        raise QtcovError(f"payload of {path} holds non-finite values")
    return SampleBatch(ruler, data, seed, spec)
