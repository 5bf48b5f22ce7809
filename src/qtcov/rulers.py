"""Sparse observation index sets (rulers) and their coverage analysis.

A ruler is a subset of {1, ..., d} whose ordered pairwise differences cover
every lag 0..d-1, so each Toeplitz generator can be estimated from at least
one index pair.  Indices are 1-based throughout to match the usual array
listings; 0-based matrix positions are kept internally.  `resolve_ruler`
is the one parser of ruler specs: 'full', 'alpha:X', the study rulers 'A'
and 'B', or an index list.
"""

import numpy as np

from .errors import Duplicate, MissingLag, NotARuler, OutOfRange, QtcovError


class Ruler:
    """A validated ruler; construction fails unless every lag is covered.

    Exposes precomputed pair machinery used by the estimators: for all ordered
    pairs (j, k) with k - j = s >= 0, `pair_rows`/`pair_cols` hold the 0-based
    matrix positions of j and k, `pair_lags` the lag s, `lag_sizes[s]` the pair
    count |Omega_s|, and `lag_starts[s]` the offset of the first pair of lag s
    (pairs are sorted by lag, then by j).
    """

    __slots__ = ("dim", "indices", "pair_rows", "pair_cols", "pair_lags",
                 "lag_sizes", "lag_starts")

    def __init__(self, indices, dim):
        dim = int(dim)
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if dim < 1 or idx.size == 0:
            raise OutOfRange("ruler needs d >= 1 and at least one index")
        if np.unique(idx).size != idx.size:
            raise Duplicate(f"duplicate indices in {sorted(idx.tolist())}")
        idx = np.sort(idx)
        if idx[0] < 1 or idx[-1] > dim:
            raise OutOfRange(f"indices must lie in [1, {dim}], got {idx.tolist()}")

        jj, kk = np.meshgrid(idx, idx, indexing="ij")
        keep = kk >= jj
        lags = (kk - jj)[keep]
        pos = np.arange(idx.size)
        pj, pk = np.meshgrid(pos, pos, indexing="ij")
        rows, cols = pj[keep], pk[keep]
        order = np.lexsort((rows, lags))
        lags, rows, cols = lags[order], rows[order], cols[order]

        # first gap in the covered lags, found without a dim-sized array
        covered, sizes = np.unique(lags, return_counts=True)
        gaps = np.flatnonzero(covered != np.arange(covered.size))
        first_missing = gaps[0] if gaps.size else covered.size
        if first_missing < dim:
            raise MissingLag(first_missing, dim)

        self.dim = dim
        self.indices = idx
        self.pair_rows = rows
        self.pair_cols = cols
        self.pair_lags = lags
        self.lag_sizes = sizes
        self.lag_starts = np.searchsorted(lags, np.arange(dim))
        for name in self.__slots__[1:]:
            getattr(self, name).flags.writeable = False

    @property
    def size(self):
        return self.indices.size

    @property
    def positions(self):
        """0-based matrix positions of the observed indices."""
        return self.indices - 1

    def is_full(self):
        return self.size == self.dim

    def columns(self, block):
        """The observed columns of an (n, d) block: the block itself on the
        full ruler, else a copy of its ruler columns."""
        return block if self.is_full() else block[:, self.positions]

    def to_string(self):
        return ",".join(str(i) for i in self.indices)

    @classmethod
    def from_string(cls, text, dim):
        return cls([int(tok) for tok in text.split(",") if tok.strip()], dim)

    def __repr__(self):
        return f"Ruler(d={self.dim}, indices=[{self.to_string()}])"

    def __eq__(self, other):
        return (isinstance(other, Ruler) and self.dim == other.dim
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.dim, self.indices.tobytes()))


def coverage_coefficient(ruler):
    """phi(Omega) = sum_s 1/|Omega_s|; smaller means more redundant coverage."""
    return float(np.sum(1.0 / ruler.lag_sizes))


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def make_ruler_alpha(d, alpha):
    """The two-branch ruler of size ~d^alpha, alpha in [1/2, 1].

    Branch one is {1, ..., round(d^alpha)}; branch two steps down from d in
    strides of round(d^(1-alpha)).  Both exponents are rounded half-up
    independently; elements falling below 1 are dropped, and the union is
    validated (a rounding combination that breaks coverage raises NotARuler
    rather than being silently patched).  alpha = 1 yields the full ruler.
    """
    d = int(d)
    if d < 2:
        raise OutOfRange("need d >= 2")
    if not 0.5 <= alpha <= 1.0:
        raise OutOfRange(f"alpha must lie in [1/2, 1], got {alpha}")
    size1 = _round_half_up(d ** alpha)
    stride = _round_half_up(d ** (1.0 - alpha))
    part1 = set(range(1, size1 + 1))
    part2 = {d - i * stride for i in range(size1)}
    union = sorted(x for x in part1 | part2 if x >= 1)
    try:
        return Ruler(union, d)
    except MissingLag as err:
        raise NotARuler(
            f"rounded construction {union} for d={d}, alpha={alpha} "
            f"misses lag {err.lag}") from err


def full_ruler(d):
    """The complete index set {1, ..., d}."""
    return Ruler(np.arange(1, d + 1), d)


# the named rulers A and B of the d=16 comparison study, keyed in lower case
_NAMED_RULERS = {
    "a": (1, 2, 3, 4, 5, 6, 7, 8, 16),
    "b": (1, 2, 3, 5, 8, 11, 14, 15, 16),
}


def resolve_ruler(spec, d):
    """Ruler from a spec: 'full', 'alpha:X', a study ruler name 'A' or 'B', or
    a comma list of indices like '1,2,5'."""
    text = spec.strip().lower()
    if text == "full":
        return full_ruler(d)
    if text in _NAMED_RULERS:
        return Ruler(_NAMED_RULERS[text], d)
    try:
        if text.startswith("alpha:"):
            return make_ruler_alpha(d, float(text.split(":", 1)[1]))
        return Ruler.from_string(spec, d)
    except QtcovError:
        raise
    except ValueError:
        raise NotARuler(f"cannot parse ruler spec {spec!r}") from None
