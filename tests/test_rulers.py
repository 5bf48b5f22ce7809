import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtcov import (Ruler, coverage_coefficient, full_ruler, make_ruler_alpha,
                   resolve_ruler)
from qtcov.errors import MissingLag, QtcovError

OMEGA_A = [1, 2, 3, 4, 5, 6, 7, 8, 16]
OMEGA_B = [1, 2, 3, 5, 8, 11, 14, 15, 16]


class TestValidation:
    def test_reference_half_ruler_valid(self):
        r = Ruler([1, 2, 3, 4, 8, 12, 16], 16)
        assert r.size == 7

    def test_small_valid(self):
        assert Ruler([1, 2, 4], 4).size == 3

    def test_missing_lag_named(self):
        with pytest.raises(MissingLag) as exc:
            Ruler([1, 4], 4)
        assert exc.value.lag == 1

    def test_out_of_range(self):
        with pytest.raises(QtcovError,
                           match=re.escape("indices must lie in [1, 4], got [0, 1, 2]")):
            Ruler([0, 1, 2], 4)
        with pytest.raises(QtcovError,
                           match=re.escape("indices must lie in [1, 4], got [1, 2, 5]")):
            Ruler([1, 2, 5], 4)

    def test_duplicate(self):
        with pytest.raises(QtcovError, match=re.escape("duplicate indices in [1, 2, 2, 4]")):
            Ruler([1, 2, 2, 4], 4)

    def test_exhaustive_against_difference_enumeration(self):
        # every subset of {1..d} agrees with brute-force lag coverage
        for d in range(1, 9):
            for size in range(1, d + 1):
                for subset in itertools.combinations(range(1, d + 1), size):
                    diffs = {k - j for j in subset for k in subset if k >= j}
                    covers = diffs == set(range(d))
                    try:
                        Ruler(subset, d)
                        assert covers, subset
                    except MissingLag:
                        assert not covers, subset


class TestAlphaFamily:
    def test_alpha_one_is_full(self):
        assert make_ruler_alpha(16, 1.0) == full_ruler(16)

    def test_alpha_half_d16(self):
        assert make_ruler_alpha(16, 0.5).indices.tolist() == [1, 2, 3, 4, 8, 12, 16]

    def test_alpha_half_d9(self):
        assert make_ruler_alpha(9, 0.5).indices.tolist() == [1, 2, 3, 6, 9]

    @pytest.mark.parametrize("d", [2, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 25, 32, 36, 49, 64])
    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.9, 1.0])
    def test_construction_validates(self, d, alpha):
        try:
            r = make_ruler_alpha(d, alpha)
        except QtcovError as err:
            if "misses lag" not in str(err):
                raise
            pytest.skip("rounding broke coverage; reported, not patched")
        assert coverage_coefficient(r) > 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(QtcovError, match="need d >= 2"):
            make_ruler_alpha(1, 0.5)
        with pytest.raises(QtcovError, match=re.escape("alpha must lie in [1/2, 1], got 0.3")):
            make_ruler_alpha(16, 0.3)


@st.composite
def rulers(draw):
    """A random valid ruler: a random index set plus 1 + s for each lag s it misses."""
    d = draw(st.integers(1, 24))
    idx = set(draw(st.lists(st.integers(1, d), max_size=d))) | {1}
    covered = {k - j for j in idx for k in idx}
    idx |= {1 + s for s in range(d) if s not in covered}
    return Ruler(sorted(idx), d)


def lag_pairs(r, s):
    """The ruler's 1-based index pairs (j, k) with k - j = s, in table order."""
    sel = r.pair_lags == s
    return tuple(zip(r.indices[r.pair_rows[sel]].tolist(), r.indices[r.pair_cols[sel]].tolist()))


class TestLagPairs:
    """The pair tables that Ruler builds for qtscm and qspa."""

    def test_full_maximal_lag(self):
        assert lag_pairs(full_ruler(4), 3) == ((1, 4),)

    def test_full_lag_zero(self):
        assert lag_pairs(full_ruler(4), 0) == ((1, 1), (2, 2), (3, 3), (4, 4))

    def test_omega_b_lag_one(self):
        r = Ruler(OMEGA_B, 16)
        assert lag_pairs(r, 1) == ((1, 2), (2, 3), (14, 15), (15, 16))

    @pytest.mark.parametrize("indices,d", [(OMEGA_A, 16), (OMEGA_B, 16), ([1, 2, 4], 4)])
    def test_pairs_are_ordered(self, indices, d):
        r = Ruler(indices, d)
        for s in range(d):
            for j, k in lag_pairs(r, s):
                assert k - j == s and j <= k

    @given(rulers())
    def test_pair_tables(self, r):
        rows, cols, lags = r.pair_rows, r.pair_cols, r.pair_lags
        m = r.size
        assert lags.size == rows.size == cols.size == m * (m + 1) // 2
        # sorted by lag, then by row, with no pair repeated
        keys = list(zip(lags.tolist(), rows.tolist()))
        assert all(a < b for a, b in zip(keys, keys[1:]))
        np.testing.assert_array_equal(r.positions[cols] - r.positions[rows], lags)
        assert np.all(rows <= cols)
        np.testing.assert_array_equal(r.lag_sizes, np.bincount(lags, minlength=r.dim))
        np.testing.assert_array_equal(
            r.lag_starts, np.concatenate([[0], np.cumsum(r.lag_sizes)[:-1]]))


class TestCoverage:
    def test_omega_a(self):
        assert coverage_coefficient(Ruler(OMEGA_A, 16)) == pytest.approx(10.70, abs=0.01)

    def test_omega_b(self):
        assert coverage_coefficient(Ruler(OMEGA_B, 16)) == pytest.approx(7.11, abs=0.01)

    def test_full_d4(self):
        assert coverage_coefficient(full_ruler(4)) == pytest.approx(25 / 12)

    def test_full_is_harmonic_number(self):
        h16 = sum(1.0 / k for k in range(1, 17))
        assert coverage_coefficient(full_ruler(16)) == pytest.approx(h16, rel=1e-12)
        assert h16 == pytest.approx(3.3807, abs=5e-4)

    def test_half_ruler_scaling(self):
        # phi(Omega_1/2) grows like d: the ratio stays bounded over square sizes
        ratios = [coverage_coefficient(make_ruler_alpha(d, 0.5)) / d
                  for d in (4, 9, 16, 25)]
        assert max(ratios) < 1.5
        assert min(ratios) > 0.3


class TestColumns:
    def test_full_ruler_returns_the_block(self):
        block = np.arange(12.0).reshape(3, 4)
        assert full_ruler(4).columns(block) is block

    def test_sparse_ruler_copies_its_columns(self):
        block = np.arange(12.0).reshape(3, 4)
        cols = Ruler([1, 2, 4], 4).columns(block)
        np.testing.assert_array_equal(cols, block[:, [0, 1, 3]])
        assert not np.shares_memory(cols, block)


class TestSerialization:
    def test_string_roundtrip(self):
        r = Ruler(OMEGA_B, 16)
        assert resolve_ruler(r.to_string(), 16) == r

    def test_each_ruler_is_built_once(self):
        # a Ruler is immutable, so a repeated request returns the same object
        assert full_ruler(7) is full_ruler(7)
        assert resolve_ruler("alpha:0.5", 16) is resolve_ruler("alpha:0.5", 16)
        assert resolve_ruler("full", 7) is full_ruler(7)
        with pytest.raises(ValueError):
            full_ruler(7).indices[0] = 2

    def test_parse_named_specs(self):
        assert resolve_ruler("full", 5) == full_ruler(5)
        assert resolve_ruler("alpha:0.5", 16) == make_ruler_alpha(16, 0.5)
        assert resolve_ruler("1,2,4", 4) == Ruler([1, 2, 4], 4)
        assert resolve_ruler("A", 16) == Ruler(OMEGA_A, 16)
        assert resolve_ruler(" b ", 16) == Ruler(OMEGA_B, 16)  # any case, padded
