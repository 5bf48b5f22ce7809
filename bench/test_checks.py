"""Checks of the checks: every output check accepts a right output and
rejects a wrong one.

    python3 -m pytest bench -q
"""

import math
import os
import sys

import numpy as np
import pytest

import checks
from checks import Cell, Stat

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

LEVELS = (0.5, 1.5, 2.5)


def level_cell(a, b):
    return Cell("qtscm", 4, 200, a, b, None, "full")


def level_table():
    """Symmetric map that grows with both levels, stderr 0.01 everywhere."""
    return {level_cell(a, b): Stat(0.1 + 0.01 * (a * a + b * b), 0.01)
            for a in LEVELS for b in LEVELS}


def quantize(x, delta):
    return delta * (np.floor(x / delta) + 0.5)


def lattice_draws(rng, n, m, dr, di, trials):
    return [quantize(rng.standard_normal((n, m)), dr)
            + 1j * quantize(rng.standard_normal((n, m)), di) for _ in range(trials)]


class TestLevelGrid:
    def check(self, table, recomputed=None):
        return checks.check_level_grid(table, list(level_table()), LEVELS, recomputed or {})

    def test_accepts_a_right_map(self):
        v = self.check(level_table())
        assert v.correct and not v.failed

    def test_rejects_a_nan_and_a_missing_cell(self):
        table = level_table()
        table[level_cell(0.5, 1.5)] = Stat(math.nan, 0.01)
        del table[level_cell(2.5, 0.5)]
        assert set(self.check(table).failed) == {level_cell(0.5, 1.5), level_cell(2.5, 0.5)}

    def test_rejects_a_map_that_does_not_grow_on_the_diagonal(self):
        table = level_table()
        table[level_cell(1.5, 1.5)], table[level_cell(2.5, 2.5)] = (
            table[level_cell(2.5, 2.5)], table[level_cell(1.5, 1.5)])
        assert not self.check(table).correct

    def test_rejects_a_flat_diagonal(self):
        table = level_table()
        for a in LEVELS:
            table[level_cell(a, a)] = Stat(0.2, 0.01)
        assert not self.check(table).correct

    def test_rejects_an_asymmetric_map(self):
        table = level_table()
        cell = level_cell(0.5, 2.5)
        table[cell] = Stat(table[cell].mean + 0.1, 0.01)
        assert not self.check(table).correct

    def test_recomputation_matches_qtcov(self):
        from qtcov import QuantizationSpec, quantize_batch, qtscm, relative_spectral_error
        from qtcov import full_ruler, random_toeplitz_covariance, sample_complex_gaussian
        T = random_toeplitz_covariance(6, 3)
        spec = QuantizationSpec(1.5, 0.5)
        batches = [quantize_batch(sample_complex_gaussian(T, full_ruler(6), 300, t), spec)
                   for t in range(4)]
        want = np.mean([relative_spectral_error(qtscm(b), T) for b in batches])
        got, lattice = checks.recompute_mean([b.data for b in batches], T.generators,
                                             list(range(1, 7)), 1.5, 0.5)
        assert lattice
        assert abs(got - want) <= 1e-12 * want

    def test_rejects_a_perturbed_mean_and_off_lattice_values(self):
        rng = np.random.default_rng(0)
        truth = np.array([2.0, 0.5 + 0.2j, 0.1, -0.1j])
        draws = lattice_draws(rng, 200, 4, 0.5, 1.5, 3)
        mean, lattice = checks.recompute_mean(draws, truth, [1, 2, 3, 4], 0.5, 1.5)
        assert lattice
        cell = level_cell(0.5, 1.5)
        table = level_table()
        table[cell] = Stat(mean, 0.01)
        assert self.check(table, {cell: (mean, True)}).ok(cell)
        table[cell] = Stat(mean * (1 + 1e-6), 0.01)
        assert not self.check(table, {cell: (mean, True)}).ok(cell)

        draws[1] = draws[1] + 0.01
        _, lattice = checks.recompute_mean(draws, truth, [1, 2, 3, 4], 0.5, 1.5)
        assert not lattice


@pytest.fixture(scope="module")
def solved():
    """A converged qspa solve on a sparse ruler, as the benchmark captures it."""
    from qtcov import QuantizationSpec, Ruler, qspa_solve
    rng = np.random.default_rng(5)
    ruler = Ruler([1, 2, 4, 6], 6)
    X = rng.standard_normal((400, 4)) + 1j * rng.standard_normal((400, 4))
    Rhat = X.T @ X.conj() / 400
    spec = QuantizationSpec(1.0, 1.0)
    sol = qspa_solve(Rhat, ruler, spec, n=400)
    return {"Rhat": Rhat, "d": 6, "indices": (1, 2, 4, 6), "n": 400, "delta_r": 1.0,
            "delta_i": 1.0, "k": None, "u": sol.u, "breve": sol.T_breve.generators,
            "converged": sol.converged}


def with_u(solve, u):
    breve = np.array(u, dtype=complex)
    breve[0] -= 0.5
    return dict(solve, u=u, breve=breve)


class TestQspaFit:
    def test_accepts_a_converged_optimum(self, solved):
        assert checks.check_solve(solved, np.random.default_rng(0)) == []

    def test_rejects_a_non_psd_estimate(self, solved):
        u = np.array(solved["u"])
        u[0] -= np.linalg.eigvalsh(checks.toeplitz_dense(solved["breve"]))[0] + 0.1
        problems = checks.check_solve(with_u(solved, u), np.random.default_rng(0))
        assert any("not PSD" in p for p in problems)

    def test_rejects_a_suboptimal_fit(self, solved):
        u = np.array(solved["u"])
        u[0] += 0.5                 # feasible, but a worse fit
        problems = checks.check_solve(with_u(solved, u), np.random.default_rng(0))
        assert any("objective" in p for p in problems)

    def test_rejects_bias_left_in_and_nonconvergence(self, solved):
        problems = checks.check_solve(dict(solved, breve=solved["u"], converged=False),
                                      np.random.default_rng(0))
        assert any("T(u)" in p for p in problems)
        assert any("converge" in p for p in problems)

    def table(self, qscm_error):
        cells = {Cell(est, 6, 400, 1.0, 1.0, None, "full"): Stat(err, 0.01)
                 for est, err in (("qtscm", 0.2), ("qscm", qscm_error), ("qspa", 0.15))}
        return cells, list(cells)

    def test_rejects_qscm_that_is_not_the_worst(self, solved):
        names = {(6, (1, 2, 4, 6)): "full"}
        table, expected = self.table(0.3)
        assert checks.check_qspa_fit(table, expected, [solved], names, 1).correct
        table, expected = self.table(0.18)
        assert not checks.check_qspa_fit(table, expected, [solved], names, 1).correct

    def test_rejects_missing_solves(self, solved):
        table, expected = self.table(0.3)
        names = {(6, (1, 2, 4, 6)): "full"}
        assert not checks.check_qspa_fit(table, expected, [solved], names, 2).correct


TRUTH = (0.08, 0.21, 0.37, 0.68, 0.81)


class TestDoaScene:
    def table(self, small, large):
        cells = {Cell("qtscm", 16, 1000, 2.0, 2.0, 2, "full"): Stat(small, 0.0),
                 Cell("qtscm", 16, 10000, 2.0, 2.0, 2, "full"): Stat(large, 0.0)}
        return cells, list(cells)

    def mse_call(self, swap=False):
        est = np.array(TRUTH) + np.array([1e-3, -2e-3, 5e-4, 0.0, 3e-3])
        truth = list(TRUTH)
        if swap:
            truth[0], truth[1] = truth[1], truth[0]
        reported = float(np.mean(checks.circular_distance(est, truth) ** 2))
        return est, TRUTH, reported

    def check(self, table, expected, resolved=None, calls=None):
        return checks.check_doa_scene(table, expected, resolved or [True] * 2,
                                      calls or [self.mse_call()], 16, 1)

    def test_accepts_a_right_scene(self):
        v = self.check(*self.table(1e-7, 1e-8))
        assert v.correct and not v.failed

    def test_rejects_a_swapped_frequency_pair(self):
        assert not self.check(*self.table(1e-7, 1e-8), calls=[self.mse_call(swap=True)]).correct

    def test_rejects_an_unresolved_spectrum(self):
        assert not self.check(*self.table(1e-7, 1e-8), resolved=[True, False]).correct

    def test_rejects_mse_that_does_not_fall_with_n(self):
        assert not self.check(*self.table(1e-7, 2e-7)).correct

    def test_rejects_a_cell_near_the_resolution_limit(self):
        table, expected = self.table(1e-3, 1e-8)
        assert set(self.check(table, expected).failed) == {expected[0]}

    def test_brute_force_handles_wraparound(self):
        assert checks.brute_force_mse([0.99, 0.5], [0.01, 0.5]) == pytest.approx(2e-4)
