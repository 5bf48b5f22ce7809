"""Output checks of the benchmark, computed apart from the program.

Each check works on plain data: the experiment CSV as written, and results
captured from qtcov calls during the run.  Estimates are recomputed here with
this module's own numpy code (per-lag-pair averaging, bias removal, Toeplitz
assembly, spectral norm, fitting objective, brute-force matching), or held to
properties the method must have.  Nothing is compared with a stored copy of
an earlier run.

A failure that belongs to one grid cell marks that cell failed; a failure of
a property across cells, or of one that no cell owns, is a problem that makes
the run incorrect.
"""

import csv
import io
import itertools
import math
from collections import namedtuple

import numpy as np

Cell = namedtuple("Cell", "estimator d n delta_r delta_i k ruler")
Stat = namedtuple("Stat", "mean stderr")

# level-map noise allowance, in combined standard errors of two cells
NOISE_Z = 3.0
# the level_grid recomputation must match the CSV to this relative tolerance
RECOMPUTE_RTOL = 1e-9
# a DOA cell's MSE must stay below this share of (1 / (2d))^2
DOA_MSE_SHARE = 0.01
# qspa optimality: slack on the objective, relative to 1 + |f|
OBJECTIVE_RTOL = 1e-7
# size of the feasible perturbations, relative to max |u|
PERTURB_SCALE = 1e-3


class Verdict:
    """Failed cells and cross-cell problems found by the checks."""

    def __init__(self, table, expected):
        self.failed = {}      # cell -> reason
        self.problems = []
        for cell in expected:
            if cell not in table:
                self.fail(cell, "missing from the CSV")
        extra = set(table) - set(expected)
        if extra:
            self.problem(f"{len(extra)} unexpected cells, e.g. {next(iter(extra))}")
        for cell, stat in table.items():
            if not math.isfinite(stat.mean):
                self.fail(cell, f"mean is {stat.mean}")

    def fail(self, cell, why):
        self.failed.setdefault(cell, why)

    def problem(self, why):
        self.problems.append(why)

    def ok(self, cell):
        return cell not in self.failed

    @property
    def correct(self):
        return not self.problems


def parse_table(text):
    """Cell -> (mean, stderr) from the experiment CSV."""
    means, errs = {}, {}
    for rec in csv.DictReader(io.StringIO(text)):
        k = rec["k"]
        cell = Cell(rec["estimator"], int(rec["d"]), int(rec["n"]),
                    float(rec["delta_r"]), float(rec["delta_i"]),
                    None if k == "" else int(k), rec["ruler"])
        if rec["stat"] == "mean":
            means[cell] = float(rec["value"])
        elif rec["stat"] == "stderr":
            errs[cell] = float(rec["value"])
    return {cell: Stat(m, errs.get(cell, math.nan)) for cell, m in means.items()}


# --- independent linear algebra -----------------------------------------------

def toeplitz_dense(gens):
    """M[j, k] = gens[k - j] for k >= j, Hermitian below the diagonal."""
    gens = np.asarray(gens, dtype=complex)
    d = gens.size
    M = np.empty((d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            M[j, k] = gens[k - j] if k >= j else np.conj(gens[j - k])
    return M


def spectral_norm(M):
    """Largest |eigenvalue| of a Hermitian matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


def lag_pairs(indices, d):
    """For each lag s, the (a, b) positions in `indices` with indices[b] - indices[a] = s."""
    pairs = [[] for _ in range(d)]
    for a, ia in enumerate(indices):
        for b, ib in enumerate(indices):
            if ib >= ia:
                pairs[ib - ia].append((a, b))
    return pairs


def per_lag_average(cross, pairs):
    """gamma[s] = mean over lag-s pairs (a, b) of cross(a, b)."""
    gens = np.array([np.mean([cross(a, b) for a, b in p]) for p in pairs], dtype=complex)
    gens[0] = gens[0].real
    return gens


def qtscm_generators(Z, pairs, delta_r, delta_i):
    """Per-lag-pair qtscm of quantized samples Z (n x |ruler|), bias removed."""
    gens = per_lag_average(lambda a, b: np.mean(Z[:, a] * np.conj(Z[:, b])), pairs)
    gens[0] -= (delta_r ** 2 + delta_i ** 2) / 4.0
    return gens


def on_lattice(values, delta_r, delta_i, tol=1e-9):
    """True if every Re/Im part is delta * (integer + 1/2)."""
    for part, delta in ((np.real(values), delta_r), (np.imag(values), delta_i)):
        x = part / delta - 0.5
        if np.any(np.abs(x - np.round(x)) > tol * np.maximum(1.0, np.abs(x))):
            return False
    return True


def recompute_mean(draws, truth_gens, indices, delta_r, delta_i):
    """Mean relative spectral error of qtscm over quantized draws, and whether
    every draw lay on the quantizer lattice."""
    truth = toeplitz_dense(truth_gens)
    pairs = lag_pairs(indices, truth.shape[0])
    norm = spectral_norm(truth)
    errs, lattice = [], True
    for Z in draws:
        lattice = lattice and on_lattice(Z, delta_r, delta_i)
        est = toeplitz_dense(qtscm_generators(Z, pairs, delta_r, delta_i))
        errs.append(spectral_norm(est - truth) / norm)
    return float(np.mean(errs)), lattice


# --- level_grid -----------------------------------------------------------------

def check_level_grid(table, expected, levels, recomputed):
    """Level map of qtscm: finite, growing along delta_r = delta_i, symmetric,
    and equal to this module's recomputation on sampled cells.

    `recomputed` maps sampled cells to (mean, on_lattice).
    """
    v = Verdict(table, expected)
    by_levels = {(c.delta_r, c.delta_i): c for c in table}

    diag = [by_levels.get((a, a)) for a in levels]
    diag = [table[c] for c in diag if c is not None and v.ok(c)]

    def slack(lo, hi):
        return NOISE_Z * math.hypot(lo.stderr, hi.stderr)

    # no step down beyond the noise, and a rise from the first level to the last
    if len(diag) > 1 and (any(hi.mean < lo.mean - slack(lo, hi) for lo, hi in zip(diag, diag[1:]))
                          or not diag[-1].mean > diag[0].mean):
        v.problem("error does not grow along delta_r = delta_i: "
                  f"{[round(s.mean, 6) for s in diag]}")

    for a, b in itertools.combinations(levels, 2):
        ab, ba = by_levels.get((a, b)), by_levels.get((b, a))
        if ab is None or ba is None or not (v.ok(ab) and v.ok(ba)):
            continue
        gap = abs(table[ab].mean - table[ba].mean)
        se = math.hypot(table[ab].stderr, table[ba].stderr)
        if not gap <= NOISE_Z * se:
            v.problem(f"map not symmetric at ({a}, {b}): gap {gap:.3g} > "
                      f"{NOISE_Z} x combined stderr {se:.3g}")

    for cell, (mean, lattice) in recomputed.items():
        if not lattice:
            v.fail(cell, "quantized values off the delta (k + 1/2) lattice")
        elif cell in table and not abs(table[cell].mean - mean) <= RECOMPUTE_RTOL * abs(mean):
            v.fail(cell, f"CSV mean {table[cell].mean!r} != recomputed {mean!r}")
    return v


# --- qspa_fit -------------------------------------------------------------------

def fit_objective(Rhat, gens, indices):
    """tr(Rhat^-1 A) + tr(A^-1 Rhat), A the ruler block of T(gens); inf if A is not PD."""
    pos = np.asarray(indices) - 1
    A = toeplitz_dense(gens)[np.ix_(pos, pos)]
    if np.linalg.eigvalsh(A)[0] <= 0:
        return math.inf
    return float(np.trace(np.linalg.solve(Rhat, A)).real
                 + np.trace(np.linalg.solve(A, Rhat)).real)


def lift_to_feasible(gens, c, margin):
    """Raise gamma_0 until T(gens) - c I has smallest eigenvalue >= margin."""
    gens = np.array(gens, dtype=complex)
    lmin = float(np.linalg.eigvalsh(toeplitz_dense(gens) - c * np.eye(gens.size))[0])
    if lmin < margin:
        gens[0] += margin - lmin
    return gens


def check_solve(solve, rng):
    """Problems with one captured qspa solve (empty list if none).

    `solve` holds Rhat, indices, d, delta_r, delta_i, u, breve, converged.
    """
    out = []
    if not solve["converged"]:
        out.append("solve did not converge")
    c = (solve["delta_r"] ** 2 + solve["delta_i"] ** 2) / 4.0
    u = np.asarray(solve["u"], dtype=complex)
    breve = np.asarray(solve["breve"], dtype=complex)
    shifted = u.copy()
    shifted[0] -= c
    scale = max(1.0, float(np.max(np.abs(u))))
    if not np.allclose(breve, shifted, rtol=0.0, atol=1e-12 * scale):
        out.append("T_breve is not T(u) - (||Delta||^2/4) I")
    eig = np.linalg.eigvalsh(toeplitz_dense(breve))
    if eig[0] < -1e-9 * max(1.0, float(np.max(np.abs(eig)))):
        out.append(f"T_breve not PSD: smallest eigenvalue {eig[0]:.3g}")

    Rhat, idx = solve["Rhat"], solve["indices"]
    f_star = fit_objective(Rhat, u, idx)
    slack = OBJECTIVE_RTOL * (1.0 + abs(f_star))
    pairs = lag_pairs(idx, u.size)
    start = per_lag_average(lambda a, b: Rhat[a, b], pairs)
    start[0] -= c
    rivals = [("qtscm start", lift_to_feasible(start, c, 1e-6))]
    step = PERTURB_SCALE * scale
    for i in range(6):
        delta = rng.standard_normal(u.size) + 1j * rng.standard_normal(u.size)
        delta[0] = delta[0].real
        delta *= step / np.max(np.abs(delta))
        rivals.append((f"perturbation {i}", lift_to_feasible(u + delta, c, 0.0)))
    for name, g in rivals:
        f = fit_objective(Rhat, g, idx)
        if not f_star <= f + slack:
            out.append(f"objective {f_star!r} exceeds {f!r} at the {name}")
    return out


def check_qspa_fit(table, expected, solves, ruler_names, trials, seed=0):
    """Covariance-error sweep with qspa: every solve converged to a PSD,
    no-worse-than-its-rivals fit, and qscm is the worst on the full ruler.

    `ruler_names` maps (d, indices) to the config's ruler spec.
    """
    v = Verdict(table, expected)
    rng = np.random.default_rng(seed)
    want = sum(1 for c in expected if c.estimator == "qspa")
    for solve in solves:
        cell = Cell("qspa", solve["d"], solve["n"], solve["delta_r"], solve["delta_i"],
                    solve["k"], ruler_names.get((solve["d"], tuple(solve["indices"])), "?"))
        for why in check_solve(solve, rng):
            v.fail(cell, why)
    if len(solves) != trials * want:
        v.problem(f"captured {len(solves)} solves, expected {trials * want}")

    for d in sorted({c.d for c in table}):
        full = {c.estimator: table[c].mean for c in table
                if c.d == d and c.ruler == "full" and v.ok(c)}
        if "qscm" in full and any(full["qscm"] <= e for k, e in full.items() if k != "qscm"):
            v.problem(f"qscm is not the largest error on the full ruler at d={d}: {full}")
    return v


# --- doa_scene ------------------------------------------------------------------

def circular_distance(a, b):
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return np.minimum(diff, 1.0 - diff)


def brute_force_mse(estimates, truth):
    """Smallest mean squared circular distance over all matchings."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    return min(float(np.mean(circular_distance(est, tru[list(p)]) ** 2))
               for p in itertools.permutations(range(tru.size)))


def check_doa_scene(table, expected, resolved, mse_calls, d, trials):
    """DOA scene: every spectrum resolved, every MSE far below (1/(2d))^2 and
    falling with n, and the reported MSE equal to the brute-force matching on
    the sampled calls `mse_calls` of (estimates, truth, reported)."""
    v = Verdict(table, expected)
    want = trials * len(expected)
    if len(resolved) != want:
        v.problem(f"captured {len(resolved)} MUSIC calls, expected {want}")
    if not all(resolved):
        v.problem(f"{len(resolved) - sum(resolved)} MUSIC spectra unresolved")

    bound = DOA_MSE_SHARE / (2.0 * d) ** 2
    for cell, stat in table.items():
        if v.ok(cell) and not stat.mean < bound:
            v.fail(cell, f"MSE {stat.mean:.3g} not below {bound:.3g}")

    curves = {}
    for cell in sorted(table, key=lambda c: c.n):
        if v.ok(cell):
            curves.setdefault((cell.estimator, cell.ruler), []).append(table[cell].mean)
    for key, curve in curves.items():
        if any(b >= a for a, b in zip(curve, curve[1:])):
            v.problem(f"MSE does not fall with n for {key}: {curve}")

    for est, truth, reported in mse_calls:
        best = brute_force_mse(est, truth)
        if not abs(reported - best) <= 1e-9 * best + 1e-18:
            v.problem(f"frequency_mse {reported!r} != brute-force minimum {best!r}")
    return v
