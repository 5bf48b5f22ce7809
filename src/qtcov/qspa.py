"""Covariance fitting over Toeplitz generators with a shifted-PSD constraint.

Given the sample covariance Rhat of quantized observations on a ruler, the
estimator solves

    minimize   tr(Rhat^-1 A(u)) + tr(A(u)^-1 Rhat)
    subject to T(u) - (||Delta||^2/4) I_d  positive semidefinite,

where T(u) is the d x d Hermitian Toeplitz matrix with generators u and A(u)
is its restriction to the ruler coordinates.  The constraint absorbs the
additive quantization bias, so the final estimate is
T_breve = T(u) - (||Delta||^2/4) I.

The problem is convex and admits a semidefinite-program lifting (replace
tr(A^-1 Rhat) by tr(U) under the Schur-complement constraint
[[U, Rhat^(1/2)], [Rhat^(1/2), A]] >= 0).  Instead of handing that SDP to an
external solver, this module minimizes directly over the 2d-1 real generator
coordinates with a path-following log barrier

    f(u) - mu log det(T(u) - (||Delta||^2/4) I) - mu log det A(u)

using damped Newton steps.  The schedule has no knobs: since f >= 2|Omega|
and a centered point at mu is within theta * mu of the optimum (theta = d +
|Omega|, the barrier parameter), mu starts at (f(u0) - 2|Omega|) / theta at
the start u0, and shrinks by a factor 20 per centering.  A centering stops
once the Newton decrement lambda meets lambda^2 / 2 <= kappa mu (kappa =
3e-2): path-following needs each center only within a neighbourhood of the
central path proportional to mu, since the next mu moves the center anyway,
and the last centering, at the smallest mu, sets the final accuracy.  u0 is
the bias-removed projection of Rhat, lifted so that lambda_min(T(u0) - cI) is at
least 1e-2 tr(Rhat) / |Omega|, a margin in the data's own units: a Newton
step on a log barrier can only about double its distance to the boundary, so
a start an absolute 1e-6 from it spends most of the first centering getting
away from the edge.  The projection lifted only 1e-6 inside (the tight lift)
is one more candidate for the best point of an unconverged solve.  After
each centering a predictor step follows the central path's tangent to the
next mu, reusing the Newton system solved at the center (Boyd &
Vandenberghe, Convex Optimization, 11.5).  Each point is factored
once: the line search's Cholesky factors of A(u) and of the shifted T(u)
give the barrier value there, and those of the accepted point also give the
next Newton step and the end-of-centering objective.  Gradients reduce to
per-lag sums of Hermitian weight matrices (the adjoint of the generator-to-
matrix map).  Hessian entries tr(X E_a Y E_b) over lag directions E_a depend
only on lag-shifted products of X and Y, a 2-D cross-correlation over the
signed lags.  Each Newton system takes it from dense DFT-matrix products with
constants built once per problem: three two-sided 2d x |Omega| transforms
and one real product back to generator coordinates, O(d^3) for any ruler.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QtcovError
from .rulers import full_ruler
from .toeplitz import HermitianToeplitz, pair_lag_sums, toeplitz_adjoint_project, toeplitz_dense


@dataclass
class QspaSolution:
    u: np.ndarray                 # solved generators of T(u) (bias included)
    objective: float              # two-trace fitting objective at u
    kkt_residual: float           # Newton-decrement stationarity residual
    iterations: int               # damped Newton steps (line searches); excludes
                                  # each centering's final system and predictors
    newton_systems: int           # Newton systems (Hessians) built
    evaluations: int              # points factored, feasible or not
    predictor_steps: int          # predictor steps taken (a feasible try accepted)
    epsilon: float                # diagonal regularization added to Rhat (0.0 if none)
    T_breve: HermitianToeplitz    # bias-removed covariance estimate
    converged: bool
    trace: list = field(default_factory=list)  # (outer, mu, objective, kkt)

    def trace_csv(self):
        """Per-outer-iteration progress as CSV text."""
        lines = ["iteration,mu,objective,kkt_residual"]
        lines += [f"{it},{mu!r},{obj!r},{kkt!r}" for it, mu, obj, kkt in self.trace]
        return "\n".join(lines) + "\n"


def auto_epsilon(Rhat, n=None):
    """Diagonal perturbation for ill-conditioned sample covariances.

    Returns a positive epsilon only when the sample count is small
    (n < 2 |ruler|) or the smallest eigenvalue is negligible against the
    average diagonal; otherwise 0.
    """
    Rhat = np.asarray(Rhat)
    m = Rhat.shape[0]
    tbar = float(np.trace(Rhat).real) / m
    lmin = float(np.linalg.eigvalsh(Rhat)[0])
    if (n is not None and n < 2 * m) or lmin < 1e-10 * tbar:
        return max(0.0, 1e-8 * tbar - lmin) + 1e-10 * tbar
    return 0.0


# --- generator coordinate layout ---------------------------------------------
# v = (u_0, Re u_1, Im u_1, ..., Re u_{d-1}, Im u_{d-1}), length 2d - 1.

def _params_from_generators(u):
    u = np.asarray(u, dtype=np.complex128)
    v = np.empty(2 * u.size - 1)
    v[0] = u[0].real
    v[1::2] = u[1:].real
    v[2::2] = u[1:].imag
    return v

def _generators_from_params(v):
    d = (v.size + 1) // 2
    u = np.empty(d, dtype=np.complex128)
    u[0] = v[0]
    u[1:] = v[1::2] + 1j * v[2::2]
    return u


def _lag_sums(W, ruler):
    """h[s] = sum of W over ordered lag-s pairs (the unnormalized adjoint)."""
    return pair_lag_sums(W[ruler.pair_rows, ruler.pair_cols], ruler)


def _grad_from_lag_sums(h):
    g = _params_from_generators(h)
    g[1:] *= 2.0  # a lag s >= 1 sits in both triangles
    return g


def _lag_dft(d):
    """Constants of the lag Hessian for dimension d, over n = 2d signed lags.

    W[r, a] = exp(2 pi i r a / n) for r < n and positions a < d, so W[:, P]
    M W[:, P]^T is the 2-D DFT of M embedded at positions P (2d - 1 signed
    lags per axis fit without wrap-around).  G1 = conj(coef) W / n^2 and
    G2 = (coef W)^T take a lag spectrum back to generator coordinates, where
    coef[a, l] is the weight of the signed-lag indicator F_l in E_a (column l
    mod n).  E(Re u_s) and E(Im u_s) weigh lags s and -s by conjugate pairs,
    so both maps are real: rows 1, 2 cos and +-2 sin of the lag-s phase.
    """
    n = 2 * d
    # exponents reduced mod n, so the phases stay exact at large d
    angle = 2.0 * np.pi / n * np.arange(n)
    W = np.exp(1j * angle)[np.outer(np.arange(n), np.arange(d)) % n]
    lag_angle = angle[np.outer(np.arange(1, d), np.arange(n)) % n]
    G = np.empty((2 * d - 1, n))
    G[0] = 1.0
    G[1::2] = 2.0 * np.cos(lag_angle)
    G[2::2] = 2.0 * np.sin(lag_angle)
    G1 = G / n ** 2
    G[2::2] *= -1.0
    return W, G1, G.T


def _try_chol(M):
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def _chol_inverse(L):
    Linv = np.linalg.inv(L)
    return Linv.conj().T @ Linv


def _chol_logdet(L):
    return 2.0 * float(np.sum(np.log(np.diag(L).real)))


@dataclass(frozen=True)
class _Point:
    """One feasible point of the barrier problem, factored once."""
    v: np.ndarray        # generator coordinates
    objective: float     # two-trace fitting objective f(u)
    logdet: float        # log det(T(u) - cI) + log det A(u)
    Ainv: np.ndarray     # A(u)^-1
    LB: np.ndarray       # Cholesky factor of T(u) - cI

    def barrier(self, mu):
        return self.objective - mu * self.logdet


class _BarrierProblem:
    """Barrier objective, gradient and Hessian in generator coordinates."""

    def __init__(self, Rhat, ruler, c):
        Rhat = np.asarray(Rhat, dtype=np.complex128)
        m = ruler.size
        if Rhat.shape != (m, m):
            raise QtcovError(f"Rhat shape {Rhat.shape} does not match |ruler| = {m}")
        cholR = _try_chol(Rhat)
        if cholR is None:
            raise QtcovError("sample covariance is not positive definite")
        self.Rhat = Rhat
        self.Rinv = _chol_inverse(cholR)
        self.ruler = ruler
        self.full = full_ruler(ruler.dim)
        self.c = float(c)
        self.block_pos = np.ix_(ruler.positions, ruler.positions)
        W, self.G1, self.G2 = _lag_dft(ruler.dim)
        self.W_ruler = W[:, ruler.positions]
        self.W_full = W[:, self.full.positions]
        self.evaluations = 0
        self.newton_systems = 0

    def _two_trace(self, A, LA):
        """tr(Rhat^-1 A) + tr(A^-1 Rhat) and A^-1, from the Cholesky factor LA of A."""
        Ainv = _chol_inverse(LA)
        f1 = float(np.sum(self.Rinv * A.T).real)
        f2 = float(np.sum(Ainv * self.Rhat.T).real)
        return f1 + f2, Ainv

    def evaluate(self, v):
        """The _Point at v, or None if A(u) or T(u) - cI is not positive definite."""
        self.evaluations += 1
        T = toeplitz_dense(_generators_from_params(v))
        A = T[self.block_pos]
        LA = _try_chol(A)
        if LA is None:
            return None
        LB = _try_chol(T - self.c * np.eye(self.ruler.dim))
        if LB is None:
            return None
        objective, Ainv = self._two_trace(A, LA)
        return _Point(v, objective, _chol_logdet(LB) + _chol_logdet(LA), Ainv, LB)

    def newton_system(self, p, mu):
        """Gradient and Hessian of the barrier at the _Point p, and the
        gradient of its log-determinant term (the barrier gradient is
        grad f - mu * that)."""
        self.newton_systems += 1
        Binv = _chol_inverse(p.LB)
        S = p.Ainv @ self.Rhat @ p.Ainv
        grad_f = _grad_from_lag_sums(_lag_sums(self.Rinv - S, self.ruler))
        grad_logdet = _grad_from_lag_sums(_lag_sums(p.Ainv, self.ruler)
                                          + _lag_sums(Binv, self.full))
        H = self.lag_hessian(2.0 * S + mu * p.Ainv, p.Ainv, Binv, mu)
        return grad_f - mu * grad_logdet, 0.5 * (H + H.T), grad_logdet

    def lag_hessian(self, X, Y, Binv, mu):
        """H[a, b] = Re tr(X E_a Y E_b) + mu Re tr(Binv E'_a Binv E'_b) for
        Hermitian X, Y on the ruler block and Binv on the full d x d matrix.

        E_a = dA/dv_a is the direction matrix of generator coordinate a on the
        ruler block, E'_a = dT/dv_a its full-matrix form.  With F_l the
        signed-lag indicator (F_l[j, k] = 1 iff k - j = l), E_0 = F_0,
        E(Re u_s) = F_s + F_-s, E(Im u_s) = i F_s - i F_-s, and K[l, l'] =
        tr(X F_l Y F_l') = sum_{p, j} X[p, j] Y[j + l, p - l'], a 2-D
        cross-correlation of X with Y^T over signed lags.  Its spectrum is
        F_X o conj(F_Y) with F_M = W M W^T at the block's positions (the DFT
        of Y^T is conj(F_Y) for Hermitian Y), and G1, G2 take the real part
        of the spectra's sum back to generator coordinates.
        """
        FX = self.W_ruler @ X @ self.W_ruler.T
        FY = self.W_ruler @ Y @ self.W_ruler.T
        FB = self.W_full @ Binv @ self.W_full.T
        spectrum = (FX * FY.conj()).real + mu * (FB * FB.conj()).real
        return self.G1 @ spectrum @ self.G2


def qspa_solve(Rhat, ruler, spec, n=None):
    """Fit a Toeplitz covariance to the quantized sample covariance Rhat.

    Args:
        Rhat: Hermitian |ruler| x |ruler| sample covariance of quantized data.
        ruler: the observation ruler.
        spec: QuantizationSpec; its ||Delta||^2/4 sets the PSD shift.
        n: sample count behind Rhat, used only by the automatic regularization.

    Returns a QspaSolution; `converged` is False if the iteration budget ran
    out, in which case the best iterate found is returned.

    One Toeplitz projection of Rhat starts the solve.  On the full ruler at
    c = 0 it is the exact optimum when it reproduces Rhat and is PSD (the
    barrier stalls on such inputs); otherwise its bias-removed form (the
    qtscm estimate) starts the barrier, lifted so that the smallest
    eigenvalue of T(u) - cI is at least 1e-2 tr(Rhat) / |ruler| (Rhat
    regularized).  The same projection lifted only to 1e-6 is the tight
    lift: an unconverged solve returns the feasible point of least
    objective among it, the start and the centers.  The tight lift's
    kkt_residual is its Newton decrement at the mu a solve started there
    would take, (f - 2|ruler|) / (d + |ruler|).
    """
    if spec is None:  # a raw batch has no spec
        raise QtcovError("estimators expect a quantized batch")
    Rhat = np.asarray(Rhat, dtype=np.complex128)
    eps = auto_epsilon(Rhat, n)
    if eps > 0:
        Rhat = Rhat + eps * np.eye(Rhat.shape[0])

    c = spec.lag0_bias
    prob = _BarrierProblem(Rhat, ruler, c)
    gens = toeplitz_adjoint_project(Rhat, ruler)
    if c == 0.0 and ruler.is_full():
        scale = max(1.0, float(np.max(np.abs(Rhat))))
        if (np.allclose(HermitianToeplitz(gens).dense, Rhat, rtol=0.0, atol=1e-13 * scale)
                and float(np.linalg.eigvalsh(Rhat)[0]) >= -1e-12 * scale):
            p = prob.evaluate(_params_from_generators(gens))
            obj = 2.0 * ruler.size if p is None else p.objective
            return QspaSolution(gens, obj, 0.0, 0, 0, prob.evaluations, 0, eps,
                                HermitianToeplitz(gens), True, trace=[(0, 0.0, obj, 0.0)])

    gens[0] = gens[0].real - c
    lmin = float(np.linalg.eigvalsh(HermitianToeplitz(gens).dense - c * np.eye(ruler.dim))[0])
    tight = gens.copy()
    tight[0] += max(_TIGHT_LIFT - lmin, 0.0)
    margin = _START_MARGIN * float(np.trace(Rhat).real) / ruler.size
    gens[0] += max(margin - lmin, 0.0)
    return _barrier_iterations(prob, _params_from_generators(gens), eps,
                               tight_lift=_params_from_generators(tight))


_MU_SHRINK = 0.05     # mu factor per centering
_CENTER_KAPPA = 3e-2  # a centering stops once lambda^2 / 2 <= kappa mu
_NEWTON_TOL = 1e-8    # converged once (2d - 1) mu is below it at a tight center
_MAX_OUTER = 40       # centerings per solve
_MAX_INNER = 50       # damped Newton steps per centering
_MU_FLOOR = 1e-12     # first mu when the start is (nearly) optimal
_START_MARGIN = 1e-2  # start's lambda_min(T(u0) - cI), relative to tr(Rhat) / |Omega|
_TIGHT_LIFT = 1e-6    # the tight lift's lambda_min(T(u) - cI)


def _backtrack(prob, v, dv, min_step, accept=None):
    """The first feasible point at v + t dv, t = 1, 1/2, ... > min_step, that
    `accept(point, t)` takes if given; None if there is none."""
    step = 1.0
    while step > min_step:
        trial = prob.evaluate(v + step * dv)
        if trial is not None and (accept is None or accept(trial, step)):
            return trial
        step *= 0.5
    return None


def _first_mu(prob, p):
    """The barrier parameter that starts a solve at the _Point p.

    theta * mu, theta = d + |Omega|, bounds a center's gap to the optimum;
    f(p) - 2|Omega| bounds the start's (tr X + tr X^-1 >= 2m)."""
    m = prob.ruler.size
    return max((p.objective - 2.0 * m) / (prob.ruler.dim + m), _MU_FLOOR)


def _newton_decrement(prob, p, mu):
    """sqrt(g^T H^-1 g) of the barrier at the _Point p, one Newton system."""
    grad, H, _ = prob.newton_system(p, mu)
    return math.sqrt(max(-float(grad @ _solve_newton(H, grad)), 0.0))


def _barrier_iterations(prob, v, eps, tight_lift=None):
    p = prob.evaluate(v)
    if p is None:
        raise QtcovError("barrier evaluated at an infeasible point")
    mu = _first_mu(prob, p)
    total_newton = predictor_steps = 0
    trace = []
    converged = False
    best = None  # (point, kkt) of least objective among the start and the centers
    for outer in range(_MAX_OUTER):
        # Center at the current mu with damped Newton steps.  The stationarity
        # residual is the Newton decrement sqrt(g^T H^-1 g): lambda^2 / 2
        # bounds the gap to the centered value and, unlike the raw gradient
        # norm, stays meaningful when an active constraint makes the barrier
        # Hessian stiff.
        centered = False
        for _ in range(_MAX_INNER):
            val = p.barrier(mu)
            grad, H, grad_logdet = prob.newton_system(p, mu)
            dv, tangent = _solve_newton(H, np.column_stack([grad, grad_logdet])).T
            lam2 = -float(grad @ dv)
            kkt = math.sqrt(max(lam2, 0.0))
            if best is None:
                best = (p, kkt)
            # Center only to a neighbourhood proportional to mu, lambda^2 / 2
            # <= kappa mu: a center's objective is within theta * mu of the
            # optimum and the next mu moves it anyway, so a tighter centering
            # buys nothing until the last mu (Boyd & Vandenberghe 11.5).  The
            # floor is the barrier value's rounding level.
            ctol = max(1e-14 * (1.0 + abs(val)), _CENTER_KAPPA * mu)
            centered = lam2 / 2.0 <= ctol
            if centered:
                break
            trial = _backtrack(prob, p.v, dv, 1e-14,
                               lambda t, step: t.barrier(mu) <= val - 1e-4 * step * lam2)
            total_newton += 1
            if trial is None:
                break
            p = trial
        trace.append((outer, mu, p.objective, kkt))
        if p.objective < best[0].objective:
            best = (p, kkt)
        if v.size * mu < _NEWTON_TOL and kkt < 1e-6 * (1.0 + abs(p.objective)):
            converged = True
            best = (p, kkt)
            break
        mu_next = mu * _MU_SHRINK
        if centered:
            # Predictor: the center moves along dv/dmu = H^-1 grad logdet
            # (`tangent` is -H^-1 grad logdet), so step from the center at mu
            # towards the one at mu_next with the Newton system already at
            # hand, taking the first feasible of a full, half or quarter step.
            predicted = _backtrack(prob, p.v, (mu - mu_next) * tangent, 0.2)
            if predicted is not None:
                p = predicted
                predictor_steps += 1
        mu = mu_next

    # a converged solve returns its last center; an unconverged one, the
    # point of least objective among the start, the centers and the tight
    # lift, which is factored only here.  The tight lift's kkt_residual is
    # its Newton decrement at the mu a solve started there would take.
    if not converged and tight_lift is not None:
        q = prob.evaluate(tight_lift)
        if q is not None and q.objective < best[0].objective:
            best = (q, _newton_decrement(prob, q, _first_mu(prob, q)))
    p, kkt = best
    u = _generators_from_params(p.v)
    breve_gens = u.copy()
    breve_gens[0] = breve_gens[0].real - prob.c
    return QspaSolution(u, p.objective, kkt, total_newton, prob.newton_systems,
                        prob.evaluations, predictor_steps, eps,
                        HermitianToeplitz(breve_gens), converged, trace)


def _solve_newton(H, rhs):
    """-H^-1 rhs for a vector or a matrix of right-hand sides.

    A Cholesky factorization tests H (plus a growing diagonal jitter) for
    positive definiteness; the solve itself is one LU solve, cheaper than
    inverting the factor.  An H that the eighth try still finds indefinite
    raises LinAlgError."""
    jitter = 0.0
    scale = float(np.trace(H)) / H.shape[0]
    for attempt in range(8):
        Hj = H + jitter * np.eye(H.shape[0])
        try:
            np.linalg.cholesky(Hj)
            return -np.linalg.solve(Hj, rhs)
        except np.linalg.LinAlgError:
            if attempt == 7:
                raise
            jitter = max(2.0 * jitter, 1e-12 * max(scale, 1.0))
