import functools

import numpy as np
import pytest

from qtcov import rng as qrng
from qtcov import (HermitianToeplitz, QuantizationSpec, auto_epsilon, full_ruler, harness,
                   make_ruler_alpha, qspa, qspa_objective, qspa_solve, quantize_batch,
                   quantized_sample_covariance, random_toeplitz_covariance, resolve_ruler,
                   sample_complex_gaussian, toeplitz_adjoint_project)
from qtcov.errors import InfeasibleU, QtcovError, SingularRhat
from qtcov.qspa import QspaOptions, _BarrierProblem, _params_from_generators

from oracles import (fitting_objective_d2, grid_oracle_d2, reference_qspa_solve,
                     stacked_lag_hessian, wishart_rhat)
from test_golden import GOLDEN_CONFIGS

DELTA11 = QuantizationSpec(1.0, 1.0)
DELTA0 = QuantizationSpec(0.0, 0.0)


@functools.lru_cache(maxsize=None)
def golden_problems():
    """The 24 qspa problems (Rhat, ruler, spec, opts, n) of the golden configs."""
    problems = []

    def recording(Rhat, ruler, spec, opts=None, n=None):
        problems.append((Rhat, ruler, spec, opts, n))
        return qspa_solve(Rhat, ruler, spec, opts, n=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "qspa_solve", recording)
        for name in ("all_estimators", "tail_bound", "doa_d8"):
            harness.run_experiment(GOLDEN_CONFIGS[name])
    assert len(problems) == 24
    return tuple(problems)


def criterion8_problems(trials):
    """The first `trials` d=16 problems of acceptance criterion 8."""
    d, n, seed = 16, 10_000, 202
    spec, ruler = QuantizationSpec(5.0, 5.0), full_ruler(d)
    T = random_toeplitz_covariance(d, seed)
    return [(quantized_sample_covariance(quantize_batch(
                sample_complex_gaussian(T, ruler, n, qrng.trial_seed(seed, t)), spec)),
             ruler, spec, None, n) for t in range(trials)]


def feasible_generators(rng, d, c, margin=1.0):
    T = random_toeplitz_covariance(d, rng.integers(2 ** 32))
    gens = T.generators.copy()
    gens[0] += c + margin
    return gens


class TestObjective:
    def test_equal_matrices_hit_lower_bound(self, rng):
        Rhat = wishart_rhat(rng, 3, 30)
        gens = toeplitz_adjoint_project(Rhat, full_ruler(3))
        # Rhat is not Toeplitz, so evaluate at an exactly matching Toeplitz pair
        from qtcov import HermitianToeplitz
        A = HermitianToeplitz(gens).dense
        assert qspa_objective(gens, A, full_ruler(3), DELTA0) == pytest.approx(6.0)

    def test_scalar(self):
        assert qspa_objective([1.0], np.array([[2.0 + 0j]]), full_ruler(1),
                              DELTA0) == pytest.approx(2.5)

    def test_matches_dense_inverse_reference(self, rng):
        Rhat = wishart_rhat(rng, 3, 50)
        gens = feasible_generators(rng, 3, DELTA11.lag0_bias)
        from qtcov import HermitianToeplitz
        A = HermitianToeplitz(gens).dense
        ref = np.trace(np.linalg.inv(Rhat) @ A) + np.trace(np.linalg.inv(A) @ Rhat)
        val = qspa_objective(gens, Rhat, full_ruler(3), DELTA11)
        assert val == pytest.approx(ref.real, rel=1e-10)

    def test_singular_rhat(self):
        with pytest.raises(SingularRhat):
            qspa_objective([1.0, 0.0], np.zeros((2, 2)), full_ruler(2), DELTA0)

    def test_infeasible_u(self, rng):
        Rhat = wishart_rhat(rng, 2, 20)
        with pytest.raises(InfeasibleU):
            qspa_objective([1.0, 2.0], Rhat, full_ruler(2), DELTA0)


class TestOptions:
    @pytest.mark.parametrize("name, value", [
        ("epsilon_reg", -1.0), ("epsilon_reg", np.nan), ("epsilon_reg", np.inf),
        ("newton_tol", np.nan), ("newton_tol", 0.0), ("newton_tol", -1e-8), ("newton_tol", np.inf),
        ("max_outer", 0), ("max_outer", -3), ("max_outer", 2.5), ("max_inner", 0),
    ])
    def test_rejects_bad_field(self, name, value):
        with pytest.raises(QtcovError, match=f"qspa {name} must be"):
            QspaOptions(**{name: value})

    def test_accepts_the_values_in_use(self):
        assert QspaOptions(epsilon_reg=0.0, newton_tol=1e-14, max_outer=1, max_inner=1)
        assert QspaOptions(epsilon_reg=None, max_outer=2).epsilon_reg is None


class TestRegularization:
    def test_auto_eps_lifts_singular_rhat(self, rng):
        Rhat = wishart_rhat(rng, 4, 2)  # rank deficient: n < |ruler|
        eps = auto_epsilon(Rhat, n=2)
        assert eps > 0
        lifted = Rhat + eps * np.eye(4)
        assert np.linalg.eigvalsh(lifted)[0] >= eps / 2

    def test_auto_eps_zero_for_healthy_input(self, rng):
        Rhat = wishart_rhat(rng, 3, 500)
        assert auto_epsilon(Rhat, n=500) == 0.0


class TestSolve:
    def test_toeplitz_psd_input_is_fixed_point(self, rng):
        T = random_toeplitz_covariance(4, 77)
        sol = qspa_solve(T.dense, full_ruler(4), DELTA0)
        np.testing.assert_allclose(sol.u, T.generators, atol=1e-12)
        assert sol.objective == pytest.approx(8.0)
        np.testing.assert_allclose(sol.T_breve.dense, T.dense, atol=1e-12)

    @pytest.mark.parametrize("d", [8, 16])
    def test_exact_toeplitz_input_takes_the_shortcut(self, d):
        # the barrier alone runs out of Newton steps on these inputs
        T = random_toeplitz_covariance(d, 77)
        sol = qspa_solve(T.dense, full_ruler(d), DELTA0)
        assert sol.converged
        assert sol.iterations == 0
        np.testing.assert_allclose(sol.u, T.generators, rtol=0.0, atol=1e-12)

    def test_scalar_active_constraint(self):
        spec = QuantizationSpec(np.sqrt(2), np.sqrt(2))  # bias = 1
        sol = qspa_solve(np.array([[0.1 + 0j]]), full_ruler(1), spec)
        assert sol.converged
        assert sol.u[0].real == pytest.approx(1.0, abs=1e-6)
        assert sol.T_breve.generators[0].real == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_d2_matches_grid_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        Rhat = wishart_rhat(rng, 2, 10)
        sol = qspa_solve(Rhat, full_ruler(2), DELTA11, n=10)
        ref = grid_oracle_d2(Rhat, DELTA11.lag0_bias)
        assert sol.converged
        assert abs(sol.objective - ref) < 1e-4
        # the reported objective agrees with the closed-form evaluation at u
        direct = fitting_objective_d2(Rhat, sol.u[0].real, sol.u[1])
        assert sol.objective == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("rspec,d", [("full", 5), ("alpha:0.5", 9), ("1,2,4,6", 6)])
    def test_feasibility_and_lower_bound(self, rspec, d, rng):
        ruler = resolve_ruler(rspec, d)
        T = random_toeplitz_covariance(d, 123 + d)
        raw = sample_complex_gaussian(T, ruler, 300, 7)
        batch = quantize_batch(raw, DELTA11)
        Rhat = quantized_sample_covariance(batch)
        sol = qspa_solve(Rhat, ruler, DELTA11, n=300)
        assert sol.converged
        shifted = sol.T_breve.dense
        u0 = sol.u[0].real
        assert np.linalg.eigvalsh(shifted)[0] >= -1e-8 * u0
        assert sol.objective >= 2 * ruler.size - 1e-9

    def test_objective_monotone_over_outer_iterations(self, rng):
        Rhat = wishart_rhat(rng, 4, 40)
        sol = qspa_solve(Rhat, full_ruler(4), DELTA11, n=40)
        objs = [row[2] for row in sol.trace]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-7 * (1 + abs(a))

    def test_iteration_budget_flag(self, rng):
        Rhat = wishart_rhat(rng, 3, 30)
        sol = qspa_solve(Rhat, full_ruler(3), DELTA11,
                         QspaOptions(max_outer=2), n=30)
        assert not sol.converged  # best iterate still returned
        assert np.isfinite(sol.objective)

    def test_trace_csv(self, rng):
        Rhat = wishart_rhat(rng, 2, 20)
        sol = qspa_solve(Rhat, full_ruler(2), DELTA11, n=20)
        text = sol.trace_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,mu,objective,kkt_residual"
        assert len(lines) == len(sol.trace) + 1
        for line in lines[1:]:
            for value in line.split(","):
                float(value)  # raises on a numpy scalar repr such as np.float64(...)


class TestBarrierCalculus:
    @pytest.mark.parametrize("trial", range(50))
    def test_gradient_matches_central_differences(self, trial):
        rng = np.random.default_rng(9000 + trial)
        d = int(rng.integers(2, 7))
        ruler = full_ruler(d) if trial % 2 == 0 else make_ruler_alpha(d, 0.5)
        Rhat = wishart_rhat(rng, ruler.size, 4 * ruler.size)
        c = DELTA11.lag0_bias
        prob = _BarrierProblem(Rhat, ruler, c)
        v = _params_from_generators(feasible_generators(rng, d, c))
        mu = float(rng.uniform(0.05, 2.0))
        grad, _, _ = prob.newton_system(prob.evaluate(v), mu)
        h = 1e-5
        fd = np.empty_like(grad)
        for i in range(v.size):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (prob.evaluate(vp).barrier(mu) - prob.evaluate(vm).barrier(mu)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6)

    def test_frobenius_and_trace_forms_rank_identically(self, rng):
        # whitened Frobenius misfit equals the two-trace objective minus 2|Omega|
        m = 3
        ruler = full_ruler(m)
        Rhat = wishart_rhat(rng, m, 30)
        Rinv_sqrt = np.linalg.inv(np.linalg.cholesky(Rhat))
        vals_tr, vals_fro = [], []
        from qtcov import HermitianToeplitz
        for _ in range(10):
            gens = feasible_generators(rng, m, 0.0)
            A = HermitianToeplitz(gens).dense
            vals_tr.append(qspa_objective(gens, Rhat, ruler, DELTA0))
            W = np.linalg.inv(np.linalg.cholesky(A))
            M = W @ (Rhat - A) @ Rinv_sqrt.conj().T
            vals_fro.append(np.linalg.norm(M, "fro") ** 2)
        order_tr = np.argsort(vals_tr)
        order_fro = np.argsort(vals_fro)
        np.testing.assert_array_equal(order_tr, order_fro)
        np.testing.assert_allclose(np.array(vals_tr) - 2 * m, vals_fro, rtol=1e-8)


class TestStructuredHessian:
    """The FFT lag Hessian against the stacked direction-matrix construction."""

    @pytest.mark.parametrize("rspec", ["full", "alpha:0.5"])
    @pytest.mark.parametrize("d", [2, 3, 8, 16, 33])
    def test_matches_stacked_oracle(self, d, rspec, monkeypatch):
        rng = np.random.default_rng(7000 + d)
        ruler = resolve_ruler(rspec, d)
        Rhat = wishart_rhat(rng, ruler.size, 4 * ruler.size)
        c = DELTA11.lag0_bias
        prob = _BarrierProblem(Rhat, ruler, c)
        # T(u) - cI has smallest eigenvalue `margin`: inside the feasible set
        # and close to its boundary
        for margin in (1.0, 1e-2, 1e-4):
            gens = feasible_generators(rng, d, c, margin=0.0)
            shifted = HermitianToeplitz(gens).dense - c * np.eye(d)
            gens[0] += margin - np.linalg.eigvalsh(shifted)[0]
            point = prob.evaluate(_params_from_generators(gens))
            mu = float(rng.uniform(0.05, 2.0))
            _, H, _ = prob.newton_system(point, mu)
            with monkeypatch.context() as mp:
                mp.setattr(qspa, "_lag_hessian", stacked_lag_hessian)
                _, H_ref, _ = prob.newton_system(point, mu)
            assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))

    def test_solver_unchanged_on_golden_problems(self, monkeypatch):
        problems = golden_problems()
        solved = [qspa_solve(Rhat, ruler, spec, opts, n=n)
                  for Rhat, ruler, spec, opts, n in problems]
        monkeypatch.setattr(qspa, "_lag_hessian", stacked_lag_hessian)
        for (Rhat, ruler, spec, opts, n), sol in zip(problems, solved):
            ref = qspa_solve(Rhat, ruler, spec, opts, n=n)
            assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
            assert sol.objective == pytest.approx(ref.objective, rel=1e-12, abs=0.0)
            assert np.max(np.abs(sol.u - ref.u)) <= 1e-10 * np.max(np.abs(ref.u))


class TestFactorOnce:
    def test_no_point_is_factored_twice(self, monkeypatch):
        d = 16
        ruler = make_ruler_alpha(d, 0.5)
        spec = QuantizationSpec(5.0, 5.0)
        raw = sample_complex_gaussian(random_toeplitz_covariance(d, 5), ruler, 500, 6)
        Rhat = quantized_sample_covariance(quantize_batch(raw, spec))
        plain = qspa_solve(Rhat, ruler, spec, n=500)

        factored = {}
        cholesky = np.linalg.cholesky

        def counting(M):
            key = (M.shape, np.ascontiguousarray(M).tobytes())
            factored[key] = factored.get(key, 0) + 1
            return cholesky(M)
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "cholesky", counting)
            sol = qspa_solve(Rhat, ruler, spec, n=500)
        assert (sol.iterations, sol.objective) == (plain.iterations, plain.objective)
        for size in (ruler.size, d):
            counts = [k for (shape, _), k in factored.items() if shape == (size, size)]
            assert len(counts) > sol.iterations
            assert max(counts) == 1


class TestBarrierPath:
    """The mu schedule: accuracy against a tight reference, and path length."""

    # worst relative gaps to the reference over the golden problems with the
    # earlier fixed schedule (mu0 = 1, mu shrunk by 0.2 per centering):
    # 2.99e-10 in the objective, 1.99e-7 in u
    OBJECTIVE_GAP, U_GAP = 3.0e-10, 2.0e-7

    def test_as_close_to_the_reference_as_the_fixed_schedule(self):
        gaps = []
        for Rhat, ruler, spec, opts, n in golden_problems() + tuple(criterion8_problems(5)):
            sol = qspa_solve(Rhat, ruler, spec, opts, n=n)
            ref = reference_qspa_solve(Rhat, ruler, spec, n=n)
            assert sol.converged and ref.converged
            gaps.append((abs(sol.objective - ref.objective) / abs(ref.objective),
                         np.max(np.abs(sol.u - ref.u)) / np.max(np.abs(ref.u))))
        objective_gap, u_gap = np.max(gaps, axis=0)
        assert objective_gap <= self.OBJECTIVE_GAP
        assert u_gap <= self.U_GAP

    def test_newton_steps_on_golden_problems(self):
        # 642 steps with this schedule, 1701 with the fixed one; the bound
        # leaves room for rounding differences between BLAS builds
        steps = sum(qspa_solve(Rhat, ruler, spec, opts, n=n).iterations
                    for Rhat, ruler, spec, opts, n in golden_problems())
        assert steps <= 750
