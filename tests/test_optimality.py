import numpy as np
import pytest

from slopepath import ProblemInstance, check_optimality, signs_and_order, structure_from_beta
from slopepath.errors import InconsistentGroupsError

from conftest import grid_minimize, random_ascending_weights


def _groups(beta, tol):
    return structure_from_beta(beta, np.zeros(len(beta)), tol).groups()


class TestDeriveGroups:
    def test_distinct_values_are_singletons(self):
        groups = _groups(np.array([2.0, 1.0]), tol=1e-9)
        assert [g.tolist() for g in groups] == [[], [1], [0]]

    def test_ties_cluster(self):
        groups = _groups(np.array([1.0, -1.0, 0.0, 2.0]), tol=1e-9)
        assert [sorted(g.tolist()) for g in groups] == [[2], [0, 1], [3]]


class TestSignsAndOrder:
    def test_t2_at_unit_eta(self):
        beta = np.array([2.0, 1.0])
        gradient = np.array([-1.0, 0.0])  # X^T(X beta - y) for the 2x2 case
        groups = [np.array([], dtype=int), np.array([1]), np.array([0])]
        s, order = signs_and_order(beta, gradient, groups)
        assert s.tolist() == [-1.0, -1.0]
        assert order.tolist() == [1, 0]

    def test_zero_vector_orders_by_gradient(self):
        beta = np.zeros(3)
        gradient = np.array([-2.0, 0.5, -1.0])
        groups = [np.arange(3)]
        s, order = signs_and_order(beta, gradient, groups)
        assert s.tolist() == [-1.0, 1.0, -1.0]
        # ascending |gradient| within the zero group
        assert order.tolist() == [1, 2, 0]

    def test_gradient_ties_break_by_index(self):
        beta = np.array([1.0, -1.0])
        gradient = np.zeros(2)
        groups = [np.array([], dtype=int), np.array([0, 1])]
        s, order = signs_and_order(beta, gradient, groups)
        assert s.tolist() == [-1.0, 1.0]
        assert order.tolist() == [0, 1]

    def test_inconsistent_groups_rejected(self):
        beta = np.array([1.0, 5.0])
        with pytest.raises(InconsistentGroupsError):
            signs_and_order(beta, np.zeros(2),
                            [np.array([], dtype=int), np.array([0, 1])])


class TestCheckOptimality:
    def test_scalar_soft_threshold(self):
        # a zeroed scalar is optimal exactly when the weight dominates
        report = check_optimality(np.zeros(1), np.array([0.7]), np.array([1.0]))
        assert report.optimal
        report = check_optimality(np.zeros(1), np.array([1.3]), np.array([1.0]))
        assert not report.optimal

    def test_t2_optimal_point(self, t2_instance):
        beta = np.array([2.0, 1.0])
        report = check_optimality(beta, t2_instance.gradient(beta),
                                  np.array([0.0, 1.0]))
        assert report.optimal
        assert report.cond1_residuals == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_t2_unpenalized_solution_fails(self, t2_instance):
        beta = np.array([3.0, 1.0])  # least-squares solution, zero gradient
        report = check_optimality(beta, t2_instance.gradient(beta),
                                  np.array([0.0, 1.0]))
        assert not report.optimal
        assert report.worst_violation[0] == "cond1"
        assert report.worst_violation[3] == pytest.approx(1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = 5
            beta = rng.standard_normal(p)
            beta[rng.integers(0, p)] = 0.0
            grad = rng.standard_normal(p)
            lam = random_ascending_weights(rng, p)
            base = check_optimality(beta, grad, lam)
            perm = rng.permutation(p)
            other = check_optimality(beta[perm], grad[perm], lam)
            assert base.optimal == other.optimal
            assert base.worst_violation[3] == pytest.approx(
                other.worst_violation[3], rel=1e-12, abs=1e-15)

    def test_scale_consistency(self):
        rng = np.random.default_rng(8)
        beta = rng.standard_normal(4)
        grad = rng.standard_normal(4)
        lam = random_ascending_weights(rng, 4)
        c = 37.5
        base = check_optimality(beta, grad, lam, tol_eq=1e-9, tol_ineq=1e-9)
        scaled = check_optimality(beta, c * grad, c * lam, tol_eq=1e-9, tol_ineq=1e-9)
        assert scaled.cond1_residuals == pytest.approx(c * base.cond1_residuals)
        for (g1, k1, m1), (g2, k2, m2) in zip(base.slack_margins, scaled.slack_margins):
            assert (g1, k1) == (g2, k2)
            assert m2 == pytest.approx(c * m1, rel=1e-12, abs=1e-12)


class TestOracleAgreement:
    def test_grid_minimizer_passes_and_perturbations_fail(self):
        rng = np.random.default_rng(12)
        trials = 0
        while trials < 200:
            p = int(rng.integers(1, 5))
            n = p + 4
            X = rng.standard_normal((n, p)) / np.sqrt(n)
            gram = X.T @ X
            if np.linalg.cond(gram) > 50:
                continue
            trials += 1
            beta_true = rng.standard_normal(p) * 2
            y = X @ beta_true + 0.3 * rng.standard_normal(n)
            lam = random_ascending_weights(rng, p)
            inst = ProblemInstance(y=y, X=X)

            beta_star = grid_minimize(X, y, lam)
            report = check_optimality(beta_star, inst.gradient(beta_star), lam,
                                      tol_eq=1e-4, tol_ineq=1e-4, tie_tol=3e-5)
            assert report.optimal, (
                f"grid minimizer rejected: worst={report.worst_violation}")

            bumped = beta_star.copy()
            bumped[int(rng.integers(0, p))] += 1e-2
            report = check_optimality(bumped, inst.gradient(bumped), lam,
                                      tol_eq=1e-4, tol_ineq=1e-4, tie_tol=3e-5)
            assert not report.optimal
