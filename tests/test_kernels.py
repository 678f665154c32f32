from itertools import combinations

import numpy as np
import pytest

from coneproj import (
    IndeterminateError,
    SingularMatrixError,
    lp_feasible,
    nnls,
)


def brute_force_nnls(A, b):
    """Exhaustive search over all active sets; the NNLS reference."""
    n = A.shape[1]
    best = None
    best_res = np.inf
    for size in range(n + 1):
        for free in combinations(range(n), size):
            x = np.zeros(n)
            if free:
                sol, *_ = np.linalg.lstsq(A[:, list(free)], b, rcond=None)
                if np.min(sol) < 0:
                    continue
                x[list(free)] = sol
            res = np.linalg.norm(A @ x - b)
            if res < best_res - 1e-12:
                best_res = res
                best = x
    return best, best_res


class TestNnls:
    def test_clamp(self):
        res = nnls(np.eye(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(res.coefficients, [3.0, 0.0])
        assert res.residual == pytest.approx(1.0)
        assert res.active == frozenset({1})

    def test_interior(self):
        res = nnls(np.eye(2), np.array([2.0, 5.0]))
        np.testing.assert_allclose(res.coefficients, [2.0, 5.0])
        assert res.residual == pytest.approx(0.0, abs=1e-14)
        assert res.active == frozenset()

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            A = rng.standard_normal((6, 4))
            b = rng.standard_normal(6)
            res = nnls(A, b)
            _, ref_res = brute_force_nnls(A, b)
            assert res.residual == pytest.approx(ref_res, abs=1e-9)
            assert np.min(res.coefficients) >= -1e-12

    def test_kkt_conditions(self, rng):
        for _ in range(30):
            A = rng.standard_normal((8, 5))
            b = rng.standard_normal(8)
            res = nnls(A, b)
            grad = A.T @ (A @ res.coefficients - b)
            for i in range(5):
                if i in res.active:
                    assert grad[i] >= -1e-8
                else:
                    assert abs(grad[i]) <= 1e-8

    def test_never_better_than_unconstrained(self, rng):
        A = rng.standard_normal((7, 4))
        b = rng.standard_normal(7)
        res = nnls(A, b)
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert res.residual >= np.linalg.norm(A @ sol - b) - 1e-12

    def test_deterministic(self, rng):
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        r1 = nnls(A, b)
        r2 = nnls(A, b)
        assert np.array_equal(r1.coefficients, r2.coefficients)
        assert r1.residual == r2.residual

    def test_rank_deficient_rejected(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularMatrixError):
            nnls(A, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            nnls(np.eye(2), np.array([1.0, bad]))

    def test_iteration_cap(self, rng):
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        with pytest.raises(IndeterminateError):
            nnls(A, b, max_iter=0)


class TestLpFeasible:
    def test_interval(self):
        res = lp_feasible(
            [(np.array([1.0]), 1.0, ">="), (np.array([1.0]), 2.0, "<=")],
            margin=0.1,
        )
        assert res.status == "feasible"
        assert 1.0 <= res.witness[0] <= 2.0

    def test_empty_interval(self):
        res = lp_feasible(
            [(np.array([1.0]), 1.0, ">="), (np.array([1.0]), 0.0, "<=")]
        )
        assert res.status == "infeasible"

    def test_open_quadrant(self):
        res = lp_feasible(
            [(np.array([1.0, 0.0]), 0.0, ">="), (np.array([0.0, 1.0]), 0.0, ">=")]
        )
        assert res.status == "feasible"
        assert np.min(res.witness) > 0

    def test_monotone_under_constraint_removal(self, rng):
        for _ in range(20):
            cons = [
                (rng.standard_normal(3), rng.standard_normal(), "<=")
                for _ in range(6)
            ]
            full = lp_feasible(cons)
            reduced = lp_feasible(cons[:-1])
            if full.status == "feasible":
                assert reduced.status == "feasible"

