import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from coneproj import (
    IndeterminateError,
    SingularMatrixError,
    lp_feasible,
    nnls,
)
from coneproj import kernels
from coneproj.kernels import DEFAULT_BOX, DEFAULT_MARGIN, _norms, _row_min, _row_norms


def unit_rows(constraints):
    """The constraints as rows G x >= h with unit normals."""
    G = np.array([u if sense == ">=" else -u for u, _, sense in constraints], dtype=float)
    h = np.array([c if sense == ">=" else -c for _, c, sense in constraints], dtype=float)
    norms = np.linalg.norm(G, axis=1)
    return G / norms[:, None], h / norms


def highs_feasible(constraints, box=DEFAULT_BOX, margin=DEFAULT_MARGIN):
    """Reference verdict from HiGHS: maximize the common slack s of the unit
    rows over the box ||x||_inf <= box (with s <= box) and compare it with
    margin.  Returns (status, optimum s)."""
    G, h = unit_rows(constraints)
    m = G.shape[1]
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=np.column_stack([-G, np.ones(len(h))]), b_ub=-h,
                  bounds=[(-box, box)] * m + [(None, box)], method="highs")
    assert res.success
    slack = float(res.x[-1])
    return ("feasible" if slack >= margin else "infeasible"), slack


def assert_witness(res, constraints, box=DEFAULT_BOX, margin=DEFAULT_MARGIN):
    """A "feasible" verdict's witness, re-checked with one product."""
    G, h = unit_rows(constraints)
    x = res.witness
    assert float((G @ x - h).min()) >= margin
    assert float(np.abs(x).max()) <= box
    assert res.margin == float((G @ x - h).min())


def assert_array_form_agrees(res, constraints):
    """kernels._feasible on the rows as arrays, as the library passes them
    (offsets +0, C or Fortran order), returns res bit for bit."""
    G = np.array([u if sense == ">=" else -u for u, _, sense in constraints], dtype=float)
    h = np.array([c if sense == ">=" else -c for _, c, sense in constraints], dtype=float) + 0.0
    for rows in (G, np.asfortranarray(G)):
        other = kernels._feasible(rows, h)
        assert other.status == res.status
        assert (other.witness is None) == (res.witness is None)
        if res.witness is not None:
            assert np.array_equal(other.witness, res.witness)
        assert np.array_equal(other.margin, res.margin, equal_nan=True)


def thin_cone(rng, m, depth, axis):
    """Homogeneous system of a cone of the given depth around `axis`: the
    rows depth * d +- sqrt(1 - depth^2) w_j, with d the unit axis and w_j an
    orthonormal basis of its complement.  Its least-norm point with every
    slack 1 is d / depth."""
    d = axis / np.linalg.norm(axis)
    Q, _ = np.linalg.qr(np.column_stack([d, rng.standard_normal((m, m - 1))]))
    side = math.sqrt(1.0 - depth * depth)
    rows = [depth * d + s * side * Q[:, j] for j in range(1, m) for s in (1.0, -1.0)]
    return [(u, 0.0, ">=") for u in rows]


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



# Feasible, but its unit rows sum to a shallow point: the solver decides it.
SHALLOW_ROW_SUM = [(np.array([1.0, 0.0]), 0.0, ">=")] * 5 + [(np.array([-0.5, 0.866]), 0.0, ">=")]


@pytest.fixture
def solves(monkeypatch):
    """A list that gains an entry at each least-distance solve."""
    calls = []
    solve = kernels._least_distance

    def counted(G, h):
        calls.append(G.shape)
        return solve(G, h)

    monkeypatch.setattr(kernels, "_least_distance", counted)
    return calls


class TestLpFeasibleCandidate:
    """The candidate step: the sum of the unit rows, taken as witness when deep."""

    def test_deep_system_skips_solver(self, monkeypatch):
        def fail(G, h):
            raise AssertionError("least-distance solve on a deep system")

        monkeypatch.setattr(kernels, "_least_distance", fail)
        rng = np.random.default_rng(3)
        for m in (2, 4, 6):
            # Interior of the orthant intersected with int(K*) for a cone K
            # of generators near the diagonal: deep, as the paper's pairs.
            V = np.abs(rng.standard_normal((m, m))) + np.eye(m)
            cons = [(v, 0.0, ">=") for v in V.T] + [(e, 0.0, ">=") for e in np.eye(m)]
            res = lp_feasible(cons)
            assert res.status == "feasible"
            assert_witness(res, cons)
            assert res.margin >= 2.0 * math.sqrt(m) * DEFAULT_MARGIN
            assert float(np.abs(res.witness).max()) == DEFAULT_BOX

    def test_shallow_row_sum_reaches_solver(self, solves):
        res = lp_feasible(SHALLOW_ROW_SUM)
        assert solves
        assert res.status == "feasible"
        assert_witness(res, SHALLOW_ROW_SUM)

    def test_inhomogeneous_reaches_solver(self, solves):
        res = lp_feasible([(np.array([1.0, 0.0]), 1.0, ">="), (np.array([0.0, 1.0]), 1.0, ">=")])
        assert solves
        assert res.status == "feasible"


class TestLpFeasibleAgainstHighs:
    """HiGHS as an independent oracle for the least-distance verdicts."""

    def test_random_systems(self):
        rng = np.random.default_rng(2024)
        for i in range(4000):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(2, 13))
            homogeneous = i % 2 == 0
            cons = [
                (rng.standard_normal(m),
                 0.0 if homogeneous else float(rng.standard_normal()),
                 "<=" if rng.random() < 0.5 else ">=")
                for _ in range(k)
            ]
            res = lp_feasible(cons)
            assert res.status == highs_feasible(cons)[0], (i, cons)
            if res.status == "feasible":
                assert_witness(res, cons)
            assert_array_form_agrees(res, cons)
            if homogeneous:
                # The candidate step leaves every verdict as the
                # least-distance route gives it.
                route = kernels._least_distance_feasible(
                    *kernels._unit_rows(*kernels._constraint_rows(cons)),
                    DEFAULT_BOX, DEFAULT_MARGIN)
                assert res.status == route.status, (i, cons)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_thin_cones_near_threshold(self, m):
        # The LP optimum of thin_cone is at least box * depth, and at most
        # sqrt(m) * box * depth; its least-distance ratio is box * depth / max|d|.
        rng = np.random.default_rng(m)
        threshold = DEFAULT_MARGIN / DEFAULT_BOX
        for ratio in (0.05, 0.3, 0.6, 0.9, 1.1, 2.0, 10.0, 100.0, 1e4):
            for axis in (np.eye(m)[0], np.ones(m), rng.standard_normal(m)):
                cons = thin_cone(rng, m, ratio * threshold, axis)
                res = lp_feasible(cons)
                assert_array_form_agrees(res, cons)
                if ratio >= 1.1:
                    assert res.status == "feasible", (ratio, axis)
                if ratio * math.sqrt(m) <= 0.9:
                    assert res.status == "infeasible", (ratio, axis)
                status, slack = highs_feasible(cons)
                if res.status == "feasible":
                    assert_witness(res, cons)
                elif status == "feasible":
                    # The documented band: LP optimum below sqrt(m) * margin.
                    assert slack < math.sqrt(m) * DEFAULT_MARGIN, (ratio, axis)

    def test_thin_inhomogeneous_threshold(self):
        # <g, x> >= 1 on a thin cone around e1: the least-norm point is
        # (1 + 2 margin) / depth * e1, inside the box iff depth >= (1 + 2 margin) / box.
        rng = np.random.default_rng(7)
        for m in (2, 3, 5):
            for ratio, expect in ((0.5, "infeasible"), (0.99, "infeasible"),
                                  (1.01, "feasible"), (2.0, "feasible"), (100.0, "feasible")):
                cons = [(u, 1.0, ">=") for u, _, _ in thin_cone(rng, m, ratio / DEFAULT_BOX, np.eye(m)[0])]
                res = lp_feasible(cons)
                assert res.status == expect, (m, ratio)
                assert_array_form_agrees(res, cons)
                if expect == "feasible":
                    assert_witness(res, cons)
                    assert highs_feasible(cons)[0] == "feasible"


class TestLpFeasibleRobustness:
    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1.0, 1e160, 1e200])
    def test_open_quadrant_at_extreme_scales(self, scale):
        cons = [(scale * np.array([1.0, 0.0]), 0.0, ">="), (scale * np.array([0.0, 1.0]), 0.0, ">=")]
        res = lp_feasible(cons)
        assert res.status == "feasible"
        assert np.min(res.witness) > 0
        assert_witness(res, [(u / scale, c, s) for u, c, s in cons])

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_interval_at_extreme_scales(self, scale):
        # 1 <= x <= 2 with each row (normal and offset) multiplied by scale.
        cons = [(np.array([scale]), scale, ">="), (np.array([scale]), 2.0 * scale, "<=")]
        res = lp_feasible(cons, margin=0.1)
        assert res.status == "feasible"
        assert 1.1 <= res.witness[0] <= 1.9

    def test_iteration_cap_is_indeterminate(self, monkeypatch):
        solve = kernels._lawson_hanson_rows
        monkeypatch.setattr(kernels, "_lawson_hanson_rows",
                            lambda A, B, ops, max_iter=None: solve(A, B, ops, 0))
        res = lp_feasible(SHALLOW_ROW_SUM)
        assert res.status == "indeterminate"
        assert res.witness is None
        # The candidate step needs no solver.
        res = lp_feasible([(np.array([1.0, 0.0]), 0.0, ">="), (np.array([0.0, 1.0]), 0.0, ">=")])
        assert res.status == "feasible"

    @pytest.mark.parametrize("k", [-600, -60, 0, 60, 600])
    def test_power_of_two_scaling(self, solves, k):
        # Unit rows are bit-identical under row scaling by 2**k, and so is
        # every verdict and witness, on both routes.
        quadrant = [(np.array([1.0, 0.0]), 0.0, ">="), (np.array([0.0, 1.0]), 0.0, ">=")]
        interval = [(np.array([1.0]), 1.0, ">="), (np.array([1.0]), 2.0, "<=")]
        for cons, solved in ((quadrant, False), (SHALLOW_ROW_SUM, True), (interval, True)):
            base = lp_feasible(cons, margin=0.1)
            solves.clear()
            res = lp_feasible([(np.ldexp(u, k), math.ldexp(c, k), s) for u, c, s in cons], margin=0.1)
            assert bool(solves) == solved
            assert res.status == base.status == "feasible"
            assert np.array_equal(res.witness, base.witness)
            assert res.margin == base.margin

    @pytest.mark.parametrize("cons, message", [
        ([], "no constraints"),
        ([(np.zeros(2), 0.0, ">=")], "zero constraint normal"),
        ([(np.ones(2), 0.0, ">="), (np.ones(3), 0.0, ">=")], "dimensions disagree"),
        ([(np.ones(2), 0.0, "==")], "unknown sense"),
        ([(np.array([1.0, np.inf]), 0.0, ">=")], "finite"),
        ([(np.ones(2), np.nan, "<=")], "finite"),
    ])
    def test_bad_input(self, cons, message):
        with pytest.raises(ValueError, match=message):
            lp_feasible(cons)


class TestNorms:
    def test_matches_numpy_norm(self, rng):
        for shape in [(5,), (1,), (4, 3), (7, 1), (1, 6)]:
            for scale in (1e-3, 1.0, 1e3, 1e100, 1e-100):
                M = scale * rng.standard_normal(shape)
                assert np.array_equal(_norms(M), np.linalg.norm(M))
                if M.ndim == 2:
                    for axis in (0, 1):
                        assert np.array_equal(_norms(M, axis=axis), np.linalg.norm(M, axis=axis))

    @pytest.mark.parametrize("k", [-700, -600, 600, 700])
    def test_extreme_scales(self, k):
        M = np.ldexp(np.array([[3.0, 0.0], [4.0, 1.0]]), k)
        assert np.array_equal(_norms(M, axis=0), np.ldexp(np.array([5.0, 1.0]), k))
        assert _norms(M[:, 0]) == math.ldexp(5.0, k)

    def test_zero_vector(self):
        assert np.array_equal(_norms(np.zeros((2, 3)), axis=1), np.zeros(2))

    def test_fast_path_matches_prescaled_norm(self, rng):
        # Vectors whose largest entry is 2**k, k from -1074 to 1023, mixing
        # entries down to the subnormals (the rest at most 2**(k-3), so no
        # norm overflows): the bits of the prescaled route.
        def prescaled(M, axis):
            e = np.frexp(np.abs(M).max(axis=axis, keepdims=True, initial=0.0))[1]
            n = np.linalg.norm(np.ldexp(M, -e), axis=axis)
            return np.ldexp(n, e.reshape(np.shape(n)))

        for k in range(-1074, 1024):
            M = np.ldexp(rng.uniform(0.5, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
                         k - 3 - rng.integers(0, 1100, (3, 4)) * rng.integers(0, 2, (3, 4)))
            M[:, 0] = math.ldexp(1.0, k)
            for axis in (None, 0, 1):
                np.testing.assert_array_equal(_norms(M, axis=axis), prescaled(M, axis))


ROW_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.0**-1022,
                       -2.0**-1030, 1.0, -3.0, 1e300])


@pytest.mark.parametrize("m", range(1, 9))
def test_row_reductions_match_numpy(m, rng):
    # Bit for bit, as the sign bits show, along the rows of blocks of every size.
    for size in (1, 2, 7, 64, 1024):
        X = rng.choice(ROW_VALUES, (size, m))
        np.testing.assert_array_equal(_row_norms(X).view(np.uint64),
                                      np.hypot.reduce(X, axis=1, initial=0.0).view(np.uint64))
        low = X.min(axis=1)
        # A row whose minimum is a zero of both signs may keep either one,
        # depending on how numpy's SIMD lanes split the row.
        zeros = X == 0.0
        tie = (low == 0.0) & (zeros & np.signbit(X)).any(axis=1) & (zeros & ~np.signbit(X)).any(axis=1)
        got = _row_min(X)
        np.testing.assert_array_equal(got[~tie].view(np.uint64), low[~tie].view(np.uint64))
        assert (got[tie] == 0.0).all()
