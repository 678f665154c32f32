import math
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from coneproj import Simplicial, is_proper, lp_feasible, nnls, project
from coneproj import cones, kernels
from coneproj.kernels import (DEFAULT_BOX, DEFAULT_MARGIN, _norms, _row_min, _row_norms,
                              _rows_times)
from conftest import ring_cone


def unit_rows(G):
    """The rows of G scaled to unit length."""
    G = np.asarray(G, dtype=float)
    return G / np.linalg.norm(G, axis=1)[:, None]


def highs_feasible(G):
    """Reference verdict from HiGHS: maximize the common slack s of the unit
    rows of G x >= 0 over the box ||x||_inf <= box (with s <= box) and
    compare it with margin.  Returns (status, optimum s)."""
    G = unit_rows(G)
    m = G.shape[1]
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=np.column_stack([-G, np.ones(len(G))]), b_ub=np.zeros(len(G)),
                  bounds=[(-DEFAULT_BOX, DEFAULT_BOX)] * m + [(None, DEFAULT_BOX)], method="highs")
    assert res.success
    slack = float(res.x[-1])
    return ("feasible" if slack >= DEFAULT_MARGIN else "infeasible"), slack


def assert_witness(res, G):
    """A "feasible" verdict's witness, re-checked with one product."""
    x = res.witness
    slack = float((unit_rows(G) @ x).min())
    assert slack >= DEFAULT_MARGIN
    assert float(np.abs(x).max()) <= DEFAULT_BOX
    assert res.margin == slack


def assert_layout_agrees(res, G):
    """lp_feasible on G in Fortran order, as the library may pass it,
    returns res (from C order) bit for bit."""
    other = lp_feasible(np.asfortranarray(G))
    assert other.status == res.status
    assert (other.witness is None) == (res.witness is None)
    if res.witness is not None:
        assert np.array_equal(other.witness, res.witness)
    assert np.array_equal(other.margin, res.margin, equal_nan=True)


def thin_cone(rng, m, depth, axis):
    """Rows G of a cone {G x >= 0} of the given depth around `axis`: depth *
    d +- sqrt(1 - depth^2) w_j, with d the unit axis and w_j an orthonormal
    basis of its complement.  Its least-norm point with every slack 1 is d
    / depth."""
    d = axis / np.linalg.norm(axis)
    Q, _ = np.linalg.qr(np.column_stack([d, rng.standard_normal((m, m - 1))]))
    side = math.sqrt(1.0 - depth * depth)
    return np.array([depth * d + s * side * Q[:, j] for j in range(1, m) for s in (1.0, -1.0)])


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


def solve(A, b, max_iter=None):
    """nnls of one right-hand side: (coefficients, residual, clamped indices)."""
    C, _ = nnls(A, b[None, :], max_iter=max_iter)
    x = C[0]
    return x, float(np.linalg.norm(b - A @ x)), frozenset(np.flatnonzero(x == 0.0).tolist())


class TestNnls:
    def test_clamp(self):
        x, residual, active = solve(np.eye(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(x, [3.0, 0.0])
        assert residual == pytest.approx(1.0)
        assert active == frozenset({1})

    def test_interior(self):
        x, residual, active = solve(np.eye(2), np.array([2.0, 5.0]))
        np.testing.assert_allclose(x, [2.0, 5.0])
        assert residual == pytest.approx(0.0, abs=1e-14)
        assert active == frozenset()

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            A = rng.standard_normal((6, 4))
            b = rng.standard_normal(6)
            x, residual, _ = solve(A, b)
            _, ref_res = brute_force_nnls(A, b)
            assert residual == pytest.approx(ref_res, abs=1e-9)
            assert np.min(x) >= -1e-12

    def test_kkt_conditions(self, rng):
        for _ in range(30):
            A = rng.standard_normal((8, 5))
            b = rng.standard_normal(8)
            x, _, active = solve(A, b)
            grad = A.T @ (A @ x - b)
            for i in range(5):
                if i in active:
                    assert grad[i] >= -1e-8
                else:
                    assert abs(grad[i]) <= 1e-8

    def test_never_better_than_unconstrained(self, rng):
        A = rng.standard_normal((7, 4))
        b = rng.standard_normal(7)
        _, residual, _ = solve(A, b)
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert residual >= np.linalg.norm(A @ sol - b) - 1e-12

    def test_deterministic(self, rng):
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        x1, r1, _ = solve(A, b)
        x2, r2, _ = solve(A, b)
        assert np.array_equal(x1, x2)
        assert r1 == r2

    def test_rank_deficient_matches_brute_force(self):
        # Dependent columns: the second never enters once the first is passive.
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        for b in (np.ones(3), -np.ones(3), np.array([1.0, -2.0, 0.5])):
            x, residual, _ = solve(A, b)
            _, ref_res = brute_force_nnls(A, b)
            assert residual == pytest.approx(ref_res, abs=1e-12)
            assert np.min(x) >= 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            nnls(np.array([[1.0, 0.0], [0.0, bad]]), np.ones((1, 2)))
        # A non-finite right-hand side comes back NaN, and leaves the other rows be.
        C, iterations = nnls(np.eye(2), np.array([[1.0, bad], [3.0, -1.0]]))
        assert np.isnan(C[0]).all()
        assert np.array_equal(C[1], [3.0, 0.0])
        assert iterations[0] == 0

    @pytest.mark.parametrize("A, B", [
        (np.eye(2), np.ones(2)),
        (np.eye(2), np.ones((1, 3))),
        (np.ones(2), np.ones((1, 2))),
    ], ids=["vector-b", "wrong-length", "vector-A"])
    def test_bad_shape_rejected(self, A, B):
        with pytest.raises(ValueError, match="A must be"):
            nnls(A, B)

    def test_iteration_cap(self, rng):
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        x, _, _ = solve(A, b, max_iter=0)
        assert np.isnan(x).all()


QUADRANT = np.eye(2)


class TestLpFeasible:
    def test_open_quadrant(self):
        res = lp_feasible(QUADRANT)
        assert res.status == "feasible"
        assert np.min(res.witness) > 0

    def test_monotone_under_constraint_removal(self, rng):
        for _ in range(20):
            G = rng.standard_normal((6, 3))
            if lp_feasible(G).status == "feasible":
                assert lp_feasible(G[:-1]).status == "feasible"


# Feasible, but its unit rows sum to a shallow point: the solver decides it.
SHALLOW_ROW_SUM = np.array([[1.0, 0.0]] * 5 + [[-0.5, 0.866]])


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
            G = np.vstack([V.T, np.eye(m)])
            res = lp_feasible(G)
            assert res.status == "feasible"
            assert_witness(res, G)
            assert res.margin >= 2.0 * math.sqrt(m) * DEFAULT_MARGIN
            assert float(np.abs(res.witness).max()) == DEFAULT_BOX

    def test_shallow_row_sum_reaches_solver(self, solves):
        res = lp_feasible(SHALLOW_ROW_SUM)
        assert solves
        assert res.status == "feasible"
        assert_witness(res, SHALLOW_ROW_SUM)


class TestLpFeasibleAgainstHighs:
    """HiGHS as an independent oracle for the least-distance verdicts."""

    def test_random_systems(self):
        rng = np.random.default_rng(2024)
        for i in range(4000):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(2, 13))
            # Each odd draw takes an offset per row and is skipped, so the
            # even draws are the same systems whatever the odd ones were for.
            G = []
            for _ in range(k):
                u = rng.standard_normal(m)
                if i % 2:
                    rng.standard_normal()
                G.append(-u if rng.random() < 0.5 else u)
            if i % 2:
                continue
            G = np.array(G)
            res = lp_feasible(G)
            assert res.status == highs_feasible(G)[0], (i, G)
            if res.status == "feasible":
                assert_witness(res, G)
            assert_layout_agrees(res, G)
            # The candidate step leaves every verdict as the least-distance
            # route gives it.
            assert res.status == kernels._least_distance_feasible(unit_rows(G)).status, (i, G)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_thin_cones_near_threshold(self, m):
        # The LP optimum of thin_cone is at least box * depth, and at most
        # sqrt(m) * box * depth; its least-distance ratio is box * depth / max|d|.
        rng = np.random.default_rng(m)
        threshold = DEFAULT_MARGIN / DEFAULT_BOX
        for ratio in (0.05, 0.3, 0.6, 0.9, 1.1, 2.0, 10.0, 100.0, 1e4):
            for axis in (np.eye(m)[0], np.ones(m), rng.standard_normal(m)):
                G = thin_cone(rng, m, ratio * threshold, axis)
                res = lp_feasible(G)
                assert_layout_agrees(res, G)
                if ratio >= 1.1:
                    assert res.status == "feasible", (ratio, axis)
                if ratio * math.sqrt(m) <= 0.9:
                    assert res.status == "infeasible", (ratio, axis)
                status, slack = highs_feasible(G)
                if res.status == "feasible":
                    assert_witness(res, G)
                elif status == "feasible":
                    # The documented band: LP optimum below sqrt(m) * margin.
                    assert slack < math.sqrt(m) * DEFAULT_MARGIN, (ratio, axis)


@pytest.fixture
def operator_builds(monkeypatch):
    """The row count of the matrix of each _operator build: m + 1 for an
    NNLS operator of a least-distance solve in R^m, m for a least-norm one."""
    rows = []
    build = kernels._operator

    def counted(A, passive):
        rows.append(A.shape[0])
        return build(A, passive)

    monkeypatch.setattr(kernels, "_operator", counted)
    monkeypatch.setattr(kernels, "_solvers", {})
    return rows


class TestLpFeasibleGordan:
    """"Infeasible" proved by Gordan's bound, before the least-norm solve."""

    @pytest.mark.parametrize("eps", [(1.0, -1.0), (-1.0, -1.0), (1.0, -1.0, 1.0),
                                     (-1.0, 1.0, -1.0, -1.0)])
    def test_signed_orthant_pair_skips_least_norm_solve(self, operator_builds, eps):
        # int(K_eps) misses the orthant's interior: rows e_i and eps_i e_i.
        m = len(eps)
        res = lp_feasible(np.vstack([np.eye(m), np.diag(eps)]))
        assert res.status == "infeasible"
        assert res.witness is None and math.isnan(res.margin)
        assert operator_builds and m not in operator_builds

    @staticmethod
    def _least_distance_with(monkeypatch, G, u):
        """_least_distance(G, h) when the NNLS solve returns u."""
        monkeypatch.setattr(kernels, "nnls", lambda A, B: (u[None, :], np.zeros(1)))
        return kernels._least_distance(G, np.full(len(G), 0.5))

    @pytest.mark.parametrize("below, proved", [(2.0, True), (0.5, False)])
    def test_rounding_allowance(self, monkeypatch, operator_builds, below, proved):
        # Rows e_1 and -e_1 in R^2 with u = (1, v): the bound on min(G x) over
        # the box is box (1 - v) / (1 + v).  It is set `below` times the
        # allowance (k + m) eps sqrt(m) box under margin: a proof at 2, and
        # none at 0.5, where only the allowance keeps it from counting.
        G = np.array([[1.0, 0.0], [-1.0, 0.0]])
        allowance = 4 * kernels.EPS * math.sqrt(2.0) * DEFAULT_BOX
        r = (DEFAULT_MARGIN - below * allowance) / DEFAULT_BOX
        u = np.array([1.0, (1.0 - r) / (1.0 + r)])
        bound = float(np.abs(u @ G).sum()) / float(u.sum()) * DEFAULT_BOX
        assert abs(bound - (DEFAULT_MARGIN - below * allowance)) < 0.1 * allowance
        w = self._least_distance_with(monkeypatch, G, u)
        if proved:
            assert w.status == "infeasible"
            assert not operator_builds
        else:
            assert isinstance(w, np.ndarray)
            assert operator_builds == [2]

    def test_feasible_system_takes_no_exit(self, operator_builds):
        # For a solid cone the bound is at least the LP optimum, far above margin.
        G = unit_rows(SHALLOW_ROW_SUM)
        res = lp_feasible(G)
        assert res.status == "feasible"
        assert 2 in operator_builds


class TestLpFeasibleRobustness:
    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1.0, 1e160, 1e200])
    def test_open_quadrant_at_extreme_scales(self, scale):
        res = lp_feasible(scale * QUADRANT)
        assert res.status == "feasible"
        assert np.min(res.witness) > 0
        assert_witness(res, QUADRANT)

    def test_iteration_cap_is_indeterminate(self, monkeypatch):
        monkeypatch.setattr(kernels, "nnls", partial(nnls, max_iter=0))
        res = lp_feasible(SHALLOW_ROW_SUM)
        assert res.status == "indeterminate"
        assert res.witness is None
        # The candidate step needs no solver.
        assert lp_feasible(QUADRANT).status == "feasible"

    @pytest.mark.parametrize("k", [-600, -60, 0, 60, 600])
    def test_power_of_two_scaling(self, solves, k):
        # Unit rows are bit-identical under row scaling by 2**k, and so is
        # every verdict and witness, on both steps.
        for G, solved in ((QUADRANT, False), (SHALLOW_ROW_SUM, True)):
            base = lp_feasible(G)
            solves.clear()
            res = lp_feasible(np.ldexp(G, k))
            assert bool(solves) == solved
            assert res.status == base.status == "feasible"
            assert np.array_equal(res.witness, base.witness)
            assert res.margin == base.margin

    @pytest.mark.parametrize("cons, message", [
        (np.zeros((0, 2)), "no constraints"),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), "zero constraint normal"),
        (np.ones((1, 1, 2)), "dimensions disagree"),
        (np.ones(2), "dimensions disagree"),
        (np.array([[1.0, np.inf]]), "finite"),
    ])
    def test_bad_input(self, cons, message):
        with pytest.raises(ValueError, match=message):
            lp_feasible(cons)


def test_library_calls_the_public_kernels(monkeypatch):
    # A tracer that rebinds kernels.lp_feasible and cones.nnls sees every
    # feasibility question and every NNLS solve of a projection.
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "lp_feasible", counted("lp_feasible", lp_feasible))
    monkeypatch.setattr(cones, "nnls", counted("nnls", nnls))
    assert is_proper(ring_cone(8))
    assert calls == ["lp_feasible"]
    calls.clear()
    project(Simplicial(np.array([[1.0, 1.0], [0.0, 1.0]])), np.array([-1.0, 2.0]))
    assert calls == ["nnls"]


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


def test_rows_times_strided_x_and_f_order_m(forced_path, rng):
    # Rows of a strided X times M in C and in F order: each row as in its own
    # call, and the product within rounding of numpy's.
    X = (rng.standard_normal((1024, 8)) * 10.0 ** rng.uniform(-3.0, 3.0, (1024, 1)))[:, ::2]
    C = rng.standard_normal((4, 3))
    for M in (C, np.asfortranarray(C)):
        for size in (1, 2, 17, 1024):
            P = _rows_times(X[:size], M)
            for x, p in zip(X[:size], P):
                one = _rows_times(x[None, :], M)[0]
                np.testing.assert_array_equal(p.view(np.uint64), one.view(np.uint64))
            assert (np.abs(P - X[:size] @ M) <= 1e-14 * (np.abs(X[:size]) @ np.abs(M))).all()


def test_row_probe_refuses_a_product_that_depends_on_the_block(monkeypatch, rng):
    # One ulp added to every row of blocks over 16 rows must fail the probe,
    # and _rows_times must then multiply row by row.
    block_times = kernels._block_times

    def skewed(X, M):
        P = block_times(X, M)
        return np.nextafter(P, np.inf) if len(X) > 16 else P

    monkeypatch.setattr(kernels, "_block_times", skewed)
    monkeypatch.setattr(kernels, "_block_verdicts", {})
    X = rng.standard_normal((64, 4))
    M = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(_rows_times(X, M), np.matmul(X[:, None, :], M)[:, 0, :])
    assert kernels._block_verdicts == {(4, 3, True): False}
