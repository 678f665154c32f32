import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from coneproj import (
    DimensionMismatchError,
    Lorentz,
    MonotoneNonneg,
    NonConvergenceError,
    Orthant,
    PolyhedralH,
    PolyhedralV,
    SignedOrthant,
    Simplicial,
    UnsupportedConeError,
    cone_margin,
    dual,
    generator_matrix,
    membership,
    moreau,
    pava,
    project,
    project_oracle,
)
from coneproj import cones, isotonic, kernels
from conftest import random_simplicial, ring_cone
from lemmas import boundary_ray_preimage_check


def lorentz_qp_reference(x):
    """Projection onto the Lorentz cone by a generic constrained solver."""
    m = x.size

    def objective(z):
        return 0.5 * np.sum((z - x) ** 2)

    cons = {"type": "ineq", "fun": lambda z: z[-1] - np.linalg.norm(z[:-1])}
    res = minimize(objective, np.maximum(x, 0.1), constraints=[cons], method="SLSQP",
                   options={"maxiter": 200, "ftol": 1e-14})
    return res.x


class TestProject:
    def test_orthant_clamp(self):
        r = project(Orthant(3), np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(r.point, [1.0, 0.0, 3.0])
        assert r.active_facets == frozenset({1})
        assert r.iterations == 0

    def test_signed_orthant(self):
        K = SignedOrthant(np.array([-1.0, 1.0]))
        r = project(K, np.array([1.0, 1.0]))
        np.testing.assert_allclose(r.point, [0.0, 1.0])

    def test_lorentz_closed_form(self):
        r = project(Lorentz(3), np.array([0.0, 4.0, 3.0]))
        np.testing.assert_allclose(r.point, [0.0, 3.5, 3.5])

    def test_lorentz_fixed_and_zero(self):
        assert np.array_equal(
            project(Lorentz(3), np.array([1.0, 1.0, 5.0])).point, [1.0, 1.0, 5.0]
        )
        np.testing.assert_allclose(
            project(Lorentz(3), np.array([1.0, 0.0, -5.0])).point, np.zeros(3)
        )

    def test_lorentz_matches_qp_reference(self, rng):
        for _ in range(10):
            x = 3.0 * rng.standard_normal(4)
            p = project(Lorentz(4), x).point
            ref = lorentz_qp_reference(x)
            assert np.linalg.norm(p - ref) < 1e-5

    def test_simplicial_zero_iff_in_minus_dual(self, rng):
        K = random_simplicial(rng, 4)
        Kd = dual(K)
        for _ in range(200):
            x = 5.0 * rng.standard_normal(4)
            p = project(K, x).point
            in_minus_dual = membership(Kd, -x, 1e-9)
            assert (np.linalg.norm(p) <= 1e-8) == in_minus_dual

    def test_result_contract(self, rng):
        for K in [Orthant(4), Lorentz(4), random_simplicial(rng, 4), MonotoneNonneg(4)]:
            Kd = dual(K)
            for _ in range(100):
                x = 5.0 * rng.standard_normal(4)
                r = project(K, x)
                assert membership(K, r.point, 1e-8)
                assert membership(Kd, r.dual_point, 1e-8)
                np.testing.assert_allclose(x, r.point - r.dual_point, atol=1e-9)
                assert abs(float(r.point @ r.dual_point)) < 1e-8
                assert r.residual == pytest.approx(np.linalg.norm(x - r.point))


# Columns (1, 0) and (1, 1).
SKEW_SIMPLICIAL = Simplicial(np.array([[1.0, 1.0], [0.0, 1.0]]))
# Columns (1, 0, 1), (0, 1, 1) and (-1, -1, 1).
THREE_GENERATORS = PolyhedralV(3, np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0],
                                            [1.0, 1.0, 1.0]]))
# A 5-facet cone and a point whose projection lies 9.4e-7 from the apex, close
# enough that a loose optimality check accepts the apex.
NEAR_APEX_CONE = PolyhedralH(3, np.array([
    [-0.20103561927551253, -0.13621964599642405, 1.2144426459202131],
    [-0.9858081610369416, 0.02768848803784114, 2.5680021694050312],
    [1.196509322232041, -0.5355738697241406, -0.4990076368585456],
    [-0.05333795034071103, 1.1839189901651723, 0.4186614417667028],
    [-0.929317254095436, -0.8322889271300605, 0.06594358355223454],
]))
NEAR_APEX_POINT = np.array(
    [0.015288904957821106, 0.008511980478305514, -0.0011300255322874958])


def _exactness_cases():
    # 30 facets: about (0.063952, -0.020779, 0.066875), 23.670742 from x; the
    # apex is 23.670931 away.  Reference from enumerating every active set.
    yield pytest.param(
        ring_cone(30),
        np.array([16.10163254264054, -4.663284814903558, -16.712396645976323]),
        lambda: np.array([0.06395243459134292, -0.02077940562076197, 0.06687520181341]),
        id="ring30",
    )
    yield pytest.param(SKEW_SIMPLICIAL, np.array([-1.0, 2.0]) * 1e-300,
                       lambda: np.array([0.5, 0.5]) * 1e-300, id="simplicial-1e-300")
    yield pytest.param(NEAR_APEX_CONE, NEAR_APEX_POINT,
                       lambda: project_oracle(NEAR_APEX_CONE, NEAR_APEX_POINT),
                       id="near-apex")
    # About (1.1545, 0.4782, 1.1545) * 1e-20; an absolute feasibility slack
    # in the oracle accepts x itself.
    tiny = np.array([2.0, 0.5, 0.3]) * 1e-20
    yield pytest.param(ring_cone(8), tiny, lambda: project_oracle(ring_cone(8), tiny),
                       id="ring8-oracle-1e-20")
    # Positive homogeneity: P(s x) = s P(x).
    bases = [
        ("simplicial", SKEW_SIMPLICIAL, np.array([-1.0, 2.0])),
        ("ring8", ring_cone(8), np.array([2.0, 0.5, 0.3])),
        ("generators3", THREE_GENERATORS, np.array([2.0, -1.0, 0.5])),
    ]
    for name, K, x in bases:
        for s in (1e-200, 1e-150, 1e-100, 1e-50, 1e50, 1e100, 1e150, 1e200):
            yield pytest.param(K, s * x, lambda K=K, x=x, s=s: s * project(K, x).point,
                               id=f"{name}-homogeneous-{s:.0e}")


@pytest.mark.parametrize("cone, x, expected", _exactness_cases())
def test_projection_exact(cone, x, expected):
    p = project(cone, x).point
    assert np.max(np.abs(p - expected())) <= 1e-8 * np.max(np.abs(x))


def test_residual_does_not_overflow():
    assert project(Orthant(2), np.array([1e200, -1e200])).residual == 1e200


# Columns (1, 1) and (-1, 1), normalized: E^T x is exactly 0 on either column.
ROTATION2 = Simplicial(np.array([[1.0, -1.0], [1.0, 1.0]]))
# 1e300 x takes E^T x off 0 in the last bits, and a power of two scales it
# exactly: the active facets must come out the same.
ROTATION_SCALES = (1.0, 1e-300, 1e300, 2.0**997, 2.0**-997)


def _active_facet_cases():
    """(cone, x, active facets, iterations, scales) on degenerate rows: the
    origin, -0.0 entries, points on a facet, zero coefficients and halfspace
    rows within 1e-9 max|x| of a facet."""
    orthant = Orthant(3)
    signed = SignedOrthant(np.array([1.0, -1.0, 1.0]))
    ring4 = ring_cone(4)
    scales = (1.0, 1e300, 1e-300)
    yield orthant, [0.0, 0.0, 0.0], {0, 1, 2}, 0, scales
    yield orthant, [-0.0, 1.0, -2.0], {0, 2}, 0, scales
    yield orthant, [0.0, 2.0, 3.0], {0}, 0, scales
    yield signed, [-0.0, 0.0, 1.0], {0, 1}, 0, scales
    yield signed, [2.0, -3.0, -1.0], {2}, 0, scales
    yield ROTATION2, [0.0, 0.0], {0, 1}, 0, scales
    yield ROTATION2, [1.0, 1.0], {1}, 0, ROTATION_SCALES
    yield ROTATION2, [-1.0, 1.0], {0}, 0, ROTATION_SCALES
    yield ROTATION2, [-2.0, 0.0], {0}, 0, scales
    yield ROTATION2, [-0.0, -1.0], {0, 1}, 0, scales
    yield SKEW_SIMPLICIAL, [0.0, 0.0], {0, 1}, 0, scales
    yield SKEW_SIMPLICIAL, [-0.0, 1.0], {0}, 1, scales
    yield SKEW_SIMPLICIAL, [1.0, 0.0], {1}, 1, scales
    yield SKEW_SIMPLICIAL, [-1.0, 2.0], {0}, 1, scales
    yield SKEW_SIMPLICIAL, [3.0, -1.0], {1}, 1, scales
    yield ring4, [0.0, 0.0, 0.0], {0, 1, 2, 3}, 0, scales
    yield ring4, [0.0, -0.0, 1.0], set(), 0, scales
    yield ring4, [1.0, 0.0, 1.0], {0}, 0, scales
    yield ring4, [1.0 - 5e-10, 0.0, 1.0], {0}, 0, scales
    yield ring4, [1.0 - 2e-9, 0.0, 1.0], set(), 0, scales
    yield ring4, [2.0, 0.5, 0.3], {0}, 1, scales
    yield ring_cone(8), [2.0, 0.5, 0.3], {0, 1}, 2, scales
    yield THREE_GENERATORS, [0.0, -0.0, 0.0], None, 0, scales
    yield THREE_GENERATORS, [1.0, 0.0, 1.0], None, 1, scales
    yield THREE_GENERATORS, [2.0, -1.0, 0.5], None, 1, scales
    yield Lorentz(3), [-0.0, 0.0, 0.0], None, 0, scales
    yield Lorentz(3), [3.0, 4.0, 5.0], None, 0, scales
    yield Lorentz(2), [1.0, 1.0], None, 0, scales
    yield MonotoneNonneg(3), [0.0, -0.0, 0.0], None, 0, scales
    yield MonotoneNonneg(3), [1.0, 2.0, -1.0], None, 0, scales


@pytest.mark.parametrize("cone, x, active, iterations, scales", _active_facet_cases(),
                         ids=lambda v: type(v).__name__ if isinstance(v, cones._Cone) else None)
def test_active_facets_and_iterations(cone, x, active, iterations, scales):
    for s in scales:
        r = project(cone, s * np.array(x))
        assert r.active_facets == (None if active is None else frozenset(active)), s
        assert type(r.iterations) is int and r.iterations == iterations, s


ROTATION4 = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))[0]
ROW_KERNEL_CONES = [
    Orthant(4),
    SignedOrthant(np.array([1.0, -1.0, -1.0, 1.0])),
    Lorentz(4),
    Lorentz(2),
    Simplicial(ROTATION4),
    SKEW_SIMPLICIAL,
    MonotoneNonneg(4),
    ring_cone(8),
    THREE_GENERATORS,
]


def kernel_test_rows(cone, rng):
    """Random rows with norms from 1e-3 to 1e3, the origin, and +-e_m."""
    m = cone.dim
    X = 10.0 ** rng.uniform(-3.0, 3.0, (40, 1)) * rng.standard_normal((40, m))
    X[0] = 0.0
    X[1] = np.eye(m)[-1]
    X[2] = -X[1]
    return X


@pytest.mark.parametrize("cone", ROW_KERNEL_CONES, ids=lambda K: type(K).__name__)
def test_row_kernel_matches_project(cone, rng):
    X = kernel_test_rows(cone, rng)
    P = cone._solve_rows(X)[0]
    for x, p in zip(X, P):
        np.testing.assert_array_equal(p, project(cone, x).point)


@pytest.mark.parametrize("cone", ROW_KERNEL_CONES, ids=lambda K: type(K).__name__)
def test_row_kernel_matches_project_on_forced_path(forced_path, cone, rng):
    test_row_kernel_matches_project(cone, rng)


@pytest.mark.parametrize("cone", ROW_KERNEL_CONES, ids=lambda K: type(K).__name__)
def test_margin_kernel_matches_cone_margin(cone, rng):
    X = kernel_test_rows(cone, rng)
    for x, mg in zip(X, cone._margin_rows(X)):
        assert mg == cone_margin(cone, x)


# Every family: the four solver cones first, under their type names, then
# the closed forms, an orthonormal simplicial cone among them.
BLOCK_CONES = {
    "Simplicial": SKEW_SIMPLICIAL,
    "PolyhedralH": ring_cone(8),
    "PolyhedralV": THREE_GENERATORS,
    "MonotoneNonneg": MonotoneNonneg(4),
    "Orthant": Orthant(4),
    "SignedOrthant": SignedOrthant(np.array([1.0, -1.0, -1.0, 1.0])),
    "Lorentz": Lorentz(4),
    "Lorentz2": Lorentz(2),
    "OrthonormalSimplicial": Simplicial(ROTATION4),
}


@pytest.mark.parametrize("cone", BLOCK_CONES.values(), ids=BLOCK_CONES.keys())
@pytest.mark.parametrize("size", [1, 2, 7, 512, 1024])
def test_row_kernels_independent_of_block(cone, size):
    # Rows at the extremes of scale, each inside a block of random rows, must
    # come out bit for bit as in their own one-row call.
    rng = np.random.default_rng(size)
    m = cone.dim
    for s in (0.0, 1e-300, 1.0, 1e300):
        x = s * np.linspace(-1.0, 1.5, m)[::-1]
        X = rng.standard_normal((size, m)) * 10.0 ** rng.uniform(-3.0, 3.0, (size, 1))
        X[int(rng.integers(size))] = x
        i = int(np.flatnonzero((X == x).all(axis=1))[0])
        np.testing.assert_array_equal(cone._solve_rows(X)[0][i],
                                      cone._solve_rows(x[None, :])[0][0])
        np.testing.assert_array_equal(cone._margin_rows(X)[i],
                                      cone._margin_rows(x[None, :])[0])
    # The falsifier's directions, from its uniforms with one row at their
    # extremes: each row as in its own call, and each in the cone up to
    # rounding at the scale of its draw (a projection is exact only so far).
    for scale in (1e-300, 10.0, 1e300):
        n, directions = cone._directions(scale)
        U = isotonic._uniforms(rng.integers(0, 2**64, (size, n), dtype=np.uint64))
        U[int(rng.integers(size))] = np.resize([2.0**-53, 1.0 - 2.0**-53], n)
        D = directions(U)
        for u, d in zip(U, D):
            np.testing.assert_array_equal(d, directions(u[None, :])[0])
            assert membership(cone, d / scale)


@pytest.mark.parametrize("cone", BLOCK_CONES.values(), ids=BLOCK_CONES.keys())
@pytest.mark.parametrize("size", [1, 2, 7, 512, 1024])
def test_row_kernels_independent_of_block_on_forced_path(forced_path, cone, size):
    test_row_kernels_independent_of_block(cone, size)


@pytest.mark.parametrize("cone", BLOCK_CONES.values(), ids=BLOCK_CONES.keys())
def test_projection_commutes_with_powers_of_two(cone, rng):
    # P(2**k x) = 2**k P(x) bit for bit, signs of zero included, on rows with
    # norms from 1e-3 to 1e3, so no entry nears the subnormals.
    X = kernel_test_rows(cone, rng)
    P = [project(cone, x).point for x in X]
    for k in (-600, -300, -60, -1, 1, 60, 300, 600):
        for x, p in zip(X, P):
            np.testing.assert_array_equal(project(cone, np.ldexp(x, k)).point.view(np.uint64),
                                          np.ldexp(p, k).view(np.uint64))


@pytest.mark.parametrize("scale", [1e200, 1e-300])
def test_generator_margin_does_not_overflow(scale):
    x = scale * np.array([-2.0, 0.5, 0.3])
    assert cone_margin(PolyhedralV(3, np.eye(3)), x) == -2.0 * scale


def row_bits(cone, X):
    """Projections of the rows of X, each in its own call, as bytes."""
    return [cone._solve_rows(x[None, :])[0][0].tobytes() for x in X]


def cold_row_bits(cone, X):
    """row_bits with nnls's table emptied before each row."""
    bits = []
    for x in X:
        kernels._solvers.clear()
        bits.extend(row_bits(cone, x[None, :]))
    return bits


def test_operator_cache_is_bounded(monkeypatch, rng):
    # nnls's table keeps at most OPERATOR_CACHE_SIZE operators a matrix and
    # _SOLVER_CACHE_SIZE matrices, and what it holds (nothing, the operators
    # of this cone or of an equal one, or of other matrices) does not change
    # a row, bit for bit.
    monkeypatch.setattr(kernels, "OPERATOR_CACHE_SIZE", 2)
    monkeypatch.setattr(kernels, "_SOLVER_CACHE_SIZE", 2)
    monkeypatch.setattr(kernels, "_solvers", {})
    X = rng.standard_normal((200, 3))
    cold = cold_row_bits(ring_cone(8), X)
    kernels._solvers.clear()
    K = ring_cone(8)
    assert [p.tobytes() for p in K._solve_rows(X)[0]] == cold
    (_, operators), = kernels._solvers.values()
    assert 1 <= len(operators) <= 2
    assert row_bits(K, X) == cold  # warm
    assert row_bits(ring_cone(8), X) == cold  # warmed by an equal cone
    others = [ring_cone(k) for k in (5, 6, 7)]
    for x, bits in zip(X, cold):
        for L in others:
            L._solve_rows(x[None, :])
            assert len(kernels._solvers) <= 2
            assert all(len(ops) <= 2 for _, ops in kernels._solvers.values())
        assert row_bits(K, x[None, :]) == [bits]


def test_operator_cache_keeps_c_and_f_order_apart(monkeypatch, rng):
    # Simplicial stores its columns in C order and PolyhedralV the same
    # values in F order; _operator rounds the two differently, so each cone
    # must come out as on a table that never held the other's operators.
    monkeypatch.setattr(kernels, "_solvers", {})
    for m in (2, 3, 4, 5):
        E = rng.standard_normal((m, m))
        S, V = Simplicial(E), PolyhedralV(m, E)
        assert S.columns.tobytes() == V.generators.tobytes()
        assert S.columns.strides != V.generators.strides
        X = rng.standard_normal((100, m))
        cold = [cold_row_bits(K, X) for K in (S, V)]
        for first, second in ((0, 1), (1, 0)):
            kernels._solvers.clear()
            assert row_bits((S, V)[first], X) == cold[first]
            assert row_bits((S, V)[second], X) == cold[second]
            # Each table entry holds what its own layout computes.
            for A in (S.columns, V.generators):
                _, operators = kernels._solvers[A.shape, A.strides, A.tobytes()]
                for mask, op in operators.items():
                    expected = kernels._operator(A, np.frombuffer(mask, dtype=bool))
                    assert op.tobytes() == expected.tobytes()


def test_operator_cache_shared_by_threads(monkeypatch):
    # Two threads solve the triangle cone's rows on fresh, equal cones at the
    # same time, sharing one table entry whose small bound keeps it emptying
    # and refilling, and switching often: each comes out as the sequential
    # solve, bit for bit.
    monkeypatch.setattr(kernels, "OPERATOR_CACHE_SIZE", 2)
    monkeypatch.setattr(kernels, "_solvers", {})
    G = np.eye(3) - 0.4 * (np.ones((3, 3)) - np.eye(3))
    E = np.linalg.cholesky(G).T
    X = np.random.default_rng(24).standard_normal((2000, 3))
    expected = row_bits(Simplicial(E), X)
    start = threading.Barrier(2)
    results = [None, None]

    def solve(i):
        K = Simplicial(E)
        start.wait()
        results[i] = row_bits(K, X[::-1] if i else X)

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == expected
    assert results[1] == expected[::-1]


@pytest.mark.parametrize("cone, x", [
    (SKEW_SIMPLICIAL, [-1.0, 2.0]),
    (ring_cone(8), [2.0, 0.5, 0.3]),
    (THREE_GENERATORS, [2.0, -1.0, 0.5]),
], ids=["simplicial", "halfspaces", "generators"])
def test_solver_cap_raises_nonconvergence(monkeypatch, cone, x):
    monkeypatch.setattr(cones, "nnls", partial(kernels.nnls, max_iter=0))
    with pytest.raises(NonConvergenceError):
        project(cone, np.array(x))


NONFINITE_CONES = [
    Orthant(3),
    SignedOrthant(np.array([1.0, -1.0, 1.0])),
    Simplicial(np.triu(np.ones((3, 3)))),
    ring_cone(8),
    THREE_GENERATORS,
    Lorentz(3),
    MonotoneNonneg(3),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cone", NONFINITE_CONES, ids=lambda K: type(K).__name__)
def test_nonfinite_input_rejected(cone, bad):
    with pytest.raises(ValueError, match="finite") as info:
        project(cone, np.array([1.0, bad, -1.0]))
    assert not isinstance(info.value, DimensionMismatchError)


class TestOracleAgreement:
    def test_orthant(self):
        np.testing.assert_allclose(
            project_oracle(Orthant(2), np.array([-1.0, -1.0])), [0.0, 0.0]
        )

    def test_monotone(self):
        np.testing.assert_allclose(
            project_oracle(MonotoneNonneg(3), np.array([3.0, 1.0, 2.0])),
            [3.0, 1.5, 1.5],
        )

    def test_simplicial_random(self, rng):
        for _ in range(50):
            K = random_simplicial(rng, 4)
            x = 10.0 * rng.standard_normal(4)
            assert np.max(np.abs(project(K, x).point - project_oracle(K, x))) < 1e-8

    def test_halfspace_random(self, rng):
        for _ in range(25):
            K = PolyhedralH(3, rng.standard_normal((6, 3)))
            x = 10.0 * rng.standard_normal(3)
            assert np.max(np.abs(project(K, x).point - project_oracle(K, x))) < 1e-8

    def test_generator_cone_random(self, rng):
        for _ in range(25):
            K = PolyhedralV(3, rng.standard_normal((3, 5)))
            x = 10.0 * rng.standard_normal(3)
            assert np.max(np.abs(project(K, x).point - project_oracle(K, x))) < 1e-8

    def test_representation_too_large(self, rng):
        K = PolyhedralH(3, rng.standard_normal((25, 3)))
        with pytest.raises(UnsupportedConeError):
            project_oracle(K, np.zeros(3))


def pool_adjacent_violators(y):
    """Nonincreasing isotonic regression by merging adjacent violating blocks."""
    means, counts = [], []
    for v in y:
        means.append(float(v))
        counts.append(1)
        while len(means) > 1 and means[-2] < means[-1]:
            total = means[-2] * counts[-2] + means[-1] * counts[-1]
            counts[-2] += counts[-1]
            means[-2] = total / counts[-2]
            means.pop()
            counts.pop()
    return np.repeat(means, counts)


class TestPava:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_pool_adjacent_violators(self, values):
        # The same merges in the same order, so bit for bit.
        y = np.asarray(values)
        np.testing.assert_array_equal(pava(y), pool_adjacent_violators(y))

    def test_long_input(self):
        # Linear work and memory: a row of 100,000 entries.
        m = 100_000
        np.testing.assert_array_equal(pava(np.zeros(m)), np.zeros(m))
        np.testing.assert_allclose(pava(np.arange(m, dtype=float)), np.full(m, (m - 1) / 2))
        assert MonotoneNonneg(m)._solve_rows(np.ones((2, m)))[0].shape == (2, m)

    def test_already_monotone(self):
        np.testing.assert_allclose(pava([3.0, 2.0, 1.0]), [3.0, 2.0, 1.0])

    @pytest.mark.parametrize("y", [[1.0, np.nan, 2.0], [np.inf, 0.0], [[1.0, 2.0]]],
                             ids=["nan", "inf", "matrix"])
    def test_rejects_non_finite_or_non_vector(self, y):
        with pytest.raises(ValueError, match="finite vector"):
            pava(y)

    def test_full_pool(self):
        np.testing.assert_allclose(pava([1.0, 2.0, 3.0]), [2.0, 2.0, 2.0])

    def test_partial_pool(self):
        np.testing.assert_allclose(pava([3.0, 1.0, 2.0]), [3.0, 1.5, 1.5])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_properties(self, values):
        y = np.asarray(values)
        p = pava(y)
        assert np.all(np.diff(p) <= 1e-12)  # nonincreasing
        np.testing.assert_allclose(pava(p), p, atol=1e-12)  # idempotent
        # Residual orthogonality characterizes the projection onto the chain.
        assert abs(float((y - p) @ p)) < 1e-8 * (1 + float(np.sum(y * y)))

    def test_clamp_matches_oracle(self, rng):
        for _ in range(50):
            y = 5.0 * rng.standard_normal(5)
            p = np.maximum(pava(y), 0.0)
            ref = project_oracle(MonotoneNonneg(5), y)
            assert np.max(np.abs(p - ref)) < 1e-8


class TestMoreau:
    def test_quadrant_split(self):
        p, q = moreau(Orthant(2), np.array([1.0, -1.0]))
        np.testing.assert_allclose(p, [1.0, 0.0])
        np.testing.assert_allclose(q, [0.0, 1.0])

    def test_member_fixed(self, rng):
        K = random_simplicial(rng, 3)
        x = project(K, rng.standard_normal(3)).point
        p, q = moreau(K, x)
        np.testing.assert_allclose(p, x, atol=1e-9)
        np.testing.assert_allclose(q, np.zeros(3), atol=1e-9)

    def test_identity_random(self, rng):
        for K in [Orthant(4), Lorentz(4), random_simplicial(rng, 4), MonotoneNonneg(4)]:
            for _ in range(100):
                x = 10.0 * rng.standard_normal(4)
                p, q = moreau(K, x)
                np.testing.assert_allclose(x, p - q, atol=1e-9)
                assert abs(float(p @ q)) < 1e-9 * (1 + float(x @ x))


# Metamorphic relations, on random cones of every family.
FAMILIES = ["orthant", "signed_orthant", "simplicial", "halfspaces", "generators", "lorentz",
            "monotone_nonneg"]


def random_cone(family, rng, m):
    k = int(rng.integers(1, 2 * m + 1))  # normals or generators of a polyhedral cone
    return {
        "orthant": lambda: Orthant(m),
        "signed_orthant": lambda: SignedOrthant(rng.choice([-1.0, 1.0], m)),
        "simplicial": lambda: random_simplicial(rng, m),
        "halfspaces": lambda: PolyhedralH(m, rng.standard_normal((k, m))),
        "generators": lambda: PolyhedralV(m, rng.standard_normal((m, k))),
        "lorentz": lambda: Lorentz(m),
        "monotone_nonneg": lambda: MonotoneNonneg(m),
    }[family]()


def rotated(K, Q):
    """The image QK of K under the orthogonal Q, in a family the library has."""
    if isinstance(K, PolyhedralH):
        return PolyhedralH(K.dim, K.normals @ Q.T)
    if isinstance(K, PolyhedralV):
        return PolyhedralV(K.dim, Q @ K.generators)
    return Simplicial(Q @ generator_matrix(K))  # an orthant or a simplicial cone


# Subnormal entries are left out: Q x rounds them to whole multiples of 5e-324.
POINTS = st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=5, max_size=5)


class TestMetamorphic:
    @given(family=st.sampled_from(["orthant", "simplicial", "halfspaces", "generators"]),
           seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), x=POINTS)
    @settings(max_examples=1000, deadline=None)
    def test_rotation_equivariance(self, family, seed, m, x):
        # P_{QK}(Q x) = Q P_K(x) for every orthogonal Q.
        rng = np.random.default_rng(seed)
        K = random_cone(family, rng, m)
        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        x = np.asarray(x[:m])
        s = np.max(np.abs(x)) or 1.0
        err = project(rotated(K, Q), Q @ x).point - Q @ project(K, x).point
        assert np.max(np.abs(err)) <= 1e-9 * s

    @given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1),
           m=st.integers(2, 5), x=POINTS)
    @settings(max_examples=1000, deadline=None)
    def test_moreau_identity(self, family, seed, m, x):
        # x = p - q with p = P_K(x) and q = P_{K*}(-x) orthogonal, each by its own route.
        K = random_cone(family, np.random.default_rng(seed), m)
        x = np.asarray(x[:m])
        s = np.max(np.abs(x)) or 1.0
        p, q = moreau(K, x)
        assert np.max(np.abs(x - (p - q))) <= 1e-9 * s
        assert abs(float((p / s) @ (q / s))) <= 1e-9


class TestInvariants:
    def test_nonexpansive_and_idempotent(self, rng):
        cones = [
            Orthant(4),
            SignedOrthant(np.array([1.0, -1.0, -1.0, 1.0])),
            random_simplicial(rng, 4),
            Lorentz(4),
            MonotoneNonneg(4),
        ]
        for K in cones:
            for _ in range(200):
                x = 10.0 * rng.standard_normal(4)
                y = 10.0 * rng.standard_normal(4)
                px = project(K, x).point
                py = project(K, y).point
                assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9
                np.testing.assert_allclose(project(K, px).point, px, atol=1e-9)


class TestBoundaryRay:
    def test_lorentz3(self):
        x = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        u = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        assert boundary_ray_preimage_check(Lorentz(3), x, u, samples=30)

    def test_rejects_interior_point(self):
        with pytest.raises(ValueError):
            boundary_ray_preimage_check(
                Lorentz(3), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
            )

    def test_rejects_bad_normal(self):
        x = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        with pytest.raises(ValueError):
            boundary_ray_preimage_check(Lorentz(3), x, np.array([0.0, 0.0, 1.0]))

    def test_span_points_land_on_ray(self, rng):
        x = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        for alpha in [0.5, 2.0]:
            np.testing.assert_allclose(
                project(Lorentz(3), alpha * x).point, alpha * x, atol=1e-12
            )
        u = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        for beta in [0.5, 2.0]:
            p = project(Lorentz(3), beta * u).point
            # Projects to the apex or a point of the ray through x.
            if np.linalg.norm(p) > 1e-12:
                alpha = float(p @ x) / float(x @ x)
                np.testing.assert_allclose(p, alpha * x, atol=1e-9)
