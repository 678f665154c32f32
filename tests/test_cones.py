import json

import numpy as np
import pytest

from coneproj import (
    ConeFormatError,
    DimensionMismatchError,
    Lorentz,
    MonotoneNonneg,
    Orthant,
    PolyhedralH,
    PolyhedralV,
    SignedOrthant,
    Simplicial,
    UnsupportedConeError,
    cone_from_dict,
    cone_to_dict,
    dual,
    facet_normals,
    generator_matrix,
    gram,
    is_proper,
    load_cone,
    membership,
    save_cone,
    sign_flip,
)
from coneproj.kernels import _rows_times
from conftest import random_simplicial, same_generator_sets

ALL_FAMILIES = [
    Orthant(3),
    SignedOrthant(np.array([1.0, -1.0, 1.0])),
    Simplicial(np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]])),
    Lorentz(3),
    MonotoneNonneg(3),
]


class TestMembership:
    def test_orthant_boundary(self):
        assert membership(Orthant(2), np.array([1.0, 0.0]))

    def test_lorentz_outside(self):
        assert not membership(Lorentz(3), np.array([0.0, 4.0, 3.0]))

    def test_simplicial_within_tolerance(self):
        K = Simplicial(np.eye(2))
        assert membership(K, np.array([-1e-12, 0.5]), tol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            membership(Orthant(3), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # A NaN tolerance admits nothing and an infinite one everything.
        with pytest.raises(ValueError, match="tol"):
            membership(Orthant(2), np.array([1.0, 0.0]), tol)

    def test_monotone(self):
        assert membership(MonotoneNonneg(3), np.array([3.0, 2.0, 2.0]))
        assert not membership(MonotoneNonneg(3), np.array([1.0, 2.0, 0.0]))

    def test_huge_scale(self):
        # The slack tol * (1 + ||x||) must not overflow to inf and admit x.
        t = 2.0 * np.pi * np.arange(8) / 8
        K = PolyhedralH(3, np.column_stack([np.cos(t), np.sin(t), -np.ones(8)]))
        x = np.array([2.0, 0.5, 0.3])
        assert not membership(K, x)
        assert not membership(K, 1e200 * x)
        assert membership(K, 1e200 * np.array([0.0, 0.0, 1.0]))


class TestDual:
    def test_orthant_self_dual(self):
        assert dual(Orthant(3)) == Orthant(3)

    def test_lorentz_self_dual(self):
        assert dual(Lorentz(3)) == Lorentz(3)

    def test_simplicial_inverse_transpose(self):
        E = Simplicial(np.array([[2.0, 1.0], [0.0, 1.0]]))
        F = dual(E)
        # Dual generators are biorthogonal to the primal generators.
        prod = F.columns.T @ E.columns
        off = prod - np.diag(np.diag(prod))
        assert np.max(np.abs(off)) < 1e-10
        assert np.min(np.diag(prod)) > 0
        expected = np.array([[0.5, 0.0], [-0.5, 1.0]])
        assert same_generator_sets(F.columns, expected)

    def test_double_dual_identity(self, rng):
        for _ in range(10):
            K = random_simplicial(rng, 4)
            assert same_generator_sets(dual(dual(K)).columns, K.columns, tol=1e-9)
        assert dual(dual(Orthant(5))) == Orthant(5)
        assert dual(dual(Lorentz(4))) == Lorentz(4)
        eps = np.array([1.0, -1.0, -1.0])
        assert np.array_equal(dual(dual(SignedOrthant(eps))).epsilon, eps)

    def test_h_and_v_duals(self, rng):
        V = PolyhedralV(3, rng.standard_normal((3, 5)))
        H = dual(V)
        assert isinstance(H, PolyhedralH)
        # <v_j, y> >= 0 on the dual, encoded as <-v_j, y> <= 0.
        assert same_generator_sets(H.normals.T, -V.generators)
        back = dual(H)
        assert isinstance(back, PolyhedralV)
        assert same_generator_sets(back.generators, V.generators)

    def test_dual_pairing_nonnegative(self, rng):
        for K in ALL_FAMILIES:
            Kd = dual(K)
            for _ in range(200):
                x = _sample_member(rng, K)
                y = _sample_member(rng, Kd)
                assert float(x @ y) >= -1e-9


def _sample_member(rng, cone):
    from coneproj import project

    z = 5.0 * rng.standard_normal(cone.dim)
    return project(cone, z).point


class TestSignFlip:
    def test_identity_flip(self):
        K = Simplicial(np.eye(2))
        flipped = sign_flip(K, np.array([1.0, 1.0]))
        assert np.array_equal(flipped.columns, K.columns)

    def test_reflected_orthant(self):
        K = Simplicial(np.eye(2))
        flipped = sign_flip(K, np.array([-1.0, 1.0]))
        assert same_generator_sets(flipped.columns, np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_antipodal(self, rng):
        K = random_simplicial(rng, 3)
        flipped = sign_flip(K, -np.ones(3))
        assert same_generator_sets(flipped.columns, -K.columns)

    def test_orthant_becomes_signed(self):
        eps = np.array([-1.0, 1.0, -1.0])
        flipped = sign_flip(Orthant(3), eps)
        assert isinstance(flipped, SignedOrthant)
        assert np.array_equal(flipped.epsilon, eps)

    def test_gram_conjugation(self, rng):
        K = random_simplicial(rng, 4)
        eps = np.array([1.0, -1.0, -1.0, 1.0])
        D = np.diag(eps)
        np.testing.assert_allclose(
            gram(sign_flip(K, eps)), D @ gram(K) @ D, atol=1e-12
        )

    def test_column_sign_vector_rejected(self):
        # A (2, 1) column would broadcast over the rows of the generator
        # matrix and flip coordinates, not generators.
        K = Simplicial(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatchError):
            sign_flip(K, np.array([[1.0], [-1.0]]))


class TestGram:
    def test_identity(self):
        np.testing.assert_allclose(gram(np.eye(3)), np.eye(3))

    def test_direct_inner_products(self):
        E = np.column_stack([[1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2)])
        G = gram(E)
        np.testing.assert_allclose(
            G, [[1.0, 1 / np.sqrt(2)], [1 / np.sqrt(2), 1.0]]
        )

    def test_positive_definite(self, rng):
        K = random_simplicial(rng, 5)
        assert np.min(np.linalg.eigvalsh(gram(K))) > 0


class TestIsProper:
    def test_closed_forms(self):
        for K in ALL_FAMILIES:
            assert is_proper(K)

    def test_not_generating(self):
        K = PolyhedralV(3, np.eye(3)[:, :2])
        assert not is_proper(K)

    def test_not_pointed(self):
        V = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        assert not is_proper(PolyhedralV(2, V))

    def test_halfspace_proper(self):
        assert is_proper(PolyhedralH(2, -np.eye(2)))
        # Halfplane: normals do not span, not pointed.
        assert not is_proper(PolyhedralH(2, np.array([[0.0, -1.0]])))

    @pytest.mark.parametrize("a", [1e-3, 5e-4, 1e-4, 1e-6, 1e-8])
    def test_thin_cones_proper(self, a):
        # |x1| <= a x2 in halfspace form, and its dual, the wide cone on
        # (1, a) and (-1, a): properness is scale free, so depth a counts
        # against margin / box = 1e-10, not against an offset of 1.
        assert is_proper(PolyhedralH(2, np.array([[1.0, -a], [-1.0, -a]])))
        assert is_proper(PolyhedralV(2, np.array([[1.0, -1.0], [a, a]])))

    def test_too_thin_not_proper(self):
        a = 1e-11
        assert not is_proper(PolyhedralH(2, np.array([[1.0, -a], [-1.0, -a]])))
        assert not is_proper(PolyhedralV(2, np.array([[1.0, -1.0], [a, a]])))


class TestFacets:
    def test_orthant(self):
        U = facet_normals(Orthant(2))
        assert same_generator_sets(U.T, -np.eye(2))

    def test_monotone(self):
        U = facet_normals(MonotoneNonneg(3))
        expected = np.array(
            [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]
        )
        expected = expected / np.linalg.norm(expected, axis=1)[:, None]
        assert same_generator_sets(U.T, expected.T)

    def test_simplicial_facets_support_generators(self):
        K = Simplicial(np.array([[2.0, 1.0], [0.0, 1.0]]))
        U = facet_normals(K)
        E = K.columns
        prods = U @ E
        assert np.max(prods) <= 1e-12
        # Each facet is tight on m-1 generators.
        for row in prods:
            assert np.sum(np.abs(row) < 1e-10) == 1

    def test_membership_facet_consistency(self, rng):
        for K in [
            Orthant(4),
            SignedOrthant(np.array([1.0, -1.0, 1.0, -1.0])),
            random_simplicial(rng, 4),
            MonotoneNonneg(4),
        ]:
            U = facet_normals(K)
            for _ in range(1000):
                x = 5.0 * rng.standard_normal(4)
                via_facets = np.max(U @ x) <= 1e-9 * (1 + np.linalg.norm(x))
                assert membership(K, x) == via_facets

    def test_unsupported(self):
        # No generators of the dual, so no facets.
        with pytest.raises(UnsupportedConeError,
                           match="^facet enumeration unavailable for Lorentz$"):
            facet_normals(Lorentz(3))
        with pytest.raises(UnsupportedConeError,
                           match="^facet enumeration unavailable for PolyhedralV$"):
            facet_normals(PolyhedralV(2, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_monotone_rows_exact(self, m):
        # Dual generators e_i - e_{i+1} and e_m, facet normals their negation:
        # every entry off that two-entry pattern is an exact zero.
        K = MonotoneNonneg(m)
        pattern = (np.eye(m) - np.eye(m, k=-1)) != 0
        assert np.all(dual(K).columns[~pattern] == 0.0)
        assert np.all(facet_normals(K)[~pattern.T] == 0.0)
        np.testing.assert_array_equal(np.abs(facet_normals(K)[pattern.T]),
                                      [1 / np.sqrt(2.0)] * (m - 1) * 2 + [1.0])

    def test_lorentz2(self):
        # The 2-dimensional Lorentz cone is simplicial: both representations exist.
        U = facet_normals(Lorentz(2))
        prods = U @ generator_matrix(Lorentz(2))
        assert np.max(prods) <= 1e-12
        for row in prods:
            assert np.sum(np.abs(row) < 1e-10) == 1


class TestStoredArraysReadOnly:
    @pytest.mark.parametrize("get, cone", [
        (generator_matrix, Simplicial(np.array([[2.0, 1.0], [0.0, 1.0]]))),
        (facet_normals, Simplicial(np.array([[2.0, 1.0], [0.0, 1.0]]))),
        (generator_matrix, PolyhedralV(2, np.array([[1.0, 1.0], [0.0, 1.0]]))),
        (generator_matrix, MonotoneNonneg(3)),
        (facet_normals, MonotoneNonneg(3)),
        (facet_normals, PolyhedralH(2, -np.eye(2))),
        (generator_matrix, Orthant(2)),
        (facet_normals, Orthant(2)),
        (generator_matrix, SignedOrthant(np.array([1.0, -1.0]))),
        (facet_normals, SignedOrthant(np.array([1.0, -1.0]))),
        (generator_matrix, Lorentz(2)),
        (facet_normals, Lorentz(2)),
    ], ids=["simplicial", "simplicial-facets", "generators", "monotone_nonneg",
            "monotone_nonneg-facets", "halfspaces", "orthant", "orthant-facets",
            "signed_orthant", "signed_orthant-facets", "lorentz2", "lorentz2-facets"])
    def test_write_raises(self, get, cone):
        assert get(cone) is get(cone)  # stored once
        with pytest.raises(ValueError):
            get(cone)[0, 0] = -1.0

    def test_generators_cannot_be_rewritten(self):
        K = PolyhedralV(3, np.eye(3))
        e1 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            generator_matrix(K)[:, 0] = [0.0, 0.0, -1.0]
        assert membership(K, e1)

    def test_signed_orthant_copies_epsilon(self):
        eps = np.array([1.0, -1.0])
        K = SignedOrthant(eps)
        eps[0] = -1.0  # the caller's array stays writeable
        assert K.epsilon.tolist() == [1.0, -1.0]
        with pytest.raises(ValueError):
            K.epsilon[0] = -1.0


class TestConeFiles:
    CASES = [
        {"type": "orthant", "dim": 3},
        {"type": "signed_orthant", "epsilon": [1, -1, 1]},
        {"type": "simplicial", "columns": [[2.0, 0.0], [1.0, 1.0]]},
        {"type": "halfspaces", "dim": 2, "normals": [[-1.0, 0.0], [0.0, -1.0]]},
        {"type": "generators", "dim": 2, "generators": [[1.0, 0.0], [1.0, 1.0]]},
        {"type": "lorentz", "dim": 4},
        {"type": "monotone_nonneg", "dim": 5},
    ]

    def test_round_trip(self, tmp_path):
        for data in self.CASES:
            path = tmp_path / "cone.json"
            cone = cone_from_dict(data)
            save_cone(cone, path)
            again = load_cone(path)
            assert cone_to_dict(again) == cone_to_dict(cone)

    def test_extra_fields_rejected(self):
        with pytest.raises(ConeFormatError):
            cone_from_dict({"type": "orthant", "dim": 3, "color": "blue"})

    def test_missing_fields_rejected(self):
        with pytest.raises(ConeFormatError):
            cone_from_dict({"type": "halfspaces", "dim": 2})

    def test_unknown_type(self):
        with pytest.raises(ConeFormatError):
            cone_from_dict({"type": "icosahedral", "dim": 3})

    @pytest.mark.parametrize("dim", [3.7, 3.0, True, "3"])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(ConeFormatError, match="integer"):
            cone_from_dict({"type": "orthant", "dim": dim})

    def test_non_integer_dim_rejected_with_matrix(self):
        with pytest.raises(ConeFormatError, match="integer"):
            cone_from_dict({"type": "halfspaces", "dim": 2.0, "normals": [[-1.0, 0.0]]})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConeFormatError):
            load_cone(path)

    def test_columns_are_column_vectors(self):
        cone = cone_from_dict(
            {"type": "simplicial", "columns": [[2.0, 0.0], [1.0, 1.0]]}
        )
        # First listed column is (2, 0), stored unit length.
        assert same_generator_sets(
            cone.columns, np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]])
        )


class TestValidation:
    def test_dependent_generators_rejected(self):
        with pytest.raises(ConeFormatError):
            Simplicial(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]]))

    def test_bad_epsilon(self):
        with pytest.raises(ConeFormatError):
            SignedOrthant(np.array([1.0, 0.5]))

    def test_duplicate_normals_merged(self):
        H = PolyhedralH(2, np.array([[-1.0, 0.0], [-2.0, 0.0], [0.0, -1.0]]))
        assert H.normals.shape[0] == 2

    def test_generator_matrix_unavailable(self):
        with pytest.raises(UnsupportedConeError):
            generator_matrix(Lorentz(3))

    def test_lorentz2_generators(self):
        V = generator_matrix(Lorentz(2))
        s = 1 / np.sqrt(2)
        assert same_generator_sets(V, np.array([[s, -s], [s, s]]))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scale_vectors_are_normalized(self, scale):
        # Norms of such vectors under- or overflow; stored vectors must
        # still be unit length, not zero or rejected.
        eye = np.eye(2)
        assert np.array_equal(Simplicial(scale * eye).columns, eye)
        assert np.array_equal(PolyhedralH(2, -scale * eye).normals, -eye)
        assert np.array_equal(PolyhedralV(2, scale * eye).generators, eye)
        normal = PolyhedralH(2, scale * np.array([[3.0, 4.0]])).normals[0]
        np.testing.assert_allclose(normal, [0.6, 0.8], rtol=1e-15)
        assert is_proper(PolyhedralH(2, -scale * eye))
        assert is_proper(PolyhedralV(2, scale * eye))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", [
        lambda v: PolyhedralH(2, np.array([[v, 1.0], [1.0, -1.0]])),
        lambda v: PolyhedralV(2, np.array([[1.0, v], [0.0, 1.0]])),
    ], ids=["halfspace-normal", "generator"])
    def test_non_finite_vectors_rejected(self, build, bad):
        with pytest.raises(ConeFormatError, match="finite"):
            build(bad)


# One cone per family, with both Lorentz dimensions and both kinds of
# simplicial cone (orthonormal, skew).
_RING = 2.0 * np.pi * np.arange(5) / 5
PROTOCOL_CONES = [
    Orthant(3),
    SignedOrthant(np.array([1.0, -1.0, 1.0])),
    Simplicial(np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]),
    Simplicial(np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]])),
    PolyhedralH(3, np.column_stack([np.cos(_RING), np.sin(_RING), -np.ones(5)])),
    PolyhedralV(3, np.array([[1.0, 0.0, 1.0, 0.5], [0.0, 1.0, 1.0, 0.2], [1.0, 1.0, 0.5, 1.0]])),
    Lorentz(2),
    Lorentz(3),
    MonotoneNonneg(4),
]
PROTOCOL_IDS = [
    "orthant", "signed_orthant", "simplicial_orthonormal", "simplicial_skew",
    "halfspaces", "generators", "lorentz2", "lorentz3", "monotone_nonneg",
]


def _representation(rep, cone):
    try:
        return rep(cone)
    except UnsupportedConeError:
        return None


def _with(*reps):
    return [
        pytest.param(K, id=name) for K, name in zip(PROTOCOL_CONES, PROTOCOL_IDS)
        if all(_representation(rep, K) is not None for rep in reps)
    ]


def test_protocol_covers_every_family():
    assert {type(K) for K in PROTOCOL_CONES} == {
        Orthant, SignedOrthant, Simplicial, PolyhedralH, PolyhedralV, Lorentz, MonotoneNonneg,
    }
    assert PROTOCOL_CONES[2].orthonormal and not PROTOCOL_CONES[3].orthonormal


@pytest.mark.parametrize("cone", _with(generator_matrix, facet_normals))
def test_protocol_facets_nonpositive_on_generators(cone):
    prods = facet_normals(cone) @ generator_matrix(cone)
    assert np.max(prods) <= 1e-12


@pytest.mark.parametrize("cone", _with(facet_normals))
def test_protocol_facet_normals_are_the_familys_rows(cone):
    U = facet_normals(cone)
    assert U is cone._facet_normals and U is facet_normals(cone)  # stored once
    assert not U.flags.writeable
    # One rule: the facet normals are the dual's generators, negated.
    expected = -generator_matrix(dual(cone)).T
    assert U.shape == expected.shape
    assert U.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cone", _with(generator_matrix))
def test_protocol_generators_are_members(cone):
    for v in generator_matrix(cone).T:
        assert membership(cone, v)


@pytest.mark.parametrize("cone", _with())
def test_protocol_double_dual(cone):
    back = dual(dual(cone))
    V = _representation(generator_matrix, cone)
    U = _representation(facet_normals, cone)
    if V is not None:
        assert same_generator_sets(generator_matrix(back), V)
    if U is not None:
        assert same_generator_sets(facet_normals(back).T, U.T)
    if V is None and U is None:
        assert cone_to_dict(back) == cone_to_dict(cone)


@pytest.mark.parametrize("m", range(1, 9))
def test_orthant_directions_match_generator_product(m):
    # The orthant's elementwise directions give the bits of the generator
    # product, at both ends of the uniforms and at every normal scale.  (At a
    # subnormal scale a product can round to zero, and the sign of that zero
    # in the generator product depends on the BLAS kernel.)
    rng = np.random.default_rng(m)
    u = np.vstack([rng.random((64, m)), np.full((1, m), 0.5 * 2.0**-52),
                   np.full((1, m), (2.0**52 - 0.5) * 2.0**-52)])
    L = Orthant(m)
    for c in (10.0, 1e-3, 1e300, 1e-300):
        n, directions = L._directions(c)
        expected = _rows_times(np.log(u), -c * generator_matrix(L).T)
        assert n == m
        assert directions(u).tobytes() == expected.tobytes()
