import math
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtri

from coneproj import (
    ContainmentReport,
    Counterexample,
    DimensionMismatchError,
    FalsifierConfig,
    Lorentz,
    MonotoneNonneg,
    NonConvergenceError,
    Obstruction,
    Orthant,
    PolyhedralH,
    PolyhedralV,
    SignedOrthant,
    Simplicial,
    SubdualWitness,
    alternatives_check,
    certify_necessary,
    check_subdual,
    cone_margin,
    dual,
    facet_normals,
    falsify,
    generator_matrix,
    gram,
    is_proper,
    leq,
    lp_feasible,
    membership,
    orthant_isotone_recognize,
    project,
    sign_flip_search,
    sign_flip_search_gram,
    triple_obstruction,
    verify_certificate,
)
from coneproj import cones, isotonic, kernels
from conftest import random_orthant_isotone_cone, random_simplicial, ring_cone
from lemmas import hyperplane_isotone

SQ2 = np.sqrt(2.0)


def triangle_cone():
    """Simplicial cone whose Gram matrix has all off-diagonals -0.4."""
    G = np.eye(3) - 0.4 * (np.ones((3, 3)) - np.eye(3))
    return Simplicial(np.linalg.cholesky(G).T)


def needle_cone(eps=1e-4):
    """Halfspace cone {|x_1|, |x_2| <= eps x_3}: about eps^2 / 6 of the cube."""
    return PolyhedralH(3, np.array([
        [1.0, 0.0, -eps], [-1.0, 0.0, -eps], [0.0, 1.0, -eps], [0.0, -1.0, -eps],
    ]))


def brute_force_sign_split(G, tol=1e-9):
    """Exhaustive feasibility of the reflected-subduality condition."""
    m = G.shape[0]
    for bits in range(2 ** m):
        eps = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(m)])
        flipped = np.outer(eps, eps) * G
        if np.min(flipped) >= -tol:
            return eps
    return None


class TestLeq:
    def test_orthant_true(self):
        assert leq(Orthant(2), np.zeros(2), np.array([1.0, 2.0]))

    def test_orthant_false(self):
        assert not leq(Orthant(2), np.zeros(2), np.array([1.0, -1.0]))

    def test_reflexive(self, rng):
        x = rng.standard_normal(3)
        assert leq(Lorentz(3), x, x)


class TestHyperplaneIsotone:
    def test_diagonal_mixing(self):
        u = np.array([1.0, -1.0]) / SQ2
        assert hyperplane_isotone(Orthant(2), u)

    def test_antidiagonal_not(self):
        u = np.array([1.0, 1.0]) / SQ2
        assert not hyperplane_isotone(Orthant(2), u)

    def test_coordinate_flattening(self):
        assert hyperplane_isotone(Orthant(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("u", [[[0.6, 0.8]], [0.6, 0.8, 0.0]], ids=["matrix", "size3"])
    def test_u_must_be_a_vector_of_the_cone_dimension(self, u):
        with pytest.raises(DimensionMismatchError):
            hyperplane_isotone(Orthant(2), np.array(u))


@pytest.mark.parametrize("tol", [np.nan, -1e-9, np.inf], ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("check", [
    # A NaN tol fails every comparison: the facet pattern of this cone has a
    # 3-coordinate normal, and the triangle's Gram matrix no split.
    lambda tol: orthant_isotone_recognize(PolyhedralH(3, -np.ones((1, 3))), tol),
    lambda tol: sign_flip_search_gram(gram(triangle_cone()), tol),
    lambda tol: triple_obstruction(triangle_cone(), tol),
    lambda tol: check_subdual(triangle_cone(), tol),
], ids=["orthant_isotone_recognize", "sign_flip_search_gram", "triple_obstruction",
        "check_subdual"])
def test_certifiers_reject_bad_tolerance(check, tol):
    with pytest.raises(ValueError, match="tol"):
        check(tol)


class TestSubdual:
    def test_identity(self):
        assert check_subdual(Simplicial(np.eye(3)))

    def test_negative_entry(self):
        E = np.array([[1.0, -0.3], [0.0, np.sqrt(1 - 0.09)]])
        assert not check_subdual(Simplicial(E))

    def test_monotone_generator_form(self):
        assert check_subdual(MonotoneNonneg(3))


class TestSignFlipSearch:
    def test_identity_gram(self):
        cert = sign_flip_search_gram(np.eye(3))
        assert isinstance(cert, SubdualWitness)
        assert np.array_equal(cert.epsilon, np.ones(3))
        assert cert.index_set == frozenset({0, 1, 2})

    def test_mixed_signs_witness(self):
        G = np.eye(3)
        G[0, 1] = G[1, 0] = -0.3
        G[0, 2] = G[2, 0] = 0.2
        G[1, 2] = G[2, 1] = -0.1
        cert = sign_flip_search_gram(G)
        assert isinstance(cert, SubdualWitness)
        assert cert.index_set == frozenset({0, 2})
        np.testing.assert_array_equal(cert.epsilon, [1.0, -1.0, 1.0])
        assert brute_force_sign_split(G) is not None

    def test_all_negative_triangle(self):
        K = triangle_cone()
        cert = sign_flip_search(K)
        assert isinstance(cert, Obstruction)
        assert sorted(cert.cycle) == [0, 1, 2]
        assert verify_certificate(cert, K)
        assert brute_force_sign_split(gram(K)) is None

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 8))
            G = rng.standard_normal((m, m))
            G = (G + G.T) / 2
            np.fill_diagonal(G, 1.0)
            G[np.abs(G) < 0.2] = 0.0
            cert = sign_flip_search_gram(G)
            ref = brute_force_sign_split(G)
            if isinstance(cert, SubdualWitness):
                assert ref is not None
                flipped = np.outer(cert.epsilon, cert.epsilon) * G
                assert np.min(flipped) >= -1e-9
            else:
                assert ref is None

    @pytest.mark.parametrize("G, message", [
        (np.full((3, 3), np.nan), "finite"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "finite"),
        (np.ones(3), "square"),
        (np.ones((2, 3)), "square"),
    ], ids=["nan", "inf", "vector", "rectangle"])
    def test_bad_gram_rejected(self, G, message):
        with pytest.raises(ValueError, match=message):
            sign_flip_search_gram(G)


class TestTripleObstruction:
    def test_identity_none(self):
        assert triple_obstruction(Simplicial(np.eye(3))) is None

    def test_triangle(self):
        assert triple_obstruction(triangle_cone()) == (0, 1, 2)

    def test_single_negative_pair(self):
        E = np.array([[1.0, -0.3], [0.0, np.sqrt(1 - 0.09)]])
        assert triple_obstruction(Simplicial(E)) is None

    def test_implies_obstruction(self, rng):
        for _ in range(20):
            K = random_simplicial(rng, 4)
            if triple_obstruction(K) is not None:
                assert isinstance(sign_flip_search(K), Obstruction)


class TestCertifyNecessary:
    def test_orthant_self(self):
        rep = certify_necessary(Orthant(3), Orthant(3))
        assert rep.k_in_l and rep.l_in_k_dual and rep.k_subdual
        assert rep.interior_kdual_l and rep.interior_kdual_ldual
        assert not rep.refuted

    def test_orthant_vs_lorentz2(self):
        rep = certify_necessary(Orthant(2), Lorentz(2))
        assert rep.interior_kdual_l or rep.interior_kdual_ldual
        assert not rep.k_in_l
        assert rep.refuted

    def test_subdual_with_dual_order(self, rng):
        # Any subdual simplicial K with L = K* satisfies K within L within K*.
        for _ in range(20):
            K = random_simplicial(rng, 3)
            if not check_subdual(K):
                continue
            rep = certify_necessary(K, dual(K))
            assert rep.k_in_l
            assert rep.l_in_k_dual

    def test_self_dual_k_equals_l(self):
        for K in [Orthant(4), SignedOrthant(np.array([1.0, -1.0, 1.0]))]:
            rep = certify_necessary(K, K)
            assert rep.k_in_l and rep.l_in_k_dual

    def test_certificate_round_trip(self):
        rep = certify_necessary(Orthant(2), Lorentz(2))
        assert verify_certificate(rep, Orthant(2), Lorentz(2))

    @pytest.mark.parametrize("E", [
        -np.eye(3),
        np.diag([-1.0, -1.0, 1.0]),
        -triangle_cone().columns,
        -dual(triangle_cone()).columns,
    ], ids=["minus-orthant", "reflected-orthant", "minus-triangle", "minus-triangle-dual"])
    def test_triangle_where_containment_is_silent(self, E):
        # int(K*) meets neither int(L) nor int(L*): the report refutes
        # nothing, so the falsifier's counterexample carries the verdict.
        K, L = triangle_cone(), Simplicial(E)
        rep = certify_necessary(K, L)
        assert not rep.interior_kdual_l and not rep.interior_kdual_ldual
        assert not rep.refuted
        cex = falsify(K, L, FalsifierConfig(trials=1000, seed=42))
        assert cex is not None and verify_certificate(cex, K, L)


def certify_reference(K, L, tol=isotonic.DEFAULT_TOL):
    """certify_necessary asking every question on its own: membership of each
    generator of K in L, and both interior LPs."""
    if not is_proper(K) or not is_proper(L):
        raise ValueError("certify_necessary requires proper cones")
    GK, GL, UL = generator_matrix(K), generator_matrix(L), facet_normals(L)
    k_in_l = all(membership(L, GK[:, j], tol) for j in range(GK.shape[1]))
    return ContainmentReport(
        k_in_l=k_in_l,
        l_in_k_dual=bool(np.min(GK.T @ GL) >= -tol),
        k_subdual=check_subdual(K, tol),
        interior_kdual_l=kernels._has_interior(np.vstack([GK.T, -UL])),
        interior_kdual_ldual=kernels._has_interior(np.vstack([GK.T, GL.T])),
    )


def _outcome(call):
    try:
        return call()
    except (ValueError, NonConvergenceError) as exc:
        return type(exc), str(exc)


def _certify_sweep_cones(m, rng):
    eps = rng.choice([-1.0, 1.0], m)
    eps[0] = -1.0
    Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    cones = [Orthant(m), SignedOrthant(eps), SignedOrthant(np.ones(m)), MonotoneNonneg(m),
             Simplicial(Q), random_simplicial(rng, m), random_orthant_isotone_cone(rng, m),
             PolyhedralH(m, -np.eye(m))]
    if m == 2:
        cones += [Lorentz(2), Simplicial(np.array([[1.0, -1.0], [0.0, 1.0]]))]
    return cones


@pytest.mark.parametrize("m", [2, 3, 4])
def test_certify_matches_per_generator_reference(monkeypatch, m):
    # Report for report, and error for error, as the reference that asks
    # every question on its own; one LP fewer where L is stored self-dual.
    rng = np.random.default_rng(100 + m)
    cones = _certify_sweep_cones(m, rng)
    others = [Orthant(m + 1), PolyhedralV(m, np.column_stack([np.eye(m), -np.eye(m)[:, 0]]))]
    asked = []
    monkeypatch.setattr(kernels, "lp_feasible", lambda G: asked.append(G) or lp_feasible(G))
    for K in cones + others:
        for L in cones + others:
            for tol in (isotonic.DEFAULT_TOL, 0.0, 0.5, math.nan):
                want = _outcome(partial(certify_reference, K, L, tol))
                asked.clear()
                got = _outcome(partial(certify_necessary, K, L, tol))
                assert got == want, (K, L, tol)
                if isinstance(got, ContainmentReport):
                    self_dual = type(L) in (Orthant, SignedOrthant, Lorentz)
                    assert len(asked) == (1 if self_dual else 2)


@pytest.mark.parametrize("order", [[0, 1], [1, 0]], ids=["outside-first", "capped-first"])
def test_certify_nan_margin_raises_where_membership_would(monkeypatch, order):
    # membership stops at the first generator outside L, so a capped margin
    # after it decides nothing; one before it raises.  L's margins are NaN on
    # rows with a positive first entry, as a capped solve leaves them.
    K = Simplicial(np.array([[-1.0, 0.2], [0.2, 1.0]])[:, order])
    margin_rows = Orthant._margin_rows
    monkeypatch.setattr(Orthant, "_margin_rows",
                        lambda self, X: np.where(X[:, 0] > 0.0, np.nan, margin_rows(self, X)))
    want = _outcome(partial(certify_reference, K, Orthant(2)))
    assert _outcome(partial(certify_necessary, K, Orthant(2))) == want
    assert isinstance(want, ContainmentReport) == (order == [0, 1])


def test_certify_capped_lp_raises_as_reference(monkeypatch):
    # Shallow interior systems reach the least-distance solver; capped, both
    # routes raise the one class.
    K = Simplicial(np.array([[1.0, -1.0 + 1e-3], [1e-3, 1.0]]))
    outcomes = []
    for L in (Orthant(2), SignedOrthant(np.array([1.0, -1.0])), Lorentz(2)):
        monkeypatch.setattr(kernels, "nnls", partial(kernels.nnls, max_iter=0))
        want = _outcome(partial(certify_reference, K, L))
        outcomes.append(_outcome(partial(certify_necessary, K, L)))
        monkeypatch.undo()
        assert outcomes[-1] == want
    assert (NonConvergenceError, "interior LP indeterminate") in outcomes


class TestOrthantIsotoneRecognize:
    def test_monotone(self):
        rep = orthant_isotone_recognize(MonotoneNonneg(3))
        assert rep.isotone
        assert rep.facet_count == 3

    def test_orthant(self):
        assert orthant_isotone_recognize(Orthant(4)).isotone

    def test_three_nonzero_normal(self):
        K = PolyhedralH(3, np.array([[1.0, 1.0, -1.0] / np.sqrt(3), [0.0, 0.0, -1.0]]))
        rep = orthant_isotone_recognize(K)
        assert not rep.isotone
        assert rep.offending_normal is not None
        assert np.sum(np.abs(rep.offending_normal) > 1e-9) == 3

    def test_same_sign_pair_rejected(self):
        K = PolyhedralH(2, np.array([[1.0, 1.0], [0.0, -1.0]]))
        assert not orthant_isotone_recognize(K).isotone

    def test_lorentz2_refuted(self):
        # Its facet normals (-1, -1) / sqrt(2) and (1, -1) / sqrt(2): the first
        # touches both coordinates with the same sign.
        rep = orthant_isotone_recognize(Lorentz(2))
        assert not rep.isotone
        assert rep.facet_count == 2
        np.testing.assert_allclose(rep.offending_normal, [-np.sqrt(0.5), -np.sqrt(0.5)])

    def test_random_family(self, rng):
        for _ in range(20):
            K = random_orthant_isotone_cone(rng, int(rng.integers(2, 6)))
            assert orthant_isotone_recognize(K).isotone

    # A same-sign pair, three nonzero entries, and seven normals in R^3,
    # more than m(m - 1) = 6, each of which alone passes.
    REFUTED = {
        "same-sign-pair": PolyhedralH(2, np.array([[1.0, 1.0], [0.0, -1.0]])),
        "three-nonzero": PolyhedralH(3, np.array([[1.0, 1.0, -1.0], [0.0, 0.0, -1.0]])),
        "too-many-facets": PolyhedralH(3, np.array([
            [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, -1.0, 0.0],
            [1.0, -2.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 2.0]])),
    }

    @pytest.mark.parametrize("K", [MonotoneNonneg(3), Orthant(4), Lorentz(2), *REFUTED.values()],
                             ids=["monotone", "orthant", "lorentz2", *REFUTED])
    def test_report_verifies(self, K):
        rep = orthant_isotone_recognize(K)
        assert verify_certificate(rep, K)
        assert rep._to_json()["isotone"] == rep.isotone != rep.refuted

    def test_too_many_facets_has_no_offending_normal(self):
        rep = orthant_isotone_recognize(self.REFUTED["too-many-facets"])
        assert (rep.isotone, rep.offending_normal, rep.facet_count) == (False, None, 7)

    def test_tampered_reports_fail(self):
        K = self.REFUTED["three-nonzero"]
        rep = orthant_isotone_recognize(K)
        good = facet_normals(K)[1]
        for tampered in (replace(rep, isotone=True, offending_normal=None),
                         replace(rep, offending_normal=None),
                         replace(rep, offending_normal=good),
                         replace(rep, offending_normal=-rep.offending_normal),
                         replace(rep, facet_count=3)):
            assert not verify_certificate(tampered, K)
        rep = orthant_isotone_recognize(Orthant(4))
        for tampered in (replace(rep, isotone=False),
                         replace(rep, isotone=False, offending_normal=facet_normals(Orthant(4))[0]),
                         replace(rep, facet_count=5)):
            assert not verify_certificate(tampered, Orthant(4))


class TestAlternatives:
    def test_monotone_in_orthant(self):
        in_orthant, interior_disjoint = alternatives_check(MonotoneNonneg(3))
        assert in_orthant and not interior_disjoint

    def test_requires_isotone(self):
        K = Simplicial(np.array([[1.0, -0.9], [0.0, np.sqrt(1 - 0.81)]]))
        if not orthant_isotone_recognize(K).isotone:
            with pytest.raises(ValueError):
                alternatives_check(K)

    def test_exclusive_on_random_family(self, rng):
        for _ in range(20):
            K = random_orthant_isotone_cone(rng, 4)
            in_orthant, interior_disjoint = alternatives_check(K)
            assert in_orthant != interior_disjoint


class TestFalsify:
    @pytest.mark.parametrize("field", ["tol", "scale"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_config_rejects_bad_tol_and_scale(self, field, value):
        with pytest.raises(ValueError, match="falsifier configuration"):
            FalsifierConfig(**{field: value})

    @pytest.mark.parametrize("field", ["trials", "seed"])
    @pytest.mark.parametrize("value", [3.5, 1.0, "3", True, False, None])
    def test_config_rejects_non_integer_trials_and_seed(self, field, value):
        with pytest.raises(ValueError, match="falsifier configuration"):
            FalsifierConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = FalsifierConfig(trials=np.int64(50), seed=np.int32(7))
        assert falsify(Orthant(2), Orthant(2), cfg) is None

    def test_overflowing_scale_is_an_input_error(self):
        # Draws at scale 1.7e308 overflow, and no solver runs for the orthant:
        # the NaN margin is the scale's fault, not an iteration cap.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="overflow at scale 1.7e"):
            falsify(Orthant(3), Orthant(3), FalsifierConfig(trials=100, scale=1.7e308))

    def test_orthant_self_clean(self):
        cfg = FalsifierConfig(trials=2000, seed=42)
        assert falsify(Orthant(3), Orthant(3), cfg) is None

    def test_orthant_vs_lorentz2(self):
        cfg = FalsifierConfig(trials=10_000, seed=42)
        cex = falsify(Orthant(2), Lorentz(2), cfg)
        assert cex is not None
        assert verify_certificate(cex, Orthant(2), Lorentz(2))

    def test_deterministic(self):
        cfg = FalsifierConfig(trials=5000, seed=7)
        a = falsify(Orthant(2), Lorentz(2), cfg)
        b = falsify(Orthant(2), Lorentz(2), cfg)
        assert a.trial == b.trial
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.violation, b.violation)

    def test_counterexample_is_ordered_pair(self):
        cfg = FalsifierConfig(trials=10_000, seed=42)
        cex = falsify(Orthant(2), Lorentz(2), cfg)
        assert leq(Lorentz(2), cex.x, cex.y)
        assert not membership(Lorentz(2), cex.violation, cfg.tol)

    def test_signed_orthant_order_clean(self):
        cfg = FalsifierConfig(trials=2000, seed=3)
        eps = np.array([1.0, -1.0, 1.0])
        assert falsify(Orthant(3), SignedOrthant(eps), cfg) is None

    def test_triangle_cone_refuted(self, rng):
        K = triangle_cone()
        cfg = FalsifierConfig(trials=50_000, seed=11)
        L = random_simplicial(rng, 3)
        cex = falsify(K, L, cfg)
        assert cex is not None
        assert verify_certificate(cex, K, L)

    def test_halfspace_order_clean(self):
        # The orthant in halfspace form: directions are projections onto it.
        assert falsify(Orthant(3), PolyhedralH(3, -np.eye(3))) is None

    @pytest.mark.parametrize("m", [7, 10])
    def test_thin_halfspace_order_clean(self, m):
        # 2^-m of the cube lies in this order: a projection reaches it all the same.
        assert falsify(Orthant(m), PolyhedralH(m, -np.eye(m))) is None

    @pytest.mark.parametrize("L", [needle_cone(), ring_cone(8), PolyhedralH(3, -np.eye(3))],
                             ids=["needle", "ring", "orthant"])
    def test_halfspace_directions_are_not_noise(self, L):
        # P_L(z) alone is the solver's noise for about 46 %, 14 % and 12 % of
        # these draws, those in the polar cone; they take P_L(-z) instead.
        n, directions = L._directions(10.0)
        words = np.random.default_rng(0).integers(0, 2**64, (2000, n), dtype=np.uint64)
        u = isotonic._uniforms(words)
        norms = kernels._row_norms(directions(u))
        assert (norms >= kernels.NNLS_RTOL * kernels._row_norms(10.0 * ndtri(u))).all()

    @pytest.mark.parametrize("K", [Orthant(3), triangle_cone(), MonotoneNonneg(3)],
                             ids=["closed-form", "nnls", "pava"])
    def test_needle_halfspace_order_refuted(self, K):
        L = needle_cone()
        cex = falsify(K, L, FalsifierConfig(trials=10, seed=42))
        assert cex is not None
        assert verify_certificate(cex, K, L)


def assert_same_counterexample(a, b):
    """Both None, or counterexamples equal field by field, bit for bit."""
    assert (a is None) == (b is None)
    if a is not None:
        for field in ("x", "y", "px", "py", "violation"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        assert (a.margin, a.trial) == (b.margin, b.trial)


# Refuted pairs whose first violation comes after trial 1, with the seed.
# With seed 18 trials 8 and 11 both violate, and both fall in the 16-trial
# opening block of this closed-form K: two violations in one block, of
# which the lower trial is returned.
LATE_REFUTED = [
    pytest.param(Orthant(2), Lorentz(2), 42, id="orthant-lorentz2"),
    pytest.param(Orthant(2), Lorentz(2), 18, id="orthant-lorentz2-two-in-block"),
    pytest.param(Orthant(3), Lorentz(3), 0, id="orthant-lorentz3"),
    pytest.param(Orthant(3), PolyhedralH(3, np.array([[1.0, 1.0, -1.0], [0.0, 0.0, -1.0]])),
                 0, id="orthant-halfspaces"),
    pytest.param(triangle_cone(),
                 dual(Simplicial(np.random.default_rng(5).standard_normal((3, 3)))),
                 2, id="triangle-nnls"),
    pytest.param(ring_cone(8), Orthant(3), 11, id="halfspaces-nnls"),
    pytest.param(MonotoneNonneg(3), Lorentz(3), 4, id="monotone-isotonic"),
]


@pytest.mark.parametrize("K, L, seed", LATE_REFUTED)
def test_lowest_violating_trial_independent_of_budget(K, L, seed):
    cex = falsify(K, L, FalsifierConfig(trials=100_000, seed=seed))
    assert cex.trial > 1
    assert verify_certificate(cex, K, L)
    # A budget ending at the violation groups the trials into other blocks.
    same = falsify(K, L, FalsifierConfig(trials=cex.trial, seed=seed))
    assert_same_counterexample(same, cex)
    assert falsify(K, L, FalsifierConfig(trials=cex.trial - 1, seed=seed)) is None


def test_cap_failure_late_in_block_keeps_earlier_violation(monkeypatch):
    # Trial 8 is the first violation.  Trial 12, in the same block of trials
    # 8..15, needs 5 solver iterations; no trial up to 8 needs more than 3.
    K = Simplicial(np.random.default_rng(20).standard_normal((5, 5)))
    L = Lorentz(5)
    cfg = FalsifierConfig(trials=1000, seed=1)
    cex = falsify(K, L, cfg)
    assert cex.trial == 8
    capped_rows = []

    def capped(A, B, max_iter=None):
        C, iterations = kernels.nnls(A, B, max_iter=3)
        capped_rows.append(int(np.isnan(C[:, 0]).sum()))
        return C, iterations

    monkeypatch.setattr(cones, "nnls", capped)
    same = falsify(K, L, cfg)
    assert capped_rows[-1] > 0  # the violating block holds a row past the cap
    assert_same_counterexample(same, cex)
    assert verify_certificate(same, K, L)
    # A cap that an earlier trial exceeds raises there, as trial by trial.
    monkeypatch.setattr(cones, "nnls", partial(kernels.nnls, max_iter=2))
    with pytest.raises(NonConvergenceError):
        falsify(K, L, cfg)


GENERATED = PolyhedralV(3, np.eye(3))
OUTSIDE = np.array([2.0, -1.0, 0.5])
FEW_TRIALS = FalsifierConfig(trials=10)


def _refuted_triangle():
    return falsify(triangle_cone(), Lorentz(3), FalsifierConfig(trials=1000, seed=42))


def _check_of_generated_order():
    """The re-check of a pair with y - x in the orthant, which only L's solves decide."""
    cex = _refuted_triangle()
    return partial(verify_certificate, replace(cex, y=cex.x + np.abs(cex.y - cex.x)),
                   Orthant(3), GENERATED)


# (module whose nnls is capped, a call made before the cap): every public
# answer that a capped solve leaves undecided raises the one class.
CAPPED_CALLS = [
    pytest.param(cones, lambda: partial(project, triangle_cone(), OUTSIDE), id="project"),
    pytest.param(cones, lambda: partial(cone_margin, GENERATED, OUTSIDE), id="cone_margin"),
    pytest.param(cones, lambda: partial(membership, GENERATED, OUTSIDE), id="membership"),
    pytest.param(cones, lambda: partial(leq, GENERATED, np.zeros(3), OUTSIDE), id="leq"),
    pytest.param(cones, lambda: partial(falsify, triangle_cone(), Orthant(3), FEW_TRIALS),
                 id="falsify-K"),
    pytest.param(cones, lambda: partial(falsify, Orthant(3), GENERATED, FEW_TRIALS),
                 id="falsify-L"),
    # The candidate step leaves these normals to the least-distance solver.
    pytest.param(kernels, lambda: partial(
        is_proper, PolyhedralH(3, np.random.default_rng(0).standard_normal((4, 3)))),
        id="is_proper"),
    pytest.param(cones, lambda: partial(
        verify_certificate, _refuted_triangle(), triangle_cone(), Lorentz(3)),
        id="verify_certificate-K"),
    pytest.param(cones, _check_of_generated_order, id="verify_certificate-L"),
]


@pytest.mark.parametrize("module, prepare", CAPPED_CALLS)
def test_every_capped_solve_raises_nonconvergence(monkeypatch, module, prepare):
    call = prepare()
    monkeypatch.setattr(module, "nnls", partial(kernels.nnls, max_iter=0))
    with pytest.raises(NonConvergenceError):
        call()


def isac_nemeth_gram(rng, m, acute):
    """Gram matrix M = [<u_i, u_j>] of m unit vectors: unit diagonal,
    off-diagonals <= 0 and least eigenvalue >= 0.05; with `acute`, one
    off-diagonal pair is set in [0.2, 0.6] instead.  Draws that lose the
    eigenvalue bound are redrawn.
    """
    while True:
        A = np.triu(rng.uniform(0.0, 1.0, (m, m)) * (rng.uniform(size=(m, m)) < 0.6), 1)
        A += A.T
        top = np.linalg.eigvalsh(A)[-1]
        M = np.eye(m) - (rng.uniform(0.0, 0.95) / top if top > 0 else 0.0) * A
        if acute:
            i, j = rng.choice(m, 2, replace=False)
            M[i, j] = M[j, i] = rng.uniform(0.2, 0.6)
        if np.linalg.eigvalsh(M)[0] >= 0.05:
            return M


# K = {x : <u_i, x> >= 0}, the u_i the rows of L = chol(M), in two forms:
# the facet normals -L, or the generators inv(L), as L x >= 0 iff x = inv(L) y
# with y >= 0.
ISAC_NEMETH_FORMS = {
    "halfspace": lambda M: PolyhedralH(len(M), -np.linalg.cholesky(M)),
    "simplicial": lambda M: Simplicial(np.linalg.inv(np.linalg.cholesky(M))),
}


@pytest.mark.parametrize("form, acute", [
    pytest.param("halfspace", False, id="obtuse-held"),
    pytest.param("halfspace", True, id="acute-refuted"),
    pytest.param("simplicial", False, id="simplicial-obtuse-held"),
    pytest.param("simplicial", True, id="simplicial-acute-refuted"),
    pytest.param("monotone", False, id="monotone-held"),
])
def test_isac_nemeth_halfspace_cones(form, acute):
    # Isac & Nemeth (1986): with u_1..u_m independent, the projection onto
    # K = {x : <u_i, x> >= 0} is K-isotone iff <u_i, u_j> <= 0 for i != j.
    # The monotone cone has u_i = e_i - e_(i+1) and u_m = e_m, projected by
    # PAVA; it has no draw, so two falsifier seeds stand in for the two draws.
    rng = np.random.default_rng(1986)
    for m in range(2, 9):
        for draw in range(2):
            if form == "monotone":
                K, seed = MonotoneNonneg(m), 10 * m + draw
            else:
                K, seed = ISAC_NEMETH_FORMS[form](isac_nemeth_gram(rng, m, acute)), m
            cex = falsify(K, K, FalsifierConfig(trials=3000, seed=seed))
            if acute:
                assert cex is not None and verify_certificate(cex, K, K)
            else:
                assert cex is None


def rotated_orthant(seed, m):
    return Simplicial(np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0])


# (K, L, trials, seed, first violating trial or None) for every kind of
# projection kernel and of order.  Trials 22 and 73 of the closed-form pairs
# lie in their second and third blocks.
SCHEDULE_PAIRS = [
    pytest.param(Orthant(3), Orthant(3), 600, 1, None, id="orthant-held"),
    pytest.param(Orthant(4), Lorentz(4), 600, 2465, 73, id="orthant-refuted"),
    pytest.param(SignedOrthant(np.array([1.0, -1.0, 1.0])), SignedOrthant(np.array([1.0, -1.0, 1.0])),
                 600, 2, None, id="signed-orthant-held"),
    pytest.param(SignedOrthant(np.array([1.0, -1.0, 1.0])), Lorentz(3), 600, 2, 22,
                 id="signed-orthant-refuted"),
    pytest.param(Lorentz(2), Lorentz(2), 600, 3, None, id="lorentz-held"),
    pytest.param(Lorentz(3), Simplicial(np.random.default_rng(1).standard_normal((3, 3))), 600, 2,
                 2, id="lorentz-refuted"),
    pytest.param(rotated_orthant(4, 4), rotated_orthant(4, 4), 600, 4, None, id="rotated-held"),
    pytest.param(rotated_orthant(3, 3), Lorentz(3), 600, 6, 5, id="rotated-refuted"),
    pytest.param(Simplicial(generator_matrix(MonotoneNonneg(3))), Orthant(3), 300, 5, None,
                 id="nnls-held"),
    pytest.param(triangle_cone(), dual(Simplicial(np.random.default_rng(5).standard_normal((3, 3)))),
                 300, 2, 4, id="triangle-refuted"),
    pytest.param(ring_cone(8), Orthant(3), 300, 11, 6, id="ring-refuted"),
    pytest.param(MonotoneNonneg(4), Orthant(4), 300, 7, None, id="pava-held"),
    pytest.param(MonotoneNonneg(3), Lorentz(3), 300, 4, 3, id="pava-refuted"),
    pytest.param(Orthant(3), PolyhedralH(3, -np.eye(3)), 100, 8, None, id="halfspace-order-held"),
    pytest.param(Orthant(3), PolyhedralH(3, np.array([[1.0, 1.0, -1.0], [0.0, 0.0, -1.0]])), 100,
                 0, 4, id="halfspace-order-refuted"),
]


@pytest.mark.parametrize("K, L, trials, seed, first", SCHEDULE_PAIRS)
def test_block_schedule_cannot_change_result(monkeypatch, K, L, trials, seed, first):
    cfg = FalsifierConfig(trials=trials, seed=seed)
    base = falsify(K, L, cfg)
    assert (None if base is None else base.trial) == first
    for max_block in (1, 512):
        for opening in (1, 16):
            with monkeypatch.context() as patch:
                patch.setattr(isotonic, "MAX_BLOCK", max_block)
                patch.setattr(isotonic, "OPENING_BLOCK", opening)
                # Every family opens at the patched size, solver families too.
                patch.setattr(type(K), "_closed_form", True)
                assert_same_counterexample(falsify(K, L, cfg), base)


class TestVerifyCertificate:
    def test_witness_round_trip(self, rng):
        for _ in range(10):
            K = random_simplicial(rng, 4)
            cert = sign_flip_search(K)
            if isinstance(cert, SubdualWitness):
                assert verify_certificate(cert, K)

    def test_tampered_witness(self):
        G = np.eye(3)
        G[0, 1] = G[1, 0] = -0.3
        G[0, 2] = G[2, 0] = 0.2
        G[1, 2] = G[2, 1] = -0.1
        K = Simplicial(np.linalg.cholesky(G).T)
        cert = sign_flip_search(K)
        assert isinstance(cert, SubdualWitness)
        eps = cert.epsilon.copy()
        eps[1] = -eps[1]  # flip a constrained index
        tampered = SubdualWitness(
            epsilon=eps, index_set=frozenset(int(i) for i in np.flatnonzero(eps > 0))
        )
        assert not verify_certificate(tampered, K)

    def test_tampered_counterexample(self):
        cfg = FalsifierConfig(trials=10_000, seed=42)
        cex = falsify(Orthant(2), Lorentz(2), cfg)
        bogus = Counterexample(
            x=cex.x, y=cex.x + np.abs(cex.y), px=cex.px, py=cex.py,
            violation=cex.violation, margin=cex.margin,
        )
        # The tampered pair is no longer ordered, or no longer violating.
        assert not verify_certificate(bogus, Orthant(2), Lorentz(2)) or leq(
            Lorentz(2), bogus.x, bogus.y
        )

    @pytest.mark.parametrize("scale", [1e10, 1e160, 1e300])
    def test_halfspace_order_counterexamples_at_huge_scale(self, scale):
        # Draws in the polar of the order project to rounding noise, not to
        # 0: the pairs they give are not ordered, and must not be returned.
        L = ring_cone(8)
        for K in (Orthant(3), Lorentz(3)):
            for seed in range(3):
                cex = falsify(K, L, FalsifierConfig(trials=1000, seed=seed, scale=scale))
                assert verify_certificate(cex, K, L)

    def test_counterexample_at_huge_scale(self):
        # Norms of vectors near 1e160 must not overflow in the re-check.
        cfg = FalsifierConfig(trials=1000, seed=42, scale=1e160)
        cex = falsify(Orthant(2), Lorentz(2), cfg)
        assert cex is not None
        assert verify_certificate(cex, Orthant(2), Lorentz(2))

    @staticmethod
    def two_projection_verdict(cex, K, L, tol=isotonic.DEFAULT_TOL):
        """The counterexample check with one project() call per point."""
        try:
            if not leq(L, cex.x, cex.y, tol):
                return False
            v = project(K, cex.y).point - project(K, cex.x).point
            return cone_margin(L, v) < -10.0 * tol * (1.0 + math.hypot(*v.tolist()))
        except ValueError:  # as in verify_certificate: a capped solve raises
            return False

    def test_counterexample_check_matches_two_projections(self):
        # The refuted pairs of acceptance criteria 5, 7 and 8, and tampered
        # copies of their counterexamples: the one row-kernel call on the
        # pair gives every verdict as two project() calls do.
        rng = np.random.default_rng(1005)
        pairs = [(triangle_cone(), random_simplicial(rng, 3)) for _ in range(20)]
        pairs += [(Orthant(m), Lorentz(m)) for m in (2, 3)]
        rng = np.random.default_rng(1008)
        pairs += [(Lorentz(m), random_simplicial(rng, m)) for m in (3, 4, 5) for _ in range(50)]
        verdicts = set()
        for K, L in pairs:
            cex = falsify(K, L, FalsifierConfig(trials=100_000, seed=42))
            d = cex.y - cex.x
            for c in (cex, replace(cex, x=cex.y, y=cex.x), replace(cex, y=cex.x),
                      replace(cex, y=cex.x + 0.5 * d), replace(cex, x=-cex.x, y=-cex.x + d),
                      replace(cex, x=1e300 * cex.x, y=1e300 * cex.y),
                      replace(cex, x=np.append(cex.x, 0.0), y=np.append(cex.y, 1.0))):
                verdict = verify_certificate(c, K, L)
                assert verdict == self.two_projection_verdict(c, K, L)
                verdicts.add(verdict)
            assert verify_certificate(cex, K, L)
        assert verdicts == {True, False}

    def test_counterexample_check_at_the_iteration_cap(self, monkeypatch):
        cex = falsify(triangle_cone(), Lorentz(3), FalsifierConfig(trials=1000, seed=42))
        generators = PolyhedralV(3, np.eye(3))
        assert verify_certificate(cex, triangle_cone(), Lorentz(3))
        monkeypatch.setattr(cones, "nnls", partial(kernels.nnls, max_iter=0))
        # A capped solve decides nothing, for the projection onto K and the
        # margin of L alike: the check raises.
        with pytest.raises(NonConvergenceError):
            verify_certificate(cex, triangle_cone(), Lorentz(3))
        with pytest.raises(NonConvergenceError):
            verify_certificate(replace(cex, y=cex.x + np.abs(cex.y - cex.x)),
                               Orthant(3), generators)

    def test_needs_l_for_counterexample(self):
        cfg = FalsifierConfig(trials=10_000, seed=42)
        cex = falsify(Orthant(2), Lorentz(2), cfg)
        assert not verify_certificate(cex, Orthant(2))

    def test_obstruction_round_trip(self):
        K = triangle_cone()
        assert verify_certificate(Obstruction(cycle=(0, 1, 2)), K)

    @pytest.mark.parametrize("cycle", [(0, 1), (0, 1, 2, 0, 1)], ids=["two", "repeated"])
    def test_obstruction_needs_a_simple_cycle(self, cycle):
        # Every edge of the triangle cone is negative: five is an odd count,
        # so only the repeated indices reject the second cycle.
        assert not verify_certificate(Obstruction(cycle=cycle), triangle_cone())

    def test_obstruction_even_negative_edges(self):
        G = np.eye(3)
        G[0, 1] = G[1, 0] = -0.3
        G[1, 2] = G[2, 1] = -0.3
        G[0, 2] = G[2, 0] = 0.2
        K = Simplicial(np.linalg.cholesky(G).T)
        assert not verify_certificate(Obstruction(cycle=(0, 1, 2)), K)

    def test_obstruction_edge_within_tol_of_zero(self):
        # Three negative edges, one of them -1e-12: an odd cycle only when
        # tol admits that edge.
        G = np.eye(3)
        G[0, 1] = G[1, 0] = -0.3
        G[1, 2] = G[2, 1] = -0.3
        G[0, 2] = G[2, 0] = -1e-12
        K = Simplicial(np.linalg.cholesky(G).T)
        cert = Obstruction(cycle=(0, 1, 2))
        assert not verify_certificate(cert, K)
        assert verify_certificate(cert, K, tol=1e-14)

    @pytest.mark.parametrize("flag", [f.name for f in fields(ContainmentReport)])
    def test_containment_report_with_a_flag_flipped(self, flag):
        K, L = Orthant(2), Lorentz(2)
        rep = certify_necessary(K, L)
        assert not verify_certificate(replace(rep, **{flag: not getattr(rep, flag)}), K, L)

    def test_containment_report_needs_l(self):
        rep = certify_necessary(Orthant(2), Lorentz(2))
        assert not verify_certificate(rep, Orthant(2))

    @pytest.mark.parametrize("tol", [np.nan, -1e-9, np.inf], ids=["nan", "negative", "inf"])
    def test_bad_tol_fails_every_kind(self, tol):
        triangle = triangle_cone()
        cases = [
            (sign_flip_search(Orthant(3)), Orthant(3), None),
            (Obstruction(cycle=(0, 1, 2)), triangle, None),
            (certify_necessary(Orthant(2), Lorentz(2)), Orthant(2), Lorentz(2)),
            (falsify(Orthant(2), Lorentz(2), FalsifierConfig(trials=1000, seed=42)),
             Orthant(2), Lorentz(2)),
        ]
        for cert, K, L in cases:
            assert verify_certificate(cert, K, L)
            assert not verify_certificate(cert, K, L, tol)
        # The triangle's Gram entries are -0.4 off the diagonal: only an
        # infinite tol would pass this witness.
        witness = SubdualWitness(epsilon=np.ones(3), index_set=frozenset({0, 1, 2}))
        assert not verify_certificate(witness, triangle, tol=tol)

    @pytest.mark.parametrize("cert", [None, "obstruction"])
    def test_not_a_certificate(self, cert):
        assert not verify_certificate(cert, triangle_cone(), Orthant(3))


class TestReflectedOrthantInteriors:
    def test_reflected_duals_miss_orthant_interior(self):
        # For a nonidentity sign flip of the orthant, the reflected dual cone
        # meets neither the orthant nor its dual in the interior.
        m = 3
        for bits in range(1, 2 ** m - 1):
            eps = np.array([-1.0 if bits & (1 << i) else 1.0 for i in range(m)])
            Keps = SignedOrthant(eps)
            # int(K_eps*) = int(K_eps): componentwise eps_i y_i > 0.
            G = np.vstack([np.diag(eps), np.eye(m)])
            assert lp_feasible(G).status == "infeasible"
