"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The whole suite is randomized but fully seeded.
"""

from contextlib import contextmanager

import numpy as np

from coneproj import (
    FalsifierConfig,
    Lorentz,
    MonotoneNonneg,
    Orthant,
    Obstruction,
    PolyhedralH,
    SignedOrthant,
    Simplicial,
    alternatives_check,
    certify_necessary,
    dual,
    facet_normals,
    falsify,
    generator_matrix,
    moreau,
    orthant_isotone_recognize,
    pava,
    project,
    project_oracle,
    sign_flip,
    sign_flip_search,
    sign_flip_search_gram,
    triple_obstruction,
    verify_certificate,
)
from coneproj.isotonic import SubdualWitness
from conftest import random_orthant_isotone_cone, random_simplicial
from lemmas import boundary_ray_preimage_check


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}")


def triangle_cone():
    G = np.eye(3) - 0.4 * (np.ones((3, 3)) - np.eye(3))
    return Simplicial(np.linalg.cholesky(G).T)


def random_eq2_halfspace_cone(rng, m):
    """Halfspace cone whose normals touch at most two coordinates with
    opposite signs (plus single-coordinate walls)."""
    rows = []
    for k in range(m):
        for l in range(k + 1, m):
            if rng.random() < 0.5:
                r = np.zeros(m)
                r[k] = -(0.5 + rng.random())
                r[l] = rng.random() - 0.3
                rows.append(r)
    for i in range(m):
        r = np.zeros(m)
        r[i] = -1.0
        rows.append(r)
    return PolyhedralH(m, np.array(rows))


def all_sign_vectors(m):
    for bits in range(2 ** m):
        yield np.array([1.0 if bits & (1 << i) else -1.0 for i in range(m)])


# ---------------------------------------------------------------------------


def moreau_family_cones(rng):
    return {
        "orthant": [Orthant(7)],
        "signed_orthant": [
            SignedOrthant(np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0]))
        ],
        "simplicial": [random_simplicial(rng, m) for m in (3, 6, 10)],
        "lorentz": [Lorentz(3), Lorentz(10)],
        "monotone_nonneg": [MonotoneNonneg(4), MonotoneNonneg(10)],
        "polyhedral_h": [random_eq2_halfspace_cone(rng, 4) for _ in range(2)],
    }


def test_criterion_1_moreau_suite():
    rng = np.random.default_rng(1001)
    with criterion(1, "Moreau identity and orthogonality, 1e4 points per family"):
        for family, cones in moreau_family_cones(rng).items():
            per_cone = 10_000 // len(cones)
            for K in cones:
                m = K.dim
                for _ in range(per_cone):
                    x = 10.0 * rng.standard_normal(m)
                    p, q = moreau(K, x)
                    assert np.linalg.norm(x - (p - q)) <= 1e-9, family
                    assert abs(float(p @ q)) <= 1e-9, family


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(1002)
    with criterion(2, "project() vs exhaustive oracle, max deviation <= 1e-8"):
        worst = 0.0
        for i in range(500):
            m = 2 + i % 7  # m in 2..8
            K = random_simplicial(rng, m)
            x = 10.0 * rng.standard_normal(m)
            dev = float(np.max(np.abs(project(K, x).point - project_oracle(K, x))))
            worst = max(worst, dev)
        for i in range(200):
            m = 3 + i % 2
            K = random_eq2_halfspace_cone(rng, m)
            while K.normals.shape[0] > 12:
                K = random_eq2_halfspace_cone(rng, m)
            x = 10.0 * rng.standard_normal(m)
            dev = float(np.max(np.abs(project(K, x).point - project_oracle(K, x))))
            worst = max(worst, dev)
        assert worst <= 1e-8


def test_criterion_3_pava_consistency():
    rng = np.random.default_rng(1003)
    with criterion(3, "PAVA+clamp vs oracle (m<=10) and NNLS route (m<=50)"):
        for i in range(200):
            m = 2 + i % 9
            y = 10.0 * rng.standard_normal(m)
            p = np.maximum(pava(y), 0.0)
            assert np.max(np.abs(p - project_oracle(MonotoneNonneg(m), y))) <= 1e-8
        for i in range(100):
            m = 5 + (i * 45) // 100  # m in 5..49
            K = Simplicial(generator_matrix(MonotoneNonneg(m)))
            y = 10.0 * rng.standard_normal(m)
            p = np.maximum(pava(y), 0.0)
            assert np.max(np.abs(p - project(K, y).point)) <= 1e-8


def test_criterion_4_sign_flip_exactness():
    rng = np.random.default_rng(1004)
    with criterion(4, "sign-flip search matches exhaustive 2^m enumeration"):
        for i in range(200):
            m = 2 + i % 11  # m in 2..12
            G = rng.standard_normal((m, m))
            G = (G + G.T) / 2
            np.fill_diagonal(G, 1.0)
            G[np.abs(G) < 0.3] = 0.0
            cert = sign_flip_search_gram(G)
            eps_all = np.array(list(all_sign_vectors(m)))
            flipped = eps_all[:, :, None] * eps_all[:, None, :] * G
            feasible = bool(np.any(flipped.reshape(len(eps_all), -1).min(axis=1) >= -1e-9))
            if isinstance(cert, SubdualWitness):
                assert feasible
                D = np.outer(cert.epsilon, cert.epsilon)
                assert float(np.min(D * G)) >= -1e-9
            else:
                assert not feasible


def test_criterion_5_triangle_obstruction():
    rng = np.random.default_rng(1005)
    with criterion(5, "pairwise-negative triangle: obstruction + falsified vs 20 L"):
        K = triangle_cone()
        assert isinstance(sign_flip_search(K), Obstruction)
        assert triple_obstruction(K) == (0, 1, 2)
        for _ in range(20):
            L = random_simplicial(rng, 3)
            cex = falsify(K, L, FalsifierConfig(trials=100_000, seed=42))
            assert cex is not None
            assert verify_certificate(cex, K, L)


def test_criterion_6_orthant_positive_control():
    with criterion(6, "orthant vs itself and all reflected orthants: no violation"):
        for m in range(2, 6):
            K = Orthant(m)
            cfg = FalsifierConfig(trials=10_000, seed=42)
            assert falsify(K, K, cfg) is None
            for eps in all_sign_vectors(m):
                assert falsify(K, sign_flip(K, eps), cfg) is None


def test_criterion_7_orthant_negative_control():
    with criterion(7, "orthant vs Lorentz ordering: verified counterexamples"):
        for m in (2, 3):
            K, L = Orthant(m), Lorentz(m)
            cex = falsify(K, L, FalsifierConfig(trials=10_000, seed=42))
            assert cex is not None
            assert verify_certificate(cex, K, L)


def lorentz_impossibility_pairs():
    rng = np.random.default_rng(1008)
    pairs = []
    for m in (3, 4, 5):
        for _ in range(50):
            pairs.append((Lorentz(m), random_simplicial(rng, m)))
    return pairs


def test_criterion_8_lorentz_impossibility():
    with criterion(8, "Lorentz cone vs 50 random simplicial orders per m in 3..5"):
        for K, L in lorentz_impossibility_pairs():
            cex = falsify(K, L, FalsifierConfig(trials=100_000, seed=42))
            assert cex is not None
            assert verify_certificate(cex, K, L)


def test_criterion_9_duality_metamorphic():
    rng = np.random.default_rng(1005)
    with criterion(9, "every refuted (K, L) also refuted for (K, L*) at 10x budget"):
        fixtures = []
        K5 = triangle_cone()
        for _ in range(20):
            fixtures.append((K5, random_simplicial(rng, 3), 100_000))
        for m in (2, 3):
            fixtures.append((Orthant(m), Lorentz(m), 10_000))
        for K, L in lorentz_impossibility_pairs():
            fixtures.append((K, L, 100_000))
        for K, L, budget in fixtures:
            Ld = dual(L)
            cex = falsify(K, Ld, FalsifierConfig(trials=10 * budget, seed=42))
            assert cex is not None
            assert verify_certificate(cex, K, Ld)


def certified_orthant_isotone_cones():
    rng = np.random.default_rng(1010)
    cones = [MonotoneNonneg(m) for m in range(2, 9)]
    cones += [random_orthant_isotone_cone(rng, 3 + i % 3) for i in range(50)]
    return cones


def test_criterion_10_recognizer():
    rng = np.random.default_rng(1110)
    with criterion(10, "coordinatewise-isotone recognizer + falsifier agreement"):
        cones = certified_orthant_isotone_cones()
        for K in cones:
            rep = orthant_isotone_recognize(K)
            m = K.dim
            assert rep.isotone
            assert rep.facet_count <= m * (m - 1)
        # Perturbed cones with a three-coordinate facet normal are refuted.
        for _ in range(10):
            m = int(rng.integers(3, 6))
            base = facet_normals(random_orthant_isotone_cone(rng, m))
            bad = base.copy()
            row = int(rng.integers(0, bad.shape[0]))
            nz = np.flatnonzero(np.abs(bad[row]) > 1e-9)
            choices = [i for i in range(m) if i not in nz]
            extra = choices[int(rng.integers(0, len(choices)))] if choices else None
            if extra is None:
                continue
            bad[row, extra] = 0.5
            while np.sum(np.abs(bad[row]) > 1e-9) < 3:
                bad[row, int(rng.integers(0, m))] = 0.5
            assert not orthant_isotone_recognize(PolyhedralH(m, bad)).isotone
        # Certified cones survive the falsifier against the coordinatewise order.
        for K in cones:
            cfg = FalsifierConfig(trials=10_000, seed=42)
            assert falsify(K, Orthant(K.dim), cfg) is None


def test_criterion_11_alternatives_exclusivity():
    with criterion(11, "exactly one alternative per certified cone"):
        checked = 0
        for K in certified_orthant_isotone_cones():
            if not isinstance(K, Simplicial):
                continue
            in_orthant, interior_disjoint = alternatives_check(K)
            assert in_orthant != interior_disjoint
            checked += 1
        assert checked >= 50


def test_criterion_12_rotated_orthants():
    rng = np.random.default_rng(1012)
    with criterion(12, "rotated orthants: necessary conditions hold, no violation"):
        for i in range(20):
            m = 2 + i % 4
            A = np.linalg.qr(rng.standard_normal((m, m)))[0]
            K = Simplicial(A)
            rep = certify_necessary(K, K)
            assert rep.k_in_l and rep.l_in_k_dual and rep.k_subdual
            assert rep.interior_kdual_l and rep.interior_kdual_ldual
            cfg = FalsifierConfig(trials=100_000, seed=42)
            assert falsify(K, K, cfg) is None


def test_criterion_13_projection_invariants():
    rng = np.random.default_rng(1013)
    with criterion(13, "nonexpansiveness, idempotence, Lorentz boundary preimages"):
        for family, cones in moreau_family_cones(rng).items():
            per_cone = 10_000 // len(cones)
            for K in cones:
                m = K.dim
                for _ in range(per_cone):
                    x = 10.0 * rng.standard_normal(m)
                    y = 10.0 * rng.standard_normal(m)
                    px = project(K, x).point
                    py = project(K, y).point
                    assert (
                        np.linalg.norm(px - py)
                        <= np.linalg.norm(x - y) + 1e-9
                    ), family
                    assert np.linalg.norm(project(K, px).point - px) <= 1e-9, family
        for m in (3, 4, 5):
            for i in range(20):
                xbar = rng.standard_normal(m - 1)
                xbar /= np.linalg.norm(xbar)
                x = np.append(xbar, 1.0) * (0.5 + rng.random())
                u = np.append(xbar, -1.0) / np.sqrt(2.0)
                assert boundary_ray_preimage_check(
                    Lorentz(m), x, u, samples=20, seed=i
                )
