"""The benchmark's four workloads: seeded inputs, one operation, its check.

Every input comes from ``np.random.default_rng(seed)``; the library only
sees the generated cones and points.  Each workload is a fixed list of
operations that the measuring loop walks in order, wrapping around.  Library
calls go through module attributes (``P.project`` rather than an imported
name) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
from scipy.special import ndtri

import coneproj.cones as C
import coneproj.isotonic as I
import coneproj.projections as P

import reference as R

# Falsifier budgets per pair type.  A fast-path call takes about 0.1 s at the
# seed commit and a held solver pair about 25 ms.  Refuted pairs get the
# acceptance suite's budget and stop at the first verified violation.
FASTPATH_TRIALS = 2000
NNLS_TRIALS = 50
PAVA_TRIALS = 250
DYKSTRA_TRIALS = 8
REFUTE_TRIALS = 100_000
SOLVER_HELD = 24       # pairs of each held kind
SOLVER_PERIOD = 21     # every 21st solver op is a held pair, the others refuted
# Small enough that a CLI command's time is mostly start-up and import.
CLI_FALSIFY_TRIALS = 200
CLI_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# Cone generators


def random_simplicial_columns(rng, m, min_sv=1e-2):
    while True:
        E = rng.standard_normal((m, m))
        sv = np.linalg.svd(E, compute_uv=False)
        if sv[-1] >= min_sv * sv[0]:
            return E


def rotation(rng, m):
    return np.linalg.qr(rng.standard_normal((m, m)))[0]


def isotone_simplicial_columns(rng, m):
    """Generators of {x : A x <= 0}, A with rows touching at most two
    coordinates with opposite signs: a coordinatewise-isotone cone."""
    A = np.zeros((m, m))
    for i in range(m):
        A[i, i] = -(0.5 + rng.random())
        if i + 1 < m and rng.random() < 0.7:
            A[i, int(rng.integers(i + 1, m))] = 0.5 + rng.random()
    perm = rng.permutation(m)
    A = A[np.ix_(perm, perm)]
    return -np.linalg.inv(A)


def eq2_halfspace_normals(rng, m):
    """Two-coordinate opposite-sign walls plus the coordinate walls."""
    rows = []
    for k in range(m):
        for l in range(k + 1, m):
            if rng.random() < 0.5:
                r = np.zeros(m)
                r[k] = -(0.5 + rng.random())
                r[l] = 0.05 + rng.random()
                rows.append(r)
    rows.extend(-np.eye(m))
    return np.array(rows)


def ring_normals(k, phase=0.0, slope=1.0):
    """Normals (cos t, sin t, -slope) at k equally spaced angles: a polyhedral
    approximation of a circular cone in R^3."""
    t = phase + 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(t), np.sin(t), -slope * np.ones(k)])


def triangle_columns():
    G = np.eye(3) - 0.4 * (np.ones((3, 3)) - np.eye(3))
    return np.linalg.cholesky(G).T


def cone_dict(kind, M=None, dim=None):
    """JSON cone description; generator matrices are given as columns."""
    if kind == "simplicial":
        return {"type": "simplicial", "columns": M.T.tolist()}
    if kind == "halfspaces":
        return {"type": "halfspaces", "dim": M.shape[1], "normals": M.tolist()}
    if kind == "generators":
        return {"type": "generators", "dim": M.shape[0], "generators": M.T.tolist()}
    if kind == "signed_orthant":
        return {"type": "signed_orthant", "epsilon": [int(e) for e in M]}
    return {"type": kind, "dim": dim}


def square_generators(rng, m=4, min_sv=1e-2):
    """m generators around the last axis, as the columns of a well-conditioned
    m x m matrix: a simplicial cone given in generator form."""
    while True:
        V = np.vstack([0.8 * rng.standard_normal((m - 1, m)), np.ones((1, m))])
        sv = np.linalg.svd(V, compute_uv=False)
        if sv[-1] >= min_sv * sv[0]:
            return V


# The two inputs on which ``project`` returns a wrong point at the seed commit
# (ROADMAP item 2).  They open the known-defect probes (``DefectProbes``).
DEFECT_RING30 = (
    cone_dict("halfspaces", ring_normals(30)),
    np.array([16.10163254264054, -4.663284814903558, -16.712396645976323]),
)
DEFECT_TINY = (
    cone_dict("simplicial", np.array([[1.0, 1.0], [0.0, 1.0]])),
    np.array([-1.0, 2.0]) * 1e-300,
)


# ---------------------------------------------------------------------------
# Falsifier workloads


class FalsifyWorkload:
    """Ops are (K, L, trials, expect_refuted, falsifier seed)."""

    def op(self, i):
        return self.ops[i % len(self.ops)]

    def run(self, op):
        K, L, trials, _, seed = op
        cex = I.falsify(K, L, I.FalsifierConfig(trials=trials, seed=seed))
        verified = cex is not None and I.verify_certificate(cex, K, L)
        return cex, verified

    def work(self, op, result):
        cex, _ = result
        return op[2] if cex is None else cex.trial

    def refuted(self, op):
        return op[3]

    def check(self, op, result):
        K, L, _, expect_refuted, _ = op
        cex, verified = result
        if not expect_refuted:
            return None if cex is None else f"violation reported at trial {cex.trial}"
        if cex is None:
            return "no counterexample within the budget"
        if not verified:
            return "verify_certificate rejected the counterexample"
        return R.check_counterexample(cex, K, L)


def all_sign_vectors(m):
    for bits in range(2 ** m):
        yield np.array([1.0 if bits & (1 << i) else -1.0 for i in range(m)])


class FalsifyFastpath(FalsifyWorkload):
    """Orthant vs itself and every reflected orthant, m = 2..5 (criterion 6),
    and rotated orthants vs themselves (criterion 12): no violation exists,
    so every call runs its full budget on the falsifier's inlined projection.

    Budgets are spread evenly over 0.25 .. 1.75 times FASTPATH_TRIALS.  With
    one budget for all pairs every call cost about the same, and the median
    call time jumped between a shared host's fast and slow speeds: its spread
    over ten seeds was 26-30 %, against 5-13 % for the p95.
    """

    def __init__(self, seed, size=1.0):
        rng = np.random.default_rng(seed)
        pairs = []
        for m in range(2, 6):
            K = C.Orthant(m)
            pairs.append((K, K))
            pairs.extend((K, C.sign_flip(K, eps)) for eps in all_sign_vectors(m))
        for i in range(20):
            K = C.Simplicial(rotation(rng, 2 + i % 4))
            pairs.append((K, K))
        # Interleave the pair kinds (cone type and dimension) evenly, so the
        # partial pass at the end of a run has the same mix as a full one.
        groups = {}
        for pair in pairs:
            groups.setdefault((type(pair[0]).__name__, pair[0].dim), []).append(pair)
        keyed = [((j + rng.random()) / len(g), pair) for g in groups.values()
                 for j, pair in enumerate(g)]
        pairs = [pair for _, pair in sorted(keyed, key=lambda kv: kv[0])]
        # Shifted van der Corput points: any prefix of the list holds an even
        # spread of budgets too.
        u = halton(rng, len(pairs), 1)[:, 0]
        budgets = np.maximum(1, (FASTPATH_TRIALS * size * (0.25 + 1.5 * u)).astype(int))
        self.ops = [(K, L, int(b), False, int(rng.integers(2**31)))
                    for (K, L), b in zip(pairs, budgets)]


class FalsifySolver(FalsifyWorkload):
    """Every trial goes through ``project()``: NNLS, PAVA and Dykstra pairs
    that hold (criterion 10), and refuted pairs (criteria 5, 8, 9) that end
    in ``verify_certificate``.

    Every SOLVER_PERIOD-th op is the next held pair, in turn.  The others are
    refuted pairs, op i drawn from ``default_rng([seed, i])``: no refuted pair
    repeats within a run, so the refute-time tail rests on thousands of
    distinct pairs rather than on a short list walked several times.
    """

    def __init__(self, seed, size=1.0):
        rng = np.random.default_rng(seed)
        self.seed = seed

        def budget(n):
            return max(1, int(n * size))

        def s():
            return int(rng.integers(2**31))

        self.held = []
        for i in range(SOLVER_HELD):
            m = 3 + i % 3
            self.held.append((C.Simplicial(isotone_simplicial_columns(rng, m)), C.Orthant(m),
                              budget(NNLS_TRIALS), False, s()))
            self.held.append((C.MonotoneNonneg(m + 2), C.Orthant(m + 2),
                              budget(PAVA_TRIALS), False, s()))
            self.held.append((C.PolyhedralH(3, eq2_halfspace_normals(rng, 3)), C.Orthant(3),
                              budget(DYKSTRA_TRIALS), False, s()))

    def op(self, i):
        j, r = divmod(i, SOLVER_PERIOD)
        if r == SOLVER_PERIOD - 1:
            return self.held[j % len(self.held)]
        k = (SOLVER_PERIOD - 1) * j + r      # index among the refuted pairs
        rng = np.random.default_rng([self.seed, i])
        kind = k % 3
        m = 3 + (k // 3) % 3
        if kind == 2:
            K, L = C.Simplicial(triangle_columns()), C.Simplicial(random_simplicial_columns(rng, 3))
        else:
            K, L = C.Lorentz(m), C.Simplicial(random_simplicial_columns(rng, m))
            if kind == 1:
                L = C.dual(L)
        return K, L, REFUTE_TRIALS, True, int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# One-shot queries


def _scaled_point(rng, m):
    """Gaussian direction with a norm anywhere in 1e-3 .. 1e3."""
    return 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(m)


def _quasi_point(u, m):
    """Map a point of the unit cube to a Gaussian direction in R^m with a norm
    scale 10^(-3 .. 3): u[0] sets the scale, u[1:m+1] the direction."""
    z = ndtri(np.clip(u[1:m + 1], 1e-12, 1.0 - 1e-12))
    return 10.0 ** (6.0 * u[0] - 3.0) * z


def _dim(d):
    if "dim" in d:
        return d["dim"]
    if "epsilon" in d:
        return len(d["epsilon"])
    return len(d["columns"][0])


def _interior_point(rng, cone):
    """A point strictly inside the cone, at a random scale."""
    m = cone.dim
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if isinstance(cone, C.Orthant):
        x = rng.random(m) + 0.1
    elif isinstance(cone, C.SignedOrthant):
        x = cone.epsilon * (rng.random(m) + 0.1)
    elif isinstance(cone, C.Lorentz):
        z = rng.standard_normal(m - 1)
        x = np.append(z, np.linalg.norm(z) + 0.1 + rng.random())
    elif isinstance(cone, C.MonotoneNonneg):
        x = np.cumsum((rng.random(m) + 0.1)[::-1])[::-1]
    elif isinstance(cone, C.PolyhedralH):
        # Ring normals (cos t, sin t, -a): inside when a * h exceeds the radius.
        r = rng.random()
        a = -cone.normals[0, 2] / np.linalg.norm(cone.normals[0, :2])
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = np.array([r * np.cos(phi), r * np.sin(phi), (r + 0.1) / a])
    else:
        G = cone.columns if isinstance(cone, C.Simplicial) else cone.generators
        x = G @ (rng.random(G.shape[1]) + 0.1)
    return scale * x


def _certify_pair(rng, b):
    """A pair whose necessary-condition flags are known in closed form."""
    m = 2 + (b // 4) % 4
    kind = b % 4
    if kind == 0:
        Q = rotation(rng, m)
        return cone_dict("simplicial", Q), cone_dict("simplicial", Q), (True,) * 5
    if kind == 1:
        eps = rng.choice([-1.0, 1.0], size=m)
        ok = bool(np.all(eps > 0))
        return (cone_dict("orthant", dim=m), cone_dict("signed_orthant", eps),
                (ok, ok, True, ok, ok))
    if kind == 2:
        return (cone_dict("simplicial", rng.uniform(0.1, 1.0, (m, m)) + 2 * np.eye(m)),
                cone_dict("orthant", dim=m), (True,) * 5)
    return cone_dict("monotone_nonneg", dim=m), cone_dict("orthant", dim=m), (True,) * 5


def _recognize_cone(rng, b):
    """Coordinatewise-isotone simplicial cone, or a halfspace cone with a
    three-coordinate facet normal (refuted)."""
    m = 3 + (b // 2) % 3
    if b % 2 == 0:
        return cone_dict("simplicial", isotone_simplicial_columns(rng, m)), True
    A = -np.eye(m)
    A[0, :3] = [-1.0, 0.5, 0.5]
    return cone_dict("halfspaces", A), False


SHAPES = ("orthant", "signed_orthant", "simplicial", "lorentz",
          "monotone_nonneg", "polyhedral_h", "polyhedral_v")
# The polyhedral shapes have no more facets than dimensions (a 3-facet ring in
# R^3, 4 generators in R^4).  With more, ``project`` can return a wrong point
# (ROADMAP item 2), so those cones are measured as known-defect probes, not in
# the measured stream; see DefectProbes.
# Shapes projected twice per block.  Without the second projections the
# closed-form queries (under 0.1 ms) were nearly half the stream, and its median
# query sat at the sparse lower edge of the 0.2-0.8 ms group, where it moved
# 20 % from run to run.
TWICE = ("simplicial", "polyhedral_h", "polyhedral_v")
BLOCK_LEN = len(SHAPES) + len(TWICE) + 7
QUASI_DIM = 10                          # scale, up to 8 coordinates, ring slope
QUASI_POINTS = 4096


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def halton(rng, n, d):
    """n points of the Halton sequence in [0, 1)^d (d <= 10), randomly shifted
    modulo 1: a low-discrepancy sample that still depends on the seed."""
    i = np.arange(1, n + 1)
    out = np.empty((n, d))
    for j, base in enumerate(PRIMES[:d]):
        k, f, v = i.copy(), 1.0, np.zeros(n)
        while np.any(k):
            f /= base
            v += f * (k % base)
            k //= base
        out[:, j] = v
    return (out + rng.random(d)) % 1.0


class Oneshot:
    """Independent queries; each builds its cone with ``cone_from_dict``.

    The stream is a sequence of blocks.  A block holds a projection onto a
    fresh cone of each shape in SHAPES (two for the shapes in TWICE), then one each of moreau, dual,
    cone_margin, certify_necessary and recognize (followed by
    alternatives_check when the cone is recognized), and two sign_flip_search
    queries.  Block b draws from
    ``default_rng([seed, b])`` and dimensions cycle with b.  Projection inputs
    and ring apertures come from Halton points shifted by the seed, one
    sequence per shape: projection cost varies tenfold with the input, and an
    evenly spread sample keeps its mean steadier from seed to seed than
    independent draws.  ``blocks`` bounds the stream (it wraps) for small runs.
    """

    def __init__(self, seed, blocks=None):
        self.seed = seed
        self.blocks = blocks
        rng = np.random.default_rng(seed)
        self.quasi = {s: halton(rng, QUASI_POINTS, QUASI_DIM) for s in SHAPES + ("moreau",)}
        self._cached = (None, None)

    def op(self, i):
        b, j = divmod(i, BLOCK_LEN)
        if self.blocks:
            b %= self.blocks
        if self._cached[0] != b:
            self._cached = (b, self._block(b))
        return self._cached[1][j]

    def _point(self, shape, n, m):
        return _quasi_point(self.quasi[shape][n % QUASI_POINTS], m)

    def _block(self, b):
        rng = np.random.default_rng([self.seed, b])
        m = 2 + b % 7
        phase = rng.uniform(0.0, 2.0 * np.pi)
        slope = 0.5 * 4.0 ** self.quasi["polyhedral_h"][b % QUASI_POINTS, QUASI_DIM - 1]
        fams = {
            "orthant": cone_dict("orthant", dim=m),
            "signed_orthant": cone_dict("signed_orthant", rng.choice([-1.0, 1.0], size=m)),
            "simplicial": cone_dict("simplicial", random_simplicial_columns(rng, 2 + b % 5)),
            "lorentz": cone_dict("lorentz", dim=m),
            "monotone_nonneg": cone_dict("monotone_nonneg", dim=m),
            "polyhedral_h": cone_dict("halfspaces", ring_normals(3, phase, slope)),
            "polyhedral_v": cone_dict("generators", square_generators(rng)),
        }
        ops = []
        for s in SHAPES:
            reps = 2 if s in TWICE else 1
            ops.extend(("project", fams[s], self._point(s, reps * b + r, _dim(fams[s])), s)
                       for r in range(reps))
        shape = SHAPES[b % len(SHAPES)]
        ops.append(("moreau", fams[shape], self._point("moreau", b, _dim(fams[shape])), shape))
        shape = SHAPES[(b + 3) % len(SHAPES)]
        ops.append(("dual", fams[shape], None, shape))
        shape = SHAPES[(b + 5) % len(SHAPES)]
        x = _interior_point(rng, C.cone_from_dict(fams[shape]))
        inside = b % 2 == 0
        ops.append(("margin", fams[shape], x if inside else -x, inside))
        Kd, Ld, flags = _certify_pair(rng, b)
        ops.append(("certify", Kd, Ld, flags))
        for m in (3 + b % 6, 3 + (b + 3) % 6):
            E = random_simplicial_columns(rng, m)
            ops.append(("sign_flip", cone_dict("simplicial", E), None, None))
        d, isotone = _recognize_cone(rng, b)
        ops.append(("recognize", d, None, isotone))
        return ops

    @staticmethod
    def work(op, result):
        return 1

    @staticmethod
    def refuted(op):
        return False

    def run(self, op):
        kind, d, arg, _ = op
        K = C.cone_from_dict(d)
        if kind == "project":
            return K, P.project(K, arg)
        if kind == "moreau":
            return K, P.moreau(K, arg)
        if kind == "dual":
            return K, C.dual(K)
        if kind == "margin":
            return K, C.cone_margin(K, arg)
        if kind == "certify":
            return K, I.certify_necessary(K, C.cone_from_dict(arg))
        if kind == "sign_flip":
            return K, I.sign_flip_search(K)
        rep = I.orthant_isotone_recognize(K)
        alt = I.alternatives_check(K) if rep.isotone else None
        return K, (rep, alt)

    def check(self, op, result):
        kind, d, arg, expect = op
        K, out = result
        if kind == "project":
            bad = R.check_projection(K, arg, out.point)
            if bad is None and not np.allclose(out.dual_point, out.point - arg, rtol=0.0,
                                               atol=1e-12 * np.max(np.abs(arg))):
                bad = "dual_point is not p - x"
            return bad
        if kind == "moreau":
            return R.check_moreau(K, arg, *out)
        if kind == "dual":
            return _check_dual(K, out)
        if kind == "margin":
            s = float(np.max(np.abs(arg)))
            if expect and not out >= -R.MARGIN_RTOL * s:
                return f"interior point has margin {out:.3g}"
            if not expect and not out < 0.0:
                return f"exterior point has margin {out:.3g}"
            return None
        if kind == "certify":
            got = (out.k_in_l, out.l_in_k_dual, out.k_subdual,
                   out.interior_kdual_l, out.interior_kdual_ldual)
            return None if got == expect else f"flags {got}, expected {expect}"
        if kind == "sign_flip":
            found = isinstance(out, I.SubdualWitness)
            if found != R.subdual_flip_exists(K.columns):
                return "sign-flip verdict disagrees with exhaustive search"
            return None if I.verify_certificate(out, K) else "certificate failed verification"
        rep, alt = out
        if rep.isotone != expect:
            return f"recognizer said {rep.isotone}, expected {expect}"
        if alt is not None:
            in_orthant, disjoint = alt
            if in_orthant == disjoint:
                return "alternatives are not exclusive"
            if in_orthant != bool(np.min(K.columns) >= -1e-9):
                return "in_orthant flag disagrees with the generators"
        return None


def _check_dual(K, D):
    """Dual generators satisfy <k_i, d_j> >= 0 and each d_j is orthogonal to
    a full facet of K; self-dual families return themselves."""
    if isinstance(K, (C.Orthant, C.SignedOrthant, C.Lorentz)):
        return None if C.cone_to_dict(D) == C.cone_to_dict(K) else "self-dual cone changed"
    if isinstance(K, (C.Simplicial, C.MonotoneNonneg)):
        E = K.columns if isinstance(K, C.Simplicial) else R.monotone_generators(K.dim)
        want = R.unit_columns(np.linalg.inv(E).T)
        got = D.columns
    elif isinstance(K, C.PolyhedralH):
        want, got = -K.normals.T, D.generators
    else:
        want, got = -K.generators.T, D.normals
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-9):
        return "dual cone generators differ from the closed form"
    return None


DEFECT_SAMPLES = 8     # probes of each kind besides the two pinned inputs


class DefectProbes(Oneshot):
    """Projections that ``project`` gets wrong at the seed commit (ROADMAP
    item 2), run once after the measured stream, untimed, and reported apart.

    They open with the two pinned inputs (the 30-facet ring and the 1e-300
    simplicial point), then DEFECT_SAMPLES seeded projections each onto an
    8-facet ring, a 30-facet ring and a 4 x 9 generator cone with norms in
    1e-3 .. 1e3.  With more facets than dimensions the Dykstra route can
    accept a wrong point: at the seed commit about one such query in a
    thousand onto the 8-facet ring fails, and more onto the 30-facet one.
    They are kept out of the measured stream, whose ops must all succeed, so
    that the defect shows here instead of failing every run.
    """

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2, 8])
        self.ops = [("project", *DEFECT_RING30, "defect-ring30"),
                    ("project", *DEFECT_TINY, "defect-tiny")]
        for _ in range(DEFECT_SAMPLES):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            slope = 0.5 * 4.0 ** rng.random()
            for k in (8, 30):
                ring = cone_dict("halfspaces", ring_normals(k, phase, slope))
                self.ops.append(("project", ring, _scaled_point(rng, 3), f"ring{k}"))
            V = np.vstack([0.8 * rng.standard_normal((3, 9)), np.ones((1, 9))])
            self.ops.append(("project", cone_dict("generators", V), _scaled_point(rng, 4),
                             "polyhedral_v-4x9"))

    def op(self, i):
        return self.ops[i]


# ---------------------------------------------------------------------------
# Cold CLI


class CliCold:
    """Each op runs ``python -m coneproj.cli <command>`` in a fresh process.

    The cone files are written once per run under ``workdir``; each command's
    report must match, byte for byte apart from ``timing_ms``, the report
    the same command printed in-process during set-up.
    """

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)

        def write(name, d):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(d, fh)
            return path

        m = 3
        simp = write("simplicial.json", cone_dict("simplicial", random_simplicial_columns(rng, m)))
        rot = write("rotated.json", cone_dict("simplicial", rotation(rng, m)))
        tri = write("triangle.json", cone_dict("simplicial", triangle_columns()))
        l3 = write("random3.json", cone_dict("simplicial", random_simplicial_columns(rng, 3)))
        iso = write("isotone.json", cone_dict("simplicial", isotone_simplicial_columns(rng, m)))
        orth = write("orthant.json", cone_dict("orthant", dim=m))
        lor = write("lorentz.json", cone_dict("lorentz", dim=m))
        bad_rows = -np.eye(m)
        bad_rows[0, :3] = [-1.0, 0.5, 0.5]
        bad = write("three_coordinate.json", cone_dict("halfspaces", bad_rows))
        point = ",".join(repr(float(v)) for v in _scaled_point(rng, m))
        trials = str(CLI_FALSIFY_TRIALS)
        seed_arg = str(int(rng.integers(2**31)))
        # (args, expected exit code, or None to derive it from the cone)
        self.ops = [
            (["project", simp, "--point", point], 0),
            (["certify", tri, l3], 1),
            (["sign-flip", simp], None),
            (["falsify", orth, lor, "--trials", trials, "--seed", seed_arg], 1),
            (["recognize-orthant-isotone", iso], 0),
            (["dual", simp], 0),
            (["project", lor, "--point", point], 0),
            (["certify", rot, rot], 2),
            (["sign-flip", tri], 1),
            (["falsify", rot, rot, "--trials", trials, "--seed", seed_arg], 0),
            (["recognize-orthant-isotone", bad], 1),
            (["dual", lor], 0),
        ]
        self.cones = {p: C.load_cone(p) for p in (simp, lor, tri)}
        self.reports = {}

    def record_references(self):
        """Run each command in-process once; keep its report and exit code."""
        from click.testing import CliRunner

        from coneproj import cli

        runner = CliRunner()
        for args, _ in self.ops:
            res = runner.invoke(cli.main, args)
            self.reports[tuple(args)] = (res.exit_code, _strip_timing(res.output))

    def op(self, i):
        return self.ops[i % len(self.ops)]

    @staticmethod
    def command(args):
        return [sys.executable, "-m", "coneproj.cli", *args]

    @staticmethod
    def work(op, result):
        return 1

    @staticmethod
    def refuted(op):
        return False

    def run(self, op):
        args, _ = op
        proc = subprocess.run(self.command(args), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def check(self, op, result):
        args, code = op
        rc, out = result
        ref_rc, ref_out = self.reports[tuple(args)]
        if code is None:
            code = 0 if R.subdual_flip_exists(self.cones[args[1]].columns) else 1
        if rc != code or ref_rc != code:
            return f"{args[0]} exited {rc}, expected {code}"
        if _strip_timing(out) != ref_out:
            return f"{args[0]} report differs from the reference report"
        if args[0] == "project":
            rep = json.loads(out)
            x = np.array([float(v) for v in args[3].split(",")])
            return R.check_projection(self.cones[args[1]], x, np.array(rep["point"]))
        return None


def _strip_timing(text):
    """The report without its ``timing_ms`` line, the one field that varies."""
    return "\n".join(l for l in text.splitlines() if '"timing_ms"' not in l)


def make(name, seed, workdir):
    if name == "falsify-fastpath":
        return FalsifyFastpath(seed)
    if name == "falsify-solver":
        return FalsifySolver(seed)
    if name == "oneshot":
        return Oneshot(seed)
    if name == "cli-cold":
        return CliCold(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("falsify-fastpath", "falsify-solver", "oneshot", "cli-cold")
