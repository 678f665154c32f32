"""Certifying and refuting order-isotonicity of cone projections.

Given cones K and L, the question is whether x <=_L y implies
P_K x <=_L P_K y.  Structural certifiers implement the necessary
conditions (subduality, containment K within L within K*, sign-flip
feasibility on the generator Gram matrix, the orthant-isotone facet
pattern); a seeded randomized falsifier searches for concrete
counterexample pairs.  Refutations always come with an independently
re-checkable certificate.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtri

from .cones import (
    DimensionMismatchError,
    _check_dim,
    _check_tol,
    cone_margin,
    facet_normals,
    generator_matrix,
    gram,
    is_proper,
    membership,
)
from .kernels import NonConvergenceError, _has_interior

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SubdualWitness:
    """Sign vector making the reflected cone subdual, with its index split."""

    epsilon: np.ndarray
    index_set: frozenset  # indices carrying +1

    refuted = False

    def _verify(self, K, L, tol):
        eps = np.asarray(self.epsilon, dtype=float)
        if not np.all(np.abs(eps) == 1.0):
            return False
        expected = frozenset(int(i) for i in np.flatnonzero(eps > 0))
        if expected != self.index_set:
            return False
        G = gram(K)
        D = np.diag(eps)
        return float(np.min(D @ G @ D)) >= -tol

    def _to_json(self):
        return {
            "kind": "subdual_witness",
            "epsilon": [int(e) for e in self.epsilon],
            "index_set": sorted(self.index_set),
        }


@dataclass(frozen=True)
class Obstruction:
    """Cycle of generator indices whose Gram signs admit no two-sided split.

    The cycle has an odd number of negative Gram edges; the minimal case is
    a triangle of pairwise-negative inner products.
    """

    cycle: tuple

    refuted = True

    def _verify(self, K, L, tol):
        G = gram(K)
        cyc = list(self.cycle)
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            return False
        negatives = 0
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            g = G[a, b]
            if abs(g) <= tol:
                return False
            if g < 0:
                negatives += 1
        return negatives % 2 == 1

    def _to_json(self):
        return {"kind": "obstruction", "cycle": list(self.cycle)}


@dataclass(frozen=True)
class ContainmentReport:
    k_in_l: bool
    l_in_k_dual: bool
    k_subdual: bool
    interior_kdual_l: bool
    interior_kdual_ldual: bool

    @property
    def refuted(self):
        """Necessary conditions violated while an interior condition holds."""
        applicable = self.interior_kdual_l or self.interior_kdual_ldual
        return applicable and not (self.k_in_l and self.l_in_k_dual and self.k_subdual)

    def _verify(self, K, L, tol):
        if L is None:
            return False
        return certify_necessary(K, L, tol) == self

    def _to_json(self):
        return {"kind": "containment_report", **asdict(self)}


@dataclass(frozen=True)
class Counterexample:
    """Ordered pair whose projections violate the ordering."""

    x: np.ndarray
    y: np.ndarray
    px: np.ndarray
    py: np.ndarray
    violation: np.ndarray  # py - px, outside L
    margin: float
    trial: int = 0

    refuted = True

    def _verify(self, K, L, tol):
        if L is None:
            return False
        if not leq(L, self.x, self.y, tol):
            return False
        P, _, iterations = K._solve_rows(np.stack([_check_dim(K, self.x), _check_dim(K, self.y)]))
        if iterations is not None and np.isnan(P[:, 0]).any():
            raise NonConvergenceError("nnls iteration cap exceeded")
        v = P[1] - P[0]
        scale = 1.0 + math.hypot(*v.tolist())
        return cone_margin(L, v) < -10.0 * tol * scale

    def _to_json(self):
        return {
            "kind": "counterexample",
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "px": self.px.tolist(),
            "py": self.py.tolist(),
            "violation": self.violation.tolist(),
            "margin": self.margin,
            "trial": self.trial,
        }


@dataclass(frozen=True)
class OrthantIsotoneReport:
    """Facet pattern verdict of orthant_isotone_recognize."""

    isotone: bool
    offending_normal: np.ndarray | None
    facet_count: int

    @property
    def refuted(self):
        return not self.isotone

    def _verify(self, K, L, tol):
        """Re-derive the verdict from facet_normals(K) by counting every
        normal's support and sign product at once, not by the recognizer's
        scan: a refutation needs an offending row of K or more than m(m-1)
        facets."""
        U = facet_normals(K)
        if self.facet_count != len(U):
            return False
        big = np.abs(U) > tol
        support = big.sum(axis=1)
        # Over a support {a, b} the product is u_a * u_b, rounded once.
        same_sign = np.where(big, U, 1.0).prod(axis=1) > tol * tol
        bad = (support > 2) | ((support == 2) & same_sign)
        if self.offending_normal is None:
            m = K.dim
            return not bad.any() and self.isotone == (len(U) <= m * (m - 1))
        return not self.isotone and bool((U[bad] == self.offending_normal).all(axis=1).any())

    def _to_json(self):
        u = self.offending_normal
        return {
            "kind": "orthant_isotone_report",
            "isotone": self.isotone,
            "offending_normal": None if u is None else u.tolist(),
            "facet_count": self.facet_count,
        }


@dataclass(frozen=True)
class FalsifierConfig:
    trials: int = 10_000
    seed: int = 42
    tol: float = DEFAULT_TOL
    scale: float = 10.0

    def __post_init__(self):
        # Counts are ints or numpy integers, kept as int; a bool is not a count.
        integral = all(type(n) is int or isinstance(n, np.integer) for n in (self.trials, self.seed))
        if not integral or self.trials < 1 or not (0 < self.tol < math.inf and 0 < self.scale < math.inf):
            raise ValueError("invalid falsifier configuration")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


def leq(L, x, y, tol=DEFAULT_TOL):
    """Order test x <=_L y, i.e. y - x in L."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError("x and y dimensions disagree")
    return membership(L, y - x, tol)


def check_subdual(K, tol=DEFAULT_TOL):
    """True iff every pairwise generator inner product is >= -tol (K within K*)."""
    _check_tol(tol)
    return float(np.min(gram(K))) >= -tol


def sign_flip_search_gram(G, tol=DEFAULT_TOL):
    """Two-sided index split compatible with the Gram sign pattern, or an odd cycle.

    Edges: G_ij > tol forces i, j onto the same side; G_ij < -tol onto
    opposite sides.  Breadth-first 2-coloring with parity either yields the
    split (SubdualWitness) or an odd cycle of constraints (Obstruction).
    """
    _check_tol(tol)
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("Gram matrix must be square")
    if not np.isfinite(G).all():
        raise ValueError("Gram matrix entries must be finite")
    m = G.shape[0]
    # parity 0: same side, parity 1: opposite sides
    adj = [[] for _ in range(m)]
    # Python floats compare as the float64 entries do, without a numpy scalar per entry.
    for i, row in enumerate(G.tolist()):
        for j in range(i + 1, m):
            g = row[j]
            if g > tol:
                adj[i].append((j, 0))
                adj[j].append((i, 0))
            elif g < -tol:
                adj[i].append((j, 1))
                adj[j].append((i, 1))

    color = [-1] * m
    parent = [-1] * m
    depth = [0] * m
    for start in range(m):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j, parity in adj[i]:
                expected = color[i] ^ parity
                if color[j] == -1:
                    color[j] = expected
                    parent[j] = i
                    depth[j] = depth[i] + 1
                    queue.append(j)
                elif color[j] != expected:
                    return Obstruction(cycle=_bfs_cycle(parent, depth, i, j))
    index_set = frozenset(i for i, c in enumerate(color) if c == 0)
    eps = np.array([1.0 if c == 0 else -1.0 for c in color])
    return SubdualWitness(epsilon=eps, index_set=index_set)


def _bfs_cycle(parent, depth, i, j):
    """Cycle through edge (i, j) and the BFS tree paths to their common ancestor."""
    pi, pj = [i], [j]
    a, b = i, j
    while depth[a] > depth[b]:
        a = parent[a]
        pi.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        pj.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        pi.append(a)
        pj.append(b)
    # pi ends at the ancestor; pj's copy of it is dropped.
    return tuple(int(v) for v in (pi + pj[-2::-1]))


def sign_flip_search(K, tol=DEFAULT_TOL):
    """Search for a sign vector making the reflected cone subdual."""
    return sign_flip_search_gram(gram(K), tol)


def triple_obstruction(K, tol=DEFAULT_TOL):
    """Lexicographically first index triple with pairwise-negative Gram entries."""
    _check_tol(tol)
    G = gram(K)
    m = G.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            if G[i, j] >= -tol:
                continue
            for k in range(j + 1, m):
                if G[i, k] < -tol and G[j, k] < -tol:
                    return (i, j, k)
    return None


def certify_necessary(K, L, tol=DEFAULT_TOL):
    """Check the necessary conditions for P_K to be L-isotone.

    When one of the interior intersections int(K*) & L or int(K*) & L* is
    nonempty, isotonicity requires K subdual and K within L within K*.
    A report with an interior flag set and a failed containment or
    subduality flag is a structural refutation; anything else is
    inconclusive (the conditions are necessary, never sufficient).
    """
    if not is_proper(K) or not is_proper(L):
        raise ValueError("certify_necessary requires proper cones")
    GK = generator_matrix(K)
    GL = generator_matrix(L)
    UL = facet_normals(L)

    k_in_l = all(membership(L, GK[:, j], tol) for j in range(GK.shape[1]))
    l_in_k_dual = bool(np.min(GK.T @ GL) >= -tol)

    # x in int(K*): <g, x> > 0 on the generators g of K; in int(L): <u, x> < 0
    # on the facet normals u of L; in int(L*): <v, x> > 0 on the generators v
    # of L, which negated are the facet normals of L*.
    return ContainmentReport(
        k_in_l=k_in_l,
        l_in_k_dual=l_in_k_dual,
        k_subdual=check_subdual(K, tol),
        interior_kdual_l=_has_interior(np.vstack([GK.T, -UL])),
        interior_kdual_ldual=_has_interior(np.vstack([GK.T, GL.T])),
    )


def orthant_isotone_recognize(K, tol=DEFAULT_TOL):
    """Recognize cones whose projection is isotone for the coordinatewise order.

    Every facet normal may touch at most two coordinates, and where it
    touches two the entries must have opposite (or zero) signs; a cone in
    R^m then has at most m(m-1) facets.
    """
    _check_tol(tol)
    U = facet_normals(K)
    m = K.dim
    offending = None
    for u in U:
        nz = np.flatnonzero(np.abs(u) > tol)
        if nz.size > 2:
            offending = u
            break
        if nz.size == 2 and u[nz[0]] * u[nz[1]] > tol * tol:
            offending = u
            break
    count = int(U.shape[0])
    isotone = offending is None and count <= m * (m - 1)
    return OrthantIsotoneReport(
        isotone=isotone,
        offending_normal=None if offending is None else offending.copy(),
        facet_count=count,
    )


def alternatives_check(K, tol=DEFAULT_TOL):
    """For a coordinatewise-isotone proper cone: inside the orthant, or
    int(K*) disjoint from it.  Exactly one of the two flags is true.
    """
    if not is_proper(K):
        raise ValueError("alternatives_check requires a proper cone")
    if not orthant_isotone_recognize(K, tol).isotone:
        raise ValueError("alternatives_check requires a coordinatewise-isotone cone")
    GK = generator_matrix(K)
    in_orthant = bool(np.min(GK) >= -tol)
    interior_disjoint = not _has_interior(np.vstack([GK.T, np.eye(K.dim)]))
    return in_orthant, interior_disjoint


# ---------------------------------------------------------------------------
# Randomized falsifier

# Trials run in blocks that double up to this many, for every pair of cones.
# 512 trials run as fast per trial as 1024 with half the arrays alive.
MAX_BLOCK = 512

# Size of the first block when K projects by a closed form (K._closed_form).
# NNLS and PAVA families open at one trial, so a violation in the first
# trials costs few solves; a closed form's rows cost too little for that to
# matter, while every block costs a fixed overhead.  Measured on a 2-core
# Xeon against opening at 1: held orthant and rotated-orthant runs rose from
# 1.66M to 1.86M trials/s in process, and refuted Lorentz-vs-simplicial
# calls (falsify plus verify) moved from 54 to 65.5 us at the median and
# from 71 to 67 us in the mean.  Opening at 64 gave 1.95M trials/s, but a
# median of 100 us on those refuted calls, and raised the falsify-solver
# benchmark's median by 6-16 % in three of four 15 s pairs.
OPENING_BLOCK = 16

# One scratch Philox generator per thread.  _stream sets its whole state, so
# what it then reads depends on no earlier read; setting the state costs a
# fraction of building a generator, which gathers OS entropy it then ignores.
_scratch = threading.local()


def _stream(seed):
    """The Philox stream keyed (seed, 0), set to read from counter 0.

    Each step of the 4-word Philox counter yields 4 64-bit words, so reads
    of whole steps leave the stream at the start of the next one, where a
    later read goes on.  The stream is this thread's scratch generator:
    another _stream call in the thread moves it.
    """
    bits = getattr(_scratch, "philox", None)
    if bits is None:
        bits = _scratch.philox = np.random.Philox(0)
    bits.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bits


def _uniforms(words):
    """Uniforms (k + 1/2) / 2**52 in the open interval (0, 1), k the top 52 bits.

    With 53 bits the sum k + 1/2 would round, and the largest word would map
    to exactly 1.
    """
    u = (words >> 12).astype(float)
    u += 0.5
    u *= 2.0**-52
    return u


def falsify(K, L, cfg=FalsifierConfig()):
    """Search for an ordered pair refuting L-isotonicity of the projection onto K.

    Trial t draws x and the direction d in L from the D words that follow
    counter ((t-1) * D/4, 0, 0, 0) of the Philox stream keyed (cfg.seed, 0),
    where D is m plus the direction's word count (L._directions), rounded up
    to a multiple of 4.  So trial t depends on (cfg.seed, t) only, and
    results are reproducible and independent of how trials are grouped into
    blocks; the returned counterexample is the one with the lowest trial
    index.  Blocks open at OPENING_BLOCK trials when K projects by a closed
    form and at one trial otherwise, and double up to MAX_BLOCK.  The stream
    is set once per call and each block reads on where the last one ended.
    A violation counts only if its pair passes the order test of
    verify_certificate: rounding fails it for a direction far below the
    scale of x.
    Returns None when no violation shows up within the budget; absence of a
    counterexample proves nothing.  Raises NonConvergenceError at the first
    trial whose solve, of the projection onto K or of the margin of L,
    exhausts its iteration cap, unless an earlier trial is a violation.
    """
    if K.dim != L.dim:
        raise DimensionMismatchError("K and L dimensions disagree")
    m = K.dim
    n_dir, directions = L._directions(cfg.scale)
    width = -(-(m + n_dir) // 4) * 4
    threshold = -10.0 * cfg.tol
    t = 1
    size = OPENING_BLOCK if K._closed_form else 1
    stream = _stream(cfg.seed)
    while t <= cfg.trials:
        count = min(size, cfg.trials - t + 1)
        u = _uniforms(stream.random_raw(count * width).reshape(count, width))
        d = directions(u[:, m:m + n_dir])
        xy = np.empty((2 * count, m))  # the x rows, then the y rows
        x = ndtri(u[:, :m], out=xy[:count])
        x *= cfg.scale
        np.add(x, d, out=xy[count:])
        p = K._solve_rows(xy)[0]
        v = p[count:] - p[:count]
        mg = L._margin_rows(v)
        # 1 + ||v|| >= 1, so only rows below the bare threshold can qualify.
        # A NaN margin marks a trial whose solve hit its iteration cap: trial
        # by trial it raises there, unless an earlier trial is a violation.
        # A block whose least margin passes (NaN does not) has no such row.
        low = () if mg.min() >= threshold else (~(mg >= threshold)).nonzero()[0]
        for i in low:
            if math.isnan(mg[i]):
                raise NonConvergenceError(f"trial {t + i}: nnls iteration cap exceeded")
            if (mg[i] < threshold * (1.0 + math.hypot(*v[i].tolist()))
                    and leq(L, xy[i], xy[count + i], cfg.tol)):
                return Counterexample(x=xy[i], y=xy[count + i], px=p[i], py=p[count + i],
                                      violation=v[i], margin=float(mg[i]), trial=t + int(i))
        t += count
        size = min(2 * size, MAX_BLOCK)
    return None


def verify_certificate(cert, K, L=None, tol=DEFAULT_TOL):
    """Independently re-check a certificate by its own check.

    False when the check runs and fails, or rejects its input (a ValueError,
    such as UnsupportedConeError).  A solve that hits its iteration cap
    decides nothing, so NonConvergenceError propagates.
    """
    check = getattr(cert, "_verify", None)
    try:
        _check_tol(tol)
        return check is not None and check(K, L, tol)
    except ValueError:
        return False
