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
    UnsupportedConeError,
    _check_dim,
    cone_margin,
    dual,
    facet_normals,
    generator_matrix,
    gram,
    is_proper,
    membership,
)
from .kernels import IndeterminateError, _feasible
from .projections import NonConvergenceError

DEFAULT_TOL = 1e-9


class SamplingError(RuntimeError):
    """Rejection sampling of order directions failed to produce points."""


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

    @property
    def inconclusive(self):
        return not self.refuted

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
    isotone: bool
    offending_normal: np.ndarray | None
    facet_count: int


@dataclass(frozen=True)
class FalsifierConfig:
    trials: int = 10_000
    seed: int = 42
    tol: float = DEFAULT_TOL
    scale: float = 10.0

    def __post_init__(self):
        if self.trials < 1 or self.tol <= 0 or self.scale <= 0:
            raise ValueError("invalid falsifier configuration")


Certificate = SubdualWitness | Obstruction | ContainmentReport | Counterexample


def leq(L, x, y, tol=DEFAULT_TOL):
    """Order test x <=_L y, i.e. y - x in L."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError("x and y dimensions disagree")
    return membership(L, y - x, tol)


def hyperplane_isotone(K, u, tol=DEFAULT_TOL):
    """True iff projection onto the hyperplane through 0 with normal u maps K into K.

    Checked on the generators, which suffices by linearity and convexity.
    Hyperplanes with nonzero anchor reduce to the same test because the
    ordering is translation invariant.
    """
    u = np.asarray(u, dtype=float)
    nu = float(np.linalg.norm(u))
    if abs(nu - 1.0) > 1e-9:
        raise ValueError("u must be unit length")
    V = generator_matrix(K)
    W = V - np.outer(u, u @ V)
    return all(membership(K, W[:, j], tol) for j in range(V.shape[1]))


def check_subdual(K, tol=DEFAULT_TOL):
    """True iff every pairwise generator inner product is >= -tol (K within K*)."""
    return float(np.min(gram(K))) >= -tol


def sign_flip_search_gram(G, tol=DEFAULT_TOL):
    """Two-sided index split compatible with the Gram sign pattern, or an odd cycle.

    Edges: G_ij > tol forces i, j onto the same side; G_ij < -tol onto
    opposite sides.  Breadth-first 2-coloring with parity either yields the
    split (SubdualWitness) or an odd cycle of constraints (Obstruction).
    """
    G = np.asarray(G, dtype=float)
    m = G.shape[0]
    # parity 0: same side, parity 1: opposite sides
    adj = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if G[i, j] > tol:
                adj[i].append((j, 0))
                adj[j].append((i, 0))
            elif G[i, j] < -tol:
                adj[i].append((j, 1))
                adj[j].append((i, 1))

    color = np.full(m, -1, dtype=int)
    parent = np.full(m, -1, dtype=int)
    depth = np.zeros(m, dtype=int)
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
    index_set = frozenset(np.flatnonzero(color == 0).tolist())
    eps = np.where(color == 0, 1.0, -1.0)
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
    ULdual = facet_normals(dual(L))

    k_in_l = all(membership(L, GK[:, j], tol) for j in range(GK.shape[1]))
    l_in_k_dual = bool(np.min(GK.T @ GL) >= -tol)
    k_subdual = bool(np.min(GK.T @ GK) >= -tol)

    def interior_vs(normals):
        # <g, x> > 0 for the generators g of K (strict interior of K*), <u, x> <= 0.
        res = _feasible(np.vstack([GK.T, -normals]), np.zeros(GK.shape[1] + len(normals)))
        if res.status == "indeterminate":
            raise IndeterminateError("interior intersection LP indeterminate")
        return res.status == "feasible"

    return ContainmentReport(
        k_in_l=k_in_l,
        l_in_k_dual=l_in_k_dual,
        k_subdual=k_subdual,
        interior_kdual_l=interior_vs(UL),
        interior_kdual_ldual=interior_vs(ULdual),
    )


def orthant_isotone_recognize(K, tol=DEFAULT_TOL):
    """Recognize cones whose projection is isotone for the coordinatewise order.

    Every facet normal may touch at most two coordinates, and where it
    touches two the entries must have opposite (or zero) signs; a cone in
    R^m then has at most m(m-1) facets.
    """
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
    m = K.dim
    res = _feasible(np.vstack([GK.T, np.eye(m)]), np.zeros(GK.shape[1] + m))
    if res.status == "indeterminate":
        raise IndeterminateError("alternatives LP indeterminate")
    interior_disjoint = res.status == "infeasible"
    return in_orthant, interior_disjoint


# ---------------------------------------------------------------------------
# Randomized falsifier

# Trials run in blocks that double up to this many (halfspace orders, which
# sample by rejection, run one trial at a time).  512 trials run as fast per
# trial as 1024 with half the arrays alive.
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


def _stream(seed, lane, counter):
    """The Philox stream keyed (seed, lane), set to read on from a counter.

    counter is the 4-word Philox counter; each step of it yields 4 64-bit
    words, so reads of whole steps leave the stream at the start of the next
    one, where a later read goes on.  The stream is this thread's scratch
    generator: another _stream call in the thread moves it.
    """
    bits = getattr(_scratch, "philox", None)
    if bits is None:
        bits = _scratch.philox = np.random.Philox(0)
    bits.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array(counter, dtype=np.uint64),
            "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, lane], dtype=np.uint64),
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


def _halfspace_direction(L, seed, scale, t):
    """Direction in L for trial t by rejection from the cube, as a (1, m) array.

    Candidate j is scale * (2u - 1) for the first m of the W words (m rounded
    up to a multiple of 4) that follow counter ((t-1) * W/4, j, 0, 0) of the
    stream keyed (seed, 1); the first candidate inside L is taken.  Raises
    SamplingError after 1000 rejected candidates.
    """
    m = L.dim
    width = -(-m // 4) * 4
    for j in range(1000):
        words = _stream(seed, 1, ((t - 1) * width // 4, j, 0, 0)).random_raw(width)
        cand = scale * (2.0 * _uniforms(words[None, :m]) - 1.0)
        if L._margin_rows(cand)[0] >= 0.0:
            return cand
    raise SamplingError("rejection sampling failed for the halfspace cone")


def falsify(K, L, cfg=FalsifierConfig()):
    """Search for an ordered pair refuting L-isotonicity of the projection onto K.

    Trial t draws x and the direction d in L from the D words that follow
    counter ((t-1) * D/4, 0, 0, 0) of the Philox stream keyed (cfg.seed, 0),
    where D is m plus the direction's word count, rounded up to a multiple of
    4 (halfspace orders draw d from their own stream, see
    _halfspace_direction).  So trial t depends on (cfg.seed, t) only, and
    results are reproducible and independent of how trials are grouped into
    blocks; the returned counterexample is the one with the lowest trial
    index.  Blocks open at OPENING_BLOCK trials when K projects by a closed
    form and at one trial otherwise, and double up to MAX_BLOCK; halfspace
    orders run one trial per block.  The stream is set once per call and
    each block reads on where the last one ended (halfspace orders, whose
    own stream moves the shared generator, set it again for every block).
    Returns None when no violation shows up within the budget; absence of a
    counterexample proves nothing.  Raises NonConvergenceError
    (IndeterminateError for the margin of L) at the first trial whose solve
    exhausts its iteration cap, unless an earlier trial is a violation.
    """
    if K.dim != L.dim:
        raise DimensionMismatchError("K and L dimensions disagree")
    m = K.dim
    # Orders with no sampler of their own draw d by rejection, one trial at a time.
    n_dir, directions = L._directions(cfg.scale) or (0, None)
    width = -(-(m + n_dir) // 4) * 4
    threshold = -10.0 * cfg.tol
    t = 1
    size = OPENING_BLOCK if K._closed_form and directions is not None else 1
    while t <= cfg.trials:
        count = min(size, cfg.trials - t + 1)
        if t == 1 or directions is None:
            stream = _stream(cfg.seed, 0, ((t - 1) * width // 4, 0, 0, 0))
        u = _uniforms(stream.random_raw(count * width).reshape(count, width))
        d = (directions(u[:, m:m + n_dir]) if directions is not None
             else _halfspace_direction(L, cfg.seed, cfg.scale, t))
        xy = np.empty((2 * count, m))  # the x rows, then the y rows
        x = ndtri(u[:, :m], out=xy[:count])
        x *= cfg.scale
        np.add(x, d, out=xy[count:])
        p = K._project_rows(xy)
        v = p[count:] - p[:count]
        mg = L._margin_rows(v)
        # 1 + ||v|| >= 1, so only rows below the bare threshold can qualify.
        # A NaN margin marks a trial whose solve hit its iteration cap: trial
        # by trial it raises there, unless an earlier trial is a violation.
        # A block whose least margin passes (NaN does not) has no such row.
        low = () if mg.min() >= threshold else (~(mg >= threshold)).nonzero()[0]
        for i in low:
            if math.isnan(mg[i]):
                error = NonConvergenceError if np.isnan(v[i]).any() else IndeterminateError
                raise error(f"trial {t + i}: nnls iteration cap exceeded")
            if mg[i] < threshold * (1.0 + math.hypot(*v[i].tolist())):
                return Counterexample(x=xy[i], y=xy[count + i], px=p[i], py=p[count + i],
                                      violation=v[i], margin=float(mg[i]), trial=t + int(i))
        t += count
        if directions is not None:
            size = min(2 * size, MAX_BLOCK)
    return None


def verify_certificate(cert, K, L=None, tol=DEFAULT_TOL):
    """Independently re-check a certificate by its own check; False on any failure."""
    check = getattr(cert, "_verify", None)
    try:
        return check is not None and check(K, L, tol)
    except (ValueError, UnsupportedConeError, IndeterminateError):
        return False
