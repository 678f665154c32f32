"""Dense numerical kernels: NNLS, isotonic regression (PAVA) and LP feasibility.

All kernels are deterministic and operate on small dense problems (tens of
dimensions).  They back the cone projection and certification layers.

One Lawson-Hanson NNLS solver (_lawson_hanson_rows) serves every projection
without a closed form and also decides feasibility: lp_feasible finds the
least-norm point of a system G x >= h by least-distance programming (Lawson
& Hanson, Solving Least Squares Problems, 1974, ch. 23), an NNLS problem on
the matrix [G^T; h^T].  A homogeneous system first tries the sum of its
unit rows as witness, and skips the solver when that point is deeper than
2 sqrt(m) margin, where the solver's verdict is "feasible" too.  Either
way it returns "feasible" only with a witness that one product re-checks,
so a feasibility verdict never rests on the solver alone.
LpResult.margin is that witness's common slack: a lower bound on the optimum
of the LP that maximizes the common slack, not the optimum itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

# Smallest/largest singular value ratio below which a matrix is treated as
# rank deficient.
RANK_RTOL = 1e-8

# Lawson-Hanson stops once no free column's gradient exceeds this multiple of
# max|A| (with b scaled to max|b| in [0.5, 1)).
NNLS_RTOL = 1e-12

EPS = np.finfo(float).eps

DEFAULT_BOX = 1e3
DEFAULT_MARGIN = 1e-7

# Least-distance solves in one lp_feasible call: the first finds the
# least-norm point, later ones correct it where the set is thin.
LDP_PASSES = 4


class SingularMatrixError(ValueError):
    """Matrix is singular or rank deficient beyond the configured threshold."""


class IndeterminateError(RuntimeError):
    """An iterative kernel failed to reach a conclusive answer."""


@dataclass(frozen=True)
class NnlsResult:
    """Solution of min ||A @ coefficients - b|| subject to coefficients >= 0."""

    coefficients: np.ndarray
    residual: float
    active: frozenset  # indices clamped at zero


@dataclass(frozen=True)
class LpResult:
    """Verdict of lp_feasible; witness and margin are set only when feasible."""

    status: str  # "feasible" | "infeasible" | "indeterminate"
    witness: np.ndarray | None
    margin: float  # the witness's common slack; NaN unless feasible


def _rows_times(X, M):
    """X @ M for a (B, n) array X, computed row by row.

    matmul over the stack of (1, n) rows makes the same BLAS call for every
    row, so row i of the result depends on row i of X alone, bit for bit,
    whatever B is.  A single (B, n) @ (n, k) product picks its kernel by
    shape, and a row can round differently in a block of another size.
    """
    return np.matmul(X[:, None, :], M)[:, 0, :]


def _row_min(X, initial=None):
    """X.min(axis=1, initial=initial) of a (B, n) array, reduced along the block
    axis of a contiguous transposed copy: n passes over B entries, not B over n.
    Min is exact, so only a tie of +0.0 and -0.0 can keep another zero."""
    return np.minimum.reduce(np.ascontiguousarray(X.T), axis=0, initial=initial)


def _row_norms(X):
    """Euclidean norm of each row of a (B, n) array, without overflow: np.hypot
    folded over the columns in order along the block axis, bit for bit."""
    return np.hypot.reduce(np.ascontiguousarray(X.T), axis=0, initial=0.0)


def _norms(M, axis=None):
    """np.linalg.norm(M, axis=axis) of a real array, without overflow or underflow.

    Each vector is divided by the exact power of two 2**e, e =
    frexp(max|entry|)[1], before np.linalg.norm, and its norm multiplied
    back.  Powers of two commute with the squares, sums and square root, so
    the result is bit-identical to np.linalg.norm wherever that neither
    overflows nor reaches subnormals, and finite and nonzero for every finite
    nonzero vector.  The prescale is skipped where every largest entry lies in
    [2**-400, 2**400]: no square overflows there, and a square that underflows
    is below 2**-222 times the largest one.
    """
    M = np.asarray(M, dtype=float)
    top = np.abs(M).max(axis=axis, keepdims=True, initial=0.0)
    if all(2.0**-400 <= t <= 2.0**400 for t in top.ravel().tolist()):
        return np.linalg.norm(M, axis=axis)
    e = np.frexp(top)[1]
    n = np.linalg.norm(np.ldexp(M, -e), axis=axis)
    return np.ldexp(n, e.reshape(np.shape(n)))


def _isotonic_rows(Y):
    """Nonincreasing isotonic regression of each row of a (B, m) array.

    Pool-adjacent-violators, one row at a time: O(m) work and memory per row,
    and each row's result depends on that row alone, bit for bit.
    """
    # Blocks of (mean, count) of all rows, in order; a row's value merges into
    # the blocks of its own row while the nonincreasing order is violated.
    means = []
    counts = []
    for y in Y.tolist():
        start = len(means)
        for v in y:
            count = 1
            while len(means) > start and means[-1] < v:
                k = counts.pop()
                v = (means.pop() * k + v * count) / (k + count)
                count += k
            means.append(v)
            counts.append(count)
    return np.repeat(np.array(means, dtype=float), counts).reshape(Y.shape)


def pava(y):
    """Nonincreasing isotonic regression of y by pool-adjacent-violators.

    Returns the Euclidean projection of y onto {x : x_1 >= x_2 >= ... >= x_m},
    the one-row call of the row kernel the monotone cone projects with.
    """
    return _isotonic_rows(np.asarray(y, dtype=float)[None, :])[0]


# Least-squares operators an NNLS solver keeps for one matrix, one for each
# passive set it visits.  A full cache is emptied before the next one goes
# in: one atomic step, so threads may share a cone.
OPERATOR_CACHE_SIZE = 128


def _operator(A, passive):
    """(m, 2n) operator [O | G] of the least-squares solve on the columns of A
    in the boolean mask `passive`, for right-hand sides b taken as rows.

    b @ O holds the minimum-norm least-squares coefficients of b on those
    columns (zero elsewhere), from LAPACK's complete orthogonal (QR with
    column pivoting) solver dgelsy; b @ G is the gradient A^T (b - A c) at
    those coefficients c.
    """
    m, n = A.shape
    idx = passive.nonzero()[0]
    k = idx.size
    AS = A.take(idx, axis=1)
    mn = min(m, k)
    # dgelsy's minimal workspace, max(MN + 3N + 1, 2MN + NRHS), saves a query.
    _, pinv, _, _, info = lapack.dgelsy(AS, np.eye(max(m, k), m), np.zeros(k, dtype=np.int32),
                                        EPS * max(m, k), max(mn + 3 * k + 1, 2 * mn + m))
    if info:
        raise np.linalg.LinAlgError(f"dgelsy failed with info {info}")
    pinv = pinv[:k]
    op = np.zeros((m, 2 * n))
    op.T[idx] = pinv
    op[:, n:] = A - pinv.T.dot(AS.T.dot(A))
    return op


def _lawson_hanson(A, b, operators, tol, max_iter):
    """Lawson-Hanson on one right-hand side b, scaled so max|b| < 1.

    The products with A and the operators run in numpy (ndarray.dot, which
    costs a third of matmul's call overhead on these small operands); the
    bookkeeping on the n coefficients runs on Python floats, which costs less
    than a numpy call at the sizes solved here and rounds the same.  Returns
    (coefficients as a list, iterations); the coefficients are None once
    the iteration cap is exhausted.
    """
    n = A.shape[1]
    x = [0.0] * n
    passive = [False] * n
    w = b.dot(A).tolist()  # gradient at x = 0
    iterations = 0
    while True:
        w = [-math.inf if p else v for p, v in zip(passive, w)]
        top = max(w)
        if top <= tol:
            return x, iterations
        passive[w.index(top)] = True  # ties go to the lowest index
        while True:
            iterations += 1
            if iterations > max_iter:
                return None, iterations
            key = bytes(passive)
            op = operators.get(key)
            if op is None:
                if len(operators) >= OPERATOR_CACHE_SIZE:
                    operators.clear()
                op = operators[key] = _operator(A, np.frombuffer(key, dtype=bool))
            sw = b.dot(op).tolist()
            s = sw[:n]
            blocking = [i for i in range(n) if passive[i] and s[i] <= 0.0]
            if not blocking:
                x, w = s, sw[n:]
                break
            if any(x[i] == 0.0 for i in blocking):
                # Only the entering column starts at zero.  It cannot move
                # off zero, so its gradient was rounding noise and x is
                # already optimal.
                return x, iterations
            # Step toward s until the first passive coefficient hits zero.
            k = min(blocking, key=lambda i: x[i] / (x[i] - s[i]))
            ratio = x[k] / (x[k] - s[k])
            x = [max(xi + ratio * (si - xi), 0.0) for xi, si in zip(x, s)]
            x[k] = 0.0
            passive = [xi > 0.0 for xi in x]


def _lawson_hanson_rows(A, B, operators, max_iter=None):
    """Lawson-Hanson active-set solutions of min ||A @ c - b|| over c >= 0,
    one for each row b of the (R, m) array B.

    Shared by every NNLS route.  A may have any shape, including more
    columns than rows and dependent columns: a column enters the passive set
    only while its gradient exceeds NNLS_RTOL relative to the largest entry
    of A, so columns in the span of the passive ones never enter.  Each row
    b is divided by the exact power of two 2**e, e = frexp(max|b|)[1], and
    its solution multiplied back, so the fixed relative tolerance holds at
    every scale (1e-300 to 1e300).  Column selection breaks ties toward the
    lowest index, so the output is deterministic.  Passive coefficients are
    strictly positive and the rest exactly zero.

    Rows are solved one at a time, so a row's result does not depend on the
    other rows of B, bit for bit.  Rows that visit the same passive set
    share its least-squares operator (_operator): `operators` maps passive
    masks, as bytes, to their operators, and the caller keeps it with A for
    later calls (combinatorial NNLS); it holds at most OPERATOR_CACHE_SIZE.

    Returns (coefficients (R, n), iterations (R,)).  A row that exhausts the
    iteration cap (10 * columns by default), or has a non-finite entry, gets
    NaN coefficients; the other rows are unaffected.
    """
    n = A.shape[1]
    if max_iter is None:
        max_iter = 10 * n
    top = np.abs(B).max(axis=1, initial=0.0)
    e = np.frexp(top)[1][:, None]
    B = np.ldexp(B, -e)
    tol = NNLS_RTOL * float(np.abs(A).max(initial=0.0))
    X = []
    iterations = []
    for b, t in zip(B, top.tolist()):
        x, count = _lawson_hanson(A, b, operators, tol, max_iter) if math.isfinite(t) else (None, 0)
        X.append([math.nan] * n if x is None else x)
        iterations.append(count)
    return np.ldexp(np.array(X).reshape(-1, n), e), np.array(iterations, dtype=np.int64)


def nnls(A, b, max_iter=None):
    """Lawson-Hanson nonnegative least squares with a full-rank check.

    Minimizes ||A @ x - b|| subject to x >= 0 for finite A with full column
    rank (columns <= rows) and finite b; the solve itself is the shared
    relative-tolerance solver, exact at any scale of b and deterministic.

    Raises ValueError on a bad shape or non-finite entries,
    SingularMatrixError on rank-deficient A and IndeterminateError when the
    iteration cap (10 * columns by default) is exhausted.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError("A must be a matrix and b a vector with one entry per row")
    m, n = A.shape
    if m < n:
        raise ValueError("A must have at least as many rows as columns")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < RANK_RTOL * sv[0]:
        raise SingularMatrixError("A is rank deficient")
    C, _ = _lawson_hanson_rows(A, b[None, :], {}, max_iter)
    x = C[0]
    if np.isnan(x).any():
        raise IndeterminateError("nnls iteration cap exceeded")
    residual = float(np.linalg.norm(b - A @ x))
    active = frozenset(np.flatnonzero(x == 0.0).tolist())
    return NnlsResult(coefficients=x, residual=residual, active=active)


def _least_distance(G, h):
    """Least-norm solution of G y >= h, or None at the NNLS iteration cap.

    Least-distance programming (Lawson & Hanson, ch. 23): u >= 0 minimizing
    ||[G^T; h^T] u - e_last|| is positive on the rows tight at the least-norm
    point, which is the least-norm solution of those rows as equations.
    Solving them is the textbook -r[:-1] / r[-1], r the NNLS residual,
    without its cancellation when r is small, as it is on a thin or empty
    set.  An empty set comes back as a point that violates some row.
    """
    n = G.shape[1]
    target = np.zeros((1, n + 1))
    target[0, -1] = 1.0
    u = _lawson_hanson_rows(np.vstack([G.T, h]), target, {})[0][0]
    if np.isnan(u[0]):
        return None
    tight = u > 0.0
    if not tight.any():
        return np.zeros(n)  # h <= 0: the origin
    # The tight rows of G are columns of G^T: their least-squares operator
    # maps h to the least-norm solution of those rows as equations.
    return _operator(G.T, tight)[:, :h.size].dot(h)


def _constraint_rows(constraints):
    """(normal, offset, sense) triples as the rows G x >= h, unnormalized."""
    rows = []
    rhs = []
    for normal, offset, sense in constraints:
        u = np.asarray(normal, dtype=float)
        if rows and u.size != rows[0].size:
            raise ValueError("constraint dimensions disagree")
        if sense == ">=":
            rows.append(u)
            rhs.append(float(offset))
        elif sense == "<=":
            rows.append(-u)
            rhs.append(-float(offset))
        else:
            raise ValueError(f"unknown sense {sense!r}")
    if not rows:
        raise ValueError("no constraints given")
    return np.array(rows), np.array(rhs)


def _unit_rows(G, h):
    """The rows G x >= h rescaled to unit normals.

    Each row is divided by its norm from _norms, so scaling a row by a power
    of two leaves G and h bit-identical.
    """
    if not (np.isfinite(G).all() and np.isfinite(h).all()):
        raise ValueError("constraints must be finite")
    norms = _norms(G, axis=1)
    if not norms.all():
        raise ValueError("zero constraint normal")
    return G / norms[:, None], h / norms


def _least_distance_feasible(G, h, box, margin):
    """lp_feasible's verdict on unit rows G x >= h by least-distance programming."""
    homogeneous = not h.any()
    t = np.ones(h.size) if homogeneous else h + 2.0 * margin
    y = np.zeros(G.shape[1])
    for _ in range(LDP_PASSES):
        c = t - G @ y
        e = np.frexp(np.abs(c).max())[1]
        w = _least_distance(G, np.ldexp(c, -e))
        if w is None:
            return LpResult(status="indeterminate", witness=None, margin=math.nan)
        y = y + np.ldexp(w, e)
        top = float(np.abs(y).max())
        x = y / top * box if homogeneous and top > 0.0 else y
        slack = float((G @ x - h).min())
        if slack >= margin and float(np.abs(x).max()) <= box:
            return LpResult(status="feasible", witness=x, margin=slack)
        # Lawson-Hanson stops once no gradient exceeds NNLS_RTOL, which here
        # admits a row violated by up to about 4 NNLS_RTOL ||w||**2 of the
        # scaled right-hand side: correct y while that could pass 2**-10.
        nw = math.hypot(*w.tolist())
        if 4.0 * NNLS_RTOL * nw * nw <= 2.0 ** -10:
            break
    return LpResult(status="infeasible", witness=None, margin=math.nan)


def lp_feasible(constraints, box=DEFAULT_BOX, margin=DEFAULT_MARGIN):
    """Decide whether the linear inequalities admit a point with uniform slack.

    `constraints` is an iterable of finite (normal, offset, sense) triples
    encoding <normal, x> <= offset (sense "<=") or >= offset (sense ">=").
    They are rewritten as rows G x >= h with unit normals (rescaled by
    _norms, so any finite nonzero scale works), so `margin` is a geometric
    distance.  The system is "feasible" when some x with ||x||_inf <= box
    has common slack min(G x - h) >= margin.

    Candidate step: a homogeneous system (every offset 0) first tries x =
    box * y / max|y|, y = G^T 1 the sum of its unit rows, and answers
    "feasible" with it when its checked slack min(G x) is at least 2
    sqrt(m) margin in R^m.  That leaves every verdict as the least-distance
    route below gives it: the LP optimum s* is at least that slack, and the
    least-distance point has slack at least s* / sqrt(m) >= 2 margin, twice
    what it needs.  (Where that route would hit its iteration cap, the
    candidate decides instead.)  Deeply feasible systems, such as the
    interior intersections of the paper's cone pairs, then cost one
    product.  Every other system, and every candidate below the threshold,
    goes on to the least-distance route.

    Least-distance route: least-distance programming on the shared
    Lawson-Hanson solver (_least_distance), with each right-hand side
    divided by the power of two nearest its largest entry.  A homogeneous
    system is scale free: y is the least-norm solution of G y >= 1, and x =
    box * y / max|y|.  Any other system is solved as G x >= h + 2 margin;
    the doubled margin keeps the re-checked slack of the rows tight at x
    above margin despite rounding.  On a thin set the solver's stopping test
    is coarse, so the point is then corrected by the least-norm d with G d
    >= rhs - G y (iterative refinement), up to LDP_PASSES solves in all.

    Returns "feasible" only after checking x directly, min(G x - h) >=
    margin and max|x| <= box (which the candidate meets by construction,
    max|x| = box); the result then holds x as witness and its common slack
    as margin, a lower bound on the optimum of the LP that maximizes the
    common slack over the box.  Otherwise the status is
    "infeasible", or "indeterminate" when the solver hits its iteration cap.

    Where the verdict can differ from that LP: x has the least 2-norm, while
    the box bounds the inf-norm, which in R^m is at least the 2-norm over
    sqrt(m).  So on a homogeneous system the two can disagree only when the
    LP optimum lies in [margin, sqrt(m) margin), that is, when the depth of
    the interior is within a factor sqrt(m) of margin / box.  On any other
    system, only when the LP optimum lies in [margin, 2 margin) or the
    least-norm x leaves the box by at most a factor sqrt(m).  A "feasible"
    verdict carries its checked witness, so it cannot err the other way.
    """
    return _feasible(*_constraint_rows(constraints), box, margin)


def _feasible(G, h, box=DEFAULT_BOX, margin=DEFAULT_MARGIN):
    """lp_feasible of the system G x >= h, given as a (k, m) array G and a
    (k,) array h: the entry for callers that hold their rows as arrays."""
    # C order: a row's products and norm then round as in lp_feasible's own rows.
    G, h = _unit_rows(np.ascontiguousarray(G, dtype=float), np.asarray(h, dtype=float))
    if not h.any():
        y = G.sum(axis=0)
        top = float(np.abs(y).max())
        if top > 0.0:
            x = y / top * box
            slack = float((G @ x).min())
            if slack >= 2.0 * math.sqrt(G.shape[1]) * margin:
                return LpResult(status="feasible", witness=x, margin=slack)
    return _least_distance_feasible(G, h, box, margin)
