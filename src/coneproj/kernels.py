"""Dense numerical kernels: NNLS, isotonic regression (PAVA) and LP feasibility.

All kernels are deterministic and operate on small dense problems (tens of
dimensions).  They back the cone projection and certification layers.

One Lawson-Hanson NNLS solver (nnls) serves every projection without a
closed form, reusing a matrix's least-squares operators in every later call
on an equal matrix, and answers the library's one LP question, whether
G x > 0 has a point: lp_feasible(G) finds the least-norm point of G y >= 1
by least-distance programming (Lawson & Hanson, Solving Least Squares
Problems, 1974, ch. 23), an NNLS problem on the matrix [G^T; 1^T].  It first
tries the sum of the unit rows as witness, and skips the solver when that
point is deep enough.  Either way it returns "feasible" only with a witness
that one product re-checks, so a feasibility verdict never rests on the
solver alone.  LpResult.margin is that witness's common slack: a lower bound
on the optimum of the LP that maximizes the common slack, not the optimum
itself.

A solve that hits its iteration cap leaves its answer undecided: nnls gives
that row NaN and lp_feasible the status "indeterminate".  The layers above
raise NonConvergenceError, the library's one exception for such an answer.
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


class NonConvergenceError(RuntimeError):
    """A Lawson-Hanson solve hit its iteration cap, leaving its answer undecided."""


@dataclass(frozen=True)
class LpResult:
    """Verdict of lp_feasible; witness and margin are set only when feasible."""

    status: str  # "feasible" | "infeasible" | "indeterminate"
    witness: np.ndarray | None
    margin: float  # the witness's common slack; NaN unless feasible


# Rows of the blocks _block_rows_agree compares with their one-row products:
# the falsifier's blocks are up to 512 trials, and its x and y rows twice that.
PROBE_ROWS = 32
PROBE_BLOCKS = (2, 3, 5, 8, 17, 33, 64, 512, 1024)

# _block_rows_agree's verdict for each (n, k, M in C order) that _rows_times
# has met in this process.  Two threads probing one key store the same verdict.
_block_verdicts = {}


def _block_times(X, M):
    """X @ M as one BLAS product, for a C-contiguous (B, n) array X, through
    ndarray.dot, which costs less per call than matmul.  A single row is
    doubled and its copy dropped: a one-row product goes to gemv, which
    rounds differently from the gemm that serves blocks."""
    if len(X) == 1:
        return X.repeat(2, axis=0).dot(M)[:1]
    return X.dot(M)


def _block_rows_agree(n, k, c_order):
    """Whether every row of _block_times comes out as in its own one-row call,
    on seeded data with an (n, k) matrix in C (or else F) order.

    PROBE_ROWS rows with norms from 1e-3 to 1e3 are multiplied one at a time;
    then blocks of PROBE_BLOCKS rows, tiled from the same rows at shifted
    offsets, must give those products bit for bit.  About 0.1-0.5 ms a shape.
    Evidence, not proof: a BLAS may pick another kernel for a block size,
    offset or thread count not tried here.
    """
    rng = np.random.default_rng(20160)
    M = rng.standard_normal((n, k))
    if not c_order:
        M = np.asfortranarray(M)
    X = rng.standard_normal((PROBE_ROWS, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (PROBE_ROWS, 1))
    one = np.concatenate([_block_times(x[None, :], M) for x in X])
    reps = -(-(PROBE_ROWS + max(PROBE_BLOCKS)) // PROBE_ROWS)
    X, one = np.tile(X, (reps, 1)), np.tile(one, (reps, 1))
    return all(_block_times(X[i:i + b], M).tobytes() == one[i:i + b].tobytes()
               for i, b in enumerate(PROBE_BLOCKS))


def _rows_times(X, M):
    """X @ M for a (B, n) array X and an (n, k) array M in C or F order, row
    i of the result depending on row i of X alone, bit for bit, whatever B is.

    A (B, n) @ (n, k) product picks its BLAS kernel by shape, and on some
    kernels a row rounds differently in a block of another size (OpenBLAS's
    generic one, OPENBLAS_CORETYPE=Prescott, does).  So the first use of each
    shape and order of M probes the running BLAS (_block_rows_agree).  Where
    it passes, the whole block is one product (_block_times); elsewhere
    matmul over the stack of (1, n) rows makes the same BLAS call for every
    row.  The probe is evidence, not proof that the BLAS keeps rows
    independent at every size.
    """
    key = (*M.shape, M.flags.c_contiguous)
    try:
        block = _block_verdicts[key]
    except KeyError:
        block = _block_verdicts[key] = _block_rows_agree(*key)
    if block:
        # The probe's layout for every X: a strided or F-order X would reach
        # BLAS by another route.
        return _block_times(np.ascontiguousarray(X), M)
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
    is below 2**-222 times the largest one.  Along an axis that path runs
    np.linalg.norm's own formula, sqrt(add.reduce(M * M)), without its wrapper.
    """
    M = np.asarray(M, dtype=float)
    top = np.abs(M).max(axis=axis, keepdims=True, initial=0.0)
    if all(2.0**-400 <= t <= 2.0**400 for t in top.ravel().tolist()):
        return np.linalg.norm(M) if axis is None else np.sqrt(np.add.reduce(M * M, axis))
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
    Raises ValueError unless y is a finite vector.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("pava needs a finite vector")
    return _isotonic_rows(y[None, :])[0]


# Bounds of nnls's table: operators a matrix (256 hold all 255 passive sets of
# 8 columns) and matrices (the benchmark's falsify-solver solves on up to 49).
OPERATOR_CACHE_SIZE = 256
_SOLVER_CACHE_SIZE = 64
_solvers = {}


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


def nnls(A, B, max_iter=None):
    """Lawson-Hanson active-set solutions of min ||A @ c - b|| over c >= 0,
    one for each row b of the (R, m) array B, for a finite (m, n) array A.

    A may have any shape, including more columns than rows and dependent
    columns: a column enters the passive set only while its gradient exceeds
    NNLS_RTOL relative to the largest entry of A, so columns in the span of the
    passive ones never enter.  Each row b is divided by the exact power of two
    2**e, e = frexp(max|b|)[1], and its solution multiplied back, so the fixed
    relative tolerance holds at every scale (1e-300 to 1e300).  Column selection
    breaks ties toward the lowest index, so the output is deterministic.
    Passive coefficients are strictly positive and the rest exactly zero.

    Rows are solved one at a time, so a row's result does not depend on the
    other rows of B, bit for bit.  Rows that visit the same passive set share
    its least-squares operator (_operator), as do later calls on an equal A
    (combinatorial NNLS): a module table keyed by A's shape, strides (C and F
    order round differently) and bytes, all an operator depends on, keeps
    A's tolerance and operators; a full table or operator dict is emptied in
    one atomic step, so threads may share them.

    Returns (coefficients (R, n), iterations (R,)).  A row that exhausts the
    iteration cap (10 * columns by default), or has a non-finite entry, gets
    NaN coefficients; the other rows are unaffected.  Shapes other than
    these, or a non-finite entry of A, raise ValueError.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or B.shape[1] != A.shape[0]:
        raise ValueError("A must be (m, n) and B (R, m)")
    n = A.shape[1]
    if max_iter is None:
        max_iter = 10 * n
    key = (A.shape, A.strides, A.tobytes())
    entry = _solvers.get(key)
    if entry is None:
        tol = NNLS_RTOL * float(np.abs(A).max(initial=0.0))
        if not math.isfinite(tol):
            raise ValueError("A must be finite")
        if len(_solvers) >= _SOLVER_CACHE_SIZE:
            _solvers.clear()
        entry = _solvers[key] = (tol, {})
    tol, operators = entry
    top = np.abs(B).max(axis=1, initial=0.0)
    e = np.frexp(top)[1][:, None]
    B = np.ldexp(B, -e)
    X = []
    iterations = []
    for b, t in zip(B, top.tolist()):
        x, count = _lawson_hanson(A, b, operators, tol, max_iter) if math.isfinite(t) else (None, 0)
        X.append([math.nan] * n if x is None else x)
        iterations.append(count)
    return np.ldexp(np.array(X).reshape(-1, n), e), np.array(iterations, dtype=np.int64)


def _least_distance(G, h):
    """Least-norm solution of G y >= h for (k, n) unit rows G, or an LpResult.

    Least-distance programming (Lawson & Hanson, ch. 23): u >= 0 minimizing
    ||[G^T; h^T] u - e_last|| is positive on the rows tight at the least-norm
    point, which is the least-norm solution of those rows as equations.
    Solving them is the textbook -r[:-1] / r[-1], r the NNLS residual,
    without its cancellation when r is small, as it is on a thin or empty
    set.  An empty set comes back as a point that violates some row, or as
    "infeasible" where Gordan's bound min(G x) <= ||G^T u||_1 max|x| / sum(u)
    plus (k + n) eps sqrt(n) box, for rounding in it and in a witness check,
    is below margin over the box.  At the NNLS cap: "indeterminate".
    """
    k, n = G.shape
    target = np.zeros((1, n + 1))
    target[0, -1] = 1.0
    u = nnls(np.vstack([G.T, h]), target)[0][0]
    if np.isnan(u[0]):
        return LpResult(status="indeterminate", witness=None, margin=math.nan)
    tight = u > 0.0
    if not tight.any():
        return np.zeros(n)  # h <= 0: the origin
    bound = np.abs(u.dot(G)).sum() / u.sum() + (k + n) * EPS * math.sqrt(n)
    if bound * DEFAULT_BOX < DEFAULT_MARGIN:
        return LpResult(status="infeasible", witness=None, margin=math.nan)
    # The tight rows of G are columns of G^T: their least-squares operator
    # maps h to the least-norm solution of those rows as equations.
    return _operator(G.T, tight)[:, :h.size].dot(h)


def _witness(G, y, depth):
    """x = box * y / max|y| as a "feasible" LpResult if min(G x) >= depth, else None."""
    top = float(np.abs(y).max())
    if top > 0.0:
        x = y / top * DEFAULT_BOX
        slack = float((G @ x).min())
        if slack >= depth:
            return LpResult(status="feasible", witness=x, margin=slack)
    return None


def _least_distance_feasible(G):
    """lp_feasible's verdict on unit rows G by least-distance programming."""
    y = np.zeros(G.shape[1])
    for _ in range(LDP_PASSES):
        c = 1.0 - G @ y
        e = np.frexp(np.abs(c).max())[1]
        w = _least_distance(G, np.ldexp(c, -e))
        if isinstance(w, LpResult):
            return w
        y = y + np.ldexp(w, e)
        res = _witness(G, y, DEFAULT_MARGIN)
        if res is not None:
            return res
        # Lawson-Hanson stops once no gradient exceeds NNLS_RTOL, which here
        # admits a row violated by up to about 4 NNLS_RTOL ||w||**2 of the
        # scaled right-hand side: correct y while that could pass 2**-10.
        nw = math.hypot(*w.tolist())
        if 4.0 * NNLS_RTOL * nw * nw <= 2.0 ** -10:
            break
    return LpResult(status="infeasible", witness=None, margin=math.nan)


def lp_feasible(G):
    """Decide whether G x > 0 has a point, for a finite (k, m) array G with
    nonzero rows: "feasible" when some x with ||x||_inf <= DEFAULT_BOX has
    common slack min(G x) >= DEFAULT_MARGIN on the unit rows.  Each row is
    divided by its norm from _norms, so any finite nonzero scale works, and
    scaling a row by a power of two leaves verdict and witness bit-identical.
    Only the depth of {G x >= 0} counts, against margin / box = 1e-10.

    Candidate step: x = box * y / max|y|, y = G^T 1 the sum of the unit
    rows, answers "feasible" when its slack is at least 2 sqrt(m) margin in
    R^m.  That leaves every verdict as the least-distance route gives it:
    the LP optimum s* is at least that slack, and the least-distance point
    has slack at least s* / sqrt(m) >= 2 margin.  (Where that route would
    hit its iteration cap, the candidate decides instead.)  Deep systems,
    such as the interior intersections of the paper's cone pairs, cost one
    product.

    Least-distance route: y is the least-norm solution of G y >= 1
    (_least_distance), and x = box * y / max|y|.  On a thin set the
    solver's stopping test is coarse, so y is then corrected by the
    least-norm d with G d >= 1 - G y, up to LDP_PASSES solves in all.

    Either step answers "feasible" only after checking min(G x) >= margin
    on x itself; x is the witness and its slack the margin, a lower bound on
    the optimum of the LP that maximizes the common slack over the box.
    Otherwise the status is "infeasible" (proved by Gordan where it can be),
    or "indeterminate" at the solver's iteration cap.  As y has the least
    2-norm and the box bounds the inf-norm, the verdict can differ from that
    LP only when its optimum is in [margin, sqrt(m) margin): "feasible" cannot err.

    Raises ValueError when G is not a (k, m) array with rows, an entry is
    not finite or a row is zero.
    """
    # C order: a row's products and norm round the same in either layout.
    G = np.ascontiguousarray(G, dtype=float)
    if G.ndim != 2:
        raise ValueError("G must be (k, m): dimensions disagree")
    if not len(G):
        raise ValueError("no constraints given")
    if not np.isfinite(G).all():
        raise ValueError("constraints must be finite")
    norms = _norms(G, axis=1)
    if not norms.all():
        raise ValueError("zero constraint normal")
    G = G / norms[:, None]
    res = _witness(G, G.sum(axis=0), 2.0 * math.sqrt(G.shape[1]) * DEFAULT_MARGIN)
    return _least_distance_feasible(G) if res is None else res


def _has_interior(G):
    """True iff G x > 0 has a point, for a (k, m) array G: lp_feasible's
    verdict as a bool, asked through the module global so that a tracer
    that rebinds kernels.lp_feasible sees every call.  Raises
    NonConvergenceError when the solver hits its iteration cap."""
    res = lp_feasible(G)
    if res.status == "indeterminate":
        raise NonConvergenceError("interior LP indeterminate")
    return res.status == "feasible"
