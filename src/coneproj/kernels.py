"""Dense numerical kernels: nonnegative least squares and LP feasibility.

All kernels are deterministic and operate on small dense problems (tens of
dimensions).  They back the cone projection and certification layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

# Smallest/largest singular value ratio below which a matrix is treated as
# rank deficient.
RANK_RTOL = 1e-8

# Lawson-Hanson stops once no free column's gradient exceeds this multiple of
# max|A| (with b scaled to max|b| in [0.5, 1)).
NNLS_RTOL = 1e-12

DEFAULT_BOX = 1e3
DEFAULT_MARGIN = 1e-7


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
    status: str  # "feasible" | "infeasible" | "indeterminate"
    witness: np.ndarray | None
    margin: float


def _lawson_hanson(A, b, max_iter=None):
    """Lawson-Hanson active-set solution of min ||A @ c - b|| over c >= 0.

    Shared by every NNLS route.  A may have any shape, including more
    columns than rows and dependent columns: a column enters the passive set
    only while its gradient exceeds NNLS_RTOL relative to the largest entry
    of A, so columns in the span of the passive ones never enter.  b is
    divided by the exact power of two 2**e, e = frexp(max|b|)[1], and the
    solution multiplied back, so the fixed relative tolerance holds at every
    scale (1e-300 to 1e300).  Column selection breaks ties toward the lowest
    index, so the output is deterministic.  Passive coefficients are strictly
    positive and the rest exactly zero.

    Returns (coefficients, iterations).  Raises IndeterminateError when the
    iteration cap (10 * columns by default) is exhausted.
    """
    n = A.shape[1]
    if max_iter is None:
        max_iter = 10 * n
    e = int(np.frexp(np.max(np.abs(b), initial=0.0))[1])
    b = np.ldexp(b, -e)
    tol = NNLS_RTOL * float(np.max(np.abs(A), initial=0.0))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    iters = 0
    while True:
        w = A.T @ (b - A @ x)
        w[passive] = -np.inf
        j = int(np.argmax(w))  # argmax breaks ties toward the lowest index
        if w[j] <= tol:
            break
        passive[j] = True
        while True:
            iters += 1
            if iters > max_iter:
                raise IndeterminateError("nnls iteration cap exceeded")
            idx = np.flatnonzero(passive)
            s, *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
            if s.min() > 0.0:
                x = np.zeros(n)
                x[idx] = s
                break
            xp = x[idx]
            blocking = s <= 0.0
            if (blocking & (xp == 0.0)).any():
                # Only the entering column starts at zero.  It cannot move
                # off zero, so its gradient was rounding noise and x is
                # already optimal.
                return np.ldexp(x, e), iters
            # Step toward s until the first passive coefficient hits zero.
            ratios = np.full(idx.size, np.inf)
            ratios[blocking] = xp[blocking] / (xp[blocking] - s[blocking])
            k = int(np.argmin(ratios))
            xp = xp + ratios[k] * (s - xp)
            xp[k] = 0.0
            x[idx] = np.maximum(xp, 0.0)
            passive = x > 0.0
    return np.ldexp(x, e), iters


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
    x, _ = _lawson_hanson(A, b, max_iter)
    residual = float(np.linalg.norm(b - A @ x))
    active = frozenset(int(i) for i in np.flatnonzero(x == 0.0))
    return NnlsResult(coefficients=x, residual=residual, active=active)


def lp_feasible(constraints, box=DEFAULT_BOX, margin=DEFAULT_MARGIN):
    """Decide whether the linear inequalities admit a point with uniform slack.

    `constraints` is an iterable of (normal, offset, sense) triples encoding
    <normal, x> <= offset (sense "<=") or >= offset (sense ">=").  Normals are
    rescaled to unit length, so `margin` is a geometric distance.  The search
    is restricted to the box ||x||_inf <= box; feasibility is decided by
    maximizing the common slack and comparing it against `margin`.
    """
    rows = []
    rhs = []
    dim = None
    for normal, offset, sense in constraints:
        u = np.asarray(normal, dtype=float)
        if dim is None:
            dim = u.size
        elif u.size != dim:
            raise ValueError("constraint dimensions disagree")
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            raise ValueError("zero constraint normal")
        u = u / nu
        c = float(offset) / nu
        if sense == "<=":
            rows.append(np.append(u, 1.0))
            rhs.append(c)
        elif sense == ">=":
            rows.append(np.append(-u, 1.0))
            rhs.append(-c)
        else:
            raise ValueError(f"unknown sense {sense!r}")
    if dim is None:
        raise ValueError("no constraints given")

    cost = np.zeros(dim + 1)
    cost[-1] = -1.0  # maximize slack
    bounds = [(-box, box)] * dim + [(None, box)]
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=bounds, method="highs")
    if not res.success:
        return LpResult(status="indeterminate", witness=None, margin=float("nan"))
    slack = float(res.x[-1])
    if slack >= margin:
        return LpResult(status="feasible", witness=res.x[:-1].copy(), margin=slack)
    return LpResult(status="infeasible", witness=None, margin=slack)
