"""Metric projection onto the supported cone families.

Closed forms exist for the orthant variants, the Lorentz cone and simplicial
cones with orthonormal generators; the monotone nonnegative cone goes through
pool-adjacent-violators.  Every other polyhedral cone goes through one exact
Lawson-Hanson nonnegative least squares solve: on the generators for
simplicial and generator cones (P_K x = V lambda), and on the transposed
facet normals for halfspace cones, whose projection follows from Moreau's
decomposition with the polar cone (P_K x = x - U^T mu).  An exhaustive
active-set oracle (project_oracle) provides an independent reference for
validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cones import (
    Hyperplane,
    Lorentz,
    MonotoneNonneg,
    Orthant,
    PolyhedralH,
    PolyhedralV,
    SignedOrthant,
    Simplicial,
    UnsupportedConeError,
    _check_dim,
    dual,
    facet_normals,
)
from .kernels import IndeterminateError, _lawson_hanson, _row_norms, _rows_times

ORACLE_MAX_FACETS = 20


class NonConvergenceError(RuntimeError):
    """The projection's Lawson-Hanson solve exhausted its iteration cap."""


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    dual_point: np.ndarray  # projection of -x onto the dual cone
    residual: float
    active_facets: frozenset | None
    iterations: int


def project_hyperplane(h: Hyperplane, x):
    """Orthogonal projection onto the hyperplane through h.anchor with normal h.normal."""
    x = np.asarray(x, dtype=float)
    u = h.normal
    return x - (float(u @ x) - float(u @ h.anchor)) * u


def pava(y):
    """Nonincreasing isotonic regression of y by pool-adjacent-violators.

    Returns the Euclidean projection of y onto {x : x_1 >= x_2 >= ... >= x_m}.
    """
    y = np.asarray(y, dtype=float)
    # Blocks of (mean, count), merged while the nonincreasing order is violated.
    means = []
    counts = []
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


# Row kernels of the closed forms: each maps a (B, m) array of points to the
# (B, m) array of their projections, row i depending on row i alone.


def _clamp_rows(X):
    return np.maximum(X, 0.0)


def _signed_clamp_rows(eps, X):
    return eps * np.maximum(eps * X, 0.0)


def _lorentz_rows(X):
    t = X[:, -1]
    nx = _row_norms(X[:, :-1])
    # alpha = (t + ||xbar||) / 2 clamped at 0.  A row inside the cone
    # (alpha >= ||xbar||) stays; otherwise xbar scales by alpha / ||xbar||,
    # which is 0 at the apex, and t becomes alpha.
    alpha = np.maximum(0.5 * (t + nx), 0.0)
    P = X * np.divide(alpha, nx, out=np.ones_like(nx), where=alpha < nx)[:, None]
    P[:, -1] = np.maximum(alpha, t)
    return P


def _orthonormal_rows(E, X):
    """Projection onto the cone on orthonormal columns E: E max(E^T x, 0)."""
    return _rows_times(np.maximum(_rows_times(X, E), 0.0), E.T)


def _closed_form(cone):
    """Row kernel of the cone's projection, or None when it needs PAVA or NNLS."""
    if isinstance(cone, Orthant):
        return _clamp_rows
    if isinstance(cone, SignedOrthant):
        return partial(_signed_clamp_rows, cone.epsilon)
    if isinstance(cone, Lorentz):
        return _lorentz_rows
    if isinstance(cone, Simplicial) and cone.orthonormal:
        return partial(_orthonormal_rows, cone.columns)
    return None


def _subspace_projection(U_S, x):
    """Projection of x onto {z : U_S z = 0}; None when U_S is row-rank deficient."""
    M = U_S @ U_S.T
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] < 1e-12 * max(1.0, sv[0]):
        return None
    mu = np.linalg.solve(M, U_S @ x)
    return x - U_S.T @ mu


def _oracle_halfspaces(U, x):
    from itertools import combinations

    k, m = U.shape
    if k > ORACLE_MAX_FACETS:
        raise UnsupportedConeError("representation too large for the oracle")
    # Feasibility slack and distance ties are relative to the input's size,
    # so the enumeration gives the same active set at every scale.
    scale = float(np.max(np.abs(x)))
    best = None
    best_dist = np.inf
    for size in range(0, min(k, m) + 1):
        for S in combinations(range(k), size):
            if size == 0:
                cand = x.copy()
            else:
                cand = _subspace_projection(U[list(S)], x)
                if cand is None:
                    continue
            if np.max(U @ cand, initial=-np.inf) > 1e-11 * scale:
                continue
            d = float(np.linalg.norm(x - cand))
            if d < best_dist - 1e-15 * scale:
                best_dist = d
                best = cand
    if best is None:
        # Every subset infeasible can only happen numerically; the apex is safe.
        best = np.zeros(m)
    return best


def project_oracle(cone, x):
    """Exact projection by exhaustive enumeration of facet active sets.

    Independent of project(); used as the validation reference.  Requires a
    facet or generator representation with at most ORACLE_MAX_FACETS rows.
    """
    x = _check_dim(cone, x)
    if isinstance(cone, PolyhedralV):
        # Moreau: P_K x = x - P_{K_polar} x with the polar in halfspace form.
        Upolar = cone.generators.T
        return x - _oracle_halfspaces(Upolar, x)
    U = facet_normals(cone)
    return _oracle_halfspaces(U, x)


def _nnls(A, x):
    """Shared Lawson-Hanson solve; its iteration cap raises NonConvergenceError."""
    try:
        return _lawson_hanson(A, x)
    except IndeterminateError as exc:
        raise NonConvergenceError(str(exc)) from exc


def project(cone, x):
    """Metric projection of x onto the cone, with Moreau companions.

    The dual point is P_{K*}(-x) = p - x; the result records the residual,
    the active facet set when the representation exposes one, and the
    iteration count (0 for closed forms).
    """
    x = _check_dim(cone, x)
    iterations = 0
    active = None
    row = x[None, :]
    if isinstance(cone, Orthant):
        p = _clamp_rows(row)[0]
        active = frozenset(int(i) for i in np.flatnonzero(x <= 0.0))
    elif isinstance(cone, SignedOrthant):
        eps = cone.epsilon
        p = _signed_clamp_rows(eps, row)[0]
        active = frozenset(int(i) for i in np.flatnonzero(eps * x <= 0.0))
    elif isinstance(cone, Lorentz):
        p = _lorentz_rows(row)[0]
    elif isinstance(cone, Simplicial):
        E = cone.columns
        if cone.orthonormal:
            p = _orthonormal_rows(E, row)[0]
            lam = _rows_times(row, E)[0]  # unclamped: <= 0 where clamped to 0
        else:
            lam, iterations = _nnls(E, x)
            p = E @ lam
        active = frozenset(int(i) for i in np.flatnonzero(lam <= 0.0))
    elif isinstance(cone, MonotoneNonneg):
        p = np.maximum(pava(x), 0.0)
    elif isinstance(cone, PolyhedralH):
        U = cone.normals
        mu, iterations = _nnls(U.T, x)
        p = x - U.T @ mu
        vals = U @ p
        active = frozenset(
            int(i) for i in np.flatnonzero(vals >= -1e-9 * np.max(np.abs(x)))
        )
    elif isinstance(cone, PolyhedralV):
        lam, iterations = _nnls(cone.generators, x)
        p = cone.generators @ lam
    else:
        raise UnsupportedConeError(type(cone).__name__)
    q = p - x
    return ProjectionResult(
        point=p,
        dual_point=q,
        residual=math.hypot(*q.tolist()),
        active_facets=active,
        iterations=iterations,
    )


def moreau(cone, x):
    """Independently computed decomposition pair (p, q) with x = p - q.

    p is the projection onto the cone, q the projection of -x onto the dual
    cone, each computed through its own route.
    """
    x = _check_dim(cone, x)
    p = project(cone, x).point
    q = project(dual(cone), -x).point
    return p, q


def boundary_ray_preimage_check(cone, x, u, samples=50, tol=1e-8, seed=0):
    """Check that the preimage of a Lorentz boundary ray is the 2D span of x, u.

    x must be a nonzero boundary point (t = ||xbar||) and u the unit outward
    supporting normal at x.  Span samples on the supporting side (<u, z> >= 0)
    must project onto the ray through x (or 0), every span sample must project
    back into the span, and points sampled off the span must not land on the
    open ray.
    """
    if not isinstance(cone, Lorentz):
        raise UnsupportedConeError("boundary ray check applies to the Lorentz cone")
    x = _check_dim(cone, x)
    u = _check_dim(cone, u)
    nx = float(np.linalg.norm(x))
    if nx == 0.0 or abs(float(x[-1]) - float(np.linalg.norm(x[:-1]))) > tol * (1 + nx):
        raise ValueError("x is not a nonzero boundary point of the Lorentz cone")
    if abs(float(np.linalg.norm(u)) - 1.0) > tol or abs(float(u @ x)) > tol * nx:
        raise ValueError("u is not a unit supporting normal at x")

    rng = np.random.default_rng(seed)
    m = cone.dim
    xdir = x / nx
    for _ in range(samples):
        a, b = rng.standard_normal(2) * (1.0 + nx)
        z = a * xdir + b * u
        p = project(cone, z).point
        scale = tol * (1.0 + float(np.linalg.norm(z)))
        if b >= 0.0:
            # Supporting side: the projection is max(a, 0) times the ray direction.
            if float(np.linalg.norm(p - max(a, 0.0) * xdir)) > scale:
                return False
        else:
            # The span maps into itself under the projection.
            in_span = float(p @ xdir) * xdir + float(p @ u) * u
            if float(np.linalg.norm(p - in_span)) > scale:
                return False
        # Off-span sample: add a component orthogonal to span{x, u}.
        w = rng.standard_normal(m)
        w -= (w @ xdir) * xdir
        w -= (w @ u) * u
        nw = float(np.linalg.norm(w))
        if nw < 1e-12:
            continue
        w /= nw
        c = (0.5 + abs(rng.standard_normal())) * (1.0 + nx)
        z2 = z + c * w
        p2 = project(cone, z2).point
        np2 = float(np.linalg.norm(p2))
        if np2 > tol:
            alpha2 = float(p2 @ xdir)
            on_ray = (
                alpha2 > tol
                and float(np.linalg.norm(p2 - alpha2 * xdir)) <= tol * (1.0 + np2)
            )
            if on_ray:
                return False
    return True
