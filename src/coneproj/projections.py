"""Metric projection onto the supported cone families.

Closed forms exist for the orthant variants, the Lorentz cone and simplicial
cones with orthonormal generators; the monotone nonnegative cone goes through
pool-adjacent-violators.  Every other polyhedral cone goes through one exact
Lawson-Hanson nonnegative least squares solve: on the generators for
simplicial and generator cones (P_K x = V lambda), and on the transposed
facet normals for halfspace cones, whose projection follows from Moreau's
decomposition with the polar cone (P_K x = x - U^T mu).  Each route is the
one row kernel of its family's class in cones.py, _solve_rows, which gives
the projections with the coefficients (lambda or mu) that certify them and
the solver iterations.  project() makes its one-row call and reads the
active facets off the coefficients; the falsifier calls it on whole blocks.
An exhaustive active-set oracle (project_oracle) provides an independent
reference for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (
    UnsupportedConeError,
    _check_dim,
    dual,
    facet_normals,
    generator_matrix,
)
from .kernels import NonConvergenceError

ORACLE_MAX_FACETS = 20


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    dual_point: np.ndarray  # projection of -x onto the dual cone
    residual: float
    active_facets: frozenset | None
    iterations: int


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
    try:
        U = facet_normals(cone)
    except UnsupportedConeError:
        # Moreau: P_K x = x - P_{K_polar} x with the polar in halfspace form.
        Upolar = generator_matrix(cone).T
        return x - _oracle_halfspaces(Upolar, x)
    return _oracle_halfspaces(U, x)


def project(cone, x):
    """Metric projection of x onto the cone, with Moreau companions.

    The dual point is P_{K*}(-x) = p - x; the result records the residual,
    the active facets (indices into the rows of facet_normals, None for
    generator, Lorentz and monotone cones), and the iteration count (0 for
    closed forms).  Raises NonConvergenceError when the Lawson-Hanson solve
    exhausts its iteration cap.
    """
    x = _check_dim(cone, x)
    P, C, iterations = cone._solve_rows(x[None, :])
    p = P[0]
    if iterations is not None and math.isnan(p[0]):  # a NaN row: its solve hit the cap
        raise NonConvergenceError("nnls iteration cap exceeded")
    q = p - x
    return ProjectionResult(
        point=p,
        dual_point=q,
        residual=math.hypot(*q.tolist()),
        active_facets=None if C is None else cone._active(x, p, C[0]),
        iterations=0 if iterations is None else int(iterations[0]),
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
