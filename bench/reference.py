"""Output checks that do not trust the code that produced the output.

Projections are compared with a reference computed on the input rescaled to
unit max-norm (projection onto a cone is positively homogeneous, so the
rescaling is exact and keeps the reference clear of underflow):

* cones with at most ORACLE_MAX_FACETS facets: ``project_oracle``, the
  library's exhaustive active-set enumeration, which shares no code with
  ``project``;
* cones with more facets: ``x - U^T mu`` with ``mu = scipy.optimize.nnls(U^T, x)``
  (Moreau's decomposition with the polar cone generated by the normals);
* the Lorentz cone, which has no facets: its closed form, written here.

Every tolerance is relative to the size of the input.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls as scipy_nnls

from coneproj import projections
from coneproj.cones import (
    Lorentz, MonotoneNonneg, Orthant, PolyhedralH, PolyhedralV, SignedOrthant,
    Simplicial,
)

ORACLE_MAX_FACETS = 20
POINT_RTOL = 1e-7      # projection error allowed, as a share of max|x|
IDENTITY_RTOL = 1e-9   # Moreau identity and orthogonality, relative to |x|
MARGIN_RTOL = 1e-9


def unit_columns(M):
    M = np.asarray(M, dtype=float)
    return M / np.linalg.norm(M, axis=0)


def monotone_generators(m):
    return unit_columns(np.triu(np.ones((m, m))))


def _lorentz(x):
    xbar, t = x[:-1], x[-1]
    n = float(np.linalg.norm(xbar))
    if t >= n:
        return x.copy()
    if t <= -n:
        return np.zeros_like(x)
    a = 0.5 * (t + n)
    return np.append(a * xbar / n, a)


def _normals(cone):
    """Facet normals U with K = {z : U z <= 0}, built from the cone's data."""
    if isinstance(cone, Orthant):
        return -np.eye(cone.dim)
    if isinstance(cone, SignedOrthant):
        return -np.diag(cone.epsilon)
    if isinstance(cone, Simplicial):
        return -np.linalg.inv(cone.columns)
    if isinstance(cone, MonotoneNonneg):
        return -np.linalg.inv(monotone_generators(cone.dim))
    if isinstance(cone, PolyhedralH):
        return cone.normals
    return None


def reference_projection(cone, x):
    """P_K x by a route independent of ``project``."""
    x = np.asarray(x, dtype=float)
    s = float(np.max(np.abs(x)))
    if s == 0.0:
        return np.zeros_like(x)
    xs = x / s
    if isinstance(cone, Lorentz):
        return s * _lorentz(xs)
    if isinstance(cone, PolyhedralV):
        k = cone.generators.shape[1]
        if k <= ORACLE_MAX_FACETS:
            return s * projections.project_oracle(cone, xs)
        lam, _ = scipy_nnls(cone.generators, xs)
        return s * (cone.generators @ lam)
    U = _normals(cone)
    if U.shape[0] <= ORACLE_MAX_FACETS:
        return s * projections.project_oracle(cone, xs)
    U = U / np.linalg.norm(U, axis=1)[:, None]
    mu, _ = scipy_nnls(U.T, xs)
    return s * (xs - U.T @ mu)


def check_projection(cone, x, p):
    """None when p is P_K x within tolerance, else a short reason."""
    ref = reference_projection(cone, x)
    s = float(np.max(np.abs(x)))
    err = float(np.max(np.abs(np.asarray(p) - ref)))
    if not np.isfinite(err) or err > POINT_RTOL * s:
        return f"projection off by {err:.3g} (input max-norm {s:.3g})"
    return None


def check_moreau(cone, x, p, q):
    """Moreau pair: x = p - q, p orthogonal to q, p = P_K x."""
    s = float(np.max(np.abs(x)))
    gap = float(np.max(np.abs(x - (p - q))))
    if not gap <= IDENTITY_RTOL * s:
        return f"Moreau identity off by {gap:.3g} (input max-norm {s:.3g})"
    inner = abs(float((p / s) @ (q / s))) if s > 0 else 0.0
    if not inner <= IDENTITY_RTOL:
        return f"p.q = {inner:.3g} relative to |x|^2"
    return check_projection(cone, x, p)


def in_cone(cone, x):
    """Membership by projection distance, relative to |x|."""
    s = float(np.max(np.abs(x)))
    return float(np.max(np.abs(reference_projection(cone, x) - x))) <= 1e-9 * s


def check_counterexample(cex, K, L):
    """A falsifier counterexample, re-checked from its data alone."""
    scale = max(float(np.max(np.abs(cex.y - cex.x))), 1e-300)
    if not in_cone(L, cex.y - cex.x):
        return "counterexample pair is not ordered"
    for z, pz in ((cex.x, cex.px), (cex.y, cex.py)):
        bad = check_projection(K, z, pz)
        if bad:
            return "counterexample " + bad
    v = cex.py - cex.px
    if in_cone(L, v):
        return "counterexample projections are ordered"
    if not np.allclose(v, cex.violation, rtol=0.0, atol=1e-12 * scale):
        return "counterexample violation disagrees with py - px"
    return None


def subdual_flip_exists(E, tol=1e-9):
    """Exhaustive search over all 2^m sign vectors (m is small)."""
    G = E.T @ E
    m = G.shape[0]
    bits = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
    eps = 2.0 * bits - 1.0
    flipped = eps[:, :, None] * eps[:, None, :] * G
    return bool(np.any(flipped.reshape(len(eps), -1).min(axis=1) >= -tol))
