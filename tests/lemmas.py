"""Checks of the paper's lemmas, written against project() and membership().

Imported by the tests like conftest: neither check is part of the library.
"""

import numpy as np

from coneproj import Lorentz, UnsupportedConeError, generator_matrix, membership, project
from coneproj.cones import _check_dim
from coneproj.isotonic import DEFAULT_TOL


def hyperplane_isotone(K, u, tol=DEFAULT_TOL):
    """True iff projection onto the hyperplane through 0 with normal u maps K into K.

    Checked on the generators, which suffices by linearity and convexity.
    Hyperplanes with nonzero anchor reduce to the same test because the
    ordering is translation invariant.
    """
    u = _check_dim(K, u)
    nu = float(np.linalg.norm(u))
    if abs(nu - 1.0) > 1e-9:
        raise ValueError("u must be unit length")
    V = generator_matrix(K)
    W = V - np.outer(u, u @ V)
    return all(membership(K, W[:, j], tol) for j in range(V.shape[1]))


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
