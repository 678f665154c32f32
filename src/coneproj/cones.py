"""Cone families: membership, duals, Gram matrices, facets, sign flips, file I/O.

Supported families: nonnegative orthant, sign-flipped orthant, simplicial
cones (m independent generators in R^m), polyhedral cones in halfspace or
generator form, the Lorentz cone (last coordinate bounds the Euclidean norm
of the rest), and the monotone nonnegative cone x1 >= ... >= xm >= 0.

Generators and facet normals are stored unit length; duplicate directions
are merged.  All values are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    DEFAULT_MARGIN,
    IndeterminateError,
    RANK_RTOL,
    _lawson_hanson,
    lp_feasible,
)

MEMBERSHIP_TOL = 1e-9
MERGE_TOL = 1e-9


class ConeFormatError(ValueError):
    """Malformed cone description (file or constructor arguments)."""


class UnsupportedConeError(ValueError):
    """The requested operation is not available for this cone representation."""


class DimensionMismatchError(ValueError):
    """Vector dimension does not match the cone dimension."""


def _as_unit_columns(M):
    M = np.asarray(M, dtype=float)
    norms = np.linalg.norm(M, axis=0)
    if np.any(norms == 0.0):
        raise ConeFormatError("zero generator column")
    # Idempotent: columns already unit length are left untouched bit-for-bit.
    norms = np.where(np.abs(norms - 1.0) < 1e-12, 1.0, norms)
    return M / norms


def _dedupe_unit_rows(rows):
    """Merge unit rows closer than MERGE_TOL in cosine distance."""
    kept = []
    for r in rows:
        if not any(1.0 - float(k @ r) < MERGE_TOL for k in kept):
            kept.append(r)
    return np.array(kept)


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {x : <normal, x> = <normal, anchor>} with a unit normal."""

    normal: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.normal, dtype=float)
        n = float(np.linalg.norm(u))
        if n == 0.0:
            raise ConeFormatError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", u / n)
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))


@dataclass(frozen=True)
class Orthant:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConeFormatError("orthant dimension must be positive")


@dataclass(frozen=True)
class SignedOrthant:
    """Orthant reflected by a sign vector: {x : epsilon_i * x_i >= 0}."""

    epsilon: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.epsilon, dtype=float)
        if eps.ndim != 1 or eps.size < 1 or not np.all(np.abs(eps) == 1.0):
            raise ConeFormatError("epsilon entries must be exactly +1 or -1")
        object.__setattr__(self, "epsilon", eps)

    @property
    def dim(self):
        return int(self.epsilon.size)


@dataclass(frozen=True)
class Simplicial:
    """Cone of nonnegative combinations of m independent columns in R^m."""

    columns: np.ndarray

    def __post_init__(self):
        E = np.asarray(self.columns, dtype=float)
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise ConeFormatError("simplicial generator matrix must be square")
        if not np.all(np.isfinite(E)):
            raise ConeFormatError("generator entries must be finite")
        E = _as_unit_columns(E)
        sv = np.linalg.svd(E, compute_uv=False)
        if sv[-1] < RANK_RTOL * sv[0]:
            raise ConeFormatError("generator columns are numerically dependent")
        object.__setattr__(self, "columns", E)

    @property
    def dim(self):
        return int(self.columns.shape[0])


@dataclass(frozen=True)
class PolyhedralH:
    """Cone {x : <u_i, x> <= 0} given by facet normals u_i (rows)."""

    dim: int
    normals: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.normals, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.dim or U.shape[0] < 1:
            raise ConeFormatError("normals must be a nonempty (k, dim) array")
        norms = np.linalg.norm(U, axis=1)
        if np.any(norms == 0.0):
            raise ConeFormatError("zero facet normal")
        norms = np.where(np.abs(norms - 1.0) < 1e-12, 1.0, norms)
        U = _dedupe_unit_rows(U / norms[:, None])
        object.__setattr__(self, "normals", U)


@dataclass(frozen=True)
class PolyhedralV:
    """Cone of nonnegative combinations of the generator columns."""

    dim: int
    generators: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.generators, dtype=float)
        if V.ndim != 2 or V.shape[0] != self.dim or V.shape[1] < 1:
            raise ConeFormatError("generators must be a nonempty (dim, k) array")
        V = _as_unit_columns(V)
        V = _dedupe_unit_rows(V.T).T
        object.__setattr__(self, "generators", V)


@dataclass(frozen=True)
class Lorentz:
    """Ice cream cone {(xbar, t) : t >= ||xbar||}; t is the last coordinate."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ConeFormatError("Lorentz cone requires dim >= 2")


@dataclass(frozen=True)
class MonotoneNonneg:
    """Cone {x : x_1 >= x_2 >= ... >= x_m >= 0}."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConeFormatError("dimension must be positive")


ConeSpec = (
    Orthant | SignedOrthant | Simplicial | PolyhedralH | PolyhedralV
    | Lorentz | MonotoneNonneg
)


def dim_of(cone):
    return int(cone.dim)


def _check_dim(cone, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != dim_of(cone):
        raise DimensionMismatchError(
            f"vector of size {x.size} vs cone dimension {dim_of(cone)}"
        )
    # Runs on every projection and margin: on vectors this short a loop over
    # Python floats is several times cheaper than np.isfinite.
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError("vector entries must be finite")
    return x


def monotone_generators(m):
    """Generators of the monotone nonnegative cone: columns (1,0,..), (1,1,0,..), ..."""
    E = np.triu(np.ones((m, m)))
    return _as_unit_columns(E)


def generator_matrix(cone):
    """V-representation (unit generator columns) where one is available."""
    if isinstance(cone, Orthant):
        return np.eye(cone.dim)
    if isinstance(cone, SignedOrthant):
        return np.diag(cone.epsilon)
    if isinstance(cone, Simplicial):
        return cone.columns
    if isinstance(cone, PolyhedralV):
        return cone.generators
    if isinstance(cone, MonotoneNonneg):
        return monotone_generators(cone.dim)
    if isinstance(cone, Lorentz) and cone.dim == 2:
        # The 2-dimensional Lorentz cone is the simplicial cone on (1,1), (-1,1).
        return _as_unit_columns(np.array([[1.0, -1.0], [1.0, 1.0]]))
    raise UnsupportedConeError(f"no generator representation for {type(cone).__name__}")


def cone_margin(cone, x):
    """Signed feasibility margin: >= 0 inside the cone, < 0 outside.

    Componentwise and halfspace families report the worst constraint value;
    generator families report coefficient or NNLS-residual margins.  The sign
    is what matters; magnitudes are family-specific.
    """
    x = _check_dim(cone, x)
    if isinstance(cone, Orthant):
        return float(np.min(x))
    if isinstance(cone, SignedOrthant):
        return float(np.min(cone.epsilon * x))
    if isinstance(cone, Lorentz):
        return float(x[-1] - np.linalg.norm(x[:-1]))
    if isinstance(cone, MonotoneNonneg):
        if cone.dim == 1:
            return float(x[0])
        return float(min(np.min(x[:-1] - x[1:]), x[-1]))
    if isinstance(cone, PolyhedralH):
        return float(-np.max(cone.normals @ x))
    if isinstance(cone, Simplicial):
        lam = np.linalg.solve(cone.columns, x)
        return float(np.min(lam))
    if isinstance(cone, PolyhedralV):
        V = cone.generators
        lam, _ = _lawson_hanson(V, x)
        return float(-np.linalg.norm(x - V @ lam))
    raise UnsupportedConeError(type(cone).__name__)


def membership(cone, x, tol=MEMBERSHIP_TOL):
    """True iff x lies in the cone within tolerance tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x = _check_dim(cone, x)
    scale = 1.0 + float(np.linalg.norm(x))
    return cone_margin(cone, x) >= -tol * scale


def dual(cone):
    """Dual cone K* = {y : <x, y> >= 0 for all x in K} in the same families."""
    if isinstance(cone, (Orthant, SignedOrthant, Lorentz)):
        return cone  # self-dual
    if isinstance(cone, Simplicial):
        F = np.linalg.inv(cone.columns).T
        return Simplicial(columns=F)
    if isinstance(cone, MonotoneNonneg):
        F = np.linalg.inv(monotone_generators(cone.dim)).T
        return Simplicial(columns=F)
    if isinstance(cone, PolyhedralV):
        return PolyhedralH(dim=cone.dim, normals=-cone.generators.T)
    if isinstance(cone, PolyhedralH):
        return PolyhedralV(dim=cone.dim, generators=-cone.normals.T)
    raise UnsupportedConeError(type(cone).__name__)


def sign_flip(cone, eps):
    """Reflected cone with generators e_i replaced by eps_i * e_i."""
    eps = np.asarray(eps, dtype=float)
    if eps.size != dim_of(cone):
        raise DimensionMismatchError("sign vector dimension mismatch")
    if not np.all(np.abs(eps) == 1.0):
        raise ConeFormatError("sign vector entries must be +1 or -1")
    if isinstance(cone, Orthant):
        return SignedOrthant(epsilon=eps)
    if isinstance(cone, SignedOrthant):
        return SignedOrthant(epsilon=cone.epsilon * eps)
    if isinstance(cone, Simplicial):
        return Simplicial(columns=cone.columns * eps)
    raise UnsupportedConeError("sign flips apply to orthant and simplicial cones")


def gram(E):
    """Gram matrix of generator columns: G_ij = <e_i, e_j>."""
    if isinstance(E, ConeSpec):
        E = generator_matrix(E)
    E = np.asarray(E, dtype=float)
    return E.T @ E


def is_proper(cone, tol=MEMBERSHIP_TOL):
    """True iff the cone is pointed and generating.

    Raises IndeterminateError when an LP subproblem cannot decide.
    """
    if isinstance(cone, (Orthant, SignedOrthant, Simplicial, Lorentz, MonotoneNonneg)):
        return True
    if isinstance(cone, PolyhedralV):
        V = cone.generators
        if np.linalg.matrix_rank(V, tol=RANK_RTOL) < cone.dim:
            return False  # not generating
        res = lp_feasible(
            [(v, 1.0, ">=") for v in V.T], margin=DEFAULT_MARGIN
        )
        if res.status == "indeterminate":
            raise IndeterminateError("pointedness LP indeterminate")
        return res.status == "feasible"
    if isinstance(cone, PolyhedralH):
        U = cone.normals
        if np.linalg.matrix_rank(U, tol=RANK_RTOL) < cone.dim:
            return False  # dual not generating, so the cone is not pointed
        res = lp_feasible(
            [(u, -1.0, "<=") for u in U], margin=DEFAULT_MARGIN
        )
        if res.status == "indeterminate":
            raise IndeterminateError("interior LP indeterminate")
        return res.status == "feasible"
    raise UnsupportedConeError(type(cone).__name__)


def facets(cone):
    """Minimal unit facet normals through 0 with K = intersection of H_-(u_i, 0)."""
    m = dim_of(cone)
    zero = np.zeros(m)
    if isinstance(cone, Orthant):
        normals = -np.eye(m)
    elif isinstance(cone, SignedOrthant):
        normals = -np.diag(cone.epsilon)
    elif isinstance(cone, Simplicial):
        normals = -np.linalg.inv(cone.columns)  # negated dual generators, as rows
        normals = normals / np.linalg.norm(normals, axis=1)[:, None]
    elif isinstance(cone, MonotoneNonneg):
        if m == 1:
            normals = np.array([[-1.0]])
        else:
            rows = []
            for i in range(m - 1):
                r = np.zeros(m)
                r[i] = -1.0
                r[i + 1] = 1.0
                rows.append(r / np.sqrt(2.0))
            last = np.zeros(m)
            last[-1] = -1.0
            rows.append(last)
            normals = np.array(rows)
    elif isinstance(cone, PolyhedralH):
        normals = cone.normals
    else:
        raise UnsupportedConeError(
            f"facet enumeration unavailable for {type(cone).__name__}"
        )
    return [Hyperplane(normal=u, anchor=zero) for u in normals]


def facet_normals(cone):
    """Facet normals as a (k, m) array; see facets()."""
    return np.array([h.normal for h in facets(cone)])


# ---------------------------------------------------------------------------
# Cone description files (UTF-8 JSON)

_REQUIRED_FIELDS = {
    "orthant": {"dim"},
    "signed_orthant": {"epsilon"},
    "simplicial": {"columns"},
    "halfspaces": {"dim", "normals"},
    "generators": {"dim", "generators"},
    "lorentz": {"dim"},
    "monotone_nonneg": {"dim"},
}


def cone_from_dict(data):
    """Build a cone from its JSON description; unknown or extra fields reject."""
    if not isinstance(data, dict):
        raise ConeFormatError("cone description must be a JSON object")
    kind = data.get("type")
    if kind not in _REQUIRED_FIELDS:
        raise ConeFormatError(f"unknown cone type {kind!r}")
    fields = set(data) - {"type"}
    required = _REQUIRED_FIELDS[kind]
    if fields != required:
        raise ConeFormatError(
            f"cone type {kind!r} requires exactly fields {sorted(required)}, "
            f"got {sorted(fields)}"
        )
    try:
        if kind == "orthant":
            return Orthant(dim=int(data["dim"]))
        if kind == "signed_orthant":
            return SignedOrthant(epsilon=np.asarray(data["epsilon"], dtype=float))
        if kind == "simplicial":
            return Simplicial(columns=np.asarray(data["columns"], dtype=float).T)
        if kind == "halfspaces":
            return PolyhedralH(
                dim=int(data["dim"]), normals=np.asarray(data["normals"], dtype=float)
            )
        if kind == "generators":
            return PolyhedralV(
                dim=int(data["dim"]),
                generators=np.asarray(data["generators"], dtype=float).T,
            )
        if kind == "lorentz":
            return Lorentz(dim=int(data["dim"]))
        return MonotoneNonneg(dim=int(data["dim"]))
    except (TypeError, ValueError) as exc:
        raise ConeFormatError(str(exc)) from exc


def cone_to_dict(cone):
    """JSON-serializable description of a cone (inverse of cone_from_dict)."""
    if isinstance(cone, Orthant):
        return {"type": "orthant", "dim": cone.dim}
    if isinstance(cone, SignedOrthant):
        return {"type": "signed_orthant", "epsilon": [int(e) for e in cone.epsilon]}
    if isinstance(cone, Simplicial):
        return {"type": "simplicial", "columns": cone.columns.T.tolist()}
    if isinstance(cone, PolyhedralH):
        return {"type": "halfspaces", "dim": cone.dim, "normals": cone.normals.tolist()}
    if isinstance(cone, PolyhedralV):
        return {
            "type": "generators",
            "dim": cone.dim,
            "generators": cone.generators.T.tolist(),
        }
    if isinstance(cone, Lorentz):
        return {"type": "lorentz", "dim": cone.dim}
    if isinstance(cone, MonotoneNonneg):
        return {"type": "monotone_nonneg", "dim": cone.dim}
    raise UnsupportedConeError(type(cone).__name__)


def load_cone(path):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConeFormatError(f"invalid JSON in {path}: {exc}") from exc
    return cone_from_dict(data)


def save_cone(cone, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cone_to_dict(cone), fh, indent=2)
        fh.write("\n")
