"""Cone families: membership, duals, Gram matrices, facets, sign flips, file I/O.

Supported families: nonnegative orthant, sign-flipped orthant, simplicial
cones (m independent generators in R^m), polyhedral cones in halfspace or
generator form, the Lorentz cone (last coordinate bounds the Euclidean norm
of the rest), and the monotone nonnegative cone x1 >= ... >= xm >= 0.

Each family is a frozen dataclass carrying its behaviour as private _Cone
methods, which the module-level functions call after checking their input.
Generators and facet normals are stored unit length; duplicate directions
are merged.  All values are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .kernels import (
    EPS,
    IndeterminateError,
    RANK_RTOL,
    _feasible,
    _isotonic_rows,
    _lawson_hanson_rows,
    _norms,
    _row_min,
    _row_norms,
    _rows_times,
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
    norms = _norms(M, axis=0)
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


def _read_only(M):
    """M, made read-only: a cone hands out its stored arrays without a copy."""
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {x : <normal, x> = <normal, anchor>} with a unit normal."""

    normal: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        u = np.array(self.normal, dtype=float)  # copies: the caller's arrays stay writeable
        n = float(_norms(u))
        if n == 0.0:
            raise ConeFormatError("hyperplane normal must be nonzero")
        # Idempotent: a normal already unit length is left untouched bit-for-bit.
        if abs(n - 1.0) >= 1e-12:
            u /= n
        object.__setattr__(self, "normal", _read_only(u))
        object.__setattr__(self, "anchor", _read_only(np.array(self.anchor, dtype=float)))


class _Cone:
    """Behaviour of one cone family, behind the module-level functions.

    A family overrides what it supports; an operation it lacks raises
    UnsupportedConeError from the defaults here.  Every family has two row
    kernels, which map a (B, m) array to results per row, row i depending on
    row i alone, bit for bit.  _solve_rows gives (P, C, iterations): the
    (B, m) projections, the coefficients that certify them (lambda >= 0 on
    the generators, or mu >= 0 on the facet normals for halfspace cones;
    None for the Lorentz and monotone cones) and the (B,) solver iterations
    (None for closed forms).  _margin_rows gives the (B,) margins.  A row
    whose solve hits the iteration cap comes out NaN.
    """

    @cached_property
    def _operators(self):
        """Least-squares operators of this cone's NNLS solves, all on one
        matrix, kept so later solves reuse them (kernels._lawson_hanson_rows)."""
        return {}

    @property
    def _generators(self):
        raise UnsupportedConeError(f"no generator representation for {type(self).__name__}")

    @property
    def _facet_normals(self):
        raise UnsupportedConeError(f"facet enumeration unavailable for {type(self).__name__}")

    def _project_rows(self, X):
        return self._solve_rows(X)[0]

    def _active(self, x, p, c):
        """Facets active at the projection p of x, as indices into the rows of
        _facet_normals, from the coefficients c that _solve_rows gave with p:
        those whose c_i is not positive.  (Without coefficients project()
        reports None.)"""
        return frozenset((c <= 0.0).nonzero()[0].tolist())

    def _margin(self, x):
        margin = float(self._margin_rows(x[None, :])[0])
        if math.isnan(margin):
            raise IndeterminateError("nnls iteration cap exceeded")
        return margin

    def _sign_flip(self, eps):
        raise UnsupportedConeError("sign flips apply to orthant and simplicial cones")

    def _is_proper(self):
        return True

    # True when _solve_rows is a closed form, with no solver or PAVA loop per
    # row: the falsifier then opens with a block of isotonic.OPENING_BLOCK trials.
    _closed_form = False

    def _directions(self, scale):
        """Words per trial and a map (B, words) uniforms -> directions in the cone,
        d = V (scale * -log u) on the generators V; None to sample by rejection."""
        W = -scale * self._generators.T
        return W.shape[0], lambda u: _rows_times(np.log(u), W)


@dataclass(frozen=True)
class Orthant(_Cone):
    dim: int

    _type = "orthant"
    _dual = property(lambda self: self)  # self-dual
    _closed_form = True

    def __post_init__(self):
        if self.dim < 1:
            raise ConeFormatError("orthant dimension must be positive")

    @cached_property
    def _generators(self):
        return _read_only(np.eye(self.dim))

    @cached_property
    def _facet_normals(self):
        return _read_only(-np.eye(self.dim))

    def _solve_rows(self, X):
        P = np.maximum(X, 0.0)
        return P, P, None

    def _margin_rows(self, X):
        return _row_min(X)

    def _sign_flip(self, eps):
        return SignedOrthant(epsilon=eps)

    def _directions(self, scale):
        # Elementwise: at every normal scale the bits of the product with the
        # identity, whose other terms are exact zeros.
        def directions(u):
            d = np.log(u)
            d *= -scale
            return d

        return self.dim, directions


@dataclass(frozen=True)
class SignedOrthant(_Cone):
    """Orthant reflected by a sign vector: {x : epsilon_i * x_i >= 0}."""

    epsilon: np.ndarray

    _type = "signed_orthant"
    _dual = property(lambda self: self)  # self-dual
    _closed_form = True

    def __post_init__(self):
        eps = np.array(self.epsilon, dtype=float)  # a copy: the caller's array stays writeable
        if eps.ndim != 1 or eps.size < 1 or not np.all(np.abs(eps) == 1.0):
            raise ConeFormatError("epsilon entries must be exactly +1 or -1")
        object.__setattr__(self, "epsilon", _read_only(eps))

    @property
    def dim(self):
        return int(self.epsilon.size)

    @cached_property
    def _generators(self):
        return _read_only(np.diag(self.epsilon))

    @cached_property
    def _facet_normals(self):
        return _read_only(-np.diag(self.epsilon))

    def _solve_rows(self, X):
        eps = self.epsilon
        C = np.maximum(eps * X, 0.0)
        return eps * C, C, None

    def _margin_rows(self, X):
        return _row_min(self.epsilon * X)

    def _sign_flip(self, eps):
        return SignedOrthant(epsilon=self.epsilon * eps)

    def _directions(self, scale):
        # Elementwise: at every normal scale the bits of the product with
        # diag(epsilon), whose other terms are exact zeros.
        w = -scale * self.epsilon

        def directions(u):
            d = np.log(u)
            d *= w
            return d

        return self.dim, directions


@dataclass(frozen=True)
class Simplicial(_Cone):
    """Cone of nonnegative combinations of m independent columns in R^m."""

    columns: np.ndarray

    _type = "simplicial"

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
        object.__setattr__(self, "columns", _read_only(E))

    @property
    def dim(self):
        return int(self.columns.shape[0])

    @cached_property
    def orthonormal(self):
        """True when the columns are orthonormal (a rotated orthant)."""
        E = self.columns
        return float(np.max(np.abs(E.T @ E - np.eye(E.shape[1])))) < 1e-12

    _closed_form = property(lambda self: self.orthonormal)

    @cached_property
    def inverse(self):
        """Inverse of the generator matrix (read-only, computed once)."""
        return _read_only(np.linalg.inv(self.columns))

    @property
    def _generators(self):
        return self.columns

    @cached_property
    def _facet_normals(self):
        normals = -self.inverse  # negated dual generators, as rows
        return _read_only(normals / np.linalg.norm(normals, axis=1)[:, None])

    def _solve_rows(self, X):
        """(E lam, lam, iterations) per row, lam >= 0 the coefficients on the
        columns E: max(E^T x, 0) in closed form when E is orthonormal, else NNLS."""
        E = self.columns
        if self.orthonormal:
            lam, iterations = np.maximum(_rows_times(X, E), 0.0), None
        else:
            lam, iterations = _lawson_hanson_rows(E, X, self._operators)
        return _rows_times(lam, E.T), lam, iterations

    def _active(self, x, p, c):
        # NNLS zeros are exact; on a facet the closed form's E^T x is off 0 by about m eps max|x|.
        tol = self.dim * EPS * float(np.max(np.abs(x))) if self.orthonormal else 0.0
        return frozenset((c <= tol).nonzero()[0].tolist())

    def _margin_rows(self, X):
        return _row_min(_rows_times(X, self.inverse.T))

    @cached_property
    def _dual(self):
        return Simplicial(columns=self.inverse.T)

    def _sign_flip(self, eps):
        return Simplicial(columns=self.columns * eps)


@dataclass(frozen=True)
class PolyhedralH(_Cone):
    """Cone {x : <u_i, x> <= 0} given by facet normals u_i (rows)."""

    dim: int
    normals: np.ndarray

    _type = "halfspaces"

    def __post_init__(self):
        U = np.asarray(self.normals, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.dim or U.shape[0] < 1:
            raise ConeFormatError("normals must be a nonempty (k, dim) array")
        norms = _norms(U, axis=1)
        if np.any(norms == 0.0):
            raise ConeFormatError("zero facet normal")
        norms = np.where(np.abs(norms - 1.0) < 1e-12, 1.0, norms)
        U = _dedupe_unit_rows(U / norms[:, None])
        object.__setattr__(self, "normals", _read_only(U))

    @property
    def _facet_normals(self):
        return self.normals

    def _margin_rows(self, X):
        return _row_min(-_rows_times(X, self.normals.T))

    def _solve_rows(self, X):
        """(x - U^T mu, mu, iterations) per row: Moreau with the polar cone,
        generated by the normals U, with mu >= 0 the NNLS coefficients on U^T."""
        U = self.normals
        mu, iterations = _lawson_hanson_rows(U.T, X, self._operators)
        return X - _rows_times(mu, U), mu, iterations

    def _active(self, x, p, c):
        # Facets that p meets within 1e-9 max|x|: at a degenerate p a facet
        # through it can carry mu_i = 0.
        vals = self.normals @ p
        return frozenset(np.flatnonzero(vals >= -1e-9 * np.max(np.abs(x))).tolist())

    @cached_property
    def _dual(self):
        return PolyhedralV(dim=self.dim, generators=-self.normals.T)

    def _is_proper(self):
        U = self.normals
        if np.linalg.matrix_rank(U, tol=RANK_RTOL) < self.dim:
            return False  # dual not generating, so the cone is not pointed
        res = _feasible(-U, np.zeros(len(U)))  # <u, x> <= 0
        if res.status == "indeterminate":
            raise IndeterminateError("interior LP indeterminate")
        return res.status == "feasible"

    def _directions(self, scale):
        return None  # no generators: directions are drawn by rejection


@dataclass(frozen=True)
class PolyhedralV(_Cone):
    """Cone of nonnegative combinations of the generator columns."""

    dim: int
    generators: np.ndarray

    _type = "generators"

    def __post_init__(self):
        V = np.asarray(self.generators, dtype=float)
        if V.ndim != 2 or V.shape[0] != self.dim or V.shape[1] < 1:
            raise ConeFormatError("generators must be a nonempty (dim, k) array")
        V = _as_unit_columns(V)
        V = _dedupe_unit_rows(V.T).T
        object.__setattr__(self, "generators", _read_only(V))

    @property
    def _generators(self):
        return self.generators

    def _solve_rows(self, X):
        """(V lam, lam, iterations) per row, lam >= 0 the NNLS coefficients on V."""
        lam, iterations = _lawson_hanson_rows(self.generators, X, self._operators)
        return _rows_times(lam, self.generators.T), lam, iterations

    def _margin_rows(self, X):
        return -_row_norms(X - self._project_rows(X))

    def _active(self, x, p, c):
        return None  # lam lives on the generators, and no facets are enumerated

    @cached_property
    def _dual(self):
        return PolyhedralH(dim=self.dim, normals=-self.generators.T)

    def _is_proper(self):
        V = self.generators
        if np.linalg.matrix_rank(V, tol=RANK_RTOL) < self.dim:
            return False  # not generating
        res = _feasible(V.T, np.zeros(V.shape[1]))  # <v, x> >= 0
        if res.status == "indeterminate":
            raise IndeterminateError("pointedness LP indeterminate")
        return res.status == "feasible"


@dataclass(frozen=True)
class Lorentz(_Cone):
    """Ice cream cone {(xbar, t) : t >= ||xbar||}; t is the last coordinate."""

    dim: int

    _type = "lorentz"
    _dual = property(lambda self: self)  # self-dual
    _closed_form = True

    def __post_init__(self):
        if self.dim < 2:
            raise ConeFormatError("Lorentz cone requires dim >= 2")

    @cached_property
    def _generators(self):
        if self.dim != 2:
            return super()._generators
        # The 2-dimensional Lorentz cone is the simplicial cone on (1,1), (-1,1).
        return _read_only(_as_unit_columns(np.array([[1.0, -1.0], [1.0, 1.0]])))

    @cached_property
    def _facet_normals(self):
        if self.dim != 2:
            return super()._facet_normals
        return _read_only(-self._generators.T)  # orthonormal generators: inverse = transpose

    def _solve_rows(self, X):
        t = X[:, -1]
        nx = _row_norms(X[:, :-1])
        # alpha = (t + ||xbar||) / 2 clamped at 0.  A row inside the cone
        # (alpha >= ||xbar||) stays; otherwise xbar scales by alpha / ||xbar||,
        # which is 0 at the apex, and t becomes alpha.
        alpha = np.maximum(0.5 * (t + nx), 0.0)
        P = X * np.divide(alpha, nx, out=np.ones_like(nx), where=alpha < nx)[:, None]
        P[:, -1] = np.maximum(alpha, t)
        return P, None, None

    def _margin_rows(self, X):
        return X[:, -1] - _row_norms(X[:, :-1])

    def _directions(self, scale):
        # z = scale * ndtri(u) in the first m - 1 coordinates, ||z|| + scale * -log u last.
        def directions(u):
            z = scale * ndtri(u[:, :-1])
            extra = -scale * np.log(u[:, -1])
            return np.column_stack([z, _row_norms(z) + extra])

        return self.dim, directions


@dataclass(frozen=True)
class MonotoneNonneg(_Cone):
    """Cone {x : x_1 >= x_2 >= ... >= x_m >= 0}."""

    dim: int

    _type = "monotone_nonneg"

    def __post_init__(self):
        if self.dim < 1:
            raise ConeFormatError("dimension must be positive")

    @cached_property
    def _generators(self):
        return _read_only(monotone_generators(self.dim))

    @cached_property
    def _facet_normals(self):
        # x_i - x_{i+1} >= 0 for i < m, and x_m >= 0.
        m = self.dim
        rows = (np.eye(m, k=1) - np.eye(m))[:-1] / np.sqrt(2.0)
        last = np.zeros((1, m))
        last[0, -1] = -1.0
        return _read_only(np.vstack([rows, last]))

    def _solve_rows(self, X):
        return np.maximum(_isotonic_rows(X), 0.0), None, None

    def _margin_rows(self, X):
        return np.minimum(_row_min(X[:, :-1] - X[:, 1:], initial=np.inf), X[:, -1])

    @cached_property
    def _dual(self):
        return Simplicial(columns=np.linalg.inv(self._generators).T)


ConeSpec = (
    Orthant | SignedOrthant | Simplicial | PolyhedralH | PolyhedralV
    | Lorentz | MonotoneNonneg
)


def _check_dim(cone, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != cone.dim:
        raise DimensionMismatchError(
            f"vector of size {x.size} vs cone dimension {cone.dim}"
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
    """V-representation (unit generator columns) where one is available: the
    cone's own array, read-only where the cone stores it."""
    return cone._generators


def cone_margin(cone, x):
    """Signed feasibility margin: >= 0 inside the cone, < 0 outside.

    Componentwise and halfspace families report the worst constraint value;
    generator families report coefficient or NNLS-residual margins.  The sign
    is what matters; magnitudes are family-specific.
    """
    return cone._margin(_check_dim(cone, x))


def membership(cone, x, tol=MEMBERSHIP_TOL):
    """True iff x lies in the cone within tolerance tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x = _check_dim(cone, x)
    # hypot: the norm of a finite vector stays finite at every scale.
    return cone_margin(cone, x) >= -tol * (1.0 + math.hypot(*x.tolist()))


def dual(cone):
    """Dual cone K* = {y : <x, y> >= 0 for all x in K} in the same families."""
    return cone._dual


def sign_flip(cone, eps):
    """Reflected cone with generators e_i replaced by eps_i * e_i."""
    eps = np.asarray(eps, dtype=float)
    if eps.size != cone.dim:
        raise DimensionMismatchError("sign vector dimension mismatch")
    if not np.all(np.abs(eps) == 1.0):
        raise ConeFormatError("sign vector entries must be +1 or -1")
    return cone._sign_flip(eps)


def gram(E):
    """Gram matrix of generator columns: G_ij = <e_i, e_j>."""
    if isinstance(E, _Cone):
        E = generator_matrix(E)
    E = np.asarray(E, dtype=float)
    return E.T @ E


def is_proper(cone, tol=MEMBERSHIP_TOL):
    """True iff the cone is pointed and generating.

    Properness is decided scale free: a halfspace cone is solid when its
    homogeneous system <u_i, x> < 0 has a point, and a generator cone is
    pointed when <v_j, x> > 0 has one, each asked of lp_feasible with
    offset 0.  Only the depth of the cone counts, against the threshold
    margin / box = 1e-10 of lp_feasible, so a cone as thin as |x1| <=
    1e-8 x2 is proper.

    Raises IndeterminateError when an LP subproblem cannot decide.
    """
    return cone._is_proper()


def facet_normals(cone):
    """Minimal unit facet normals u_i, as rows, with K = {x : <u_i, x> <= 0}: the
    cone's own array, read-only where the cone stores it."""
    return cone._facet_normals


def facets(cone):
    """The facet hyperplanes through 0 with the normals of facet_normals()."""
    zero = np.zeros(cone.dim)
    return [Hyperplane(normal=u, anchor=zero) for u in facet_normals(cone)]


# ---------------------------------------------------------------------------
# Cone description files (UTF-8 JSON)


def _json_int(value):
    # bool is an int subclass; a float such as 3.7 must not be truncated.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConeFormatError(f"dim must be an integer, got {value!r}")
    return int(value)


# Each dataclass field as (from JSON, to JSON); generator matrices list one generator per entry.
_JSON_FIELDS = {
    "dim": (_json_int, lambda d: d),
    "epsilon": (lambda v: np.asarray(v, dtype=float), lambda eps: [int(e) for e in eps]),
    "columns": (lambda v: np.asarray(v, dtype=float).T, lambda E: E.T.tolist()),
    "normals": (lambda v: np.asarray(v, dtype=float), lambda U: U.tolist()),
    "generators": (lambda v: np.asarray(v, dtype=float).T, lambda V: V.T.tolist()),
}

_FAMILIES = {cls._type: cls for cls in (Orthant, SignedOrthant, Simplicial, PolyhedralH,
                                         PolyhedralV, Lorentz, MonotoneNonneg)}


def cone_from_dict(data):
    """Build a cone from its JSON description; unknown or extra fields reject."""
    if not isinstance(data, dict):
        raise ConeFormatError("cone description must be a JSON object")
    kind = data.get("type")
    if kind not in _FAMILIES:
        raise ConeFormatError(f"unknown cone type {kind!r}")
    cls = _FAMILIES[kind]
    required = [f.name for f in fields(cls)]
    given = set(data) - {"type"}
    if given != set(required):
        raise ConeFormatError(
            f"cone type {kind!r} requires exactly fields {sorted(required)}, "
            f"got {sorted(given)}"
        )
    try:
        return cls(**{name: _JSON_FIELDS[name][0](data[name]) for name in required})
    except (TypeError, ValueError) as exc:
        raise ConeFormatError(str(exc)) from exc


def cone_to_dict(cone):
    """JSON-serializable description of a cone (inverse of cone_from_dict)."""
    out = {"type": cone._type}
    for f in fields(cone):
        out[f.name] = _JSON_FIELDS[f.name][1](getattr(cone, f.name))
    return out


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
