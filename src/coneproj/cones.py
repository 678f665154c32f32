"""Cone families: membership, duals, Gram matrices, facets, sign flips, file I/O.

Supported families: nonnegative orthant, sign-flipped orthant, simplicial
cones (m independent generators in R^m), polyhedral cones in halfspace or
generator form, the Lorentz cone (last coordinate bounds the Euclidean norm
of the rest), and the monotone nonnegative cone x1 >= ... >= xm >= 0.

Each family is a frozen dataclass carrying its behaviour as private _Cone
methods, which the module-level functions call after checking their input.
Every given vector passes _unit, which rejects non-finite entries and zero
vectors.  Generators and facet normals are stored unit length; duplicate
directions are merged.  All values are immutable after construction.
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
    NNLS_RTOL,
    RANK_RTOL,
    NonConvergenceError,
    _has_interior,
    _isotonic_rows,
    _norms,
    _row_min,
    _row_norms,
    _rows_times,
    nnls,
)

MEMBERSHIP_TOL = 1e-9
MERGE_TOL = 1e-9


class ConeFormatError(ValueError):
    """Malformed cone description (file or constructor arguments)."""


class UnsupportedConeError(ValueError):
    """The requested operation is not available for this cone representation."""


class DimensionMismatchError(ValueError):
    """Vector dimension does not match the cone dimension."""


def _unit(M, axis, what):
    """The vectors of M along `axis` scaled to unit length by _norms, as a
    read-only copy; ConeFormatError on non-finite entries or a zero vector.
    A vector within 1e-12 of unit length keeps its bits."""
    M = np.array(M, dtype=float)
    if not np.isfinite(M).all():
        raise ConeFormatError(f"{what} entries must be finite")
    n = _norms(M, axis=axis)
    if not n.all():
        raise ConeFormatError(f"zero {what}")
    n = np.where(np.abs(n - 1.0) < 1e-12, 1.0, n)
    return _read_only(M / (n[:, None] if axis == 1 else n))


def _dedupe_unit_rows(rows):
    """Merge unit rows closer than MERGE_TOL in cosine distance; read-only."""
    kept = []
    for r in rows:
        if not any(1.0 - float(k @ r) < MERGE_TOL for k in kept):
            kept.append(r)
    return _read_only(np.array(kept))


def _read_only(M):
    """M, made read-only: a cone hands out its stored arrays without a copy."""
    M.flags.writeable = False
    return M


def _generates_proper(V):
    """True iff the columns of the (m, k) array V generate a proper cone: V has
    rank m (generating) and <v_j, x> > 0 has a point (pointed).  A cone is
    proper exactly when its dual is, so a halfspace cone asks this of its
    dual's generators."""
    if np.linalg.matrix_rank(V, tol=RANK_RTOL) < len(V):
        return False
    return _has_interior(V.T)


class _Cone:
    """Behaviour of one cone family, behind the module-level functions.

    A family overrides what it supports; an operation it lacks raises
    UnsupportedConeError from the defaults here.  Facet normals follow one
    rule for every family but PolyhedralH, which stores them: a proper cone
    is {x : <u, x> <= 0} exactly when the vectors -u generate its dual, so
    the rows of _facet_normals are the dual's generators, negated.

    Every family has two row kernels, which map a (B, m) array to results
    per row, row i depending on row i alone, bit for bit.  _solve_rows gives
    (P, C, iterations): the (B, m) projections, the coefficients that
    certify them (lambda >= 0 on the generators, or mu >= 0 on the facet
    normals for halfspace cones; None for the Lorentz and monotone cones)
    and the (B,) solver iterations (None for closed forms).  _margin_rows
    gives the (B,) margins.  A row whose solve hits the iteration cap comes
    out NaN.  A cone keeps no solver state: nnls keeps it with the matrix.
    """

    @property
    def _generators(self):
        raise UnsupportedConeError(f"no generator representation for {type(self).__name__}")

    @cached_property
    def _facet_normals(self):
        try:
            V = self._dual._generators
        except UnsupportedConeError:
            raise UnsupportedConeError(
                f"facet enumeration unavailable for {type(self).__name__}") from None
        return _read_only(-V.T)

    def _active(self, x, p, c):
        """Facets active at the projection p of x, as indices into the rows of
        _facet_normals, from the coefficients c that _solve_rows gave with p:
        those whose c_i is not positive.  (Without coefficients project()
        reports None.)"""
        return frozenset((c <= 0.0).nonzero()[0].tolist())

    def _sign_flip(self, eps):
        raise UnsupportedConeError("sign flips apply to orthant and simplicial cones")

    def _solve_rows(self, X):
        """(V lam, lam, iterations) per row, lam >= 0 the NNLS coefficients on
        the generators V."""
        V = self._generators
        lam, iterations = nnls(V, X)
        return _rows_times(lam, V.T), lam, iterations

    def _is_proper(self):
        return True

    # True when _solve_rows is a closed form, with no solver or PAVA loop per
    # row: the falsifier then opens with a block of isotonic.OPENING_BLOCK trials.
    _closed_form = False

    def _directions(self, scale):
        """Words per trial and a map (B, words) uniforms -> directions in the cone,
        d = V (scale * -log u) on the generators V."""
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

    def _solve_rows(self, X):
        eps = self.epsilon
        C = np.maximum(eps * X, 0.0)
        return eps * C, C, None

    def _margin_rows(self, X):
        return _row_min(self.epsilon * X)

    def _sign_flip(self, eps):
        return SignedOrthant(epsilon=self.epsilon * eps)


@dataclass(frozen=True)
class Simplicial(_Cone):
    """Cone of nonnegative combinations of m independent columns in R^m."""

    columns: np.ndarray

    _type = "simplicial"

    def __post_init__(self):
        E = np.asarray(self.columns, dtype=float)
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise ConeFormatError("simplicial generator matrix must be square")
        E = _unit(E, 0, "generator")
        sv = np.linalg.svd(E, compute_uv=False)
        if sv[-1] < RANK_RTOL * sv[0]:
            raise ConeFormatError("generator columns are numerically dependent")
        object.__setattr__(self, "columns", E)

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

    def _solve_rows(self, X):
        """(E lam, lam, iterations) per row, lam >= 0 the coefficients on the
        columns E: max(E^T x, 0) in closed form when E is orthonormal, else NNLS."""
        if not self.orthonormal:
            return super()._solve_rows(X)
        E = self.columns
        lam = np.maximum(_rows_times(X, E), 0.0)
        return _rows_times(lam, E.T), lam, None

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
        object.__setattr__(self, "normals", _dedupe_unit_rows(_unit(U, 1, "facet normal")))

    @property
    def _facet_normals(self):
        return self.normals

    def _margin_rows(self, X):
        return _row_min(-_rows_times(X, self.normals.T))

    def _solve_rows(self, X):
        """(x - U^T mu, mu, iterations) per row: Moreau with the polar cone,
        generated by the normals U, with mu >= 0 the NNLS coefficients on U^T."""
        mu, iterations = nnls(self.normals.T, X)
        return X - _rows_times(mu, self.normals), mu, iterations

    def _active(self, x, p, c):
        # Facets that p meets within 1e-9 max|x|: at a degenerate p a facet
        # through it can carry mu_i = 0.
        vals = self.normals @ p
        return frozenset(np.flatnonzero(vals >= -1e-9 * np.max(np.abs(x))).tolist())

    @cached_property
    def _dual(self):
        return PolyhedralV(dim=self.dim, generators=-self.normals.T)

    def _is_proper(self):
        return _generates_proper(-self.normals.T)  # the dual's generators

    def _directions(self, scale):
        # d = P_L(z), z = scale * ndtri(u): a projection lands in the cone,
        # however thin.  For z in the polar cone P_L(z) is the solver's noise,
        # below NNLS_RTOL ||z||, and the trial would test nothing; such rows
        # take P_L(-z), which is 0 too only for z orthogonal to the span of L.
        def directions(u):
            z = scale * ndtri(u)
            d = self._solve_rows(z)[0]
            lost = _row_norms(d) < NNLS_RTOL * _row_norms(z)
            if lost.any():
                d[lost] = self._solve_rows(-z[lost])[0]
            return d

        return self.dim, directions


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
        object.__setattr__(self, "generators", _dedupe_unit_rows(_unit(V, 0, "generator").T).T)

    @property
    def _generators(self):
        return self.generators

    def _margin_rows(self, X):
        return -_row_norms(X - self._solve_rows(X)[0])

    def _active(self, x, p, c):
        return None  # lam lives on the generators, and no facets are enumerated

    @cached_property
    def _dual(self):
        return PolyhedralH(dim=self.dim, normals=-self.generators.T)

    def _is_proper(self):
        return _generates_proper(self.generators)


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
        return _unit(np.array([[1.0, -1.0], [1.0, 1.0]]), 0, "generator")

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
        # Columns (1, 0, ..), (1, 1, 0, ..), ...
        return _unit(np.triu(np.ones((self.dim, self.dim))), 0, "generator")

    def _solve_rows(self, X):
        return np.maximum(_isotonic_rows(X), 0.0), None, None

    def _margin_rows(self, X):
        return np.minimum(_row_min(X[:, :-1] - X[:, 1:], initial=np.inf), X[:, -1])

    @cached_property
    def _dual(self):
        # x_i - x_{i+1} >= 0 for i < m, and x_m >= 0: generators e_i - e_{i+1} and e_m.
        m = self.dim
        return Simplicial(columns=np.eye(m) - np.eye(m, k=-1))


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


def _check_tol(tol):
    """ValueError unless 0 <= tol < inf: a NaN tol would fail every comparison."""
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be finite and nonnegative")


def generator_matrix(cone):
    """V-representation (unit generator columns) where one is available: the
    cone's own array, read-only where the cone stores it."""
    return cone._generators


def cone_margin(cone, x):
    """Signed feasibility margin: >= 0 inside the cone, < 0 outside.

    Componentwise and halfspace families report the worst constraint value;
    generator families report coefficient or NNLS-residual margins.  The sign
    is what matters; magnitudes are family-specific.  Raises
    NonConvergenceError when the NNLS solve hits its iteration cap.
    """
    margin = float(cone._margin_rows(_check_dim(cone, x)[None, :])[0])
    if math.isnan(margin):  # a NaN row: its solve hit the iteration cap
        raise NonConvergenceError("nnls iteration cap exceeded")
    return margin


def membership(cone, x, tol=MEMBERSHIP_TOL):
    """True iff x lies in the cone within tolerance tol."""
    _check_tol(tol)
    x = _check_dim(cone, x)
    # hypot: the norm of a finite vector stays finite at every scale.
    return cone_margin(cone, x) >= -tol * (1.0 + math.hypot(*x.tolist()))


def dual(cone):
    """Dual cone K* = {y : <x, y> >= 0 for all x in K} in the same families."""
    return cone._dual


def sign_flip(cone, eps):
    """Reflected cone with generators e_i replaced by eps_i * e_i."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1 or eps.size != cone.dim:
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


def is_proper(cone):
    """True iff the cone is pointed and generating.

    Properness is decided scale free: a halfspace cone is solid when
    <u_i, x> < 0 has a point, and a generator cone is pointed when
    <v_j, x> > 0 has one, each asked of kernels.lp_feasible(G).  Only the
    depth of the cone counts, against its threshold margin / box = 1e-10,
    so a cone as thin as |x1| <= 1e-8 x2 is proper.  The other families
    are proper by construction.

    Raises NonConvergenceError when the LP solver hits its iteration cap.
    """
    return cone._is_proper()


def facet_normals(cone):
    """Minimal unit facet normals u_i, as rows, with K = {x : <u_i, x> <= 0}: the
    negated generators of dual(cone), or a halfspace cone's own normals.  The
    cone's own array, read-only; UnsupportedConeError when the dual has no
    generators (generator cones, Lorentz cones above dimension 2)."""
    return cone._facet_normals


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
