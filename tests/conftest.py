import numpy as np
import pytest

from coneproj import ConeFormatError, PolyhedralH, Simplicial, kernels


def random_simplicial(rng, m, min_sv=1e-3):
    """Random well-conditioned simplicial cone in R^m."""
    while True:
        E = rng.standard_normal((m, m))
        sv = np.linalg.svd(E, compute_uv=False)
        if sv[-1] < min_sv * sv[0]:
            continue
        try:
            return Simplicial(E)
        except ConeFormatError:
            continue


def random_orthant_isotone_cone(rng, m):
    """Random simplicial cone whose facet normals touch at most two coordinates.

    Facet normals are built upper-triangular (negative diagonal, at most one
    positive off-diagonal entry per row, opposite signs within a row) and then
    conjugated by a random coordinate permutation, which preserves the
    two-coordinate sign pattern.  The cone is the simplicial cone cut out by
    those halfspaces.
    """
    A = np.zeros((m, m))
    for i in range(m):
        A[i, i] = -(0.5 + rng.random())
        if i + 1 < m and rng.random() < 0.7:
            j = int(rng.integers(i + 1, m))
            A[i, j] = 0.5 + rng.random()
    perm = rng.permutation(m)
    A = A[np.ix_(perm, perm)]
    # {x : A x <= 0} with invertible A is the simplicial cone on -inv(A).
    return Simplicial(-np.linalg.inv(A))


def ring_cone(k):
    """Halfspace cone with the k normals (cos t, sin t, -1), t equally spaced."""
    theta = 2.0 * np.pi * np.arange(k) / k
    return PolyhedralH(3, np.stack([np.cos(theta), np.sin(theta), -np.ones(k)], axis=1))


def same_generator_sets(A, B, tol=1e-9):
    """Column sets equal up to positive scaling and permutation."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        return False
    A = A / np.linalg.norm(A, axis=0)
    B = B / np.linalg.norm(B, axis=0)
    used = set()
    for j in range(A.shape[1]):
        hit = None
        for k in range(B.shape[1]):
            if k not in used and np.linalg.norm(A[:, j] - B[:, k]) <= tol:
                hit = k
                break
        if hit is None:
            return False
        used.add(hit)
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class ForcedVerdicts(dict):
    """kernels._block_verdicts with every verdict forced to `block`.  Forcing
    the block path on a shape whose probe fails on the running BLAS skips the
    test: the library never multiplies that shape by block there."""

    def __init__(self, block):
        super().__init__()
        self.block = block

    def __missing__(self, key):
        if self.block and not kernels._block_rows_agree(*key):
            pytest.skip(f"the probe refuses (n, k, C order) = {key} on this BLAS")
        self[key] = self.block
        return self.block


@pytest.fixture(params=["block", "loop"])
def forced_path(request, monkeypatch):
    """kernels._rows_times forced to one BLAS product per block, or to the
    per-row loop."""
    monkeypatch.setattr(kernels, "_block_verdicts", ForcedVerdicts(request.param == "block"))
    return request.param
