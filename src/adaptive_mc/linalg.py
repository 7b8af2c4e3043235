"""
Dense linear-algebra primitives used throughout the package.

This module contains the small set of operations the completion algorithm
and the verification suite are built from:

orthonormalize / extend_basis
    build an orthonormal basis from a list of vectors, or append one
    vector's new direction to a basis (one double Gram-Schmidt step)
project
    orthogonal projection of a vector onto a subspace
RestrictedSolver
    least squares against a row-restricted basis ``B_omega``, factored
    once per (basis, omega) pair and then applied to any number of
    sampled columns; ``lift`` maps a fit back to the full ambient space
coherence / vector_coherence
    alignment of a subspace (or vector) with the coordinate axes
vector_vector_angle / vector_subspace_angle / subspace_subspace_angle
    acute angles between vectors and subspaces

All angles are returned in radians, in [0, pi/2].  Angles are computed
from clamped norm ratios: arccos of the cosine ratio in general, switching
to arcsin of the complementary (residual) ratio once the cosine exceeds
0.7, since arccos alone collapses every angle below ~1.5e-8 to that scale
in double precision.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ORTHO_TOL",
    "DEFAULT_RANK_TOL",
    "LSTSQ_RCOND",
    "OrthonormalBasis",
    "RestrictedSolver",
    "orthonormalize",
    "extend_basis",
    "project",
    "coherence",
    "vector_coherence",
    "vector_vector_angle",
    "vector_subspace_angle",
    "subspace_subspace_angle",
]

# Max entrywise deviation of B^T B from the identity tolerated by
# OrthonormalBasis.  Double Gram-Schmidt keeps bases far below this.
ORTHO_TOL = 1e-10

# Residual norm below which a candidate vector adds no new dimension.
# Inputs are unit-scale columns, so an absolute tolerance is appropriate.
DEFAULT_RANK_TOL = 1e-10

# Relative singular-value cutoff for least-squares solves.  Row-restricted
# bases can be ill-conditioned when few rows are sampled.
LSTSQ_RCOND = 1e-10


class OrthonormalBasis:
    """An m x k real matrix with orthonormal columns.

    Represents a k-dimensional subspace of R^m through an explicit
    orthonormal basis.  ``dim == 0`` is allowed and stands for the trivial
    subspace; projecting onto it gives the zero vector.

    Instances are immutable (the wrapped array is marked read-only) and
    safe to share across threads.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, check=True):
        mat = np.array(matrix, dtype=float, copy=True)
        if mat.ndim != 2:
            raise ValueError("basis matrix must be 2-dimensional")
        m, k = mat.shape
        if m < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not np.all(np.isfinite(mat)):
            raise ValueError("basis entries must be finite")
        if check and k > 0:
            dev = np.max(np.abs(mat.T @ mat - np.eye(k)))
            if dev > ORTHO_TOL:
                raise ValueError(
                    f"columns are not orthonormal: gram deviation {dev:.3e} "
                    f"exceeds {ORTHO_TOL:.0e}"
                )
        mat.flags.writeable = False
        self.matrix = mat

    @classmethod
    def empty(cls, ambient_dim):
        """The trivial (0-dimensional) subspace of R^ambient_dim."""
        return cls(np.zeros((ambient_dim, 0)), check=False)

    @property
    def ambient_dim(self):
        return self.matrix.shape[0]

    @property
    def dim(self):
        return self.matrix.shape[1]

    def __repr__(self):
        return f"OrthonormalBasis(ambient_dim={self.ambient_dim}, dim={self.dim})"


def _check_index_set(omega, ambient):
    """Validate a strictly increasing index set into [0, ambient)."""
    omega = np.asarray(omega, dtype=np.intp)
    if omega.ndim != 1:
        raise ValueError("index set must be 1-dimensional")
    if omega.size == 0:
        raise ValueError("index set must be nonempty")
    if omega[0] < 0 or omega[-1] >= ambient or np.any(np.diff(omega) <= 0):
        raise ValueError(
            "index set must be strictly increasing with entries in "
            f"[0, {ambient})"
        )
    return omega


def _as_vector(y, expected_len, name="vector"):
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional")
    if y.shape[0] != expected_len:
        raise ValueError(
            f"{name} has length {y.shape[0]}, expected {expected_len}"
        )
    return y


def orthonormalize(vectors, rank_tol=DEFAULT_RANK_TOL):
    """Orthonormal basis for the span of the given vectors.

    Vectors are processed in order with Gram-Schmidt projection applied
    twice per vector (a single pass loses orthogonality in double
    precision once a couple dozen directions accumulate).  A vector whose
    residual after projection onto the previously accepted directions has
    norm at most ``rank_tol`` is dropped: it adds no dimension.

    Parameters
    ----------
    vectors : sequence of 1-D arrays, or a 2-D array whose columns are the
        vectors.
    rank_tol : float
        Absolute residual-norm cutoff below which a vector is dropped.

    Returns
    -------
    OrthonormalBasis
        Basis whose span equals the span of the inputs.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        vecs = [vectors[:, j] for j in range(vectors.shape[1])]
    else:
        vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError(
            "need at least one vector; use OrthonormalBasis.empty for the "
            "trivial subspace"
        )
    m = vecs[0].shape[0] if vecs[0].ndim == 1 else -1
    accepted = []
    for v in vecs:
        u = _gram_schmidt_step(accepted, _as_vector(v, m, "input vector"),
                               rank_tol)
        if u is not None:
            accepted.append(u)
    if not accepted:
        return OrthonormalBasis.empty(m)
    return OrthonormalBasis(np.column_stack(accepted))


def extend_basis(basis, v):
    """Append the direction ``v`` adds to ``basis``.

    Runs the same double Gram-Schmidt step as ``orthonormalize``, so
    extending a basis one vector at a time gives bit-for-bit the basis
    ``orthonormalize`` builds from the whole list at the default
    ``rank_tol``, and the existing columns are kept unchanged.

    Returns
    -------
    OrthonormalBasis
        ``basis`` itself when the residual of ``v`` has norm at most
        ``DEFAULT_RANK_TOL`` (no new dimension); otherwise a basis with
        one more column.
    """
    v = _as_vector(v, basis.ambient_dim, "v")
    # Contiguous copies of the columns: the dot products must run on the
    # same memory layout as in orthonormalize to give the same bits.
    columns = list(basis.matrix.T.copy())
    u = _gram_schmidt_step(columns, v, DEFAULT_RANK_TOL)
    if u is None:
        return basis
    return OrthonormalBasis(np.column_stack(columns + [u]))


def _gram_schmidt_step(columns, v, rank_tol):
    """Unit residual of ``v`` after projecting out the orthonormal
    ``columns`` twice, or None when its norm is at most ``rank_tol``."""
    w = v.copy()
    for _ in range(2):
        for u in columns:
            w -= (u @ w) * u
    nrm = np.linalg.norm(w)
    return w / nrm if nrm > rank_tol else None


def project(basis, y):
    """Orthogonal projection of ``y`` onto the subspace spanned by ``basis``.

    Computes ``B (B^T y)``.  Idempotent; the empty basis maps everything
    to the zero vector.
    """
    y = _as_vector(y, basis.ambient_dim, "y")
    if basis.dim == 0:
        return np.zeros_like(y)
    return basis.matrix @ (basis.matrix.T @ y)


class RestrictedSolver:
    """Least squares against one row-restricted basis, factored once.

    Between two subspace updates every column is fitted against the same
    ``B_omega``, the rows of the basis matrix indexed by ``omega``.  The
    restricted matrix is generally not orthonormal, so each fit is a
    genuine least-squares problem.  The solver validates ``omega`` and
    factors ``B_omega`` once, through an SVD whose singular values at or
    below ``LSTSQ_RCOND`` times the largest are truncated: the rank rule
    and the minimum-norm solution of ``np.linalg.lstsq`` with that
    ``rcond``.  Every later fit is two matrix-vector products.

    Attributes
    ----------
    basis : OrthonormalBasis
    omega : ndarray of intp
        The validated, strictly increasing row index set.
    degenerate : bool
        True when ``B_omega`` is rank-deficient below the basis
        dimension, i.e. the sampled rows do not pin down the fit.
    """

    __slots__ = ("basis", "omega", "degenerate", "_restricted", "_pinv")

    def __init__(self, basis, omega):
        self.omega = _check_index_set(omega, basis.ambient_dim)
        self.basis = basis
        a = basis.matrix[self.omega, :]
        if basis.dim == 0:
            rank = 0
            pinv = np.zeros((0, self.omega.size))
        else:
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            rank = int(np.count_nonzero(s > LSTSQ_RCOND * s[0]))
            pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
        self._restricted = a
        self._pinv = pinv
        self.degenerate = rank < basis.dim

    def fit(self, y_omega):
        """Fit sampled coordinates ``y_omega`` (ordered as ``omega``).

        Returns
        -------
        coef : ndarray of shape (dim,)
            Minimizer of ``|| B_omega coef - y_omega ||_2`` (minimum-norm
            when ``degenerate``).
        residual_norm : float
            ``|| y_omega - B_omega coef ||_2``.
        degenerate : bool
        """
        y = _as_vector(y_omega, self.omega.size, "y_omega")
        coef = self._pinv @ y
        residual = float(np.linalg.norm(y - self._restricted @ coef))
        return coef, residual, self.degenerate

    def lift(self, coef):
        """The full-length column ``B coef``."""
        return self.basis.matrix @ coef


def coherence(basis):
    """Coherence of the subspace spanned by ``basis``.

    Defined as ``(m / k) * max_j || P e_j ||^2`` over the standard basis
    vectors ``e_j`` of the ambient space.  Since ``|| P e_j ||`` equals
    the norm of row ``j`` of the basis matrix, this costs O(m k).  The
    value lies in [1, m / k]; 1 for perfectly spread subspaces, m / k
    when the subspace contains a coordinate axis.
    """
    if basis.dim == 0:
        raise ValueError("coherence is undefined for an empty basis")
    row_sq = np.einsum("ij,ij->i", basis.matrix, basis.matrix)
    return float(basis.ambient_dim / basis.dim * np.max(row_sq))


def vector_coherence(z):
    """Coherence of the 1-dimensional subspace spanned by ``z``:
    ``m * max_i z_i^2 / ||z||^2``."""
    z = np.asarray(z, dtype=float)
    nrm2 = float(z @ z)
    if nrm2 == 0.0:
        raise ValueError("vector coherence is undefined for the zero vector")
    return float(z.shape[0] * np.max(z * z) / nrm2)


def _clamped_arccos(ratio):
    return float(np.arccos(min(1.0, max(0.0, ratio))))


def _clamped_arcsin(ratio):
    return float(np.arcsin(min(1.0, max(0.0, ratio))))


# Cosine value above which angles switch to the arcsin(residual) form.
_SINE_SWITCH = 0.7


def vector_vector_angle(u, v):
    """Acute angle between two nonzero vectors, in [0, pi/2]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle is undefined for the zero vector")
    cos_ratio = abs(float(u @ v)) / (nu * nv)
    if cos_ratio > _SINE_SWITCH:
        vhat = v / nv
        residual = u / nu - (u / nu @ vhat) * vhat
        return _clamped_arcsin(np.linalg.norm(residual))
    return _clamped_arccos(cos_ratio)


def vector_subspace_angle(u, basis):
    """Smallest angle between ``u`` and any vector of the subspace.

    The cosine is ``||P u|| / ||u||``; small angles are evaluated through
    the residual ratio ``||u - P u|| / ||u||`` instead.  The empty basis
    is orthogonal to everything, giving pi/2.
    """
    u = _as_vector(u, basis.ambient_dim, "u")
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValueError("angle is undefined for the zero vector")
    if basis.dim == 0:
        return float(np.pi / 2)
    p = project(basis, u)
    cos_ratio = np.linalg.norm(p) / nrm
    if cos_ratio > _SINE_SWITCH:
        return _clamped_arcsin(np.linalg.norm(u - p) / nrm)
    return _clamped_arccos(cos_ratio)


def subspace_subspace_angle(u_basis, v_basis):
    """Largest principal angle from one subspace into another.

    Returns ``max over unit u in U of the min angle from u to V``.  Its
    cosine is the dim(U)-th singular value of ``V^T U``; when that is
    large the angle is evaluated as arcsin of the top singular value of
    the projection residual ``U - V (V^T U)``.  The quantity is
    asymmetric: if dim(U) > dim(V) some direction of U is orthogonal to V
    in the limit and the result is pi/2.
    """
    if u_basis.ambient_dim != v_basis.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    if u_basis.dim == 0 or v_basis.dim == 0:
        raise ValueError("principal angle requires two nonempty subspaces")
    if u_basis.dim > v_basis.dim:
        return float(np.pi / 2)
    cross = v_basis.matrix.T @ u_basis.matrix
    sigma = np.linalg.svd(cross, compute_uv=False)
    if sigma[-1] > _SINE_SWITCH:
        residual = u_basis.matrix - v_basis.matrix @ cross
        sines = np.linalg.svd(residual, compute_uv=False)
        return _clamped_arcsin(sines[0])
    return _clamped_arccos(sigma[-1])
