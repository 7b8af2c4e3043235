"""
Dense linear-algebra primitives used throughout the package.

This module contains the small set of operations the completion algorithm
and the verification suite are built from:

extend_basis / orthonormalize
    append the new directions of some vectors to a basis (double
    Gram-Schmidt, one pass over the vectors); build a basis by extending
    the trivial subspace
project
    orthogonal projection of a vector onto a subspace
RestrictedSolver
    least squares against a row-restricted basis ``B_omega``, factored
    once per (basis, omega) pair and then applied to any number of
    sampled columns; a fit returns the coefficients and the residual norm
coherence / vector_coherence
    alignment of a subspace (or vector) with the coordinate axes
vector_vector_angle / vector_subspace_angle / subspace_subspace_angle
    acute angles between vectors and subspaces

``project``, the coherences and the angles also take stacks: ``(..., m)``
vectors and ``(..., m, k)`` arrays of orthonormal columns (not checked),
broadcast against each other and against an ``OrthonormalBasis``.  A
stack gives an array whose items equal the single calls' floats, up to
rounding.  The completion run and the lemma suite both measure through
them: one angle rule.

All angles are returned in radians, in [0, pi/2].  Angles are computed
from clamped norm ratios: arccos of the cosine ratio in general, switching
to arcsin of the complementary (residual) ratio once the cosine exceeds
0.7, since arccos alone collapses every angle below ~1.5e-8 to that scale
in double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .sampling import _check_index_set

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

# Size of one block of rows in the passes that walk an m x n float matrix a
# block at a time (the oracle's copy, recovery_errors): small enough that a
# block is still in cache for the pass's next step.  It sets bits:
# recovery_errors adds each column's squares one block's partial sum at a
# time, so another block size changes the rounding of every error.
_BLOCK_BYTES = 1 << 20


def _block_rows(n):
    """Rows per block of an n-column float64 matrix: about
    ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // (8 * max(n, 1)))


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


def _as_vector(y, expected_len, name="vector"):
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional")
    if y.shape[0] != expected_len:
        raise ValueError(
            f"{name} has length {y.shape[0]}, expected {expected_len}"
        )
    return y


def extend_basis(basis, *vectors):
    """Append the directions ``vectors`` add to ``basis``, in order.

    Each vector's residual is projected off the columns so far twice (one
    pass loses orthogonality in double precision once a couple dozen
    directions accumulate) and, when its norm exceeds ``DEFAULT_RANK_TOL``,
    appended normalized; a vector at or below it adds no dimension.  The
    existing columns are kept unchanged, and the result is checked once.
    Extending by several vectors at once gives, bit for bit, the basis
    that extending by one at a time gives.

    Returns
    -------
    OrthonormalBasis
        ``basis`` itself when no vector adds a dimension; otherwise a
        basis with one more column per vector that does.
    """
    # Contiguous copies of the columns: a strided dot product can round
    # differently, and the bits pinned in the tests were made this way.
    columns = list(basis.matrix.T.copy())
    for v in vectors:
        w = _as_vector(v, basis.ambient_dim).copy()
        for _ in range(2):
            for u in columns:
                w -= (u @ w) * u
        nrm = np.linalg.norm(w)
        if nrm > DEFAULT_RANK_TOL:
            columns.append(w / nrm)
    if len(columns) == basis.dim:
        return basis
    return OrthonormalBasis(np.column_stack(columns))


def orthonormalize(vectors):
    """Orthonormal basis for the span of the given vectors.

    ``extend_basis`` of the trivial subspace by the vectors in order, so
    a vector that adds no dimension is dropped and extending a basis one
    vector at a time gives this basis bit for bit.

    Parameters
    ----------
    vectors : sequence of 1-D arrays, or a 2-D array whose columns are the
        vectors.

    Returns
    -------
    OrthonormalBasis
        Basis whose span equals the span of the inputs.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        vecs = list(vectors.T)
    else:
        vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError(
            "need at least one vector; use OrthonormalBasis.empty for the "
            "trivial subspace"
        )
    if vecs[0].ndim != 1:
        raise ValueError("vector must be 1-dimensional")
    return extend_basis(OrthonormalBasis.empty(vecs[0].shape[0]), *vecs)


def project(basis, y):
    """Orthogonal projection of ``y`` onto the subspace spanned by ``basis``.

    Computes ``B (B^T y)``.  Idempotent; the empty basis maps everything
    to the zero vector.
    """
    b = _frame(basis)
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != b.shape[-2:-1]:
        raise ValueError(f"vectors of shape {y.shape} do not match the "
                         f"ambient dimension {b.shape[-2]}")
    return (b @ (np.swapaxes(b, -1, -2) @ y[..., None]))[..., 0]


class RestrictedSolver:
    """Least squares against one row-restricted basis, factored once.

    Between two subspace updates every column is fitted against the same
    ``B_omega``, the rows of the basis matrix indexed by ``omega``.  The
    restricted matrix is generally not orthonormal, so each fit is a
    genuine least-squares problem.  The solver factors ``B_omega`` once,
    through an SVD whose singular values at or below ``LSTSQ_RCOND`` times
    the largest are truncated: the rank rule and the minimum-norm solution
    of ``np.linalg.lstsq`` with that ``rcond``.  Every later fit is two
    matrix-vector products.  ``B_omega`` is kept column-major, the layout
    in which the residual's product ``B_omega coef`` is fastest.  A
    0-dimensional basis takes the same path: its SVD is empty, so the rank
    is 0 and the pseudo-inverse the (0, d) zero matrix, and every fit
    returns no coefficients and the sampled column's norm.

    Attributes
    ----------
    omega : ndarray of intp
        The row pattern (see ``sampling``): strictly increasing and
        read-only for good.  A pattern passed in is kept by reference; any
        other index set is validated into a new one.
    degenerate : bool
        True when ``B_omega`` is rank-deficient below the basis
        dimension, i.e. the sampled rows do not pin down the fit.
    """

    __slots__ = ("omega", "degenerate", "_restricted", "_pinv")

    def __init__(self, basis, omega):
        self.omega = _check_index_set(omega, basis.ambient_dim)
        a = basis.matrix[self.omega, :]
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        rank = int(np.count_nonzero(s > LSTSQ_RCOND * s.max(initial=0.0)))
        pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
        self._restricted = np.asfortranarray(a)
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
        """
        y = _as_vector(y_omega, self.omega.size, "y_omega")
        coef = np.dot(self._pinv, y)
        # The residual is formed in the product's own buffer; its norm is
        # the sqrt of one dot, what np.linalg.norm computes for a 1-D array.
        res = np.dot(self._restricted, coef)
        np.subtract(y, res, out=res)
        return coef, math.sqrt(np.dot(res, res))


def _frame(basis):
    """The matrix, or ``(..., m, k)`` stack of matrices, behind ``basis``."""
    if isinstance(basis, OrthonormalBasis):
        return basis.matrix
    b = np.asarray(basis, dtype=float)
    if b.ndim < 2:
        raise ValueError("basis must be an OrthonormalBasis or an "
                         "(..., m, k) array")
    return b


def _norm(x):
    """Norms of the vectors of a ``(..., m)`` stack, each through one BLAS
    dot: the bits of ``np.linalg.norm`` on a single vector, which
    ``np.linalg.norm(x, axis=-1)`` does not always reproduce."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _nonzero_norm(x, what):
    nrm = _norm(x)
    if np.any(nrm == 0.0):
        raise ValueError(f"{what} is undefined for the zero vector")
    return nrm


def _result(x):
    """A float for a single item, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def coherence(basis):
    """Coherence of the subspace spanned by ``basis``.

    Defined as ``(m / k) * max_j || P e_j ||^2`` over the standard basis
    vectors ``e_j`` of the ambient space.  Since ``|| P e_j ||`` equals
    the norm of row ``j`` of the basis matrix, this costs O(m k).  The
    value lies in [1, m / k]; 1 for perfectly spread subspaces, m / k
    when the subspace contains a coordinate axis.  The result is floored
    at 1, as the angles clamp their ratios: where every row has the same
    norm (k = m, say), rounding can put the maximum just below.
    """
    b = _frame(basis)
    m, k = b.shape[-2:]
    if k == 0:
        raise ValueError("coherence is undefined for an empty basis")
    row_sq = np.einsum("...ij,...ij->...i", b, b)
    return _result(np.maximum(1.0, m / k * np.max(row_sq, axis=-1)))


def vector_coherence(z):
    """Coherence of the 1-dimensional subspace spanned by ``z``:
    ``m * max_i z_i^2 / ||z||^2``."""
    z = np.asarray(z, dtype=float)
    nrm = _nonzero_norm(z, "vector coherence")
    return coherence((z / nrm[..., None])[..., None])


# Cosine value above which angles switch to the arcsin(residual) form.
_SINE_SWITCH = 0.7


def _angle(cos, sin):
    """The angle from its cosine and sine ratios, each clamped to [0, 1]."""
    return _result(np.where(cos > _SINE_SWITCH,
                            np.arcsin(np.clip(sin, 0.0, 1.0)),
                            np.arccos(np.clip(cos, 0.0, 1.0))))


def vector_vector_angle(u, v):
    """Acute angle between two nonzero vectors, in [0, pi/2]: the angle
    from ``u`` to the line through ``v``."""
    v = np.asarray(v, dtype=float)
    nv = _nonzero_norm(v, "angle")
    return vector_subspace_angle(u, (v / nv[..., None])[..., None])


def vector_subspace_angle(u, basis):
    """Smallest angle between ``u`` and any vector of the subspace.

    The cosine is ``||P u|| / ||u||``; small angles are evaluated through
    the residual ratio ``||u - P u|| / ||u||`` instead.  The empty basis
    is orthogonal to everything, giving pi/2.
    """
    p = project(basis, u)
    u = np.asarray(u, dtype=float)
    nrm = _nonzero_norm(u, "angle")
    return _angle(_norm(p) / nrm, _norm(u - p) / nrm)


def subspace_subspace_angle(u_basis, v_basis):
    """Largest principal angle from one subspace into another.

    Returns ``max over unit u in U of the min angle from u to V``.  Its
    cosine is the dim(U)-th singular value of ``V^T U``; when that is
    large the angle is evaluated as arcsin of the top singular value of
    the projection residual ``U - V (V^T U)``.  The quantity is
    asymmetric: if dim(U) > dim(V) some direction of U is orthogonal to V
    in the limit and the result is pi/2.
    """
    u, v = _frame(u_basis), _frame(v_basis)
    if u.shape[-2] != v.shape[-2]:
        raise ValueError("subspaces live in different ambient dimensions")
    if u.shape[-1] == 0 or v.shape[-1] == 0:
        raise ValueError("principal angle requires two nonempty subspaces")
    if u.shape[-1] > v.shape[-1]:
        batch = np.broadcast_shapes(u.shape[:-2], v.shape[:-2])
        return _result(np.full(batch, np.pi / 2))
    cross = np.swapaxes(v, -1, -2) @ u
    cos = np.linalg.svd(cross, compute_uv=False)[..., -1]
    sin = np.linalg.svd(u - v @ cross, compute_uv=False)[..., 0]
    return _angle(cos, sin)
