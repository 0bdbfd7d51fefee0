"""Geometry of the manifold of symmetric positive definite (SPD) matrices.

Points on the manifold are wrapped in :class:`SpdMatrix`, which validates
symmetry and a strict eigenvalue floor at construction.  The dissimilarity
used throughout the package is the LogDet divergence

    d2(W, W0) = tr(W @ inv(W0)) - logdet(W @ inv(W0)) - n,

which is scale invariant and vanishes exactly at W == W0.  Every inverse and
log-determinant of an SPD matrix, of the divergence and of the W step of
``metric.inner_solve_w`` too, comes from one Cholesky factor W = L L^T
(:func:`inverse_logdet`).  The spectrum serves only the retraction
(:func:`eigendecompose`, the one ``eigh``: clip the eigenvalues, rebuild) and
the eigenvalue floor of ``SpdMatrix`` validation (``eigvalsh``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError, NumericError

Array = np.ndarray

#: Eigenvalue floor: retractions clip the spectrum here instead of at zero so
#: that every point stays invertible; the W step of ``metric.inner_solve_w``
#: refuses a step whose W could fall below it.
EPS_PD = 1e-8

#: Relative symmetry tolerance for accepting nearly-symmetric input.
_SYM_TOL = 1e-10


def sym(a: Array) -> Array:
    """Symmetric part (a + a^T) / 2 of a matrix, or of each matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _check_symmetric(a: Array, message: str) -> None:
    """Raise ``message``, formatted with the residual max|a - a^T| of a square
    matrix and its bound _SYM_TOL max(1, max|a|), if the residual exceeds it."""
    asym = float(np.max(np.abs(a - a.T), initial=0.0))
    tol = _SYM_TOL * max(1.0, float(np.max(np.abs(a), initial=0.0)))
    if asym > tol:
        raise InvariantViolationError(message.format(asym, tol))


def _check_square(a: Array, name: str = "matrix") -> Array:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Immutable SPD matrix: construction validates the symmetry residual
    (``_SYM_TOL``, relative) and the eigenvalue floor ``EPS_PD``, and stores the
    symmetrized input, read-only."""

    mat: Array

    def __post_init__(self):
        a = _check_square(self.mat, "SpdMatrix entries")
        if a.size == 0:
            raise InvariantViolationError("SpdMatrix must be at least 1 x 1, got 0 x 0")
        if not np.all(np.isfinite(a)):
            raise InvariantViolationError("SpdMatrix entries must be finite")
        _check_symmetric(a, "matrix is not symmetric: residual {:.3e} exceeds {:.3e}")
        a = sym(a)
        lam_min = float(np.linalg.eigvalsh(a)[0])
        # Absolute slack of 1e-12 absorbs eigensolver round-off on matrices
        # whose spectrum sits exactly on the floor.
        if lam_min < EPS_PD - 1e-12:
            raise InvariantViolationError(f"matrix is not positive definite: min eigenvalue "
                                          f"{lam_min:.3e} < {EPS_PD:.1e}")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "mat", a)

    @classmethod
    def _trusted(cls, a: Array) -> "SpdMatrix":
        """Wrap a matrix known-by-construction to satisfy the invariants, or a
        (B, n, n) stack of them: a point of the product manifold, as the W step
        of ``metric.train_many`` makes."""
        obj = object.__new__(cls)
        a = np.asarray(a, dtype=float).copy()
        a.flags.writeable = False
        object.__setattr__(obj, "mat", a)
        return obj

    @classmethod
    def identity(cls, n: int) -> "SpdMatrix":
        return cls._trusted(np.eye(n))

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"


def eigendecompose(a: Array) -> tuple[Array, Array]:
    """Eigenvalues (ascending) and eigenvectors of the symmetric part of ``a``: the
    one ``eigh``, for the retraction.  ``perfbench/tracing.py`` traces it by name."""
    a = _check_square(a)
    try:
        return np.linalg.eigh(sym(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def inverse_logdet(a: Array) -> tuple[Array, Array | float]:
    """W^-1 = L^-T L^-1 and log det W = 2 sum(log diag L) from one Cholesky
    W = L L^T, of an SPD matrix or of each of a (B, n, n) stack.  It checks
    nothing: a matrix that is not positive definite raises ``LinAlgError``."""
    chol = np.linalg.cholesky(a)
    chol_inv = np.linalg.inv(chol)
    return (sym(chol_inv.swapaxes(-1, -2) @ chol_inv),
            2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1))


def _factored(w: SpdMatrix) -> tuple[Array, Array | float]:
    """``inverse_logdet`` of W, whose failed Cholesky is an invariant violation."""
    try:
        return inverse_logdet(w.mat)
    except np.linalg.LinAlgError:
        raise InvariantViolationError("matrix is not positive definite (Cholesky failed)") from None


def spd_inverse(w: SpdMatrix) -> SpdMatrix:
    """Inverse from one Cholesky factor; refuses a W below the eigenvalue floor.
    As diag(W^-1) <= 1 / lambda_min(W), it refuses no matrix that ``SpdMatrix``
    validation accepts."""
    inv = _factored(w)[0]
    diag_max = float(np.max(np.diagonal(inv, axis1=-2, axis2=-1)))
    if diag_max > 1.0 / (EPS_PD * (1.0 - 1e-6) - 1e-12):
        raise InvariantViolationError(f"cannot invert: max diag(W^-1) {diag_max:.3e} puts the min "
                                      f"eigenvalue below floor {EPS_PD:.1e}")
    return SpdMatrix._trusted(inv)


def spd_logdet(w: SpdMatrix) -> float:
    """log det W from one Cholesky factor."""
    return float(_factored(w)[1])


def logdet_divergence(w: SpdMatrix, w0: SpdMatrix) -> float:
    """LogDet divergence d2(W, W0); nonnegative, zero iff W == W0.

    The paper's divergence; acceptance criterion 2 checks its invariants.
    """
    if w.dim != w0.dim:
        raise DimensionMismatchError(f"dimension mismatch: {w.dim} vs {w0.dim}")
    val = (float(np.einsum("ij,ji->", w.mat, spd_inverse(w0).mat))
           - (spd_logdet(w) - spd_logdet(w0)) - w.dim)
    # The divergence is analytically nonnegative; round-off near W == W0 can
    # leave a tiny negative residue.
    return max(val, 0.0)


def retract_array(a: Array) -> Array:
    """Eigenvalue-clipped projection of a symmetric matrix into the SPD cone:
    eigenvalues below EPS_PD are raised to EPS_PD (1 + 1e-4), a margin that
    reconstruction round-off cannot undo; the rebuilt V diag(vals) V^T does not
    depend on the signs of the eigenvector columns.  ``perfbench/tracing.py``
    traces it by name.
    """
    vals, vecs = eigendecompose(a)
    vals = np.where(vals < EPS_PD, EPS_PD * (1.0 + 1e-4), vals)
    return sym((vecs * vals) @ vecs.T)


def retract(w: SpdMatrix, step: Array) -> SpdMatrix:
    """The paper's retraction: move from W along a symmetric step and re-enter
    the SPD cone (``retract_array`` of W + step).  When W + step is comfortably
    SPD the result equals it up to round-off; acceptance criterion 2 checks
    that the output stays SPD."""
    s = _check_square(step, "step")
    if s.shape[0] != w.dim:
        raise DimensionMismatchError(f"step dim {s.shape[0]} != point dim {w.dim}")
    _check_symmetric(s, "retraction step must be symmetric")
    return SpdMatrix._trusted(retract_array(w.mat + sym(s)))


def rowwise_quadratic(w_mat: Array, rows: Array) -> Array:
    """diag(X @ W @ X.T) from one BLAS product X @ W and a row-wise dot.  A row's
    value may move at round-off with the rest of the batch, so ``metric`` takes
    a window's pair distances from one batched product and ``knn_neighbors``
    ranks by row-wise distances.  ``perfbench/tracing.py`` wraps this by name
    and reads ``rows`` from args[1]."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != w_mat.shape[0]:
        raise DimensionMismatchError(f"rows shape {rows.shape} incompatible with metric dim {w_mat.shape[0]}")
    return np.einsum("ij,ij->i", rows @ w_mat, rows)
