"""Geometry of the manifold of symmetric positive definite (SPD) matrices.

Points on the manifold are wrapped in :class:`SpdMatrix`, which validates
symmetry and a strict eigenvalue floor at construction.  The dissimilarity
used throughout the package is the LogDet divergence

    d2(W, W0) = tr(W @ inv(W0)) - logdet(W @ inv(W0)) - n,

which is scale invariant and vanishes exactly at W == W0.  Every spectral
operation goes through one pair: :func:`eigendecompose` (``eigh`` of the
symmetric part, eigenvalues ascending) and :func:`from_spectrum`, which
rebuilds V diag(f(vals)) V^T.  The rebuild does not depend on the signs of
the eigenvector columns, so no sign convention is imposed.  The inverse, the
retraction ("eigendecompose, clip the spectrum, reconstruct") and the
closed-form W step of ``metric.inner_solve_w`` are all built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError, NumericError

Array = np.ndarray

#: Eigenvalue floor: retractions clip the spectrum here instead of at zero so
#: that every point stays invertible.
EPS_PD = 1e-8

#: Relative safety bump applied when clipping, so that reconstruction
#: round-off cannot push an eigenvalue back below EPS_PD.
_CLIP_MARGIN = 1e-4

#: Relative symmetry tolerance for accepting nearly-symmetric input.
_SYM_TOL = 1e-10


def sym(a: Array) -> Array:
    """Symmetric part (a + a.T) / 2."""
    return 0.5 * (a + a.T)


def _check_square(a: Array, name: str = "matrix") -> Array:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Immutable symmetric positive definite matrix.

    Construction validates the symmetry residual (relative tolerance
    ``1e-10``) and the eigenvalue floor ``EPS_PD``; the stored array is the
    symmetrized input, marked read-only.
    """

    mat: Array

    def __post_init__(self):
        a = _check_square(self.mat, "SpdMatrix entries")
        if not np.all(np.isfinite(a)):
            raise InvariantViolationError("SpdMatrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if asym > _SYM_TOL * scale:
            raise InvariantViolationError(
                f"matrix is not symmetric: residual {asym:.3e} exceeds {_SYM_TOL * scale:.3e}"
            )
        a = sym(a)
        lam_min = float(np.linalg.eigvalsh(a)[0])
        # Absolute slack of 1e-12 absorbs eigensolver round-off on matrices
        # whose spectrum sits exactly on the floor.
        if lam_min < EPS_PD - 1e-12:
            raise InvariantViolationError(
                f"matrix is not positive definite: min eigenvalue {lam_min:.3e} < {EPS_PD:.1e}"
            )
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "mat", a)

    @classmethod
    def _trusted(cls, a: Array) -> "SpdMatrix":
        """Wrap a matrix known-by-construction to satisfy the invariants."""
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
        return self.mat.shape[0]

    def scaled(self, c: float) -> "SpdMatrix":
        """c W for c > 0; acceptance criterion 2 checks scale invariance with it."""
        if c <= 0:
            raise InvariantViolationError("scale factor must be positive")
        return SpdMatrix(self.mat * c)

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"


def eigendecompose(a: Array) -> tuple[Array, Array]:
    """Eigenvalues (ascending) and eigenvectors of the symmetric part of ``a``.

    The one ``eigh`` in the package; ``perfbench/tracing.py`` traces it by name.
    """
    a = _check_square(a)
    try:
        return np.linalg.eigh(sym(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def from_spectrum(vecs: Array, vals: Array) -> Array:
    """Symmetric V diag(vals) V^T; unchanged by flipping the sign of any column."""
    return sym((vecs * vals) @ vecs.T)


def spd_inverse(w: SpdMatrix) -> SpdMatrix:
    """Inverse through the eigendecomposition, so symmetry is preserved."""
    vals, vecs = eigendecompose(w.mat)
    lam_min = float(vals[0])
    if lam_min < EPS_PD * (1.0 - 1e-6) - 1e-12:
        raise InvariantViolationError(
            f"cannot invert: min eigenvalue {lam_min:.3e} below floor {EPS_PD:.1e}"
        )
    return SpdMatrix._trusted(from_spectrum(vecs, 1.0 / vals))


def spd_logdet(w: SpdMatrix) -> float:
    """log det W as the sum of the logs of the eigenvalues."""
    return float(np.sum(np.log(np.linalg.eigvalsh(w.mat))))


def logdet_divergence_raw(w: Array, ref_inv: Array, ref_logdet: float) -> float:
    """d2(W, ref) of a raw matrix W, given the reference's inverse and logdet.

    W need not be symmetric or SPD (so that J can be differentiated
    numerically); a nonpositive determinant gives inf.
    """
    sign, logdet_w = np.linalg.slogdet(w)
    if sign <= 0:
        return math.inf
    return float(np.einsum("ij,ji->", w, ref_inv)) - (logdet_w - ref_logdet) - w.shape[0]


def logdet_divergence(w: SpdMatrix, w0: SpdMatrix) -> float:
    """LogDet divergence d2(W, W0); nonnegative, zero iff W == W0.

    The paper's divergence; acceptance criterion 2 checks its invariants.
    """
    if w.dim != w0.dim:
        raise DimensionMismatchError(f"dimension mismatch: {w.dim} vs {w0.dim}")
    val = logdet_divergence_raw(w.mat, spd_inverse(w0).mat, spd_logdet(w0))
    # The divergence is analytically nonnegative; round-off near W == W0 can
    # leave a tiny negative residue.
    return max(val, 0.0)


def clip_spectrum(vals: Array) -> Array:
    """Raise eigenvalues below the EPS_PD floor to just above it."""
    return np.where(vals < EPS_PD, EPS_PD * (1.0 + _CLIP_MARGIN), vals)


def retract_array(a: Array) -> Array:
    """Eigenvalue-clipped projection of a symmetric matrix into the SPD cone.

    ``perfbench/tracing.py`` traces it by name.
    """
    vals, vecs = eigendecompose(a)
    return from_spectrum(vecs, clip_spectrum(vals))


def retract(w: SpdMatrix, step: Array) -> SpdMatrix:
    """Move from W along a symmetric step and re-enter the SPD cone.

    Returns the eigendecomposition of W + step with eigenvalues clipped at
    the EPS_PD floor.  When W + step is already comfortably SPD the result
    equals W + step up to round-off.  The paper's retraction; acceptance
    criterion 2 checks that its output stays SPD.
    """
    s = _check_square(step, "step")
    if s.shape[0] != w.dim:
        raise DimensionMismatchError(f"step dim {s.shape[0]} != point dim {w.dim}")
    scale = max(1.0, float(np.max(np.abs(s)))) if s.size else 1.0
    if float(np.max(np.abs(s - s.T))) > _SYM_TOL * scale:
        raise InvariantViolationError("retraction step must be symmetric")
    return SpdMatrix._trusted(retract_array(w.mat + sym(s)))


def rowwise_quadratic(w_mat: Array, rows: Array) -> Array:
    """diag(X @ W @ X.T) from one BLAS product X @ W and a row-wise dot.

    A row's value may move at round-off with the rest of the batch, so
    ``metric`` passes one fixed pair matrix per train and
    ``evaluation.knn_neighbors`` keeps its own batch-independent form.
    ``perfbench/tracing.py`` wraps this by name and reads ``rows`` from args[1].
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != w_mat.shape[0]:
        raise DimensionMismatchError(
            f"rows shape {rows.shape} incompatible with metric dim {w_mat.shape[0]}"
        )
    return np.einsum("ij,ij->i", rows @ w_mat, rows)
