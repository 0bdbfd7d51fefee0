"""Geometry of the manifold of symmetric positive definite (SPD) matrices.

Points on the manifold are wrapped in :class:`SpdMatrix`, which validates
symmetry and a strict eigenvalue floor at construction.  The dissimilarity
used throughout the package is the LogDet divergence

    d2(W, W0) = tr(W @ inv(W0)) - logdet(W @ inv(W0)) - n,

which is scale invariant and vanishes exactly at W == W0.  Its (unscaled)
gradient with respect to W is inv(W0) - inv(W).  Because every full-rank
symmetric matrix has an eigenbasis tangent space equal to the symmetric
matrices themselves, projecting a Euclidean gradient onto the tangent space
reduces to symmetrization, and the retraction is "eigendecompose, clip the
spectrum, reconstruct".
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

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
        if c <= 0:
            raise InvariantViolationError("scale factor must be positive")
        return SpdMatrix(self.mat * c)

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral factorization A = Q diag(values) Q.T.

    Eigenvalues are sorted descending; each eigenvector column is normalized
    so its first nonzero component is positive, which makes the factorization
    (and everything rebuilt from it) reproducible bit-for-bit.
    """

    eigenvalues: Array
    eigenvectors: Array

    def reconstruct(self, values: Array | None = None) -> Array:
        v = self.eigenvalues if values is None else values
        return sym((self.eigenvectors * v) @ self.eigenvectors.T)


def _fix_signs(vecs: Array) -> Array:
    if vecs.size:
        # Each column's first nonzero entry; all-zero columns read 0 and stay.
        first = vecs[np.argmax(vecs != 0, axis=0), np.arange(vecs.shape[1])]
        vecs[:, first < 0] = -vecs[:, first < 0]
    return vecs


def eigendecompose(a: Array) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix (descending order, fixed signs)."""
    a = _check_square(a)
    try:
        vals, vecs = np.linalg.eigh(sym(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals = np.ascontiguousarray(vals[order])
    vecs = _fix_signs(np.ascontiguousarray(vecs[:, order]))
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def _require_same_dim(w: SpdMatrix, w0: SpdMatrix) -> None:
    if w.dim != w0.dim:
        raise DimensionMismatchError(f"dimension mismatch: {w.dim} vs {w0.dim}")


def spd_inverse(w: SpdMatrix) -> SpdMatrix:
    """Inverse through the eigendecomposition, so symmetry is preserved."""
    eig = eigendecompose(w.mat)
    lam_min = float(eig.eigenvalues[-1])
    if lam_min < EPS_PD * (1.0 - 1e-6) - 1e-12:
        raise InvariantViolationError(
            f"cannot invert: min eigenvalue {lam_min:.3e} below floor {EPS_PD:.1e}"
        )
    return SpdMatrix._trusted(eig.reconstruct(1.0 / eig.eigenvalues))


def logdet_divergence(w: SpdMatrix, w0: SpdMatrix) -> float:
    """LogDet divergence d2(W, W0); nonnegative, zero iff W == W0."""
    _require_same_dim(w, w0)
    n = w.dim
    w0_inv = spd_inverse(w0).mat
    trace_term = float(np.einsum("ij,ji->", w.mat, w0_inv))
    logdet_w = float(np.sum(np.log(np.linalg.eigvalsh(w.mat))))
    logdet_w0 = float(np.sum(np.log(np.linalg.eigvalsh(w0.mat))))
    val = trace_term - (logdet_w - logdet_w0) - n
    # The divergence is analytically nonnegative; round-off near W == W0 can
    # leave a tiny negative residue.
    return max(val, 0.0)


def logdet_divergence_gradient(w: SpdMatrix, w0: SpdMatrix) -> Array:
    """Unscaled derivative of the divergence in W: inv(W0) - inv(W)."""
    _require_same_dim(w, w0)
    return sym(spd_inverse(w0).mat - spd_inverse(w).mat)


def clip_spectrum(vals: Array) -> Array:
    """Raise eigenvalues below the EPS_PD floor to just above it."""
    return np.where(vals < EPS_PD, EPS_PD * (1.0 + _CLIP_MARGIN), vals)


def retract_array(a: Array) -> Array:
    """Eigenvalue-clipped projection of a symmetric matrix into the SPD cone."""
    eig = eigendecompose(a)
    return eig.reconstruct(clip_spectrum(eig.eigenvalues))


def retract(w: SpdMatrix, step: Array) -> SpdMatrix:
    """Move from W along a symmetric step and re-enter the SPD cone.

    Returns the eigendecomposition of W + step with eigenvalues clipped at
    the EPS_PD floor.  When W + step is already comfortably SPD the result
    equals W + step up to round-off.
    """
    s = _check_square(step, "step")
    if s.shape[0] != w.dim:
        raise DimensionMismatchError(f"step dim {s.shape[0]} != point dim {w.dim}")
    scale = max(1.0, float(np.max(np.abs(s)))) if s.size else 1.0
    if float(np.max(np.abs(s - s.T))) > _SYM_TOL * scale:
        raise InvariantViolationError("retraction step must be symmetric")
    return SpdMatrix._trusted(retract_array(w.mat + sym(s)))


def rowwise_quadratic(w_mat: Array, rows: Array) -> Array:
    """diag(X @ W @ X.T) computed row-by-row without the full product."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != w_mat.shape[0]:
        raise DimensionMismatchError(
            f"rows shape {rows.shape} incompatible with metric dim {w_mat.shape[0]}"
        )
    return np.einsum("ij,jk,ik->i", rows, w_mat, rows)


# ---------------------------------------------------------------------------
# Serialization: row-major CSV and JSON checkpoints.

def matrix_to_json_dict(w: SpdMatrix) -> dict:
    return {"dim": w.dim, "data": [float(x) for x in w.mat.ravel()]}


def matrix_from_json_dict(obj: dict) -> SpdMatrix:
    n = int(obj["dim"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != n * n:
        raise DimensionMismatchError(f"expected {n * n} entries, got {data.size}")
    return SpdMatrix(data.reshape(n, n))


def save_matrix_json(w: SpdMatrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(matrix_to_json_dict(w)) + "\n")


def load_matrix_json(path: str | Path) -> SpdMatrix:
    return matrix_from_json_dict(json.loads(Path(path).read_text()))


def save_matrix_csv(w: SpdMatrix, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in w.mat:
            writer.writerow([repr(float(x)) for x in row])


def load_matrix_csv(path: str | Path) -> SpdMatrix:
    with open(path, newline="") as fh:
        rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
    return SpdMatrix(np.asarray(rows, dtype=float))
