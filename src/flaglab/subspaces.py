"""Complex subspace geometry: frames, principal angles, subspace distances.

A Subspace is stored as a matrix with orthonormal columns.  Rank
decisions use the one relative threshold RANK_TOL = 1e-8.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InputError, PrecisionError

FRAME_TOL = 1e-12
RANK_TOL = 1e-8


def orth(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, rank decided by RANK_TOL
    relative to the top singular value."""
    a = np.asarray(vectors, dtype=complex)
    if a.ndim != 2:
        raise InputError("expected a matrix of column vectors")
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return u[:, :rank]


class Subspace:
    """A k-dimensional subspace of C^d as an orthonormal frame (d, k)."""

    __slots__ = ("frame",)

    def __init__(self, frame: np.ndarray, *, check: bool = True):
        frame = np.asarray(frame, dtype=complex)
        if frame.ndim != 2:
            raise InputError("frame must be a 2-d array")
        if check and frame.shape[1] > 0:
            gram = frame.conj().T @ frame
            drift = np.max(np.abs(gram - np.eye(frame.shape[1])))
            if drift > FRAME_TOL:
                # re-factor rather than reject: drift accumulates in long pipelines
                frame = orth(frame)
        self.frame = frame

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0), dtype=complex), check=False)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim, dtype=complex), check=False)

    @classmethod
    def coordinate(cls, ambient_dim: int, indices) -> "Subspace":
        e = np.eye(ambient_dim, dtype=complex)
        return cls(e[:, list(indices)], check=False)

    @classmethod
    def line(cls, vector: np.ndarray) -> "Subspace":
        v = np.asarray(vector, dtype=complex).reshape(-1, 1)
        n = np.linalg.norm(v)
        if n == 0:
            raise InputError("zero vector spans no line")
        return cls(v / n, check=False)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def orthocomplement(self) -> "Subspace":
        d, k = self.frame.shape
        if k == 0:
            return Subspace.full(d)
        u, _, _ = np.linalg.svd(self.frame, full_matrices=True)
        return Subspace(u[:, k:], check=False)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise InputError("subspaces live in different ambient dimensions")


def principal_cosines(a: Subspace, b: Subspace) -> np.ndarray:
    """Cosines of the principal angles, descending."""
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return np.zeros(0)
    s = np.linalg.svd(a.frame.conj().T @ b.frame, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def principal_sines(a: Subspace, b: Subspace) -> np.ndarray:
    """Sines of the nonzero-capable principal angles, ascending; computed
    through the orthocomplement so tiny angles keep full precision."""
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return np.zeros(0)
    perp = b.orthocomplement()
    if perp.dim == 0:
        return np.zeros(min(a.dim, 0))
    s = np.linalg.svd(perp.frame.conj().T @ a.frame, compute_uv=False)
    return np.sort(np.clip(s, 0.0, 1.0))


def transversality_gap(a: Subspace, b: Subspace) -> float:
    """Smallest principal sine between a and b, in [0, 1].

    Zero exactly when the intersection is nontrivial; for two lines it is
    the sine of the angle between them.  Requires dim a + dim b <= d.
    """
    _check_same_ambient(a, b)
    if a.dim + b.dim > a.ambient_dim:
        raise InputError("dim a + dim b exceeds the ambient dimension")
    if a.dim == 0 or b.dim == 0:
        return 1.0
    s = principal_sines(a, b)
    return float(s[0])


def hausdorff_subspace_dist(a: Subspace, b: Subspace) -> float:
    """Largest principal angle between equal-dimensional subspaces: the
    Hausdorff distance between their projectivizations, in radians."""
    _check_same_ambient(a, b)
    if a.dim != b.dim:
        raise InputError("hausdorff_subspace_dist needs equal dimensions")
    if a.dim == 0:
        return 0.0
    cos = principal_cosines(a, b)
    sines = principal_sines(a, b)
    sin_max = float(sines[-1]) if sines.size else 0.0
    cos_min = float(cos[-1])
    return math.atan2(sin_max, cos_min)


def det_normalize(m: np.ndarray) -> np.ndarray:
    """Rescale a square matrix to |det| = 1 via the principal d-th root.
    Raises PrecisionError when the determinant is zero or not finite."""
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    det = complex(np.linalg.det(m))
    if det == 0 or not np.isfinite(det):
        raise PrecisionError("matrix is numerically singular")
    if abs(det - 1.0) <= 1e-13:
        return m  # already normalized: keep bit-identity, avoid drift
    return m / cmath.exp(cmath.log(det) / d)
