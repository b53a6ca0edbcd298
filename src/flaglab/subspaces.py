"""Complex subspace geometry: frames, principal angles, subspace distances.

A Subspace is stored as a matrix with orthonormal columns.  Rank
decisions use the one relative threshold RANK_TOL = 1e-8.  Principal
angles are taken row by row over stacks of frames (the frame_* kernels);
hausdorff_subspace_dist is their one Subspace-level form.
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
        return Subspace(frame_complements(self.frame), check=False)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise InputError("subspaces live in different ambient dimensions")


def frame_complements(frames: np.ndarray) -> np.ndarray:
    """Orthonormal complements (..., d, d-k) of a stack of frames
    (..., d, k) with k >= 1."""
    k = frames.shape[-1]
    u, _, _ = np.linalg.svd(frames, full_matrices=True)
    return u[..., k:]


def frame_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal cosines, descending, between the frames of two stacks
    (..., d, p) and (..., d, q), row by row."""
    return np.clip(np.linalg.svd(a.conj().swapaxes(-1, -2) @ b, compute_uv=False), 0.0, 1.0)


def frame_sines(a: np.ndarray, perp: np.ndarray) -> np.ndarray:
    """Principal sines, ascending, between the frames of the stack a and
    those whose complements are the stack perp, row by row; computed
    through the complement so tiny angles keep full precision."""
    s = np.linalg.svd(perp.conj().swapaxes(-1, -2) @ a, compute_uv=False)
    return np.sort(np.clip(s, 0.0, 1.0), axis=-1)


def frame_dists(a: np.ndarray, b: np.ndarray, perp: np.ndarray) -> np.ndarray:
    """Largest principal angle between the equal-dimensional frames of the
    stacks a and b, in radians, row by row; perp holds the complements of
    b.  Rows are combined with math.atan2, one at a time, so a row's bits
    do not depend on the stack it sits in."""
    cos_min = frame_cosines(a, b)[..., -1]
    sines = frame_sines(a, perp)
    sin_max = sines[..., -1] if sines.shape[-1] else np.zeros_like(cos_min)
    angles = map(math.atan2, sin_max.ravel().tolist(), cos_min.ravel().tolist())
    return np.fromiter(angles, float, count=cos_min.size).reshape(cos_min.shape)


def hausdorff_subspace_dist(a: Subspace, b: Subspace) -> float:
    """Largest principal angle between equal-dimensional subspaces: the
    Hausdorff distance between their projectivizations, in radians."""
    _check_same_ambient(a, b)
    if a.dim != b.dim:
        raise InputError("hausdorff_subspace_dist needs equal dimensions")
    if a.dim == 0:
        return 0.0
    return float(frame_dists(a.frame, b.frame, b.orthocomplement().frame))


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
