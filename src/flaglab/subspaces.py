"""Complex subspace geometry: frames, principal angles, subspace distances.

A k-dimensional subspace of C^d is its orthonormal frame, a (d, k) array;
a stack of subspaces is a (..., d, k) array.  Rank decisions use the one
relative threshold RANK_TOL = 1e-8.  Principal angles and fiber
quotients are taken row by row over stacks of frames (the frame_*
kernels).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PrecisionError

RANK_TOL = 1e-8


def frame_complements(frames: np.ndarray) -> np.ndarray:
    """Orthonormal complements (..., d, d-k) of a stack of frames
    (..., d, k) with k >= 1."""
    k = frames.shape[-1]
    u, _, _ = np.linalg.svd(frames, full_matrices=True)
    return u[..., k:]


def frame_quotients(upper: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal 2-frames (..., d, 2) of the complements of the frames
    lower (..., d, k-1) inside the frames upper (..., d, k+1), row by row.
    A complement's rank counts its singular values above RANK_TOL times
    its largest; a row whose complement is not 2-dimensional gets a zero
    frame and False in the returned ok mask."""
    rest = upper - lower @ (lower.conj().swapaxes(-1, -2) @ upper) if lower.shape[-1] else upper
    u, s, _ = np.linalg.svd(rest, full_matrices=False)
    ok = np.sum(s > RANK_TOL * s[..., :1], axis=-1) == 2
    return np.where(ok[..., None, None], u[..., :2], 0.0), ok


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
