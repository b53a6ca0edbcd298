"""Riemann-sphere arithmetic in homogeneous coordinates.

Sphere points are unit vectors in C^2 (numpy arrays of shape (..., 2));
the projective class is the point.  Working homogeneously removes every
special case at infinity, which is why cross-ratios and Mobius maps in
this package never touch a chart until I/O time.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InputError
from .subspaces import det_normalize

INF = complex(math.inf, 0.0)
CHART_TOL = 1e-14  # |b| / |a| at or below which the chart reads infinity


def hom(z: complex | float) -> np.ndarray:
    """Homogeneous coordinates of a chart value (INF allowed)."""
    z = complex(z)
    if cmath.isinf(z):
        return np.array([1.0, 0.0], dtype=complex)
    v = np.array([z, 1.0], dtype=complex)
    return v / np.linalg.norm(v)


def normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n == 0):
        raise InputError("zero vector is not a sphere point")
    return v / n


def chart(v: np.ndarray) -> complex:
    """Chart value a/b of a homogeneous pair; INF near the pole."""
    a, b = complex(v[..., 0]), complex(v[..., 1])
    if abs(b) <= CHART_TOL * abs(a):
        return INF
    return a / b


def proj_dist(u: np.ndarray, v: np.ndarray) -> float:
    """Fubini-Study angle between projective classes, in [0, pi/2].
    Computed through the orthogonal component, so tiny angles keep full
    precision (arccos of the overlap has a sqrt(eps) floor)."""
    u = normalize(np.asarray(u, dtype=complex))
    v = normalize(np.asarray(v, dtype=complex))
    inner = np.vdot(u, v)
    rest = v - u * inner
    return math.atan2(float(np.linalg.norm(rest)), min(1.0, abs(inner)))


def sphere_xyz(v: np.ndarray) -> np.ndarray:
    """Embed CP^1 points as unit vectors of S^2 in R^3.

    Accepts shape (..., 2); returns (..., 3).  Geodesic distance on the
    image sphere is twice the Fubini-Study angle.
    """
    v = normalize(np.asarray(v, dtype=complex))
    a, b = v[..., 0], v[..., 1]
    ab = a * np.conj(b)
    return np.stack(
        [2.0 * ab.real, 2.0 * ab.imag, (np.abs(a) ** 2 - np.abs(b) ** 2).real], axis=-1
    )


def xyz_to_hom(p: np.ndarray) -> np.ndarray:
    """Inverse of sphere_xyz, stable at both poles.  Accepts (..., 3)."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    w = x + 1j * y
    # two charts; pick the better-conditioned one per point
    north = np.stack([1.0 + z + 0j, np.conj(w)], axis=-1)
    south = np.stack([w, 1.0 - z + 0j], axis=-1)
    use_north = (z >= 0)[..., None]
    v = np.where(use_north, north, south)
    return normalize(v)


def apply_mobius(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to homogeneous points of shape (..., 2)."""
    return normalize(np.asarray(v, dtype=complex) @ np.asarray(m, dtype=complex).T)


def three_point_map(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Mobius matrix sending the projective classes (a, b, c) to
    (0, 1, infinity).  Built from 2x2 determinants, no chart needed."""

    def det2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    s = det2(b, c)
    u = det2(b, a)
    if abs(s) < 1e-15 or abs(u) < 1e-15 or abs(det2(a, c)) < 1e-15:
        raise InputError("three_point_map needs pairwise distinct points")
    m = np.array([[s * a[1], -s * a[0]], [u * c[1], -u * c[0]]], dtype=complex)
    return det_normalize(m)


def mobius_matrix_dist(m1: np.ndarray, m2: np.ndarray) -> float:
    """Projective distance between 2x2 maps: Frobenius distance after
    optimal unit-scalar alignment, both inputs normalized."""
    a = np.asarray(m1, dtype=complex)
    b = np.asarray(m2, dtype=complex)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    inner = np.vdot(a, b)
    phase = np.conj(inner) / abs(inner) if abs(inner) > 0 else 1.0
    # direct difference after phase alignment: no sqrt(eps) cancellation floor
    return float(np.linalg.norm(a - phase * b))


def fixed_points(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed points of a 2x2 map as homogeneous pairs (attracting last
    for a loxodromic)."""
    m = det_normalize(np.asarray(m, dtype=complex))
    vals, vecs = np.linalg.eig(m)
    order = np.argsort(np.abs(vals))
    rep = normalize(vecs[:, order[0]])
    att = normalize(vecs[:, order[1]])
    return rep, att


def uniform_sphere(rng: np.random.Generator, count: int) -> np.ndarray:
    """count points of CP^1 distributed by the rotation-invariant solid
    angle measure, as homogeneous pairs (count, 2)."""
    g = rng.standard_normal((count, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return xyz_to_hom(g)


# --- hyperbolic 3-space -------------------------------------------------
#
# Points of H^3 in upper-half-space coordinates (z, t), z complex, t > 0.
# The ball-model origin corresponds to (0, 1).


def h3_apply(m: np.ndarray, z: complex, t: float) -> tuple[complex, float]:
    """Action of a det-1 2x2 complex matrix on upper half space."""
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    cz_d = c * z + d
    denom = abs(cz_d) ** 2 + (abs(c) * t) ** 2
    if denom == 0:
        raise InputError("matrix sends the point to the ideal boundary")
    z_new = ((a * z + b) * np.conj(cz_d) + a * np.conj(c) * t * t) / denom
    return complex(z_new), float(t / denom)


def h3_normalizer(z: complex, t: float) -> np.ndarray:
    """A det-1 upper-triangular matrix sending (0, 1) to (z, t)."""
    if t <= 0:
        raise InputError("height t must be positive")
    rt = math.sqrt(t)
    return np.array([[rt, z / rt], [0.0, 1.0 / rt]], dtype=complex)
