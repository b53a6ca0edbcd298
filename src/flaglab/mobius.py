"""Riemann-sphere arithmetic: homogeneous pairs and unit vectors.

Where complex projective algebra needs a point (cross-ratios, three-point
maps, charts) it is a unit vector in C^2, so infinity is no special case.
A point cloud is an (n, 3) array of unit vectors in R^3, the image of
sphere_xyz; Mobius maps act on it as Lorentz matrices (apply_mobius).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InputError, PrecisionError
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


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of a real or complex array
    (..., c), kept as an axis of length 1: the squares of the c columns
    summed in order, which are the bits of np.linalg.norm(v, axis=-1,
    keepdims=True) without its temporary of the shape of v."""
    first, *rest = np.split(np.asarray(v), np.shape(v)[-1], axis=-1)
    total = _square(first)
    for col in rest:
        total += _square(col)
    return np.sqrt(total, out=total)


def _square(col: np.ndarray) -> np.ndarray:
    return (col.conj() * col).real if np.iscomplexobj(col) else col * col


def normalize(v: np.ndarray) -> np.ndarray:
    n = row_norms(v)
    if np.any(n == 0):
        raise InputError("zero vector is not a sphere point")
    return v / n


def chart(v: np.ndarray) -> complex:
    """Chart value a/b of a homogeneous pair; INF near the pole."""
    a, b = complex(v[..., 0]), complex(v[..., 1])
    if abs(b) <= CHART_TOL * abs(a):
        return INF
    return a / b


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


# Hermitian basis s with v v^H = (s0 + x s1 + y s2 + z s3) / 2 for a unit
# pair v and (x, y, z) = sphere_xyz(v); s2 is minus the usual sigma_y.
_SIGMA = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]], [[1, 0], [0, -1]]])


def lorentz(m: np.ndarray) -> np.ndarray:
    """Lorentz image L[mu, nu] = Re tr(s_mu m s_nu m^H) / 2 of an invertible
    2x2 matrix m scaled to largest entry 1: it maps the coordinates of v v^H
    to those of (m v)(m v)^H, and is exactly the identity at m = I."""
    m = np.asarray(m, dtype=complex)
    scale = np.abs(m).max() if m.shape == (2, 2) and np.isfinite(m).all() else 0.0
    if scale == 0 or np.linalg.det(m / scale) == 0:
        raise InputError("a Mobius map must be a finite, numerically invertible 2x2 matrix")
    m = m / scale
    return 0.5 * np.einsum("aij,jk,bkl,il->ab", _SIGMA, m, _SIGMA, m.conj()).real


def apply_mobius(m: np.ndarray, xyz: np.ndarray) -> np.ndarray:
    """Move unit vectors x (..., 3) by a 2x2 Mobius matrix m: to the space
    part of lorentz(m) (1, x), renormalized (its time part is positive)."""
    lam = lorentz(m)
    # einsum, not a BLAS product: at n = 1e6 on 2 vCPUs, (n, 3) @ (3, 3) took 0.42 s, einsum 0.05 s
    moved = np.einsum("...j,ij->...i", np.asarray(xyz, dtype=float), lam[1:, 1:])
    moved += lam[1:, 0]
    moved /= row_norms(moved)  # the image of (1, x) is null: its space part is never 0
    return moved


def det2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Determinant of the 2x2 matrices with columns u and v (..., 2)."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def three_point_map(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Mobius matrix sending the projective classes (a, b, c) to
    (0, 1, infinity).  Built from 2x2 determinants, no chart needed."""
    s = det2(b, c)
    u = det2(b, a)
    if abs(s) < 1e-15 or abs(u) < 1e-15 or abs(det2(a, c)) < 1e-15:
        raise PrecisionError("three_point_map needs pairwise distinct points")
    m = np.array([[s * a[1], -s * a[0]], [u * c[1], -u * c[0]]], dtype=complex)
    return det_normalize(m)


def uniform_sphere(rng: np.random.Generator, count: int) -> np.ndarray:
    """count points distributed by the rotation-invariant solid angle
    measure, as unit vectors (count, 3)."""
    g = rng.standard_normal((count, 3))
    g /= row_norms(g)
    return g


# --- hyperbolic 3-space -------------------------------------------------
#
# Points of H^3 in upper-half-space coordinates (z, t), z complex, t > 0.
# The ball-model origin corresponds to (0, 1).


def h3_normalizer(z: complex, t: float) -> np.ndarray:
    """A det-1 upper-triangular matrix sending (0, 1) to (z, t)."""
    if t <= 0:
        raise InputError("height t must be positive")
    rt = math.sqrt(t)
    return np.array([[rt, z / rt], [0.0, 1.0 / rt]], dtype=complex)
