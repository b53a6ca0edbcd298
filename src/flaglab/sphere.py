"""Cross-ratios, visual measures and cap counting.

A single cross-ratio is evaluated on homogeneous pairs (see mobius.py),
so infinity needs no special cases.  Point clouds are arrays of shape
(n, 3) of unit vectors in R^3, the one format every function here takes
and returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .mobius import (
    INF,
    apply_mobius,
    det2,
    h3_normalizer,
    hom,
    normalize,
    uniform_sphere,
)

DEGENERATE_TOL = 1e-13


def as_point(p) -> np.ndarray:
    """Coerce chart values / pairs to unit homogeneous coordinates."""
    if isinstance(p, np.ndarray) and p.shape == (2,):
        return normalize(p.astype(complex))
    return hom(p)


def cross_ratio(z1, z2, z3, z4) -> complex:
    """Projective cross-ratio normalized so that B(0, 1, z, inf) = z.

    In a chart this is (z3-z1)(z4-z2) / ((z2-z1)(z4-z3)), but it is
    evaluated on homogeneous pairs, so any argument may be infinity.
    Returns INF when the denominator vanishes.
    """
    a, b, c, d = (as_point(p) for p in (z1, z2, z3, z4))
    if abs(det2(a, b)) < DEGENERATE_TOL:
        raise InputError("cross_ratio: first pair (z1, z2) is degenerate")
    if abs(det2(c, d)) < DEGENERATE_TOL:
        raise InputError("cross_ratio: second pair (z3, z4) is degenerate")
    num = det2(c, a) * det2(d, b)
    den = det2(b, a) * det2(d, c)
    if abs(den) <= DEGENERATE_TOL * abs(num):
        return INF
    return complex(num / den)


def _unit_vectors(points, message: str) -> np.ndarray:
    """points as an (n, 3) array, or InputError(message) unless each squared
    norm is within CHORD_SLACK of 1, which cap_hits' cube binning needs."""
    pts = np.asarray(points, dtype=float)
    ok = pts.ndim == 2 and pts.shape[1] == 3
    if not (ok and (np.abs((pts * pts).sum(axis=1) - 1.0) <= CHORD_SLACK).all()):
        raise InputError(message)
    return pts


# --- visual measures ---------------------------------------------------------


@dataclass(frozen=True)
class VisualMeasure:
    """Harmonic measure of a point of hyperbolic 3-space, represented by the
    Mobius map pushing the round measure at the ball origin to it.

    Upper-half-space coordinates: base z in C, height t > 0; the ball-model
    origin is (0, 1)."""

    z: complex
    t: float

    @property
    def matrix(self) -> np.ndarray:
        return h3_normalizer(self.z, self.t)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count points distributed by this measure, as unit vectors (count, 3)."""
        return apply_mobius(self.matrix, uniform_sphere(rng, count))


# A pair that passes dot >= cos(eps) lies at most sqrt(2 - 2 cos(eps)) apart
# in R^3, give or take CHORD_SLACK (squared distance) for the rounding of the
# dot product and of the unit norms.  CUBE_MARGIN covers the rounding of
# x / side in the cube index, and MIN_CUBE_SIDE keeps the cube keys of
# points in [-1, 1]^3 inside int64.
CHORD_SLACK = 1e-14
CUBE_MARGIN = 1e-9
MIN_CUBE_SIDE = 2.0**-19
DOTS_PER_CHUNK = 2_000_000


def _cube_keys(sample_xyz: np.ndarray, cloud_xyz: np.ndarray, side: float):
    """Keys of the cubes of the given side that hold each sample and each
    cloud vector, and the base of the keys: cube (x, y, z) = floor(v / side)
    has key ((x - low)*base + y - low)*base + z - low.  The keys leave a free
    index on each side of every occupied cube, so the neighbours of a cube
    are its key + (dx*base + dy)*base + dz.  floor(v / side) is monotone in
    v, so low and base come from the extreme coordinates, and each key is
    built one column at a time."""
    low = math.floor(min(sample_xyz.min(), cloud_xyz.min()) / side) - 1
    base = math.floor(max(sample_xyz.max(), cloud_xyz.max()) / side) - low + 2

    def keys(xyz):
        key = np.zeros(len(xyz), dtype=np.int64)
        for i in range(3):
            key *= base
            key += np.floor(xyz[:, i] / side).astype(np.int64) - low
        return key

    return keys(sample_xyz), keys(cloud_xyz), base


def cap_hits(sample_xyz: np.ndarray, cloud_xyz: np.ndarray, eps: float) -> int:
    """Number of sample unit vectors within geodesic distance eps of some
    cloud vector, by the test dot >= cos(eps).

    Both sets are binned into cubes whose side is at least the chord of
    eps, so a cloud point within eps of a sample lies in one of the 27
    cubes around the sample's.  Samples with no cloud point there are
    misses; the others are tested cube by cube against the cloud points
    of their 27 neighbours, in chunks of about DOTS_PER_CHUNK dot
    products."""
    if len(sample_xyz) == 0 or len(cloud_xyz) == 0:
        return 0
    cos_eps = math.cos(eps)
    side = max(math.sqrt(2.0 - 2.0 * cos_eps + CHORD_SLACK) * (1.0 + CUBE_MARGIN), MIN_CUBE_SIDE)
    sample_key, cloud_key, base = _cube_keys(sample_xyz, cloud_xyz, side)
    order = np.argsort(cloud_key)
    cloud_key, cloud_xyz = cloud_key[order], cloud_xyz[order]
    by_cube = np.argsort(sample_key)
    sample_key = sample_key[by_cube]
    bounds = np.flatnonzero(np.diff(sample_key, prepend=-1, append=-1))
    cubes = sample_key[bounds[:-1]]
    # the cubes dz = -1, 0, 1 of one (dx, dy) column are one run of the sorted cloud
    columns = np.array([dx * base * base + dy * base for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    starts = np.searchsorted(cloud_key, cubes[:, None] + columns - 1, side="left")
    stops = np.searchsorted(cloud_key, cubes[:, None] + columns + 1, side="right")
    near = np.flatnonzero((stops > starts).any(axis=1))
    hits = 0
    for first, last, run_starts, run_stops in zip(
        bounds[near].tolist(), bounds[near + 1].tolist(), starts[near].tolist(), stops[near].tolist()
    ):
        cand = np.concatenate([cloud_xyz[a:b] for a, b in zip(run_starts, run_stops)])
        samples = sample_xyz[by_cube[first:last]]
        chunk = max(1, DOTS_PER_CHUNK // len(cand))
        for start in range(0, len(samples), chunk):
            block = samples[start : start + chunk]
            hits += int(np.count_nonzero(np.any(block @ cand.T >= cos_eps, axis=1)))
    return hits


@dataclass(frozen=True)
class MassEstimate:
    estimate: float
    sigma: float
    seed: int
    mc_count: int


def visual_mass(
    nu: VisualMeasure,
    cloud: np.ndarray,
    eps: float,
    mc_count: int = 100_000,
    seed: int = 0,
) -> MassEstimate:
    """Monte-Carlo mass of the eps-neighborhood of a point cloud.

    eps is a geodesic radius on the unit 2-sphere, in (0, pi]: a cap of
    radius pi/2 is a hemisphere, one of radius pi the whole sphere, and a
    larger radius would wrap around.  cloud is an (n, 3) array of unit
    vectors.
    """
    if not 0 < eps <= math.pi:
        raise InputError(f"eps must lie in (0, pi], got {eps}")
    if mc_count < 1000:
        raise InputError("mc_count must be >= 1000")
    cloud = _unit_vectors(cloud, "cloud must be an (n, 3) array of finite unit vectors")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = nu.sample(rng, mc_count)
    p = cap_hits(pts, cloud, eps) / mc_count
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / mc_count)
    return MassEstimate(estimate=p, sigma=sigma, seed=seed, mc_count=mc_count)
