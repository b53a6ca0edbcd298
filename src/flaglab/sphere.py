"""Cross-ratio engine, quasi-Mobius diagnostics and visual measures.

A single cross-ratio is evaluated on homogeneous pairs (see mobius.py),
so infinity needs no special cases.  Point clouds are arrays of shape
(n, 3) of unit vectors in R^3, the one format every function here takes
and returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InputError
from .mobius import (
    INF,
    apply_mobius,
    det2,
    h3_apply,
    h3_normalizer,
    hom,
    normalize,
    uniform_sphere,
)

DEGENERATE_TOL = 1e-13
QUADRUPLES = 400  # seeded triples tried by quasimobius_constant
NORM_TOL = 0.05  # how far |B| of a kept quadruple may sit from 1
MAX_EXHAUSTIVE = 40  # ahlfors_bound tries every quadruple up to this many points
AHLFORS_SAMPLES = 20000  # random quadruples ahlfors_bound adds past it


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
    norm is within CHORD_SLACK of 1, which |B| by chords and cap_hits need."""
    pts = np.asarray(points, dtype=float)
    ok = pts.ndim == 2 and pts.shape[1] == 3
    if not (ok and (np.abs((pts * pts).sum(axis=1) - 1.0) <= CHORD_SLACK).all()):
        raise InputError(message)
    return pts


def cross_ratio_many(points: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """|B| = |c-a| |d-b| / (|b-a| |d-c|) in R^3 chords (twice the |det| of
    the unit pairs, so this is |cross_ratio|) for many index quadruples at
    once; inf where the denominator vanishes.  points: (n, 3); quads: (m, 4)."""
    a, b, c, d = (points[quads[:, i]] for i in range(4))
    num = np.linalg.norm(c - a, axis=1) * np.linalg.norm(d - b, axis=1)
    den = np.linalg.norm(b - a, axis=1) * np.linalg.norm(d - c, axis=1)
    out = np.full(len(quads), np.inf)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    return out


# --- quasi-Mobius constant --------------------------------------------------


def quasimobius_constant(
    source: np.ndarray,
    image: np.ndarray,
    seed: int = 0,
) -> float:
    """Distortion estimate K >= 1 of a sampled correspondence.

    For seeded triples (a, b, d) the fourth point is chosen from the
    source set itself, minimizing | |B| - 1 | (quadruples further than
    NORM_TOL from the |B| = 1 locus are discarded), and the reported
    distortion is the two-sided ratio max(|B'|/|B|, |B|/|B'|), which is
    exactly 1 for any Mobius-restricted correspondence.
    """
    source = _unit_vectors(source, "source must be an (n, 3) array of unit vectors")
    image = _unit_vectors(image, "image must be an (n, 3) array of unit vectors")
    if source.shape != image.shape:
        raise InputError("source and image must be matching arrays")
    n = len(source)
    if n < 4:
        raise InputError("need at least 4 correspondence pairs")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best = 1.0
    kept = 0
    candidates = np.arange(n)
    for _ in range(QUADRUPLES):
        i, j, l = rng.choice(n, size=3, replace=False)
        quads = np.column_stack([np.full(n, i), np.full(n, j), candidates, np.full(n, l)])
        vals = cross_ratio_many(source, quads)
        vals[[i, j, l]] = np.inf
        with np.errstate(invalid="ignore"):
            off = np.abs(np.log(np.where(np.isfinite(vals) & (vals > 0), vals, np.inf)))
        m = int(np.argmin(off))
        if not math.isfinite(off[m]) or abs(vals[m] - 1.0) > NORM_TOL:
            continue
        b_src = vals[m]
        b_img = cross_ratio_many(image, quads[m][None, :])[0]
        if not math.isfinite(b_img) or b_img <= 0:
            return math.inf
        kept += 1
        ratio = max(b_img / b_src, b_src / b_img)
        best = max(best, float(ratio))
    if kept == 0:
        raise InputError(
            "no quadruple came within NORM_TOL of |B| = 1; enlarge the sample"
        )
    return best


# --- Ahlfors quasicircle bound ----------------------------------------------


def ahlfors_bound(
    curve_points: np.ndarray,
    seed: int = 0,
) -> float:
    """sup of |B(a, c, b, d)| over cyclically ordered quadruples of a Jordan
    curve sample (input order is the declared cyclic order).  Bounded for
    quasicircles; blows up on cusps and spikes."""
    pts = _unit_vectors(curve_points, "curve_points must be an (n, 3) array of unit vectors")
    if len(pts) < 4:
        raise InputError("need >= 4 cyclically ordered points")
    n = len(pts)
    if n <= MAX_EXHAUSTIVE:
        quads = np.array(list(combinations(range(n), 4)), dtype=int)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        local = []
        # adjacent windows catch the near-degenerate triples that drive the sup
        for shift in range(1, 4):
            i = np.arange(n)
            j = (i + shift) % n
            k = (i + 2 * shift) % n
            for step in range(1, 8):
                far = (i + 2 * shift + step * max(1, n // 9)) % n
                block = np.stack([i, j, k, far], axis=1)
                local.append(block)
        quads = np.concatenate(local, axis=0)
        extra = rng.integers(0, n, size=(AHLFORS_SAMPLES, 4))
        # wrap-around windows are still cyclically ordered: sort the indices,
        # then drop quadruples that repeat one
        quads = np.sort(np.concatenate([quads, extra], axis=0), axis=1)
        quads = quads[np.all(np.diff(quads, axis=1) > 0, axis=1)]
    # positively ordered (a, b, c, d) on the curve, evaluated as B(a, c, b, d)
    swapped = quads[:, [0, 2, 1, 3]]
    vals = cross_ratio_many(pts, swapped)
    vals = vals[np.isfinite(vals)]
    if len(vals) == 0:
        raise InputError("all tested quadruples were degenerate")
    return float(np.max(vals))


# --- visual measures ---------------------------------------------------------


@dataclass(frozen=True)
class VisualMeasure:
    """Harmonic measure of a point of hyperbolic 3-space, represented by the
    Mobius map pushing the round measure at the ball origin to it.

    Upper-half-space coordinates: base z in C, height t > 0; the ball-model
    origin is (0, 1)."""

    z: complex
    t: float

    @classmethod
    def ball_origin(cls) -> "VisualMeasure":
        return cls(0j, 1.0)

    @property
    def matrix(self) -> np.ndarray:
        return h3_normalizer(self.z, self.t)

    def transported(self, m: np.ndarray) -> "VisualMeasure":
        """Visual measure at the image of the basepoint under m."""
        z2, t2 = h3_apply(np.asarray(m, dtype=complex), self.z, self.t)
        return VisualMeasure(z2, t2)

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
    sample_cube = np.floor(sample_xyz / side).astype(np.int64)
    cloud_cube = np.floor(cloud_xyz / side).astype(np.int64)
    # keys leave a free index on each side of every occupied cube, so the
    # neighbours of a cube are its key + (dx*base + dy)*base + dz
    low = min(sample_cube.min(), cloud_cube.min()) - 1
    base = max(sample_cube.max(), cloud_cube.max()) - low + 2
    weights = np.array([base * base, base, 1])
    cloud_key = (cloud_cube - low) @ weights
    order = np.argsort(cloud_key)
    cloud_key, cloud_xyz = cloud_key[order], cloud_xyz[order]
    sample_key = (sample_cube - low) @ weights
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

    @property
    def sigma_bound(self) -> float:
        return 0.5 / math.sqrt(self.mc_count)


def visual_mass(
    nu: VisualMeasure,
    cloud: np.ndarray,
    eps: float,
    mc_count: int = 100_000,
    seed: int = 0,
    pre_map: np.ndarray | None = None,
) -> MassEstimate:
    """Monte-Carlo mass of the eps-neighborhood of a point cloud.

    eps is a geodesic radius on the unit 2-sphere, in (0, pi]: a cap of
    radius pi/2 is a hemisphere, one of radius pi the whole sphere, and a
    larger radius would wrap around.  cloud is an (n, 3) array of unit
    vectors.  pre_map, when given, is a Mobius matrix applied to the
    samples before the membership test: visual_mass(nu_gx, A, pre_map=g^-1)
    estimates the pulled-back integrand of the measure-equivariance law.
    """
    if not 0 < eps <= math.pi:
        raise InputError(f"eps must lie in (0, pi], got {eps}")
    if mc_count < 1000:
        raise InputError("mc_count must be >= 1000")
    cloud = _unit_vectors(cloud, "cloud must be an (n, 3) array of finite unit vectors")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = nu.sample(rng, mc_count)
    if pre_map is not None:
        pts = apply_mobius(pre_map, pts)
    p = cap_hits(pts, cloud, eps) / mc_count
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / mc_count)
    return MassEstimate(estimate=p, sigma=sigma, seed=seed, mc_count=mc_count)
