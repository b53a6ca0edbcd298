"""Cross-ratio engine, quasi-Mobius diagnostics and visual measures.

All sphere arithmetic is homogeneous (see mobius.py); charts appear only
at I/O boundaries, so infinity needs no special cases.  Point clouds are
arrays of shape (n, 2) of unit homogeneous pairs.
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
    h3_apply,
    h3_normalizer,
    hom,
    normalize,
    sphere_xyz,
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


def _det(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def cross_ratio(z1, z2, z3, z4) -> complex:
    """Projective cross-ratio normalized so that B(0, 1, z, inf) = z.

    In a chart this is (z3-z1)(z4-z2) / ((z2-z1)(z4-z3)), but it is
    evaluated on homogeneous pairs, so any argument may be infinity.
    Returns INF when the denominator vanishes.
    """
    a, b, c, d = (as_point(p) for p in (z1, z2, z3, z4))
    if abs(_det(a, b)) < DEGENERATE_TOL:
        raise InputError("cross_ratio: first pair (z1, z2) is degenerate")
    if abs(_det(c, d)) < DEGENERATE_TOL:
        raise InputError("cross_ratio: second pair (z3, z4) is degenerate")
    num = _det(c, a) * _det(d, b)
    den = _det(b, a) * _det(d, c)
    if abs(den) <= DEGENERATE_TOL * abs(num):
        return INF
    return complex(num / den)


def cross_ratio_many(points: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """|B| for many index quadruples at once; inf where the denominator
    vanishes.  points: (n, 2); quads: (m, 4) ints."""
    a = points[quads[:, 0]]
    b = points[quads[:, 1]]
    c = points[quads[:, 2]]
    d = points[quads[:, 3]]
    num = np.abs(_det(c, a) * _det(d, b))
    den = np.abs(_det(b, a) * _det(d, c))
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
    source = np.asarray(source, dtype=complex)
    image = np.asarray(image, dtype=complex)
    if source.shape != image.shape or source.ndim != 2 or source.shape[1] != 2:
        raise InputError("source and image must be matching (n, 2) point arrays")
    n = len(source)
    if n < 4:
        raise InputError("need at least 4 correspondence pairs")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best = 1.0
    kept = 0
    candidates = np.arange(n)
    for _ in range(QUADRUPLES):
        i, j, l = rng.choice(n, size=3, replace=False)
        quads = np.stack(
            [
                np.full(n, i),
                np.full(n, j),
                candidates,
                np.full(n, l),
            ],
            axis=1,
        )
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
    pts = np.asarray(curve_points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
        raise InputError("need >= 4 cyclically ordered sphere points")
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
        """count boundary points distributed by this measure, as (n, 2)."""
        return apply_mobius(self.matrix, uniform_sphere(rng, count))


def cap_hits(sample_xyz: np.ndarray, cloud_xyz: np.ndarray, eps: float) -> int:
    """Number of sample unit vectors within geodesic distance eps of some
    cloud vector.  Works in chunks of about 2e6 dot products."""
    cos_eps = math.cos(eps)
    hits = 0
    chunk = max(1, 2_000_000 // max(1, len(cloud_xyz)))
    for start in range(0, len(sample_xyz), chunk):
        block = sample_xyz[start : start + chunk]
        hits += int(np.count_nonzero(np.any(block @ cloud_xyz.T >= cos_eps, axis=1)))
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

    eps is a geodesic radius on the unit 2-sphere (a cap of radius pi/2 is
    a hemisphere).  pre_map, when given, is a Mobius matrix applied to the
    samples before the membership test: visual_mass(nu_gx, A, pre_map=g^-1)
    estimates the pulled-back integrand of the measure-equivariance law.
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    if mc_count < 1000:
        raise InputError("mc_count must be >= 1000")
    cloud = np.asarray(cloud)
    cloud_xyz = cloud if cloud.shape[-1] == 3 else sphere_xyz(cloud.astype(complex))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = nu.sample(rng, mc_count)
    if pre_map is not None:
        pts = apply_mobius(np.asarray(pre_map, dtype=complex), pts)
    p = cap_hits(sphere_xyz(pts), cloud_xyz, eps) / mc_count
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / mc_count)
    return MassEstimate(estimate=p, sigma=sigma, seed=seed, mc_count=mc_count)
