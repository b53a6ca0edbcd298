"""Box-counting dimension on the sphere.

Clouds are (n, 3) arrays of unit vectors.  The grid is a fixed
icosahedral refinement: 20 spherical triangles, each split into n^2
congruent-ish cells by its gnomonic lattice.  A point's face and
barycentrics are found once per cloud (locate), in blocks of
LOCATE_BLOCK points; a cell at refinement n is then one key
((face*n + i)*n + j)*2 + up, built exactly in float64 and cast to int64,
so counts are reproducible across runs and one 1-D sort counts the
occupied cells.
The box-counting slope estimates the dimension at these scales; it is
not a bound (the octagon's limit circle reads 0.952 +- 0.016 against a
true 1), and all verdicts in this package are phrased against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .mobius import row_norms, uniform_sphere

EDGE_ARC = 1.1071487177940904  # icosahedron edge, radians
BEND_THRESHOLD = 0.15
SATURATION_FRACTION = 0.35
MIN_SCALES = 5
SPAN_DECADES = 1.5
MIN_CHART_POINTS = 100
DEFAULT_SCALES = tuple(EDGE_ARC / 2.0 / math.sqrt(2.0) ** i for i in range(7))
# rows per locate() block: a block's (b, 3) @ (3, 20) product stays below the
# size where OpenBLAS splits a GEMM over threads; on 2 vCPUs 262,144 rows took
# 0.099 s as one product and 0.002 s in blocks.  No row's bits depend on it.
LOCATE_BLOCK = 4096


def _icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.append((0.0, a, b))
            verts.append((a, b, 0.0))
            verts.append((b, 0.0, a))
    v = np.array(verts)
    v /= row_norms(v)
    # faces = triples of mutually adjacent vertices
    dots = v @ v.T
    adj = (dots > 0.4) & (dots < 0.99)
    faces = []
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if not adj[i, j]:
                continue
            for k in range(j + 1, n):
                if adj[i, k] and adj[j, k]:
                    faces.append((i, j, k))
    assert len(faces) == 20
    return v, faces


_VERTS, _FACES = _icosahedron()
_FACE_MATS = np.stack([_VERTS[list(f)].T for f in _FACES])  # (20, 3, 3)
_FACE_INV = np.linalg.inv(_FACE_MATS)
_FACE_CENTERS = np.stack([_VERTS[list(f)].mean(axis=0) for f in _FACES])
_FACE_CENTERS /= row_norms(_FACE_CENTERS)


class Located(NamedTuple):
    """Where unit vectors fall on the icosahedron, at every refinement."""

    face: np.ndarray  # (m,) face whose center is nearest
    bary: np.ndarray  # (m, 3) barycentrics in that face, clipped to >= 0, summing to 1


def locate(xyz: np.ndarray) -> Located:
    """Face and barycentrics of unit vectors (m, 3), which every
    refinement's cell keys are read from; LOCATE_BLOCK rows at a time."""
    face = np.empty(len(xyz), dtype=np.intp)
    bary = np.empty((len(xyz), 3))
    for start in range(0, len(xyz), LOCATE_BLOCK):
        rows = slice(start, start + LOCATE_BLOCK)
        face[rows] = np.argmax(xyz[rows] @ _FACE_CENTERS.T, axis=1)
        bary[rows] = np.einsum("mij,mj->mi", _FACE_INV[face[rows]], xyz[rows])
    np.maximum(bary, 0.0, out=bary)
    bary /= bary.sum(axis=1, keepdims=True)
    return Located(face, bary)


def cell_ids(xyz: np.ndarray | Located, n: int) -> np.ndarray:
    """Deterministic cell keys at refinement n, one int64 per point, for
    unit vectors (m, 3) or their locate() result.  The key of cell
    (face, i, j, up) is ((face*n + i)*n + j)*2 + up; i, j < n, so distinct
    cells get distinct keys, and at n = 11072 (scale 1e-4) they stay
    below 4.9e9, where float64 holds every integer exactly."""
    face, bary = xyz if isinstance(xyz, Located) else locate(xyz)
    i, j, k = (np.floor(bary[:, c] * (n * (1.0 - 1e-12))) for c in range(3))
    up = (i + j + k) == n - 1
    return (((face * n + i) * n + j) * 2 + up).astype(np.int64)


def occupied_cells(xyz: np.ndarray | Located, n: int) -> int:
    """Number of distinct cells at refinement n, for unit vectors (m, 3)
    or their locate() result: one sort, then a count of key changes."""
    keys = np.sort(cell_ids(xyz, n))
    return int(len(keys) > 0) + int(np.count_nonzero(keys[1:] != keys[:-1]))


def refinement_for_scale(eps: float) -> int:
    """Smallest lattice refinement whose cells are at most eps across."""
    return max(1, int(math.ceil(EDGE_ARC / eps)))


@dataclass(frozen=True)
class DimensionEstimate:
    """Log-log slope of occupied-cell counts against inverse scale."""

    scales: tuple[float, ...]  # effective cell sizes, decreasing
    counts: tuple[int, ...]
    slope: float
    ci_halfwidth: float
    n_points: int
    chart_breakdown: dict[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    @property
    def upper_bound(self) -> float:
        """slope + 1.96 SE, the quantity verdict_below compares; the top of
        a fit interval, not a proven bound on Hausdorff dimension."""
        return self.slope + self.ci_halfwidth

    def verdict_below(self, threshold: float = 2.0) -> bool:
        return self.upper_bound < threshold


def _slope_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    dof = max(1, len(xs) - 2)
    denom = float(np.sum((xs - xs.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid**2)) / dof / denom) if denom > 0 else math.inf
    return float(slope), 1.96 * se


def box_dimension_sphere(
    points: np.ndarray,
    scales=None,
    min_points: int = 1000,
) -> DimensionEstimate:
    """Box-counting estimate for a cloud of unit vectors (n, 3).

    scales are geodesic cell sizes in (1e-4, 1) radians; each maps to the
    closest icosahedral refinement and the regression runs against the
    effective sizes.  Saturated scales (occupied cells comparable to the
    point count) are dropped with a warning; so are the extreme scales
    once, when the log-log plot bends more than BEND_THRESHOLD.
    """
    xyz = np.asarray(points, dtype=float)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise InputError("points must be an (n, 3) array of unit vectors")
    if len(xyz) < min_points:
        raise InputError(f"need at least {min_points} points, got {len(xyz)}")
    scales = list(DEFAULT_SCALES if scales is None else scales)
    if any(not (1e-4 < s < 1.0) for s in scales):
        raise InputError("scales must lie in (1e-4, 1) radians")
    ns = sorted({refinement_for_scale(s) for s in scales})
    warnings: list[str] = []

    located = locate(xyz)
    eff, counts = [], []
    for n in ns:
        c = occupied_cells(located, n)
        if c > SATURATION_FRACTION * len(xyz):
            warnings.append(
                f"scale {EDGE_ARC / n:.4g} dropped: {c} cells for {len(xyz)} points (saturated)"
            )
            continue
        eff.append(EDGE_ARC / n)
        counts.append(c)
    if len(eff) < 3:
        raise InputError("fewer than 3 usable scales after saturation filtering")

    xs = np.log(1.0 / np.asarray(eff))
    ys = np.log(np.asarray(counts, dtype=float))
    if len(xs) >= 4:
        quad = np.polyfit(xs, ys, 2)
        bend = abs(quad[0]) * ((xs.max() - xs.min()) / 2.0) ** 2
        if bend > BEND_THRESHOLD:
            warnings.append(f"log-log bend {bend:.3f} exceeded {BEND_THRESHOLD}; extreme scales dropped")
            xs, ys = xs[1:-1], ys[1:-1]
            eff, counts = eff[1:-1], counts[1:-1]
    slope, ci = _slope_fit(xs, ys)
    if len(eff) < MIN_SCALES:
        warnings.append(f"only {len(eff)} scales in the fit (want >= {MIN_SCALES})")
    span = math.log10(max(eff) / min(eff))
    if span < SPAN_DECADES:
        warnings.append(f"scale span {span:.2f} decades below {SPAN_DECADES}")
    order = np.argsort(eff)[::-1]
    return DimensionEstimate(
        scales=tuple(float(eff[i]) for i in order),
        counts=tuple(int(counts[i]) for i in order),
        slope=slope,
        ci_halfwidth=ci,
        n_points=len(xyz),
        warnings=tuple(warnings),
    )


def grassmann_dimension(charts, scales=None) -> DimensionEstimate:
    """Dimension of a Grassmannian limit-set sample from its chart clouds,
    {anchor name: (m, 3) cloud} as fibers.grassmann_charts builds them:
    each chart is box-counted and the estimate is the max slope.  Charts
    with fewer than MIN_CHART_POINTS points are excluded with a warning.
    """
    warnings: list[str] = []
    breakdown: dict[str, float] = {}
    best: DimensionEstimate | None = None
    for name, xyz in charts.items():
        if len(xyz) < MIN_CHART_POINTS:
            warnings.append(f"chart {name} excluded: only {len(xyz)} points")
            continue
        est = box_dimension_sphere(xyz, scales=scales, min_points=MIN_CHART_POINTS)
        breakdown[name] = est.slope
        if best is None or est.slope > best.slope:
            best = est
    if best is None:
        raise InputError("no chart had enough points to estimate a slope")
    return replace(best, chart_breakdown=breakdown, warnings=tuple(warnings) + best.warnings)


# --- synthetic clouds -------------------------------------------------------


def circle_cloud(count: int) -> np.ndarray:
    """count equispaced points on a great circle, as unit vectors."""
    theta = 2.0 * math.pi * np.arange(count) / count
    return np.stack([np.cos(theta), np.sin(theta), np.zeros(count)], axis=1)


def cantor_cloud(levels: int, arc: float = 1.0) -> np.ndarray:
    """Endpoints of the middle-thirds construction at the given depth,
    embedded in a great-circle arc of the given length: 2^levels points.
    Point i sums 2/3^(j+1) over the set bits j of i, lowest bit first."""
    t = np.zeros(1)
    for j in range(levels):
        t = np.concatenate([t, t + 2.0 / 3.0 ** (j + 1)])
    theta = t * arc
    return np.stack([np.cos(theta), np.sin(theta), np.zeros(len(t))], axis=1)


def uniform_cloud(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return uniform_sphere(rng, count)
