"""Box-counting dimension and eps-neighborhood area on the sphere.

The grid is a fixed icosahedral refinement: 20 spherical triangles, each
split into n^2 congruent-ish cells by its gnomonic lattice.  Cell IDs are
lexicographic tuples, so counts are reproducible across runs.  The
box-counting slope is an upper-bound proxy for Hausdorff
dimension; all verdicts in this package are phrased against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FlaglabError, InputError
from .mobius import sphere_xyz, uniform_sphere, xyz_to_hom
from .sphere import cap_hits
from .subspaces import transversality_gap
from .words import word_to_str

EDGE_ARC = 1.1071487177940904  # icosahedron edge, radians
BEND_THRESHOLD = 0.15
SATURATION_FRACTION = 0.35
MIN_SCALES = 5
SPAN_DECADES = 1.5
MIN_CHART_POINTS = 100
DEFAULT_SCALES = tuple(EDGE_ARC / 2.0 / math.sqrt(2.0) ** i for i in range(7))


def _icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.append((0.0, a, b))
            verts.append((a, b, 0.0))
            verts.append((b, 0.0, a))
    v = np.array(verts)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
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
_FACE_CENTERS /= np.linalg.norm(_FACE_CENTERS, axis=1, keepdims=True)


def cell_ids(xyz: np.ndarray, n: int) -> np.ndarray:
    """Deterministic cell labels at refinement n for unit vectors (m, 3).
    Returns an (m, 4) int array (face, i, j, up)."""
    m = xyz.shape[0]
    face = np.argmax(xyz @ _FACE_CENTERS.T, axis=1)
    bary = np.einsum("mij,mj->mi", _FACE_INV[face], xyz)
    bary = np.maximum(bary, 0.0)
    bary /= bary.sum(axis=1, keepdims=True)
    s = bary * (n * (1.0 - 1e-12))
    ijk = np.floor(s).astype(int)
    up = (ijk.sum(axis=1) == n - 1).astype(int)
    return np.column_stack([face, ijk[:, 0], ijk[:, 1], up])


def occupied_cells(xyz: np.ndarray, n: int) -> int:
    ids = cell_ids(xyz, n)
    return len(np.unique(ids, axis=0))


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


def _as_xyz(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise InputError("points must be (n, 2) homogeneous or (n, 3) unit vectors")
    return pts.astype(float) if pts.shape[1] == 3 else sphere_xyz(pts.astype(complex))


def box_dimension_sphere(
    points: np.ndarray,
    scales=None,
    min_points: int = 1000,
) -> DimensionEstimate:
    """Box-counting estimate for a sphere cloud.

    scales are geodesic cell sizes in (1e-4, 1) radians; each maps to the
    closest icosahedral refinement and the regression runs against the
    effective sizes.  Saturated scales (occupied cells comparable to the
    point count) are dropped with a warning; so are the extreme scales
    once, when the log-log plot bends more than BEND_THRESHOLD.
    """
    xyz = _as_xyz(points)
    if len(xyz) < min_points:
        raise InputError(f"need at least {min_points} points, got {len(xyz)}")
    scales = list(DEFAULT_SCALES if scales is None else scales)
    if any(not (1e-4 < s < 1.0) for s in scales):
        raise InputError("scales must lie in (1e-4, 1) radians")
    ns = sorted({refinement_for_scale(s) for s in scales})
    warnings: list[str] = []

    eff, counts = [], []
    for n in ns:
        c = occupied_cells(xyz, n)
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


@dataclass(frozen=True)
class AreaEstimate:
    area: float
    sigma: float
    eps: float
    seed: int
    mc_count: int


def eps_area(
    points: np.ndarray,
    eps: float,
    mc_count: int = 200_000,
    seed: int = 0,
) -> AreaEstimate:
    """Monte-Carlo spherical area of the union of geodesic eps-caps around
    the cloud (unit sphere, total area 4 pi)."""
    if not 1e-4 < eps < 1.0:
        raise InputError("eps must lie in (1e-4, 1) radians")
    xyz = _as_xyz(points)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sample = sphere_xyz(uniform_sphere(rng, mc_count))
    p = cap_hits(sample, xyz, eps) / mc_count
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / mc_count)
    return AreaEstimate(
        area=4.0 * math.pi * p,
        sigma=4.0 * math.pi * sigma,
        eps=eps,
        seed=seed,
        mc_count=mc_count,
    )


def grassmann_dimension(
    flags,
    k: int,
    chart_anchors,
    scales=None,
    transversality_floor: float = 0.1,
    min_points: int = 1000,
) -> DimensionEstimate:
    """Dimension of a Grassmannian limit-set sample through tangent-projection
    charts: every anchor z projects its transverse flags into the projective
    line at z, where box counting applies; the estimate is the max slope.

    Flags covered by no anchor are an error (add anchors); charts with fewer
    than MIN_CHART_POINTS points are excluded with a warning.
    """
    from .fibers import tangent_project  # local import to avoid a cycle

    if not chart_anchors:
        raise InputError("need at least one chart anchor")
    d = flags[0].ambient_dim
    covered = [False] * len(flags)
    chart_points: dict[str, list[np.ndarray]] = {}
    for anchor in chart_anchors:
        members: list[np.ndarray] = []
        for i, f in enumerate(flags):
            if f.source == anchor.source:
                continue
            if transversality_gap(f.space(d - k), anchor.space(k)) < transversality_floor:
                continue
            try:
                fp = tangent_project(anchor, f, k)
            except FlaglabError:
                continue
            members.append(fp.coords)
            covered[i] = True
        chart_points[word_to_str(anchor.source)] = members
    uncovered = [flags[i].source for i, c in enumerate(covered) if not c]
    if uncovered:
        names = ", ".join(word_to_str(w) for w in uncovered[:8])
        raise InputError(
            f"{len(uncovered)} flags covered by no chart (add anchors): {names}"
        )

    warnings: list[str] = []
    breakdown: dict[str, float] = {}
    best: DimensionEstimate | None = None
    for name, coords in chart_points.items():
        if len(coords) < MIN_CHART_POINTS:
            warnings.append(f"chart {name} excluded: only {len(coords)} points")
            continue
        est = box_dimension_sphere(
            np.stack(coords), scales=scales, min_points=min(min_points, len(coords))
        )
        breakdown[name] = est.slope
        if best is None or est.slope > best.slope:
            best = est
    if best is None:
        raise InputError("no chart had enough points to estimate a slope")
    return replace(best, chart_breakdown=breakdown, warnings=tuple(warnings) + best.warnings)


# --- synthetic clouds -------------------------------------------------------


def circle_cloud(count: int) -> np.ndarray:
    """count equispaced points on a great circle, as homogeneous pairs."""
    theta = 2.0 * math.pi * np.arange(count) / count
    xyz = np.stack([np.cos(theta), np.sin(theta), np.zeros(count)], axis=1)
    return xyz_to_hom(xyz)


def cantor_cloud(levels: int, arc: float = 1.0) -> np.ndarray:
    """Endpoints of the middle-thirds construction at the given depth,
    embedded in a great-circle arc of the given length: 2^levels points."""
    n = 1 << levels
    t = np.zeros(n)
    for j in range(levels):
        bit = (np.arange(n) >> j) & 1
        t += 2.0 * bit / 3.0 ** (j + 1)
    theta = t * arc
    xyz = np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
    return xyz_to_hom(xyz)


def uniform_cloud(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return uniform_sphere(rng, count)
