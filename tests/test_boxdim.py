import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flaglab as fl
import flaglab.fibers as fibers
from flaglab import cli
from flaglab.boxdim import (
    _FACE_CENTERS,
    _FACES,
    _VERTS,
    EDGE_ARC,
    LOCATE_BLOCK,
    cell_ids,
    circle_cloud,
    locate,
    occupied_cells,
    refinement_for_scale,
)
from flaglab.errors import InputError
from flaglab.mobius import apply_mobius, sphere_xyz
from flaglab.subspaces import frame_complements, frame_sines
from flaglab.words import word_to_str

from conftest import random_sl
from oracles import cantor_cloud_loop, int_cell_ids, locate_unblocked, normalize_linalg, unique_cell_count


# --- grid -------------------------------------------------------------------


def test_cell_ids_deterministic_and_order_free():
    pts = fl.uniform_cloud(500, seed=1)
    ids1 = cell_ids(pts, 8)
    assert ids1.shape == (500,) and ids1.dtype == np.int64
    perm = np.random.default_rng(0).permutation(500)
    ids2 = cell_ids(pts[perm], 8)
    assert np.array_equal(ids1[perm], ids2)
    assert occupied_cells(pts, 8) == occupied_cells(pts[perm], 8)


def tuple_cell_ids(xyz, n):
    """Reference cell labels: one (face, i, j, up) row per point."""
    face, bary = locate_unblocked(xyz)
    ijk = np.floor(bary * (n * (1.0 - 1e-12))).astype(int)
    up = (ijk.sum(axis=1) == n - 1).astype(int)
    return np.column_stack([face, ijk[:, 0], ijk[:, 1], up])


@pytest.mark.parametrize("name,cloud", [
    ("cantor", fl.cantor_cloud(14)),
    ("circle", circle_cloud(10_000)),
    ("uniform", fl.uniform_cloud(10_000, seed=3)),
])
def test_scalar_keys_match_tuple_cells(name, cloud):
    for n in (1, 2, 17, 4096, 11072):
        rows = tuple_cell_ids(cloud, n)
        face, i, j, up = rows.T
        assert np.array_equal(cell_ids(cloud, n), ((face * n + i) * n + j) * 2 + up)
        assert occupied_cells(cloud, n) == len(np.unique(rows, axis=0))


# the sizes around the block edges of locate
BLOCK_SIZES = (1, LOCATE_BLOCK - 1, LOCATE_BLOCK, LOCATE_BLOCK + 1, 3 * LOCATE_BLOCK + 7)
REFINEMENTS = (1, 2, 3, 17, 208, 4096, 11072)


def assert_kernels_keep_the_bits(xyz):
    """locate, cell_ids and occupied_cells give the bits of their one-shot
    forms on the cloud xyz."""
    got, want = locate(xyz), locate_unblocked(xyz)
    assert got.face.dtype == want.face.dtype and np.array_equal(got.face, want.face)
    assert np.array_equal(got.bary.view(np.uint64), want.bary.view(np.uint64))
    for n in REFINEMENTS:
        keys = cell_ids(got, n)
        assert keys.dtype == np.int64 and np.array_equal(keys, int_cell_ids(want, n))
        assert occupied_cells(got, n) == unique_cell_count(want, n)


def test_cantor_doubling_keeps_the_bits_of_the_loop():
    for levels in (0, 1, 2, 5, 14, 18):
        assert np.array_equal(fl.cantor_cloud(levels).view(np.uint64), cantor_cloud_loop(levels).view(np.uint64))
    assert np.array_equal(fl.cantor_cloud(9, arc=2.5), cantor_cloud_loop(9, arc=2.5))


@pytest.mark.parametrize("name,cloud", [
    ("cantor", fl.cantor_cloud(14)),
    ("circle", circle_cloud(20_000)),
    ("uniform", fl.uniform_cloud(20_000, seed=4)),
])
@pytest.mark.parametrize("m", BLOCK_SIZES)
def test_blocked_kernels_keep_the_bits(name, cloud, m):
    assert_kernels_keep_the_bits(cloud[:m])


def test_blocked_kernels_keep_the_bits_on_the_whole_cantor_cloud():
    assert_kernels_keep_the_bits(fl.cantor_cloud(18))


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from(BLOCK_SIZES), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from((0.0, 1e-12, 1e-6, 1e-2, 1.0)))
def test_blocked_kernels_keep_the_bits_on_drawn_clouds(m, seed, spread):
    # clouds around icosahedron vertices, edge midpoints and face centers,
    # where faces tie and barycentrics reach 0 or 1
    rng = np.random.default_rng(seed)
    edges = np.array([(f[a], f[b]) for f in _FACES for a, b in ((0, 1), (1, 2), (0, 2))])
    poles = np.concatenate([_VERTS, _VERTS[edges].sum(axis=1), _FACE_CENTERS])
    xyz = poles[rng.integers(len(poles), size=m)] + spread * rng.standard_normal((m, 3))
    assert_kernels_keep_the_bits(normalize_linalg(xyz))


def test_no_points_occupy_no_cells():
    assert occupied_cells(np.empty((0, 3)), 5) == 0


def test_counts_monotone_under_refinement():
    for xyz in (circle_cloud(3000), fl.cantor_cloud(12), fl.uniform_cloud(3000, seed=2)):
        counts = [occupied_cells(xyz, n) for n in (2, 3, 4, 6, 8, 12, 16)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_refinement_for_scale():
    assert refinement_for_scale(EDGE_ARC) == 1
    assert refinement_for_scale(EDGE_ARC / 4) == 4


# --- eps-neighbourhood area (visual mass at the ball origin) -------------------------


def eps_area(cloud, eps, mc_count, seed):
    """Area of the eps-neighbourhood of a cloud on the unit sphere (total
    4 pi) and its Monte Carlo sigma."""
    est = fl.visual_mass(fl.VisualMeasure(0j, 1.0), cloud, eps, mc_count=mc_count, seed=seed)
    return 4.0 * math.pi * est.estimate, 4.0 * math.pi * est.sigma


def test_single_cap_area():
    pt = np.array([[0.0, 0.0, 1.0]])
    for eps in (0.2, 0.5):
        area, sigma = eps_area(pt, eps, mc_count=200_000, seed=3)
        exact = 2.0 * math.pi * (1.0 - math.cos(eps))
        assert abs(area - exact) <= 3.0 * sigma + 1e-9


def test_whole_sphere_area():
    cloud = fl.uniform_cloud(300, seed=4)
    area, _ = eps_area(cloud, 0.5, mc_count=50_000, seed=5)
    assert area == pytest.approx(4.0 * math.pi, rel=1e-6)


def test_eps_area_monotone():
    cloud = circle_cloud(2000)
    areas = [eps_area(cloud, e, mc_count=100_000, seed=6)[0] for e in (0.05, 0.1, 0.2)]
    assert areas[0] < areas[1] < areas[2]


def test_circle_tube_slope():
    # smooth curve: area of the eps-tube scales like eps^(2-1)
    cloud = circle_cloud(20_000)
    epses = [0.16, 0.08, 0.04, 0.02]
    areas = [eps_area(cloud, e, mc_count=400_000, seed=7)[0] for e in epses]
    slope = np.polyfit(np.log(epses), np.log(areas), 1)[0]
    assert abs(slope - 1.0) <= 0.1


# --- box dimension ---------------------------------------------------------------


def test_circle_dimension():
    est = fl.box_dimension_sphere(circle_cloud(10_000))
    assert abs(est.slope - 1.0) <= 0.1


def test_uniform_dimension():
    scales = [0.554, 0.37, 0.277, 0.185, 0.139]
    est = fl.box_dimension_sphere(fl.uniform_cloud(10_000, seed=8), scales=scales)
    assert abs(est.slope - 2.0) <= 0.1
    assert not est.verdict_below(2.0)


def test_cantor_dimension():
    est = fl.box_dimension_sphere(fl.cantor_cloud(14), scales=[3.0**-j for j in range(1, 8)])
    assert abs(est.slope - math.log(2) / math.log(3)) <= 0.05


def test_dimension_mobius_invariance():
    rng = np.random.default_rng(9)
    cloud = circle_cloud(8_000)
    base = fl.box_dimension_sphere(cloud)
    for _ in range(5):
        moved = apply_mobius(random_sl(rng, 2), cloud)
        est = fl.box_dimension_sphere(moved)
        assert abs(est.slope - base.slope) <= base.ci_halfwidth + est.ci_halfwidth + 0.1


def test_dimension_subsample_monotone():
    cloud = circle_cloud(10_000)
    full = fl.box_dimension_sphere(cloud)
    half = fl.box_dimension_sphere(cloud[::2])
    assert half.slope <= full.slope + full.ci_halfwidth + 0.05


def test_area_count_consistency():
    """The eps-neighborhood area is controlled by the box count at the
    matching scale times the cell area (cells ~ equilateral triangles of
    side eps; the dilated-cell factor is what the band absorbs)."""
    for cloud in (circle_cloud(4_000), fl.cantor_cloud(12)):
        for n in (8, 16, 32):
            eps = EDGE_ARC / n
            count = occupied_cells(cloud, n)
            area, _ = eps_area(cloud, eps, mc_count=150_000, seed=10)
            cell_area = 4.0 * math.pi / (20.0 * n * n)
            assert area <= count * cell_area * 16.0


def test_min_points_enforced():
    with pytest.raises(InputError):
        fl.box_dimension_sphere(circle_cloud(100))


def test_scale_range_validation():
    with pytest.raises(InputError):
        fl.box_dimension_sphere(circle_cloud(2000), scales=[1.5, 0.5, 0.2])


def test_saturation_warning():
    est = fl.box_dimension_sphere(
        fl.uniform_cloud(5_000, seed=11), scales=[0.55, 0.37, 0.27, 0.18, 0.14, 0.07, 0.035]
    )
    assert any("saturated" in w for w in est.warnings)


# --- grassmann charts ---------------------------------------------------------------


@pytest.fixture(scope="module")
def veronese_circle_flags(octagon_sym3):
    flags, _ = fl.limit_set_sample(octagon_sym3, [1, 2], count=1400, length=12, seed=13)
    return flags


def test_grassmann_single_chart_equals_fiber(octagon_sym3, veronese_circle_flags):
    anchor, flags = veronese_circle_flags[0], veronese_circle_flags[1:]
    charts, uncovered = fibers.grassmann_charts(flags, 1, anchor)
    # a single chart can only be asked about the flags it covers
    sines = frame_sines(flags.space(2), frame_complements(anchor.space(1)[0]))
    assert uncovered == np.flatnonzero(sines[:, 0] < 0.1).tolist()
    cloud = flags[[i not in uncovered for i in range(len(flags))]]
    pairs, kept = fibers.tangent_project(anchor, cloud, 1)
    coords = sphere_xyz(pairs)
    assert kept.tolist() == list(range(len(cloud)))
    assert np.array_equal(charts[word_to_str(anchor.sources[0])], coords)
    est = fl.grassmann_dimension(charts)
    direct = fl.box_dimension_sphere(coords, min_points=200)
    assert est.slope == direct.slope
    assert est.counts == direct.counts


def test_grassmann_veronese_circle_slope(octagon_sym3, veronese_circle_flags):
    flags = veronese_circle_flags
    anchors = flags[:3]
    charts, uncovered = fibers.grassmann_charts(flags[3:], 1, anchors)
    assert not uncovered
    est = fl.grassmann_dimension(charts)
    assert abs(est.slope - 1.0) <= 0.1
    assert est.chart_breakdown


def test_grassmann_redundant_anchor_stable(octagon_sym3, veronese_circle_flags):
    flags = veronese_circle_flags
    estimates = []
    for anchors in (flags[:2], flags[:3]):
        charts, uncovered = fibers.grassmann_charts(flags[3:], 1, anchors)
        assert not uncovered
        estimates.append(fl.grassmann_dimension(charts))
    base, more = estimates
    assert more.slope <= base.slope + base.ci_halfwidth + 0.02


def test_grassmann_propagates_programming_errors(veronese_circle_flags, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in a projection")

    # only a failed projection may leave a flag out of a chart
    monkeypatch.setattr(fibers, "fiber_coords", broken)
    flags = veronese_circle_flags
    with pytest.raises(TypeError, match="bug in a projection"):
        fibers.grassmann_charts(flags[1:300], 1, flags[0])


@pytest.mark.parametrize("fault", [fibers.SOFT, fibers.COLLAPSED, fl.CapacityError, fl.InputError],
                         ids=["soft-dropped", "collapsed-dropped", "CapacityError-raised", "InputError-raised"])
def test_fiber_charts_drop_only_projection_failures(octagon_sym3, veronese_circle_flags, monkeypatch, fault):
    # both callers of tangent_project, the fiber cloud and the Grassmannian
    # charts, drop a flag whose projection faults and raise any other error
    flags = veronese_circle_flags[:40]
    monkeypatch.setattr(cli, "limit_set_sample", lambda *args: (flags, []))
    cloud, _ = cli._fiber_cloud(octagon_sym3, 1, 39, 10, 1)
    assert cloud.shape == (39, 3)  # the base's own source is skipped
    charts, uncovered = fibers.grassmann_charts(flags, 1, flags[0])
    chart = charts[word_to_str(flags.sources[0])]
    assert 7 not in uncovered

    real, line = fibers.fiber_coords, flags.space(2)[7]

    def broken(frame, upper, lines):
        # a projection failure is a fault code in the row of flags[7]
        if not isinstance(fault, int):
            raise fault("projection failed")
        coords, codes = real(frame, upper, lines)
        codes[(lines == line).all(axis=(-2, -1))] = fault
        return coords, codes

    monkeypatch.setattr(fibers, "fiber_coords", broken)
    if isinstance(fault, int):
        assert np.array_equal(cli._fiber_cloud(octagon_sym3, 1, 39, 10, 1)[0], np.delete(cloud, 6, axis=0))
        dropped, more = fibers.grassmann_charts(flags, 1, flags[0])
        assert more == sorted(uncovered + [7])
        assert len(dropped[word_to_str(flags.sources[0])]) == len(chart) - 1
    else:
        with pytest.raises(fault, match="projection failed"):
            cli._fiber_cloud(octagon_sym3, 1, 39, 10, 1)
        with pytest.raises(fault, match="projection failed"):
            fibers.grassmann_charts(flags, 1, flags[0])


def test_grassmann_uncovered_flags_error(octagon_sym3, veronese_circle_flags, monkeypatch):
    flags = veronese_circle_flags
    monkeypatch.setattr(fibers, "CHART_FLOOR", 0.9)
    # a single anchor cannot cover its own transversality hole
    charts, uncovered = fibers.grassmann_charts(flags[1:300], 1, flags[0])
    assert uncovered
    assert len(charts[word_to_str(flags.sources[0])]) == 299 - len(uncovered)
