import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import flaglab as fl
from flaglab.errors import InputError
from flaglab.mobius import apply_mobius, h3_normalizer
from flaglab import sphere
from flaglab.boxdim import circle_cloud
from flaglab.mobius import lorentz, normalize, row_norms, sphere_xyz, uniform_sphere
from flaglab.sphere import VisualMeasure, _cube_keys, as_point, cap_hits, cross_ratio

from conftest import random_sl
from oracles import (
    ahlfors_bound,
    cocycle,
    h3_apply,
    hausdorff_subspace_dist,
    matmul_cube_keys,
    normalize_linalg,
    orth,
    pulled_back_mass,
    quasimobius_constant,
    transport_flag,
    transported,
    uniform_sphere_linalg,
)


# --- cross-ratio ---------------------------------------------------------------


def test_cross_ratio_normalization():
    assert cross_ratio(0, 1, 2 + 3j, math.inf) == pytest.approx(2 + 3j, abs=1e-12)
    assert cross_ratio(0, 1, 2, math.inf) == pytest.approx(2.0, abs=1e-12)


def test_cross_ratio_large_values_relative():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-1, 6)
        z = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        b = cross_ratio(0, 1, z, math.inf)
        assert abs(b - z) <= 1e-12 * max(1.0, abs(z))


def test_cross_ratio_chart_identity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = cross_ratio(*z)
        direct = ((z[2] - z[0]) * (z[3] - z[1])) / ((z[1] - z[0]) * (z[3] - z[2]))
        assert abs(b - direct) <= 1e-9 * max(1.0, abs(direct))


def test_cross_ratio_mobius_invariance():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        pts = [as_point(rng.standard_normal() + 1j * rng.standard_normal()) for _ in range(4)]
        g = random_sl(rng, 2)
        moved = [g @ p for p in pts]
        b0 = cross_ratio(*pts)
        b1 = cross_ratio(*moved)
        assert abs(b0 - b1) < 1e-10 * max(1.0, abs(b0))


def test_cross_ratio_degenerate_pairs():
    with pytest.raises(InputError, match="z1, z2"):
        cross_ratio(1, 1, 2, 3)
    with pytest.raises(InputError, match="z3, z4"):
        cross_ratio(0, 1, math.inf, math.inf)


# --- quasi-Mobius constant ---------------------------------------------------------


def test_quasimobius_identity():
    pts = fl.uniform_cloud(300, seed=3)
    assert quasimobius_constant(pts, pts, seed=1) == pytest.approx(1.0, abs=1e-12)


def test_quasimobius_mobius_restriction():
    rng = np.random.default_rng(4)
    pts = fl.uniform_cloud(300, seed=5)
    g = random_sl(rng, 2)
    img = apply_mobius(g, pts)
    assert quasimobius_constant(pts, img, seed=1) <= 1.0 + 1e-8


def test_quasimobius_conjugation_covariance():
    rng = np.random.default_rng(6)
    pts = fl.uniform_cloud(200, seed=7)
    img = pts.copy()
    img[:50] = apply_mobius(random_sl(rng, 2), img[:50])  # genuinely non-Mobius
    k0 = quasimobius_constant(pts, img, seed=2)
    g, h = random_sl(rng, 2), random_sl(rng, 2)
    k1 = quasimobius_constant(apply_mobius(g, pts), apply_mobius(h, img), seed=2)
    assert abs(k0 - k1) < 1e-6 * max(k0, 1.0)


def test_quasimobius_fiber_transition_stable(sym3, sym3_flags):
    """The transition between two tangent-projection charts has a finite
    distortion constant, stable under doubling the sample (for symmetric
    powers the transition is in fact Mobius, so K is 1)."""
    triv = fl.Trivialization(1, sym3_flags[:3])
    bx, by = sym3_flags[3], sym3_flags[4]
    px, rx = triv.project(bx, sym3_flags[5:])
    py, ry = triv.project(by, sym3_flags[5:])
    # the flags that project at both bases, in one order
    src, img = sphere_xyz(px[np.isin(rx, ry)]), sphere_xyz(py[np.isin(ry, rx)])
    k_half = quasimobius_constant(src[: len(src) // 2], img[: len(src) // 2], seed=2)
    k_full = quasimobius_constant(src, img, seed=2)
    assert np.isfinite(k_full)
    assert abs(k_full - k_half) <= 0.1 * max(k_full, k_half)


def test_quasimobius_input_validation():
    pts = fl.uniform_cloud(3, seed=1)
    with pytest.raises(InputError):
        quasimobius_constant(pts, pts)
    # the chord form of |B| needs unit norms: a rescaled image is no input
    pts = fl.uniform_cloud(40, seed=1)
    scaled = pts * np.linspace(0.5, 2.0, 40)[:, None]
    for src, img in ((pts, scaled), (scaled, pts), (pts, pts[:, :2])):
        with pytest.raises(InputError):
            quasimobius_constant(src, img)


# --- Ahlfors bound --------------------------------------------------------------


def test_ahlfors_round_circle():
    assert ahlfors_bound(fl.circle_cloud(100)) <= 10.0


def test_ahlfors_mobius_invariance():
    rng = np.random.default_rng(8)
    pts = fl.circle_cloud(30)
    b0 = ahlfors_bound(pts)
    b1 = ahlfors_bound(apply_mobius(random_sl(rng, 2), pts))
    assert abs(b0 - b1) < 1e-8


def _segment_with_spike(height: float, n: int = 60) -> np.ndarray:
    xs = np.linspace(0.0, 1.0, n)
    zs = [complex(x, 0.0) for x in xs]
    zs.insert(n // 2, complex(0.5 + 1e-9, height))
    return np.stack([sphere_xyz(as_point(z)) for z in zs])


def test_ahlfors_spike_grows_without_bound():
    # the bound explodes as the spike gets tall relative to the spacing:
    # grows in the height at fixed spacing, and in the sharpness at fixed height
    by_height = [ahlfors_bound(_segment_with_spike(h)) for h in (0.05, 0.2, 0.8)]
    assert by_height[0] < by_height[1] < by_height[2]
    assert by_height[2] > 20.0
    sharper = ahlfors_bound(_segment_with_spike(0.8, n=240))
    assert sharper > 2.0 * by_height[2]


def test_ahlfors_needs_four_points():
    with pytest.raises(InputError):
        ahlfors_bound(fl.circle_cloud(3))
    for bad in (2.0 * fl.circle_cloud(10), fl.circle_cloud(10)[:, :2]):
        with pytest.raises(InputError):
            ahlfors_bound(bad)


# --- visual measures --------------------------------------------------------------


def test_visual_mass_whole_sphere():
    nu = VisualMeasure(0j, 1.0)
    cloud = fl.uniform_cloud(60, seed=9)
    m = fl.visual_mass(nu, cloud, 0.99, mc_count=2000, seed=1)
    assert m.estimate == 1.0
    pole = np.array([[0.0, 0.0, 1.0]])
    assert fl.visual_mass(nu, pole, math.pi, mc_count=2000, seed=1).estimate == 1.0


def test_visual_mass_hemisphere():
    nu = VisualMeasure(0j, 1.0)
    pole = np.array([[0.0, 0.0, 1.0]])
    m = fl.visual_mass(nu, pole, math.pi / 2, mc_count=100_000, seed=42)
    sigma_bound = 0.5 / math.sqrt(m.mc_count)
    assert abs(m.estimate - 0.5) <= 3.0 * sigma_bound
    assert m.sigma <= sigma_bound + 1e-12


def test_visual_mass_monotone_in_eps():
    nu = VisualMeasure(0j, 1.0)
    cloud = fl.uniform_cloud(40, seed=11)
    masses = [
        fl.visual_mass(nu, cloud, eps, mc_count=40_000, seed=3).estimate
        for eps in (0.05, 0.1, 0.2, 0.4)
    ]
    assert all(a <= b + 1e-9 for a, b in zip(masses, masses[1:]))


def test_visual_mass_equivariance():
    """Pushforward law: integrating the indicator against the measure at x
    equals integrating its pullback against the measure at gx."""
    rng = np.random.default_rng(12)
    nu = VisualMeasure(0j, 1.0)
    cloud = fl.uniform_cloud(80, seed=13)
    for t in range(12):
        g = random_sl(rng, 2)
        m1 = fl.visual_mass(nu, cloud, 0.3, mc_count=100_000, seed=100 + t)
        m2 = pulled_back_mass(transported(nu, g), cloud, 0.3, 100_000, 100 + t, np.linalg.inv(g))
        sigma = math.hypot(m1.sigma, m2.sigma)
        assert abs(m1.estimate - m2.estimate) <= 3.0 * sigma


def test_visual_mass_validation():
    nu = VisualMeasure(0j, 1.0)
    cloud = fl.uniform_cloud(10, seed=1)
    # a geodesic radius past pi would wrap around the sphere
    for eps in (-1.0, 0.0, 4.0, 6.0, math.inf, math.nan):
        with pytest.raises(InputError):
            fl.visual_mass(nu, cloud, eps)
    with pytest.raises(InputError):
        fl.visual_mass(nu, cloud, 0.1, mc_count=10)
    with pytest.raises(InputError):
        fl.visual_mass(nu, np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]]), 0.1)
    # cap_hits bins by cube, which puts a point off the sphere in the wrong one
    for bad in ([[0.0, 0.0, 2.0]], [[0.0, 0.0, 1.0 + 1e-12]], [[0.0, 1.0]]):
        with pytest.raises(InputError):
            fl.visual_mass(nu, bad, 0.1)
    # a Mobius matrix or basepoint that is no Mobius map
    for bad in ([[1, 1], [1, 1]], np.zeros((2, 2)), [[1, np.nan], [0, 1]], [[np.inf, 0], [0, 1]]):
        with pytest.raises(InputError):
            apply_mobius(bad, cloud)
    for z, t in ((np.nan, 1.0), (complex(np.inf, 0), 1.0), (0j, np.inf), (0j, np.nan)):
        with pytest.raises(InputError):
            fl.visual_mass(VisualMeasure(z, t), cloud, 0.1, mc_count=1000)


def hom_path_mobius(m, xyz):
    """Oracle for apply_mobius: the homogeneous action, through the better
    conditioned of the two pole charts of each point and back."""
    x, y, z = np.asarray(xyz).T
    w = x + 1j * y
    north = np.stack([1.0 + z + 0j, np.conj(w)], axis=-1)
    south = np.stack([w, 1.0 - z + 0j], axis=-1)
    v = np.where((z >= 0)[:, None], north, south)
    return sphere_xyz(v @ np.asarray(m, dtype=complex).T)


def test_lorentz_action_matches_homogeneous_path():
    rng = np.random.default_rng(15)
    pts = uniform_sphere(rng, 2000)
    assert np.array_equal(lorentz(np.eye(2)), np.eye(4))
    maps = [random_sl(rng, 2) for _ in range(100)]
    bases = [VisualMeasure(z, t) for z in (0j, 10.0, 5 + 5j, -7j, 3 - 9j) for t in (1e-3, 1e3)]
    for ms, tol in ((maps, 1e-12), ([nu.matrix for nu in bases], 1e-9)):
        for m in ms:
            moved = apply_mobius(m, pts)
            assert np.abs(moved - hom_path_mobius(m, pts)).max() <= tol
            # unit to a few ulps, far inside the slack cap_hits allows
            assert np.abs(np.sum(moved**2, axis=1) - 1.0).max() <= 4 * np.finfo(float).eps


def brute_cap_hits(sample_xyz, cloud_xyz, eps):
    """Reference count: every (sample, cloud) pair, in sample chunks."""
    hits = 0
    for start in range(0, len(sample_xyz), 1000):
        block = sample_xyz[start : start + 1000]
        hits += int(np.count_nonzero(np.any(block @ cloud_xyz.T >= math.cos(eps), axis=1)))
    return hits


def uniform_xyz(count, seed):
    return uniform_sphere(np.random.default_rng(seed), count)


def on_cube_faces(step):
    """Unit vectors with two coordinates on multiples of step, in all three
    axis orders, plus the six axis points."""
    ticks = step * np.arange(-int(1.0 / step), int(1.0 / step) + 1)
    x, y = (a.ravel() for a in np.meshgrid(ticks, ticks))
    keep = x * x + y * y <= 1.0
    x, y = x[keep], y[keep]
    z = np.sqrt(1.0 - x * x - y * y)
    pts = np.concatenate([np.stack([x, y, z], 1), np.stack([x, y, -z], 1)])
    return np.concatenate([pts, pts[:, [2, 0, 1]], pts[:, [1, 2, 0]], np.eye(3), -np.eye(3)])


def test_cap_hits_empty_and_one_point():
    samples = uniform_xyz(20_000, seed=21)
    assert cap_hits(samples, np.empty((0, 3)), 0.5) == 0
    pole = np.array([[0.0, 0.0, 1.0]])
    for eps in (math.pi / 2, math.pi - 1e-9, math.pi):
        assert cap_hits(samples, pole, eps) == brute_cap_hits(samples, pole, eps)
    assert cap_hits(samples, pole, math.pi) == len(samples)


@pytest.mark.parametrize("eps", [1e-6, 5e-7])
def test_cap_hits_tiny_eps(eps):
    # the chord of eps is below the smallest cube side, 2^-19; at 5e-7, cubes
    # of the chord's side would overflow the int64 keys
    rng = np.random.default_rng(22)
    cloud = uniform_xyz(200, seed=23)
    near = np.repeat(cloud, 10, axis=0) + rng.uniform(-2 * eps, 2 * eps, size=(2_000, 3))
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    # keep the samples whose dot product with their cloud point is far (in
    # ulps) from cos(eps), so that no rounding of the dot decides the test
    gap = np.sum((near - np.repeat(cloud, 10, axis=0)) ** 2, axis=1) / (2.0 - 2.0 * math.cos(eps))
    samples = near[np.abs(gap - 1.0) > 0.01]
    hits = cap_hits(samples, cloud, eps)
    assert hits == brute_cap_hits(samples, cloud, eps)
    assert 0 < hits < len(samples)


@pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
def test_cap_hits_points_on_cube_faces(eps):
    side = max(
        math.sqrt(2.0 - 2.0 * math.cos(eps) + sphere.CHORD_SLACK) * (1.0 + sphere.CUBE_MARGIN),
        sphere.MIN_CUBE_SIDE,
    )
    cloud = on_cube_faces(side)[::3]
    samples = np.concatenate([on_cube_faces(side / 2.0), uniform_xyz(5_000, seed=24)])
    hits = cap_hits(samples, cloud, eps)
    assert hits == brute_cap_hits(samples, cloud, eps)
    assert 0 < hits < len(samples)


@pytest.mark.parametrize("eps", [0.02, 0.04, 0.08, 0.16])
def test_cap_hits_circle_cloud(eps):
    cloud = circle_cloud(20_000)  # on the cube faces z = 0
    samples = uniform_xyz(10_000, seed=25)
    assert cap_hits(samples, cloud, eps) == brute_cap_hits(samples, cloud, eps)


@pytest.mark.parametrize("eps", [1.0, math.pi])
def test_cap_hits_large_caps_in_chunks(eps):
    # some of the 27-cube neighbourhoods hold more than one chunk of dot products
    cloud = uniform_xyz(5_000, seed=26)
    samples = uniform_xyz(20_000, seed=27)
    assert cap_hits(samples, cloud, eps) == brute_cap_hits(samples, cloud, eps)


def cube_side(eps):
    return max(math.sqrt(2.0 - 2.0 * math.cos(eps) + sphere.CHORD_SLACK) * (1.0 + sphere.CUBE_MARGIN),
               sphere.MIN_CUBE_SIDE)


@pytest.mark.parametrize("eps", [1e-6, 0.003, 0.3, math.pi / 2, math.pi])
def test_column_cube_keys_keep_the_bits_of_the_matmul(eps):
    side = cube_side(eps)
    samples = np.concatenate([uniform_xyz(12_295, seed=28), on_cube_faces(0.125), circle_cloud(1000)])
    for cloud in (samples[:1], np.array([[0.0, 0.0, 1.0]]), uniform_xyz(3000, seed=29), on_cube_faces(0.25)):
        got, want = _cube_keys(samples, cloud, side), matmul_cube_keys(samples, cloud, side)
        assert got[2] == want[2]
        for a, b in zip(got[:2], want[:2]):
            assert a.dtype == np.int64 and np.array_equal(a, b)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# magnitudes from subnormal to past the overflow of a square
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(re=arrays(np.float64, st.tuples(st.integers(1, 9), st.sampled_from((2, 3))), elements=finite),
       im=st.one_of(st.none(), st.floats(-1e300, 1e300, allow_nan=False)))
def test_row_norms_keep_the_bits_of_linalg_norm(re, im):
    with np.errstate(over="ignore", invalid="ignore"):
        v = re if im is None else re + 1j * im * np.roll(re, 1, axis=-1)
        want = np.linalg.norm(v, axis=-1, keepdims=True)
        assert bits(row_norms(v)).tolist() == bits(want).tolist()
        assert bits(row_norms(v[0])).tolist() == bits(want[0]).tolist()


@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("complex_", [False, True])
@np.errstate(over="ignore")
def test_row_norms_keep_the_bits_near_overflow_and_underflow(c, complex_):
    # a magnitude per row from 1e-320 to 1e305, each entry within 1e3 of it
    rng = np.random.default_rng(30)
    scale = 10.0 ** rng.uniform(-320, 305, size=(4, 500, 1))
    v = scale * rng.standard_normal((4, 500, c)) * 10.0 ** rng.uniform(-3, 3, size=(4, 500, c))
    if complex_:
        v = v + 1j * scale * rng.standard_normal(v.shape) * 10.0 ** rng.uniform(-3, 3, size=v.shape)
    want = np.linalg.norm(v, axis=-1, keepdims=True)
    assert np.isinf(want).any() and (want < 1e-300).any()
    assert bits(row_norms(v)).tolist() == bits(want).tolist()
    # strided rows, as in a column slice of a larger array
    rows = v[:, ::3, ::-1]
    assert bits(row_norms(rows)).tolist() == bits(np.linalg.norm(rows, axis=-1, keepdims=True)).tolist()


def test_normalize_and_uniform_sphere_keep_the_bits_of_linalg_norm():
    for count in (1, 4095, 4096, 12_295):
        got = uniform_sphere(np.random.default_rng(31), count)
        assert bits(got).tolist() == bits(uniform_sphere_linalg(np.random.default_rng(31), count)).tolist()
        pairs = got[:, :2] + 1j * got[:, 1:]
        for v in (got * 3.0, pairs, pairs[0]):
            assert bits(normalize(v)).tolist() == bits(normalize_linalg(v)).tolist()


def test_h3_action_consistency():
    # transporting the normalizer matches transporting the point
    rng = np.random.default_rng(14)
    nu = VisualMeasure(0.3 + 0.2j, 1.7)
    g = random_sl(rng, 2)
    moved = transported(nu, g)
    z2, t2 = h3_apply(g, nu.z, nu.t)
    assert moved.z == pytest.approx(z2) and moved.t == pytest.approx(t2)
    # normalizer sends the ball origin to the point
    zz, tt = h3_apply(h3_normalizer(moved.z, moved.t), 0j, 1.0)
    assert zz == pytest.approx(moved.z) and tt == pytest.approx(moved.t)


def test_foliated_mass_invariance(sym3, sym3_flags):
    """Mass of a thickened fiber limit set at x equals the mass of the
    transported fiber set at the cocycle image of x, within Monte-Carlo
    error (paired seeds)."""
    triv = fl.Trivialization(1, sym3_flags[:3])
    base = sym3_flags[6]
    pairs, _ = triv.project(base, sym3_flags[7:])
    cloud = sphere_xyz(pairs)
    gmat, gt = cocycle(sym3, triv, (1, -2), base)
    nu = VisualMeasure(0.1 + 0.1j, 1.3)
    m1 = fl.visual_mass(nu, cloud, 0.25, mc_count=100_000, seed=5)
    m2 = pulled_back_mass(transported(nu, gmat), cloud, 0.25, 100_000, 5, np.linalg.inv(gmat))
    assert abs(m1.estimate - m2.estimate) <= 3.0 * math.hypot(m1.sigma, m2.sigma)
    # and the cocycle image of the fiber set is the fiber set over the
    # transported base, evaluated at the transported directions
    moved = apply_mobius(gmat, cloud)
    flags = sym3_flags[7:17]
    before, rb = triv.project(base, flags)
    after, ra = triv.project(gt, fl.FlagStack.concat(*(transport_flag(sym3, (1, -2), f) for f in flags)))
    checked = 0
    for b, a in zip(before[np.isin(rb, ra)], after[np.isin(ra, rb)]):
        assert hausdorff_subspace_dist(orth(a[:, None]), orth((gmat @ b)[:, None])) < 1e-6
        checked += 1
    assert checked >= 5
    assert len(moved) == len(cloud)

