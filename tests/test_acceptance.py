"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import copy
import math
import time

import numpy as np
import pytest

import flaglab as fl
import flaglab.words as W
from flaglab.cli import main as cli_main
from flaglab.certify import FlagStack
from flaglab.fibers import TripleSpec, point_dists, tangent_project
from flaglab.prodsvd import ProductSVD
from flaglab.sphere import VisualMeasure, cross_ratio, visual_mass
from flaglab.subspaces import frame_cosines

from conftest import log_sigma, proj_matrix_dist, random_sl
from oracles import (
    cocycle,
    concat,
    fiber_wedge_line,
    hausdorff_subspace_dist,
    pulled_back_mass,
    transport_flag,
    transported,
    wedge_fiber_point,
    wedge_hyperplane,
    wedge_pencil,
    wedge_rep,
)


def run_cli(argv):
    return cli_main([str(a) for a in argv])


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# --- 1. certification separation -------------------------------------------------


def test_criterion_1_certification_separation(tmp_path):
    t0 = time.time()
    code = run_cli(["certify", "builtin:schottky", "--k", 1, "--radius", 6, "--out", tmp_path])
    t_schottky = time.time() - t0
    assert code == 0
    rows = (tmp_path / "certify.csv").read_text().splitlines()[2:]
    c1 = float(rows[0].split(",")[3])
    assert c1 >= 0.5

    t0 = time.time()
    assert run_cli(["certify", "builtin:trivial", "--k", 1, "--radius", 6, "--out", tmp_path]) == 2
    t_trivial = time.time() - t0
    t0 = time.time()
    assert run_cli(["certify", "builtin:unipotent", "--k", 1, "--radius", 6, "--out", tmp_path]) == 2
    t_unipotent = time.time() - t0
    assert max(t_schottky, t_trivial, t_unipotent) < 60.0
    report("1", f"schottky exit 0 with c1={c1:.3f} >= 0.5; trivial and unipotent exit 2 "
                f"(times {t_schottky:.1f}/{t_trivial:.1f}/{t_unipotent:.1f}s)")


# --- 2. duality invariant ----------------------------------------------------------


@pytest.mark.parametrize(
    "name,radius",
    [
        ("schottky", 6),
        ("trivial", 6),
        ("unipotent", 6),
        ("octagon", 6),
        ("sym3", 5),
        ("sym4", 5),
        ("octagon-sym3", 4),
        ("directsum", 4),
    ],
)
def test_criterion_2_duality(name, radius):
    rep = fl.preset(name)
    d = rep.dim
    sweep = fl.gap_sweep(rep, min(radius, 7))
    certs = {c.k: c for c in fl.certificates(rep, range(1, d), sweep.radius)}
    worst = 0.0
    for k in range(1, d):
        diff = float(np.max(np.abs(sweep.minima[:, k - 1] - sweep.minima[:, d - k - 1])))
        worst = max(worst, diff)
        assert diff <= 1e-9
        assert certs[k].verdict == certs[d - k].verdict
    report("2", f"{name}: minima vectors for k and d-k agree to {worst:.2e} (<= 1e-9), verdicts equal")


# --- 3. wedge transfer ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["sym3", "sym4"])
def test_criterion_3_wedge_gap_identities(name):
    rep = fl.preset(name)
    d = rep.dim
    worst = 0.0
    for k in range(2, d):  # k = 1 is the representation itself
        wrep = wedge_rep(rep, k)
        worst = max(worst, _ball_identity_error(rep, wrep, k, radius=5))
    assert worst <= 1e-9
    report("3", f"{name}: wedge singular-value products and gap-min formula hold to {worst:.2e} "
                "over the radius-5 ball")


def _ball_identity_error(rep, wrep, k, radius):
    letters = rep.presentation.letters()
    worst = 0.0

    def descend(sa, sb, word, depth):
        nonlocal worst
        for letter in letters:
            if word and letter == -word[-1]:
                continue
            a = copy.deepcopy(sa).absorb(rep.matrix(letter))
            b = copy.deepcopy(sb).absorb(wrep.matrix(letter))
            ls, lw = log_sigma(a), log_sigma(b)
            worst = max(worst, abs(lw[0] - ls[:k].sum()))
            if k >= 2:
                worst = max(worst, abs(lw[1] - (ls[: k - 1].sum() + ls[k])))
            g, gw = a.gaps(), b.gaps()
            worst = max(worst, abs(gw[0] - g[k - 1]))
            neighbors = [g[j - 1] for j in (k - 1, k + 1) if 1 <= j <= rep.dim - 1]
            if len(gw) > 1 and neighbors:
                worst = max(worst, abs(gw[1] - min(neighbors)))
            if depth + 1 < radius:
                descend(a, b, word + (letter,), depth + 1)

    descend(ProductSVD(rep.dim), ProductSVD(wrep.dim), (), 0)
    return worst


@pytest.mark.parametrize("name,k", [("sym3", 2), ("sym4", 2)])
def test_criterion_3_wedge_hyperconvexity_transfer(name, k):
    rep = fl.preset(name)
    spec = TripleSpec(count=10_000, seed=505)
    base = fl.check_transversality(rep, k, spec, radius=None)
    lifted = fl.check_transversality(wedge_rep(rep, k), 1, spec, radius=None)
    assert base.verdict == "passes"
    assert lifted.verdict == "passes"
    report("3", f"{name} k={k}: hyperconvexity passes (min={base.min_transversality:.4f}) and "
                f"transfers to the wedge at k=1 (min={lifted.min_transversality:.4f}), 10^4 triples")


# --- 4. bundle diagram ------------------------------------------------------------------


def test_criterion_4_bundle_diagram(sym4):
    flags, _ = fl.limit_set_sample(sym4, [1, 2, 3], count=70, length=7, seed=11)
    worst = 0.0
    checked = 0
    for i in range(len(flags)):
        for j in range(len(flags)):
            if i == j or checked >= 1000:
                continue
            z, y = flags[i], flags[j]
            if not _resolvable_pair(z, y):
                continue
            [pair], _ = tangent_project(z, y, 2)
            line = fiber_wedge_line(z, 2, pair)
            worst = max(worst, hausdorff_subspace_dist(line, wedge_fiber_point(z, y, 2)))
            checked += 1
    assert checked >= 1000
    assert worst <= 1e-8
    report("4", f"wedge bundle diagram commutes to {worst:.2e} (<= 1e-8) on {checked} (z, y) pairs")


def _resolvable_pair(z, y, floor=1e-6):
    cos_a = frame_cosines(y.space(2)[0], z.space(3)[0])
    if len(cos_a) > 1 and 1.0 - cos_a[1] < floor:
        return False
    cos_b = frame_cosines(wedge_pencil(z, 2), wedge_hyperplane(y, 2))
    return not (len(cos_b) > 1 and 1.0 - cos_b[1] < floor)


# --- 5. cocycle identity ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["schottky", "sym3"])
def test_criterion_5_cocycle_identity(name):
    rep = fl.preset(name)
    ks = [1, 2] if rep.dim == 3 else [1]
    basepoints, _ = fl.boundary_samples(rep, [(1,), (2,), (-1,)], ks)
    triv = fl.Trivialization(1, basepoints)
    pool, _ = fl.limit_set_sample(rep, ks, count=30, length=8, seed=3)
    # which pool flags lie at least 0.1 from every basepoint: a point_dists
    # row does not depend on its stack, so one call serves every draw
    n = len(pool)
    t_far = (point_dists(FlagStack.concat(pool, basepoints), np.repeat(np.arange(n), 3),
                         np.tile(np.arange(n, n + 3), n)) >= 0.1).reshape(n, 3).all(axis=1)
    p = rep.presentation
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    while checked < 1000:
        i = int(rng.integers(n))
        t = pool[i]
        alpha = W.random_word(p, int(rng.integers(1, 4)), rng)
        beta = W.random_word(p, int(rng.integers(1, 4)), rng)
        if not t_far[i]:
            continue  # t near a basepoint: rejected before transporting
        try:
            bt = transport_flag(rep, beta, t)
            abt = transport_flag(rep, concat(p, alpha, beta), t)
        except fl.PrecisionError:
            continue  # contractual: too ill-conditioned a transport to certify
        # the six distances from bt, abt (rows 0-1) to the basepoints
        near = point_dists(FlagStack.concat(bt, abt, basepoints), np.repeat(np.arange(2), 3),
                           np.tile(np.arange(2, 5), 2))
        if (near < 0.1).any():
            continue
        lhs, _ = cocycle(rep, triv, concat(p, alpha, beta), t)
        if np.linalg.norm(lhs, 2) ** 2 > 1e5:
            continue  # matrix entries not representable to the tolerance
        rb, bt2 = cocycle(rep, triv, beta, t)
        ra, _ = cocycle(rep, triv, alpha, bt2)
        worst = max(worst, proj_matrix_dist(lhs, ra @ rb))
        checked += 1
    assert worst <= 1e-8
    report("5", f"{name}: cocycle identity holds to {worst:.2e} (<= 1e-8) on 1000 (alpha, beta, t)")


# --- 6. cross-ratio ground truth ------------------------------------------------------------


def test_criterion_6_cross_ratio():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-2, 6)
        z = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        b = cross_ratio(0, 1, z, math.inf)
        worst = max(worst, abs(b - z) / max(1.0, abs(z)))
    assert worst <= 1e-12
    report("6", f"B(0,1,z,inf) = z to relative {worst:.2e} (<= 1e-12) on 1000 z with |z| up to 1e6")


# --- 7. visual-measure equivariance -----------------------------------------------------------


def test_criterion_7_visual_equivariance():
    nu0 = VisualMeasure(0j, 1.0)  # the ball-model origin
    pole = np.array([[0.0, 0.0, 1.0]])
    hemi = visual_mass(nu0, pole, math.pi / 2, mc_count=100_000, seed=42)
    assert abs(hemi.estimate - 0.5) <= 3.0 * 0.5 / math.sqrt(hemi.mc_count)

    rng = np.random.default_rng(7)
    cloud = fl.uniform_cloud(80, seed=9)
    worst_dev = 0.0
    for t in range(50):
        g = random_sl(rng, 2)
        m1 = visual_mass(nu0, cloud, 0.3, mc_count=100_000, seed=100 + t)
        m2 = pulled_back_mass(transported(nu0, g), cloud, 0.3, 100_000, 100 + t, np.linalg.inv(g))
        dev = abs(m1.estimate - m2.estimate) / math.hypot(m1.sigma, m2.sigma)
        worst_dev = max(worst_dev, dev)
        assert dev <= 3.0
    report("7", f"hemisphere mass {hemi.estimate:.4f} (0.5 +- 3 sigma); equivariance within "
                f"3 sigma on 50 transports at mc=1e5 (worst {worst_dev:.2f} sigma)")


# --- 8. dimension spot checks ------------------------------------------------------------------


def _summary_slope(path):
    last = path.read_text().splitlines()[-1].split(",")
    return float(last[1]), last[2]


def test_criterion_8a_fuchsian_fiber(tmp_path):
    t0 = time.time()
    code = run_cli([
        "dimension", "builtin:octagon-sym3", "--k", 1, "--mode", "fiber",
        "--points", 10_000, "--word-length", 12, "--seed", 7, "--out", tmp_path,
    ])
    wall = time.time() - t0
    slope, _ = _summary_slope(tmp_path / "dimension.csv")
    assert code == 0
    assert abs(slope - 1.0) <= 0.1
    assert wall < 120.0
    report("8a", f"Fuchsian sym-power fiber limit set: slope {slope:.3f} (1.0 +- 0.1), exit 0, {wall:.0f}s")


def test_criterion_8b_cantor(tmp_path):
    t0 = time.time()
    est = fl.box_dimension_sphere(fl.cantor_cloud(14), scales=[3.0**-j for j in range(1, 8)])
    wall = time.time() - t0
    expected = math.log(2) / math.log(3)
    assert abs(est.slope - expected) <= 0.05
    assert wall < 120.0
    report("8b", f"Cantor middle-thirds: slope {est.slope:.4f} vs log2/log3 = {expected:.4f} "
                 f"(+- 0.05), {wall:.0f}s")


def test_criterion_8c_uniform_sphere(tmp_path):
    t0 = time.time()
    code = run_cli([
        "dimension", "--synthetic", "uniform", "--points", 10_000,
        "--scales", "0.554,0.37,0.277,0.185,0.139", "--seed", 2, "--out", tmp_path,
    ])
    wall = time.time() - t0
    slope, _ = _summary_slope(tmp_path / "dimension.csv")
    assert code == 3
    assert abs(slope - 2.0) <= 0.1
    assert wall < 120.0
    report("8c", f"uniform sphere: slope {slope:.3f} (2.0 +- 0.1), exit 3, {wall:.0f}s")


# --- 9. Lebesgue-null trend ---------------------------------------------------------------------


def test_criterion_9_area_decay(sym3):
    from flaglab.cli import _fiber_cloud

    pts, _ = _fiber_cloud(sym3, 1, 1500, 10, 7)
    epses = [0.2, 0.1, 0.05, 0.025]
    nu = VisualMeasure(0j, 1.0)
    areas = [4.0 * math.pi * visual_mass(nu, pts, e, mc_count=200_000, seed=3).estimate
             for e in epses]
    total_decay = areas[0] / areas[-1]
    slope = float(np.polyfit(np.log(epses), np.log(areas), 1)[0])
    assert total_decay >= 3.0
    assert slope >= 0.8
    report("9", f"thickened fiber limit set: area decays x{total_decay:.1f} over three octaves, "
                f"log-log slope {slope:.2f} (>= 0.8)")


# --- 10. manifest reproducibility ----------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    runs = [
        (["certify", "builtin:schottky", "--k", 1, "--radius", 5], "certify.csv"),
        (["hyperconvex", "builtin:sym3", "--k", 1, "--triples", 150, "--radius", 5, "--seed", 4], "hyperconvex.csv"),
        (["foliate", "builtin:sym3", "--k", 1, "--bases", 1, "--fibers", 40, "--seed", 6], "foliate.csv"),
        (["dimension", "--synthetic", "cantor", "--points", 4096, "--seed", 5], "dimension.csv"),
        (["visualmass", "--synthetic", "hemisphere", "--mc", 20_000, "--seed", 8], "visualmass.csv"),
    ]
    for argv, csv_name in runs:
        first = tmp_path / f"first_{csv_name}"
        second = tmp_path / f"second_{csv_name}"
        run_cli(argv + ["--out", first])
        manifest = first / f"{csv_name.split('.')[0]}.manifest.json"
        assert manifest.exists()
        run_cli(["replay", str(manifest), "--out", second])
        assert (first / csv_name).read_bytes() == (second / csv_name).read_bytes()
    report("10", f"replayed {len(runs)} manifests; all CSVs byte-identical")
