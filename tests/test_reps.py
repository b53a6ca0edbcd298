import copy
import math
import tracemalloc

import numpy as np
import pytest

import flaglab as fl
import flaglab.words as W
from flaglab.errors import CapacityError, InputError, PrecisionError
from flaglab.mobius import INF
from flaglab.prodsvd import ProductSVD
from flaglab.reps import OCTAGON_RELATOR

from conftest import matrix_gaps, proj_matrix_dist, random_sl, random_unitary, word_gaps
from oracles import concat, contragredient, invert, perturb, wedge_matrix, wedge_rep


# --- evaluation -------------------------------------------------------------


def test_evaluate_identity_and_inverse(schottky):
    assert np.allclose(schottky.evaluate(()), np.eye(2) * math.sqrt(2) / math.sqrt(2))
    w = (1, 2, -1, 2, 2)
    prod = schottky.evaluate(w) @ schottky.evaluate(invert(w))
    assert proj_matrix_dist(prod, np.eye(2)) < 1e-8


def test_evaluate_homomorphism(schottky):
    rng = np.random.default_rng(0)
    p = schottky.presentation
    for _ in range(1000):
        w1 = W.random_word(p, int(rng.integers(0, 6)), rng)
        w2 = W.random_word(p, int(rng.integers(0, 6)), rng)
        lhs = schottky.evaluate(concat(p, w1, w2))
        rhs = schottky.evaluate(w1) @ schottky.evaluate(w2)
        assert proj_matrix_dist(lhs, rhs) < 1e-8


def test_evaluate_long_word_memory_and_halves(sym3):
    p = sym3.presentation
    w1 = W.random_word(p, 3000, np.random.default_rng(1))
    w2 = next(
        w
        for w in (W.random_word(p, 3000, np.random.default_rng(s)) for s in range(2, 20))
        if w[0] != -w1[-1]
    )
    word = concat(p, w1, w2)
    assert len(word) == 6000
    tracemalloc.start()
    try:
        m = sym3.evaluate(word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a product keeps O(1) matrices alive, not one per prefix
    assert peak < 5 * 2**20
    assert proj_matrix_dist(m, sym3.evaluate(w1) @ sym3.evaluate(w2)) < 1e-8


def test_evaluate_over_underflow_is_precision_error():
    # finite entries whose Frobenius norm overflows: the rescale would zero
    # the product and the next step would divide by zero
    g = np.diag([1e308, 1e-308])
    with pytest.raises(PrecisionError, match="over/underflow"):
        fl.Representation(W.free_group(1), [g]).evaluate((1, 1))
    pres = W.GroupPresentation(generator_count=1, kind="custom", relations=((1, 1),))
    with pytest.raises(PrecisionError, match="over/underflow"):
        fl.Representation(pres, [g])
    with pytest.raises(InputError, match="relator"):
        fl.Representation(pres, [np.diag([3.0, 1 / 3.0])])


def test_evaluate_finite_products_unchanged(sym4):
    # the over/underflow check leaves the rescaled product bit for bit
    word = W.random_word(sym4.presentation, 200, np.random.default_rng(7))
    m = np.eye(4, dtype=complex)
    for letter in word:
        m = m @ sym4.matrix(letter)
        m = m * (2.0 / np.linalg.norm(m))
    assert np.array_equal(sym4.evaluate(word), m)


def test_generator_inverse_invariant(sym4):
    for g, gi in zip(sym4.generators, sym4.inverses):
        assert np.max(np.abs(gi @ g - np.eye(4))) < 1e-10


def test_det_normalized_generators(sym4):
    for g in sym4.generators:
        assert abs(abs(np.linalg.det(g)) - 1.0) < 1e-10


# --- schottky2 ----------------------------------------------------------------


def test_schottky_default_passes_disjointness(schottky):
    assert "disjoint" in schottky.label
    for g in schottky.generators:
        tr2 = np.trace(g) ** 2
        assert not (abs(tr2.imag) < 1e-12 and 0.0 <= tr2.real <= 4.0)


def test_schottky_weak_multiplier_rejected():
    with pytest.raises(InputError, match="overlap|separates"):
        fl.schottky2((1.01, 1.01), (0.0, INF, 1.0, -1.0))


def test_schottky_input_validation():
    with pytest.raises(InputError):
        fl.schottky2((0.5, 4.0), (0.0, INF, 1.0, -1.0))
    with pytest.raises(InputError, match="coincide"):
        fl.schottky2((4.0, 4.0), (0.0, INF, 1.0, 1.0))
    with pytest.raises(InputError):
        fl.schottky2((4.0, 4.0), (INF, 0.0, 1.0, INF))


def test_schottky_all_finite_centers():
    rep = fl.schottky2((4.0, 4.0), (-2.0, 2.0, 2.0j, -2.0j))
    assert "disjoint" in rep.label
    cert = fl.certificates(rep, [1], 5)[0]
    assert cert.verdict == "certified"


def test_schottky_pairing_fixed_points(schottky):
    # first generator pairs circles around 0 and infinity: it is diagonal
    g1 = schottky.generators[0]
    assert abs(g1[1, 0]) < 1e-12 and abs(g1[0, 1]) < 1e-12


# --- sym_power ------------------------------------------------------------------


def test_sym_power_identity():
    rep = fl.Representation(fl.free_group(2), [np.eye(2)] * 2, label="id")
    s = fl.sym_power(rep, 4)
    for g in s.generators:
        assert np.allclose(g, np.eye(4), atol=1e-12)


def test_sym_power_diagonal_weights():
    a = 3.0 + 0.5j
    rep = fl.Representation(fl.free_group(1), [np.diag([a, 1.0 / a])])
    s = fl.sym_power(rep, 3)
    assert np.allclose(np.diag(s.generators[0]), [a**2, 1.0, a**-2], atol=1e-10)


def test_sym_power_multiplicative():
    rng = np.random.default_rng(1)
    from flaglab.reps import _sym_matrix

    for _ in range(1000):
        m1 = random_sl(rng, 2)
        m2 = random_sl(rng, 2)
        lhs = _sym_matrix(m1 @ m2, 3)
        rhs = _sym_matrix(m1, 3) @ _sym_matrix(m2, 3)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.linalg.norm(lhs)


def test_sym_power_preserves_unitarity():
    rng = np.random.default_rng(2)
    from flaglab.reps import _sym_matrix

    u = random_unitary(rng, 2)
    s = _sym_matrix(u, 4)
    assert np.allclose(s.conj().T @ s, np.eye(5), atol=1e-12)


# --- direct sum, contragredient, perturb ------------------------------------------


def test_direct_sum_blocks(schottky):
    ds = fl.direct_sum(schottky, schottky)
    assert ds.dim == 4
    w = (1, 2, -1)
    m = ds.evaluate(w)
    m2 = schottky.evaluate(w)
    assert proj_matrix_dist(m[:2, :2], m2) < 1e-10
    assert proj_matrix_dist(m[2:, 2:], m2) < 1e-10
    assert np.max(np.abs(m[:2, 2:])) < 1e-12


def test_direct_sum_outer_gaps_vanish(schottky, directsum):
    # duplicated singular values kill the first and third gaps identically
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = W.random_word(schottky.presentation, int(rng.integers(1, 7)), rng)
        gaps = word_gaps(directsum, w)
        assert gaps[0] < 1e-9 and gaps[2] < 1e-9


def test_direct_sum_identity():
    rep = fl.Representation(fl.free_group(2), [np.eye(2)] * 2)
    ds = fl.direct_sum(rep, rep)
    for g in ds.generators:
        assert np.allclose(g, np.eye(4))


def test_direct_sum_mismatch_error(schottky, octagon):
    with pytest.raises(InputError):
        fl.direct_sum(schottky, octagon)


def test_contragredient(sym3):
    c = contragredient(sym3)
    cc = contragredient(c)
    for g1, g2 in zip(sym3.generators, cc.generators):
        assert np.max(np.abs(g1 - g2)) < 1e-10
    rng = np.random.default_rng(4)
    u = random_unitary(rng, 2)
    urep = fl.Representation(fl.free_group(1), [u])
    # projective comparison: lifts are normalized by a determinant root
    assert proj_matrix_dist(contragredient(urep).generators[0], np.conj(u)) < 1e-10
    for _ in range(30):
        w = W.random_word(sym3.presentation, int(rng.integers(1, 6)), rng)
        assert np.allclose(word_gaps(sym3, w), word_gaps(c, w)[::-1], atol=1e-9, rtol=0)


def test_perturb_determinism(sym3):
    p0 = perturb(sym3, 0.0, 5)
    for g1, g2 in zip(p0.generators, sym3.generators):
        assert np.array_equal(g1, g2)
    pa = perturb(sym3, 1e-3, 5)
    pb = perturb(sym3, 1e-3, 5)
    for g1, g2 in zip(pa.generators, pb.generators):
        assert np.array_equal(g1, g2)
    pc = perturb(sym3, 1e-3, 6)
    assert any(
        np.max(np.abs(g1 - g2)) > 1e-6 for g1, g2 in zip(pa.generators, pc.generators)
    )


def test_perturb_keeps_certificate(sym4):
    base = fl.certificates(sym4, [2], 4)[0]
    moved = fl.certificates(perturb(sym4, 1e-3, 7), [2], 4)[0]
    assert base.verdict == moved.verdict == "certified"


# --- exterior powers ----------------------------------------------------------------


def test_wedge_rejects_bad_k(sym3):
    with pytest.raises(InputError):
        wedge_rep(sym3, 3)
    with pytest.raises(InputError):
        wedge_rep(sym3, 0)


def test_wedge_capacity():
    rep = fl.Representation(fl.free_group(1), [np.eye(20)])
    with pytest.raises(CapacityError):
        wedge_rep(rep, 10)


def test_wedge_diag_singular_values():
    m = np.diag([4.0, 2.0, 1.0])
    w = wedge_matrix(m, 2)
    s = np.linalg.svd(w, compute_uv=False)
    assert np.allclose(sorted(s)[::-1], [8.0, 4.0, 2.0], atol=1e-12)


def test_wedge_functorial():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = random_sl(rng, 4)
        b = random_sl(rng, 4)
        lhs = wedge_matrix(a @ b, 2)
        rhs = wedge_matrix(a, 2) @ wedge_matrix(b, 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.linalg.norm(lhs)


def test_wedge_gap_identity_random_matrices():
    rng = np.random.default_rng(6)
    ms = [random_sl(rng, 4) for _ in range(1000)]
    g = matrix_gaps(np.stack(ms))
    gw = matrix_gaps(np.stack([wedge_matrix(m, 2) for m in ms]))
    assert np.max(np.abs(gw[:, 0] - g[:, 1])) < 1e-9


def test_wedge_gap_transfer_over_ball(sym4):
    """First wedge gap equals the k-th gap; second equals the min of the
    neighbors, over the radius-3 ball (graded product path)."""
    wrep = wedge_rep(sym4, 2)
    letters = sym4.presentation.letters()

    def descend(sa, sb, word, depth):
        for letter in letters:
            if word and letter == -word[-1]:
                continue
            a = copy.deepcopy(sa).absorb(sym4.matrix(letter))
            b = copy.deepcopy(sb).absorb(wrep.matrix(letter))
            g, gw = a.gaps(), b.gaps()
            assert abs(gw[0] - g[1]) < 1e-9
            assert abs(gw[1] - min(g[0], g[2])) < 1e-9
            if depth + 1 < 3:
                descend(a, b, word + (letter,), depth + 1)

    descend(ProductSVD(4), ProductSVD(6), (), 0)


# --- presets -------------------------------------------------------------------------


def test_preset_registry():
    names = fl.preset_names()
    assert {"schottky", "trivial", "unipotent", "octagon", "sym3", "sym4", "directsum"} <= set(names)
    with pytest.raises(InputError):
        fl.preset("nope")


def test_octagon_relator(octagon):
    m = np.eye(2, dtype=complex)
    for letter in OCTAGON_RELATOR:
        m = m @ octagon.matrix(letter)
    m = m / np.sqrt(np.linalg.det(m) + 0j)
    assert min(np.max(np.abs(m - np.eye(2))), np.max(np.abs(m + np.eye(2)))) < 1e-8


def test_octagon_preserves_disk(octagon):
    # SU(1, 1) shape: diagonal entries conjugate, off-diagonal conjugate
    for g in octagon.generators:
        assert abs(g[0, 0] - np.conj(g[1, 1])) < 1e-12
        assert abs(g[0, 1] - np.conj(g[1, 0])) < 1e-12
