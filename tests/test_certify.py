import math

import numpy as np
import pytest

import flaglab as fl
import flaglab.words as W
from flaglab.certify import _doubling_ratio, boundary_samples, transport_flag
from flaglab.errors import CapacityError, InputError, NotAnosovError, PrecisionError
from flaglab.fibers import plucker
from flaglab.prodsvd import ProductSVD
from flaglab.reps import Representation
from flaglab.subspaces import Subspace, fubini_study, hausdorff_subspace_dist


# --- certificates -----------------------------------------------------------


def test_schottky_certified(schottky):
    cert = fl.certify_anosov(schottky, 1, 6)
    assert cert.verdict == "certified"
    assert cert.c1 >= 0.5
    assert cert.r_squared >= 0.95
    assert cert.supports()


def test_trivial_refuted():
    cert = fl.certify_anosov(fl.preset("trivial"), 1, 6)
    assert cert.verdict == "refuted"


def _jordan_gap(n: int) -> float:
    # closed-form top singular value of [[1, n], [0, 1]]
    s1 = (n + math.sqrt(n * n + 4)) / 2.0
    return math.log(s1)


def test_unipotent_refuted_with_jordan_oracle():
    rep = fl.preset("unipotent")
    sweep = fl.gap_sweep(rep, 6)
    for n in range(1, 7):
        assert sweep.minima[n - 1, 0] == pytest.approx(_jordan_gap(n), abs=1e-9)
    cert = fl.certify_anosov(rep, 1, 6, sweep=sweep)
    assert cert.verdict == "refuted"
    assert any("sublinear" in note for note in cert.notes)


def test_directsum_verdicts(directsum):
    assert fl.certify_anosov(directsum, 1, 4).verdict == "refuted"
    assert fl.certify_anosov(directsum, 3, 4).verdict == "refuted"
    assert fl.certify_anosov(directsum, 2, 4).verdict == "certified"


def test_octagon_not_refuted(octagon):
    cert = fl.certify_anosov(octagon, 1, 6)
    assert cert.verdict in ("certified", "inconclusive")


def test_radius_capped_by_relator(octagon):
    cert = fl.certify_anosov(octagon, 1, 9)
    assert cert.radius == 7
    assert any("capped" in n for n in cert.notes)


def test_certify_input_validation(schottky):
    with pytest.raises(InputError):
        fl.certify_anosov(schottky, 2, 6)
    with pytest.raises(InputError):
        fl.certify_anosov(schottky, 1, 2)


@pytest.mark.parametrize("name,radius", [("sym3", 5), ("sym4", 5), ("directsum", 4), ("schottky", 6)])
def test_duality_minima_and_verdicts(name, radius):
    rep = fl.preset(name)
    sweep = fl.gap_sweep(rep, radius)
    d = rep.dim
    for k in range(1, d):
        assert np.max(np.abs(sweep.minima[:, k - 1] - sweep.minima[:, d - k - 1])) < 1e-9
        ck = fl.certify_anosov(rep, k, radius, sweep=sweep)
        cdk = fl.certify_anosov(rep, d - k, radius, sweep=sweep)
        assert ck.verdict == cdk.verdict


def _mp_gaps(rep, word, digits=40):
    """Gap vector of rho(word) from a high-precision product and SVD."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        m = mpmath.eye(rep.dim)
        for letter in word:
            g = rep.matrix(letter)
            m = m * mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in g])
        s = sorted((mpmath.mpf(x) for x in mpmath.svd_c(m, compute_uv=False)), reverse=True)
        return [float((mpmath.log(a) - mpmath.log(b)) / 2) for a, b in zip(s, s[1:])]


@pytest.mark.parametrize("name,radius", [("sym4", 5), ("schottky", 6)])
def test_sweep_witnesses_and_brute_force_minima(name, radius):
    # the oracle is a 40-digit SVD: LAPACK's singular_gaps is itself off by
    # up to 7e-4 on these sym4 words (length 5, k=3)
    rep = fl.preset(name)
    sweep = fl.gap_sweep(rep, radius)
    d = rep.dim
    ball = list(W.enumerate_ball(rep.presentation, radius))
    for n in range(1, radius + 1):
        # every word of length n on its own, letter by letter: no shared prefixes
        words = [w for w in ball if len(w) == n]
        state = ProductSVD(d, (len(words),))
        for pos in range(n):
            state.absorb(np.stack([rep.matrix(w[pos]) for w in words]))
        assert np.max(np.abs(sweep.minima[n - 1] - state.gaps().min(axis=0))) < 1e-9
    for n in range(1, radius + 1):
        for k in range(1, d):
            w = sweep.argmin_words[n - 1][k - 1]
            assert len(w) == n and W.is_reduced(w)
            assert abs(_mp_gaps(rep, w)[k - 1] - sweep.minima[n - 1, k - 1]) < 1e-9


def test_sweep_budget_fails_fast(sym4):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="budget"):
            fl.gap_sweep(sym4, 14)  # 6.4M words of length 14, about 3.5 GB of state
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _spread_rep():
    # the outer singular values run apart by 13.8 nats per power while the
    # middle gap grows by 0.01 nats: the spread passes 745 nats long before
    # the middle gap reaches 40
    m = np.diag([1000.0, 1.01, 1 / 1.01, 1 / 1000.0]).astype(complex)
    return Representation(W.free_group(1), [m], label="spread")


def test_doubling_ratio_never_returns_nan():
    with pytest.raises(PrecisionError, match="745"):
        _doubling_ratio(_spread_rep(), (1,), 2)


# --- attractors ---------------------------------------------------------------


def test_boundary_sample_eigenline_oracle(schottky):
    flag = fl.boundary_sample(schottky, (1,), [1])
    vals, vecs = np.linalg.eig(schottky.evaluate((1,)))
    top = Subspace.line(vecs[:, int(np.argmax(np.abs(vals)))])
    assert fubini_study(flag.space(1), top) < 1e-8


def test_boundary_sample_sym_weight_oracle(sym3):
    # for a diagonalizable word, the flag is spanned by the top weight vectors
    w = (1, 2, 1)
    flag = fl.boundary_sample(sym3, w, [1, 2])
    vals, vecs = np.linalg.eig(sym3.evaluate(w))
    order = np.argsort(np.abs(vals))[::-1]
    assert fubini_study(flag.space(1), Subspace.line(vecs[:, order[0]])) < 1e-8
    top2 = Subspace.from_vectors(vecs[:, order[:2]])
    assert hausdorff_subspace_dist(flag.space(2), top2) < 1e-8


def test_boundary_sample_equivariance(sym4):
    w = (1, 2, -1, 2, 1)
    gamma = (2, 1, -2)
    flag = fl.boundary_sample(sym4, w, [1, 2, 3])
    lhs = transport_flag(sym4, gamma, flag)
    conj = W.concat(sym4.presentation, gamma, w, W.invert(gamma))
    rhs = fl.boundary_sample(sym4, conj, [1, 2, 3])
    assert fl.flag_dist(lhs, rhs) < 1e-6


def test_transport_flag_matches_moved_frames(sym4):
    # rho(gamma) has condition number about 7.9e8
    gamma = (2, 1, -2)
    flag = fl.boundary_sample(sym4, (1, 2, -1, 2, 1), [1, 2, 3])
    m = sym4.evaluate(gamma)
    moved = transport_flag(sym4, gamma, flag)
    for k in flag.ks:
        direct = Subspace.from_vectors(m @ flag.space(k).frame)
        assert hausdorff_subspace_dist(moved.space(k), direct) < 1e-10
    assert moved.quality == flag.quality


def test_transport_flag_round_trip(sym4):
    gamma = (1, 2)
    flag = fl.boundary_sample(sym4, (1, 2, -1, 2, 1), [1, 2, 3])
    back = transport_flag(sym4, W.invert(gamma), transport_flag(sym4, gamma, flag))
    assert fl.flag_dist(back, flag) < 1e-10


def test_transport_flag_collapse_is_precision_error():
    rep = Representation(W.free_group(1), [np.diag([1e9, 1.0, 1e-9])])
    flag = fl.FlagSample((1,), np.eye(3)[:, [1, 2, 0]], [1, 2])
    with pytest.raises(PrecisionError, match="collapsed"):
        transport_flag(rep, (1,), flag)


def test_flag_space_outside_ks_is_input_error(sym4):
    flag = fl.boundary_sample(sym4, (1, 2, -1, 2, 1), [1, 3])
    assert flag.space(0).dim == 0 and flag.space(4).dim == 4
    with pytest.raises(InputError, match="carries"):
        flag.space(2)


def test_boundary_sample_stability_under_more_power(sym4):
    w = (1, 2, 2, -1, 2)
    f1 = fl.boundary_sample(sym4, w, [1, 2, 3], target_gap=14.0)
    f2 = fl.boundary_sample(sym4, w, [1, 2, 3], target_gap=28.0)
    assert fl.flag_dist(f1, f2) < 1e-6


def test_boundary_sample_nesting_postcondition(sym4_flags):
    for flag in sym4_flags[:10]:
        for k1, k2 in zip(flag.ks, flag.ks[1:]):
            assert flag.space(k2).contains(flag.space(k1), tol=1e-6)


def test_boundary_sample_rejects_trivial_word(schottky):
    with pytest.raises(InputError):
        fl.boundary_sample(schottky, (1, -1), [1])
    with pytest.raises(NotAnosovError):
        fl.boundary_sample(fl.preset("trivial"), (1,), [1])


def test_empty_flag_indices_are_input_errors(sym4):
    with pytest.raises(InputError, match="at least one index"):
        boundary_samples(sym4, [(1, 2)], [])
    with pytest.raises(InputError, match="at least one index"):
        fl.boundary_sample(sym4, (1, 2), [])
    with pytest.raises(InputError, match="at least one index"):
        fl.limit_set_sample(sym4, [], count=2, length=5, seed=1)


def test_limit_set_sample_contract(schottky):
    flags, failures = fl.limit_set_sample(schottky, [1], count=1, length=6, seed=2)
    assert len(flags) == 1 and not failures
    again, _ = fl.limit_set_sample(schottky, [1], count=1, length=6, seed=2)
    assert flags[0].source == again[0].source


def test_limit_set_flags_do_not_depend_on_batch(sym4):
    flags, _ = fl.limit_set_sample(sym4, [1, 2, 3], count=12, length=7, seed=4)
    for f in flags:
        alone = fl.boundary_sample(sym4, f.source, [1, 2, 3])
        assert alone.quality == f.quality
        for k in f.ks:
            assert np.array_equal(alone.space(k).frame, f.space(k).frame)


def test_limit_set_pairwise_transversality(sym4_flags, sym4):
    d = sym4.dim
    worst = 1.0
    for i in range(0, 30):
        for j in range(30):
            if i == j:
                continue
            x, y = sym4_flags[i], sym4_flags[j]
            worst = min(worst, fl.transversality_gap(x.space(1), y.space(d - 1)))
    assert worst > 0.0


def test_limit_set_invariance_under_translation(sym3):
    flags, _ = fl.limit_set_sample(sym3, [1, 2], count=12, length=7, seed=9)
    gamma = (1,)
    for f in flags:
        moved = transport_flag(sym3, gamma, f)
        fresh = fl.boundary_sample(
            sym3, W.concat(sym3.presentation, gamma, f.source, W.invert(gamma)), [1, 2]
        )
        assert fl.flag_dist(moved, fresh) < 1e-4


def test_wedge_consistency_of_flags(sym4):
    """The k-space of a flag maps to the line of the wedge rep's flag under
    the Plucker embedding."""
    wrep = fl.wedge_rep(sym4, 2)
    for word in [(1, 2, 1), (2, -1, 2, 1), (1, 1, 2)]:
        f = fl.boundary_sample(sym4, word, [2])
        fw = fl.boundary_sample(wrep, word, [1])
        assert fubini_study(plucker(f.space(2)), fw.space(1)) < 1e-6
