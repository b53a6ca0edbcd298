import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flaglab as fl
import flaglab.words as W
import flaglab.certify as certify
from flaglab.certify import FlagStack, _doubling_ratios, boundary_samples
from flaglab.errors import CapacityError, InputError, NotAnosovError, PrecisionError
from flaglab.prodsvd import ProductSVD
from flaglab.reps import Representation
from flaglab.subspaces import frame_sines

from conftest import brute_ball, flag_dist
from oracles import (
    concat, contragredient, hausdorff_subspace_dist, invert, orth, perturb, plucker, transport_flag, wedge_rep,
)


# --- certificates -----------------------------------------------------------


def test_schottky_certified(schottky):
    [cert] = fl.certificates(schottky, [1], 6)
    assert cert.verdict == "certified"
    assert cert.c1 >= 0.5
    assert cert.r_squared >= 0.95


def test_trivial_refuted():
    [cert] = fl.certificates(fl.preset("trivial"), [1], 6)
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
    [cert] = fl.certificates(rep, [1], 6)
    assert cert.verdict == "refuted"
    assert any("sublinear" in note for note in cert.notes)


def test_directsum_verdicts(directsum):
    assert fl.certificates(directsum, [1], 4)[0].verdict == "refuted"
    assert fl.certificates(directsum, [3], 4)[0].verdict == "refuted"
    assert fl.certificates(directsum, [2], 4)[0].verdict == "certified"


def test_octagon_not_refuted(octagon):
    [cert] = fl.certificates(octagon, [1], 6)
    assert cert.verdict in ("certified", "inconclusive")


def test_radius_capped_by_relator(octagon):
    [cert] = fl.certificates(octagon, [1], 9)
    assert cert.radius == 7
    assert any("capped" in n for n in cert.notes)


def test_certify_input_validation(schottky):
    with pytest.raises(InputError):
        fl.certificates(schottky, [2], 6)
    with pytest.raises(InputError):
        fl.certificates(schottky, [1], 2)


def test_certify_sweeps_the_capped_radius(torus):
    # the certificate reports the radius of its sweep, after capping
    [cert] = fl.certificates(torus, [1], 9)
    assert cert.radius == 3 and cert.lengths == (1, 2, 3)


@pytest.mark.parametrize("name,radius", [("sym3", 5), ("sym4", 5), ("directsum", 4), ("schottky", 6)])
def test_duality_minima_and_verdicts(name, radius):
    rep = fl.preset(name)
    sweep = fl.gap_sweep(rep, radius)
    d = rep.dim
    certs = {c.k: c for c in fl.certificates(rep, range(1, d), radius)}
    for k in range(1, d):
        assert np.max(np.abs(sweep.minima[:, k - 1] - sweep.minima[:, d - k - 1])) < 1e-9
        assert certs[k].verdict == certs[d - k].verdict


def _mp_gaps(rep, word, digits=40, power=1):
    """Gap vector of rho(word)^power from a high-precision product and SVD
    of the float generators; the digits must hold the whole spread."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        m = mpmath.eye(rep.dim)
        for letter in word:
            g = rep.matrix(letter)
            m = m * mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in g])
        s = sorted((mpmath.mpf(x) for x in mpmath.svd_c(m**power, compute_uv=False)), reverse=True)
        assert s[-1] > 0 and mpmath.log10(s[0] / s[-1]) < digits - 20, "raise the digits"
        return [float((mpmath.log(a) - mpmath.log(b)) / 2) for a, b in zip(s, s[1:])]


def _engine_gaps(rep, word, power=1):
    """Gap vector of rho(word)^power from certify.WedgeProducts, absorbed
    letter by letter, as the sweep reads a word."""
    mats = certify._letter_matrices(rep)
    letters = certify.WedgeProducts.of(mats)
    index = rep.presentation.letters()
    state = certify.WedgeProducts.identity(rep.dim, (), mats.dtype)
    for _ in range(power):
        for letter in word:
            state.absorb(letters[index.index(letter)])
    return state.gaps()


def _close(got, want, rtol=1e-10):
    """got within rtol of want relative to |want|, or absolutely below 1."""
    return abs(got - want) <= rtol * max(1.0, abs(want))


@pytest.mark.parametrize("name,radius", [("sym4", 5), ("schottky", 6)])
def test_sweep_witnesses_and_brute_force_minima(name, radius):
    # the oracle is a 40-digit SVD: a LAPACK SVD of the formed product is
    # itself off by up to 7e-4 on these sym4 words (length 5, k=3)
    rep = fl.preset(name)
    sweep = fl.gap_sweep(rep, radius)
    d = rep.dim
    ball = brute_ball(rep.presentation, radius)
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
            assert len(w) == n and W.reduce(w, rep.presentation) == w
            assert abs(_mp_gaps(rep, w)[k - 1] - sweep.minima[n - 1, k - 1]) < 1e-9


def _level_gaps(rep, radius):
    """Every word's exact gaps, level by level from the same products as
    gap_sweep (one per letter and level): yields the walk so far, the
    exact gaps (L, d-1) of the level's L words and the letters() positions
    of their first and last letters, each first letter followed back
    through the parents.  Checks on the way that every word's gaps lie
    within its gap_bounds."""
    mats = certify._letter_matrices(rep)
    letters = certify.WedgeProducts.of(mats)
    index = {letter: i for i, letter in enumerate(rep.presentation.letters())}
    state = certify.WedgeProducts.identity(rep.dim, (1,), mats.dtype)
    walk, head = [], None
    for parent, last in W.levels(rep.presentation, radius):
        gaps = np.empty((parent.size, rep.dim - 1))
        child = certify.WedgeProducts.identity(rep.dim, parent.shape, mats.dtype)
        for i, letter in enumerate(rep.presentation.letters()):
            rows = np.nonzero(last == letter)[0]
            child[rows] = sub = state[parent[rows]].absorb(letters[i])
            gaps[rows] = sub.gaps()
            low, high = sub.gap_bounds()  # the bounds the sweep prunes by hold
            assert np.all(low <= gaps[rows] + 1e-12) and np.all(gaps[rows] <= high + 1e-12)
        state = child
        walk.append((parent, last))
        tail = np.array([index[int(x)] for x in last])
        head = tail if head is None else head[parent]
        yield walk, gaps, head, tail


def _every_word_minima(rep, radius):
    """The per-length minima of every word's exact gaps, each word read
    on its own: no word stands for its inverse."""
    return np.array([gaps.min(axis=0) for _, gaps, _, _ in _level_gaps(rep, radius)])


def _full_sweep(rep, radius):
    """gap_sweep's minima and argmin words with every read word's exact
    gaps read, from the same products, under the pair rule: a word whose
    first letter comes before the inverse of its last (position tail ^ 1
    in letters()) reads at index k the least of its gaps at k and d-k and
    names its inverse where the latter is strictly less; one whose first
    letter is that inverse reads its own gaps, and the others are not
    read.  The argmin is the first read word, in lexicographic order."""
    minima, argmins = [], []
    for walk, gaps, head, tail in _level_gaps(rep, radius):
        paired, read = head < tail ^ 1, head <= tail ^ 1
        mirrored = gaps[:, ::-1]
        flip = paired[:, None] & (mirrored < gaps)
        values = np.where(paired[:, None], np.minimum(gaps, mirrored), gaps)
        rows = np.flatnonzero(read)
        idx = rows[np.argmin(values[rows], axis=0)]
        cols = np.arange(rep.dim - 1)
        minima.append(values[idx, cols])
        argmins.append(tuple(invert(W.spell(walk, i)) if f else W.spell(walk, i) for i, f in zip(idx, flip[idx, cols])))
    return np.array(minima), tuple(argmins)


@pytest.mark.parametrize("name, radius", [("sym4", 6), ("octagon-sym3", 4), ("directsum", 5), ("schottky", 7)])
def test_sweep_reads_exact_gaps_only_near_the_minima(name, radius):
    # the sweep skips the exact reading of a word whose gap bounds lie above
    # a level's least upper bound: its minima and argmin words are those of
    # reading every read word of the pair rule, bit for bit
    rep = fl.preset(name)
    sweep = fl.gap_sweep(rep, radius)
    minima, argmins = _full_sweep(rep, radius)
    assert np.array_equal(sweep.minima, minima) and sweep.argmin_words == argmins


@pytest.mark.parametrize("block", [1, 5])
@pytest.mark.parametrize("name, radius", [("sym4", 5), ("directsum", 4), ("schottky", 6), ("trivial", 4)])
def test_sweep_blocks_keep_every_bit(monkeypatch, name, radius, block):
    # absorbed a few parents at a time, the running minima and their first
    # words are those of whole letter groups, ties (trivial: every gap is 0)
    # included
    monkeypatch.setattr(certify, "SWEEP_BLOCK", block)
    rep = fl.preset(name)
    sweep = fl.gap_sweep(rep, radius)
    minima, argmins = _full_sweep(rep, radius)
    assert np.array_equal(sweep.minima, minima) and sweep.argmin_words == argmins


@pytest.mark.parametrize("name, radius", [("schottky", 7), ("sym3", 6), ("sym4", 6), ("octagon-sym3", 4),
                                           ("directsum", 5), ("sym5", 5)])
def test_pair_sweep_minima_match_every_word_read(name, radius):
    # a word that stands for its inverse reads the inverse's gaps as its own
    # in reverse order, so the minima are those of reading every word on its
    # own up to rounding; at d = 5 the mirror pairs indices 1-4 and 2-3, and
    # d = 5 is the largest symmetric power of schottky that can be built
    rep = fl.sym_power(fl.preset("schottky"), 5) if name == "sym5" else fl.preset(name)
    sweep = fl.gap_sweep(rep, radius).minima
    every = _every_word_minima(rep, radius)
    assert np.all(np.abs(sweep - every) <= 1e-12 * (1.0 + every))


def test_sweep_budget_fails_fast(sym4):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="budget"):
            fl.gap_sweep(sym4, 14)  # 9.6M words of length <= 14, about 1.6 GiB held at once
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["schottky", "sym3", "sym4", "directsum", "octagon-sym3", "octagon-sym4"])
def test_sweep_peaks_under_the_budget_it_just_fits(name, monkeypatch):
    # at a 4 MiB budget, the largest radius the check admits holds less than
    # the budget at its traced peak: the charge counts what the sweep holds
    import tracemalloc

    monkeypatch.setattr(certify, "SWEEP_BUDGET", 4 << 20)
    rep = fl.preset(name)
    radius = 1
    while True:
        try:
            fl.gap_sweep(rep, radius + 1)
        except CapacityError:
            break
        radius += 1
    tracemalloc.start()
    try:
        fl.gap_sweep(rep, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert radius >= 4 and peak < 4 << 20


def test_wedge_products_of_reads_big_entries_as_absorbed():
    # a letter with an entry past 1e154 reads the gap of the same letter
    # absorbed into the empty product, without an overflow warning
    import warnings

    mats = np.diag([1e160, 1e-160])[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        letter = certify.WedgeProducts.of(mats)
        alone = letter.gaps()
        absorbed = certify.WedgeProducts.identity(2, (1,), mats.dtype).absorb(letter).gaps()
    assert np.isfinite(alone).all() and _close(float(alone[0, 0]), 160 * math.log(10), 1e-12)
    assert np.array_equal(alone, absorbed)


def _complex_twin(rep):
    """rep conjugated by a diagonal unitary: the same gaps from complex
    generators of the same dimension and rank."""
    phases = np.exp(1j * np.arange(rep.dim))
    return Representation(rep.presentation, [phases[:, None] * g / phases for g in rep.generators])


def test_sweep_budget_counts_the_bytes_of_the_state_dtype(sym4, monkeypatch):
    # a real representation sweeps in float64, half the bytes of complex128
    # state.  The charge of radius 6 is what the sweep holds at once: the
    # states of the words of lengths 4 and 5 (every exterior power, 16 + 36
    # + 16 entries at d = 4, and d floats), 5 bytes of indices a word of the
    # ball and 8 a parent of the longest words, one block of the 324 words
    # of length 5 (two states and 128 bytes each) and 64 KiB.  It binds to
    # the byte, and a budget between the two dtypes' charges admits sym4 and
    # refuses its twin
    d, radius = sym4.dim, 6
    kept = W.ball_size(2, 5) - W.ball_size(2, 3)
    parents = W.ball_size(2, 5) - W.ball_size(2, 4)

    def need(itemsize):
        state = 68 * itemsize + 8 * d
        return (state * kept + 5 * (W.ball_size(2, radius) - 1) + 8 * parents
                + parents * (2 * state + 128) + (1 << 16))

    real_need, complex_need = need(8), need(16)
    monkeypatch.setattr(certify, "SWEEP_BUDGET", real_need - 1)
    with pytest.raises(CapacityError, match="budget"):
        fl.gap_sweep(sym4, radius)
    monkeypatch.setattr(certify, "SWEEP_BUDGET", (real_need + complex_need) // 2)
    twin = _complex_twin(sym4)
    assert certify._letter_matrices(twin).dtype == np.complex128
    assert fl.gap_sweep(sym4, radius).radius == radius
    with pytest.raises(CapacityError, match="budget"):
        fl.gap_sweep(twin, radius)


def _spread_rep():
    # the outer singular values run apart by 13.8 nats per power while the
    # middle gap grows by 0.01 nats: the spread passes 372 nats (power 28)
    # long before the middle gap reaches 40
    m = np.diag([1000.0, 1.01, 1 / 1.01, 1 / 1000.0]).astype(complex)
    return Representation(W.free_group(1), [m], label="spread")


def _conjugated_spread_rep():
    # _spread_rep's generator conjugated by a fixed g (condition 2.3), so
    # that no basis shows its singular values
    g = np.eye(4) + 0.3 * np.random.default_rng(0).normal(size=(4, 4))
    m = g @ np.diag([1000.0, 1.01, 1 / 1.01, 1 / 1000.0]) @ np.linalg.inv(g)
    return Representation(W.free_group(1), [m], label="conjugated spread")


def _doubling_ratio_oracle(rep, word, k, digits=400):
    # reference for the doubling witnesses: rho(word)^n at high precision,
    # one product per (word, k), read at powers 1, 2, 4, ..., 256
    gaps = []
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        gaps.append(_mp_gaps(rep, word, digits, n)[k - 1])
        if gaps[-1] > 40.0 and len(gaps) >= 2:
            break
    g_prev, g_last = gaps[-2], gaps[-1]
    if g_last < 1e-9:
        return g_last, 0.0
    return g_last, g_last / max(g_prev, 1e-12)


def _matches_oracle(got, want):
    # a (gap, ratio) of _doubling_ratios against the oracle's
    return _close(got[0], want[0]) and _close(got[1], want[1])


def _witness_requests(rep, ks, radius):
    # the doubling witnesses of a certificate of each index: the sweep's
    # worst word of the last length, then every generator
    sweep = fl.gap_sweep(rep, radius)
    gens = [(g,) for g in range(1, rep.presentation.generator_count + 1)]
    return [(w, k) for k in ks for w in [sweep.argmin_words[-1][k - 1], *gens]]


@pytest.mark.parametrize("name, ks, radius, words", [
    ("sym4", (1, 2, 3), 5, 4),
    ("sym3", (1, 2), 5, None),
    ("schottky", (1,), 6, None),
    ("unipotent", (1,), 6, None),
    ("trivial", (1,), 4, None),
    ("octagon-sym3", (1, 2), 6, None),  # the complex engine on cancelling surface words
    ("directsum", (1, 2, 3), 5, None),  # vanished indices beside a growing one
])
def test_power_walk_matches_per_word_oracle(name, ks, radius, words):
    rep = fl.preset(name)
    requests = _witness_requests(rep, ks, radius)
    if words is not None:
        assert len({w for w, _ in requests}) == words
    got = _doubling_ratios(rep, requests)
    assert set(got) == set(requests)
    # directsum's vanished indices read on to power 256, where a^5 spreads
    # its singular values over 1,541 decimal digits
    digits = 1600 if name == "directsum" else 400
    for w, k in requests:
        assert _matches_oracle(got[w, k], _doubling_ratio_oracle(rep, w, k, digits)), (w, k)
    if name == "unipotent":
        assert all(ratio < 1.5 for _, ratio in got.values())
    if name == "trivial":  # the vanished-gap branch
        assert all(g < 1e-9 and ratio == 0.0 for g, ratio in got.values())
    if name == "directsum":
        assert all((g < 1e-9 and ratio == 0.0) == (k != 2) for (_, k), (g, ratio) in got.items())


def test_doubling_ratio_never_returns_nan():
    # the middle gap grows by 0.01 nats a power while the outer values run
    # apart by 13.8 nats: read at power 256 over a spread of 3,537 nats, it
    # is finite and right, and a slope below 0.01 leaves the certificate
    # inconclusive
    rep = _conjugated_spread_rep()
    [got] = _doubling_ratios(rep, [((1,), 2)]).values()
    assert _matches_oracle(got, _doubling_ratio_oracle(rep, (1,), 2, digits=1600))
    assert got[1] > 1.5
    [cert] = fl.certificates(rep, [2], 3)
    assert cert.verdict == "inconclusive" and 0.0 < cert.c1 < certify.SLOPE_THRESHOLD


@pytest.mark.parametrize("name, word, power, digits", [
    ("schottky", (1,), 400, 600),  # true gap 554.5, spread 1,109 nats
    ("sym4", (-1, 2, 2, -1, -1, -2, -1), 8, 400),  # AbbAABA^8, spread 402 nats
    ("spread", (1,), 54, 400),  # spread 746 nats
    ("spread", (1,), 120, 1000),  # spread 1,658 nats
])
def test_gap_readings_past_the_flag_spread_limit(name, word, power, digits):
    # the gap readers' engine reads every gap past the graded product SVD's
    # 372-nat limit, where that engine, which the flags keep, loses the
    # smallest singular value
    rep = _conjugated_spread_rep() if name == "spread" else fl.preset(name)
    want = _mp_gaps(rep, word, digits, power)
    got = _engine_gaps(rep, word, power)
    assert all(_close(g, x) for g, x in zip(got, want)), (got, want)
    state = ProductSVD(rep.dim)
    for _ in range(power):
        for letter in word:
            state.absorb(rep.matrix(letter))
    assert not np.all(np.isfinite(state.gaps()))


def test_spread_limit_is_about_372_nats(sym4, monkeypatch):
    # AbbAABA^7 spreads its log-singular values over 352 nats and AbbAABA^8
    # over 402 (+-201.03, +-67.01): past about 372 nats the graded product
    # SVD flushes the smallest value to zero, so a boundary flag that needs
    # the third gap fails there, while the doubling witnesses read all
    # three gaps at power 8, each passing 40
    w = (-1, 2, 2, -1, -1, -2, -1)
    state = ProductSVD(sym4.dim)
    for power in range(1, 9):
        for letter in w:
            state.absorb(sym4.matrix(letter))
        if power == 7:
            assert np.all(np.isfinite(state.logs)) and state.logs[0] - state.logs[-1] > 350.0
    assert np.allclose(state.logs[:3], [201.03, 67.01, -67.01], atol=0.01)
    assert state.logs[3] == -np.inf
    monkeypatch.setattr(certify, "TARGET_GAP", 100.0)  # the flag walks on to power 8
    flags, [(reason, gap)] = boundary_samples(sym4, [w], [3])
    assert len(flags) == 0 and reason == "non_finite_gap"
    message = certify._failure_message(w, reason, gap)
    assert "AbbAABA" in message and "about 372 nats" in message
    got = _doubling_ratios(sym4, [(w, 1), (w, 2), (w, 3)])
    want = _mp_gaps(sym4, w, 400, 8)
    for k in (1, 2, 3):
        gap, ratio = got[w, k]
        assert _close(gap, want[k - 1]) and ratio == pytest.approx(2.0, abs=1e-3)


def test_power_walk_stops_each_request_alone():
    # one word, two indices: index 1 passes 40 at power 16 and ends there,
    # while index 2 walks on to power 256; each reads like the oracle
    rep = _conjugated_spread_rep()
    got = _doubling_ratios(rep, [((1,), 1), ((1,), 2)])
    assert _matches_oracle(got[(1,), 1], _doubling_ratio_oracle(rep, (1,), 1))
    assert got[(1,), 1][0] > 40.0
    assert _close(got[(1,), 1][0], _mp_gaps(rep, (1,), 400, 16)[0])
    assert _matches_oracle(got[(1,), 2], _doubling_ratio_oracle(rep, (1,), 2, digits=1600))
    assert _close(got[(1,), 2][0], _mp_gaps(rep, (1,), 1600, 256)[1])


# the certify verdict of every preset at every index, each certified alone at
# radius 6, with its notes: a verdict or note that moves is a visible diff
VERDICTS_RADIUS_6 = {
    ("directsum", 1): ("refuted", "gap vanishes on the whole ball"),
    ("directsum", 2): ("certified",),
    ("directsum", 3): ("refuted", "gap vanishes on the whole ball"),
    ("octagon", 1): ("inconclusive",),
    ("octagon-sym3", 1): ("inconclusive",),
    ("octagon-sym3", 2): ("inconclusive",),
    ("octagon-sym4", 1): ("inconclusive",),
    ("octagon-sym4", 2): ("inconclusive",),
    ("octagon-sym4", 3): ("inconclusive",),
    ("schottky", 1): ("certified",),
    ("sym3", 1): ("certified",),
    ("sym3", 2): ("certified",),
    ("sym4", 1): ("certified",),
    ("sym4", 2): ("certified",),
    ("sym4", 3): ("certified",),
    ("trivial", 1): ("refuted", "gap vanishes on the whole ball"),
    ("unipotent", 1): ("refuted", "sublinear gap growth along aaaaaa (doubling ratio 1.104, gap 7.337)"),
}


def test_verdict_table_at_radius_6():
    assert set(VERDICTS_RADIUS_6) == {(name, k) for name in fl.preset_names() for k in range(1, fl.preset(name).dim)}
    for (name, k), (verdict, *notes) in VERDICTS_RADIUS_6.items():
        [cert] = fl.certificates(fl.preset(name), [k], 6)
        assert (cert.verdict, list(cert.notes)) == (verdict, notes), (name, k)
    # a vanished index reads no witness: directsum's k = 1 and 3 and trivial's
    # certificates ask for none
    assert _doubling_ratios(fl.preset("directsum"), []) == {}


def test_refuting_witness_wins_over_a_later_raising_one(schottky, sym3, monkeypatch):
    # witnesses are read index by index, each in the order worst word,
    # generator 1, generator 2: a refutation ends its index's reading before
    # a later witness's PrecisionError, but the next index is still read
    err = PrecisionError("past 372 nats")

    def walk(result):
        monkeypatch.setattr(certify, "_doubling_ratios",
                            lambda rep, requests: {r: result(n, r) for n, r in enumerate(requests)})

    walk(lambda n, r: (0.5, 1.0) if n == 0 else err)
    [cert] = fl.certificates(schottky, [1], 4)
    assert cert.verdict == "refuted"
    assert "doubling ratio 1.000" in cert.notes[-1]
    walk(lambda n, r: (60.0, 2.0) if n == 0 else err)
    with pytest.raises(PrecisionError, match="372 nats"):
        fl.certificates(schottky, [1], 4)
    walk(lambda n, r: (0.5, 1.0) if r[1] == 1 else err)
    with pytest.raises(PrecisionError, match="372 nats"):
        fl.certificates(sym3, [1, 2], 4)


@pytest.mark.parametrize("name, ks", [("sym4", (1, 2, 3)), ("schottky", (1,))])
def test_real_letter_matrices_change_no_bit(name, ks, monkeypatch):
    # real generators run the engines in float64; driven with complex128
    # letter matrices instead, the boundary flags come out the same, bit
    # for bit, and the sweep minima and the doubling witnesses each read
    # the 40-digit oracle to 1e-12
    rep = fl.preset(name)
    assert certify._letter_matrices(rep).dtype == np.float64
    words = W.random_cyclic_words(rep.presentation, 30, 7, seed=5)
    requests = _witness_requests(rep, ks, 6) + [(w, k) for w in words[:4] for k in ks]

    def run():
        sweep = fl.gap_sweep(rep, 6)
        return sweep, _doubling_ratios(rep, requests), boundary_samples(rep, words, ks)

    real = run()
    monkeypatch.setattr(certify, "_letter_matrices",
                        lambda rep: np.stack([rep.matrix(x) for x in rep.presentation.letters()]))
    cplx = run()
    for sweep in (real[0], cplx[0]):  # argmin words may differ at tied minima
        for n, words_n in enumerate(sweep.argmin_words, 1):
            for k, w in enumerate(words_n, 1):
                assert _close(_mp_gaps(rep, w)[k - 1], sweep.minima[n - 1, k - 1], 1e-12)
    assert np.allclose(real[0].minima, cplx[0].minima, rtol=1e-12, atol=1e-12)
    assert set(real[1]) == set(cplx[1]) == set(requests)
    for key in requests:
        assert _close(real[1][key][0], cplx[1][key][0], 1e-12) and _close(real[1][key][1], cplx[1][key][1], 1e-12)
    (flags, errors), (cflags, cerrors) = real[2], cplx[2]
    assert errors == cerrors == [None] * len(words)
    assert flags.sources == cflags.sources == words
    for i, (a, b) in enumerate(zip(flags, cflags)):
        assert np.array_equal(a.frames, b.frames) and a.quality == b.quality
        assert np.array_equal(a.frames[0], flags.frames[i]) and a.quality[0] == flags.quality[i]


# --- attractors ---------------------------------------------------------------


def test_boundary_sample_eigenline_oracle(schottky):
    flag, _ = boundary_samples(schottky, [(1,)], [1])
    vals, vecs = np.linalg.eig(schottky.evaluate((1,)))
    top = orth(vecs[:, [int(np.argmax(np.abs(vals)))]])
    assert hausdorff_subspace_dist(flag.space(1)[0], top) < 1e-8


def test_boundary_sample_sym_weight_oracle(sym3):
    # for a diagonalizable word, the flag is spanned by the top weight vectors
    w = (1, 2, 1)
    flag, _ = boundary_samples(sym3, [w], [1, 2])
    vals, vecs = np.linalg.eig(sym3.evaluate(w))
    order = np.argsort(np.abs(vals))[::-1]
    assert hausdorff_subspace_dist(flag.space(1)[0], orth(vecs[:, order[:1]])) < 1e-8
    assert hausdorff_subspace_dist(flag.space(2)[0], orth(vecs[:, order[:2]])) < 1e-8


def test_boundary_sample_equivariance(sym4):
    w = (1, 2, -1, 2, 1)
    gamma = (2, 1, -2)
    conj = concat(sym4.presentation, gamma, w, invert(gamma))
    flag, rhs = boundary_samples(sym4, [w, conj], [1, 2, 3])[0]
    lhs = transport_flag(sym4, gamma, flag)
    assert flag_dist(lhs, rhs) < 1e-6


def test_transport_flag_matches_moved_frames(sym4):
    # rho(gamma) has condition number about 7.9e8
    gamma = (2, 1, -2)
    flag, _ = boundary_samples(sym4, [(1, 2, -1, 2, 1)], [1, 2, 3])
    m = sym4.evaluate(gamma)
    moved = transport_flag(sym4, gamma, flag)
    for k in flag.ks:
        direct = orth(m @ flag.space(k)[0])
        assert hausdorff_subspace_dist(moved.space(k)[0], direct) < 1e-10
    assert moved.quality == flag.quality


def test_transport_flag_round_trip(sym4):
    gamma = (1, 2)
    flag, _ = boundary_samples(sym4, [(1, 2, -1, 2, 1)], [1, 2, 3])
    back = transport_flag(sym4, invert(gamma), transport_flag(sym4, gamma, flag))
    assert flag_dist(back, flag) < 1e-10


def test_transport_flag_collapse_is_precision_error():
    rep = Representation(W.free_group(1), [np.diag([1e9, 1.0, 1e-9])])
    flag = FlagStack([(1,)], np.eye(3)[None][:, :, [1, 2, 0]], [1, 2], [0.0])
    with pytest.raises(PrecisionError, match="collapsed"):
        transport_flag(rep, (1,), flag)


def test_flag_space_outside_ks_is_input_error(sym4):
    flag, _ = boundary_samples(sym4, [(1, 2, -1, 2, 1)], [1, 3])
    assert flag.space(0).shape == (1, 4, 0)
    for k in flag.ks:
        assert flag.space(k).shape == (1, 4, k)
        assert np.array_equal(flag.space(k), flag.frames[..., :k])
    full = flag.space(4)
    assert full.dtype == complex and np.array_equal(full, np.eye(4)[None])
    for k in (2, 5, -1):
        with pytest.raises(InputError, match="carries"):
            flag.space(k)


def test_boundary_sample_stability_under_more_power(sym4, monkeypatch):
    import flaglab.certify as certify

    w = (1, 2, 2, -1, 2)
    monkeypatch.setattr(certify, "TARGET_GAP", 14.0)
    f1, _ = boundary_samples(sym4, [w], [1, 2, 3])
    monkeypatch.setattr(certify, "TARGET_GAP", 28.0)
    f2, _ = boundary_samples(sym4, [w], [1, 2, 3])
    assert flag_dist(f1, f2) < 1e-6


def test_boundary_sample_nesting_postcondition(sym4_flags):
    flags = sym4_flags[:10]
    for k1, k2 in zip(flags.ks, flags.ks[1:]):
        assert np.array_equal(flags.space(k1), flags.space(k2)[..., :k1])


def test_boundary_sample_rejects_trivial_word(schottky):
    with pytest.raises(InputError, match="boundary_samples needs a nontrivial word"):
        boundary_samples(schottky, [(1, -1)], [1])
    flags, [(reason, gap)] = boundary_samples(fl.preset("trivial"), [(1,)], [1])
    assert len(flags) == 0 and (reason, gap) == ("gap_stalled", 0.0)


def _boundary_sample_oracle(rep, word, ks):
    # reference for the batched judge: one product for one word, judged
    # power by power with Python floats; a failure is its reason code and
    # its message
    mats = certify._letter_matrices(rep)
    letters = rep.presentation.letters()
    state = ProductSVD(rep.dim, (), mats.dtype)
    name = W.word_to_str(word)
    history = []
    n = 0
    while True:
        for letter in word:
            state.absorb(mats[letters.index(letter)])
        n += 1
        g = state.gaps()[np.array(ks) - 1]
        worst = float(g.min())
        if not np.all(np.isfinite(g)):
            return "non_finite_gap", f"non-finite gap along {name}: log-singular spread past about 372 nats"
        if worst >= certify.TARGET_GAP:
            return FlagStack([word], state.u[None], ks, [math.exp(-2.0 * worst)])
        history.append(worst)
        if len(history) >= 4 and history[-1] - history[-4] < 1e-3:
            return "gap_stalled", f"gap stalled at {worst:.4f} along {name}; not Anosov along this word"
        if n * len(word) >= certify.MAX_LETTERS:
            return "gap_short", f"gap reached only {worst:.3f} of {certify.TARGET_GAP} along {name}"


# words of _mixed_rep that end every way at once, with MAX_LETTERS at 40
MIXED_WORDS = [(1,), (2,), (3,), (4,), (2, 2, 4), (4, 2, 2, 2), (2, -3, 2), (1, 2),
               (4, 4, -3), (-2, 1, -2, -2, 4), (3, 4), (1, 4)]


def _mixed_rep():
    # a (the spread matrix) passes 372 nats, b and the words built on it
    # clear the target, c (two unipotent Jordan blocks) stalls at gap 0 and
    # d grows too slowly for MAX_LETTERS = 40; the lengths of MIXED_WORDS
    # spread their powers over many absorbs
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    gens = [
        _spread_rep().generators[0],
        q @ np.diag(np.exp([6.0, 2.0, -2.0, -6.0])) @ q.T,
        np.array([[1.0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
        np.diag([1.1, 1.05, 1 / 1.05, 1 / 1.1]),
    ]
    return Representation(W.free_group(4), gens, label="mixed")


def test_batched_judge_matches_per_word_oracle(monkeypatch):
    # one stack that ends every way at once
    monkeypatch.setattr(certify, "MAX_LETTERS", 40)
    rep, ks, words = _mixed_rep(), [1, 2, 3], MIXED_WORDS
    got, errors = boundary_samples(rep, words, ks)
    rows = iter(got)  # the words that succeeded, in word order
    kinds = set()
    for w, error in zip(words, errors):
        want = _boundary_sample_oracle(rep, w, ks)
        if isinstance(want, FlagStack):
            assert error is None, w
            flag = next(rows)
            assert flag.sources == want.sources and flag.ks == want.ks
            assert np.array_equal(flag.frames, want.frames) and flag.quality == want.quality, w
            kinds.add("done")
        else:
            assert error[0] == want[0] and certify._failure_message(w, *error) == want[1], w
            kinds.add((want[0], " ".join(want[1].split()[:2])))
    assert next(rows, None) is None
    assert kinds == {
        "done", ("non_finite_gap", "non-finite gap"), ("gap_stalled", "gap stalled"),
        ("gap_short", "gap reached"),
    }
    empty, errors = boundary_samples(rep, [], ks)
    assert len(empty) == 0 and empty.frames.shape == (0, 4, 4) and errors == []


@pytest.mark.parametrize("count", [1, 3])
def test_limit_set_sample_reports_each_failure_with_its_reason(monkeypatch, count):
    # the sampler draws MIXED_WORDS: it keeps the first count flags and
    # reports the reason code of every failed word drawn before the last of
    # them, in draw order
    monkeypatch.setattr(certify, "MAX_LETTERS", 40)
    monkeypatch.setattr(W, "random_cyclic_words", lambda *args: MIXED_WORDS)
    rep = _mixed_rep()
    flags, errors = boundary_samples(rep, MIXED_WORDS, [1, 2, 3])
    done = [i for i, e in enumerate(errors) if e is None]
    assert len(done) > 3 and done[0] > 0
    sample, failures = fl.limit_set_sample(rep, [1, 2, 3], count=count, length=1, seed=1)
    assert sample.sources == flags.sources[:count]
    assert np.array_equal(sample.frames, flags.frames[:count])
    assert failures == [e[0] for e in errors[: done[count - 1]] if e is not None]
    counts = certify.failure_counts(failures)
    assert list(counts) == list(certify.FAILURE_REASONS)
    assert sum(counts.values()) == len(failures)
    if count == 3:
        assert all(counts.values())


def _rewalking_sample(rep, ks, count, length, seed):
    """limit_set_sample as flaglab 0.15 ran it: every later batch walks the
    words that failed before again, and reports them again, each as (word,
    reason, message)."""
    failures, parts, have, batch = [], [], 0, 0
    while have < count and batch < 8:
        cand = W.random_cyclic_words(rep.presentation, count - have + 4 * batch, length, seed + batch)
        taken = {w for part in parts for w in part.sources}
        fresh = [w for w in cand if w not in taken]
        flags, errors = boundary_samples(rep, fresh, ks)
        ok = [i for i, e in enumerate(errors) if e is None]
        stop = ok[count - have - 1] + 1 if len(ok) >= count - have else len(fresh)
        failures += [(w, e[0], certify._failure_message(w, *e))
                     for w, e in zip(fresh[:stop], errors[:stop]) if e is not None]
        parts.append(flags[: count - have])
        have += len(parts[-1])
        batch += 1
    if have < count:
        raise NotAnosovError(f"only {have}/{count} boundary samples succeeded; "
                             f"first failure: {failures[0][2] if failures else 'none'}")
    return FlagStack.concat(*parts), failures


@pytest.mark.parametrize("name, ks, count, length", [
    ("mixed", [1, 2, 3], 20, 2),  # completes after redrawing failed words
    ("mixed", [1, 2, 3], 40, 2),  # runs out of batches
    ("directsum", [1], 20, 4),  # every word fails
    ("mixed-walk", [1, 2, 3], 20, 2),  # the first case, with its walks only through the walk seam
])
def test_limit_set_sample_walks_each_word_once(monkeypatch, name, ks, count, length):
    monkeypatch.setattr(certify, "MAX_LETTERS", 40)
    rep = fl.preset(name) if name == "directsum" else _mixed_rep()
    try:
        expected = _rewalking_sample(rep, ks, count, length, seed=1)
    except NotAnosovError as exc:
        expected = exc
    walked = []

    def spy(rep, words, ks):
        walked.extend(words)
        return boundary_samples(rep, words, ks)

    seam = {"walk": spy} if name == "mixed-walk" else {}
    monkeypatch.setattr(certify, "boundary_samples", None if seam else spy)
    if isinstance(expected, NotAnosovError):
        with pytest.raises(NotAnosovError) as info:
            fl.limit_set_sample(rep, ks, count=count, length=length, seed=1, **seam)
        assert str(info.value) == str(expected)
    else:
        sample, failures = fl.limit_set_sample(rep, ks, count=count, length=length, seed=1, **seam)
        assert sample.sources == expected[0].sources
        assert np.array_equal(sample.frames, expected[0].frames)
        assert np.array_equal(sample.quality, expected[0].quality)
        # each failed word once, where it first failed
        assert failures == [reason for _, reason, _ in dict.fromkeys(expected[1])]
        assert len(failures) < len(expected[1])
    assert len(walked) == len(set(walked))


def test_empty_flag_indices_are_input_errors(sym4):
    with pytest.raises(InputError, match="at least one index"):
        boundary_samples(sym4, [(1, 2)], [])
    with pytest.raises(InputError, match="at least one index"):
        fl.limit_set_sample(sym4, [], count=2, length=5, seed=1)


def test_limit_set_sample_contract(schottky):
    flags, failures = fl.limit_set_sample(schottky, [1], count=1, length=6, seed=2)
    assert len(flags) == 1 and not failures
    again, _ = fl.limit_set_sample(schottky, [1], count=1, length=6, seed=2)
    assert flags.sources == again.sources


def test_limit_set_flags_do_not_depend_on_batch(sym4):
    flags, _ = fl.limit_set_sample(sym4, [1, 2, 3], count=12, length=7, seed=4)
    for f in flags:
        alone, _ = boundary_samples(sym4, f.sources, [1, 2, 3])
        assert alone.quality == f.quality
        for k in f.ks:
            assert np.array_equal(alone.space(k), f.space(k))


def test_limit_set_pairwise_transversality(sym4_flags, sym4):
    d = sym4.dim
    flags = sym4_flags[:30]
    i, j = np.nonzero(~np.eye(30, dtype=bool))
    # smallest principal sine between x^1 and y^{d-1}, for every x != y
    sines = frame_sines(flags.space(1)[i], flags.complement(d - 1)[j])[:, 0]
    assert sines.min() > 0.0


def test_limit_set_invariance_under_translation(sym3):
    flags, _ = fl.limit_set_sample(sym3, [1, 2], count=12, length=7, seed=9)
    gamma = (1,)
    for f in flags:
        moved = transport_flag(sym3, gamma, f)
        fresh, _ = boundary_samples(
            sym3, [concat(sym3.presentation, gamma, f.sources[0], invert(gamma))], [1, 2]
        )
        assert flag_dist(moved, fresh) < 1e-4


def test_wedge_consistency_of_flags(sym4):
    """The k-space of a flag maps to the line of the wedge rep's flag under
    the Plucker embedding."""
    wrep = wedge_rep(sym4, 2)
    for word in [(1, 2, 1), (2, -1, 2, 1), (1, 1, 2)]:
        f, _ = boundary_samples(sym4, [word], [2])
        fw, _ = boundary_samples(wrep, [word], [1])
        assert hausdorff_subspace_dist(plucker(f.space(2)[0]), fw.space(1)[0]) < 1e-6


# --- properties of the gap readers -------------------------------------------------


@lru_cache(maxsize=None)
def _rep_and_dual(name):
    rep = fl.preset(name)
    return rep, contragredient(rep)


GAP_PRESETS = ["schottky", "sym3", "sym4", "octagon-sym3", "directsum"]


def _words(rep, max_size):
    """Freely reduced nonempty words of at most max_size letters, as the
    sweep and the doubling witnesses read them."""
    letters = st.lists(st.sampled_from(rep.presentation.letters()), min_size=1, max_size=max_size)
    return letters.map(lambda w: W.reduce(w, rep.presentation)).filter(bool)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(GAP_PRESETS), data=st.data())
def test_gap_duality_with_the_contragredient(name, data):
    # rho*(w) = rho(w)^-T has the reciprocal singular values, so its gaps
    # are rho(w)'s in reverse order
    rep, dual = _rep_and_dual(name)
    word = data.draw(_words(rep, 12), label="word")
    k = data.draw(st.integers(1, rep.dim - 1), label="k")
    gap = _engine_gaps(rep, word)[k - 1]
    assert abs(gap - _engine_gaps(dual, word)[rep.dim - k - 1]) <= 1e-12 * (1.0 + gap)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(GAP_PRESETS), data=st.data())
def test_gap_duality_with_the_inverse(name, data):
    # rho(w^-1) = rho(w)^-1 has the reciprocal singular values, so the gaps
    # of w^-1 are those of w in reverse order: gap_sweep reads one word of
    # each inverse pair
    rep, _ = _rep_and_dual(name)
    word = data.draw(_words(rep, 12), label="word")
    k = data.draw(st.integers(1, rep.dim - 1), label="k")
    gap = _engine_gaps(rep, invert(word))[k - 1]
    assert abs(gap - _engine_gaps(rep, word)[rep.dim - k - 1]) <= 1e-12 * (1.0 + gap)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["sym3", "sym4"]), eps=st.floats(0.01, 0.3), seed=st.integers(0, 2**16),
       radius=st.integers(1, 5))
def test_sweep_duality_with_the_contragredient(name, eps, seed, radius):
    # the sweep minima of index k of rho over a ball are those of index d-k
    # of rho* = rho^-T over the same ball, read from the products of other
    # matrices: perturbed symmetric powers are not self-dual
    rep = perturb(fl.preset(name), eps, seed)
    sweep, dual = fl.gap_sweep(rep, radius).minima, fl.gap_sweep(contragredient(rep), radius).minima
    assert np.all(np.abs(sweep - dual[:, ::-1]) <= 1e-12 * (1.0 + sweep))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(GAP_PRESETS), data=st.data())
def test_gap_walk_reads_a_word_alone_as_in_a_stack(name, data):
    # _doubling_ratios treats each product of its stack alone: a word's
    # readings keep every bit whatever else is read beside it
    rep, _ = _rep_and_dual(name)
    words = data.draw(st.lists(_words(rep, 5), min_size=2, max_size=5, unique=True), label="words")
    ks = data.draw(st.lists(st.integers(1, rep.dim - 1), min_size=len(words), max_size=len(words)), label="ks")
    together = _doubling_ratios(rep, list(zip(words, ks)))
    for w, k in zip(words, ks):
        assert _doubling_ratios(rep, [(w, k)]) == {(w, k): together[w, k]}
