import math
import tracemalloc

import numpy as np
import pytest

import flaglab as fl
import flaglab.words as W
from flaglab import certify, fibers
from flaglab.certify import FlagStack
from flaglab.errors import CapacityError, InputError, NotAnosovError, PrecisionError
from flaglab.fibers import (
    AMBIGUOUS,
    CHART_FLOOR,
    COLLAPSED,
    DEGENERATE,
    LINE_SOFT_TOL,
    LINE_UNIQUE_TOL,
    SCORED,
    TripleSpec,
    _eq1_scores,
    _fiber_frame,
    _flag_pool,
    _hk_scores,
    fiber_angles,
    fiber_ks,
    grassmann_charts,
    line_intersections,
    point_dists,
)
from flaglab.mobius import INF, chart, det2, sphere_xyz, three_point_map
from flaglab.sphere import cross_ratio
from flaglab.subspaces import frame_cosines, frame_quotients

from conftest import flag_dist, proj_matrix_dist
from oracles import (
    cocycle,
    concat,
    contragredient,
    fiber_wedge_line,
    hausdorff_subspace_dist,
    mobius_cocycle,
    perturb,
    plucker,
    transport_flag,
    wedge_fiber_point,
    wedge_hyperplane,
    wedge_pencil,
    wedge_rep,
)


# --- tangent projection --------------------------------------------------------


def test_projection_lands_in_fiber(sym4_flags):
    z, x = sym4_flags[0], sym4_flags[1]
    [coords], _ = fl.tangent_project(z, x, 2)
    assert abs(np.linalg.norm(coords) - 1.0) < 1e-10
    v = _fiber_frame(z, 2) @ coords
    # representative sits inside z^3, orthogonal to z^1
    frame = z.space(3)[0]
    assert np.linalg.norm(v - frame @ (frame.conj().T @ v)) < 1e-8
    assert np.linalg.norm(z.space(1)[0].conj().T @ v) < 1e-10


def test_veronese_identification_preserves_cross_ratios(sym3, schottky):
    """Fiber projections of the symmetric power reproduce the underlying
    2-dimensional boundary points: cross-ratios of four projected
    directions match the cross-ratios of the d=2 attracting points."""
    words = [(1, 2), (2, 1), (1, -2), (2, 2, 1), (1, 1, 2), (-2, 1, 1)]
    flags3, _ = fl.boundary_samples(sym3, words, [1, 2])
    base, _ = fl.boundary_samples(sym3, [(2, -1, 2, 1)], [1, 2])
    fiber_pts, rows = fl.tangent_project(base, flags3, 1)
    assert rows.tolist() == list(range(len(words)))
    plane_pts = [hom_from_line(v) for v in fl.boundary_samples(schottky, words, [1])[0].space(1)[:, :, 0]]
    for quad in [(0, 1, 2, 3), (1, 2, 3, 4), (0, 2, 4, 5)]:
        bf = cross_ratio(*[fiber_pts[i] for i in quad])
        bp = cross_ratio(*[plane_pts[i] for i in quad])
        assert abs(bf - bp) < 1e-6 * max(1.0, abs(bp))


def hom_from_line(v):
    return v / np.linalg.norm(v)


def test_injectivity_probe(sym4, sym4_flags):
    base, flags = sym4_flags[0], sym4_flags[1:41]
    dists = point_dists(sym4_flags[:41], 0, np.arange(1, 41))
    far = flags[dists >= 0.01]
    pts, rows = fl.tangent_project(base, far, 2)
    assert len(rows) == len(far)
    i, j = np.triu_indices(len(pts), 1)
    assert fiber_angles(pts[i], pts[j]).min() > 0.0


def test_grassmann_charts_equal_loop_bitwise(octagon_sym3):
    """Each anchor covers and charts exactly the flags that a per-flag
    _loop_sines floor test picks, and an empty sample gives empty charts."""
    flags, _ = fl.limit_set_sample(octagon_sym3, fiber_ks(3, 1), count=303, length=10, seed=1)
    anchors, cloud = flags[:3], flags[3:]
    charts, uncovered = grassmann_charts(cloud, 1, anchors)
    covered = set()
    for anchor in anchors:
        near = [
            i for i, f in enumerate(cloud.space(2))
            if _loop_sines(f, anchor.space(1)[0])[0] >= CHART_FLOOR
        ]
        assert len(near) < len(cloud)  # the floor excludes flags near every anchor
        pairs, kept = fl.tangent_project(anchor, cloud[near], 1)
        assert np.array_equal(charts[W.word_to_str(anchor.sources[0])], sphere_xyz(pairs))
        covered |= {near[i] for i in kept}
    assert uncovered == sorted(set(range(len(cloud))) - covered)
    charts, uncovered = grassmann_charts(cloud[:0], 1, anchors)
    assert uncovered == [] and [c.shape for c in charts.values()] == [(0, 3)] * 3


# --- hyperconvexity -------------------------------------------------------------


def test_d2_vacuous_pass(schottky):
    rpt = fl.check_transversality(schottky, 1, TripleSpec(count=300, seed=5), radius=None)
    assert rpt.verdict == "passes"
    assert rpt.min_transversality >= 1.0 - 1e-6


def test_sym4_k2_passes(sym4):
    rpt = fl.check_transversality(sym4, 2, TripleSpec(count=2000, seed=5), radius=None)
    assert rpt.verdict == "passes"
    assert rpt.min_transversality >= 1e-2


def test_prerequisite_certificates_required(sym4, directsum, monkeypatch):
    import flaglab.certify as certify

    sweeps, walks = [], []
    original, original_walk = certify.gap_sweep, certify._doubling_ratios

    def counting(rep, radius):
        sweeps.append(radius)
        return original(rep, radius)

    def counting_walk(rep, requests):
        walks.append(sorted({k for _, k in requests}))
        return original_walk(rep, requests)

    # one sweep and one witness walk certify every required index, or the
    # check names those left
    monkeypatch.setattr(certify, "gap_sweep", counting)
    monkeypatch.setattr(certify, "_doubling_ratios", counting_walk)
    rpt = fl.check_transversality(sym4, 2, TripleSpec(count=50, seed=1), radius=4)
    assert rpt.verdict == "passes" and sweeps == [4]
    assert walks == [[1, 2, 3]]
    for mode in ("eq1", "Hk"):
        with pytest.raises(NotAnosovError, match="indices: 1:refuted, 3:refuted$"):
            fl.check_transversality(directsum, 2, TripleSpec(count=50, seed=1), radius=4, mode=mode)
    assert sweeps == [4, 4, 4]
    assert len(walks) == 3


def test_prerequisite_sweep_capped_by_relator(torus, monkeypatch):
    import flaglab.certify as certify

    sweeps = []
    original = certify.gap_sweep

    def counting(rep, radius):
        sweeps.append(radius)
        return original(rep, radius)

    # radius 40 uncapped would need far past SWEEP_BUDGET: one sweep runs,
    # at the relator length minus one, and every certificate reuses it
    monkeypatch.setattr(certify, "gap_sweep", counting)
    for mode, index in (("eq1", 2), ("Hk", 1)):
        with pytest.raises(NotAnosovError, match=f"indices: {index}:inconclusive$"):
            fl.check_transversality(torus, 1, TripleSpec(count=50, seed=1), radius=40, mode=mode)
    assert sweeps == [3, 3]


def test_directsum_fails_upstream(directsum):
    # the designed failure family cannot even produce boundary flags at k=1
    with pytest.raises(NotAnosovError):
        fl.check_transversality(directsum, 2, TripleSpec(count=20, seed=1), radius=None)


def test_unknown_transversality_mode_is_input_error(sym4):
    with pytest.raises(InputError, match="unknown transversality mode 'eq2'"):
        fl.check_transversality(sym4, 2, TripleSpec(count=20, seed=1), radius=None, mode="eq2")


@pytest.mark.parametrize("field", [
    {"count": 0}, {"tau": -1.0}, {"tau": 1e-8}, {"tau": 1.5}, {"tau": float("nan")},
    {"word_length": 1}, {"word_length": 0},
])
def test_triple_spec_rejects_out_of_contract_fields(field):
    with pytest.raises(InputError):
        TripleSpec(**field)


def test_flag_pool_propagates_programming_errors(schottky, monkeypatch):
    import flaglab.fibers as fibers

    def broken(*args, **kwargs):
        raise TypeError("bug in a sampler")

    # only a rejected sample (a FlaglabError) may be skipped
    monkeypatch.setattr(fibers, "boundary_samples", broken)
    with pytest.raises(TypeError, match="bug in a sampler"):
        fl.check_transversality(schottky, 1, TripleSpec(count=80, seed=1, pool_size=8), radius=None)


def _failing(sampler, bad, reason):
    """sampler with every word w where bad(w) rejected for reason."""

    def failing(rep, words, ks):
        flags, errors = sampler(rep, words, ks)
        fails = [bad(w) for w in words]
        ok = [i for i, e in enumerate(errors) if e is None]
        keep = [j for j, i in enumerate(ok) if not fails[i]]
        return flags[keep], [(reason, 0.0) if f else e for f, e in zip(fails, errors)]

    return failing


def test_flag_pool_counts_failed_pair_words(sym4, monkeypatch):
    # every word longer than the pool's fails, so only pair words do: they
    # are counted as one attempt at a time counts them, by their reason
    # code, and a failed word's partner never enters a pair
    spec = TripleSpec(count=300, seed=5, pool_size=24)
    long_fails = _failing(certify.boundary_samples, lambda w: len(w) > spec.word_length, "gap_stalled")
    _, _, want, pool_failures = _one_attempt_pool(sym4, fiber_ks(4, 2), spec, long_fails)
    monkeypatch.setattr(fibers, "boundary_samples", long_fails)
    flags, pairs, failures = _flag_pool(sym4, fiber_ks(4, 2), spec)
    assert not pool_failures and want and failures == want == ["gap_stalled"] * len(want)
    assert len(pairs) == max(1, int(spec.count * fibers.ADVERSARIAL_FRACTION) // 8)
    assert all(len(flags.sources[i]) <= spec.word_length for pair in pairs for i in pair)
    report = fl.check_transversality(sym4, 2, spec, radius=None)
    assert report.sample_failures == {"non_finite_gap": 0, "gap_stalled": len(failures), "gap_short": 0}


def test_flag_pool_fails_on_a_failed_pool_word(sym4, monkeypatch):
    # a pool word that gives no flag is no count beside a verdict: the
    # check stops with the pool sample's error, which names that word
    spec = TripleSpec(count=300, seed=5, pool_size=24)
    bad = W.random_cyclic_words(sym4.presentation, spec.pool_size, spec.word_length, spec.seed)[3]
    monkeypatch.setattr(fibers, "boundary_samples", _failing(certify.boundary_samples, lambda w: w == bad, "gap_stalled"))
    with pytest.raises(NotAnosovError, match=f"^only 23/24 boundary samples succeeded; first failure: "
                                             f"gap stalled at 0.0000 along {W.word_to_str(bad)};"):
        fl.check_transversality(sym4, 2, spec, radius=None)


def _one_attempt_pool(rep, ks, spec, sampler):
    """fibers._flag_pool drawn and walked one adversarial attempt at a
    time, with sampler: the pool of limit_set_sample, the first near pairs
    in draw order, and the pool's failure codes, then those of the
    distinct failed pair words up to the attempt that completed the last
    pair.  Returns the flags, the pairs, the failures and the pool's
    failures."""
    p = rep.presentation
    pool, pool_failures = certify.limit_set_sample(rep, ks, spec.pool_size, spec.word_length, spec.seed)
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0xADF)))
    n_pairs = max(1, int(spec.count * fibers.ADVERSARIAL_FRACTION) // 8)
    walked, failed, accepted = {}, {}, []
    for _ in range(60 * n_pairs):
        if len(accepted) == n_pairs:
            break
        stem = W.random_word(p, int(rng.integers(2, spec.word_length + 1)), rng)
        words = [W.cyclic_reduce(W.reduce(stem + W.random_word(p, 2, rng), p)) for _ in range(2)]
        if not all(words) or words[0] == words[1]:
            continue
        new = [w for w in words if w not in walked]
        flags, errors = sampler(rep, new, ks)
        done = iter(range(len(flags)))
        walked.update((w, flags[next(done)] if e is None else e[0]) for w, e in zip(new, errors))
        failed.update((w, walked[w]) for w in words if isinstance(walked[w], str) and w not in failed)
        if all(isinstance(walked[w], FlagStack) for w in words):
            pair = FlagStack.concat(*(walked[w] for w in words))
            if 3e-6 <= point_dists(pair, [0], [1])[0] <= 2e-2:
                accepted.append(pair)
    pairs = [(len(pool) + 2 * i, len(pool) + 2 * i + 1) for i in range(len(accepted))]
    return FlagStack.concat(pool, *accepted), pairs, pool_failures + list(failed.values()), pool_failures


@pytest.mark.parametrize("name, k, fail", [("sym4", 2, False), ("sym3", 1, False), ("sym4", 2, True)])
def test_flag_pool_walks_each_pair_word_once(name, k, fail, monkeypatch):
    # hyperconvex-sym4's flag pool (with fail, every word of odd length that
    # starts with a generator fails) is that of drawing and walking one
    # adversarial attempt at a time: the same flags, pairs and failures,
    # with every word walked once and a failed word counted at most once
    sampler = certify.boundary_samples
    if fail:
        sampler = _failing(sampler, lambda w: len(w) % 2 == 1 and w[0] > 0, "gap_short")
    rep, spec = fl.preset(name), TripleSpec(count=4000, seed=5)
    ks = fiber_ks(rep.dim, k)
    monkeypatch.setattr(certify, "boundary_samples", sampler)
    want, want_pairs, want_failures, pool_failures = _one_attempt_pool(rep, ks, spec, sampler)
    walked, rejected = [], []

    def spy(rep, words, ks):
        flags, errors = sampler(rep, words, ks)
        walked.extend(words)
        rejected.extend(w for w, e in zip(words, errors) if e is not None)
        return flags, errors

    monkeypatch.setattr(certify, "boundary_samples", spy)
    monkeypatch.setattr(fibers, "boundary_samples", spy)
    flags, pairs, failures = _flag_pool(rep, ks, spec)
    assert flags.sources == want.sources and pairs == want_pairs
    assert np.array_equal(flags.frames, want.frames) and np.array_equal(flags.quality, want.quality)
    assert failures == want_failures
    assert len(walked) == len(set(walked))
    if fail:
        # failed pair words walked after the last pair's attempt do not count
        assert len(pool_failures) < len(failures) < len(pool_failures) + len(rejected)


def test_benchmark_flag_pool_walks_twice(sym4, monkeypatch):
    # hyperconvex-sym4's pool shares the first pair chunk's walk, and the
    # second chunk, sized from the acceptance rate, completes the pairs
    real, calls = certify.boundary_samples, []

    def spy(rep, words, ks):
        calls.append(len(words))
        return real(rep, words, ks)

    monkeypatch.setattr(certify, "boundary_samples", spy)
    monkeypatch.setattr(fibers, "boundary_samples", spy)
    spec = TripleSpec(count=4000, seed=5)
    _, pairs, _ = _flag_pool(sym4, fiber_ks(4, 2), spec)
    assert len(pairs) == 150 and len(calls) == 2


def _word_bytes(name, length):
    """The budget's figure of one sampled word of a preset."""
    return 768 + 256 * fl.preset(name).dim ** 2 + 40 * length


def _sample(name, ks, count, length):
    return lambda: certify.limit_set_sample(fl.preset(name), ks, count, length, 1)


def _all_failing_sample():
    # every schottky word of length 200 passes the 372-nat spread: the
    # sample walks its 450 words once, then fails with the first one's message
    with pytest.raises(PrecisionError, match="only 0/450 .* first failure: non-finite gap along"):
        _sample("schottky", [1], 450, 200)()


# (run, charge): each charge >= 4 MiB, past a process's one-off allocations
# of about 0.8 MB at its first sampler call
_CHARGED_RUNS = {
    "sample-sym3-8": (_sample("sym3", [1, 2], 1300, 8), 1300 * _word_bytes("sym3", 8)),
    "sample-sym3-24": (_sample("sym3", [1, 2], 1100, 24), 1100 * _word_bytes("sym3", 24)),
    "sample-octagon-sym3-10": (_sample("octagon-sym3", [1, 2], 2001, 10), 2001 * _word_bytes("octagon-sym3", 10)),
    # 760 pool words, then 37 pairs: 6 * 37 + 16 pair words of length 10
    "hyperconvex-sym4": (lambda: fibers.check_transversality(
        fl.preset("sym4"), 2, TripleSpec(count=1000, pool_size=760), None), 998 * _word_bytes("sym4", 10)),
    "foliate-rows": (lambda: fibers.foliated_limit_sample(fl.preset("sym3"), 1, 100, 100), 100 * 100 * 512),
    "all-failing-sample": (_all_failing_sample, 450 * _word_bytes("schottky", 200)),
}


@pytest.mark.parametrize("case", list(_CHARGED_RUNS))
def test_sampler_peaks_under_the_charge_it_just_fits(monkeypatch, case):
    # the library charges each figure where it allocates: a byte less is
    # refused before any draw, and at the charge the traced peak stays below it
    run, charge = _CHARGED_RUNS[case]
    monkeypatch.setattr(certify, "SWEEP_BUDGET", charge - 1)
    monkeypatch.setattr(certify, "boundary_samples", None)
    with pytest.raises(CapacityError, match="the budget is"):
        run()
    monkeypatch.undo()
    monkeypatch.setattr(certify, "SWEEP_BUDGET", charge)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charge >= 4 << 20 and peak < charge


def test_nan_triple_score_is_skipped(sym4, monkeypatch):
    import flaglab.fibers as fibers

    spec = TripleSpec(count=300, seed=5, pool_size=24)
    base = fl.check_transversality(sym4, 2, spec, radius=None)
    real = fibers.fiber_angles
    calls = []

    def nan_every_other(p, q):
        # every other row of each block: the angles are only taken for the
        # triples whose projections did not fault
        out = real(p, q)
        out[1::2] = np.nan
        calls.append(out[1::2].size)
        return out

    # the triples drawn do not depend on the scores, so exactly the NaN
    # scores move from tested to skipped (min(1.0, nan) would read as 1.0)
    monkeypatch.setattr(fibers, "fiber_angles", nan_every_other)
    rpt = fl.check_transversality(sym4, 2, spec, radius=None)
    nans = sum(calls)
    assert nans > 0
    assert rpt.triples_tested == base.triples_tested - nans
    assert rpt.skipped == base.skipped + nans
    degenerate = [r.skip_reasons["degenerate_score"] for r in (base, rpt)]
    assert degenerate[1] == degenerate[0] + nans


def _crafted_stack(rep, k, ks, spec, rng):
    """The sweep's flags (pool, then adversarial pairs) plus flags made to
    fault, and triples that use them: a twin t of pool[0] (its frame under
    another source) vanishes the reference of (pool[0], t, .) and makes an
    ambiguous line of (t, ., pool[0]); for k >= 2 a flag c whose
    (d-k)-space holds the (k-1)-space of pool[1] collapses (c, ., pool[1])."""
    flags, pairs, _ = _flag_pool(rep, ks, spec)
    assert len(pairs)
    d = rep.dim
    t = len(flags)
    made = [FlagStack([(9, 9, 9)], flags.frames[:1], ks, [0.0])]
    crafted = [(0, t, 2), (t, 3, 0)]
    if k >= 2:
        cols = [flags.frames[1, :, : k - 1], rng.standard_normal((d, d - k + 1)) + 0j]
        q, _ = np.linalg.qr(np.concatenate(cols, axis=1))
        made.append(FlagStack([(9, 9, 8)], q[None], ks, [0.0]))
        crafted.append((t + 1, 4, 1))
    return FlagStack.concat(flags, *made), spec.pool_size, crafted


# The per-triple loop's arithmetic, written out once as the reference of the
# stacked kernels: one LAPACK call per matrix, NumPy's scalar norm and abs.


def _loop_line(a, b):
    u, s, _ = np.linalg.svd(a.conj().T @ b)
    if s[0] < 1.0 - LINE_SOFT_TOL or (s.size > 1 and s[1] >= 1.0 - LINE_UNIQUE_TOL):
        raise PrecisionError("no unique line")
    return a @ u[:, 0]


def _loop_sines(a, b):
    perp = np.linalg.svd(b, full_matrices=True)[0][:, b.shape[1]:]
    return np.sort(np.clip(np.linalg.svd(perp.conj().T @ a, compute_uv=False), 0.0, 1.0))


def _loop_dist(a, b):
    cos = np.clip(np.linalg.svd(a.conj().T @ b, compute_uv=False), 0.0, 1.0)
    return math.atan2(float(_loop_sines(a, b)[-1]), float(cos[-1]))


def _loop_normalized(num, a, b):
    ref = float(_loop_sines(a, b)[-1])
    if not (np.isfinite(num) and np.isfinite(ref)) or ref < 1e-12:
        raise PrecisionError("degenerate score")
    return min(1.0, num / ref)


def _loop_frame(z, k):
    """The fiber frame of the one-row stack z, from its 2-D row alone."""
    frame, ok = frame_quotients(z.space(k + 1)[0], z.space(k - 1)[0])
    if not ok:
        raise PrecisionError(f"fiber frame at k={k} is not 2-dimensional")
    return frame


def _loop_pair(z, x, k):
    d = z.ambient_dim
    coords = _loop_frame(z, k).conj().T @ _loop_line(x.space(d - k)[0], z.space(k + 1)[0])
    norm = np.linalg.norm(coords)
    if norm < 1e-8:
        raise PrecisionError("collapsed")
    return coords / norm


def _loop_eq1(x, y, z, k):
    d = z.ambient_dim
    num = float(abs(det2(_loop_pair(z, x, k), _loop_pair(z, y, k))))
    return _loop_normalized(num, x.space(d - k)[0], y.space(d - k)[0])


def _loop_hk(x, y, z, k):
    d = z.ambient_dim
    upper = z.space(d - k + 1)[0]
    vx = _loop_line(x.space(k)[0], upper)
    vy = _loop_line(y.space(k)[0], upper)
    cols = np.concatenate([vx[:, None], vy[:, None], z.space(d - k - 1)[0]], axis=1)
    smin = float(np.linalg.svd(cols, compute_uv=False)[-1])
    return _loop_normalized(smin, x.space(k)[0], y.space(k)[0])


@pytest.mark.parametrize("name,k", [("sym4", 2), ("sym3", 1)])
def test_block_scores_equal_one_row_scores_bitwise(name, k):
    """Every decision and score of the block scorers equals, with ==, that
    of the per-triple loop's arithmetic, one triple at a time, on pools with
    adversarial pairs and on triples made to fault; so does every stacked
    point distance."""

    def outcome(loop, *args):
        try:
            return loop(*args)
        except PrecisionError:
            return None

    rep = fl.preset(name)
    rng = np.random.default_rng(3)
    spec = TripleSpec(count=400, seed=5, pool_size=24)
    hk_ks = sorted({k, rep.dim - k + 1, rep.dim - k - 1} - {0, rep.dim})
    seen = set()
    for block, loop, ks in (
        (_eq1_scores, _loop_eq1, fiber_ks(rep.dim, k)),
        (_hk_scores, _loop_hk, hk_ks),
    ):
        flags, n_pool, crafted = _crafted_stack(rep, k, ks, spec, rng)
        n = len(flags)
        drawn = [rng.choice(n, size=3, replace=False) for _ in range(300)]
        # z from the pool, as in the sweep
        drawn = [t for t in drawn if t[2] < n_pool] + crafted
        ix, iy, iz = np.array(drawn).T
        scores, fault = block(k, flags, ix, iy, iz)
        j = flags.ks[0]
        dists = point_dists(flags, ix, iz)
        for row, (a, b, c) in enumerate(drawn):
            x, y, z = (flags[i] for i in (a, b, c))
            assert dists[row] == _loop_dist(x.space(j)[0], z.space(j)[0])
            expected = outcome(loop, x, y, z, k)
            if expected is None:
                assert fault[row] != SCORED and np.isnan(scores[row]), (block, row)
            else:
                assert fault[row] == SCORED and scores[row] == expected, (block, row)
        seen |= set(fault.tolist())
    assert seen >= {SCORED, DEGENERATE, AMBIGUOUS} | ({COLLAPSED} if k >= 2 else set())


# the case ids keep the names of the per-mode checks these cases ran first
@pytest.mark.parametrize("mode", ["eq1", "Hk"], ids=["check_hyperconvex", "check_Hk"])
def test_sweep_report_does_not_depend_on_block(sym4, monkeypatch, mode):
    import flaglab.fibers as fibers

    spec = TripleSpec(count=300, seed=5, pool_size=24)
    base = fl.check_transversality(sym4, 2, spec, radius=None, mode=mode)
    assert list(base.skip_reasons) == list(fibers.SKIP_REASONS)
    assert sum(base.skip_reasons.values()) == base.skipped
    for block in (1, 7):
        monkeypatch.setattr(fibers, "BLOCK", block)
        assert fl.check_transversality(sym4, 2, spec, radius=None, mode=mode) == base


def test_hk_vacuous_d2(schottky):
    rpt = fl.check_transversality(schottky, 1, TripleSpec(count=200, seed=5), radius=None, mode="Hk")
    assert rpt.verdict == "passes"


def test_hk_duality_with_contragredient(sym4, schottky):
    spec = TripleSpec(count=800, seed=5)
    for rep, k in ((sym4, 2), (schottky, 1)):
        eq1 = fl.check_transversality(rep, k, spec, radius=None)
        hk = fl.check_transversality(contragredient(rep), k, spec, radius=None, mode="Hk")
        assert eq1.verdict == hk.verdict == "passes"


def test_sym_family_passes_hk(sym4):
    rpt = fl.check_transversality(sym4, 2, TripleSpec(count=800, seed=6), radius=None, mode="Hk")
    assert rpt.verdict == "passes"
    assert rpt.min_transversality >= 1e-3


def test_eq1_score_symmetric_in_xy(sym4, sym4_flags):
    flags = sym4_flags[[3, 11, 20]]
    # (x, y, z) and (y, x, z)
    scores, fault = _eq1_scores(2, flags, np.array([0, 1]), np.array([1, 0]), np.array([2, 2]))
    assert (fault == SCORED).all() and scores[0] < 1.0
    assert scores[0] == pytest.approx(scores[1], rel=1e-10)


# --- fiber frames -----------------------------------------------------------------


@pytest.mark.parametrize("name,k", [("sym4", 2), ("octagon-sym3", 1)])
def test_fiber_gauge_is_the_frame_bits(name, k):
    """A fiber frame is a function of the bits of its flag's frame: a copy
    of a flag gets the same frame, every row of a stack's fiber frames is
    its one-row sub-stack's and its 2-D row's own, and a trivialization
    reads the same map and cocycle on a copy as on the flag."""
    rep = fl.preset(name)
    flags, _ = fl.limit_set_sample(rep, fiber_ks(rep.dim, k), count=24, length=8, seed=2)
    copies = FlagStack(flags.sources, flags.frames.copy(), flags.ks, flags.quality)
    frames, ok = flags.fiber_frames(k)
    assert ok.all()
    for f, c, row in zip(flags, copies, frames):
        assert np.array_equal(_fiber_frame(c, k), _fiber_frame(f, k))
        assert np.array_equal(row, _fiber_frame(f, k))
        assert np.array_equal(row, _loop_frame(f, k))
    triv = fl.Trivialization(k, flags[:3])
    for f, c in zip(flags[3:9], copies[3:9]):
        assert np.array_equal(triv.fiber_map(c), triv.fiber_map(f))
        (mc, gc), (mf, gf) = cocycle(rep, triv, (1, 2), c), cocycle(rep, triv, (1, 2), f)
        assert np.array_equal(mc, mf) and np.array_equal(gc.frames, gf.frames)


def test_missing_fiber_frame_collapses_and_stack_spaces(sym3_flags, sym4_flags):
    """A flag whose columns k and k+1 coincide has no fiber frame: alone it
    raises, as a chart base it charts nothing, and as the z of a triple in
    a stack it gets a zero frame that collapses the triple.  A stack's
    spaces are, row by row, those of its one-row sub-stacks."""
    k = 1
    x, y = sym3_flags[0], sym3_flags[1]
    # the line where the 2-spaces of x and y meet, doubled: both project
    # onto it cleanly, into a fiber that is only 1-dimensional
    v, fault = line_intersections(x.space(2)[0], y.space(2)[0])
    assert fault == SCORED
    rest = np.linalg.qr(np.stack([v, x.frames[0, :, 0], x.frames[0, :, 1]], axis=1))[0][:, 2]
    bad = FlagStack([(9, 9, 9)], np.stack([v, v, rest], axis=1)[None], [1, 2], [0.0])
    with pytest.raises(PrecisionError, match="not 2-dimensional"):
        fl.tangent_project(bad, sym3_flags[:6], k)
    charts, uncovered = grassmann_charts(sym3_flags[:6], k, bad)
    assert [c.shape for c in charts.values()] == [(0, 3)] and uncovered == list(range(6))
    flags = FlagStack.concat(sym3_flags[:2], bad)
    frames, ok = flags.fiber_frames(k)
    assert ok.tolist() == [True, True, False] and not frames[2].any()
    assert not bad.fiber_frames(k)[1].any()
    scores, fault = _eq1_scores(k, flags, np.array([0]), np.array([1]), np.array([2]))
    assert fault.tolist() == [COLLAPSED] and np.isnan(scores).all()

    stack = FlagStack(sym4_flags.sources[:6], sym4_flags.frames[:6], [1, 3], sym4_flags.quality[:6])
    with pytest.raises(InputError, match="not 2"):
        stack.space(2)
    assert np.array_equal(stack.space(4), np.broadcast_to(np.eye(4), (6, 4, 4)))
    for j in (0, 1, 3, 4):
        assert stack.space(j).shape == (6, 4, j)
        for i, row in enumerate(stack):
            assert np.array_equal(stack.space(j)[i], row.space(j)[0])


# --- Mobius cocycle ---------------------------------------------------------------


def test_cocycle_identity_word(sym3, sym3_flags):
    b, _ = mobius_cocycle(sym3, (), sym3_flags[4], 1)
    assert proj_matrix_dist(b, np.eye(2)) < 1e-10


def test_cocycle_identity_two_presets(schottky, sym3):
    """Trivialized cocycle over two presets; triples are skipped when a
    transported base lands unresolvably close to a trivialization section
    (the fiber map is then conditioned beyond float reach)."""
    rng = np.random.default_rng(0)
    for rep in (sym3, schottky):
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
        worst = 0.0
        checked = 0
        while checked < 150:
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
                continue  # contractual: transport too ill-conditioned to certify
            # the six distances from bt, abt (rows 0-1) to the basepoints
            near = point_dists(FlagStack.concat(bt, abt, basepoints), np.repeat(np.arange(2), 3),
                               np.tile(np.arange(2, 5), 2))
            if (near < 0.1).any():
                continue
            lhs, _ = cocycle(rep, triv, concat(p, alpha, beta), t)
            if np.linalg.norm(lhs, 2) ** 2 > 1e5:
                # entries of so loxodromic a Mobius matrix are not even
                # representable to the tolerance being asserted
                continue
            rb, bt2 = cocycle(rep, triv, beta, t)
            ra, _ = cocycle(rep, triv, alpha, bt2)
            worst = max(worst, proj_matrix_dist(lhs, ra @ rb))
            checked += 1
        assert worst < 1e-8, worst


def test_cocycle_naturality(sym3, sym3_flags):
    """Transporting a fiber point with the cocycle matches projecting the
    transported flags."""
    t, x = sym3_flags[4], sym3_flags[6]
    gamma = (1, 2)
    b, gt = mobius_cocycle(sym3, gamma, t, 1)
    [pair], _ = fl.tangent_project(t, x, 1)
    moved = b @ pair
    moved /= np.linalg.norm(moved)
    [image], _ = fl.tangent_project(gt, transport_flag(sym3, gamma, x), 1)
    assert fiber_angles(moved, image) < 1e-8


# --- trivializations ----------------------------------------------------------------


def test_basepoints_pinned(sym3, sym3_flags):
    triv = fl.Trivialization(1, sym3_flags[:3])
    for t in sym3_flags[3:8]:
        pairs, rows = triv.project(t, triv.basepoints)
        assert rows.tolist() == [0, 1, 2]
        values = [chart(p) for p in pairs]
        assert abs(values[0]) < 1e-8
        assert abs(values[1] - 1.0) < 1e-8
        assert values[2] == INF


def test_two_trivializations_differ_by_global_mobius(sym3, sym3_flags):
    """Cross-ratios of corresponding trivialized fiber points agree exactly
    between two different trivializations."""
    t1 = fl.Trivialization(1, sym3_flags[:3])
    t2 = fl.Trivialization(1, sym3_flags[3:6])
    base = sym3_flags[7]
    vals1, rows1 = t1.project(base, sym3_flags[8:16])
    vals2, rows2 = t2.project(base, sym3_flags[8:16])
    assert rows1.tolist() == rows2.tolist() == list(range(8))
    for quad in [(0, 1, 2, 3), (2, 3, 4, 5), (1, 3, 5, 7)]:
        b1 = cross_ratio(*[vals1[i] for i in quad])
        b2 = cross_ratio(*[vals2[i] for i in quad])
        assert abs(b1 - b2) < 1e-10 * max(1.0, abs(b1))


def test_foliated_sample_contract(octagon_sym3):
    sample = fl.foliated_limit_sample(octagon_sym3, 1, base_count=2, fiber_count=60, seed=5)
    assert len(sample.base_status) == 2
    assert all(st.startswith("ok=") for st in sample.base_status.values())
    again = fl.foliated_limit_sample(octagon_sym3, 1, base_count=2, fiber_count=60, seed=5)
    assert [(r.base_word, r.fiber_word, r.value) for r in sample.rows] == [
        (r.base_word, r.fiber_word, r.value) for r in again.rows
    ]


@pytest.mark.parametrize(
    "name,k,seed,faults", [("sym4", 2, 3, True), ("octagon-sym3", 1, 5, False)]
)
def test_foliated_sample_equals_loop_bitwise(name, k, seed, faults):
    """Rows and ok=/failed= counts equal a per-fiber reference built from
    _loop_line and fiber_map(t) @ pair.  The sym4 sample has a failed base
    and bases that drop fibers; on octagon-sym3 an einsum or pairs @ m.T in
    place of the per-pair product changes the bits."""
    rep = fl.preset(name)
    d = rep.dim
    sample = fl.foliated_limit_sample(rep, k, base_count=4, fiber_count=150, seed=seed)
    flags, _ = fl.limit_set_sample(rep, fiber_ks(d, k), count=4 + 150 + 8, length=8, seed=seed)
    row = {w: i for i, w in enumerate(flags.sources)}
    triv = fl.Trivialization(k, flags[[row[w] for w in sample.basepoint_words]])
    skip = set(sample.basepoint_words) | set(sample.base_status)
    fibers = flags[[w not in skip for w in flags.sources]][:150]
    rows, status = [], {}
    for t in (flags[row[w]] for w in sample.base_status):
        try:
            m = triv.fiber_map(t)
        except PrecisionError as exc:
            with pytest.raises(PrecisionError):
                [_loop_pair(t, b, k) for b in triv.basepoints]
            status[t.sources[0]] = f"base failed: {exc}"
            continue
        assert np.array_equal(m, three_point_map(*[_loop_pair(t, b, k) for b in triv.basepoints]))
        failed = 0
        for x in fibers:
            try:
                v = chart(m @ _loop_pair(t, x, k))
            except PrecisionError:
                failed += 1
                continue
            inf_flag = not np.isfinite(v.real)
            rows.append((t.sources[0], x.sources[0], 0j if inf_flag else v, inf_flag))
        status[t.sources[0]] = f"ok={len(fibers) - failed} failed={failed}"
    assert [(r.base_word, r.fiber_word, r.value, r.at_infinity) for r in sample.rows] == rows
    assert sample.base_status == status
    assert any(not v.endswith(" failed=0") for v in status.values()) == faults


def test_three_point_coincidence_fails_only_the_base(octagon_sym3, monkeypatch):
    import flaglab.fibers as fibers

    original = fibers.three_point_map
    # coincident projections are computed data, so each base is recorded as
    # failed instead of the whole sample being rejected as bad input
    monkeypatch.setattr(fibers, "three_point_map", lambda a, b, c: original(a, a, c))
    sample = fl.foliated_limit_sample(octagon_sym3, 1, base_count=2, fiber_count=20, seed=5)
    assert sample.rows == []
    assert list(sample.base_status.values()) == [
        "base failed: three_point_map needs pairwise distinct points"
    ] * 2


def test_foliated_continuity_probe(sym3):
    """Nearby bases produce nearby trivialized fiber sets (finite-resolution
    continuity).  A perturbed representation is used so the fiber sets
    genuinely vary with the base."""
    rep = perturb(sym3, 0.02, 2)
    flags, _ = fl.limit_set_sample(rep, [1, 2], count=40, length=8, seed=3)
    triv = fl.Trivialization(1, flags[:3])
    p = rep.presentation
    w1 = (1, 2, 1, 2, -1, 2, 1, 1)
    w2 = W.cyclic_reduce(W.reduce(w1[:4] + (1,) + w1[5:], p))
    f1, f2 = fl.boundary_samples(rep, [w1, w2], [1, 2])[0]
    assert flag_dist(f1, f2) < 1e-2

    def cloud(base):
        pairs, _ = triv.project(base, flags[3:])
        return sphere_xyz(pairs)

    c1, c2 = cloud(f1), cloud(f2)
    dots = np.clip(c1 @ c2.T, -1.0, 1.0)
    hausdorff = max(
        float(np.max(np.arccos(np.max(dots, axis=1)))),
        float(np.max(np.arccos(np.max(dots, axis=0)))),
    )
    assert hausdorff < 0.1


def test_bundle_injectivity_scan(sym3, sym3_flags):
    triv = fl.Trivialization(1, sym3_flags[:3])
    bases = sym3_flags[3:13]
    fibers = sym3_flags[13:]
    for t in bases:
        arr, _ = triv.project(t, fibers)
        dets = np.abs(det2(arr[:, None], arr[None, :])) + np.eye(len(arr))
        assert dets.min() > 0.0


# --- wedge transfer maps ---------------------------------------------------------


def test_pencil_contains_wedge_of_middle_space(sym4_flags):
    z = sym4_flags[0]
    pencil = wedge_pencil(z, 2)
    line = plucker(z.space(2)[0])
    assert frame_cosines(line, pencil)[0] > 1.0 - 1e-10


def test_bundle_diagram_commutes(sym4, sym4_flags):
    checked = 0
    worst = 0.0
    for i in range(40):
        z = sym4_flags[i]
        ys = sym4_flags[[j for j in range(40) if j != i and _resolvable(z, sym4_flags[j])]]
        pairs, rows = fl.tangent_project(z, ys, 2)
        assert len(rows) == len(ys)
        for pair, y in zip(pairs, ys):
            line = fiber_wedge_line(z, 2, pair)
            worst = max(worst, hausdorff_subspace_dist(line, wedge_fiber_point(z, y, 2)))
            checked += 1
    assert checked > 300
    assert worst < 1e-8


def _resolvable(z, y, floor: float = 1e-6) -> bool:
    cosA = frame_cosines(y.space(2)[0], z.space(3)[0])
    if len(cosA) > 1 and 1.0 - cosA[1] < floor:
        return False
    cosB = frame_cosines(wedge_pencil(z, 2), wedge_hyperplane(y, 2))
    return not (len(cosB) > 1 and 1.0 - cosB[1] < floor)


def test_wedge_transfer_hyperconvexity(sym4):
    base = fl.check_transversality(sym4, 2, TripleSpec(count=800, seed=5), radius=None)
    lifted = fl.check_transversality(
        wedge_rep(sym4, 2), 1, TripleSpec(count=800, seed=5), radius=None
    )
    assert base.verdict == "passes"
    assert lifted.verdict == "passes"


def test_wedge_limit_set_is_plucker_image(sym4):
    wrep = wedge_rep(sym4, 2)
    for word in [(1, 2), (2, -1, 1, 1), (1, 2, -1, 2)]:
        down, _ = fl.boundary_samples(sym4, [word], [2])
        up, _ = fl.boundary_samples(wrep, [word], [1])
        assert hausdorff_subspace_dist(plucker(down.space(2)[0]), up.space(1)[0]) < 1e-6
