"""Tangent projections, hyperconvexity scores and the trivialized fibers
of the projective-line bundle over the boundary.

Flags come as one format, certify.FlagStack: a set of boundary flags is
one (n, d, d) stack of frames, and a single flag is a one-row stack.
Every flag z with spaces k-1 and k+1 carries a projective line: the
quotient of its (k+1)-space by its (k-1)-space, worked with through the
orthonormal 2-frame of FlagStack.fiber_frames(k).  subspaces.frame_quotients
computes it from the bits of z's frame alone, so flags with equal frames
share their fiber gauge.  Other boundary points x project into that line
by intersecting their (d-k)-space with the (k+1)-space of z; a projected
point is its pair of coordinates in that frame, a vector in C^2.

check_transversality is the hyperconvexity check, in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from . import words as W
from .certify import FlagStack, boundary_samples, budget, budget_words, certificates, failure_counts, limit_set_sample
from .errors import InputError, NotAnosovError, PrecisionError
from .mobius import chart, det2, sphere_xyz, three_point_map
from .reps import Representation
from .subspaces import frame_dists, frame_sines
from .words import Word

TAU_PASS = 1e-3
TAU_FAIL = 1e-7
LINE_SOFT_TOL = 1e-6
LINE_UNIQUE_TOL = 1e-12  # at this level the line is below the frame noise floor
ADVERSARIAL_FRACTION = 0.3  # share of triples drawn from adversarial near-pairs
ADVERSARIAL_SUFFIX = 2  # length of the two tails that split a pair off its stem
MIN_BASE_SEPARATION = 0.01  # least distance from the projection base to x and y
CHART_FLOOR = 0.1  # least transversality (smallest principal sine) of a charted flag to the anchor
BLOCK = 512  # triples scored per stacked block: bounds the sweep's memory for any count

# Why a drawn triple was skipped, in the order the report counts them; the
# stacked kernels return one of these codes per row, or SCORED.
SKIP_REASONS = (
    "duplicate_source",  # two of x, y, z come from one source word
    "near_base",  # z within MIN_BASE_SEPARATION of x or y
    "soft_intersection",  # top principal cosine of a line intersection below tolerance
    "ambiguous_line",  # second principal cosine too close to 1 for a unique line
    "collapsed_projection",  # projected line inside the (k-1)-space (or no fiber frame)
    "degenerate_score",  # non-finite score or vanished reference separation
)
DUPLICATE, NEAR, SOFT, AMBIGUOUS, COLLAPSED, DEGENERATE = range(len(SKIP_REASONS))
SCORED = -1
_FAULT_MESSAGES = {
    SOFT: "intersection cosine below tolerance",
    AMBIGUOUS: "intersection not 1-dimensional",
    COLLAPSED: "projected line collapsed into the (k-1)-space",
}


def fiber_ks(d: int, k: int) -> list[int]:
    """Flag indices a fiber at index k needs: k-1 and k+1 for the line,
    k for a Grassmannian chart anchor and d-k for the projected
    directions."""
    if not 1 <= k <= d - 1:
        raise InputError(f"k={k} out of range 1..{d - 1}")
    return sorted({j for j in (k - 1, k, k + 1, d - k) if 0 < j < d})


def line_intersections(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (..., d) spanning the 1-dimensional intersections of
    the frames of two stacks (..., d, p) and (..., d, q), row by row, and a
    fault code per row: SOFT when the top principal cosine is below
    1 - LINE_SOFT_TOL, AMBIGUOUS when the second one is within
    LINE_UNIQUE_TOL of 1, SCORED otherwise."""
    u, s, _ = np.linalg.svd(a.conj().swapaxes(-1, -2) @ b)
    fault = np.where(s[..., 0] < 1.0 - LINE_SOFT_TOL, SOFT, SCORED)
    if s.shape[-1] > 1:
        fault = np.where((fault == SCORED) & (s[..., 1] >= 1.0 - LINE_UNIQUE_TOL), AMBIGUOUS, fault)
    return (a @ u[..., :1])[..., 0], fault


def fiber_coords(frame, upper, lines) -> tuple[np.ndarray, np.ndarray]:
    """Tangent projections, row by row: the lines where the (d-k)-spaces
    lines (..., d, d-k) meet the (k+1)-spaces upper (..., d, k+1), as unit
    2-vectors in the fiber frames frame (..., d, 2).  Returns them with the
    fault codes of line_intersections, or COLLAPSED where the line falls
    into the (k-1)-space; a faulted row holds no usable pair."""
    v, fault = line_intersections(lines, upper)
    coords = (frame.conj().swapaxes(-1, -2) @ v[..., None])[..., 0]
    # the bits of np.linalg.norm on one pair (a row-wise norm rounds differently)
    norm = np.sqrt(np.vecdot(coords.real, coords.real) + np.vecdot(coords.imag, coords.imag))
    fault = np.where((fault == SCORED) & (norm < 1e-8), COLLAPSED, fault)
    with np.errstate(divide="ignore", invalid="ignore"):
        return coords / norm[..., None], fault


def _fiber_frame(base: FlagStack, k: int) -> np.ndarray:
    """The (d, 2) fiber frame of the one-row stack base, or PrecisionError."""
    frames, ok = base.fiber_frames(k)
    if not ok[0]:
        raise PrecisionError(f"fiber frame at k={k} is not 2-dimensional")
    return frames[0]


def tangent_project(base: FlagStack, flags: FlagStack, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Project the boundary directions of the stack flags into the
    projective line of the one-row stack base, all in one fiber_coords call.

    Returns the unit 2-vectors (homogeneous pairs) (m, 2) in base's fiber
    frame and the rows of flags they came from.  base's own source is
    skipped and a flag whose projection faults is dropped; a base with no
    fiber frame raises PrecisionError.
    """
    frame = _fiber_frame(base, k)
    rows = np.flatnonzero([w != base.sources[0] for w in flags.sources])
    lines = flags.space(base.ambient_dim - k)[rows]
    pairs, fault = fiber_coords(frame, base.space(k + 1)[0], lines)
    keep = fault == SCORED
    return pairs[keep], rows[keep]


def grassmann_charts(
    flags: FlagStack, k: int, anchors: FlagStack
) -> tuple[dict[str, np.ndarray], list[int]]:
    """Tangent-projection charts of a Grassmannian flag sample.

    Each anchor z charts the flags whose (d-k)-space stays CHART_FLOOR
    transverse to z's k-space (smallest principal sine, one frame_sines
    call per anchor), projected into the projective line at z (one
    tangent_project call) as unit vectors by sphere_xyz.  An anchor with
    no fiber frame charts nothing: its cloud is empty.  Returns ({anchor
    word: (m, 3) cloud}, rows of flags that no chart covers).
    """
    if not len(anchors):
        raise InputError("need at least one chart anchor")
    lines = flags.space(anchors.ambient_dim - k)
    framed = anchors.fiber_frames(k)[1]
    covered = np.zeros(len(flags), dtype=bool)
    charts: dict[str, np.ndarray] = {}
    for i, perp in enumerate(anchors.complement(k)):
        pairs = np.empty((0, 2))
        if framed[i]:
            near = np.flatnonzero(frame_sines(lines, perp)[:, 0] >= CHART_FLOOR)
            pairs, kept = tangent_project(anchors[i], flags[near], k)
            covered[near[kept]] = True
        charts[W.word_to_str(anchors.sources[i])] = sphere_xyz(pairs)
    return charts, np.flatnonzero(~covered).tolist()


def point_dists(flags: FlagStack, a, b) -> np.ndarray:
    """Distances between the underlying boundary points of the flags a[i]
    and b[i] of the stack: the subspace distance at the smallest index
    they all carry.  Separation here is what controls the conditioning of
    tangent projections (osculation makes second principal angles shrink
    like a power of this distance)."""
    j = flags.ks[0]
    return frame_dists(flags.space(j)[a], flags.space(j)[b], flags.complement(j)[b])


def fiber_angles(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sines of the angles between unit fiber pairs (..., 2) over the same
    base, row by row; exact for tiny angles (a 2x2 determinant of unit
    columns).  np.hypot keeps the bits of the scalar abs."""
    det = det2(p, q)
    return np.hypot(det.real, det.imag)


# --- hyperconvexity -------------------------------------------------------


@dataclass(frozen=True)
class TripleSpec:
    """Sampling plan for transversality sweeps: a mix of uniform random
    word triples and adversarial triples whose x, y share a long prefix
    (the score degenerates along the diagonal, so that is where to probe)."""

    count: int = 1000
    seed: int = 1
    word_length: int = 8
    pool_size: int = 64
    tau: float = TAU_PASS

    def __post_init__(self):
        if self.count < 1:
            raise InputError(f"count must be >= 1, got {self.count}")
        if self.word_length < 2:
            raise InputError(f"word_length must be >= 2 to draw near pairs, got {self.word_length}")
        if self.pool_size < 3:
            raise InputError(f"pool_size must be >= 3 to draw a triple, got {self.pool_size}")
        if not TAU_FAIL <= self.tau <= 1.0:
            raise InputError(f"tau must lie in [{TAU_FAIL:g}, 1], got {self.tau}")


@dataclass(frozen=True)
class HyperconvexityReport:
    mode: str  # "eq1" or "Hk"
    k: int
    triples_tested: int
    skipped: int
    min_transversality: float
    worst_triple: tuple[Word, Word, Word]
    verdict: str  # passes | fails | inconclusive
    skip_reasons: dict[str, int]  # in SKIP_REASONS order; the counts sum to skipped
    sample_failures: dict[str, int]  # failed adversarial pair words, by FAILURE_REASONS code


def _pair_count(spec: TripleSpec) -> int:
    """The adversarial near-pairs _flag_pool draws for spec."""
    return max(1, int(spec.count * ADVERSARIAL_FRACTION) // 8)


def _chunk_cap(spec: TripleSpec) -> int:
    """The most adversarial attempts, two words each, in one _flag_pool chunk."""
    return 2 * _pair_count(spec) + 8


def _flag_pool(rep: Representation, ks, spec: TripleSpec):
    """The sweep's flags, its adversarial near-pairs and the failed words.

    Returns one FlagStack (the pool's spec.pool_size flags, then the
    adversarial flags two by two), the (x, y) rows of its adversarial
    pairs and the FAILURE_REASONS codes of the distinct failed pair words
    among the attempts up to the one that completed the last pair (all
    attempts if the pairs ran out).  A failed pool word raises
    limit_set_sample's error.

    Adversarial attempts are drawn in chunks, in the order a one-by-one
    loop would draw them, and the pairs accepted are the first near ones
    in draw order, so neither they nor the failures depend on the chunk
    sizes.  A word's walk does not depend on its batch, so walk walks each
    word once, into the memo walked: its first call walks the pool's words
    with the first chunk, and limit_set_sample, sampling the pool through
    walk, reads them from the memo.  A later chunk holds 5/4
    of the attempts the missing pairs take at the acceptance rate so far,
    plus 8, and never more than _chunk_cap, the first chunk's size."""
    p = rep.presentation
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0xADF)))
    n_pairs = _pair_count(spec)
    max_attempts = 60 * n_pairs
    walked: dict[Word, FlagStack | tuple] = {}  # a word's one-row flag, or its rejection

    def walk(rep, words, ks):
        """boundary_samples(rep, words, ks), walking only the words not yet in walked."""
        new = [w for w in dict.fromkeys(words) if w not in walked]
        if new:
            flags, rejected = boundary_samples(rep, new, ks)
            done = (flags[i] for i in range(len(flags)))
            walked.update((w, next(done) if e is None else e) for w, e in zip(new, rejected))
        rejected = [None if isinstance(walked[w], FlagStack) else walked[w] for w in words]
        empty = FlagStack([], np.empty((0, rep.dim, rep.dim)), ks, [])
        return FlagStack.concat(*(walked[w] for w, e in zip(words, rejected) if e is None), empty), rejected

    # the words limit_set_sample draws for the pool, walked with the first chunk
    first = W.random_cyclic_words(p, spec.pool_size, spec.word_length, spec.seed)
    accepted, drawn = [], []  # drawn: the pair words of the attempts that count
    found = attempts = 0
    # pairs closer than ~1e-5 can no longer be resolved in floats (the
    # normalized score converges as the pair degenerates, so nothing is
    # learned below the resolvability floor anyway)
    floor, ceiling = 3e-6, 2e-2
    while found < n_pairs and attempts < max_attempts:
        # ceil(5/4 (n_pairs - found) attempts / found) + 8, in integers
        rated = -(-5 * (n_pairs - found) * attempts // (4 * found)) + 8 if found else max_attempts
        size = min(max_attempts - attempts, _chunk_cap(spec), rated)
        attempts += size
        chunk = []
        for _ in range(size):
            stem = W.random_word(p, int(rng.integers(2, spec.word_length + 1)), rng)
            wx, wy = (W.cyclic_reduce(W.reduce(stem + W.random_word(p, ADVERSARIAL_SUFFIX, rng), p))
                      for _ in range(2))
            if wx and wy and wx != wy:
                chunk += [wx, wy]
        walk(rep, first + chunk, ks)
        if first:
            pool, _ = limit_set_sample(rep, ks, spec.pool_size, spec.word_length, spec.seed, walk)
            first = []
        # the chunk's attempts whose two words were both sampled
        sampled = np.array([isinstance(walked[w], FlagStack) for w in chunk], dtype=bool)
        both = np.flatnonzero(sampled.reshape(-1, 2).all(axis=1))
        if both.size:
            flags = FlagStack.concat(*(walked[w] for i in both for w in chunk[2 * i: 2 * i + 2]))
            dists = point_dists(flags, slice(0, None, 2), slice(1, None, 2))
            near = np.flatnonzero((floor <= dists) & (dists <= ceiling))[: n_pairs - found]
            accepted.append(flags[(2 * near[:, None] + [0, 1]).ravel()])
            found += near.size
            if found == n_pairs:  # the attempts after the last pair's do not count
                chunk = chunk[: 2 * both[near[-1]] + 2]
        drawn += chunk
    failures = [walked[w][0] for w in dict.fromkeys(drawn) if not isinstance(walked[w], FlagStack)]
    pairs = [(len(pool) + 2 * i, len(pool) + 2 * i + 1) for i in range(found)]
    return FlagStack.concat(pool, *accepted), pairs, failures


def _draw_triple(rng, n_pool: int, pairs) -> tuple[int, int, int]:
    """Rows of one triple of the sweep's stack: x, y one of the adversarial
    pairs, or three distinct pool rows.  z always comes from the pool."""
    if pairs and rng.random() < ADVERSARIAL_FRACTION:
        x, y = pairs[int(rng.integers(len(pairs)))]
        return x, y, int(rng.integers(n_pool))
    ii = rng.choice(n_pool, size=3, replace=False)
    return int(ii[0]), int(ii[1]), int(ii[2])


def _transversality_sweep(rep, k, spec, ks, score_fn, mode) -> HyperconvexityReport:
    """Draw spec.count triples and score them BLOCK at a time.

    score_fn(flags, ix, iy, iz) scores the triples (flags[ix], flags[iy],
    flags[iz]) of a FlagStack and returns (scores, fault codes).  The
    triples, their skips and the first strict minimum in draw order do not
    depend on BLOCK."""
    flags, pairs, failures = _flag_pool(rep, ks, spec)
    ids: dict[Word, int] = {}
    source = np.array([ids.setdefault(w, len(ids)) for w in flags.sources])
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x7A1)))
    best = np.inf
    worst = (flags.sources[0],) * 3
    tested = 0
    skips = np.zeros(len(SKIP_REASONS), dtype=int)
    for start in range(0, spec.count, BLOCK):
        drawn = np.array([
            _draw_triple(rng, spec.pool_size, pairs)
            for _ in range(min(BLOCK, spec.count - start))
        ])
        ix, iy, iz = drawn.T
        sx, sy, sz = source[drawn.T]
        fault = np.where((sx == sy) | (sx == sz) | (sy == sz), DUPLICATE, SCORED)
        # the projection base must stay away from both directions; the x-y
        # closeness is exactly what the normalized score probes
        live = np.flatnonzero(fault == SCORED)
        near = (
            (point_dists(flags, ix[live], iz[live]) < MIN_BASE_SEPARATION)
            | (point_dists(flags, iy[live], iz[live]) < MIN_BASE_SEPARATION)
        )
        fault[live[near]] = NEAR
        live = live[~near]
        # a faulted triple has flags indistinguishable at the noise floor: it
        # is degenerate, not evidence (true failures surface as tiny scores)
        scores, fault[live] = score_fn(flags, ix[live], iy[live], iz[live])
        scored = fault[live] == SCORED
        tested += int(np.count_nonzero(scored))
        skips += np.bincount(fault[fault != SCORED], minlength=len(SKIP_REASONS))
        if scored.any():
            i = int(np.argmin(np.where(scored, scores, np.inf)))
            if scores[i] < best:
                best = scores[i]
                worst = tuple(flags.sources[j] for j in drawn[live[i]])
    skipped = int(skips.sum())
    if tested == 0:
        raise PrecisionError(f"all {skipped} drawn triples were skipped; no valid triple was tested")
    if best >= spec.tau:
        verdict = "passes"
    elif best < TAU_FAIL:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return HyperconvexityReport(
        mode=mode,
        k=k,
        triples_tested=tested,
        skipped=skipped,
        min_transversality=float(best),
        worst_triple=worst,
        verdict=verdict,
        skip_reasons=dict(zip(SKIP_REASONS, skips.tolist())),
        sample_failures=failure_counts(failures),
    )


def check_transversality(
    rep: Representation, k: int, spec: TripleSpec, radius: int | None, mode: str = "eq1"
) -> HyperconvexityReport:
    """Score spec's triples at index k in mode eq1 (the angle of the fiber
    lines of x and y at z, _eq1_scores) or Hk (the directness of x^k and
    y^k cut by z^{d-k+1} beside z^{d-k-1}, _hk_scores).  Scores are
    normalized by the separation of x and y, so that the unavoidable
    degeneration along the diagonal cancels out; a pass says the
    normalized collapse stayed above tau on every tested triple.  The
    mode's prerequisite Anosov indices are certified first over the radius
    ball (see certificates), and NotAnosovError names those left
    uncertified; a radius of None assumes them.  Before that, the budget
    is charged for the words _flag_pool may hold."""
    d = rep.dim
    if not 1 <= k <= d - 1:
        raise InputError(f"k={k} out of range 1..{d - 1}")
    if mode == "eq1":
        wanted, score_fn = {k - 1, k + 1, d - k}, _eq1_scores
    elif mode == "Hk":
        wanted, score_fn = {d - k + 1, d - k - 1, k}, _hk_scores
    else:
        raise InputError(f"unknown transversality mode {mode!r}; expected eq1 or Hk")
    # the pool's first batch walked with the first chunk's words (no later
    # chunk is larger) of up to word_length + 2 letters, and the pairs kept
    budget_words(rep, spec.pool_size + 2 * _chunk_cap(spec) + 2 * _pair_count(spec), spec.word_length + 2,
                 f"pool_size {spec.pool_size} with count {spec.count}")
    prereqs = sorted(j for j in wanted if 0 < j < d)
    if radius is not None:
        certs = certificates(rep, prereqs, radius)
        missing = [f"{c.k}:{c.verdict}" for c in certs if c.verdict != "certified"]
        if missing:
            raise NotAnosovError(f"uncertified prerequisite Anosov indices: {', '.join(missing)}")
    ks = fiber_ks(d, k) if mode == "eq1" else prereqs
    return _transversality_sweep(rep, k, spec, ks, partial(score_fn, k), mode)


def _eq1_scores(k: int, flags: FlagStack, ix, iy, iz) -> tuple[np.ndarray, np.ndarray]:
    """Block scorer of mode eq1: the fiber angle between x and y
    projected at z, normalized by the separation of their (d-k)-spaces.
    Returns the scores and fault codes of the triples (flags[ix],
    flags[iy], flags[iz]); a faulted row's score is NaN."""
    d = flags.ambient_dim
    frame = flags.fiber_frames(k)[0][iz]
    upper = flags.space(k + 1)[iz]
    lx, fault = fiber_coords(frame, upper, flags.space(d - k)[ix])
    ly, fault_y = fiber_coords(frame, upper, flags.space(d - k)[iy])
    fault = np.where(fault == SCORED, fault_y, fault)
    ok = fault == SCORED
    return _normalized_rows(fiber_angles(lx[ok], ly[ok]), fault, flags, d - k, ix, iy)


def _hk_scores(k: int, flags: FlagStack, ix, iy, iz) -> tuple[np.ndarray, np.ndarray]:
    """Block scorer of mode Hk: the smallest singular value of the lines
    x^k cap z^{d-k+1} and y^k cap z^{d-k+1} beside z^{d-k-1}, normalized by
    the separation of the k-spaces of x and y; returns like _eq1_scores."""
    d = flags.ambient_dim
    upper = flags.space(d - k + 1)[iz]
    vx, fault = line_intersections(flags.space(k)[ix], upper)
    vy, fault_y = line_intersections(flags.space(k)[iy], upper)
    fault = np.where(fault == SCORED, fault_y, fault)
    ok = fault == SCORED
    cols = np.concatenate([vx[ok, :, None], vy[ok, :, None], flags.space(d - k - 1)[iz[ok]]], axis=-1)
    smin = np.linalg.svd(cols, compute_uv=False)[:, -1]
    return _normalized_rows(smin, fault, flags, k, ix, iy)


def _normalized_rows(num, fault, flags: FlagStack, j: int, ix, iy) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the rows with fault SCORED, num holding their numerators
    in order: num over the largest principal sine between the j-spaces of
    x and y, capped at 1.  A non-finite part or a vanished reference (below
    1e-12) gives the fault DEGENERATE and the score NaN, so the triple is
    skipped instead of read as transverse (min(1.0, nan) is 1.0); NaN and
    the fault stay on the rows already faulted."""
    ok = np.flatnonzero(fault == SCORED)
    scores = np.full(fault.shape, np.nan)
    sines = frame_sines(flags.space(j)[ix[ok]], flags.complement(j)[iy[ok]])
    ref = sines[..., -1] if sines.shape[-1] else np.zeros(np.shape(num))
    bad = ~(np.isfinite(num) & np.isfinite(ref)) | (ref < 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores[ok] = np.where(bad, np.nan, np.minimum(1.0, num / ref))
    fault[ok] = np.where(bad, DEGENERATE, SCORED)
    return scores, fault


# --- trivialization -------------------------------------------------------


class Trivialization:
    """Fiberwise Mobius normalization sending the projections of three
    fixed boundary directions, the 3-row stack basepoints, to 0, 1,
    infinity in every fiber."""

    def __init__(self, k: int, basepoints: FlagStack):
        if len(basepoints) != 3:
            raise InputError("a trivialization needs three basepoint flags")
        if len(set(basepoints.sources)) != 3:
            raise InputError("trivialization basepoints must be pairwise distinct")
        self.k = k
        self.basepoints = basepoints

    def fiber_map(self, t: FlagStack) -> np.ndarray:
        """Mobius matrix of the normalization in the fiber over the one-row
        stack t, in t's fiber frame (a function of the bits of t's frame)."""
        lines = self.basepoints.space(t.ambient_dim - self.k)
        pairs, fault = fiber_coords(_fiber_frame(t, self.k), t.space(self.k + 1)[0], lines)
        if (fault != SCORED).any():
            raise PrecisionError(_FAULT_MESSAGES[int(fault[fault != SCORED][0])])
        return three_point_map(*pairs)

    def project(self, t: FlagStack, flags: FlagStack) -> tuple[np.ndarray, np.ndarray]:
        """tangent_project flags at t and normalize: pairs (m, 2) with the
        three basepoints at the classes of 0, 1 and infinity, and the rows
        of flags they came from."""
        m = self.fiber_map(t)
        pairs, rows = tangent_project(t, flags, self.k)
        # m @ pair row by row: the bits of the one-pair product
        return (m @ pairs[..., None])[..., 0], rows


@dataclass
class FiberRow:
    base_word: Word
    fiber_word: Word
    value: complex
    at_infinity: bool


@dataclass
class FoliatedSample:
    rows: list[FiberRow]
    base_status: dict[Word, str]
    basepoint_words: tuple[Word, Word, Word]


def foliated_limit_sample(
    rep: Representation,
    k: int,
    base_count: int,
    fiber_count: int,
    seed: int = 1,
    word_length: int = 8,
) -> FoliatedSample:
    """Trivialized fiber limit sets over sampled bases: for each base t the
    projections of fiber_count boundary directions, in Riemann-sphere
    coordinates with the three trivialization sections pinned at 0, 1, inf.
    Raises CapacityError before any draw when the rows, 512 bytes a fiber
    point (measured 384-450), or the base_count + fiber_count + 8 sampled
    words would pass the budget."""
    if base_count < 1 or fiber_count < 1:
        raise InputError(f"need at least one base and one fiber, got {base_count} and {fiber_count}")
    budget(base_count * fiber_count, 512, f"{base_count} bases of {fiber_count} fibers")
    ks = fiber_ks(rep.dim, k)
    flags, _ = limit_set_sample(rep, ks, base_count + fiber_count + 8, word_length, seed)
    # basepoints: the most spread triple of the first eight flags, so the
    # fiber normalizations stay conditioned; quality only orders the triple
    # (which basepoint goes to 0, 1 and inf)
    candidates = flags[np.argsort(flags.quality[:8], kind="stable")]
    pairs = list(combinations(range(len(candidates)), 2))
    a, b = np.array(pairs).T
    dist = dict(zip(pairs, point_dists(candidates, a, b).tolist()))
    best = max(
        combinations(range(len(candidates)), 3),
        key=lambda triple: min(dist[pair] for pair in combinations(triple, 2)),
    )
    trivialization = Trivialization(k, candidates[list(best)])
    flags = flags[[w not in trivialization.basepoints.sources for w in flags.sources]]
    bases = flags[:base_count]
    fibers = flags[[w not in bases.sources for w in flags.sources]][:fiber_count]
    rows: list[FiberRow] = []
    status: dict[Word, str] = {}
    for i, t in enumerate(bases.sources):
        try:
            pairs, kept = trivialization.project(bases[i], fibers)
        except PrecisionError as exc:
            status[t] = f"base failed: {exc}"
            continue
        for pair, j in zip(pairs, kept.tolist()):
            v = chart(pair)
            inf_flag = not np.isfinite(v.real)
            rows.append(FiberRow(t, fibers.sources[j], 0j if inf_flag else complex(v), inf_flag))
        # no fiber shares a base's source, so every missing row faulted
        status[t] = f"ok={len(kept)} failed={len(fibers) - len(kept)}"
    basepoint_words = tuple(trivialization.basepoints.sources)
    return FoliatedSample(rows, status, basepoint_words)
