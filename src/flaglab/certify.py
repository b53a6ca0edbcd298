"""Gap-growth certification and boundary flag samples.

A representation is certified along index k when the per-length minima of
the k-th singular value gap over a word ball grow affinely; boundary
points are realized as Cartan attractors (top singular subspaces) of high
powers of cyclically reduced words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import words as W
from .errors import CapacityError, FlaglabError, InputError, NotAnosovError, PrecisionError
from .prodsvd import ProductSVD
from .reps import Representation
from .subspaces import Subspace, hausdorff_subspace_dist, orth
from .words import Word

SWEEP_BUDGET = 1 << 29  # bytes of stacked (u, logs, vh) state one sweep level may hold
SLOPE_THRESHOLD = 0.01
R2_THRESHOLD = 0.95
TARGET_GAP = 18.0
MAX_LETTERS = 20000  # letters a boundary sample may absorb before giving up


def _spread_error(where: str) -> PrecisionError:
    """The graded product SVD's limit: past a log-singular spread of about
    745 nats the smallest singular values underflow and gaps stop being finite."""
    return PrecisionError(f"non-finite gap {where}: log-singular spread past about 745 nats")


@dataclass(frozen=True)
class GapSweep:
    """Per-length minima of every gap index over a word ball."""

    radius: int
    lengths: tuple[int, ...]
    minima: np.ndarray  # shape (radius, d-1)
    argmin_words: tuple[tuple[Word, ...], ...]  # [length-1][k-1]

    def minima_for(self, k: int) -> np.ndarray:
        return self.minima[:, k - 1]


def gap_sweep(rep: Representation, radius: int) -> GapSweep:
    """Sweep all freely reduced words of length 1..radius and record the
    minimum gap vector per length.

    One level per length, through the graded product SVD, so tiny gaps
    stay honest to ~1e-12: each letter is absorbed into the sub-stack of
    the parents it may follow.  Words are parent-index arrays, spelled out
    for the argmins only (the first minimal words in lexicographic order).
    Raises CapacityError before any work when the longest level would pass
    SWEEP_BUDGET bytes of state, and PrecisionError on a non-finite gap.
    """
    if radius < 1:
        raise InputError("radius must be >= 1")
    d = rep.dim
    rank = rep.presentation.generator_count
    widest = W.ball_size(rank, radius) - W.ball_size(rank, radius - 1)
    need = widest * (2 * d * d * 16 + 8 * d)
    if need > SWEEP_BUDGET:
        raise CapacityError(
            f"radius {radius} needs {need / 2**20:.0f} MiB of sweep state for its "
            f"{widest} longest words; the budget is {SWEEP_BUDGET / 2**20:.0f} MiB"
        )
    letters = np.array(rep.presentation.letters())  # lexicographic order
    state = ProductSVD(d, (1,))
    last = np.zeros(1, dtype=int)
    minima = np.empty((radius, d - 1))
    levels = []  # per length: (parent index, last letter, argmin per gap index)
    for n in range(1, radius + 1):
        # children in (parent, letter) order, i.e. lexicographic
        parent, pick = np.nonzero(last[:, None] != -letters)
        gaps = np.empty((parent.size, d - 1))
        # nothing extends the longest words, so their states are not kept
        child = ProductSVD(d, parent.shape) if n < radius else None
        for j, letter in enumerate(letters):
            rows = np.nonzero(pick == j)[0]
            sub = state[parent[rows]].absorb(rep.matrix(int(letter)))
            gaps[rows] = sub.gaps()
            if child is not None:
                child[rows] = sub
        state, last = child, letters[pick]
        if not np.all(np.isfinite(gaps)):
            raise _spread_error(f"at length {n}")
        idx = np.argmin(gaps, axis=0)
        minima[n - 1] = gaps[idx, np.arange(d - 1)]
        levels.append((parent, last, idx))

    def spell(n: int, i: int) -> Word:
        out = []
        for parent, last, _ in reversed(levels[:n]):
            out.append(int(last[i]))
            i = parent[i]
        return tuple(reversed(out))

    return GapSweep(
        radius=radius,
        lengths=tuple(range(1, radius + 1)),
        minima=minima,
        argmin_words=tuple(
            tuple(spell(n, i) for i in levels[n - 1][2]) for n in range(1, radius + 1)
        ),
    )


@dataclass(frozen=True)
class AnosovCertificate:
    """Affine-lower-bound fit of per-length gap minima and its verdict."""

    label: str
    k: int
    radius: int
    lengths: tuple[int, ...]
    min_gaps: tuple[float, ...]
    c1: float
    c2: float
    r_squared: float
    residual: float
    verdict: str  # certified | refuted | inconclusive
    slope_threshold: float = SLOPE_THRESHOLD
    r2_threshold: float = R2_THRESHOLD
    notes: tuple[str, ...] = ()

    def supports(self, slack: float = 1e-9) -> bool:
        return all(
            g >= self.c1 * n - self.c2 - slack
            for n, g in zip(self.lengths, self.min_gaps)
        )


def _affine_fit(lengths: np.ndarray, values: np.ndarray) -> tuple[float, float, float, float]:
    slope, intercept = np.polyfit(lengths, values, 1)
    pred = slope * lengths + intercept
    ss_res = float(np.sum((values - pred) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 and ss_res == 0 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    return float(slope), float(intercept), r2, math.sqrt(ss_res / len(values))


def _doubling_ratio(rep: Representation, word: Word, k: int) -> tuple[float, float]:
    """Gap growth along powers of a word: returns (last gap, ratio of the
    gaps at the last two power doublings).  Affine growth gives ratio -> 2,
    logarithmic growth (e.g. unipotents) gives ratio -> 1.  Powers are
    accumulated letter by letter in the graded product SVD, so arbitrarily
    large gaps stay measurable, up to a log-singular spread of about 745
    nats; past it the gap is not finite and PrecisionError is raised."""
    state = ProductSVD(rep.dim)
    factors = [rep.matrix(letter) for letter in word]
    gaps: list[float] = []
    absorbed = 0
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        while absorbed < n:
            for f in factors:
                state.absorb(f)
            absorbed += 1
        g = float(state.gaps()[k - 1])
        if not math.isfinite(g):
            raise _spread_error(f"along {W.word_to_str(word)}^{n}")
        gaps.append(g)
        if g > 40.0 and len(gaps) >= 2:
            break
    g_prev, g_last = gaps[-2], gaps[-1]
    if g_last < 1e-9:
        return g_last, 0.0
    return g_last, g_last / max(g_prev, 1e-12)


def certify_anosov(
    rep: Representation,
    k: int,
    radius: int,
    slope_threshold: float = SLOPE_THRESHOLD,
    r2_threshold: float = R2_THRESHOLD,
    sweep: GapSweep | None = None,
) -> AnosovCertificate:
    """Certify affine growth of the k-th gap over the radius ball.

    certified: fitted slope >= slope_threshold and R^2 >= r2_threshold.
    refuted:   the gap vanishes on the ball, or a witness word (the worst
               word of the sweep, or a generator) shows sublinear growth
               under power doubling (ratio < 1.5 instead of -> 2).
    Anything else is inconclusive; sampled verdicts are evidence, not proof.
    """
    if not 1 <= k <= rep.dim - 1:
        raise InputError(f"k={k} out of range 1..{rep.dim - 1}")
    if radius < 3:
        raise InputError("radius must be >= 3 to fit a slope")
    notes: list[str] = []
    if rep.presentation.relations:
        girth = min(len(r) for r in rep.presentation.relations)
        if radius >= girth:
            # beyond the relator length letter-count words start representing
            # short group elements and the minima are no longer meaningful
            radius = girth - 1
            notes.append(f"radius capped at {radius} (shortest relator has length {girth})")
        if sweep is not None and sweep.radius > radius:
            sweep = None
    if sweep is None:
        sweep = gap_sweep(rep, radius)
    lengths = np.asarray(sweep.lengths, dtype=float)
    minima = sweep.minima_for(k).astype(float)
    slope, _, r2, resid = _affine_fit(lengths, minima)
    c1 = slope
    c2 = max(0.0, float(np.max(c1 * lengths - minima)))

    verdict = None
    if float(np.max(minima)) < 1e-9:
        verdict = "refuted"
        notes.append("gap vanishes on the whole ball")
    else:
        witnesses: list[Word] = [sweep.argmin_words[-1][k - 1]]
        witnesses += [(g,) for g in range(1, rep.presentation.generator_count + 1)]
        for w in witnesses:
            if not w:
                continue
            g_last, ratio = _doubling_ratio(rep, w, k)
            if ratio < 1.5:
                verdict = "refuted"
                notes.append(
                    f"sublinear gap growth along {W.word_to_str(w)} "
                    f"(doubling ratio {ratio:.3f}, gap {g_last:.3f})"
                )
                break
    if verdict is None:
        if slope >= slope_threshold and r2 >= r2_threshold:
            verdict = "certified"
        else:
            verdict = "inconclusive"
    return AnosovCertificate(
        label=rep.label,
        k=k,
        radius=radius,
        lengths=sweep.lengths,
        min_gaps=tuple(float(x) for x in minima),
        c1=c1,
        c2=c2,
        r_squared=r2,
        residual=resid,
        verdict=verdict,
        slope_threshold=slope_threshold,
        r2_threshold=r2_threshold,
        notes=tuple(notes),
    )


# --- boundary flags -------------------------------------------------------


class FlagSample:
    """The flag of one boundary direction, held as one unitary frame.

    frame is a (d, m) matrix with orthonormal columns; for each index k in
    ks, space(k) is the span of its first k columns, so the spaces nest by
    construction.  Indices 0 and d are synthesized.  quality is the
    attractor residual exp(-2 gap) of the worst requested gap; a
    transported flag keeps its source's.
    """

    __slots__ = ("source", "frame", "ks", "quality", "_spaces", "_fiber_frames")

    def __init__(self, source: Word, frame: np.ndarray, ks, quality: float = 0.0):
        frame = np.asarray(frame, dtype=complex)
        d = frame.shape[0]
        self.source = source
        self.frame = frame
        self.ks = sorted(ks)
        self.quality = quality
        self._spaces = {k: Subspace(frame[:, :k], check=False) for k in self.ks}
        self._spaces[0] = Subspace.zero(d)
        self._spaces[d] = Subspace.full(d)
        self._fiber_frames: dict[int, np.ndarray] = {}

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    def space(self, k: int) -> Subspace:
        try:
            return self._spaces[k]
        except KeyError:
            raise InputError(f"flag sample carries {self.ks}, not {k}")

    def fiber_frame(self, k: int) -> np.ndarray:
        """Orthonormal (d, 2) basis of the complement of space(k-1) inside
        space(k+1): the working frame of the fiber at this flag.  Cached so
        that repeated use of one flag object is gauge-consistent."""
        frame = self._fiber_frames.get(k)
        if frame is None:
            upper = self.space(k + 1).frame
            lower = self.space(k - 1)
            rest = upper - lower.frame @ (lower.frame.conj().T @ upper) if lower.dim else upper
            frame = orth(rest)
            if frame.shape[1] != 2:
                raise PrecisionError(f"fiber frame at k={k} is not 2-dimensional")
            self._fiber_frames[k] = frame
        return frame

    def __repr__(self):
        return f"FlagSample({W.word_to_str(self.source)}, ks={self.ks})"


def flag_dist(a: FlagSample, b: FlagSample) -> float:
    """Largest Hausdorff subspace distance over the common indices."""
    common = sorted(set(a.ks) & set(b.ks))
    if not common:
        raise InputError("flags share no indices")
    return max(hausdorff_subspace_dist(a.space(k), b.space(k)) for k in common)


def boundary_samples(rep: Representation, words, ks, target_gap: float = TARGET_GAP) -> list:
    """Nested attractors of rho(w^n) for many words in one stacked power
    loop; entry i is the FlagSample of words[i], or the NotAnosovError or
    PrecisionError that rejected it.

    Each step absorbs the next letter of every unfinished word.  A word is
    judged whenever it completes a power: done once every requested gap
    clears target_gap, rejected when its gap stalls over four powers, when
    MAX_LETTERS run out or when a gap is not finite.  Every product of the
    stack is treated alone, so a flag does not depend on its batch.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise InputError("a flag needs at least one index")
    for k in ks:
        if not 1 <= k <= rep.dim - 1:
            raise InputError(f"flag index {k} out of range 1..{rep.dim - 1}")
    words = [W.reduce(w, rep.presentation) for w in words]
    if not all(words):
        raise InputError("boundary_sample needs a nontrivial word")
    letters = rep.presentation.letters()
    mats = np.stack([rep.matrix(letter) for letter in letters])
    codes = [[letters.index(letter) for letter in w] for w in words]
    lens = np.array([len(w) for w in words], dtype=int)
    out: list = [None] * len(words)
    history: list[list[float]] = [[] for _ in words]
    live = np.arange(len(words))
    state = ProductSVD(rep.dim, live.shape)
    used = 0
    while live.size:
        state.absorb(mats[[codes[i][used % lens[i]] for i in live]])
        used += 1
        gaps = state.gaps()[:, np.array(ks) - 1]
        keep = used % lens[live] != 0  # mid-power words go on
        for j in np.nonzero(~keep)[0]:
            i, w, worst = live[j], words[live[j]], float(gaps[j].min())
            if not np.all(np.isfinite(gaps[j])):
                out[i] = _spread_error(f"along {W.word_to_str(w)}")
            elif worst >= target_gap:
                out[i] = FlagSample(w, state.u[j].copy(), ks, math.exp(-2.0 * worst))
            else:
                history[i].append(worst)
                if len(history[i]) >= 4 and history[i][-1] - history[i][-4] < 1e-3:
                    out[i] = NotAnosovError(
                        f"gap stalled at {worst:.4f} along {W.word_to_str(w)}; "
                        "not Anosov along this word"
                    )
                elif used >= MAX_LETTERS:
                    out[i] = NotAnosovError(
                        f"gap reached only {worst:.3f} of {target_gap} along {W.word_to_str(w)}"
                    )
                else:
                    keep[j] = True
        if not keep.all():
            state, live = state[keep], live[keep]
    return out


def boundary_sample(rep: Representation, word, ks, target_gap: float = TARGET_GAP) -> FlagSample:
    """Nested attractors of rho(word^n), n raised until every requested gap
    clears target_gap.  The flag stands for the attracting endpoint of the
    word's axis.

    This is the one-word case of boundary_samples.  Powers are accumulated
    in the graded product SVD, which keeps every singular subspace (not just
    the top one) accurate up to a log-singular spread of about 745 nats, so
    middle flags of high-dimensional representations are as reliable as the
    extremes; past that spread PrecisionError is raised.
    """
    (flag,) = boundary_samples(rep, [word], ks, target_gap=target_gap)
    if isinstance(flag, FlaglabError):
        raise flag
    return flag


def transport_flag(rep: Representation, gamma, flag: FlagSample) -> FlagSample:
    """Image flag under rho(gamma): one QR of the moved frame, so the image
    spaces nest by construction.  Raises PrecisionError when rho(gamma)
    collapses the top requested space (a lower one is a column subset of
    it and never collapses first)."""
    g = W.reduce(gamma, rep.presentation)
    if not g:
        return flag  # identity transport: share the object, gauge included
    moved = rep.evaluate(g) @ flag.frame
    top = flag.ks[-1]
    if orth(moved[:, :top]).shape[1] != top:
        raise PrecisionError(f"transport collapsed the {top}-space")
    q, _ = np.linalg.qr(moved)
    src = W.concat(rep.presentation, g, flag.source, W.invert(g))
    return FlagSample(src, q, flag.ks, flag.quality)


def limit_set_sample(
    rep: Representation,
    ks,
    count: int,
    length: int,
    seed: int,
    target_gap: float = TARGET_GAP,
) -> tuple[list[FlagSample], list[tuple[Word, str]]]:
    """count flags from distinct random cyclically reduced words; failed
    words are skipped and reported alongside the samples.  Each batch of
    candidates runs through boundary_samples at once."""
    if count < 1:
        raise InputError("count must be >= 1")
    failures: list[tuple[Word, str]] = []
    samples: list[FlagSample] = []
    batch = 0
    while len(samples) < count and batch < 8:
        need = count - len(samples) + 4 * batch
        cand = W.random_cyclic_words(rep.presentation, need, length, seed + batch)
        taken = {f.source for f in samples}
        fresh = [w for w in cand if w not in taken]
        for w, flag in zip(fresh, boundary_samples(rep, fresh, ks, target_gap=target_gap)):
            if len(samples) >= count:
                break
            if isinstance(flag, FlagSample):
                samples.append(flag)
            else:
                failures.append((w, str(flag)))
        batch += 1
    if len(samples) < count:
        raise NotAnosovError(
            f"only {len(samples)}/{count} boundary samples succeeded; "
            f"first failure: {failures[0][1] if failures else 'none'}"
        )
    return samples, failures
