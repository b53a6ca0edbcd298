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
from .errors import CapacityError, InputError, NotAnosovError, PrecisionError
from .prodsvd import ProductSVD
from .reps import Representation
from .subspaces import frame_quotients
from .words import Word

SWEEP_BUDGET = 1 << 29  # bytes of stacked (logs, vh) state one sweep level may hold
SLOPE_THRESHOLD = 0.01
R2_THRESHOLD = 0.95
TARGET_GAP = 18.0  # log gap every requested index of a boundary flag must clear
MAX_LETTERS = 20000  # letters a boundary sample may absorb before giving up


def _spread_error(where: str) -> PrecisionError:
    """The graded product SVD's limit: jacobi_svd squares column norms, so
    past a log-singular spread of about 354 nats the smallest singular
    values go subnormal, past about 372 they flush to zero and gaps stop
    being finite."""
    return PrecisionError(f"non-finite gap {where}: log-singular spread past about 372 nats")


@dataclass(frozen=True)
class GapSweep:
    """Per-length minima of every gap index over a word ball."""

    radius: int
    lengths: tuple[int, ...]
    minima: np.ndarray  # shape (radius, d-1)
    argmin_words: tuple[tuple[Word, ...], ...]  # [length-1][k-1]

    def minima_for(self, k: int) -> np.ndarray:
        return self.minima[:, k - 1]


def _letter_matrices(rep: Representation) -> np.ndarray:
    """rho of every letter, stacked in presentation.letters() order, for
    the graded engine: float64 when every imaginary part is exactly zero,
    complex128 otherwise.  Dropping a zero imaginary part is exact, and
    below dimension 16 the engine gives real factors the bits of their
    complex casts, so a real representation runs in real arithmetic with
    unchanged results."""
    mats = np.stack([rep.matrix(letter) for letter in rep.presentation.letters()])
    return mats if mats.imag.any() else np.ascontiguousarray(mats.real)


def gap_sweep(rep: Representation, radius: int) -> GapSweep:
    """Sweep all freely reduced words of length 1..radius and record the
    minimum gap vector per length.

    One level of words.levels per length, through the graded product SVD,
    so tiny gaps stay honest to ~1e-12: each letter is absorbed into the
    sub-stack of the parents it may follow.  Words stay parent-index
    arrays, spelled out for the argmins only (the first minimal words in
    lexicographic order).  Nothing reads a left factor, so the states are
    gap-only (logs, vh).
    Raises CapacityError before any work when the longest level would pass
    SWEEP_BUDGET bytes of state, and PrecisionError on a non-finite gap.
    """
    if radius < 1:
        raise InputError("radius must be >= 1")
    d = rep.dim
    rank = rep.presentation.generator_count
    mats = _letter_matrices(rep)
    widest = W.ball_size(rank, radius) - W.ball_size(rank, radius - 1)
    need = widest * (d * d * mats.itemsize + 8 * d)
    if need > SWEEP_BUDGET:
        raise CapacityError(
            f"radius {radius} needs {need / 2**20:.0f} MiB of sweep state for its "
            f"{widest} longest words; the budget is {SWEEP_BUDGET / 2**20:.0f} MiB"
        )
    state = ProductSVD(d, (1,), mats.dtype, left=False)
    minima = np.empty((radius, d - 1))
    walk, argmin_words = [], []
    for n, (parent, last) in enumerate(W.levels(rep.presentation, radius), 1):
        gaps = np.empty((parent.size, d - 1))
        # nothing extends the longest words, so their states are not kept
        child = ProductSVD(d, parent.shape, mats.dtype, left=False) if n < radius else None
        for letter, mat in zip(rep.presentation.letters(), mats):
            rows = np.nonzero(last == letter)[0]
            sub = state[parent[rows]].absorb(mat)
            gaps[rows] = sub.gaps()
            if child is not None:
                child[rows] = sub
        state = child
        if not np.all(np.isfinite(gaps)):
            raise _spread_error(f"at length {n}")
        idx = np.argmin(gaps, axis=0)
        minima[n - 1] = gaps[idx, np.arange(d - 1)]
        walk.append((parent, last))
        argmin_words.append(tuple(W.spell(walk, i) for i in idx))
    return GapSweep(
        radius=radius,
        lengths=tuple(range(1, radius + 1)),
        minima=minima,
        argmin_words=tuple(argmin_words),
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


def _affine_fit(lengths: np.ndarray, values: np.ndarray) -> tuple[float, float, float, float]:
    slope, intercept = np.polyfit(lengths, values, 1)
    pred = slope * lengths + intercept
    ss_res = float(np.sum((values - pred) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 and ss_res == 0 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    return float(slope), float(intercept), r2, math.sqrt(ss_res / len(values))


def _doubling_ratios(rep: Representation, requests) -> dict:
    """Gap growth along powers of words over one power walk: maps each
    (word, k) request to (last gap, ratio of the gaps at the last two power
    doublings), or to the PrecisionError that ended it alone.  Affine growth
    gives ratio -> 2, logarithmic growth (e.g. unipotents) ratio -> 1.  The
    k-th gap is read at powers 1, 2, 4, ..., 256 until it passes 40 with two
    readings; past a spread of about 372 nats it is not finite."""
    words = list(dict.fromkeys(w for w, _ in requests))
    readings: dict = {r: [] for r in requests}
    out: dict = {}

    def judge(idx, powers, gaps, u):
        keep = []
        for i, n, row in zip(idx, powers, gaps):
            todo = [(w, k) for w, k in readings if w == words[i] and (w, k) not in out]
            if n & (n - 1) == 0:
                for w, k in todo:
                    g = float(row[k - 1])
                    readings[w, k].append(g)
                    if not math.isfinite(g):
                        out[w, k] = _spread_error(f"along {W.word_to_str(w)}^{n}")
                    elif g > 40.0 and len(readings[w, k]) >= 2 or n == 256:
                        out[w, k] = (g, 0.0 if g < 1e-9 else g / max(readings[w, k][-2], 1e-12))
            keep.append(any(r not in out for r in todo))
        return keep

    _power_walk(rep, words, judge, left=False)
    return out


def sweep_radius(rep: Representation, radius: int) -> int:
    """The radius a certificate sweeps: radius itself for a free group, at
    most the shortest relator length minus one otherwise.  The cap is
    necessary but not sufficient: a word shorter than a relator can still
    be the complement of a relator subword and so stand for a shorter
    element, which makes the per-length minima of a surface group
    symmetric rather than growing (ROADMAP item 5)."""
    if rep.presentation.relations:
        return min(radius, min(len(r) for r in rep.presentation.relations) - 1)
    return radius


def certify_anosov(
    rep: Representation,
    k: int,
    radius: int,
    slope_threshold: float = SLOPE_THRESHOLD,
    r2_threshold: float = R2_THRESHOLD,
) -> AnosovCertificate:
    """Certify affine growth of the k-th gap over the radius ball.

    certified: fitted slope >= slope_threshold and R^2 >= r2_threshold.
    refuted:   the gap vanishes on the ball, or a witness word (the worst
               word of the sweep, or a generator) shows sublinear growth
               under power doubling (ratio < 1.5 instead of -> 2).
    Anything else is inconclusive; sampled verdicts are evidence, not proof.
    The ball's radius is capped by sweep_radius.
    """
    return _certificates(rep, [k], radius, slope_threshold, r2_threshold)[0]


def _certificates(
    rep: Representation, ks, radius: int, slope_threshold: float = SLOPE_THRESHOLD,
    r2_threshold: float = R2_THRESHOLD,
) -> list[AnosovCertificate]:
    """certify_anosov for each index of ks over one sweep and one witness
    walk.  Witnesses are read index by index, as one certificate after the
    other would: the first refuting one decides, and a witness's
    PrecisionError is raised only when it is reached."""
    for k in ks:
        if not 1 <= k <= rep.dim - 1:
            raise InputError(f"k={k} out of range 1..{rep.dim - 1}")
    if radius < 3:
        raise InputError("radius must be >= 3 to fit a slope")
    notes: list[str] = []
    capped = sweep_radius(rep, radius)
    if capped < radius:
        radius = capped
        notes.append(f"radius capped at {radius} (shortest relator has length {radius + 1})")
    sweep = gap_sweep(rep, radius)
    lengths = np.asarray(sweep.lengths, dtype=float)
    vanished = {k for k in ks if float(np.max(sweep.minima_for(k))) < 1e-9}
    generators = [(g,) for g in range(1, rep.presentation.generator_count + 1)]
    witnesses = {k: [sweep.argmin_words[-1][k - 1], *generators] for k in ks if k not in vanished}
    ratios = _doubling_ratios(rep, [(w, k) for k, ws in witnesses.items() for w in ws])
    certs = []
    for k in ks:
        minima = sweep.minima_for(k).astype(float)
        slope, _, r2, resid = _affine_fit(lengths, minima)
        c2 = max(0.0, float(np.max(slope * lengths - minima)))
        verdict, why = ("refuted", ["gap vanishes on the whole ball"]) if k in vanished else (None, [])
        for w in witnesses.get(k, ()):
            if isinstance(ratios[w, k], PrecisionError):
                raise ratios[w, k]
            g_last, ratio = ratios[w, k]
            if ratio < 1.5:
                verdict = "refuted"
                why.append(
                    f"sublinear gap growth along {W.word_to_str(w)} "
                    f"(doubling ratio {ratio:.3f}, gap {g_last:.3f})"
                )
                break
        if verdict is None:
            verdict = "certified" if slope >= slope_threshold and r2 >= r2_threshold else "inconclusive"
        certs.append(AnosovCertificate(
            label=rep.label, k=k, radius=radius, lengths=sweep.lengths,
            min_gaps=tuple(float(x) for x in minima), c1=slope, c2=c2, r_squared=r2, residual=resid,
            verdict=verdict, slope_threshold=slope_threshold, r2_threshold=r2_threshold,
            notes=tuple(notes + why),
        ))
    return certs


# --- boundary flags -------------------------------------------------------


class FlagSample:
    """The flag of one boundary direction, held as one unitary frame.

    frame is a (d, m) matrix with orthonormal columns; for each index k in
    ks, space(k) is its first k columns, the orthonormal (d, k) frame of
    the k-space, so the spaces nest by construction.  space(0) is the
    (d, 0) frame and space(d) the identity.  quality is the attractor
    residual exp(-2 gap) of the worst requested gap.
    """

    __slots__ = ("source", "frame", "ks", "quality")

    def __init__(self, source: Word, frame: np.ndarray, ks, quality: float = 0.0):
        self.source = source
        self.frame = np.asarray(frame, dtype=complex)
        self.ks = sorted(ks)
        self.quality = quality

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    def space(self, k: int) -> np.ndarray:
        """The (d, k) frame of the k-space.  Only the requested gaps cleared
        TARGET_GAP, so an index other than 0, d and those in ks raises
        InputError."""
        d = self.ambient_dim
        if k == d:
            return np.eye(d, dtype=complex)
        if k != 0 and k not in self.ks:
            raise InputError(f"flag sample carries {self.ks}, not {k}")
        return self.frame[:, :k]

    def fiber_frame(self, k: int) -> np.ndarray:
        """Orthonormal (d, 2) basis of the complement of space(k-1) inside
        space(k+1), by frame_quotients: the working frame of the fiber at
        this flag, a function of the bits of frame alone."""
        frame, ok = frame_quotients(self.space(k + 1), self.space(k - 1))
        if not ok:
            raise PrecisionError(f"fiber frame at k={k} is not 2-dimensional")
        return frame

    def __repr__(self):
        return f"FlagSample({W.word_to_str(self.source)}, ks={self.ks})"


def _power_walk(rep: Representation, words, judge, left: bool) -> None:
    """Absorb the next letter of every live word into one stacked graded
    product SVD until no word is left.  After each letter, the words that
    just completed a power go to one judge(idx, n, gaps, u) call: row j
    holds words[idx[j]], its power n[j] and the gaps and left factor of
    rho(words[idx[j]]^n[j]).  A gap walk (left False) keeps gap-only
    states and passes u=None.  judge returns one bool per row, and a word
    leaves the stack where that is False.  Every product of the stack is
    treated alone, so nothing depends on the batch."""
    index = {letter: i for i, letter in enumerate(rep.presentation.letters())}
    mats = _letter_matrices(rep)
    lens = np.array([len(w) for w in words], dtype=int)
    codes = np.zeros((len(words), lens.max(initial=0)), dtype=int)
    for i, w in enumerate(words):
        codes[i, :len(w)] = [index[letter] for letter in w]
    live = np.arange(len(words))
    state = ProductSVD(rep.dim, live.shape, mats.dtype, left=left)
    used = 0
    while live.size:
        state.absorb(mats[codes[live, used % lens[live]]])
        used += 1
        ends = np.nonzero(used % lens[live] == 0)[0]  # mid-power words go on
        if ends.size:
            keep = np.ones(live.size, dtype=bool)
            u = None if state.u is None else state.u[ends]
            keep[ends] = judge(live[ends], used // lens[live[ends]], state.gaps()[ends], u)
            if not keep.all():
                state, live = state[keep], live[keep]


def boundary_samples(rep: Representation, words, ks) -> list:
    """Nested attractors of rho(w^n) for many words in one power walk;
    entry i is the FlagSample of words[i], the attracting endpoint of its
    axis, or the NotAnosovError or PrecisionError that rejected it.

    The graded product SVD keeps every singular subspace accurate up to a
    log-singular spread of about 354 nats (see _spread_error).  A word is
    judged whenever it completes a power: done once every requested gap
    clears TARGET_GAP, rejected when its gap stalls over four powers, when
    MAX_LETTERS run out or when a gap is not finite.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise InputError("a flag needs at least one index")
    for k in ks:
        if not 1 <= k <= rep.dim - 1:
            raise InputError(f"flag index {k} out of range 1..{rep.dim - 1}")
    words = [W.reduce(w, rep.presentation) for w in words]
    if not all(words):
        raise InputError("boundary_samples needs a nontrivial word")
    cols = np.array(ks) - 1
    lens = np.array([len(w) for w in words], dtype=int)
    out: list = [None] * len(words)
    recent = np.zeros((len(words), 4))  # each word's last four worst gaps, oldest first
    readings = np.zeros(len(words), dtype=int)

    def judge(idx, n, gaps, u):
        g = gaps[:, cols]
        worst = g.min(axis=1)
        finite = np.isfinite(g).all(axis=1)
        go = finite & (worst < TARGET_GAP)
        at = idx[go]
        recent[at] = np.column_stack([recent[at, 1:], worst[go]])
        readings[at] += 1
        stalled = (readings[idx] >= 4) & (recent[idx, 3] - recent[idx, 0] < 1e-3)
        keep = go & ~stalled & (n * lens[idx] < MAX_LETTERS)
        for j in np.nonzero(~keep)[0]:
            i, x = idx[j], float(worst[j])
            w = words[i]
            if not finite[j]:
                out[i] = _spread_error(f"along {W.word_to_str(w)}")
            elif not go[j]:
                out[i] = FlagSample(w, u[j].copy(), ks, math.exp(-2.0 * x))
            elif stalled[j]:
                out[i] = NotAnosovError(
                    f"gap stalled at {x:.4f} along {W.word_to_str(w)}; "
                    "not Anosov along this word"
                )
            else:
                out[i] = NotAnosovError(
                    f"gap reached only {x:.3f} of {TARGET_GAP} along {W.word_to_str(w)}"
                )
        return keep

    _power_walk(rep, words, judge, left=True)
    return out


def limit_set_sample(
    rep: Representation, ks, count: int, length: int, seed: int
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
        for w, flag in zip(fresh, boundary_samples(rep, fresh, ks)):
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
