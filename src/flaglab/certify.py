"""Gap-growth certification and boundary flag samples.

A representation is certified along index k (certificates, any number of
indices over one sweep) when the per-length minima of the k-th singular
value gap over a word ball grow affinely; boundary points are realized as
Cartan attractors (top singular subspaces) of high powers of cyclically
reduced words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import words as W
from .errors import CapacityError, InputError, NotAnosovError, PrecisionError
from .prodsvd import ProductSVD
from .reps import Representation, wedge_matrix
from .subspaces import frame_complements, frame_quotients
from .words import Word

# bytes of the one memory budget of every user-sized array, read at call
# time by budget where each is allocated.  A gap sweep charges what it
# holds at once (_sweep_bytes): past it are sym4 and directsum from radius
# 13, sym3 from 14, schottky and trivial from 15, and the relator cap of 7
# keeps every octagon preset inside it
SWEEP_BUDGET = 1 << 29
SWEEP_BLOCK = 8192  # parents whose children gap_sweep absorbs at once
SLOPE_THRESHOLD = 0.01
R2_THRESHOLD = 0.95
TARGET_GAP = 18.0  # log gap every requested index of a boundary flag must clear
MAX_LETTERS = 20000  # letters a boundary sample may absorb before giving up
# Why a word yields no boundary flag, in the order the manifests count them
FAILURE_REASONS = ("non_finite_gap", "gap_stalled", "gap_short")


def _failure_message(word: Word, reason: str, gap: float) -> str:
    """What a boundary sample that failed for the FAILURE_REASONS code
    reason, with gap its worst requested gap, says about word.  A
    non-finite gap is the limit of the graded product SVD, which boundary
    flags alone run on: jacobi_svd squares column norms, so past a
    log-singular spread of about 354 nats the smallest singular values go
    subnormal, past about 372 they flush to zero and gaps stop being
    finite.  The gap readers (gap_sweep, the doubling witnesses of
    _doubling_ratios) have no such limit."""
    w = W.word_to_str(word)
    if reason == "non_finite_gap":
        return f"non-finite gap along {w}: log-singular spread past about 372 nats"
    if reason == "gap_stalled":
        return f"gap stalled at {gap:.4f} along {w}; not Anosov along this word"
    return f"gap reached only {gap:.3f} of {TARGET_GAP} along {w}"


def budget(rows: int, row_bytes: int, what: str) -> None:
    """CapacityError, before any work, when rows of row_bytes each would
    pass SWEEP_BUDGET, the one budget of every user-sized array."""
    if rows * row_bytes > SWEEP_BUDGET:
        raise CapacityError(f"{what} needs {rows * row_bytes / 2**20:.0f} MiB; "
                            f"the budget is {SWEEP_BUDGET / 2**20:.0f} MiB")


def budget_words(rep: Representation, count: int, length: int, what: str) -> None:
    """budget of count sampled words of length letters: 768 bytes and 16
    complex (d, d) arrays of engine state per word, 40 bytes of draws, codes
    and tuples per letter (measured with tracemalloc, d 2-4: 1.0-2.9 kB a
    word at length 8, then 16-33 bytes a letter up to lengths 24-100)."""
    budget(count, 768 + 256 * rep.dim * rep.dim + 40 * length, what)


@dataclass(frozen=True)
class GapSweep:
    """Per-length minima of every gap index over a word ball.
    argmin_words[n-1][k-1] is the first word of length n, in lexicographic
    order, whose read reaches the k-th minimum, where gap_sweep reads a
    word and its inverse once: that word, or its inverse where the
    inverse's value won."""

    radius: int
    lengths: tuple[int, ...]
    minima: np.ndarray  # shape (radius, d-1)
    argmin_words: tuple[tuple[Word, ...], ...]  # [length-1][k-1]

    def minima_for(self, k: int) -> np.ndarray:
        return self.minima[:, k - 1]


def _letter_matrices(rep: Representation) -> np.ndarray:
    """rho of every letter, stacked in presentation.letters() order, for
    the engines: float64 when every imaginary part is exactly zero,
    complex128 otherwise.  Dropping a zero imaginary part is exact, and
    below dimension 16 the graded engine gives real factors the bits of
    their complex casts, so a real representation runs in real arithmetic
    with unchanged flags."""
    mats = np.stack([rep.matrix(letter) for letter in rep.presentation.letters()])
    return mats if mats.imag.any() else np.ascontiguousarray(mats.real)


def _top_square(x: np.ndarray, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (low, high) on the largest eigenvalue of x x^H for a stack x
    of (N, N) matrices, equal where exact.  At N = 2 they are equal, from
    the closed form, whose root adds two squares, so nothing cancels for
    real or complex input.  Above, exact reads eigvalsh of H = x x^H,
    formed with one dot per entry rather than a batched matmul of small
    matrices.  Otherwise only the diagonal of H and its column r, r the
    largest diagonal entry, are formed, from 2N dots with the bits of
    those entries of H: low is the Rayleigh quotient of H at H e_r and
    high the trace, which meet as x nears rank one.  Not finite where x
    is not."""
    if x.shape[-1] == 2:
        a = np.vecdot(x[..., 0, :], x[..., 0, :]).real
        b = np.vecdot(x[..., 1, :], x[..., 1, :]).real
        c = np.abs(np.vecdot(x[..., 1, :], x[..., 0, :]))
        top = (a + b + np.hypot(a - b, 2.0 * c)) / 2.0
        return top, top
    if exact:
        h = np.vecdot(x[..., :, None, :], x[..., None, :, :])  # the conjugate of H
        # eigvalsh raises on a NaN; a product that overflowed reads NaN instead
        bad = ~np.isfinite(h).all(axis=(-2, -1))
        if bad.any():
            h = np.where(bad[..., None, None], 0.0, h)
        top = np.linalg.eigvalsh(h)[..., -1]
        top[bad] = np.nan
        return top, top
    diag = np.vecdot(x, x).real
    r = np.argmax(diag, axis=-1)[..., None]
    col = np.vecdot(x, np.take_along_axis(x, r[..., None], axis=-2))  # the conjugate of H e_r
    return np.vecdot(col, col).real / np.take_along_axis(diag, r, axis=-1)[..., 0], diag.sum(axis=-1)


def _frobenius(flat: np.ndarray) -> np.ndarray:
    """Norms of the rows of flat (..., N): the root of the sum of squares,
    or, only where that is not finite, m * sqrt(sum |y / m|^2) with m the
    largest magnitude in the row, which reads entries past about 1e154.
    Not finite only where an entry is."""
    norm = np.asarray(np.sqrt(np.vecdot(flat, flat).real))
    big = ~np.isfinite(norm)
    if big.any():
        rows = flat[big]
        m = np.abs(rows).max(axis=-1, keepdims=True)
        scaled = rows / m
        norm[big] = m[..., 0] * np.sqrt(np.vecdot(scaled, scaled).real)
    return norm


class WedgeProducts:
    """Running products M = A_1 A_2 ... A_m for their gaps, one product
    (batch ()) or a stack (batch (n,)), held through exterior powers: for
    each index j in 1..d-1, xs[j-1] is Lambda^j M rescaled to unit
    Frobenius norm and scales[..., j-1] the log of the scale taken out;
    logdet is log|det M|, which is L_d.

    The top singular value of Lambda^j M is sigma_1 ... sigma_j of M, so
    L_j = scales + log of the top singular value of xs, and the k-th gap
    is (2 L_k - L_{k-1} - L_{k+1}) / 2.  A top singular value survives
    plain multiplication: one factor A costs it a relative error of about
    eps * cond(A), and the scales carry every magnitude, so no spread
    limits a gap.  Indexing a stack gathers a sub-stack and assigning to an
    index scatters one back.  Every operation treats each product alone.
    """

    __slots__ = ("xs", "scales", "logdet")

    def __init__(self, xs, scales, logdet):
        self.xs, self.scales, self.logdet = list(xs), scales, logdet

    @classmethod
    def of(cls, mats: np.ndarray) -> "WedgeProducts":
        """The one-factor products of a (..., d, d) stack of matrices.  A
        power whose plain Frobenius norm is not finite is rescaled to unit
        norm (_frobenius), so it reads entries past about 1e154; every
        other power is kept as it is, with scale 0.  A power whose entries
        overflow is not finite, and so are its gaps."""
        d = mats.shape[-1]
        logdet = np.log(np.abs(np.linalg.det(mats)))
        xs, scales = [], np.zeros(mats.shape[:-2] + (d - 1,))
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, d):
                x = wedge_matrix(mats, j)
                flat = x.reshape(x.shape[:-2] + (-1,))
                # dividing by 1 and its log 0 are exact: ordinary powers keep their bits
                norm = np.where(np.isfinite(np.vecdot(flat, flat).real), 1.0, _frobenius(flat))
                xs.append(x / norm[..., None, None])
                scales[..., j - 1] = np.log(norm)
        return cls(xs, scales, logdet)

    @classmethod
    def identity(cls, d: int, batch: tuple[int, ...], dtype) -> "WedgeProducts":
        """Empty products: every exterior power the identity."""
        xs = [np.broadcast_to(np.eye(comb(d, j), dtype=dtype), batch + (comb(d, j),) * 2).copy() for j in range(1, d)]
        return cls(xs, np.zeros(batch + (d - 1,)), np.zeros(batch))

    def __getitem__(self, idx) -> "WedgeProducts":
        return WedgeProducts([x[idx] for x in self.xs], self.scales[idx], self.logdet[idx])

    def __setitem__(self, idx, other: "WedgeProducts"):
        for x, y in zip(self.xs, other.xs):
            x[idx] = y
        self.scales[idx], self.logdet[idx] = other.scales, other.logdet

    def absorb(self, other: "WedgeProducts") -> "WedgeProducts":
        """Right-multiply the products (in place) by those of other: one
        product for all of them, as one (rows * N, N) @ (N, N) GEMM per
        power, or one per product."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for j, (x, f) in enumerate(zip(self.xs, other.xs)):
                n = f.shape[-1]
                y = (x.reshape(-1, n) @ f).reshape(x.shape) if f.ndim == 2 else x @ f
                norm = _frobenius(y.reshape(y.shape[:-2] + (n * n,)))  # (-1,) fails on an empty stack
                y *= (1.0 / norm)[..., None, None]
                self.xs[j] = y
                self.scales[..., j] += np.log(norm) + other.scales[..., j]
            self.logdet = self.logdet + other.logdet
        return self

    def gap_bounds(self, exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (low, high) on the gap vectors (..., d-1), from bounds on
        each L_j (_top_square), with L_0 = 0 and L_d = logdet; equal where
        exact.  Not finite only where a product overflowed or vanished;
        callers check."""
        d = len(self.xs) + 1
        low = np.zeros(self.logdet.shape + (d + 1,))
        low[..., d] = self.logdet
        high = low.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            for j, x in enumerate(self.xs, 1):
                top_low, top_high = _top_square(x, exact)
                low[..., j] = self.scales[..., j - 1] + 0.5 * np.log(top_low)
                high[..., j] = self.scales[..., j - 1] + 0.5 * np.log(top_high)
            return (np.maximum(0.0, (2.0 * low[..., 1:-1] - high[..., :-2] - high[..., 2:]) / 2.0),
                    np.maximum(0.0, (2.0 * high[..., 1:-1] - low[..., :-2] - low[..., 2:]) / 2.0))

    def gaps(self) -> np.ndarray:
        """The gap vectors (..., d-1): max(0, (2 L_k - L_{k-1} - L_{k+1}) / 2)."""
        return self.gap_bounds(exact=True)[0]


def _sweep_bytes(d: int, itemsize: int, rank: int, radius: int) -> int:
    """The most gap_sweep holds at once, in bytes:
    - the states of the two longest kept levels, radius-1 and radius-2,
      each word every exterior power of its product and d floats of
      scales and log|det|;
    - 5 bytes of word indices a word of the ball, and 2 rank + 4 a parent
      while words.levels spells the longest level;
    - one block of at most SWEEP_BLOCK words, each two states (the
      gathered rows and their exact reads) and 128 bytes of indices and
      bounds, and 64 KiB of fixed costs.
    An upper bound on the tracemalloc peak, measured at d 2-4, real and
    complex."""
    def ball(n):  # the words of length at most n
        return W.ball_size(rank, n) if n >= 0 else 0

    state = sum(comb(d, j) ** 2 for j in range(1, d)) * itemsize + 8 * d
    parents = ball(radius - 1) - ball(radius - 2)
    return (state * (ball(radius - 1) - ball(radius - 3)) + 5 * (ball(radius) - 1)
            + (2 * rank + 4) * parents + min(SWEEP_BLOCK, parents) * (2 * state + 128) + (1 << 16))


def _fold(values: np.ndarray, pairs: int) -> np.ndarray:
    """Let the first pairs rows of values (n, d-1), each a word that stands
    for its inverse too, read at index k the least of their values at k and
    d-k, in place: the gaps of w^-1 are those of w in reverse order.
    Returns the mask of the entries where the value at d-k was strictly
    less, so the inverse is the word read."""
    flip = np.zeros(values.shape, dtype=bool)
    flip[:pairs] = values[:pairs, ::-1] < values[:pairs]
    values[:pairs] = np.minimum(values[:pairs], values[:pairs, ::-1])
    return flip


def gap_sweep(rep: Representation, radius: int) -> GapSweep:
    """Sweep all freely reduced words of length 1..radius and record the
    minimum gap vector per length.

    One level of words.levels per length, through WedgeProducts, so the
    spread sets no limit on a gap; a word whose letters cancel (a surface
    word that holds most of a relator) still loses about
    eps * prod |rho(a_i)| / |rho(w)| to rounding.  The children of up to
    SWEEP_BLOCK parents at a time absorb their last letter, one GEMM per
    letter and exterior power; only the states of the parents' level and,
    below the radius, of the level itself are kept.

    A word and its inverse are read once: a word whose first letter comes
    before the inverse of its last in letters() order stands for its
    inverse too (_fold), one whose first letter comes after it is read as
    that inverse, and one that starts with the inverse of its last letter
    is read as it is.  A level is lexicographic, and each first letter owns
    an equal share of it, so the read words of a last letter are a prefix
    of its rows, cut by the position of its inverse; at the radius, where
    nothing extends a word, the others are not absorbed either.

    A word reads exact gaps only where its gap bounds reach the least upper
    bound so far, or, once a word of its level has read a gap of 0 (a gap
    that vanishes identically leaves nothing to prune), always: either way
    the minima and argmins are those of reading every read word exactly.
    They are kept as running minima per gap index with the index of the
    first read word, in lexicographic order, that reaches each; words stay
    parent-index arrays, spelled out for the argmins only, as w^-1 where
    the inverse's value won.  Raises CapacityError before any work when
    what it holds at once (_sweep_bytes) would pass SWEEP_BUDGET, and
    PrecisionError on a non-finite gap.
    """
    if radius < 1:
        raise InputError("radius must be >= 1")
    d = rep.dim
    rank = rep.presentation.generator_count
    mats = _letter_matrices(rep)
    budget(1, _sweep_bytes(d, mats.itemsize, rank, radius), f"the gap sweep of radius {radius}")
    letters = WedgeProducts.of(mats)
    state = WedgeProducts.identity(d, (1,), mats.dtype)
    minima = np.empty((radius, d - 1))
    walk, argmin_words = [], []
    for n, (parent, last) in enumerate(W.levels(rep.presentation, radius), 1):
        walk.append((parent, last))
        share = parent.size // (2 * rank)  # the words of each first letter
        best = np.full(d - 1, np.inf)  # least upper bound so far
        minimum, first = np.full(d - 1, np.inf), np.full(d - 1, parent.size)
        inverse = np.zeros(d - 1, dtype=bool)  # the argmin is the inverse of word first
        # nothing extends the longest words, so their states are not kept
        child = WedgeProducts.identity(d, parent.shape, mats.dtype) if n < radius else None
        # int32 needles: others would cast parent to an int64 copy
        blocks = np.arange(0, parent[-1] + SWEEP_BLOCK + 1, SWEEP_BLOCK, dtype=parent.dtype)
        edges = np.searchsorted(parent, blocks)
        for start, stop in zip(edges[:-1], edges[1:]):
            for i, letter in enumerate(rep.presentation.letters()):
                rows = start + np.flatnonzero(last[start:stop] == letter)
                # i ^ 1 is the position of the letter's inverse: the words
                # that start before it stand for their inverses too
                pairs = np.searchsorted(rows, (i ^ 1) * share)
                read = np.searchsorted(rows, ((i ^ 1) + 1) * share)
                if child is None:  # the unread words of the radius are not absorbed
                    rows = rows[:read]
                sub = state[parent[rows]].absorb(letters[i])
                if child is not None:
                    child[rows] = sub
                sub, rows = sub[:read], rows[:read]
                if np.all(minimum > 0):
                    # a word whose gap bounds all lie above the least upper
                    # bound is no argmin, and only the others read exact gaps
                    low, high = sub.gap_bounds()
                    _fold(low, pairs)
                    _fold(high, pairs)
                    best = np.minimum(best, high.min(axis=0, initial=np.inf))
                    near = np.flatnonzero(~np.all(low > best + 1e-9 * (1.0 + best), axis=1))
                    sub, rows, pairs = sub[near], rows[near], np.searchsorted(near, pairs)
                if rows.size:
                    exact = sub.gaps()
                    if not np.all(np.isfinite(exact)):
                        raise PrecisionError(f"non-finite gap at length {n}: a word product overflowed")
                    flip = _fold(exact, pairs)
                    j = exact.argmin(axis=0)
                    value, at, inv = exact.min(axis=0), rows[j], flip[j, np.arange(d - 1)]
                    take = (value < minimum) | (value == minimum) & (at < first)
                    minimum[take], first[take], inverse[take] = value[take], at[take], inv[take]
                del sub  # not held while the next block is gathered
        state = child
        minima[n - 1] = minimum
        spelled = [W.spell(walk, i) for i in first]
        argmin_words.append(tuple(tuple(-x for x in reversed(w)) if inv else w
                                  for w, inv in zip(spelled, inverse)))
    return GapSweep(
        radius=radius,
        lengths=tuple(range(1, radius + 1)),
        minima=minima,
        argmin_words=tuple(argmin_words),
    )


@dataclass(frozen=True)
class AnosovCertificate:
    """Affine-lower-bound fit of per-length gap minima and its verdict."""

    k: int
    radius: int
    lengths: tuple[int, ...]
    min_gaps: tuple[float, ...]
    c1: float
    c2: float
    r_squared: float
    verdict: str  # certified | refuted | inconclusive
    notes: tuple[str, ...] = ()


def _affine_fit(lengths: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(lengths, values, 1)
    pred = slope * lengths + intercept
    ss_res = float(np.sum((values - pred) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 and ss_res == 0 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    return float(slope), r2


def _doubling_ratios(rep: Representation, requests) -> dict:
    """Gap growth along powers of words: maps each (word, k) request to
    (last gap, ratio of the gaps at the last two power doublings), or to
    the PrecisionError that ended it alone.  Affine growth gives ratio ->
    2, logarithmic growth (e.g. unipotents) ratio -> 1.  Each distinct
    word's product is built once, letter by letter, then squared eight
    times in place, so its WedgeProducts read powers 1, 2, 4, ..., 256;
    the k-th gap is read along them until it passes 40 with two readings
    or power 256 is reached."""
    words = list(dict.fromkeys(w for w, _ in requests))
    mats, index = _letter_matrices(rep), rep.presentation.letters().index
    letters = WedgeProducts.of(mats)
    state = WedgeProducts.identity(rep.dim, (len(words),), mats.dtype)
    for p in range(max(map(len, words), default=0)):  # the words that have a letter p absorb it
        rows = [i for i, w in enumerate(words) if len(w) > p]
        state[rows] = state[rows].absorb(letters[[index(words[i][p]) for i in rows]])
    readings = [state.gaps()]
    for _ in range(8):  # each row its own factor: a gathered copy of the stack
        readings.append(state.absorb(state[np.arange(len(words))]).gaps())
    out: dict = {}
    for w, k in requests:
        gaps = [float(g[words.index(w), k - 1]) for g in readings]
        # the first reading that is not finite, or past 40 after another, or at power 256
        t = next(t for t, g in enumerate(gaps) if not math.isfinite(g) or g > 40.0 and t >= 1 or t == 8)
        if math.isfinite(gaps[t]):
            out[w, k] = (gaps[t], 0.0 if gaps[t] < 1e-9 else gaps[t] / max(gaps[t - 1], 1e-12))
        else:
            out[w, k] = PrecisionError(f"non-finite gap along {W.word_to_str(w)}^{2 ** t}: a word product overflowed")
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


def certificates(
    rep: Representation, ks, radius: int, slope_threshold: float = SLOPE_THRESHOLD,
    r2_threshold: float = R2_THRESHOLD,
) -> list[AnosovCertificate]:
    """Certify affine growth of the k-th gap over the radius ball, for each
    index k of ks, over one sweep and one reading of its doubling
    witnesses (_doubling_ratios).

    certified: fitted slope >= slope_threshold and R^2 >= r2_threshold.
    refuted:   the gap vanishes on the ball, or a witness word (the worst
               word of the sweep, or a generator) shows sublinear growth
               under power doubling (ratio < 1.5 instead of -> 2).
    Anything else is inconclusive; sampled verdicts are evidence, not proof.
    The ball's radius is capped by sweep_radius, and a radius or cap below
    3 is an InputError.  Witnesses are read index by index, as one
    certificate after the other would: the first refuting one decides, and
    a witness's PrecisionError is raised only when it is reached.
    """
    for k in ks:
        if not 1 <= k <= rep.dim - 1:
            raise InputError(f"k={k} out of range 1..{rep.dim - 1}")
    if radius < 3:
        raise InputError("radius must be >= 3 to fit a slope")
    notes: list[str] = []
    capped = sweep_radius(rep, radius)
    if capped < 3:
        raise InputError(f"radius capped at {capped} (shortest relator has length {capped + 1}); "
                         "it must be >= 3 to fit a slope")
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
        slope, r2 = _affine_fit(lengths, minima)
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
            k=k, radius=radius, lengths=sweep.lengths, min_gaps=tuple(float(x) for x in minima),
            c1=slope, c2=c2, r_squared=r2, verdict=verdict, notes=tuple(notes + why),
        ))
    return certs


# --- boundary flags -------------------------------------------------------


class FlagStack:
    """Boundary flags as one stack: row i of the (n, d, d) complex array
    frames, with orthonormal columns, is the flag of the word sources[i].
    For each index j in ks, space(j) stacks the first j columns, the
    frames of the j-spaces, so the spaces nest by construction.
    quality[i] is the attractor residual exp(-2 gap) of row i's worst
    requested gap.  Indexing gives the sub-stack of the chosen rows: a
    single flag is a one-row stack.  complement(j) and fiber_frames(k)
    are each computed once per stack and kept: a triple sweep reads them
    in every block."""

    def __init__(self, sources, frames, ks, quality):
        self.sources = list(sources)
        self.frames = np.asarray(frames, dtype=complex)
        self.ks = sorted(ks)
        self.quality = np.asarray(quality, dtype=float)
        self._complements: dict[int, np.ndarray] = {}
        self._quotients: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def concat(*stacks: FlagStack) -> FlagStack:
        """The rows of stacks that carry the same ks, in order."""
        sources = [w for st in stacks for w in st.sources]
        return FlagStack(sources, np.concatenate([st.frames for st in stacks]), stacks[0].ks,
                         np.concatenate([st.quality for st in stacks]))

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, rows) -> FlagStack:
        """The sub-stack of rows: an int, a slice, an index array or a mask."""
        idx = np.arange(len(self))[rows].reshape(-1)
        return FlagStack([self.sources[i] for i in idx], self.frames[idx], self.ks, self.quality[idx])

    @property
    def ambient_dim(self) -> int:
        return self.frames.shape[1]

    def space(self, j: int) -> np.ndarray:
        """The (n, d, j) frames of the j-spaces; the identity at j = d.  Only
        the requested gaps cleared TARGET_GAP, so an index other than 0, d
        and those in ks raises InputError."""
        d = self.ambient_dim
        if j == d:
            return np.broadcast_to(np.eye(d, dtype=complex), (len(self), d, d))
        if j != 0 and j not in self.ks:
            raise InputError(f"flag stack carries {self.ks}, not {j}")
        return self.frames[..., :j]

    def complement(self, j: int) -> np.ndarray:
        """The (n, d, d-j) orthonormal complements of the j-spaces."""
        if j not in self._complements:
            self._complements[j] = frame_complements(self.space(j))
        return self._complements[j]

    def fiber_frames(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """frame_quotients of the (k+1)- and (k-1)-spaces: the (n, d, 2) fiber
        frames, each a function of its row's frame bits alone, and the mask
        of rows that have one (a zero frame collapses every projection)."""
        if k not in self._quotients:
            self._quotients[k] = frame_quotients(self.space(k + 1), self.space(k - 1))
        return self._quotients[k]


def boundary_samples(rep: Representation, words, ks) -> tuple[FlagStack, list]:
    """Nested attractors of rho(w^n) for many words in one power walk.

    Returns the FlagStack of the words that succeeded, in word order, each
    row the attracting endpoint of its word's axis, and one entry per word:
    None, or the FAILURE_REASONS code that rejected it with its worst
    requested gap then, which _failure_message spells out.

    The graded product SVD keeps every singular subspace accurate up to a
    log-singular spread of about 354 nats (see _failure_message).  A word
    is judged whenever it completes a power: done once every requested gap
    clears TARGET_GAP, rejected when a gap is not finite, when its gap
    stalls over four powers or when MAX_LETTERS run out.  Every product of
    the stack is treated alone, so no word's flag depends on its batch.
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
    frames = np.empty((len(words), rep.dim, rep.dim), dtype=complex)
    quality = np.empty(len(words))
    rejected: list = [None] * len(words)
    recent = np.zeros((len(words), 4))  # each word's last four worst gaps, oldest first
    readings = np.zeros(len(words), dtype=int)
    mats = _letter_matrices(rep)
    index = {letter: i for i, letter in enumerate(rep.presentation.letters())}
    codes = np.zeros((len(words), lens.max(initial=0)), dtype=np.min_scalar_type(len(index)))
    for i, w in enumerate(words):
        codes[i, :len(w)] = [index[letter] for letter in w]
    state = ProductSVD(rep.dim, (len(words),), mats.dtype)  # row i starts as words[i]'s empty product
    live = np.arange(len(words))
    used = 0  # letters absorbed by every live word
    while live.size:
        state.absorb(mats[codes[live, used % lens[live]]])
        used += 1
        ends = np.nonzero(used % lens[live] == 0)[0]  # mid-power words go on
        if not ends.size:
            continue
        idx, sub = live[ends], state[ends]
        g = sub.gaps()[:, cols]
        worst = g.min(axis=1)
        finite = np.isfinite(g).all(axis=1)
        go = finite & (worst < TARGET_GAP)
        at = idx[go]
        recent[at] = np.column_stack([recent[at, 1:], worst[go]])
        readings[at] += 1
        stalled = (readings[idx] >= 4) & (recent[idx, 3] - recent[idx, 0] < 1e-3)
        keep = go & ~stalled & (used < MAX_LETTERS)
        for j in np.nonzero(~keep)[0]:
            i, x = idx[j], float(worst[j])
            if finite[j] and not go[j]:  # done: its left factor is the flag
                frames[i], quality[i] = sub.u[j], math.exp(-2.0 * x)
            elif not finite[j]:
                rejected[i] = ("non_finite_gap", x)
            else:
                rejected[i] = ("gap_stalled" if stalled[j] else "gap_short", x)
        if not keep.all():  # a word leaves the stack once it is done or rejected
            stay = np.ones(live.size, dtype=bool)
            stay[ends] = keep
            state, live = state[stay], live[stay]
    ok = [i for i, e in enumerate(rejected) if e is None]
    return FlagStack([words[i] for i in ok], frames[ok], ks, quality[ok]), rejected


def limit_set_sample(
    rep: Representation, ks, count: int, length: int, seed: int, walk=None
) -> tuple[FlagStack, list[str]]:
    """count flags from the count distinct random cyclically reduced words
    drawn under seed, in one FlagStack in draw order, and an empty failure
    list; the words run through one call of walk, which returns like
    boundary_samples, its default.  Raises CapacityError before any draw
    when budget_words refuses the sample, and, with the message of the
    first failed word in draw order, NotAnosovError where its gap stalled
    (evidence that rho is not Anosov along it) or PrecisionError where it
    was not finite or still short after MAX_LETTERS letters."""
    budget_words(rep, count, length, f"a sample of {count} flags")
    words = W.random_cyclic_words(rep.presentation, count, length, seed)
    flags, rejected = (walk or boundary_samples)(rep, words, ks)
    first = next(((w, *e) for w, e in zip(words, rejected) if e is not None), None)
    if first:
        error = NotAnosovError if first[1] == "gap_stalled" else PrecisionError
        raise error(f"only {len(flags)}/{count} boundary samples succeeded; "
                    f"first failure: {_failure_message(*first)}")
    return flags, []


def failure_counts(failures) -> dict[str, int]:
    """Failure codes (those of hyperconvex's adversarial pair words)
    counted by reason, in FAILURE_REASONS order."""
    return {reason: failures.count(reason) for reason in FAILURE_REASONS}
