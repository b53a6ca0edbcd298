"""Tangent projections, hyperconvexity scores and the fiberwise
Mobius machinery of the projective-line bundle over the boundary.

Every flag z with spaces k-1 and k+1 carries a projective line: the
quotient of its (k+1)-space by its (k-1)-space, worked with through the
orthonormal 2-frame FlagSample.fiber_frame(k).  Other boundary points x
project into that line by intersecting their (d-k)-space with the
(k+1)-space of z.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import words as W
from .certify import FlagSample, boundary_samples, limit_set_sample, transport_flag
from .errors import FlaglabError, InputError, PrecisionError, TransversalityError
from .mobius import chart, three_point_map
from .reps import Representation, wedge_coords
from .subspaces import Subspace, det_normalize, hausdorff_subspace_dist, orth, principal_sines
from .words import Word

TAU_PASS = 1e-3
TAU_FAIL = 1e-7
LINE_SOFT_TOL = 1e-6
LINE_UNIQUE_TOL = 1e-12  # at this level the line is below the frame noise floor
ADVERSARIAL_FRACTION = 0.3  # share of triples drawn from adversarial near-pairs
ADVERSARIAL_SUFFIX = 2  # length of the two tails that split a pair off its stem
MIN_BASE_SEPARATION = 0.01  # least distance from the projection base to x and y


def fiber_ks(d: int, k: int) -> list[int]:
    """Flag indices a fiber at index k needs: k-1 and k+1 for the line,
    k for the diagonal projection and d-k for the projected directions."""
    return sorted({j for j in (k - 1, k, k + 1, d - k) if 0 < j < d})


def _line_intersection(a: Subspace, b: Subspace) -> np.ndarray:
    """Unit vector spanning a 1-dimensional intersection of a and b.
    Raises TransversalityError when the top principal cosine is soft or
    the second one makes the line ambiguous."""
    u, s, _ = np.linalg.svd(a.frame.conj().T @ b.frame)
    if s[0] < 1.0 - LINE_SOFT_TOL:
        raise TransversalityError(f"intersection cosine {s[0]:.10f} below tolerance")
    if s.size > 1 and s[1] >= 1.0 - LINE_UNIQUE_TOL:
        raise TransversalityError(
            f"intersection not 1-dimensional (second cosine {s[1]:.10f})"
        )
    return a.frame @ u[:, 0]


@dataclass
class FiberPoint:
    """A point of the projective line at `base`, as a unit 2-vector in the
    base's fiber frame; `sphere` is filled once a trivialization is applied."""

    base: FlagSample
    k: int
    coords: np.ndarray
    source: Word
    sphere: complex | None = None


def tangent_project(z: FlagSample, x: FlagSample, k: int) -> FiberPoint:
    """Project the boundary direction x into the projective line of z.

    For x distinct from z this is the class of x^{d-k} intersected with
    z^{k+1}; for x = z (same source word) it is the class of z^k.
    """
    d = z.ambient_dim
    frame = z.fiber_frame(k)
    if x.source == z.source:
        qk = z.space(k).frame
        coords_mat = orth(frame.conj().T @ qk)
        if coords_mat.shape[1] != 1:
            raise PrecisionError("diagonal projection is not a line")
        coords = coords_mat[:, 0]
    else:
        v = _line_intersection(x.space(d - k), z.space(k + 1))
        coords = frame.conj().T @ v
        norm = np.linalg.norm(coords)
        if norm < 1e-8:
            raise TransversalityError(
                "projected line collapsed into the (k-1)-space"
            )
        coords = coords / norm
    return FiberPoint(base=z, k=k, coords=coords, source=x.source)


def point_dist(a: FlagSample, b: FlagSample) -> float:
    """Distance between the underlying boundary points: the subspace
    distance at the smallest common flag index.  Separation here is what
    controls the conditioning of tangent projections (osculation makes
    second principal angles shrink like a power of this distance)."""
    common = sorted(set(a.ks) & set(b.ks))
    if not common:
        raise InputError("flags share no indices")
    return hausdorff_subspace_dist(a.space(common[0]), b.space(common[0]))


def fiber_angle(p: FiberPoint, q: FiberPoint) -> float:
    """Sine of the angle between two fiber points over the same base; exact
    for tiny angles (it is a 2x2 determinant of unit columns)."""
    det = p.coords[0] * q.coords[1] - p.coords[1] * q.coords[0]
    return float(abs(det))


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


@dataclass(frozen=True)
class HyperconvexityReport:
    mode: str  # "eq1" or "Hk"
    k: int
    triples_tested: int
    skipped: int
    min_transversality: float
    worst_triple: tuple[Word, Word, Word]
    verdict: str  # passes | fails | inconclusive
    tau: float = TAU_PASS


def required_anosov_indices(rep: Representation, k: int, mode: str = "eq1") -> list[int]:
    d = rep.dim
    wanted = {k - 1, k + 1, d - k} if mode == "eq1" else {d - k + 1, d - k - 1, k}
    return sorted(j for j in wanted if 0 < j < d)


def _flag_pool(rep: Representation, ks, spec: TripleSpec):
    """Base pool plus adversarial near-pairs, all as FlagSamples.

    Adversarial attempts are drawn in chunks, in the order a one-by-one
    loop would draw them; each chunk's words are sampled in one batch and
    its pairs are accepted in draw order."""
    samples, _ = limit_set_sample(
        rep, ks, count=spec.pool_size, length=spec.word_length, seed=spec.seed
    )
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0xADF)))
    n_pairs = max(1, int(spec.count * ADVERSARIAL_FRACTION) // 8)
    max_attempts = 60 * n_pairs
    pairs = []
    attempts = 0
    # pairs closer than ~1e-5 can no longer be resolved in floats (the
    # normalized score converges as the pair degenerates, so nothing is
    # learned below the resolvability floor anyway)
    floor, ceiling = 3e-6, 2e-2
    while len(pairs) < n_pairs and attempts < max_attempts:
        size = min(max_attempts - attempts, 2 * (n_pairs - len(pairs)) + 8)
        attempts += size
        chunk = []
        for _ in range(size):
            stem_len = int(rng.integers(2, spec.word_length + 1))
            stem = W._random_word(rep.presentation, stem_len, rng)
            tails = [
                W._random_word(rep.presentation, ADVERSARIAL_SUFFIX, rng)
                for _ in range(2)
            ]
            wx = W.cyclic_reduce(W.reduce(stem + tails[0], rep.presentation))
            wy = W.cyclic_reduce(W.reduce(stem + tails[1], rep.presentation))
            if wx and wy and wx != wy:
                chunk.append((wx, wy))
        flags = iter(boundary_samples(rep, [w for pair in chunk for w in pair], ks))
        for fx, fy in zip(flags, flags):
            if isinstance(fx, FlaglabError) or isinstance(fy, FlaglabError):
                continue
            if floor <= point_dist(fx, fy) <= ceiling:
                pairs.append((fx, fy))
                if len(pairs) == n_pairs:
                    break
    return samples, pairs


def _transversality_sweep(rep, k, spec, ks, score_fn, mode) -> HyperconvexityReport:
    pool, adversarial = _flag_pool(rep, ks, spec)
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x7A1)))
    n_pool = len(pool)
    best = np.inf
    worst = (pool[0].source,) * 3
    tested = 0
    skipped = 0
    for i in range(spec.count):
        adversarial_turn = adversarial and rng.random() < ADVERSARIAL_FRACTION
        if adversarial_turn:
            x, y = adversarial[int(rng.integers(len(adversarial)))]
            z = pool[int(rng.integers(n_pool))]
        else:
            ii = rng.choice(n_pool, size=3, replace=False)
            x, y, z = pool[ii[0]], pool[ii[1]], pool[ii[2]]
        if len({x.source, y.source, z.source}) < 3:
            skipped += 1
            continue
        # the projection base must stay away from both directions; the x-y
        # closeness is exactly what the normalized score probes
        if (
            point_dist(x, z) < MIN_BASE_SEPARATION
            or point_dist(y, z) < MIN_BASE_SEPARATION
        ):
            skipped += 1
            continue
        try:
            score = score_fn(x, y, z)
        except (TransversalityError, PrecisionError):
            # flags indistinguishable at the noise floor: a degenerate triple,
            # not evidence (true failures surface as tiny scores, not errors)
            skipped += 1
            continue
        tested += 1
        if score < best:
            best = score
            worst = (x.source, y.source, z.source)
    if tested == 0:
        raise InputError("no valid triples were tested")
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
        tau=spec.tau,
    )


def check_hyperconvex(
    rep: Representation,
    k: int,
    spec: TripleSpec,
    certificates=None,
    assume_anosov: bool = False,
) -> HyperconvexityReport:
    """Score the two projected k-planes of each sampled triple.

    The score of (x, y, z) is the angle between the fiber lines of x and y
    at z, normalized by the separation of x and y upstream, so that the
    unavoidable degeneration along the diagonal cancels out; a pass says
    the normalized collapse stayed above tau on every tested triple.
    """
    d = rep.dim
    _check_prereqs(rep, k, "eq1", certificates, assume_anosov)
    ks = fiber_ks(d, k)

    def score(x, y, z):
        lx = tangent_project(z, x, k)
        ly = tangent_project(z, y, k)
        num = fiber_angle(lx, ly)
        sines = principal_sines(x.space(d - k), y.space(d - k))
        ref = float(sines[-1]) if sines.size else 0.0
        if ref < 1e-12:
            raise PrecisionError("reference separation vanished")
        return min(1.0, num / ref)

    return _transversality_sweep(rep, k, spec, ks, score, "eq1")


def check_Hk(
    rep: Representation,
    k: int,
    spec: TripleSpec,
    certificates=None,
    assume_anosov: bool = False,
) -> HyperconvexityReport:
    """Directness of (x^k cap z^{d-k+1}) + (y^k cap z^{d-k+1}) + z^{d-k-1},
    scored as the smallest singular value of the concatenated frames,
    normalized like check_hyperconvex."""
    d = rep.dim
    _check_prereqs(rep, k, "Hk", certificates, assume_anosov)
    ks = sorted({j for j in (k, d - k + 1, d - k - 1) if 0 < j < d})

    def score(x, y, z):
        upper = z.space(d - k + 1)
        vx = _line_intersection(x.space(k), upper)
        vy = _line_intersection(y.space(k), upper)
        lower = z.space(d - k - 1)
        cols = [vx[:, None], vy[:, None]] + ([lower.frame] if lower.dim else [])
        stacked = np.concatenate(cols, axis=1)
        smin = float(np.linalg.svd(stacked, compute_uv=False)[-1])
        sines = principal_sines(x.space(k), y.space(k))
        ref = float(sines[-1]) if sines.size else 0.0
        if ref < 1e-12:
            raise PrecisionError("reference separation vanished")
        return min(1.0, smin / ref)

    return _transversality_sweep(rep, k, spec, ks, score, "Hk")


def _check_prereqs(rep, k, mode, certificates, assume_anosov):
    if not 1 <= k <= rep.dim - 1:
        raise InputError(f"k={k} out of range 1..{rep.dim - 1}")
    if assume_anosov:
        return
    needed = required_anosov_indices(rep, k, mode)
    certificates = certificates or {}
    missing = [
        j
        for j in needed
        if j not in certificates or certificates[j].verdict != "certified"
    ]
    if missing:
        raise InputError(
            f"hyperconvexity check at k={k} needs certified indices {missing}; "
            "pass certificates or assume_anosov=True"
        )


# --- Mobius cocycle and trivialization ------------------------------------


def mobius_cocycle(
    rep: Representation, gamma, t: FlagSample, k: int
) -> tuple[np.ndarray, FlagSample]:
    """The induced projective map from the fiber at t to the fiber at
    gamma.t, as a det-1 2x2 matrix in the two cached fiber frames.
    Returns (matrix, transported flag)."""
    gt = transport_flag(rep, gamma, t)
    m = rep.evaluate(gamma)
    b = gt.fiber_frame(k).conj().T @ m @ t.fiber_frame(k)
    return det_normalize(b), gt


class Trivialization:
    """Fiberwise Mobius normalization sending the projections of three
    fixed boundary directions to 0, 1, infinity in every fiber."""

    def __init__(self, rep: Representation, k: int, basepoints):
        if len(basepoints) != 3:
            raise InputError("a trivialization needs three basepoint flags")
        srcs = {b.source for b in basepoints}
        if len(srcs) != 3:
            raise InputError("trivialization basepoints must be pairwise distinct")
        self.rep = rep
        self.k = k
        self.basepoints = tuple(basepoints)
        # keyed by flag object: the map is expressed in that object's cached
        # fiber frame, so sharing it across objects would mix frame gauges
        self._cache: dict[int, tuple[FlagSample, np.ndarray]] = {}

    def fiber_map(self, t: FlagSample) -> np.ndarray:
        """Mobius matrix of the normalization in the fiber over t, in the
        fiber frame of this particular flag object."""
        hit = self._cache.get(id(t))
        if hit is not None:
            return hit[1]
        p = [tangent_project(t, b, self.k).coords for b in self.basepoints]
        m = three_point_map(*p)
        self._cache[id(t)] = (t, m)
        return m

    def project(self, t: FlagSample, x: FlagSample) -> FiberPoint:
        """Tangent-project x at t and fill in the sphere coordinate."""
        fp = tangent_project(t, x, self.k)
        w = self.fiber_map(t) @ fp.coords
        fp.sphere = chart(w)
        return fp

    def cocycle(self, gamma, t: FlagSample) -> tuple[np.ndarray, FlagSample]:
        """Trivialized cocycle: the fiber action read through the 0,1,inf
        normalizations at both ends.  Satisfies the cocycle identity up to
        float error whenever the flag objects are shared."""
        b, gt = mobius_cocycle(self.rep, gamma, t, self.k)
        m = self.fiber_map(gt) @ b @ np.linalg.inv(self.fiber_map(t))
        return det_normalize(m), gt


@dataclass
class FiberRow:
    base_word: Word
    fiber_word: Word
    value: complex
    at_infinity: bool


@dataclass
class FoliatedSample:
    k: int
    rows: list[FiberRow]
    base_status: dict[Word, str]
    basepoint_words: tuple[Word, Word, Word]
    seed: int


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
    coordinates with the three trivialization sections pinned at 0, 1, inf."""
    ks = fiber_ks(rep.dim, k)
    flags, _ = limit_set_sample(
        rep, ks, count=base_count + fiber_count + 8, length=word_length, seed=seed
    )
    # basepoints: the best-quality of the first eight flags, tie-broken
    # toward a well-spread triple so the fiber normalizations stay conditioned
    candidates = sorted(flags[:8], key=lambda f: f.quality)
    best = max(
        combinations(candidates, 3),
        key=lambda triple: min(
            point_dist(a, b) for a, b in combinations(triple, 2)
        ),
    )
    trivialization = Trivialization(rep, k, best)
    taken = {b.source for b in best}
    flags = [f for f in flags if f.source not in taken]
    bases = flags[:base_count]
    fibers = [f for f in flags if f.source not in {b.source for b in bases}][:fiber_count]
    rows: list[FiberRow] = []
    status: dict[Word, str] = {}
    for t in bases:
        ok = 0
        failed = 0
        try:
            trivialization.fiber_map(t)
        except (TransversalityError, PrecisionError) as exc:
            status[t.source] = f"base failed: {exc}"
            continue
        for x in fibers:
            if x.source == t.source:
                continue
            try:
                fp = trivialization.project(t, x)
            except (TransversalityError, PrecisionError):
                failed += 1
                continue
            v = fp.sphere
            inf_flag = v is not None and not np.isfinite(v.real)
            rows.append(
                FiberRow(
                    base_word=t.source,
                    fiber_word=x.source,
                    value=0j if inf_flag else complex(v),
                    at_infinity=bool(inf_flag),
                )
            )
            ok += 1
        status[t.source] = f"ok={ok} failed={failed}"
    return FoliatedSample(
        k=k,
        rows=rows,
        base_status=status,
        basepoint_words=tuple(b.source for b in trivialization.basepoints),
        seed=seed,
    )


# --- wedge-power transfer maps ---------------------------------------------


def plucker(sub: Subspace) -> Subspace:
    """Line of the k-th exterior power corresponding to a k-subspace."""
    if sub.dim == 0:
        raise InputError("plucker embedding needs a positive-dimensional subspace")
    return Subspace.line(wedge_coords(sub.frame))


def wedge_pencil(z: FlagSample, k: int) -> Subspace:
    """The 2-plane of wedges (k-1 fixed directions of z, one free direction
    of its (k+1)-space): the image of the fiber of z in the exterior power."""
    lower = z.space(k - 1).frame
    cols = [wedge_coords(np.concatenate([lower, f[:, None]], axis=1)) for f in z.fiber_frame(k).T]
    return Subspace(orth(np.stack(cols, axis=1)))


def wedge_hyperplane(y: FlagSample, k: int) -> Subspace:
    """Kernel of pairing with the wedge of the (d-k)-space of y: the
    hyperplane of the exterior power that absorbs the limit set away from y."""
    d = y.ambient_dim
    yframe = y.space(d - k).frame
    idx = list(combinations(range(d), k))
    coeff = np.empty(len(idx), dtype=complex)
    for row, i_set in enumerate(idx):
        comp = [j for j in range(d) if j not in i_set]
        sign = (-1) ** (sum(i_set) - (len(i_set) * (len(i_set) - 1)) // 2)
        coeff[row] = sign * np.linalg.det(yframe[comp, :])
    return Subspace.line(np.conj(coeff)).orthocomplement()


def fiber_wedge_line(p: FiberPoint) -> Subspace:
    """Image of a fiber point under the bundle map into the exterior power:
    wedge the (k-1)-frame of the base with the point's representative."""
    z = p.base
    v = z.fiber_frame(p.k) @ p.coords
    cols = np.concatenate([z.space(p.k - 1).frame, v[:, None]], axis=1)
    return Subspace.line(wedge_coords(cols))


def wedge_fiber_point(z: FlagSample, y: FlagSample, k: int) -> Subspace:
    """The fiber point of the k-th wedge representation over z in the
    direction y, computed purely downstairs: hyperplane of y met with the
    pencil of z."""
    pencil = wedge_pencil(z, k)
    hyper = wedge_hyperplane(y, k)
    # 1-dim intersection of a 2-plane with a hyperplane in C^N
    v = _line_intersection(pencil, hyper)
    return Subspace.line(v)
