"""The paper's checks that no command runs, as oracles for the tests.

flaglab ships what its commands run.  The machinery that only the tests
use to check the paper's two results lives here: the exterior-power
transfer maps and the fiberwise Mobius cocycle behind the
virtually-Kleinian result, the quasi-Mobius and Ahlfors quasicircle
constants, the H^3 action behind visual-measure equivariance, flag
transport, and the representation functors (contragredient, perturbation,
wedge powers) the tests build their inputs with.  It also keeps the
one-shot forms of the sphere-cloud kernels that flaglab runs in blocks,
by columns or by one sort, so the tests can check they keep every bit.
"""

from __future__ import annotations

import math
from itertools import combinations
from math import comb

import numpy as np

from flaglab import words as W
from flaglab.certify import FlagStack
from flaglab.errors import CapacityError, InputError, PrecisionError
from flaglab.fibers import SCORED, _FAULT_MESSAGES, Trivialization, _fiber_frame, line_intersections
from flaglab.boxdim import _FACE_CENTERS, _FACE_INV, Located
from flaglab.mobius import apply_mobius
from flaglab.reps import Representation, wedge_coords, wedge_matrix
from flaglab.sphere import MassEstimate, VisualMeasure, _unit_vectors, cap_hits
from flaglab.subspaces import RANK_TOL, det_normalize, frame_complements, frame_dists
from flaglab.words import GroupPresentation, Word

MAX_WEDGE_DIM = 1024
QUADRUPLES = 400  # seeded triples tried by quasimobius_constant
NORM_TOL = 0.05  # how far |B| of a kept quadruple may sit from 1
MAX_EXHAUSTIVE = 40  # ahlfors_bound tries every quadruple up to this many points
AHLFORS_SAMPLES = 20000  # random quadruples ahlfors_bound adds past it


# --- words and subspaces ----------------------------------------------------------


def invert(w: Word) -> Word:
    return tuple(-letter for letter in reversed(w))


def concat(presentation: GroupPresentation, *parts: Word) -> Word:
    out = [letter for part in parts for letter in part]
    return W.reduce(out, presentation)


def orth(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, rank decided by RANK_TOL
    relative to the top singular value."""
    a = np.asarray(vectors, dtype=complex)
    if a.ndim != 2:
        raise InputError("expected a matrix of column vectors")
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return u[:, :rank]


def hausdorff_subspace_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the subspaces of two frames of one
    shape (d, k): the Hausdorff distance between their projectivizations,
    in radians."""
    if a.ndim != 2 or a.shape != b.shape:
        raise InputError(f"need two (d, k) frames of one shape, got {a.shape} and {b.shape}")
    if a.shape[1] == 0:
        return 0.0
    return float(frame_dists(a, b, frame_complements(b)))


# --- representation functors --------------------------------------------------------


def contragredient(rep: Representation) -> Representation:
    """Generator-wise inverse transpose; an involution on representations."""
    mats = [np.linalg.inv(g).T for g in rep.generators]
    return Representation(rep.presentation, mats, label=f"contragredient({rep.label})")


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential for small matrices."""
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-16)))) + 1) if norm > 0.5 else 0
    x = a / (2**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def perturb(rep: Representation, eps: float, seed: int) -> Representation:
    """Multiply each generator by exp(eps * K) for a seeded random traceless
    K of unit Frobenius norm.  eps = 0 reproduces the generators exactly."""
    if not 0.0 <= eps < 1.0:
        raise InputError("eps must lie in [0, 1)")
    if eps == 0.0:
        return Representation(
            rep.presentation, [g.copy() for g in rep.generators], label=rep.label
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = rep.dim
    mats = []
    for g in rep.generators:
        k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        k -= np.trace(k) / d * np.eye(d)
        k /= np.linalg.norm(k)
        mats.append(g @ _expm(eps * k))
    return Representation(rep.presentation, mats, label=f"perturb({rep.label}, eps={eps})")


def wedge_rep(rep: Representation, k: int) -> Representation:
    """Generator-wise k-th exterior power; the singular values of the image
    of a word are the k-fold products of the original ones."""
    if not 1 <= k <= rep.dim - 1:
        raise InputError(f"wedge index k={k} out of range 1..{rep.dim - 1}")
    n = comb(rep.dim, k)
    if n > MAX_WEDGE_DIM:
        raise CapacityError(f"wedge dimension {n} exceeds budget {MAX_WEDGE_DIM}")
    mats = [wedge_matrix(g, k) for g in rep.generators]
    return Representation(rep.presentation, mats, label=f"wedge^{k}({rep.label})")


# --- flag transport and the Mobius cocycle --------------------------------------------


def transport_flag(rep: Representation, gamma, flag: FlagStack) -> FlagStack:
    """Image of the one-row stack flag under rho(gamma): one QR of the
    moved frame, so the image spaces nest by construction; it keeps its
    source's quality.  Raises PrecisionError when rho(gamma) collapses the
    top requested space (a lower one is a column subset of it and never
    collapses first)."""
    g = W.reduce(gamma, rep.presentation)
    if not g:
        return flag  # identity transport: the same frame, so the same fiber gauge
    moved = rep.evaluate(g) @ flag.frames[0]
    top = flag.ks[-1]
    if orth(moved[:, :top]).shape[1] != top:
        raise PrecisionError(f"transport collapsed the {top}-space")
    q, _ = np.linalg.qr(moved)
    src = concat(rep.presentation, g, flag.sources[0], invert(g))
    return FlagStack([src], q[None], flag.ks, flag.quality)


def mobius_cocycle(
    rep: Representation, gamma, t: FlagStack, k: int
) -> tuple[np.ndarray, FlagStack]:
    """The induced projective map from the fiber at the one-row stack t to
    the fiber at gamma.t, as a det-1 2x2 matrix in the fiber frames of t
    and gamma.t.  Returns (matrix, transported flag)."""
    gt = transport_flag(rep, gamma, t)
    m = rep.evaluate(gamma)
    b = _fiber_frame(gt, k).conj().T @ m @ _fiber_frame(t, k)
    return det_normalize(b), gt


def cocycle(
    rep: Representation, triv: Trivialization, gamma, t: FlagStack
) -> tuple[np.ndarray, FlagStack]:
    """Trivialized cocycle: the fiber action read through triv's 0,1,inf
    normalizations at both ends.  Satisfies the cocycle identity up to
    float error wherever the flags' frames agree bit for bit, as every
    fiber frame is a function of those bits."""
    b, gt = mobius_cocycle(rep, gamma, t, triv.k)
    m = triv.fiber_map(gt) @ b @ np.linalg.inv(triv.fiber_map(t))
    return det_normalize(m), gt


# --- wedge-power transfer maps ---------------------------------------------


def _unit_column(v: np.ndarray) -> np.ndarray:
    """The (N, 1) frame of the line spanned by the vector v."""
    v = np.asarray(v, dtype=complex).reshape(-1, 1)
    n = np.linalg.norm(v)
    if n == 0:
        raise InputError("zero vector spans no line")
    return v / n


def plucker(frame: np.ndarray) -> np.ndarray:
    """Frame (N, 1) of the line of the k-th exterior power corresponding to
    the k-subspace of frame (d, k)."""
    if frame.shape[1] == 0:
        raise InputError("plucker embedding needs a positive-dimensional subspace")
    return _unit_column(wedge_coords(frame))


def wedge_pencil(z: FlagStack, k: int) -> np.ndarray:
    """Frame (N, 2) of the 2-plane of wedges (k-1 fixed directions of the
    one-row stack z, one free direction of its (k+1)-space): the image of
    the fiber of z in the exterior power."""
    lower = z.space(k - 1)[0]
    cols = [wedge_coords(np.concatenate([lower, f[:, None]], axis=1)) for f in _fiber_frame(z, k).T]
    return orth(np.stack(cols, axis=1))


def wedge_hyperplane(y: FlagStack, k: int) -> np.ndarray:
    """Frame (N, N-1) of the kernel of pairing with the wedge of the
    (d-k)-space of the one-row stack y: the hyperplane of the exterior
    power that absorbs the limit set away from y."""
    d = y.ambient_dim
    yframe = y.space(d - k)[0]
    idx = list(combinations(range(d), k))
    coeff = np.empty(len(idx), dtype=complex)
    for row, i_set in enumerate(idx):
        comp = [j for j in range(d) if j not in i_set]
        sign = (-1) ** (sum(i_set) - (len(i_set) * (len(i_set) - 1)) // 2)
        coeff[row] = sign * np.linalg.det(yframe[comp, :])
    return frame_complements(_unit_column(np.conj(coeff)))


def fiber_wedge_line(z: FlagStack, k: int, coords: np.ndarray) -> np.ndarray:
    """Frame (N, 1) of the image of the fiber point coords over the one-row
    stack z under the bundle map into the exterior power: wedge the
    (k-1)-frame of z with its representative."""
    v = _fiber_frame(z, k) @ coords
    cols = np.concatenate([z.space(k - 1)[0], v[:, None]], axis=1)
    return _unit_column(wedge_coords(cols))


def wedge_fiber_point(z: FlagStack, y: FlagStack, k: int) -> np.ndarray:
    """Frame (N, 1) of the fiber point of the k-th wedge representation over
    z in the direction y, computed purely downstairs: hyperplane of y met
    with the pencil of z."""
    # 1-dim intersection of a 2-plane with a hyperplane in C^N
    v, fault = line_intersections(wedge_pencil(z, k), wedge_hyperplane(y, k))
    if fault != SCORED:
        raise PrecisionError(_FAULT_MESSAGES[int(fault)])
    return _unit_column(v)


# --- quasi-Mobius constant --------------------------------------------------


def cross_ratio_many(points: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """|B| = |c-a| |d-b| / (|b-a| |d-c|) in R^3 chords (twice the |det| of
    the unit pairs, so this is |cross_ratio|) for many index quadruples at
    once; inf where the denominator vanishes.  points: (n, 3); quads: (m, 4)."""
    a, b, c, d = (points[quads[:, i]] for i in range(4))
    num = np.linalg.norm(c - a, axis=1) * np.linalg.norm(d - b, axis=1)
    den = np.linalg.norm(b - a, axis=1) * np.linalg.norm(d - c, axis=1)
    out = np.full(len(quads), np.inf)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    return out


def quasimobius_constant(
    source: np.ndarray,
    image: np.ndarray,
    seed: int = 0,
) -> float:
    """Distortion estimate K >= 1 of a sampled correspondence.

    For seeded triples (a, b, d) the fourth point is chosen from the
    source set itself, minimizing | |B| - 1 | (quadruples further than
    NORM_TOL from the |B| = 1 locus are discarded), and the reported
    distortion is the two-sided ratio max(|B'|/|B|, |B|/|B'|), which is
    exactly 1 for any Mobius-restricted correspondence.
    """
    source = _unit_vectors(source, "source must be an (n, 3) array of unit vectors")
    image = _unit_vectors(image, "image must be an (n, 3) array of unit vectors")
    if source.shape != image.shape:
        raise InputError("source and image must be matching arrays")
    n = len(source)
    if n < 4:
        raise InputError("need at least 4 correspondence pairs")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best = 1.0
    kept = 0
    candidates = np.arange(n)
    for _ in range(QUADRUPLES):
        i, j, l = rng.choice(n, size=3, replace=False)
        quads = np.column_stack([np.full(n, i), np.full(n, j), candidates, np.full(n, l)])
        vals = cross_ratio_many(source, quads)
        vals[[i, j, l]] = np.inf
        with np.errstate(invalid="ignore"):
            off = np.abs(np.log(np.where(np.isfinite(vals) & (vals > 0), vals, np.inf)))
        m = int(np.argmin(off))
        if not math.isfinite(off[m]) or abs(vals[m] - 1.0) > NORM_TOL:
            continue
        b_src = vals[m]
        b_img = cross_ratio_many(image, quads[m][None, :])[0]
        if not math.isfinite(b_img) or b_img <= 0:
            return math.inf
        kept += 1
        ratio = max(b_img / b_src, b_src / b_img)
        best = max(best, float(ratio))
    if kept == 0:
        raise InputError(
            "no quadruple came within NORM_TOL of |B| = 1; enlarge the sample"
        )
    return best


# --- Ahlfors quasicircle bound ----------------------------------------------


def ahlfors_bound(
    curve_points: np.ndarray,
    seed: int = 0,
) -> float:
    """sup of |B(a, c, b, d)| over cyclically ordered quadruples of a Jordan
    curve sample (input order is the declared cyclic order).  Bounded for
    quasicircles; blows up on cusps and spikes."""
    pts = _unit_vectors(curve_points, "curve_points must be an (n, 3) array of unit vectors")
    if len(pts) < 4:
        raise InputError("need >= 4 cyclically ordered points")
    n = len(pts)
    if n <= MAX_EXHAUSTIVE:
        quads = np.array(list(combinations(range(n), 4)), dtype=int)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        local = []
        # adjacent windows catch the near-degenerate triples that drive the sup
        for shift in range(1, 4):
            i = np.arange(n)
            j = (i + shift) % n
            k = (i + 2 * shift) % n
            for step in range(1, 8):
                far = (i + 2 * shift + step * max(1, n // 9)) % n
                block = np.stack([i, j, k, far], axis=1)
                local.append(block)
        quads = np.concatenate(local, axis=0)
        extra = rng.integers(0, n, size=(AHLFORS_SAMPLES, 4))
        # wrap-around windows are still cyclically ordered: sort the indices,
        # then drop quadruples that repeat one
        quads = np.sort(np.concatenate([quads, extra], axis=0), axis=1)
        quads = quads[np.all(np.diff(quads, axis=1) > 0, axis=1)]
    # positively ordered (a, b, c, d) on the curve, evaluated as B(a, c, b, d)
    swapped = quads[:, [0, 2, 1, 3]]
    vals = cross_ratio_many(pts, swapped)
    vals = vals[np.isfinite(vals)]
    if len(vals) == 0:
        raise InputError("all tested quadruples were degenerate")
    return float(np.max(vals))


# --- visual-measure equivariance --------------------------------------------------
#
# Points of H^3 in upper-half-space coordinates (z, t), z complex, t > 0.
# The ball-model origin corresponds to (0, 1).


def h3_apply(m: np.ndarray, z: complex, t: float) -> tuple[complex, float]:
    """Action of a det-1 2x2 complex matrix on upper half space."""
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    cz_d = c * z + d
    denom = abs(cz_d) ** 2 + (abs(c) * t) ** 2
    if denom == 0:
        raise InputError("matrix sends the point to the ideal boundary")
    z_new = ((a * z + b) * np.conj(cz_d) + a * np.conj(c) * t * t) / denom
    return complex(z_new), float(t / denom)


def transported(nu: VisualMeasure, m: np.ndarray) -> VisualMeasure:
    """Visual measure at the image of nu's basepoint under m."""
    z2, t2 = h3_apply(np.asarray(m, dtype=complex), nu.z, nu.t)
    return VisualMeasure(z2, t2)


def pulled_back_mass(nu: VisualMeasure, cloud, eps: float, mc_count: int, seed: int,
                     pre_map: np.ndarray) -> MassEstimate:
    """visual_mass of cloud at nu with the Mobius matrix pre_map applied to
    the samples before the membership test: pulled_back_mass(nu_gx, A, ...,
    pre_map=g^-1) estimates the pulled-back integrand of the
    measure-equivariance law.  Draws visual_mass's samples, by its seed."""
    cloud = _unit_vectors(cloud, "cloud must be an (n, 3) array of finite unit vectors")
    pts = apply_mobius(pre_map, nu.sample(np.random.default_rng(np.random.SeedSequence(seed)), mc_count))
    p = cap_hits(pts, cloud, eps) / mc_count
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / mc_count)
    return MassEstimate(estimate=p, sigma=sigma, seed=seed, mc_count=mc_count)


# --- one-shot sphere-cloud kernels -----------------------------------------------
#
# Each is the form flaglab ran before its kernel went blocked, column-wise
# or sort-counted; the blocked forms must give the same bits.


def locate_unblocked(xyz: np.ndarray) -> Located:
    """boxdim.locate as one (m, 3) @ (3, 20) product over the whole cloud."""
    face = np.argmax(xyz @ _FACE_CENTERS.T, axis=1)
    bary = np.einsum("mij,mj->mi", _FACE_INV[face], xyz)
    bary = np.maximum(bary, 0.0)
    bary /= bary.sum(axis=1, keepdims=True)
    return Located(face, bary)


def int_cell_ids(located: Located, n: int) -> np.ndarray:
    """boxdim.cell_ids in int64 arithmetic."""
    face, bary = located
    ijk = np.floor(bary * (n * (1.0 - 1e-12))).astype(np.int64)
    up = ijk.sum(axis=1) == n - 1
    return ((face * n + ijk[:, 0]) * n + ijk[:, 1]) * 2 + up


def unique_cell_count(located: Located, n: int) -> int:
    """boxdim.occupied_cells by np.unique."""
    return len(np.unique(int_cell_ids(located, n)))


def cantor_cloud_loop(levels: int, arc: float = 1.0) -> np.ndarray:
    """boxdim.cantor_cloud by one pass over the bits of every index."""
    n = 1 << levels
    t = np.zeros(n)
    for j in range(levels):
        bit = (np.arange(n) >> j) & 1
        t += 2.0 * bit / 3.0 ** (j + 1)
    theta = t * arc
    return np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)


def normalize_linalg(v: np.ndarray) -> np.ndarray:
    """mobius.normalize by np.linalg.norm."""
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def uniform_sphere_linalg(rng: np.random.Generator, count: int) -> np.ndarray:
    """mobius.uniform_sphere by np.linalg.norm."""
    g = rng.standard_normal((count, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def matmul_cube_keys(sample_xyz: np.ndarray, cloud_xyz: np.ndarray, side: float):
    """sphere._cube_keys from whole cube-index arrays and an int64 matmul."""
    sample_cube = np.floor(sample_xyz / side).astype(np.int64)
    cloud_cube = np.floor(cloud_xyz / side).astype(np.int64)
    low = min(sample_cube.min(), cloud_cube.min()) - 1
    base = max(sample_cube.max(), cloud_cube.max()) - low + 2
    weights = np.array([base * base, base, 1])
    return (sample_cube - low) @ weights, (cloud_cube - low) @ weights, int(base)
