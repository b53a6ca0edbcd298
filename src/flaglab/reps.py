"""Matrix representations: construction, word evaluation, functors.

Lifts are kept determinant-normalized (|det| = 1, principal root) and
every product is renormalized, so length-10^4 words neither overflow nor
drift; gap profiles are unaffected by the rescaling.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
from math import comb

import numpy as np

from . import words as W
from .errors import CapacityError, ConditioningError, InputError, PrecisionError
from .mobius import INF
from .subspaces import det_normalize
from .words import GroupPresentation, Word, free_group, reduce, surface_group

MAX_WEDGE_DIM = 1024

INVERSE_TOL = 1e-10
RELATOR_TOL = 1e-8


class Representation:
    """A homomorphism to PSL(d, C) given by one normalized matrix per
    generator.  Immutable."""

    def __init__(self, presentation: GroupPresentation, generator_matrices, label: str = ""):
        mats = [det_normalize(np.asarray(m, dtype=complex)) for m in generator_matrices]
        if len(mats) != presentation.generator_count:
            raise InputError("one matrix per generator required")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise InputError("generator matrices must share one square shape")
        self.dim = d
        self.presentation = presentation
        self.generators = mats
        self.inverses = [np.linalg.inv(m) for m in mats]
        self.label = label
        self._validate()

    def _validate(self):
        for i, (g, gi) in enumerate(zip(self.generators, self.inverses)):
            resid = np.max(np.abs(gi @ g - np.eye(self.dim)))
            if resid > INVERSE_TOL:
                raise ConditioningError(f"generator {i + 1} inverse residual {resid:.2e}")
        for rel in self.presentation.relations:
            # relator products sit near +-I, which a Frobenius rescale keeps
            m = self.evaluate(rel)
            dist = min(
                np.max(np.abs(m - np.eye(self.dim))),
                np.max(np.abs(m + np.eye(self.dim))),
            )
            if dist > RELATOR_TOL:
                raise InputError(
                    f"relator {W.word_to_str(rel)} evaluates {dist:.2e} away from +-identity"
                )

    def matrix(self, letter: int) -> np.ndarray:
        if letter > 0:
            return self.generators[letter - 1]
        return self.inverses[-letter - 1]

    def evaluate(self, word) -> np.ndarray:
        """Product of generator matrices along the freely reduced word,
        rescaled to Frobenius norm sqrt(d) after each step.

        The scaling makes length-10^4 products representable where a
        unit-determinant lift would overflow; all consumers (gaps,
        attractors, cocycles) are projective, so only the class matters.
        """
        w = reduce(word, self.presentation)
        m = np.eye(self.dim, dtype=complex)
        scale = math.sqrt(self.dim)
        for pos, letter in enumerate(w):
            with np.errstate(all="ignore"):
                m = m @ self.matrix(letter)
                factor = scale / np.linalg.norm(m)
            # a non-finite product, or a norm that overflows to inf or
            # underflows to 0, leaves no finite nonzero rescale factor
            if not 0.0 < factor < math.inf:
                raise PrecisionError(f"over/underflow after prefix of length {pos + 1}")
            m = m * factor
        return m

    def __repr__(self):
        return f"Representation(d={self.dim}, rank={self.presentation.generator_count}, {self.label!r})"


# --- example constructors -------------------------------------------------


def _is_inf(z) -> bool:
    try:
        return cmath.isinf(complex(z))
    except (TypeError, ValueError):
        return str(z).lower() in ("inf", "infinity", "oo")


def _loxodromic_pair(multiplier: complex, c_out: complex, c_in: complex) -> np.ndarray:
    """Loxodromic map with eigenvalues (multiplier, 1/multiplier) pairing
    the circle centered at c_out with the one centered at c_in: the
    isometric circles land exactly on those centers."""
    lam = complex(multiplier)
    t = lam + 1.0 / lam
    out_inf, in_inf = _is_inf(c_out), _is_inf(c_in)
    if out_inf and in_inf:
        raise InputError("a generator cannot pair two circles at infinity")
    if out_inf:
        c = complex(c_in)
        return np.array([[1.0 / lam, c * (lam - 1.0 / lam)], [0.0, lam]], dtype=complex)
    if in_inf:
        c = complex(c_out)
        return np.array([[lam, c * (1.0 / lam - lam)], [0.0, 1.0 / lam]], dtype=complex)
    c, cp = complex(c_out), complex(c_in)
    scale = (cp - c) / t  # sqrt(-kappa); isometric radius |scale|
    kappa = -(scale * scale)
    m = np.array([[cp, kappa - c * cp], [1.0, -c]], dtype=complex)
    return m / scale


def _isometric_radius(multiplier: complex, c_out, c_in) -> float | None:
    """Radius shared by the two paired circles; None for a pair at infinity
    (radius is then a free parameter fixed by the disjointness solver)."""
    if _is_inf(c_out) or _is_inf(c_in):
        return None
    lam = complex(multiplier)
    return abs(complex(c_in) - complex(c_out)) / abs(lam + 1.0 / lam)


def schottky2(multipliers, centers, label: str | None = None) -> Representation:
    """Rank-2 Schottky representation in PSL(2, C) from two loxodromic
    circle pairings.

    multipliers: two complex numbers with |lambda| > 1 (eigenvalue pair
    (lambda, 1/lambda); the derivative multiplier is lambda^2).
    centers: four pairwise distinct sphere points (inf allowed once);
    generator i pairs circles centered at centers[2i] and centers[2i+1].
    Raises InputError when the four defining circles cannot be certified
    pairwise disjoint (the classical ping-pong condition).
    """
    if len(multipliers) != 2 or len(centers) != 4:
        raise InputError("schottky2 needs two multipliers and four centers")
    for lam in multipliers:
        if abs(complex(lam)) <= 1.0 + 1e-12:
            raise InputError(f"multiplier {lam} must have modulus > 1")
    keys = [INF if _is_inf(c) else complex(c) for c in centers]
    for i in range(4):
        for j in range(i + 1, 4):
            if keys[i] == keys[j]:
                raise InputError(f"centers {i} and {j} coincide")

    mats = [
        _loxodromic_pair(multipliers[0], centers[0], centers[1]),
        _loxodromic_pair(multipliers[1], centers[2], centers[3]),
    ]
    circles = _schottky_circles(multipliers, centers)
    radii = ", ".join(f"r{i + 1}={r:.4g}" for i, r in enumerate(c[1] for c in circles))
    text = label or f"schottky2(multipliers={tuple(multipliers)}, centers={tuple(str(c) for c in centers)})"
    return Representation(free_group(2), mats, label=f"{text} [ping-pong circles disjoint: {radii}]")


def _schottky_circles(multipliers, centers) -> list[tuple[complex, float]]:
    """Certify the four pairing circles pairwise disjoint and return them.
    Raises InputError naming the overlapping pair otherwise."""
    finite: list[tuple[complex, float, str]] = []
    deferred: list[tuple[int, complex, float, str]] = []  # generators with a circle at infinity
    for i in range(2):
        c_out, c_in = centers[2 * i], centers[2 * i + 1]
        r = _isometric_radius(multipliers[i], c_out, c_in)
        lam2 = abs(complex(multipliers[i])) ** 2
        if r is None:
            anchor = c_in if _is_inf(c_out) else c_out
            deferred.append((i, complex(anchor), lam2, f"generator {i + 1}"))
        else:
            finite.append((complex(c_out), r, f"circle at {c_out}"))
            finite.append((complex(c_in), r, f"circle at {c_in}"))
    if len(deferred) > 1:
        raise InputError("at most one generator may pair a circle at infinity")

    for a in range(len(finite)):
        for b in range(a + 1, len(finite)):
            ca, ra, na = finite[a]
            cb, rb, nb = finite[b]
            if abs(ca - cb) <= ra + rb:
                raise InputError(f"isometric circles overlap: {na} (r={ra:.4g}) and {nb} (r={rb:.4g})")

    out = [(c, r) for c, r, _ in finite]
    for _, anchor, lam2, name in deferred:
        lo, hi = 0.0, math.inf
        for c, r, cname in finite:
            sep = abs(c - anchor)
            if sep <= r:
                raise InputError(f"{name}: anchor {anchor} lies inside {cname}")
            hi = min(hi, sep - r)
            lo = max(lo, (sep + r) / lam2)
        if not finite:
            lo, hi = 1.0 / lam2, 1.0
        if lo >= hi:
            raise InputError(
                f"{name}: multiplier too weak, no radius separates its circle pair "
                f"from the others (need {lo:.4g} < r < {hi:.4g})"
            )
        r = math.sqrt(lo * hi)
        out.append((anchor, r))
        out.append((anchor, lam2 * r))  # boundary of the disk at infinity
    return out


def _sym_matrix(m: np.ndarray, n: int) -> np.ndarray:
    """n-th symmetric power of a 2x2 matrix in the orthonormal weighted
    monomial basis (so unitaries stay unitary)."""
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    dim = n + 1
    mono = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        # column j: expand (a x + c y)^(n-j) (b x + d y)^j
        col = np.zeros(dim, dtype=complex)
        first = np.array([comb(n - j, p) * a ** (n - j - p) * c**p for p in range(n - j + 1)])
        second = np.array([comb(j, q) * b ** (j - q) * d**q for q in range(j + 1)])
        col[: n + 1] = np.convolve(first, second)
        mono[:, j] = col
    # coordinates in the orthonormal weighted basis transform by W^-1 P W,
    # with W the diagonal of square-root binomials (induced tensor metric)
    w = np.sqrt([comb(n, i) for i in range(dim)])
    return (mono / w[:, None]) * w[None, :]


def sym_power(rep2: Representation, d_target: int) -> Representation:
    """Irreducible representation of dimension d_target applied generator-wise
    (action on homogeneous polynomials of degree d_target - 1 in two variables)."""
    if rep2.dim != 2:
        raise InputError("sym_power takes a 2-dimensional representation")
    if d_target < 2:
        raise InputError("d_target must be >= 2")
    n = d_target - 1
    mats = [_sym_matrix(g, n) for g in rep2.generators]
    return Representation(
        rep2.presentation, mats, label=f"sym^{n}({rep2.label or 'rep'})"
    )


def direct_sum(rep_a: Representation, rep_b: Representation) -> Representation:
    """Block-diagonal sum; designed failure family for gap/transversality
    conditions (repeated singular values kill the outer gaps)."""
    if rep_a.presentation != rep_b.presentation:
        raise InputError("direct_sum needs matching presentations")
    mats = []
    for ga, gb in zip(rep_a.generators, rep_b.generators):
        m = np.zeros((rep_a.dim + rep_b.dim,) * 2, dtype=complex)
        m[: rep_a.dim, : rep_a.dim] = ga
        m[rep_a.dim :, rep_a.dim :] = gb
        mats.append(m)
    return Representation(
        rep_a.presentation, mats, label=f"({rep_a.label}) (+) ({rep_b.label})"
    )


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


def wedge_coords(cols: np.ndarray) -> np.ndarray:
    """Coordinates of the wedge of the columns in the sorted multi-index
    basis: all k x k minors by rows."""
    d, k = cols.shape
    idx = list(combinations(range(d), k))
    out = np.empty(len(idx), dtype=complex)
    for row, i_set in enumerate(idx):
        out[row] = np.linalg.det(cols[i_set, :])
    return out


def wedge_matrix(m: np.ndarray, k: int) -> np.ndarray:
    """k-th exterior power in the sorted multi-index basis: column J holds
    the wedge coordinates of the columns J of m, so the induced Hermitian
    product is the standard one."""
    cols = combinations(range(m.shape[1]), k)
    return np.stack([wedge_coords(m[:, j_set]) for j_set in cols], axis=1)


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


# --- built-in presets -----------------------------------------------------

OCTAGON_RELATOR: Word = (1, 4, -3, 2, -1, -4, 3, -2)


def _octagon_matrices() -> list[np.ndarray]:
    """Side-pairing translations of the regular hyperbolic octagon (disk
    model): axes through the origin at angles k*pi/4, translation length
    2*arccosh(1 + sqrt(2)).  Generates a cocompact genus-2 Fuchsian group
    whose limit set is the full unit circle."""
    u = 1.0 + math.sqrt(2.0)
    v = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
    mats = []
    for k in range(4):
        ph = cmath.exp(1j * k * math.pi / 4)
        mats.append(np.array([[u, v * ph], [v * ph.conjugate(), u]], dtype=complex))
    return mats


def octagon() -> Representation:
    pres = surface_group(2, OCTAGON_RELATOR)
    return Representation(pres, _octagon_matrices(), label="octagon (genus-2 Fuchsian)")


def trivial(d: int = 2) -> Representation:
    return Representation(
        free_group(2), [np.eye(d)] * 2, label=f"trivial(d={d})"
    )


def unipotent() -> Representation:
    return Representation(
        free_group(1), [np.array([[1.0, 1.0], [0.0, 1.0]])], label="unipotent"
    )


def schottky_default() -> Representation:
    return schottky2((4.0, 4.0), (0.0, INF, 1.0, -1.0), label="schottky(lambda=4)")


_PRESETS = {
    "schottky": schottky_default,
    "trivial": trivial,
    "unipotent": unipotent,
    "octagon": octagon,
    "sym3": lambda: sym_power(schottky_default(), 3),
    "sym4": lambda: sym_power(schottky_default(), 4),
    "octagon-sym3": lambda: sym_power(octagon(), 3),
    "octagon-sym4": lambda: sym_power(octagon(), 4),
    "directsum": lambda: direct_sum(schottky_default(), schottky_default()),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str) -> Representation:
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise InputError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return factory()
