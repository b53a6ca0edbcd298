import itertools

import numpy as np
import pytest

import flaglab as fl
from flaglab.prodsvd import ProductSVD

from oracles import hausdorff_subspace_dist, orth


@pytest.fixture(scope="session")
def schottky():
    return fl.preset("schottky")


@pytest.fixture(scope="session")
def sym3():
    return fl.preset("sym3")


@pytest.fixture(scope="session")
def sym4():
    return fl.preset("sym4")


@pytest.fixture(scope="session")
def octagon():
    return fl.preset("octagon")


@pytest.fixture(scope="session")
def octagon_sym3():
    return fl.preset("octagon-sym3")


@pytest.fixture(scope="session")
def directsum():
    return fl.preset("directsum")


@pytest.fixture(scope="session")
def torus():
    """A genus-1 surface group by two commuting diagonal matrices: its one
    relator has length 4, so certificates sweep at radius 3."""
    generators = [np.diag([2.0, 1.0, 0.5]), np.diag([0.5, 1.0, 2.0])]
    return fl.Representation(fl.surface_group(1, (1, 2, -1, -2)), generators, label="torus")


@pytest.fixture(scope="session")
def sym4_flags(sym4):
    flags, _ = fl.limit_set_sample(sym4, [1, 2, 3], count=60, length=7, seed=11)
    return flags


@pytest.fixture(scope="session")
def sym3_flags(sym3):
    flags, _ = fl.limit_set_sample(sym3, [1, 2], count=40, length=8, seed=3)
    return flags


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_subspace(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """Orthonormal (d, k) frame of a random k-subspace of C^d."""
    a = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return orth(a)


def random_sl(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    from flaglab.subspaces import det_normalize

    return det_normalize(
        rng.standard_normal((d, d)) * scale + 1j * rng.standard_normal((d, d)) * scale
    )


def proj_matrix_dist(a: np.ndarray, b: np.ndarray) -> float:
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    inner = np.vdot(a, b)
    phase = np.conj(inner) / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def word_gaps(rep: "fl.Representation", w) -> np.ndarray:
    """Gap profile of rho(w) from the graded engine, absorbed letter by letter."""
    acc = ProductSVD(rep.dim)
    for letter in w:
        acc.absorb(rep.matrix(letter))
    return acc.gaps()


def matrix_gaps(m: np.ndarray) -> np.ndarray:
    """Gap profiles of one matrix or a stack of matrices, in one stacked absorb."""
    m = np.asarray(m, dtype=complex)
    return ProductSVD(m.shape[-1], m.shape[:-2]).absorb(m).gaps()


def log_sigma(state: ProductSVD) -> np.ndarray:
    """Log singular values of a product rescaled to unit |det|."""
    return state.logs - state.logs.mean(axis=-1, keepdims=True)


def flag_dist(a: "fl.FlagStack", b: "fl.FlagStack") -> float:
    """Largest Hausdorff subspace distance over the indices two one-row
    stacks share."""
    common = sorted(set(a.ks) & set(b.ks))
    assert common, "flags share no indices"
    return max(hausdorff_subspace_dist(a.space(k)[0], b.space(k)[0]) for k in common)


def brute_ball(presentation: "fl.GroupPresentation", radius: int) -> list:
    """The freely reduced words of length 1..radius by length, then
    lexicographic in the order of letters(): every letter string, minus
    those with an adjacent inverse pair.  Independent of words.levels."""
    letters = presentation.letters()
    return [
        w
        for n in range(1, radius + 1)
        for w in itertools.product(letters, repeat=n)
        if all(a != -b for a, b in zip(w, w[1:]))
    ]
