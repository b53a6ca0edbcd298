"""Finitely generated groups as symmetric alphabets with word combinatorics.

A word is a tuple of nonzero ints: letter ``+i`` is the i-th generator
(1-based), ``-i`` its inverse.  Free reduction cancels adjacent inverse
pairs only, which is exact for free groups and a quasi-isometric proxy
for the other kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, InputError

Word = tuple[int, ...]


def word_to_str(w: Word) -> str:
    """Compact text form, a/A for generator 1 and its inverse, b/B, ..."""
    if not w:
        return "e"
    out = []
    for letter in w:
        idx = abs(letter) - 1
        if idx < 26:
            ch = chr(ord("a") + idx)
            out.append(ch if letter > 0 else ch.upper())
        else:
            out.append(f"g{letter}" if letter > 0 else f"G{-letter}")
    return "".join(out)


@dataclass(frozen=True)
class GroupPresentation:
    """A marked group: symmetric generating set plus optional relations.

    kind is one of "free", "surface", "custom".  Free groups use true
    reduced-word length; the other kinds count letters of the freely
    reduced word, which rescales fitted growth constants but is the
    documented precision trade-off of this tool.
    """

    generator_count: int
    kind: str = "free"
    relations: tuple[Word, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.generator_count < 1:
            raise InputError("generator_count must be >= 1")
        if self.kind not in ("free", "surface", "custom"):
            raise InputError(f"unknown presentation kind {self.kind!r}")
        if self.kind == "free" and self.relations:
            raise InputError("free presentations carry no relations")

    def letters(self) -> list[int]:
        """All 2r letters in the order 1, -1, 2, -2, ..., which orders
        every word walk and sampler."""
        out = []
        for i in range(1, self.generator_count + 1):
            out.extend((i, -i))
        return out

    def check_word(self, w: Sequence[int]) -> None:
        for letter in w:
            if letter == 0 or abs(letter) > self.generator_count:
                raise InputError(f"letter {letter} not in alphabet of rank {self.generator_count}")


def free_group(rank: int) -> GroupPresentation:
    return GroupPresentation(generator_count=rank, kind="free")


def surface_group(genus: int, relation: Word) -> GroupPresentation:
    return GroupPresentation(generator_count=2 * genus, kind="surface", relations=(relation,))


def reduce(w: Sequence[int], presentation: GroupPresentation) -> Word:
    """Freely reduce w.  Unique normal form for free groups; for the
    other kinds only free cancellations are applied.  A reduced tuple is
    returned as it is, not copied."""
    presentation.check_word(w)
    stack: list[int] = []
    for letter in w:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return w if isinstance(w, tuple) and len(stack) == len(w) else tuple(stack)


def cyclic_reduce(w: Word) -> Word:
    """Strip matching prefix/suffix inverse pairs: a conjugacy normal form."""
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def ball_size(rank: int, radius: int) -> int:
    """Closed-form count of reduced words of length <= radius in a free group."""
    total = 1
    level = 2 * rank
    for _ in range(radius):
        total += level
        level *= 2 * rank - 1
    return total


def cyclic_word_count(rank: int, length: int) -> int:
    """Closed-form count of cyclically reduced words of the given length
    in a free group of the given rank."""
    return (2 * rank - 1) ** length + 1 + (rank - 1) * (1 + (-1) ** length)


def levels(presentation: GroupPresentation, radius: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk the freely reduced words of length 1..radius one length at a time.

    Yields per length the arrays (parent, letter), int32 and the smallest
    signed int type that holds the letters (int8 up to rank 127): word i
    of this length is word parent[i] of the previous length followed by
    letter[i], 5 bytes a word.  int32 parents hold lengths of up to 2**31
    words, far past what the sweep's memory budget admits.  Children come
    in (parent, letter) order, so each length is lexicographic in the
    order of letters() and parent is sorted.  For free groups every group
    element of the ball appears exactly once."""
    # -rank - 1: the smallest signed type of -rank - 1 also holds +rank
    letters = np.array(presentation.letters(), dtype=np.min_scalar_type(-presentation.generator_count - 1))
    last = np.zeros(1, dtype=letters.dtype)
    for _ in range(radius):
        child = last[:, None] != -letters  # no letter cancels its parent's last one
        # masked broadcast rows, not np.nonzero, whose two index arrays share
        # one int64 buffer four times the size of the parent array
        parent = np.broadcast_to(np.arange(last.size, dtype=np.int32)[:, None], child.shape)[child]
        last = np.broadcast_to(letters, child.shape)[child]
        del child  # not held through the yield
        yield parent, last


def spell(walk: Sequence[tuple[np.ndarray, np.ndarray]], i: int) -> Word:
    """Word i of the last length of walk, the levels() output from length 1."""
    out = []
    for parent, letter in reversed(walk):
        out.append(int(letter[i]))
        i = parent[i]
    return tuple(reversed(out))


def _draw(presentation: GroupPresentation, rows: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """rows freely reduced words of the given length, as rows of letters.

    A letter is one bounded integer below its number of choices (2r for
    the first, 2r - 1 after it), shifted past the inverse of the letter
    before.  NumPy draws every bounded integer below 2**32 with the same
    generator calls whether it is drawn alone or broadcast over an array
    of bounds, so the rows are one rng.integers call, and draw the stream
    that one call per letter, row after row, would."""
    letters = np.array(presentation.letters(), dtype=np.min_scalar_type(-presentation.generator_count - 1))
    high = np.full(length, letters.size - 1)  # no letter may cancel its predecessor
    high[:1] = letters.size
    idx = rng.integers(0, high, size=(rows, length))
    for j in range(1, length):
        # letters() puts g and its inverse at 2i and 2i+1: skip the
        # inverse of the previous letter
        idx[:, j] += idx[:, j] >= (idx[:, j - 1] ^ 1)
    return letters[idx]


def random_word(presentation: GroupPresentation, length: int, rng: np.random.Generator) -> Word:
    """A freely reduced word of the given length, the one-row _draw."""
    return tuple(_draw(presentation, 1, length, rng)[0].tolist())


def random_cyclic_words(
    presentation: GroupPresentation, count: int, length: int, seed: int
) -> list[Word]:
    """Distinct cyclically reduced random words, deterministic under seed.

    Used as the boundary-direction sampler: each word stands for the
    attracting endpoint of its axis.

    Stream contract: the words are those of drawing one random_word after
    another from default_rng(SeedSequence(seed)) and keeping, in draw
    order, each cyclically reduced one not kept before, until count are
    kept.  A block of words is one _draw, and draws past the last kept
    word are thrown away.  Raises CapacityError once
    200 * count + 1000 words are drawn, or before the first draw when
    fewer than count such words exist.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    if length < 1:
        raise InputError(f"word length must be >= 1, got {length}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    seen: set[Word] = set()
    out: list[Word] = []
    budget = 200 * count + 1000
    if count > cyclic_word_count(presentation.generator_count, length):
        budget = 0  # no draw can succeed: refuse before the first
    drawn = 0
    while len(out) < count:
        block = min(count - len(out), budget - drawn)
        if block == 0:
            raise CapacityError(
                f"could not find {count} distinct cyclically reduced words of length {length}"
            )
        w = _draw(presentation, block, length, rng)
        drawn += block
        # a freely reduced word is cyclically reduced unless its ends cancel
        for word in (tuple(row.tolist()) for row in w[w[:, 0] != -w[:, -1]]):
            if word not in seen:
                seen.add(word)
                out.append(word)
                if len(out) == count:
                    break
    return out
