import numpy as np
import pytest

import flaglab.words as W
from flaglab.errors import CapacityError, InputError

from conftest import brute_ball
from oracles import concat, invert


F2 = W.free_group(2)
F1 = W.free_group(1)


def test_reduce_examples():
    assert W.reduce((1, -1), F2) == ()
    assert W.reduce((1, 2, -2, 1), F2) == (1, 1)
    assert W.reduce((1, 2), F2) == (1, 2)


def test_reduce_idempotent_random():
    rng = np.random.default_rng(0)
    letters = F2.letters()
    for _ in range(200):
        w = tuple(letters[i] for i in rng.integers(0, 4, size=12))
        once = W.reduce(w, F2)
        assert W.reduce(once, F2) == once


def test_reduce_rejects_bad_letters():
    with pytest.raises(InputError):
        W.reduce((3,), F2)
    with pytest.raises(InputError):
        W.reduce((0,), F2)


def walk_ball(presentation, radius):
    """Every word of levels(presentation, radius), spelled back in walk order."""
    walk, out = [], []
    for parent, letter in W.levels(presentation, radius):
        walk.append((parent, letter))
        out.extend(W.spell(walk, i) for i in range(parent.size))
    return out


@pytest.mark.parametrize("radius", range(1, 7))
@pytest.mark.parametrize("rank", range(1, 4))
def test_levels_spell_brute_force_ball(rank, radius):
    pres = W.free_group(rank)
    assert walk_ball(pres, radius) == brute_ball(pres, radius)
    for n, (parent, letter) in enumerate(W.levels(pres, radius), 1):
        assert parent.size == letter.size == W.ball_size(rank, n) - W.ball_size(rank, n - 1)
        assert parent.dtype == np.int32 and letter.dtype == np.int8  # 5 bytes a word


@pytest.mark.parametrize("rank, dtype", [(127, np.int8), (128, np.int16)])
def test_levels_letters_take_a_wider_type_past_rank_127(rank, dtype):
    pres = W.free_group(rank)
    first, (parent, letter) = W.levels(pres, 2)
    assert parent.dtype == np.int32 and letter.dtype == dtype
    assert letter.min() == -rank and letter.max() == rank
    assert W.spell([first, (parent, letter)], parent.size - 1) == (-rank, -rank)


def test_ball_counts():
    assert len(walk_ball(F2, 1)) == 5 - 1  # the walk leaves out the empty word
    assert len(walk_ball(F2, 2)) == 17 - 1
    assert len(walk_ball(F1, 3)) == 7 - 1


@pytest.mark.parametrize("radius", range(1, 9))
def test_ball_matches_closed_form(radius):
    assert 1 + len(walk_ball(F2, radius)) == W.ball_size(2, radius)


def test_ball_order_deterministic_and_sorted():
    ws = walk_ball(F2, 3)
    assert ws == walk_ball(F2, 3)
    lengths = [len(w) for w in ws]
    assert lengths == sorted(lengths)
    # within a length, lexicographic in the letter order a < A < b < B
    rank_of = {letter: i for i, letter in enumerate(F2.letters())}
    by_len = {}
    for w in ws:
        by_len.setdefault(len(w), []).append(tuple(rank_of[x] for x in w))
    for keys in by_len.values():
        assert keys == sorted(keys)


@pytest.mark.parametrize("rank", range(1, 5))
def test_letters_in_letter_key_order(rank):
    # the letter order g1 < g1^-1 < g2 < g2^-1 < ... that the level walk and
    # the random word sampler read
    expected = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    assert W.free_group(rank).letters() == expected


def test_random_geodesic_word():
    assert W.random_word(F2, 0, np.random.default_rng(1)) == ()
    w1 = W.random_word(F2, 5, np.random.default_rng(7))
    w2 = W.random_word(F2, 5, np.random.default_rng(7))
    assert w1 == w2 and len(w1) == 5
    big = W.random_word(F2, 10_000, np.random.default_rng(3))
    assert len(big) == 10_000
    assert all(big[i] != -big[i + 1] for i in range(len(big) - 1))


def test_random_cyclic_words_distinct_and_seeded():
    ws = W.random_cyclic_words(F2, 25, 8, 5)
    assert len(set(ws)) == 25
    assert all(len(w) == 8 and w[0] != -w[-1] for w in ws)
    assert ws == W.random_cyclic_words(F2, 25, 8, 5)


@pytest.mark.parametrize("rank,max_length", [(1, 6), (2, 6), (3, 6), (4, 4)])
def test_cyclic_word_count_matches_brute_force(rank, max_length):
    ball = brute_ball(W.free_group(rank), max_length)
    for n in range(1, max_length + 1):
        brute = sum(1 for w in ball if len(w) == n and W.cyclic_reduce(w) == w)
        assert W.cyclic_word_count(rank, n) == brute


def test_random_cyclic_words_refuses_impossible_count_without_drawing(monkeypatch):
    # every use of the sampler's generator is recorded, so an empty record
    # means nothing was drawn
    uses = []
    default_rng = np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def __getattr__(self, name):
            uses.append(name)
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    total = W.cyclic_word_count(2, 2)
    with pytest.raises(CapacityError, match=f"could not find {total + 1} distinct cyclically"):
        W.random_cyclic_words(F2, total + 1, 2, 5)
    assert uses == []
    # the closed form itself is reachable, and reaching it draws
    assert len(set(W.random_cyclic_words(F2, total, 2, 5))) == total
    assert "integers" in uses


def _random_word_oracle(presentation, length, rng):
    # a freely reduced word, one rng.integers call per letter, drawn from
    # the letters that do not cancel the one before
    letters = presentation.letters()
    w = []
    for _ in range(length):
        choices = [letter for letter in letters if letter != -w[-1]] if w else letters
        w.append(choices[int(rng.integers(len(choices)))])
    return tuple(w)


@pytest.mark.parametrize("rank", range(1, 5))
def test_random_word_matches_the_one_letter_loop(rank):
    # the one-row draw consumes the generator stream as the per-letter loop
    # does, between other draws from the same generator
    p = W.free_group(rank)
    for seed in range(40):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in (*range(12), 40):
            assert W.random_word(p, length, rng) == _random_word_oracle(p, length, oracle), (seed, length)
            assert rng.integers(2, 9) == oracle.integers(2, 9)
        assert rng.bit_generator.state == oracle.bit_generator.state


def _random_cyclic_words_oracle(presentation, count, length, seed):
    # the sampler as one loop: one word per attempt, one rng.integers call
    # per letter
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    seen, out = set(), []
    budget = 200 * count + 1000
    if count > W.cyclic_word_count(presentation.generator_count, length):
        budget = 0
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > budget:
            raise CapacityError(
                f"could not find {count} distinct cyclically reduced words of length {length}"
            )
        w = W.cyclic_reduce(_random_word_oracle(presentation, length, rng))
        if len(w) != length or w in seen:
            continue
        seen.add(w)
        out.append(w)
    return out


def _outcome(sample, *args):
    try:
        return sample(*args)
    except CapacityError as exc:
        return str(exc)


@pytest.mark.parametrize("presentation", [
    F1, F2, W.free_group(3), W.surface_group(2, (1, 2, -1, -2, 3, 4, -3, -4)),
])
def test_random_cyclic_words_match_the_one_word_loop(presentation):
    # the blocked draw consumes the generator stream as the loop does; small
    # counts at short lengths run into repeats and non-cyclic draws, and F1
    # draws its later letters from a single choice
    for length in range(1, 11):
        for seed in (0, 1, 7):
            for count in (1, 5, 40):
                args = (presentation, count, length, seed)
                want = _outcome(_random_cyclic_words_oracle, *args)
                assert _outcome(W.random_cyclic_words, *args) == want, args


def test_random_cyclic_words_budget_matches_the_one_word_loop(monkeypatch):
    # with the closed-form refusal defeated, asking F2 for more words than
    # exist (12 of length 2, 4 of length 1) uses up the whole budget of
    # drawn words in both samplers
    monkeypatch.setattr(W, "cyclic_word_count", lambda rank, length: 10**9)
    for count, length, refused in [(13, 2, True), (5, 1, True), (12, 2, False)]:
        args = (F2, count, length, 4)
        want = _outcome(_random_cyclic_words_oracle, *args)
        assert _outcome(W.random_cyclic_words, *args) == want
        assert isinstance(want, str) == refused


def test_cyclic_reduce_and_invert():
    assert W.cyclic_reduce((1, 2, -1)) == (2,)
    assert invert((1, -2, 1)) == (-1, 2, -1)
    w = (1, 2, -1, 2)
    assert concat(F2, w, invert(w)) == ()


def test_word_str_roundtrip():
    assert W.word_to_str((1, -2, 2, 1)) == "aBba"
    assert W.word_to_str(()) == "e"


def test_surface_presentation():
    pres = W.surface_group(2, (1, 4, -3, 2, -1, -4, 3, -2))
    assert pres.generator_count == 4
    # only free cancellation on non-free kinds
    assert W.reduce((1, -1, 2), pres) == (2,)


def test_free_presentation_rejects_relations():
    with pytest.raises(InputError):
        W.GroupPresentation(generator_count=2, kind="free", relations=((1, 1),))


def test_length_subadditive():
    rng = np.random.default_rng(1)
    for _ in range(200):
        u = W.random_word(F2, int(rng.integers(0, 8)), rng)
        v = W.random_word(F2, int(rng.integers(0, 8)), rng)
        assert len(concat(F2, u, v)) <= len(u) + len(v)

