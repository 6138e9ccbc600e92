"""Stabilization moves and the destabilization decision."""

import random

import pytest

from twinkit.markov import (
    M3,
    M4,
    destabilize_m3,
    destabilize_m4,
    destabilize_oracle,
    m1_shift,
    m1_shift_inverse,
    m3_chain,
    m4_chain,
    stabilize_m3,
    stabilize_m4,
    tensor,
)
from twinkit.words import Word, commutes, equal, is_reduced, multiply, reduce

from util import W, all_words


def test_tensor_examples():
    assert tensor(W(2, "s1"), W(2, "s1")).letters == (1, 3)
    assert tensor(Word(1, ()), W(3, "s1 s2")).letters == (2, 3)
    assert tensor(W(3, "s1 s2") ** 3, Word(1, ())).letters == (1, 2) * 3
    assert tensor(W(2, "s1"), W(2, "s1")).n == 4


def test_m1_shift_examples():
    assert m1_shift(W(4, "s1 s2")).letters == (2, 3)
    assert m1_shift(W(4, "e")).letters == ()
    assert m1_shift(W(5, "s1 s3")).letters == (2, 4)
    with pytest.raises(ValueError):
        m1_shift(W(4, "s3"))
    # the support condition looks at the reduced form
    assert m1_shift(W(4, "s3 s3 s1")).letters == (2,)


def test_m1_shift_inverse():
    assert m1_shift_inverse(W(4, "s2 s3")).letters == (1, 2)
    with pytest.raises(ValueError):
        m1_shift_inverse(W(4, "s1"))
    assert m1_shift_inverse(m1_shift(W(5, "s1 s2 s1"))).letters == (1, 2, 1)


def test_stabilize_m3_examples():
    assert stabilize_m3(W(3, "s1 s2"), 2).letters == (1, 2, 3, 2, 3)
    assert stabilize_m3(W(2, "e"), 2).letters == (2,)
    assert stabilize_m3(W(2, "s1"), 1).letters == (1, 2, 1, 2)


def test_stabilize_m4_examples():
    assert stabilize_m4(W(3, "s1 s2") ** 3, 2).letters == (2, 3) * 3 + (1, 2, 1)
    assert stabilize_m4(W(2, "e"), 1).letters == (1,)
    assert stabilize_m4(W(2, "s1"), 2).letters == (2, 1, 2, 1)


def test_chain_index_validation():
    with pytest.raises(ValueError):
        m3_chain(3, 0)
    with pytest.raises(ValueError):
        m4_chain(3, 4)


def test_chains_are_involutions():
    for n in range(2, 8):
        for i in range(1, n + 1):
            c = m3_chain(n, i)
            d = m4_chain(n, i)
            assert reduce(multiply(c, c)).letters == ()
            assert reduce(multiply(d, d)).letters == ()


def test_stabilized_words_stay_reduced():
    # appending a chain to a reduced core never cancels
    for beta in all_words(3, 5):
        if not is_reduced(beta):
            continue
        for i in (1, 2, 3):
            assert len(reduce(stabilize_m3(beta, i))) == len(beta) + 2 * (3 - i) + 1
            assert len(reduce(stabilize_m4(beta, i))) == len(beta) + 2 * (i - 1) + 1


def test_destabilize_m3_examples():
    res = destabilize_m3(W(4, "s1 s2 s3 s2 s3"))
    assert res.found and res.index == 2 and res.kind == M3
    assert equal(res.beta, W(3, "s1 s2"))
    assert not destabilize_m3(W(4, "s3 s2 s3 s2 s3")).found
    assert not destabilize_m3(W(4, "s1 s3 s2")).found


def test_destabilize_m4_examples():
    res = destabilize_m4(Word(4, (2, 3) * 3 + (1, 2, 1)))
    assert res.found and res.index == 2 and res.kind == M4
    assert equal(res.beta, W(3, "s1 s2") ** 3)
    res = destabilize_m4(W(3, "s1"))
    assert res.found and res.index == 1 and res.beta.letters == ()
    assert not destabilize_m4(Word(3, (1, 2) * 2 + (1,))).found


def test_destabilize_oracle_examples():
    res = destabilize_oracle(W(4, "s1 s2 s3 s2 s3"), M3)
    assert res.found and res.index == 2 and equal(res.beta, W(3, "s1 s2"))
    assert not destabilize_oracle(W(4, "s3 s2 s3 s2 s3"), M3).found
    stab = stabilize_m3(W(3, "s2 s1"), 3)
    assert destabilize_oracle(stab, M3).found
    with pytest.raises(ValueError):
        destabilize_oracle(W(4, "s1"), "M5")


def test_letter_counts_are_flip_invariant():
    # the paper counts top and bottom generators in the reduced form; flips keep the counts
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(3, 6)
        w = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))))
        red = reduce(w)
        if not is_reduced(w):
            continue
        assert sorted(w.letters) == sorted(red.letters)


def test_round_trip_small():
    for beta in all_words(3, 4):
        for i in (1, 2, 3):
            for stab, destab in (
                (stabilize_m3, destabilize_m3),
                (stabilize_m4, destabilize_m4),
            ):
                word = stab(beta, i)
                res = destab(word)
                assert res.found
                assert equal(stab(res.beta, res.index), word)


def test_case_analysis_matches_oracle_small():
    # acceptance covers length <= 7 on four and five strands
    for w in all_words(4, 5):
        if not is_reduced(w):
            continue
        for kind, destab in ((M3, destabilize_m3), (M4, destabilize_m4)):
            mine = destab(w)
            ref = destabilize_oracle(w, kind)
            assert mine.found == ref.found
            if mine.found:
                assert mine.index == ref.index
                assert equal(mine.beta, ref.beta)


def test_case_analysis_matches_oracle_randomized_longer():
    rng = random.Random(99)
    for _ in range(3000):
        n = rng.choice((5, 6, 7))
        w = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))))
        if not is_reduced(w):
            continue
        for kind, destab in ((M3, destabilize_m3), (M4, destabilize_m4)):
            mine = destab(w)
            ref = destabilize_oracle(w, kind)
            assert mine.found == ref.found
            if mine.found:
                assert mine.index == ref.index and equal(mine.beta, ref.beta)


def _scramble(rng, w):
    # the same element, unreduced: insert squares, then flip commuting pairs
    letters = list(w.letters)
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, len(letters))
        x = rng.randint(1, w.n - 1)
        letters[k:k] = [x, x]
    for _ in range(2 * len(letters)):
        k = rng.randrange(len(letters) - 1)
        if commutes(letters[k], letters[k + 1]):
            letters[k], letters[k + 1] = letters[k + 1], letters[k]
    return Word(w.n, tuple(letters))


def test_destabilize_matches_oracle_on_unreduced_words():
    # the CLI and the benchmark pass words as typed, so squares and
    # flipped pairs must not change the decision, the index or beta
    rng = random.Random(2027)
    for _ in range(1500):
        n = rng.randint(4, 9)
        beta = Word(n - 1, tuple(rng.randint(1, n - 2) for _ in range(rng.randint(0, 12))))
        i = rng.randint(1, n - 1)
        stab_kind, stab = rng.choice(((M3, stabilize_m3), (M4, stabilize_m4)))
        stabilized = _scramble(rng, stab(beta, i))
        noise = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 20))))
        for w in (stabilized, noise):
            for kind, destab in ((M3, destabilize_m3), (M4, destabilize_m4)):
                mine = destab(w)
                assert mine == destabilize_oracle(w, kind)
                if w is stabilized and kind == stab_kind:
                    assert mine.found and mine.index == i and equal(mine.beta, beta)


def test_m3_stabilize_destabilize_round_trip():
    stab = stabilize_m3(W(3, "s2"), 1)
    back = destabilize_m3(stab)
    assert back.found and back.index == 1
    assert equal(back.beta, W(3, "s2"))


def test_destabilize_needs_three_strands():
    with pytest.raises(ValueError):
        destabilize_m3(W(2, "s1"))
