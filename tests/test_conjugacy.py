"""Cyclic reduction and the conjugacy decision."""

import hashlib
import itertools
import random

import pytest

from twinkit.conjugacy import (
    conjugate,
    conjugating_witness,
    cyclic_reduce,
    is_cyclically_reduced,
)
from twinkit.oracle import _orbit, conjugator_search
from twinkit.words import (
    Word,
    _reduce_letters,
    commutes,
    equal,
    inverse,
    is_reduced,
    multiply,
    normal_letters,
    reduce,
    support,
)

from util import W, all_words


def test_is_cyclically_reduced_examples():
    assert not is_cyclically_reduced(W(3, "s1 s2 s1"))
    assert is_cyclically_reduced(W(3, "s1 s2") ** 3)
    assert is_cyclically_reduced(W(3, "e"))


def test_cyclic_reduce_examples():
    cr = cyclic_reduce(W(3, "s1 s2 s1"))
    assert cr.representative.letters == (2,)
    assert cr.conjugator.letters == (1,)
    cr = cyclic_reduce(W(3, "s1 s2") ** 2)
    assert cr.representative.letters == (1, 2, 1, 2)
    assert cr.conjugator.letters == ()
    cr = cyclic_reduce(W(3, "s1 s1"))
    assert cr.representative.letters == ()
    for n, w, rep, conj in [
        (6, "s1 s2 s3 s4 s5 s4 s3 s2 s1", (5,), (1, 2, 3, 4)),
        (6, "s2 s1 s3 s5 s2", (1, 3, 5), (2,)),
        (5, "s1 s3 s2 s1 s3", (2,), (1, 3)),
    ]:
        cr = cyclic_reduce(W(n, w))
        assert (cr.representative.letters, cr.conjugator.letters) == (rep, conj)


def _first_rotation_that_shortens(letters):
    # The definition the heap peel replaced: the first t whose rotation the
    # reduction scan shortens (0 for an unreduced word).
    for t in range(len(letters)):
        if len(_reduce_letters(letters[t:] + letters[:t])) < len(letters):
            return t
    return None


def _flip_some(rng, letters):
    letters = list(letters)
    for _ in range(len(letters)):
        p = rng.randrange(max(len(letters) - 1, 1))
        if p + 1 < len(letters) and commutes(letters[p], letters[p + 1]):
            letters[p], letters[p + 1] = letters[p + 1], letters[p]
    return tuple(letters)


def test_is_cyclically_reduced_matches_reduction_scan():
    rng = random.Random(47)
    for _ in range(3000):
        n = rng.randint(2, 12)
        letters = tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 40)))
        if rng.random() < 0.6:
            # a reduced word, respelled by flips so it is not only normal forms
            letters = _flip_some(rng, reduce(Word(n, letters)).letters)
        expected = _first_rotation_that_shortens(letters) is None
        assert is_cyclically_reduced(Word(n, letters)) == expected, (n, letters)


def _rotate_and_renormalise(letters):
    # The round loop the heap peel replaced, kept as the reference for the
    # representative: rotate by the first shortening rotation and
    # renormalise until no rotation shortens.
    cur = normal_letters(letters)
    while (t := _first_rotation_that_shortens(cur)) is not None:
        cur = normal_letters(cur[t:] + cur[:t])
    return cur


def test_cyclic_reduce_matches_rotate_and_renormalise():
    rng = random.Random(53)
    for i in range(3000):
        n = rng.randint(2, 14)
        letters = tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 16)))
        if i % 2:
            g = tuple(rng.randrange(1, n) for _ in range(rng.randint(1, 8)))
            letters = g + letters + g[::-1]
        if rng.random() < 0.3:
            letters = _flip_some(rng, letters)
        w = Word(n, letters)
        cr = cyclic_reduce(w)
        rep = cr.representative.letters
        assert len(rep) == len(_rotate_and_renormalise(letters)), (n, letters)
        assert _first_rotation_that_shortens(rep) is None, (n, letters)
        c = cr.conjugator
        assert equal(multiply(multiply(c, cr.representative.word), inverse(c)), w), (n, letters)


def test_cyclic_reduce_relation_holds():
    for n in (3, 4):
        for w in all_words(n, 5):
            cr = cyclic_reduce(w)
            assert is_cyclically_reduced(cr.representative.word)
            g = cr.conjugator
            rebuilt = multiply(multiply(g, cr.representative.word), inverse(g))
            assert equal(rebuilt, w)


def test_cyclic_length_is_conjugacy_invariant():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(3, 5)
        w = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))))
        g = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 4))))
        conjugated = multiply(multiply(g, w), inverse(g))
        a = cyclic_reduce(w).representative
        b = cyclic_reduce(conjugated).representative
        assert len(a) == len(b)
        assert support(a.word) == support(b.word)


def test_conjugate_examples():
    assert conjugate(W(3, "s1 s2"), W(3, "s2 s1"))
    assert not conjugate(W(3, "s1 s2"), W(3, "s1 s2") ** 2)
    u = (W(6, "s1 s2")) * (W(6, "s5 s4"))
    v = (W(6, "s1 s2") ** 2) * (W(6, "s5 s4") ** 2)
    assert not conjugate(u, v)
    # every pair projection matches as a cyclic word, but the rotations of
    # {s2, s3} and {s3, s4} disagree on how many s3 move to the back
    assert not conjugate(W(6, "s1 s2 s3 s2 s3 s4"), W(6, "s1 s2 s3 s2 s4 s3"))


def test_conjugate_mixed_strand_counts_rejected():
    with pytest.raises(ValueError):
        conjugate(W(3, "s1"), W(4, "s1"))


def test_witness_examples():
    for u, v in [
        (W(3, "s1 s2"), W(3, "s2 s1")),
        (W(3, "s1 s2 s1"), W(3, "s2")),
        (W(3, "s1 s2") ** 2, W(3, "s2 s1") ** 2),
    ]:
        g = conjugating_witness(u, v)
        assert equal(multiply(multiply(g, v), inverse(g)), u)


def test_witness_rejects_non_conjugate():
    assert conjugating_witness(W(3, "s1"), W(3, "s1 s2")) is None
    # equal length and letters: rejected by the decision, not by the
    # factorial orbit search
    assert conjugating_witness(
        W(9, "s1 s3 s5 s7 s2 s4 s6 s8 s3 s5 s7 s2 s4 s6"),
        W(9, "s3 s4 s7 s2 s3 s5 s6 s4 s7 s1 s8 s2 s6 s5"),
    ) is None
    with pytest.raises(ValueError, match="strand counts differ"):
        conjugating_witness(W(3, "s1"), W(4, "s1"))


def test_witness_valid_on_random_conjugates():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(3, 5)
        w = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 7))))
        g = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 4))))
        v = multiply(multiply(g, w), inverse(g))
        assert conjugate(w, v)
        witness = conjugating_witness(w, v)
        assert equal(multiply(multiply(witness, v), inverse(witness)), w)


def _respell(rng, letters, steps):
    # a random walk of rotations and flips: the same conjugacy class
    v = list(letters)
    for _ in range(steps):
        p = rng.randrange(len(v)) if v else 0
        if p + 1 < len(v) and commutes(v[p], v[p + 1]):
            v[p], v[p + 1] = v[p + 1], v[p]
        else:
            v = v[1:] + v[:1]
    return tuple(v)


def test_witness_spellings_are_pinned():
    # 2,000 seeded conjugate pairs at n = 3..7: random words, rotation+flip
    # respellings of cyclically reduced words, and the commuting and
    # alternating families, each conjugated by a random word.  The digest
    # was recorded from the orbit search that kept a trail per state; the
    # walk back along parent links must spell the same witnesses.
    rng = random.Random(20261024)
    digest = hashlib.sha256()
    for i in range(2000):
        n = rng.randint(3, 7)
        g = tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 5)))
        if i % 4 == 0:
            u = tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 12)))
        elif i % 4 == 1:
            w = Word(n, tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 12))))
            u = cyclic_reduce(w).representative.letters
        elif i % 4 == 2:
            u = tuple(rng.sample(range(1, n, 2), len(range(1, n, 2))))
        else:
            u = tuple(range(1, n, 2)) + tuple(range(2, n, 2))
        v = g + _respell(rng, u, rng.randint(0, 12)) + g[::-1]
        witness = conjugating_witness(Word(n, u), Word(n, v))
        digest.update(repr((n, u, v, witness.letters)).encode())
    assert digest.hexdigest() == "4cecfe59300180d80a1bb449e00293fb4c00cfc20a607b80cf7150b3fdb691e3"


def test_conjugacy_is_equivalence_on_samples():
    rng = random.Random(31)
    words = [
        Word(4, tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6))))
        for _ in range(40)
    ]
    for w in words:
        assert conjugate(w, w)
    for _ in range(200):
        u, v, x = rng.choice(words), rng.choice(words), rng.choice(words)
        assert conjugate(u, v) == conjugate(v, u)
        if conjugate(u, v) and conjugate(v, x):
            assert conjugate(u, x)


def test_oracle_agreement_sampled_five_strands():
    # the full four-strand sweep lives in the acceptance suite
    rng = random.Random(37)
    pool = [w for w in all_words(5, 4) if is_cyclically_reduced(w) and is_reduced(w)]
    for _ in range(150):
        u, v = rng.choice(pool), rng.choice(pool)
        decided = conjugate(u, v)
        found = conjugator_search(u, v, 6)
        if decided:
            assert found is not None
            assert equal(multiply(multiply(found, v), inverse(found)), u)
        else:
            assert found is None


def test_minimal_length_over_class():
    # cyclically reduced length never exceeds the length of any equal or
    # conjugate word encountered by brute rotation
    for w in all_words(4, 5):
        rep = cyclic_reduce(w).representative
        assert len(rep) <= len(reduce(w))


def _cyclically_reduced_words(n, max_len):
    for length in range(max_len + 1):
        for letters in itertools.product(range(1, n), repeat=length):
            if is_cyclically_reduced(Word(n, letters)):
                yield letters


def test_conjugate_matches_orbit_referee_exhaustively():
    # every cyclically reduced word against the first word of its orbit,
    # and every two orbits with the same letters against each other
    for n, max_len in ((4, 9), (5, 8), (6, 7)):
        first_of = {}
        for letters in _cyclically_reduced_words(n, max_len):
            if letters not in first_of:
                first_of.update(dict.fromkeys(_orbit(letters), letters))
            assert conjugate(Word(n, letters), Word(n, first_of[letters]))
        by_letters = {}
        for rep in set(first_of.values()):
            by_letters.setdefault(tuple(sorted(rep)), []).append(rep)
        for reps in by_letters.values():
            for u, v in itertools.product(reps, repeat=2):
                assert conjugate(Word(n, u), Word(n, v)) == (u == v), (n, u, v)


def test_conjugate_matches_orbit_referee_on_near_misses():
    # rotation+flip walks from a representative, half of them followed by
    # one swap of adjacent non-commuting letters, at the strand counts where
    # far-commutation bites; the few words whose orbit outgrows the
    # referee's budget are counted and left out
    rng = random.Random(41)
    negatives = too_big = 0
    for _ in range(1500):
        n = rng.randint(3, 9)
        u = cyclic_reduce(Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 12)))))
        u = u.representative.word
        v = list(_respell(rng, u.letters, rng.randint(0, 20)))
        swaps = [p for p in range(len(v) - 1) if abs(v[p] - v[p + 1]) == 1]
        if swaps and rng.random() < 0.5:
            p = rng.choice(swaps)
            v[p], v[p + 1] = v[p + 1], v[p]
        v = Word(n, tuple(v))
        rv = cyclic_reduce(v).representative.letters
        try:
            expected = rv in _orbit(u.letters, move_budget=20_000)
        except RuntimeError:
            too_big += 1
            continue
        assert conjugate(u, v) == expected, (n, u, v)
        negatives += not expected
    assert too_big < 15 and negatives > 100, (too_big, negatives)
