"""Cyclic reduction and the conjugacy decision."""

import random

import pytest

from twinkit.conjugacy import (
    conjugate,
    conjugating_witness,
    cyclic_reduce,
    is_cyclically_reduced,
)
from twinkit.oracle import conjugator_search
from twinkit.words import Word, equal, inverse, is_reduced, multiply, reduce, support

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
    with pytest.raises(ValueError):
        conjugating_witness(W(3, "s1"), W(3, "s1 s2"))


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
