"""Word representation, reduction, normal forms and certificates."""

import random

import pytest

from twinkit.words import (
    Word,
    certificate,
    commutes,
    equal,
    flip_equivalent,
    inverse,
    is_reduced,
    multiply,
    parity_vector,
    reduce,
    support,
)

from util import W, all_words


def test_word_validation():
    with pytest.raises(ValueError):
        Word(0, ())
    with pytest.raises(ValueError):
        Word(3, (3,))
    with pytest.raises(ValueError):
        Word(3, (0,))
    assert Word(1, ()).letters == ()  # one-strand trivial twin is allowed


def test_parse_and_format_round_trip():
    assert str(W(4, "s1 s2 s1")) == "s1 s2 s1"
    assert W(4, "1 2 1").letters == (1, 2, 1)
    assert str(W(4, "e")) == "e"
    assert W(4, "e").letters == ()
    with pytest.raises(ValueError):
        W(4, "sx")
    with pytest.raises(ValueError):
        W(3, "s3")
    # only ASCII digits: int() would read both of these
    for text in ("s\u0661", "s\u00b2"):
        with pytest.raises(ValueError, match="bad generator token"):
            W(4, text)


def test_multiply_examples():
    assert multiply(W(3, "s1"), W(3, "e")).letters == (1,)
    assert multiply(W(3, "s1 s2"), W(3, "s2 s1")).letters == (1, 2, 2, 1)
    assert multiply(W(5, "s3"), W(5, "s3")).letters == (3, 3)
    with pytest.raises(ValueError):
        multiply(W(3, "s1"), W(4, "s1"))


def test_inverse_examples():
    assert inverse(W(5, "s1 s2 s3")).letters == (3, 2, 1)
    assert inverse(W(5, "e")).letters == ()
    assert inverse(W(5, "s2")).letters == (2,)


def test_reduce_examples():
    assert reduce(W(3, "s1 s1")).letters == ()
    assert reduce(W(4, "s2 s1 s3 s2 s2 s3")).letters == (2, 1)
    # both orders of a commuting pair are reduced; the normal form is lex-least
    assert reduce(W(6, "s4 s1")).letters == (1, 4)


def test_is_reduced_examples():
    assert is_reduced(W(3, "s1 s2 s1"))
    assert not is_reduced(W(4, "s1 s3 s1"))
    assert is_reduced(W(3, "e"))


def test_equal_examples():
    assert equal(W(6, "s1 s4"), W(6, "s4 s1"))
    assert not equal(W(3, "s1 s2"), W(3, "s2 s1"))
    assert equal(W(3, "s1 s1"), W(3, "e"))


def test_flip_equivalent_examples():
    assert flip_equivalent(W(6, "s1 s4"), W(6, "s4 s1"))
    assert not flip_equivalent(W(3, "s1 s2"), W(3, "s2 s1"))
    assert flip_equivalent(W(4, "s3"), W(4, "s3"))
    with pytest.raises(ValueError):
        flip_equivalent(W(3, "s1 s1"), W(3, "e"))


def test_support_examples():
    assert support(W(3, "s1 s2") ** 3) == frozenset({1, 2})
    assert support(W(3, "s1 s1")) == frozenset()
    assert support(W(6, "s1 s4 s1")) == frozenset({4})


def test_parity_vector_examples():
    assert parity_vector(W(3, "s2 s1 s2")) == (1, 0)
    assert parity_vector(W(3, "s1 s1")) == (0, 0)
    # the doubled image of s2 has an even s2 count
    assert parity_vector(W(3, "s2 s1 s2"))[1] == 0


def test_reduce_idempotent_exhaustive_small():
    for n in (2, 3, 4):
        for w in all_words(n, 6):
            once = reduce(w)
            assert reduce(once.word).letters == once.letters


def test_reduce_idempotent_randomized_larger():
    rng = random.Random(7)
    for n in (5, 6):
        for _ in range(4000):
            length = rng.randint(0, 10)
            w = Word(n, tuple(rng.randint(1, n - 1) for _ in range(length)))
            once = reduce(w)
            assert len(once) <= len(w)
            assert reduce(once.word).letters == once.letters


def test_reduced_criterion_matches_length_small():
    for n in (2, 3, 4):
        for w in all_words(n, 6):
            assert is_reduced(w) == (len(reduce(w)) == len(w))


def test_reduce_is_homomorphism():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(2, 6)
        u = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))))
        v = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))))
        direct = reduce(multiply(u, v))
        staged = reduce(multiply(reduce(u).word, reduce(v).word))
        assert direct.letters == staged.letters


def test_involution_cancels():
    for w in all_words(4, 5):
        assert reduce(multiply(w, inverse(w))).letters == ()


def test_parity_is_class_invariant():
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randint(2, 6)
        w = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))))
        assert parity_vector(w) == parity_vector(reduce(w).word)


def _flip_closure(letters):
    seen = {tuple(letters)}
    frontier = [tuple(letters)]
    while frontier:
        nxt = []
        for word in frontier:
            for p in range(len(word) - 1):
                if commutes(word[p], word[p + 1]):
                    child = word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    return seen


def test_normal_form_is_lex_least_among_flips():
    # independent of the greedy canonicalizer: brute-force the flip class
    for w in all_words(4, 6):
        if not is_reduced(w):
            continue
        assert reduce(w).letters == min(_flip_closure(w.letters))


def test_normal_form_satisfies_reduced_criterion():
    for w in all_words(4, 6):
        assert is_reduced(reduce(w).word)


def test_alternating_elements_of_three_strands():
    # the two-generator group has exactly 2L+1 elements of length <= L
    seen = {reduce(w).letters for w in all_words(3, 7)}
    assert len(seen) == 2 * 7 + 1


def test_certificate_examples():
    cert = certificate(W(3, "s1 s1"), W(3, "e"))
    assert [m.kind for m in cert.moves] == ["delete"]
    cert = certificate(W(6, "s4 s1"), W(6, "s1 s4"))
    assert [m.kind for m in cert.moves].count("flip") >= 1
    assert cert.apply_to(W(6, "s4 s1")).letters == (1, 4)
    cert = certificate(W(4, "s2 s1 s3 s2 s2 s3"), W(4, "s2 s1"))
    assert cert.apply_to(W(4, "s2 s1 s3 s2 s2 s3")).letters == (2, 1)
    # exact chains, not only valid ones: callers display and store them
    for n, u, v, chain in [
        (6, "s3 s1 s5 s3", "s1 s5", "flip@0; flip@1; delete@2(s3)"),
        (
            6,
            "s4 s1 s2 s4 s2",
            "s4 s1 s4",
            "flip@0; flip@1; delete@2(s4); delete@1(s2); insert@1(s4); flip@0",
        ),
        (
            5,
            "s1 s3 s2 s2 s1 s3",
            "s2 s2",
            "delete@2(s2); flip@0; delete@1(s1); delete@0(s3); insert@0(s2)",
        ),
    ]:
        assert str(certificate(W(n, u), W(n, v))) == chain


def test_certificate_replay_exhaustive_small():
    by_class = {}
    for w in all_words(4, 4):
        by_class.setdefault(reduce(w).letters, []).append(w)
    for words_in_class in by_class.values():
        base = words_in_class[0]
        for other in words_in_class:
            cert = certificate(base, other)
            assert cert.apply_to(base).letters == other.letters


def test_certificate_replay_randomized():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 5)
        u = Word(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 7))))
        # build an equal word by inserting squares and flipping
        letters = list(u.letters)
        for _ in range(rng.randint(0, 3)):
            pos = rng.randint(0, len(letters))
            x = rng.randint(1, n - 1)
            letters[pos:pos] = [x, x]
        v = Word(n, tuple(letters))
        cert = certificate(u, v)
        assert cert.apply_to(u).letters == v.letters


def test_certificate_rejects_unequal_words():
    with pytest.raises(ValueError):
        certificate(W(3, "s1"), W(3, "s2"))
