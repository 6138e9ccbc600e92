"""Word representation, reduction, normal forms and certificates."""

import hashlib
import random

import pytest

from twinkit.conjugacy import cyclic_reduce
from twinkit.oracle import reduced_representatives
from twinkit.words import (
    Word,
    _heap_letters,
    _insertion_letters,
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


def _flipped(rng, letters, count):
    out = list(letters)
    for _ in range(count if len(out) > 1 else 0):
        p = rng.randrange(len(out) - 1)
        if commutes(out[p], out[p + 1]):
            out[p], out[p + 1] = out[p + 1], out[p]
    return tuple(out)


def test_insertion_and_heap_paths_agree():
    # normal_letters picks one path by length, so no public call reaches
    # both on one input: call the two private paths directly.
    rng = random.Random(29)
    cases = []
    for _ in range(400):
        n = rng.randint(2, 70)
        u = tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 300)))
        cases.append(u)
        # u g u^-1 with u respelled by flips: long runs of cancellations
        g = tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 10)))
        cases.append(u + g + _flipped(rng, u, len(u))[::-1])
    for k in (1, 2, 5, 12):
        cases.append((tuple(range(1, 40, 2)) + tuple(range(2, 41, 2))) * k)
        cases.append((3, 4) * k + (1,))
        cases.append((1,) + (3, 4) * k + (1,))
    for m in (1, 5, 20, 35):
        run = tuple(range(1, 2 * m, 2))
        cases += [run, run[::-1], run + run[::-1], run[::-1] + run, run * 3]
    for letters in cases:
        assert _insertion_letters(letters) == _heap_letters(letters), letters


def test_both_paths_refereed_by_oracle_at_six_to_eight_strands():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(6, 8)
        w = Word(n, tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 10))))
        expected = min(reduced_representatives(w))
        assert _insertion_letters(w.letters) == expected
        assert _heap_letters(w.letters) == expected


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_long_word_outputs_pinned():
    # Inputs of 60-200 letters reach the heap path; the certificate and
    # reduce digests were recorded with the quadratic lex-least scan this
    # path replaced, the cyclic_reduce digests with the heap peel (each
    # checked against the rotation definition, the rotate-and-reduce
    # loop's length and c rep c^-1 = w before pinning).  The two L = 400
    # entries, the certificate length the benchmark times, were recorded
    # while each flip of a chain was still built as its own Move.
    pins = [
        (
            16,
            60,
            "79663746019b819d2193b9b20ce9d781435731c62b9728f050721a334f9e6301",
            "948d5ef420eff9fc1b9fa0226246dff97caed391b7cfa13b1a37b3aa8af9f8c9",
            "93c872917e9739f4b05edd5ed766751bcc3de2feda9490a5f10f2b130a62e3be",
        ),
        (
            16,
            200,
            "591390475f0cb2b63cf8678c2b0619cc708a801dabcaf63a05950110260e387d",
            "5c245ae4635a059c37b941b7f32870430ebf21329cc9d1262eb465d1dda6c855",
            "e400125acbacdafb7a20652e2b1e0f2d75d3fca9d3c22f87f4d45671a73e4d9a",
        ),
        (
            64,
            90,
            "06160ecfd2a2419e77258349156fee8b54169792e9a9a0f97840c2de58d95214",
            "79e959cfa276d5f25ed8b38fbaa83744a8e1bd2ec0d4a792b12a84547074972d",
            "839d01b444917e28e4907132ff97bbf7ebd32aa8f5f4818eb6b62a3f454e337c",
        ),
        (
            64,
            150,
            "a135e350deb8763c4fe34336d1d457078a5506112d42e10e97ec1e84f4cfc02c",
            "1b3a7827c3a0b0301bf63b8d43e7211053a4f0c918e806b61a2bc251dcd96fc1",
            "9f16a79479fc6d69b8d5527e32031d978363d37b75839878b2495088df245020",
        ),
        (
            64,
            200,
            "a219b964d6cf1e5b28587e05314a1b91281d95b9964c217676c73d91ab11b546",
            "d192b9e6d121fc244aa269a5cef760cffd8a9c8d113c51fa9da16ba62ccc1dc2",
            "e59c43183b938f9b2b457ffcfd9f6961b023f0f01554b52128886f22cc52e368",
        ),
        (
            16,
            400,
            "57596e8b6dd6610985fa5ee1f57a36a109a3cb73f25a855041af7e025c59975a",
            "b5ece2a572fa1aa17ed7512ae10e3884c5fbb2676cd6026d9aefd812aefec0c1",
            "2fb1728769f56014015c8f45363cfbcc85b663499734e23faa41d4808484965c",
        ),
        (
            64,
            400,
            "dccbd54a02b24af23366224266b92df44645ae838300d64f24e8098f64096f74",
            "f935997c8583cfed60e2da1477b4e532a50815cdb969e71f751142d6801e4ce7",
            "ae6052d607c5c96c5f9730f9d03c821784e091f30a54d0b8beae0c60e9ee9fc7",
        ),
    ]
    rng = random.Random(43)
    for n, length, cert_sha, reduce_sha, cyclic_sha in pins:
        u = [rng.randrange(1, n) for _ in range(length)]
        v = list(u)
        for _ in range(length // 10):
            p = rng.randrange(len(v) + 1)
            x = rng.randrange(1, n)
            v[p:p] = [x, x]
        v = _flipped(rng, v, length)
        u, v = Word(n, tuple(u)), Word(n, v)
        cr = cyclic_reduce(u)
        assert _sha(str(certificate(u, v))) == cert_sha
        assert _sha(str(reduce(u))) == reduce_sha
        assert _sha(f"{cr.representative} / {cr.conjugator}") == cyclic_sha
