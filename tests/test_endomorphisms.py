"""The doubling endomorphism: injectivity and non-surjectivity evidence."""

import pytest

from twinkit.endomorphisms import (
    injectivity_ball_test,
    make_psi_n,
    non_surjectivity_witness,
)
from twinkit.oracle import bfs_equal, enumerate_ball
from twinkit.twisted import apply
from twinkit.words import Word, equal, multiply, parity_vector, reduce

from util import W, all_words


def test_map_images():
    m3 = make_psi_n(3)
    assert m3.images[1].letters == (2, 1, 2)
    m4 = make_psi_n(4)
    assert m4.images[2].letters == (3,)
    assert apply(m3, W(3, "e")).letters == ()
    with pytest.raises(ValueError):
        make_psi_n(2)


def test_apply_examples():
    m3 = make_psi_n(3)
    base = Word(3, (1, 2))
    assert apply(m3, base**2).letters == (1, 2) * 4
    assert apply(m3, base**3 * Word(3, (1,))).letters == (1, 2) * 6 + (1,)
    m4 = make_psi_n(4)
    image = apply(m4, W(4, "s2 s3"))
    assert image.letters == (2, 1, 2, 3)
    # independent confirmation through the naive closure oracle
    assert bfs_equal(image.word, W(4, "s2 s1 s2 s3"))


def test_is_homomorphism_exhaustively_small():
    for n in (3, 4):
        m = make_psi_n(n)
        for u in all_words(n, 3):
            for v in all_words(n, 2):
                lhs = apply(m, multiply(u, v))
                rhs = reduce(multiply(apply(m, u).word, apply(m, v).word))
                assert lhs.letters == rhs.letters


def test_three_strand_elements_are_alternating():
    # every element is an alternating word, so the image doubles the core
    m = make_psi_n(3)
    for nf in enumerate_ball(3, 9).elements:
        letters = nf.letters
        assert all(a != b for a, b in zip(letters, letters[1:]))
        image = apply(m, nf.word)
        count2 = letters.count(2)
        assert len(image) == len(letters) + 2 * count2


def test_length_growth_law():
    # each s2 expands to three letters and nothing cancels
    for n in (3, 4, 5):
        m = make_psi_n(n)
        for nf in enumerate_ball(n, 5).elements:
            image = apply(m, nf.word)
            assert len(image) == len(nf) + 2 * nf.letters.count(2)


def test_injectivity_ball_small():
    for n, radius in ((3, 6), (4, 5)):
        report = injectivity_ball_test(make_psi_n(n), radius)
        assert report.kernel_trivial
        assert report.counterexample is None
        assert report.elements_checked == len(enumerate_ball(n, radius)) - 1


def test_non_surjectivity_report():
    for n in (3, 4, 5):
        report = non_surjectivity_witness(make_psi_n(n))
        assert report.generator_images_even
        assert report.target_bit_odd
        assert report.target_outside_image


def test_image_parity_is_even_in_s2():
    m = make_psi_n(4)
    for w in all_words(4, 4):
        assert parity_vector(apply(m, w).word)[1] == 0
    assert parity_vector(W(4, "s2"))[1] == 1


def test_images_of_equal_words_are_equal():
    m = make_psi_n(4)
    assert equal(
        apply(m, W(4, "s1 s3")).word, apply(m, W(4, "s3 s1")).word
    )
