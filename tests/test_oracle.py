"""The brute-force oracle: BFS equality, ball enumeration, witness searches."""

import itertools
import random

import pytest

from twinkit.conjugacy import is_cyclically_reduced
from twinkit.doodle import permutation_of
from twinkit.oracle import (
    _orbit,
    ball_layer_counts,
    bfs_equal,
    conjugator_search,
    enumerate_ball,
    radius_cap,
    reduced_representatives,
    twisted_witness_search,
)
from twinkit.twisted import identity_endomap
from twinkit.words import (
    Word,
    certificate,
    equal,
    inverse,
    is_reduced,
    normal_letters,
    reduce,
)

from util import W, all_words


def test_bfs_equal_examples():
    assert bfs_equal(W(3, "s1 s1"), W(3, "e"))
    assert bfs_equal(W(6, "s1 s4"), W(6, "s4 s1"))
    assert not bfs_equal(W(3, "s1"), W(3, "s2"))


def test_bfs_budget_exhaustion():
    with pytest.raises(RuntimeError):
        bfs_equal(W(6, "s1 s3 s5") ** 4, W(6, "e"), move_budget=10)


def test_orbit_sizes_and_budget():
    # k commuting letters spell k! words; a word of non-commuting letters
    # only rotates
    assert len(_orbit((1, 3, 5, 7))) == 24
    assert _orbit((1, 2, 1, 2)) == {(1, 2, 1, 2), (2, 1, 2, 1)}
    assert _orbit(()) == {()}
    with pytest.raises(RuntimeError):
        _orbit(tuple(range(1, 16, 2)), move_budget=1000)


def test_bfs_agrees_with_equal_on_balls():
    # keystone cross-validation: the naive closure referee vs the reducer
    for n in (3, 4):
        elements = [nf.word for nf in enumerate_ball(n, 6).elements]
        reps = {w.letters: reduced_representatives(w) for w in elements}
        for u in elements:
            for v in elements:
                oracle = not reps[u.letters].isdisjoint(reps[v.letters])
                assert oracle == equal(u, v)


def test_reducedness_and_certificates_refereed_at_six_to_eight_strands():
    # is_reduced and the rotation check both answer through the reduction
    # scan; the closure's shortest length referees them where far
    # commutation bites.
    rng = random.Random(29)

    def shortest(n, letters):
        return len(next(iter(reduced_representatives(Word(n, letters)))))

    for _ in range(400):
        n = rng.randint(6, 8)
        w = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 10)))
        assert is_reduced(Word(n, w)) == (shortest(n, w) == len(w))
        assert is_cyclically_reduced(Word(n, w)) == all(
            shortest(n, w[t:] + w[:t]) == len(w) for t in range(len(w))
        )
    for _ in range(200):
        n = rng.randint(6, 8)
        u = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 20))]
        v = list(u)
        while len(v) < 39:
            x = rng.randint(1, n - 1)
            p = rng.randint(0, len(v))
            v[p:p] = [x, x]
        for _ in range(100):
            p = rng.randint(0, len(v) - 2)
            if abs(v[p] - v[p + 1]) >= 2:
                v[p], v[p + 1] = v[p + 1], v[p]
        cert = certificate(Word(n, tuple(u)), Word(n, tuple(v)))
        assert cert.apply_to(Word(n, tuple(u))).letters == tuple(v)


def test_ball_small_counts():
    assert len(enumerate_ball(3, 4)) == 9
    assert len(enumerate_ball(2, 5)) == 2


def test_ball_layer_counts_golden():
    # frozen after an independent dedup through the BFS closure (below)
    assert enumerate_ball(4, 3).layer_counts == (1, 3, 5, 8)


def test_growth_series_matches_prefix_tree_ball():
    # the formula and the prefix tree share nothing but the radius checks
    for n in range(2, 9):
        for radius in range(radius_cap(n) + 1):
            assert ball_layer_counts(n, radius) == enumerate_ball(n, radius).layer_counts
    for n in range(9, 14):
        assert ball_layer_counts(n, 4) == enumerate_ball(n, 4).layer_counts


def test_growth_series_keeps_the_radius_caps():
    for n, radius in ((3, -1), (3, radius_cap(3) + 1), (200, radius_cap(200) + 1)):
        with pytest.raises(ValueError) as from_ball:
            enumerate_ball(n, radius)
        with pytest.raises(ValueError) as from_series:
            ball_layer_counts(n, radius)
        assert str(from_series.value) == str(from_ball.value)


def test_ball_layer_counts_match_bfs_dedup():
    # completeness without the normal form: every word of length <= radius
    # lands, through the closure, on a class the ball counts
    for n, radius in ((4, 3), (5, 4), (6, 4), (7, 3)):
        classes = set()
        for w in all_words(n, radius):
            classes.add(min(reduced_representatives(w)))
        by_len = [0] * (radius + 1)
        for rep in classes:
            by_len[len(rep)] += 1
        assert tuple(by_len) == enumerate_ball(n, radius).layer_counts


def _ball_by_normal_form_dedup(n, radius):
    # reference growth through the normal form: normalise every child,
    # dedupe in sets, then sort
    layers = [{()}]
    for k in range(radius):
        grown = set()
        for word in layers[k]:
            for s in range(1, n):
                child = normal_letters(word + (s,))
                if len(child) == k + 1:
                    grown.add(child)
        if not grown:
            break
        layers.append(grown)
    elements = sorted(word for layer in layers for word in layer)
    elements.sort(key=len)
    return tuple(elements), tuple(len(layer) for layer in layers)


def test_prefix_tree_ball_matches_normal_form_dedup():
    for n in range(2, 9):
        for radius in range(radius_cap(n) + 1):
            ball = enumerate_ball(n, radius)
            letters = tuple(nf.letters for nf in ball.elements)
            assert (letters, ball.layer_counts) == _ball_by_normal_form_dedup(n, radius)


def test_ball_elements_are_closure_minima():
    # the referee that shares no code with the normal form: the lex-least
    # word in the deletion+flip closure of each element is the element
    for n in range(4, 9):
        for nf in enumerate_ball(n, radius_cap(n)).elements:
            assert nf.letters == min(reduced_representatives(nf.word))


def test_normal_form_refereed_by_ball_at_six_to_eight_strands():
    # the ball never calls normal_letters, so it referees it where far
    # commutation bites: ball elements are fixed points, and random words
    # normalise into the ball
    rng = random.Random(31)
    for n in (6, 7, 8):
        ball = {nf.letters for nf in enumerate_ball(n, 6).elements}
        for letters in ball:
            assert normal_letters(letters) == letters
        for _ in range(2000):
            w = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))
            assert normal_letters(w) in ball


def test_ball_invariants():
    for n, radius in ((3, 6), (4, 5), (5, 4)):
        ball = enumerate_ball(n, radius)
        letters = {nf.letters for nf in ball.elements}
        assert () in letters
        for nf in ball.elements:
            assert reduce(inverse(nf.word)).letters in letters
        assert sum(ball.layer_counts) == len(ball)
        smaller = enumerate_ball(n, radius - 1)
        assert smaller.layer_counts == ball.layer_counts[:radius]


def test_ball_elements_sorted_length_then_lex():
    ball = enumerate_ball(4, 4)
    keys = [(len(nf), nf.letters) for nf in ball.elements]
    assert keys == sorted(keys)


def test_ball_radius_cap():
    with pytest.raises(ValueError):
        enumerate_ball(5, 9)
    with pytest.raises(ValueError):
        enumerate_ball(6, 7)


def test_ball_projection_sanity():
    for n in (3, 4):
        ball = enumerate_ball(n, 6)
        images = {permutation_of(nf.word).images for nf in ball.elements}
        assert len(images) <= len(list(itertools.permutations(range(n))))


def test_conjugator_search_examples():
    assert conjugator_search(W(3, "s1 s2"), W(3, "s2 s1"), 2).letters == (1,)
    assert conjugator_search(W(3, "s1 s2"), W(3, "s1 s2") ** 2, 6) is None


def test_twisted_witness_search_example():
    g = twisted_witness_search(identity_endomap(3), W(3, "s1"), W(3, "s2 s1 s2"), 2)
    assert g.letters == (2,)
