"""Cyclic reduction and the conjugacy decision for twin groups.

Every element is conjugate to a cyclically reduced word (one whose every
rotation is reduced), and two cyclically reduced words are conjugate iff
they are cyclic permutations of each other modulo flips.  Rotations and
flips interleave (a flip may straddle the wrap-around once the word has
been rotated), so the decision explores the full orbit of the
representative under both moves rather than the rotations of a single
spelling.
"""

from __future__ import annotations

import dataclasses
import functools

from .words import (
    NormalForm,
    Word,
    _canonical_letters,
    _reduce_letters,
    commutes,
    inverse,
    multiply,
    normal_letters,
    reduce,
)


@dataclasses.dataclass(frozen=True)
class CyclicReduction:
    """Cyclically reduced representative plus a conjugator recovering the input.

    ``conjugator * representative * conjugator^-1`` equals the original
    element, and the representative has minimal length in the conjugacy
    class.
    """

    representative: NormalForm
    conjugator: Word


def _first_unreduced_rotation(letters) -> int | None:
    for t in range(len(letters)):
        if len(_reduce_letters(letters[t:] + letters[:t])) < len(letters):
            return t
    return None


def is_cyclically_reduced(w: Word) -> bool:
    """Whether every rotation of ``w`` is reduced."""
    return _first_unreduced_rotation(w.letters) is None


def cyclic_reduce(w: Word) -> CyclicReduction:
    """Shorten by rotating and reducing until every rotation is reduced.

    Rotating by a prefix a conjugates by a, so the accumulated prefixes form
    the conjugator.  Each round strictly shortens the word, which bounds the
    loop by the input length.
    """
    n = w.n
    cur = normal_letters(w.letters)
    conj: list[int] = []
    while True:
        t = _first_unreduced_rotation(cur)
        if t is None:
            break
        conj = _reduce_letters(conj + list(cur[:t]))
        cur = _canonical_letters(_reduce_letters(cur[t:] + cur[:t]))
    return CyclicReduction(NormalForm(Word(n, cur)), Word(n, tuple(conj)))


def _orbit(start: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    # All spellings reachable from a cyclically reduced word by rotations
    # and flips in any interleaving; orbits of conjugate words coincide.
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for word in frontier:
            children = [word[1:] + word[:1]]
            for p in range(len(word) - 1):
                if commutes(word[p], word[p + 1]):
                    children.append(word[:p] + (word[p + 1], word[p]) + word[p + 2 :])
            for child in children:
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return frozenset(seen)


@functools.lru_cache(maxsize=65536)
def _orbit_key(letters: tuple[int, ...]) -> tuple[int, ...]:
    if not letters:
        return ()
    return min(_orbit(letters))


def conjugate(u: Word, v: Word) -> bool:
    """Conjugacy decision: cyclically reduce, then compare rotation+flip
    orbits of the representatives."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    ru = cyclic_reduce(u).representative.letters
    rv = cyclic_reduce(v).representative.letters
    if len(ru) != len(rv):
        return False
    return _orbit_key(ru) == _orbit_key(rv)


def conjugating_witness(u: Word, v: Word) -> Word:
    """Some g with g v g^-1 = u, assembled from the two cyclic-reduction
    conjugators and the orbit path aligning the representatives.

    A flip keeps the element, a rotation conjugates by the letter moved to
    the back, so walking the orbit accumulates the aligning conjugator.
    Validity is checked against the defining equation before returning.
    """
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    n = u.n
    cu = cyclic_reduce(u)
    cv = cyclic_reduce(v)
    ru = cu.representative.letters
    rv = cv.representative.letters
    if len(ru) != len(rv):
        raise ValueError("words are not conjugate")
    # find g_star with rv = g_star^-1 ru g_star by searching the orbit of ru
    g_star = None
    seen = {ru: ()}
    frontier = [ru]
    while frontier and g_star is None:
        nxt = []
        for word in frontier:
            trail = seen[word]
            children = [(word[1:] + word[:1], trail + (word[0],))] if word else []
            for p in range(len(word) - 1):
                if commutes(word[p], word[p + 1]):
                    flipped = word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
                    children.append((flipped, trail))
            for child, child_trail in children:
                if child in seen:
                    continue
                seen[child] = child_trail
                if child == rv:
                    g_star = child_trail
                    break
                nxt.append(child)
            if g_star is not None:
                break
        frontier = nxt
    if g_star is None and ru != rv:
        raise ValueError("words are not conjugate")
    if g_star is None:
        g_star = ()
    letters = (
        cu.conjugator.letters + tuple(g_star) + cv.conjugator.letters[::-1]
    )
    g = Word(n, normal_letters(letters))
    check = reduce(multiply(multiply(g, v), inverse(g)))
    if check.letters != normal_letters(u.letters):
        raise AssertionError("conjugating witness failed verification")
    return g
