"""Cyclic reduction and the conjugacy decision for twin groups.

Every element is conjugate to a cyclically reduced word (one whose every
rotation is reduced), reached by peeling a matching bottom and top piece
off the heap of its normal form until none is left (Crisp-Godelle-Wiest's
pilings).  Two cyclically reduced words are conjugate iff they are cyclic
permutations of each other modulo flips.  The decision tests this in
linear time by comparing the projections of the two representatives onto
each non-commuting letter pair as cyclic words (after Crisp-Godelle-Wiest's
pilings on a cylinder and Liu-Wrathall-Zeger's trace transpositions).
A witness walks the rotation+flip orbit of one representative with the
oracle's budgeted walker, once the decision has said the orbit holds the
other; ``oracle._orbit`` lists that orbit as the independent referee.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from .oracle import bfs_tree, rotations_and_flips
from .words import (
    NormalForm,
    Word,
    inverse,
    is_reduced,
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


def _peel(letters) -> tuple[list[int], set[int]]:
    # Peel a reduced word as a heap of pieces: column x peels while its
    # bottom piece lies below the bottoms of x-1 and x+1, its top piece lies
    # above their tops, and the two are distinct, so the word is x m x^-1.
    # Neither piece separates two pieces of x-1 or x+1, so m stays reduced;
    # a peel changes only the columns x-1, x and x+1, so those are queued
    # again.  Returns the peeled letters in order and the peeled positions.
    cols: dict[int, deque[int]] = {}
    for i, x in enumerate(letters):
        cols.setdefault(x, deque()).append(i)
    none: deque[int] = deque()

    def peels(x):
        c = cols.get(x, none)
        return len(c) > 1 and all(
            not d or (c[0] < d[0] and c[-1] > d[-1])
            for d in (cols.get(x - 1, none), cols.get(x + 1, none))
        )

    work, peeled, gone = sorted(cols, reverse=True), [], set()
    while work:
        x = work.pop()
        if peels(x):
            gone.add(cols[x].popleft())
            gone.add(cols[x].pop())
            peeled.append(x)
            work += (x + 1, x, x - 1)
    return peeled, gone


def is_cyclically_reduced(w: Word) -> bool:
    """Whether every rotation of ``w`` is reduced: ``w`` is reduced and no
    column of its heap peels (a rotation would bring the two pieces
    together across the seam)."""
    return is_reduced(w) and not _peel(w.letters)[0]


def cyclic_reduce(w: Word) -> CyclicReduction:
    """Peel matching bottom and top pieces off the heap of the normal form
    until none is left; the peeled letters, in order, are the conjugator."""
    cur = normal_letters(w.letters)
    peeled, gone = _peel(cur)
    if peeled:
        cur = normal_letters([x for i, x in enumerate(cur) if i not in gone])
    return CyclicReduction(NormalForm(Word(w.n, cur)), Word(w.n, normal_letters(peeled)))


def _columns(letters) -> tuple[dict[int, int], dict[int, bytearray]]:
    # Letter counts, and for each x the projection of the word onto the
    # pair {x, x+1}, spelled 0 for x and 1 for x+1; one pass in all.
    count: dict[int, int] = {}
    pairs: dict[int, bytearray] = {}
    for c in letters:
        count[c] = count.get(c, 0) + 1
        pairs.setdefault(c, bytearray()).append(0)
        pairs.setdefault(c - 1, bytearray()).append(1)
    return count, pairs


def _same_cylinder(ru: tuple[int, ...], rv: tuple[int, ...]) -> bool:
    # Whether two cyclically reduced words differ by rotations and flips, in
    # O(L).  A trace is fixed by its letter counts and its projections onto
    # the non-commuting pairs {x, x+1}, and moving a prefix holding r_x
    # letters x to the back rotates each projection by (r_x, r_{x+1}).
    # Conversely a choice of r consistent on every pair is a downset of the
    # heap of ru^infinity whose next period is rv.  The columns of a run of
    # consecutive letters form a path, so feasible residues of r_x mod c_x,
    # carried from pair to pair, decide the run; a letter alone in its run
    # occurs once and commutes with the rest.
    count, pu = _columns(ru)
    count_v, pv = _columns(rv)
    if count != count_v:
        return False
    feasible = None  # residues of r_x still open; None at the start of a run
    for x in sorted(count):
        if x + 1 not in count:
            feasible = None
            continue
        p, q = pu[x], pv[x]
        twice = p + p
        k = twice.find(q)
        if k < 0:
            return False
        # matches are k + j*period, and each period holds the same letters x
        period = twice.find(p, 1)
        per_x = p.count(0, 0, period)
        alpha = p.count(0, 0, k)
        cx, cy = count[x], count[x + 1]
        feasible = {
            (k - alpha + j * (period - per_x)) % cy
            for j in range(len(p) // period)
            if feasible is None or (alpha + j * per_x) % cx in feasible
        }
        if not feasible:
            return False
    return True


def conjugate(u: Word, v: Word) -> bool:
    """Conjugacy decision: cyclically reduce, then test in linear time whether
    the representatives differ by rotations and flips."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    ru = cyclic_reduce(u).representative.letters
    rv = cyclic_reduce(v).representative.letters
    return _same_cylinder(ru, rv)


def conjugating_witness(u: Word, v: Word) -> Word | None:
    """Some g with g v g^-1 = u, or None when the two are not conjugate.

    g joins the two cyclic-reduction conjugators by the orbit path from one
    representative to the other: a flip keeps the element, and a rotation
    conjugates by the letter it moves to the back.  Raises RuntimeError past
    the oracle's move budget.  g is checked against g v g^-1 = u.
    """
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    cu = cyclic_reduce(u)
    cv = cyclic_reduce(v)
    ru = cu.representative.letters
    rv = cv.representative.letters
    if not _same_cylinder(ru, rv):
        return None
    # g_star with rv = g_star^-1 ru g_star, read back along the orbit walk
    parent = bfs_tree(ru, rotations_and_flips, target=rv)
    g_star, word = [], rv
    while word != ru:
        prev = parent[word]
        if word == prev[1:] + prev[:1]:
            g_star.append(prev[0])
        word = prev
    letters = cu.conjugator.letters + tuple(g_star[::-1]) + cv.conjugator.letters[::-1]
    g = Word(u.n, normal_letters(letters))
    check = reduce(multiply(multiply(g, v), inverse(g)))
    if check.letters != normal_letters(u.letters):
        raise AssertionError("conjugating witness failed verification")
    return g
