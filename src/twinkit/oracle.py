"""Brute-force ground truth, deliberately naive and independent.

``bfs_tree`` is the one breadth-first walker over a move graph, with a
move budget.  ``bfs_equal`` decides the word problem by walking the
deletion+flip closure of each input; it never calls the stack-scan
reducer, so it can referee it.  ``_orbit`` walks the rotation+flip orbit of
a cyclically reduced word, which referees the linear conjugacy decision;
``conjugacy.conjugating_witness`` walks the same moves to its target.
``enumerate_ball`` lists all distinct elements up to a length cap by
growing the prefix tree of lex-least reduced words letter by letter; it
never calls the normal form either, so its elements referee it.  The two witness
searches walk that ball in length-then-lex order.
"""

from __future__ import annotations

import dataclasses
from math import comb

from .words import NormalForm, Word, equal, inverse, multiply

DEFAULT_MOVE_BUDGET = 200_000

# Element counts explode with the strand count; these caps keep the ball
# enumerable at desk scale.
_RADIUS_CAPS = {2: 10, 3: 10, 4: 10, 5: 8}
_RADIUS_CAP_LARGE = 6
DEFAULT_RADIUS = 6


def radius_cap(n: int) -> int:
    return _RADIUS_CAPS.get(n, _RADIUS_CAP_LARGE)


def _check_radius(n: int, radius: int) -> None:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    limit = radius_cap(n)
    if radius > limit:
        raise ValueError(f"radius {radius} exceeds cap {limit} for n={n}")


def bfs_tree(start, neighbours, move_budget: int = DEFAULT_MOVE_BUDGET, target=None) -> dict:
    """``{state: the state it was first reached from, None for start}``,
    walking breadth-first through ``neighbours(state)`` in the order given.
    Returns once ``target`` is reached; raises RuntimeError once the
    reached states exceed the budget."""
    parent = {start: None}
    if start == target:
        return parent
    queue = [start]  # grows while the loop reads it, so states leave in order
    for state in queue:
        for child in neighbours(state):
            if child not in parent:
                parent[child] = state
                if child == target:
                    return parent
                queue.append(child)
        if len(parent) > move_budget:
            raise RuntimeError(f"move budget {move_budget} exhausted")
    return parent


def _flips(word: tuple[int, ...], children: list) -> list[tuple[int, ...]]:
    # Appends each flip of two adjacent commuting letters, left to right; the
    # commuting test is inlined, as this runs for every state of a walk.
    letters = list(word)
    for p in range(len(word) - 1):
        a, b = letters[p], letters[p + 1]
        if a - b >= 2 or b - a >= 2:
            letters[p], letters[p + 1] = b, a
            children.append(tuple(letters))
            letters[p], letters[p + 1] = a, b
    return children


def rotations_and_flips(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The rotation moving the first letter to the back, then each commuting flip."""
    return _flips(word, [word[1:] + word[:1]])


def reduced_representatives(w: Word, move_budget: int = DEFAULT_MOVE_BUDGET) -> frozenset[tuple[int, ...]]:
    """All minimal-length words in the deletion+flip closure of ``w``.

    Deletions and flips never lengthen a word, so the closure is finite;
    its minimal-length layer is exactly the set of reduced words equal to
    ``w``.  Raises RuntimeError once the explored states exceed the budget.
    """
    def deletions_and_flips(word):
        pairs = range(len(word) - 1)
        return _flips(word, [word[:p] + word[p + 2 :] for p in pairs if word[p] == word[p + 1]])

    seen = bfs_tree(tuple(w.letters), deletions_and_flips, move_budget)
    shortest = min(len(word) for word in seen)
    return frozenset(word for word in seen if len(word) == shortest)


def bfs_equal(u: Word, v: Word, move_budget: int = DEFAULT_MOVE_BUDGET) -> bool:
    """Word-problem decision by closure intersection, independent of reduce."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    return not reduced_representatives(u, move_budget).isdisjoint(
        reduced_representatives(v, move_budget)
    )


def _orbit(start: tuple[int, ...], move_budget: int = DEFAULT_MOVE_BUDGET) -> frozenset[tuple[int, ...]]:
    """All spellings reachable from a cyclically reduced word by rotations
    and flips in any interleaving; orbits of conjugate words coincide.

    The referee for ``conjugacy.conjugate``; its size is factorial in the
    number of commuting letters, so the walk raises RuntimeError past
    the budget."""
    return frozenset(bfs_tree(start, rotations_and_flips, move_budget))


@dataclasses.dataclass(frozen=True)
class Ball:
    """All distinct elements of length <= radius, as sorted normal forms."""

    n: int
    radius: int
    elements: tuple[NormalForm, ...]
    layer_counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


def enumerate_ball(n: int, radius: int) -> Ball:
    """Walk of the prefix tree of normal forms, one layer per length.

    A word is the lex-least reduced spelling of its element iff it has no
    factor ``b u a`` with a < b where a commutes with b and with every
    letter of u (Anisimov–Knuth, *Inhomogeneous sorting*, 1979).  Such
    words are closed under prefixes (a prefix of a reduced word is reduced,
    and a factor of a prefix is a factor of the word), so every normal form
    of length k+1 is exactly one normal form of length k followed by one
    letter s.  To test ``w + (s,)``, walk back from the end of w over the
    letters < s-1, which commute with s and are smaller: stopping at s
    means s is a right descent (not reduced), stopping at a letter > s+1
    means a smaller spelling exists (its normal form has another parent),
    and reaching the start or stopping at s±1 keeps the word.  Every
    element is produced once, and parents in lex order with letters in
    increasing order give each layer already sorted.
    """
    _check_radius(n, radius)
    layers: list[list[tuple[int, ...]]] = [[()]]
    for _ in range(radius):
        grown = []
        for word in layers[-1]:
            for s in range(1, n):
                k = len(word) - 1
                while k >= 0 and word[k] < s - 1:
                    k -= 1
                if k < 0 or word[k] == s - 1 or word[k] == s + 1:
                    grown.append(word + (s,))
        if not grown:
            break
        layers.append(grown)
    return Ball(
        n,
        radius,
        tuple(NormalForm(Word(n, word)) for layer in layers for word in layer),
        tuple(len(layer) for layer in layers),
    )


def ball_layer_counts(n: int, radius: int) -> tuple[int, ...]:
    """``enumerate_ball(n, radius).layer_counts`` from the growth series.

    For a right-angled Coxeter group 1/W(t) = sum_k c_k (-t/(1+t))^k, where
    c_k counts the k-sets of pairwise commuting generators: here the
    k-subsets of s1..s(n-1) with no two adjacent, so c_k = C(n-k, k)
    (Steinberg's formula; Davis, *The Geometry and Topology of Coxeter
    Groups*, ch. 17).  The coefficient of t^m in (-t/(1+t))^k is
    (-1)^m C(m-1, k-1), so inverting the series to order ``radius`` takes
    O(radius^2) exact integer operations at any n and enumerates nothing.
    """
    _check_radius(n, radius)
    recip = [1] + [
        (-1) ** m * sum(comb(n - k, k) * comb(m - 1, k - 1) for k in range(1, min(m, n // 2) + 1))
        for m in range(1, radius + 1)
    ]
    counts = [1]
    for m in range(1, radius + 1):
        layer = -sum(recip[j] * counts[m - j] for j in range(1, m + 1))
        if not layer:
            break
        counts.append(layer)
    return tuple(counts)


def conjugator_search(u: Word, v: Word, radius: int) -> Word | None:
    """First g in length-then-lex order with g v g^-1 = u, or None."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    for nf in enumerate_ball(u.n, radius).elements:
        g = nf.word
        if equal(multiply(multiply(g, v), inverse(g)), u):
            return g
    return None


def twisted_witness_search(phi, x: Word, y: Word, radius: int) -> Word | None:
    """First g in length-then-lex order with g y phi(g)^-1 = x, or None."""
    from .twisted import apply as apply_endomap

    for nf in enumerate_ball(x.n, radius).elements:
        g = nf.word
        candidate = multiply(multiply(g, y), inverse(apply_endomap(phi, g).word))
        if equal(candidate, x):
            return g
    return None
