"""Brute-force ground truth, deliberately naive and independent.

``bfs_equal`` decides the word problem by exploring the deletion+flip
closure of each input; it never calls the stack-scan reducer, so it can
referee it.  ``enumerate_ball`` lists all distinct elements up to a length
cap, and the two searches walk that ball in length-then-lex order.
"""

from __future__ import annotations

import dataclasses

from .words import NormalForm, Word, commutes, equal, inverse, multiply, normal_letters

DEFAULT_MOVE_BUDGET = 200_000

# Element counts explode with the strand count; these caps keep the ball
# enumerable at desk scale.
_RADIUS_CAPS = {2: 10, 3: 10, 4: 10, 5: 8}
_RADIUS_CAP_LARGE = 6


def radius_cap(n: int) -> int:
    return _RADIUS_CAPS.get(n, _RADIUS_CAP_LARGE)


def reduced_representatives(w: Word, move_budget: int = DEFAULT_MOVE_BUDGET) -> frozenset[tuple[int, ...]]:
    """All minimal-length words in the deletion+flip closure of ``w``.

    Deletions and flips never lengthen a word, so the closure is finite;
    its minimal-length layer is exactly the set of reduced words equal to
    ``w``.  Raises RuntimeError once the explored states exceed the budget.
    """
    start = tuple(w.letters)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for word in frontier:
            for p in range(len(word) - 1):
                a, b = word[p], word[p + 1]
                if a == b:
                    child = word[:p] + word[p + 2 :]
                elif commutes(a, b):
                    child = word[:p] + (b, a) + word[p + 2 :]
                else:
                    continue
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        if len(seen) > move_budget:
            raise RuntimeError(f"move budget {move_budget} exhausted")
        frontier = nxt
    shortest = min(len(word) for word in seen)
    return frozenset(word for word in seen if len(word) == shortest)


def bfs_equal(u: Word, v: Word, move_budget: int = DEFAULT_MOVE_BUDGET) -> bool:
    """Word-problem decision by closure intersection, independent of reduce."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    return not reduced_representatives(u, move_budget).isdisjoint(
        reduced_representatives(v, move_budget)
    )


@dataclasses.dataclass(frozen=True)
class Ball:
    """All distinct elements of length <= radius, as sorted normal forms."""

    n: int
    radius: int
    elements: tuple[NormalForm, ...]
    layer_counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


def enumerate_ball(n: int, radius: int, cap: int | None = None) -> Ball:
    """Layered enumeration with normal-form deduplication.

    Every element of length k+1 is some length-k element times a generator,
    so extending layer by layer and keeping the words that grew is complete.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    limit = radius_cap(n) if cap is None else cap
    if radius > limit:
        raise ValueError(f"radius {radius} exceeds cap {limit} for n={n}")
    layers: list[set[tuple[int, ...]]] = [{()}]
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
    return Ball(
        n,
        radius,
        tuple(NormalForm(Word(n, word)) for word in elements),
        tuple(len(layer) for layer in layers),
    )


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
