"""Independent reference arithmetic for checking the benchmark's answers.

Nothing here imports twinkit.  Every expected value the benchmark compares
a library answer against either follows from how the input was built or is
computed by the few functions below, so a wrong fast path cannot vouch for
itself.  Words are plain tuples of 1-based generator indices.
"""

from __future__ import annotations

import heapq


def commutes(a: int, b: int) -> bool:
    return abs(a - b) >= 2


def reduce_letters(letters) -> list[int]:
    """A reduced spelling of the element, in one left-to-right pass.

    One stack of live positions per generator (a heap of pieces): an incoming
    x cancels the topmost live x exactly when no live x-1 or x+1 lies above
    it, because then everything after it commutes with x.
    """
    stacks: dict[int, list[int]] = {}
    live: list[int | None] = []
    for x in letters:
        col = stacks.setdefault(x, [])
        if col:
            t = col[-1]
            neighbours = stacks.get(x - 1), stacks.get(x + 1)
            if all(not s or s[-1] < t for s in neighbours):
                col.pop()
                live[t] = None
                continue
        col.append(len(live))
        live.append(x)
    return [x for x in live if x is not None]


def normal_form(letters) -> tuple[int, ...]:
    """Lexicographically least reduced word of the element.

    Kahn's topological sort of the heap of the reduced word with a
    min-priority queue: repeatedly emit the least letter all of whose
    non-commuting predecessors have been emitted.
    """
    r = reduce_letters(letters)
    indeg = [0] * len(r)
    succ: list[list[int]] = [[] for _ in r]
    last: dict[int, int] = {}
    for j, x in enumerate(r):
        for y in (x - 1, x, x + 1):
            i = last.get(y)
            if i is not None:
                succ[i].append(j)
                indeg[j] += 1
        last[x] = j
    ready = [(r[j], j) for j in range(len(r)) if not indeg[j]]
    heapq.heapify(ready)
    out = []
    while ready:
        x, j = heapq.heappop(ready)
        out.append(x)
        for k in succ[j]:
            indeg[k] -= 1
            if not indeg[k]:
                heapq.heappush(ready, (r[k], k))
    return tuple(out)


def same_element(u, v) -> bool:
    return normal_form(u) == normal_form(v)


def is_reduced(letters) -> bool:
    """Between two occurrences of s_i there is an s_{i-1} or s_{i+1}."""
    last: dict[int, int] = {}
    for q, x in enumerate(letters):
        p = last.get(x)
        if p is not None and max(last.get(x - 1, -1), last.get(x + 1, -1)) < p:
            return False
        last[x] = q
    return True


def is_cyclically_reduced(letters) -> bool:
    """Every rotation is reduced: the criterion above on each cyclic gap
    between consecutive occurrences, scanned once over the doubled word."""
    letters = tuple(letters)
    n = len(letters)
    last: dict[int, int] = {}
    for q, x in enumerate(letters + letters):
        p = last.get(x)
        if q >= n and p is not None and p > q - n:
            if max(last.get(x - 1, -1), last.get(x + 1, -1)) < p:
                return False
        last[x] = q
    return True


def cyclic_length(letters) -> int:
    """Length of a cyclically reduced conjugate (short words only)."""
    cur = reduce_letters(letters)
    while not is_cyclically_reduced(cur):
        t = next(t for t in range(len(cur)) if not is_reduced(cur[t:] + cur[:t]))
        cur = reduce_letters(cur[t:] + cur[:t])
    return len(cur)


def parity(letters, n: int) -> tuple[int, ...]:
    bits = [0] * (n - 1)
    for x in letters:
        bits[x - 1] ^= 1
    return tuple(bits)


def permutation(letters, n: int) -> tuple[int, ...]:
    """Images of 1..n under s_i -> (i, i+1), applied left to right."""
    images = list(range(1, n + 1))
    for x in letters:
        images[x - 1], images[x] = images[x], images[x - 1]
    return tuple(images)


def cycle_count(images) -> int:
    seen = set()
    count = 0
    for start in range(1, len(images) + 1):
        if start not in seen:
            count += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = images[x - 1]
    return count


def replay(letters, moves) -> tuple[int, ...]:
    """Apply (kind, pos, letter) moves, rejecting any illegal one."""
    w = list(letters)
    for kind, pos, letter in moves:
        if kind == "delete":
            if not (pos + 1 < len(w) and w[pos] == w[pos + 1]):
                raise ValueError(f"illegal delete at {pos}")
            del w[pos : pos + 2]
        elif kind == "insert":
            if not 0 <= pos <= len(w) or letter is None:
                raise ValueError(f"illegal insert at {pos}")
            w[pos:pos] = [letter, letter]
        elif kind == "flip":
            if not (pos + 1 < len(w) and commutes(w[pos], w[pos + 1])):
                raise ValueError(f"illegal flip at {pos}")
            w[pos], w[pos + 1] = w[pos + 1], w[pos]
        else:
            raise ValueError(f"unknown move {kind!r}")
    return tuple(w)


def conjugates_to(g, v, u) -> bool:
    """Whether g v g^-1 equals u; generators are involutions."""
    g = tuple(g)
    return same_element(g + tuple(v) + g[::-1], u)


def m3_chain(n: int, i: int) -> tuple[int, ...]:
    """s_n ... s_i ... s_n on n+1 strands."""
    return tuple(range(n, i, -1)) + (i,) + tuple(range(i + 1, n + 1))


def m4_chain(n: int, i: int) -> tuple[int, ...]:
    """s_1 ... s_i ... s_1 on n+1 strands."""
    return tuple(range(1, i)) + (i,) + tuple(range(i - 1, 0, -1))


# Outer automorphisms as generator images, from their definitions.


def images_of(name: str, n: int) -> tuple[tuple[int, ...], ...]:
    if name == "psi":
        return tuple((n - i,) for i in range(1, n))
    if name == "tau" and n == 4:
        return ((1, 3), (2,), (1,))
    if name == "kappa" and n >= 5:
        return tuple((n - 3, n - 1) if i == 3 else (n - i,) for i in range(1, n))
    if name == "psi_n" and n >= 3:
        return tuple((2, 1, 2) if i == 2 else (i,) for i in range(1, n))
    raise ValueError(f"no map {name!r} on {n} strands")


def apply_map(images, letters) -> tuple[int, ...]:
    return tuple(y for x in letters for y in images[x - 1])


def compose_maps(phi, chi):
    """phi after chi."""
    return tuple(normal_form(apply_map(phi, img)) for img in chi)


def map_order(images, cap: int = 24) -> int:
    ident = tuple((i,) for i in range(1, len(images) + 1))
    cur = tuple(normal_form(img) for img in images)
    for k in range(1, cap + 1):
        if cur == ident:
            return k
        cur = compose_maps(cur, images)
    raise ValueError("order above cap")


def norm(images, letters) -> tuple[int, ...]:
    """x phi(x) ... phi^{k-1}(x) for k the order of phi, in normal form."""
    out = list(letters)
    piece = tuple(letters)
    for _ in range(map_order(images) - 1):
        piece = apply_map(images, piece)
        out.extend(piece)
    return normal_form(out)


def closure_size(seeds) -> int:
    """Number of maps generated by composing the seed maps."""
    seeds = [tuple(normal_form(img) for img in s) for s in seeds]
    found = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for phi in frontier:
            for chi in seeds:
                for prod in (compose_maps(phi, chi), compose_maps(chi, phi)):
                    if prod not in found:
                        found.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return len(found)


def ball_layers(n: int, radius: int) -> tuple[int, ...]:
    """Element counts by length, by breadth-first growth of normal forms."""
    layers = [{()}]
    for k in range(radius):
        grown = {
            nf
            for w in layers[k]
            for s in range(1, n)
            if len(nf := normal_form(w + (s,))) == k + 1
        }
        if not grown:
            break
        layers.append(grown)
    return tuple(len(layer) for layer in layers)
