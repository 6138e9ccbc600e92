"""Closures of twins: strand permutations, split detection, SVG rendering.

The closure of a twin joins top and bottom endpoints on the sphere, so its
closed curves correspond to the cycles of the strand permutation.  A twin
is *split* when its closure separates into two disks; the check here
implements three sufficient conditions (missing generator up to conjugacy,
or a single destabilization whose core misses one), never a necessity.
"""

from __future__ import annotations

import dataclasses

from .conjugacy import cyclic_reduce
from .markov import destabilize_m3, destabilize_m4
from .words import Word


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}; images[k] is the image of k+1."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    def __mul__(self, other: Permutation) -> Permutation:
        # (p * q)(x) = p(q(x))
        return Permutation(tuple(self.images[q - 1] for q in other.images))

    def is_identity(self) -> bool:
        return all(v == k + 1 for k, v in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * len(self.images)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cycle = []
            x = start
            while not seen[x - 1]:
                seen[x - 1] = True
                cycle.append(x)
                x = self.images[x - 1]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_count(self) -> int:
        return len(self.cycles())


def _permutation(letters, strands: int) -> Permutation:
    images = list(range(1, strands + 1))
    for x in letters:
        images[x - 1], images[x] = images[x], images[x - 1]
    return Permutation(tuple(images))


def permutation_of(w: Word) -> Permutation:
    """Image of the word under s_i -> (i, i+1); a homomorphism to S_n."""
    return _permutation(w.letters, w.n)


def _touched_strands(w: Word) -> Permutation:
    # Number the strands next to some letter in order; the rest are fixed
    # points, so the cost follows the letters, not n.  Strands x and x+1
    # stay adjacent, so letter x becomes the rank of strand x.
    strands = sorted({s for x in w.letters for s in (x, x + 1)})
    rank = {s: r for r, s in enumerate(strands, start=1)}
    return _permutation([rank[x] for x in w.letters], len(strands))


def is_pure(w: Word) -> bool:
    """Whether the word lies in the kernel of the strand permutation."""
    return _touched_strands(w).is_identity()


def closure_components(w: Word) -> int:
    """Number of closed curves in the closure: cycles of the permutation."""
    perm = _touched_strands(w)
    return perm.cycle_count() + w.n - len(perm.images)


@dataclasses.dataclass(frozen=True)
class ClosureSummary:
    """Closure data plus the outcome of the sufficient split conditions.

    ``split_certified`` is one-directional: False means "not certified",
    never "not split".
    """

    components: int
    split_certified: bool
    split_reason: int | None


def _misses_some_generator(w: Word, generators: range) -> bool:
    present = set(cyclic_reduce(w).representative.letters)
    return any(i not in present for i in generators)


def split_check(w: Word) -> ClosureSummary:
    """Test the three sufficient split conditions, in order.

    (1) the cyclically reduced form misses some generator, (2)/(3) one
    destabilization strips a boundary chain and the core then satisfies (1)
    one strand down.  Single-step only; no iterated search.
    """
    if w.n < 3:
        raise ValueError("split detection needs at least 3 strands")
    reason = None
    if _misses_some_generator(w, range(1, w.n)):
        reason = 1
    else:
        right = destabilize_m3(w)
        if right.found and _misses_some_generator(right.beta, range(1, w.n - 1)):
            reason = 2
        else:
            left = destabilize_m4(w)
            if left.found and _misses_some_generator(left.beta, range(1, w.n - 1)):
                reason = 3
    return ClosureSummary(closure_components(w), reason is not None, reason)


@dataclasses.dataclass(frozen=True)
class SvgGeometry:
    """Fixed drawing constants; frozen so golden files stay byte-stable."""

    strand_spacing: int = 40
    slot_height: int = 30
    stroke_width: int = 2
    margin: int = 20
    arc_spacing: int = 20


DEFAULT_GEOMETRY = SvgGeometry()


def render_svg(w: Word, mode: str = "diagram", geometry: SvgGeometry = DEFAULT_GEOMETRY) -> str:
    """Deterministic SVG for a twin diagram or its closure.

    Strands run top to bottom, one time slot per letter; the letter s_i is a
    transversal crossing of strands i and i+1.  Closure mode adds nested
    return arcs on the right.  Identical input yields identical bytes.
    """
    if mode not in ("diagram", "closure"):
        raise ValueError(f"mode must be 'diagram' or 'closure', got {mode!r}")
    g = geometry
    n = w.n
    slots = max(len(w.letters), 1)
    closure = mode == "closure"
    pad = n * g.arc_spacing if closure else 0
    y_top = g.margin + pad
    y_bot = y_top + slots * g.slot_height
    width = 2 * g.margin + (n - 1) * g.strand_spacing + pad
    height = y_bot + pad + g.margin

    def x_of(col: int) -> int:
        return g.margin + (col - 1) * g.strand_spacing

    paths = []
    for start in range(1, n + 1):
        col = start
        points = [(x_of(col), y_top)]
        for t, letter in enumerate(w.letters):
            if col == letter:
                col = letter + 1
            elif col == letter + 1:
                col = letter
            points.append((x_of(col), y_top + (t + 1) * g.slot_height))
        if not w.letters:
            points.append((x_of(col), y_bot))
        paths.append(("strand", points))
    if closure:
        for col in range(1, n + 1):
            depth = (n - col + 1) * g.arc_spacing
            arc_x = x_of(n) + depth
            points = [
                (x_of(col), y_bot),
                (x_of(col), y_bot + depth),
                (arc_x, y_bot + depth),
                (arc_x, y_top - depth),
                (x_of(col), y_top - depth),
                (x_of(col), y_top),
            ]
            paths.append(("closure-arc", points))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<g fill="none" stroke="black" stroke-width="{g.stroke_width}" '
        f'stroke-linejoin="round" stroke-linecap="round">',
    ]
    for cls, points in paths:
        coords = " ".join(f"{x},{y}" for x, y in points)
        lines.append(f'<polyline class="{cls}" points="{coords}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
