"""The moves M1-M4 on twins and the destabilization decision.

A twin on n+1 strands is a stabilization when it factors as

    M3:  (beta x I) s_n s_{n-1} ... s_{i+1} s_i s_{i+1} ... s_{n-1} s_n
    M4:  (I x beta) s_1 s_2 ... s_{i-1} s_i s_{i-1} ... s_2  s_1

for some beta on n strands and 1 <= i <= n.  ``destabilize_m3`` decides the
first form by case analysis on how many times the top generator occurs in
the reduced word; ``destabilize_oracle`` decides both forms independently
through parabolic membership, exploiting that each chain word is a
palindrome of involutions and hence its own inverse.
"""

from __future__ import annotations

import dataclasses

from .words import Word, commutes, inverse, multiply, normal_letters, reduce

M3 = "M3"
M4 = "M4"


@dataclasses.dataclass(frozen=True)
class MoveKind:
    """A single move: tag plus its parameter (conjugator for M2, index for M3/M4)."""

    tag: str
    conjugator: Word | None = None
    index: int | None = None


@dataclasses.dataclass(frozen=True)
class DestabilizationResult:
    """Outcome of a destabilization decision; a negative answer is a value."""

    found: bool
    beta: Word | None = None
    index: int | None = None
    kind: str | None = None


def tensor(a: Word, b: Word) -> Word:
    """Juxtapose diagrams: a unchanged, b shifted up by a's strand count."""
    return Word(a.n + b.n, a.letters + tuple(x + a.n for x in b.letters))


def m3_chain(n: int, i: int) -> Word:
    """The descending-ascending chain s_n ... s_i ... s_n on n+1 strands."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return Word(n + 1, tuple(range(n, i, -1)) + (i,) + tuple(range(i + 1, n + 1)))


def m4_chain(n: int, i: int) -> Word:
    """The ascending-descending chain s_1 ... s_i ... s_1 on n+1 strands."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return Word(n + 1, tuple(range(1, i)) + (i,) + tuple(range(i - 1, 0, -1)))


def m1_shift(a: Word) -> Word:
    """Replace beta x I by I x beta: increment every index by one.

    Requires the reduced form of ``a`` to avoid the top generator.
    """
    top = a.n - 1
    red = normal_letters(a.letters)
    if top in red:
        raise ValueError(f"word uses s{top}, cannot shift up on {a.n} strands")
    return Word(a.n, tuple(x + 1 for x in red))


def m1_shift_inverse(a: Word) -> Word:
    """Replace I x beta by beta x I: decrement every index by one."""
    red = normal_letters(a.letters)
    if 1 in red:
        raise ValueError("word uses s1, cannot shift down")
    return Word(a.n, tuple(x - 1 for x in red))


def stabilize_m3(b: Word, i: int) -> Word:
    """Append the right chain: (b x I) times the chain through s_i."""
    chain = m3_chain(b.n, i)
    return Word(b.n + 1, b.letters + chain.letters)


def stabilize_m4(b: Word, i: int) -> Word:
    """Prepend a trivial strand and append the left chain through s_i."""
    chain = m4_chain(b.n, i)
    return Word(b.n + 1, tuple(x + 1 for x in b.letters) + chain.letters)


def _eject_foreign_letters(prefix: list[int], span: list[int], suffix: list[int], top: int) -> None:
    # Letters commuting with the top generator may leave the span between its
    # two occurrences: leftwards when non-commuting material follows them,
    # rightwards otherwise.  Iterate to a fixpoint; chain letters stay locked
    # between non-commuting neighbours.
    moved = True
    while moved:
        moved = False
        for k, x in enumerate(span):
            if x == top - 1:
                continue
            right_clear = all(commutes(x, y) for y in span[k + 1 :])
            if right_clear:
                del span[k]
                suffix.insert(0, x)
                moved = True
                break
            if all(commutes(x, y) for y in span[:k]):
                del span[k]
                prefix.append(x)
                moved = True
                break


def destabilize_m3(a: Word) -> DestabilizationResult:
    """Decide whether ``a`` equals (beta x I) times a right chain.

    Case analysis on the number of top-generator occurrences in the reduced
    word (the count is flip-invariant, so it is well defined):

    - none: impossible, every stabilized word keeps one or two;
    - one: the chain must be the bare s_n, so everything after the single
      s_n has to commute past it, which fails exactly when s_{n-1} follows;
    - two: normalize the stretch between the two s_n's by ejecting the
      letters that commute with s_n, then the remainder must spell the chain
      interior for some i and the tail may only use s_j with j <= i-2;
    - three or more: impossible, the extra s_n could never fold into beta.
    """
    if a.n < 3:
        raise ValueError("destabilization needs at least 3 strands")
    top = a.n - 1
    rho = normal_letters(a.letters)
    positions = [k for k, x in enumerate(rho) if x == top]
    count = len(positions)
    if count == 0 or count >= 3:
        return DestabilizationResult(False)
    n = top
    if count == 1:
        p = positions[0]
        tail = rho[p + 1 :]
        if (top - 1) in tail:
            return DestabilizationResult(False)
        beta = Word(n, normal_letters(rho[:p] + tail))
        return DestabilizationResult(True, beta, n, M3)
    p, q = positions
    prefix = list(rho[:p])
    span = list(rho[p + 1 : q])
    suffix = list(rho[q + 1 :])
    _eject_foreign_letters(prefix, span, suffix, top)
    if len(span) % 2 == 0:
        return DestabilizationResult(False)
    i = (top - 1) - (len(span) - 1) // 2
    if i < 1:
        return DestabilizationResult(False)
    interior = list(range(top - 1, i - 1, -1)) + list(range(i + 1, top))
    if span != interior:
        return DestabilizationResult(False)
    if any(x > i - 2 for x in suffix):
        return DestabilizationResult(False)
    beta = Word(n, normal_letters(tuple(prefix) + tuple(suffix)))
    return DestabilizationResult(True, beta, i, M3)


def _mirror(w: Word) -> Word:
    return Word(w.n, tuple(w.n - x for x in w.letters))


def destabilize_m4(a: Word) -> DestabilizationResult:
    """Mirror image of destabilize_m3 under the index reversal j -> n+1-j.

    The reversal carries right chains to left chains, so the decision and
    the recovered beta (shifted back down to n strands) transport directly.
    """
    res = destabilize_m3(_mirror(a))
    if not res.found:
        return DestabilizationResult(False)
    beta = Word(a.n - 1, normal_letters(_mirror(res.beta).letters))
    return DestabilizationResult(True, beta, a.n - res.index, M4)


def destabilize_oracle(a: Word, kind: str) -> DestabilizationResult:
    """Independent decision by parabolic membership.

    Chains are involutions, so ``a`` is a stabilization at index i iff
    multiplying by the chain lands in the subgroup missing the boundary
    generator.  Tries i from n down to 1 and reports the first hit.
    """
    if a.n < 3:
        raise ValueError("destabilization needs at least 3 strands")
    if kind not in (M3, M4):
        raise ValueError(f"kind must be {M3} or {M4}")
    n = a.n - 1
    for i in range(n, 0, -1):
        if kind == M3:
            product = reduce(multiply(a, m3_chain(n, i)))
            if n not in product.letters:
                return DestabilizationResult(True, Word(n, product.letters), i, M3)
        else:
            product = reduce(multiply(a, m4_chain(n, i)))
            if 1 not in product.letters:
                beta = Word(n, normal_letters(tuple(x - 1 for x in product.letters)))
                return DestabilizationResult(True, beta, i, M4)
    return DestabilizationResult(False)


def apply_move(a: Word, move: MoveKind) -> Word:
    """Apply one move, adjusting the strand count for (de)stabilizations."""
    tag = move.tag
    if tag == "M1":
        return m1_shift(a)
    if tag == "M1_inverse":
        return m1_shift_inverse(a)
    if tag == "M2":
        if move.conjugator is None:
            raise ValueError("M2 needs a conjugator")
        c = move.conjugator
        return reduce(multiply(multiply(inverse(c), a), c)).word
    if tag == "M3":
        if move.index is None:
            raise ValueError("M3 needs an index")
        return stabilize_m3(a, move.index)
    if tag == "M4":
        if move.index is None:
            raise ValueError("M4 needs an index")
        return stabilize_m4(a, move.index)
    if tag in ("M3_inverse", "M4_inverse"):
        res = destabilize_m3(a) if tag == "M3_inverse" else destabilize_m4(a)
        if not res.found:
            raise ValueError(f"word is not {tag[:2]}-destabilizable")
        if move.index is not None and move.index != res.index:
            raise ValueError(f"destabilization index is {res.index}, not {move.index}")
        return res.beta
    raise ValueError(f"unknown move tag {tag!r}")
