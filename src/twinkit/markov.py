"""The moves M1-M4 on twins and the destabilization decision.

A twin on n+1 strands is a stabilization when it factors as

    M3:  (beta x I) s_n s_{n-1} ... s_{i+1} s_i s_{i+1} ... s_{n-1} s_n
    M4:  (I x beta) s_1 s_2 ... s_{i-1} s_i s_{i-1} ... s_2  s_1

for some beta on n strands and 1 <= i <= n.  ``destabilize_m3`` decides the
first form through the parabolic factorization a = p m (Bjorner-Brenti,
*Combinatorics of Coxeter Groups*, 2.4): p lies in P = <s_1 .. s_{n-1}> and
m is the shortest element of the coset P a.  A chain's only left descent is
s_n, so it is shortest in its coset; by uniqueness a is a stabilization iff
m is a chain, and then beta = p.  The paper's count of s_n (once when i = n,
twice otherwise) is a corollary, since p holds none.  ``destabilize_oracle``
decides both forms independently through parabolic membership, exploiting
that each chain word is a palindrome of involutions and hence its own
inverse.
"""

from __future__ import annotations

import dataclasses

from .words import Word, multiply, normal_letters, reduce

M3 = "M3"
M4 = "M4"


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


def destabilize_m3(a: Word) -> DestabilizationResult:
    """Decide whether ``a`` equals (beta x I) times a right chain.

    Splits the normal form into m, the pieces of its heap at or above some
    s_n, and p, the rest, in one pass; ``a`` destabilizes iff m spells a
    chain.  A chain's pieces are totally ordered, so it has one spelling and
    m can be compared letter by letter.  The lex-least order restricted to
    the downset p is p's own lex-least order, so p is already beta's normal
    form.
    """
    if a.n < 3:
        raise ValueError("destabilization needs at least 3 strands")
    n = a.n - 1
    core, rest, above = [], [], set()
    for x in normal_letters(a.letters):
        if x == n or x + 1 in above:  # marked letters always form an interval [y, n]
            above.add(x)
            core.append(x)
        else:
            rest.append(x)
    i = n - len(core) // 2  # a chain through s_i has 2(n-i)+1 letters
    if i < 1 or tuple(core) != m3_chain(n, i).letters:
        return DestabilizationResult(False)
    return DestabilizationResult(True, Word(n, tuple(rest)), i, M3)


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

