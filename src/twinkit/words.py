"""Words over the twin-group presentation and the word problem.

The twin group on n strands is generated by involutions s_1, ..., s_{n-1}
in which s_i and s_j commute exactly when |i - j| >= 2 (far commutativity).
Three elementary transformations connect words that represent the same
element: deleting a square s_i s_i, inserting one, and flipping an adjacent
commuting pair s_i s_j -> s_j s_i.

Conventions used throughout the package:

- generator indices are 1-based and every word carries its strand count, so
  cross-strand operations have to be explicit (see the markov module);
- the empty word is the identity element and prints as "e";
- a word is *reduced* when no chain of elementary transformations shortens
  it; equivalently, between any two occurrences of s_i there is at least
  one s_{i-1} or s_{i+1};
- reduced representatives of one element differ only by flips, and the
  *normal form* picks the lexicographically least of them; two words
  represent the same element iff their normal forms agree letterwise.

All values are immutable and all operations are pure functions, so
everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import dataclasses
import heapq


def commutes(a: int, b: int) -> bool:
    """Whether the generators s_a and s_b commute."""
    return abs(a - b) >= 2


@dataclasses.dataclass(frozen=True)
class Word:
    """A word in the generators s_1 .. s_{n-1} of the twin group on n strands.

    ``letters`` holds 1-based generator indices; the empty tuple is the
    identity.  Multiplication is concatenation without reduction, and the
    inverse is the reversal (every generator is an involution).
    """

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"strand count must be at least 1, got {self.n}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            if not 1 <= x <= self.n - 1:
                raise ValueError(f"letter s{x} out of range on {self.n} strands")

    @classmethod
    def parse(cls, n: int, text: str) -> Word:
        """Parse the s-token grammar: "s1 s2 s1", bare digits, or "e"."""
        tokens = text.split()
        if tokens == ["e"]:
            return cls(n, ())
        letters = []
        for tok in tokens:
            body = tok[1:] if tok.startswith("s") else tok
            if not (body.isascii() and body.isdigit()):
                raise ValueError(f"bad generator token {tok!r}")
            letters.append(int(body))
        return cls(n, tuple(letters))

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(f"s{x}" for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: Word) -> Word:
        return multiply(self, other)

    def __pow__(self, k: int) -> Word:
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.n, self.letters * k)

    def inverse(self) -> Word:
        return Word(self.n, self.letters[::-1])


@dataclasses.dataclass(frozen=True)
class NormalForm:
    """The canonical (lexicographically least reduced) word of an element."""

    word: Word

    @property
    def n(self) -> int:
        return self.word.n

    @property
    def letters(self) -> tuple[int, ...]:
        return self.word.letters

    def __len__(self) -> int:
        return len(self.word.letters)

    def __str__(self) -> str:
        return str(self.word)


def multiply(u: Word, v: Word) -> Word:
    """Concatenate two words on the same strand count; no reduction."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    return Word(u.n, u.letters + v.letters)


def inverse(w: Word) -> Word:
    """Letter-reversed word; generators are involutions."""
    return w.inverse()


def _reduce_letters(letters, moves: list[Move] | None = None, flips=(), kind="delete") -> list[int]:
    # Left-to-right stack scan: an incoming letter cancels the nearest equal
    # letter reachable backwards through commuting letters, else is appended.
    # ``moves`` receives the flips that carry the cancelled letter up to the
    # incoming one, sliced from the table ``flips`` (``flips[p]`` flips at
    # p), and the ``kind`` move of the pair ("insert" records the inverse),
    # positions taken in the word ``out + rest of input``.
    out: list[int] = []
    for x in letters:
        k = len(out) - 1
        cancel = -1
        while k >= 0:
            d = out[k] - x
            if d == 0:
                cancel = k
                break
            if -2 < d < 2:
                break
            k -= 1
        if cancel >= 0:
            if moves is not None:
                moves += flips[cancel : len(out) - 1]
                moves.append(Move(kind, len(out) - 1, x))
            del out[cancel]
        else:
            out.append(x)
    return out


# Below this many letters one insertion pass beats building the heap; the
# crossover was measured at n = 6-64 (see CHANGES.md).
_HEAP_CUTOFF = 48


def _insertion_letters(letters) -> tuple[int, ...]:
    # Reduce and normalise in one pass, keeping ``out`` in normal form.  An
    # incoming x walks back through the letters it commutes with; if the
    # letter that stops it is x, the two cancel (x was a maximal piece),
    # otherwise x settles before the leftmost larger letter it passed.
    # Adding or deleting a maximal piece leaves the greedy order of the
    # other pieces unchanged, so ``out`` stays lex-least.
    out: list[int] = []
    for x in letters:
        k = len(out) - 1
        at = k + 1
        while k >= 0:
            y = out[k]
            if y - x > 1:
                at = k
            elif x - y < 2:
                break
            k -= 1
        if k >= 0 and out[k] == x:
            del out[k]
        else:
            out.insert(at, x)
    return tuple(out)


def _heap_letters(letters) -> tuple[int, ...]:
    # Heap of pieces (Viennot 1986): one stack of live piece ids (input
    # positions) per generator.  An incoming x cancels the top of column x
    # when no live x-1 or x+1 lies above it, which is the letter the backward
    # scan of ``_reduce_letters`` reaches; otherwise it is pushed.  The live
    # pieces of columns x-1, x, x+1 are totally ordered by id, so the lowest
    # unemitted piece of column y is ready once it lies below the lowest
    # unemitted pieces of y-1 and y+1.  Kahn's sort with a min-heap of ready
    # columns then emits the lex-least order; two neighbouring columns are
    # never ready together, so a column is queued at most once.  Every
    # column sits on the sentinel id -1.
    stacks: dict[int, list[int]] = {}
    get = stacks.get
    bottom = (-1,)
    for i, x in enumerate(letters):
        s = get(x)
        if s is None:
            stacks[x] = [-1, i]
        elif s[-1] > get(x - 1, bottom)[-1] and s[-1] > get(x + 1, bottom)[-1]:
            s.pop()
        else:
            s.append(i)
    # Turn each column [-1, a_1, ..., a_k] into [end, a_k, ..., a_1], so
    # ``pop`` yields its lowest piece and an emptied column reads ``end``,
    # an id above every piece.
    end = len(letters)
    for s in stacks.values():
        s[0] = end
        s[1:] = s[:0:-1]
    done = (end,)
    ready = [
        y
        for y, s in stacks.items()
        if s[-1] < get(y - 1, done)[-1] and s[-1] < get(y + 1, done)[-1]
    ]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        y = heapq.heappop(ready)
        out.append(y)
        stacks[y].pop()
        for z in (y - 1, y, y + 1):
            s = get(z)
            if s is not None and s[-1] < get(z - 1, done)[-1] and s[-1] < get(z + 1, done)[-1]:
                heapq.heappush(ready, z)
    return tuple(out)


def normal_letters(letters) -> tuple[int, ...]:
    """Canonical letter tuple of the element spelled by ``letters``: the
    lex-least reduced word, in O(L log L) (one insertion pass for short
    words)."""
    if len(letters) < _HEAP_CUTOFF:
        return _insertion_letters(letters)
    return _heap_letters(letters)


def reduce(w: Word) -> NormalForm:
    """Canonical normal form of the element represented by ``w``."""
    return NormalForm(Word(w.n, normal_letters(w.letters)))


def _last_occurrences(letters) -> dict[int, int] | None:
    # Last position of each letter, or None for an unreduced word: one where
    # some s_x meets its previous occurrence with no s_{x-1} or s_{x+1} in
    # between (the first cancellation of the reduction scan).
    last: dict[int, int] = {}
    get = last.get
    for i, x in enumerate(letters):
        p = get(x, -1)
        if p > get(x - 1, -1) and p > get(x + 1, -1):
            return None
        last[x] = i
    return last


def is_reduced(w: Word) -> bool:
    """Whether no chain of elementary transformations shortens ``w``."""
    return _last_occurrences(w.letters) is not None


def equal(u: Word, v: Word) -> bool:
    """Whether u and v represent the same group element."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    return normal_letters(u.letters) == normal_letters(v.letters)


def flip_equivalent(u: Word, v: Word) -> bool:
    """Whether two reduced words differ by flips alone."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    if not is_reduced(u) or not is_reduced(v):
        raise ValueError("flip equivalence is only defined for reduced words")
    if len(u.letters) != len(v.letters):
        return False
    return normal_letters(u.letters) == normal_letters(v.letters)


def support(w: Word) -> frozenset[int]:
    """Set of generator indices appearing in the reduced form of ``w``."""
    return frozenset(normal_letters(w.letters))


def parity_vector(w: Word) -> tuple[int, ...]:
    """Letter counts mod 2, one bit per generator; bit j-1 belongs to s_j.

    Invariant under all three elementary transformations, hence a function
    of the group element (the mod-2 abelianisation).
    """
    counts = [0] * (w.n - 1)
    for x in w.letters:
        counts[x - 1] ^= 1
    return tuple(counts)


@dataclasses.dataclass(frozen=True)
class Move:
    """One elementary transformation applied at a position.

    kind "delete" removes the equal pair at (pos, pos+1); "insert" puts the
    square s_letter s_letter at pos; "flip" swaps the commuting pair at
    (pos, pos+1).  Deletions record the removed letter so they invert.
    """

    kind: str
    pos: int
    letter: int | None = None

    def __str__(self) -> str:
        if self.kind == "flip":
            return f"flip@{self.pos}"
        return f"{self.kind}@{self.pos}(s{self.letter})"


def _apply_move(letters: list[int], move: Move) -> None:
    if move.kind == "delete":
        if move.pos + 1 >= len(letters) or letters[move.pos] != letters[move.pos + 1]:
            raise ValueError(f"illegal {move} on {letters}")
        del letters[move.pos : move.pos + 2]
    elif move.kind == "insert":
        if not 0 <= move.pos <= len(letters) or move.letter is None:
            raise ValueError(f"illegal {move} on {letters}")
        letters[move.pos : move.pos] = [move.letter, move.letter]
    elif move.kind == "flip":
        if move.pos + 1 >= len(letters) or not commutes(
            letters[move.pos], letters[move.pos + 1]
        ):
            raise ValueError(f"illegal {move} on {letters}")
        letters[move.pos], letters[move.pos + 1] = (
            letters[move.pos + 1],
            letters[move.pos],
        )
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")


@dataclasses.dataclass(frozen=True)
class MoveCertificate:
    """An explicit chain of elementary transformations from source to target."""

    source: Word
    target: Word
    moves: tuple[Move, ...]

    def apply_to(self, w: Word) -> Word:
        """Replay the chain on ``w``, validating every move."""
        letters = list(w.letters)
        for move in self.moves:
            _apply_move(letters, move)
        return Word(w.n, tuple(letters))

    def __str__(self) -> str:
        return "; ".join(str(m) for m in self.moves) if self.moves else "(empty)"


def _sort_moves(reduced: list[int], moves: list[Move], flips: list[Move]) -> tuple[int, ...]:
    # Flips carrying a reduced word to its normal form.  The i-th s_x of one
    # is the i-th s_x of the other, so each normal-form letter in turn is the
    # first equal letter among those not yet emitted, and it is flipped from
    # there to the front of the remainder: flips at t + pos - 1 down to t.
    normal = normal_letters(reduced)
    rem = list(reduced)
    for t, x in enumerate(normal):
        pos = rem.index(x)
        del rem[pos]
        moves += flips[t : t + pos][::-1]
    return normal


def certificate(u: Word, v: Word) -> MoveCertificate:
    """Explicit elementary-transformation chain turning ``u`` into ``v``.

    For each word the reduction scan records its cancellations, followed by
    the flips that sort the reduced word into the shared normal form; the
    v-side moves are recorded as their inverses and reversed, so replaying
    the chain on ``u`` yields exactly the letter sequence of ``v``.  The
    chain has O(L^2) moves for words of length L, but its flips are shared
    immutable objects, one per position, so building it allocates O(L)
    moves and copies the rest as references.
    """
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    flips = [Move("flip", p) for p in range(max(len(u), len(v)))]
    forward: list[Move] = []
    backward: list[Move] = []
    nu = _sort_moves(_reduce_letters(u.letters, forward, flips), forward, flips)
    nv = _sort_moves(_reduce_letters(v.letters, backward, flips, "insert"), backward, flips)
    if nu != nv:
        raise ValueError("words are not equal as group elements")
    return MoveCertificate(u, v, tuple(forward + backward[::-1]))
