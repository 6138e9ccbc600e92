"""Automorphisms of twin groups and twisted-conjugacy tests.

Outer representatives on n strands: the index reversal psi (all n), the
order-3 map tau (n = 4 only) and the order-4 map kappa (n >= 5).  Two
elements x, y are phi-conjugate when x = g y phi(g)^-1 for some g.  For a
finite-order phi the norm x phi(x) ... phi^{k-1}(x) transports phi-conjugacy
to ordinary conjugacy, giving a complete negative test; positives come from
a bounded ball search, and everything else stays honestly inconclusive.
"""

from __future__ import annotations

import dataclasses
import itertools

from .conjugacy import conjugate
from .oracle import DEFAULT_RADIUS, twisted_witness_search
from .words import NormalForm, Word, normal_letters

ORDER_CAP = 24


@dataclasses.dataclass(frozen=True)
class Endomap:
    """A relation-preserving self-map given by its generator images.

    Validated on construction: every image squares to the identity and
    far-apart images commute.  Bijectivity is not demanded; finite order is
    checked dynamically by the operations that need it.
    """

    n: int
    images: tuple[Word, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.images) != self.n - 1:
            raise ValueError(f"need {self.n - 1} generator images, got {len(self.images)}")
        for img in self.images:
            if img.n != self.n:
                raise ValueError("image strand count mismatch")
        for i, img in enumerate(self.images, start=1):
            if normal_letters(img.letters + img.letters):
                raise ValueError(f"image of s{i} is not an involution")
        for i, j in itertools.combinations(range(1, self.n), 2):
            if j - i < 2:
                continue
            a = self.images[i - 1].letters
            b = self.images[j - 1].letters
            if normal_letters(a + b + a[::-1] + b[::-1]):
                raise ValueError(f"images of s{i} and s{j} do not commute")


def identity_endomap(n: int) -> Endomap:
    return Endomap(n, tuple(Word(n, (i,)) for i in range(1, n)), "id")


def make_psi(n: int) -> Endomap:
    """Index reversal s_i -> s_{n-i}."""
    if n < 3:
        raise ValueError("psi needs at least 3 strands")
    return Endomap(n, tuple(Word(n, (n - i,)) for i in range(1, n)), "psi")


def make_tau() -> Endomap:
    """The order-3 outer automorphism on 4 strands."""
    n = 4
    images = (Word(n, (1, 3)), Word(n, (2,)), Word(n, (1,)))
    return Endomap(n, images, "tau")


def make_kappa(n: int) -> Endomap:
    """The order-4 outer automorphism on n >= 5 strands."""
    if n < 5:
        raise ValueError("kappa needs at least 5 strands")
    images = tuple(
        Word(n, (n - 3, n - 1)) if i == 3 else Word(n, (n - i,)) for i in range(1, n)
    )
    return Endomap(n, images, "kappa")


def make_inner(g: Word) -> Endomap:
    """Conjugation x -> g x g^-1."""
    n = g.n
    rev = g.letters[::-1]
    images = tuple(
        Word(n, normal_letters(g.letters + (i,) + rev)) for i in range(1, n)
    )
    return Endomap(n, images, f"inn({g})")


def _image_letters(phi: Endomap, letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        out.extend(phi.images[x - 1].letters)
    return normal_letters(out)


def apply(phi: Endomap, w: Word) -> NormalForm:
    """Image of a word: substitute generator images and reduce."""
    if phi.n != w.n:
        raise ValueError(f"strand counts differ: {phi.n} vs {w.n}")
    return NormalForm(Word(w.n, _image_letters(phi, w.letters)))


def compose(phi: Endomap, chi: Endomap) -> Endomap:
    """The map acting as phi after chi on every generator."""
    if phi.n != chi.n:
        raise ValueError(f"strand counts differ: {phi.n} vs {chi.n}")
    images = tuple(apply(phi, img).word for img in chi.images)
    return Endomap(phi.n, images, f"{phi.label}*{chi.label}")


def _image_key(phi: Endomap) -> tuple[tuple[int, ...], ...]:
    return tuple(normal_letters(img.letters) for img in phi.images)


def endo_equal(phi: Endomap, chi: Endomap) -> bool:
    return phi.n == chi.n and _image_key(phi) == _image_key(chi)


def order_of(phi: Endomap) -> int:
    """Least k >= 1 with phi^k the identity; errors beyond the cap.

    Powers of a validated map need no validation: only their images are followed."""
    images = identity = tuple((i,) for i in range(1, phi.n))
    for k in range(1, ORDER_CAP + 1):
        images = tuple(_image_letters(phi, img) for img in images)
        if images == identity:
            return k
    raise ValueError(f"order exceeds cap {ORDER_CAP}; map may have infinite order")


def norm(phi: Endomap, x: Word) -> NormalForm:
    """The product x phi(x) phi^2(x) ... phi^{k-1}(x), k the order of phi."""
    return _norm(phi, x, order_of(phi))


def _norm(phi: Endomap, x: Word, k: int) -> NormalForm:
    letters = list(x.letters)
    piece = x
    for _ in range(k - 1):
        piece = apply(phi, piece).word
        letters.extend(piece.letters)
    return NormalForm(Word(x.n, normal_letters(letters)))


@dataclasses.dataclass(frozen=True)
class TwistedConjugacyVerdict:
    """equivalent (with witness), not_equivalent (norm obstruction), or
    inconclusive (the bounded search ran out)."""

    status: str
    witness: Word | None
    norms: tuple[NormalForm, NormalForm]


def twisted_conjugate(
    phi: Endomap, x: Word, y: Word, radius: int = DEFAULT_RADIUS
) -> TwistedConjugacyVerdict:
    """Decide phi-conjugacy of x and y as far as the norm test and a
    radius-bounded witness search allow."""
    k = order_of(phi)
    nx = _norm(phi, x, k)
    ny = _norm(phi, y, k)
    if not conjugate(nx.word, ny.word):
        return TwistedConjugacyVerdict("not_equivalent", None, (nx, ny))
    g = twisted_witness_search(phi, x, y, radius)
    return TwistedConjugacyVerdict("inconclusive" if g is None else "equivalent", g, (nx, ny))


def outer_closure(n: int) -> tuple[Endomap, ...]:
    """Closure under composition of the outer representatives for n."""
    if n == 3:
        seed = [make_psi(3)]
    elif n == 4:
        seed = [make_psi(4), make_tau()]
    else:
        seed = [make_psi(n), make_kappa(n)]
    found = {_image_key(phi): phi for phi in seed}
    frontier = list(found.values())
    while frontier:
        nxt = []
        for phi in frontier:
            for chi in seed:
                for product in (compose(phi, chi), compose(chi, phi)):
                    key = _image_key(product)
                    if key not in found:
                        found[key] = product
                        nxt.append(product)
        frontier = nxt
    return tuple(found.values())


def rinfty_witness_family(n: int, phi: Endomap, count: int) -> list[Word]:
    """The first ``count`` members of the twisted-conjugacy witness family.

    On 3 strands the family is (s1 s2)^i s1 and only the index reversal is
    supported; on 4 strands (s1 s2)^i for the psi/tau closure; on 5 strands
    (s1 s2)^{2i} and beyond that (s1 s2)^i for the psi/kappa closure.
    Members are pairwise non phi-conjugate, their norms being non-conjugate.
    """
    if n < 3:
        raise ValueError("witness families need at least 3 strands")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if n == 3:
        if not endo_equal(phi, make_psi(3)):
            raise ValueError("on 3 strands only the index reversal is supported")
        base = Word(3, (1, 2))
        return [base**i * Word(3, (1,)) for i in range(1, count + 1)]
    if not any(endo_equal(phi, member) for member in outer_closure(n)):
        raise ValueError(f"map {phi.label!r} is not an outer representative for n={n}")
    base = Word(n, (1, 2))
    step = 2 if n == 5 else 1
    return [base ** (step * i) for i in range(1, count + 1)]


# Exponent-triple model of the order-27 extra-special group of exponent 3:
# elements a^x b^y c^z with central c and ba = ab c^-1.


def _h_mul(u, v):
    return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3, (u[2] + v[2] - v[0] * u[1]) % 3)


def _h_inv(u):
    return ((-u[0]) % 3, (-u[1]) % 3, (-u[2] - u[0] * u[1]) % 3)


def _h_phi(u):
    # a -> ac, b -> bc extends to an order-3 automorphism fixing the centre.
    return (u[0], u[1], (u[2] + u[0] + u[1]) % 3)


@dataclasses.dataclass(frozen=True)
class HeisenbergReport:
    """Outcome of the norm-converse counterexample over the order-27 group."""

    group_order: int
    automorphism_order: int
    norm_a_trivial: bool
    norm_b_trivial: bool
    conjugator_found: bool
    candidates_checked: int


def heisenberg_counterexample() -> HeisenbergReport:
    """Check that equal (trivial) norms do not force twisted conjugacy.

    Both distinguished generators have trivial norm under the twisting map,
    yet an exhaustive scan of all 27 elements finds no g with
    a = g b phi(g)^-1.
    """
    elements = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    a = (1, 0, 0)
    b = (0, 1, 0)

    def h_norm(u):
        acc = u
        cur = u
        for _ in range(2):
            cur = _h_phi(cur)
            acc = _h_mul(acc, cur)
        return acc

    is_cube_identity = all(_h_phi(_h_phi(_h_phi(e))) == e for e in elements)
    is_identity = all(_h_phi(e) == e for e in elements)
    ident = (0, 0, 0)
    found = any(_h_mul(_h_mul(g, b), _h_inv(_h_phi(g))) == a for g in elements)
    return HeisenbergReport(
        group_order=len(elements),
        automorphism_order=3 if is_cube_identity and not is_identity else 0,
        norm_a_trivial=h_norm(a) == ident,
        norm_b_trivial=h_norm(b) == ident,
        conjugator_found=found,
        candidates_checked=len(elements),
    )
