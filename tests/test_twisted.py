"""Automorphisms, norms, twisted conjugacy and the witness families."""

import itertools
import random

import pytest

from twinkit.oracle import twisted_witness_search
from twinkit.twisted import (
    ORDER_CAP,
    Endomap,
    apply,
    compose,
    endo_equal,
    heisenberg_counterexample,
    identity_endomap,
    make_inner,
    make_kappa,
    make_psi,
    make_tau,
    norm,
    order_of,
    outer_closure,
    rinfty_witness_family,
    twisted_conjugate,
)
from twinkit.conjugacy import conjugate
from twinkit.words import Word, equal, inverse, multiply, reduce

from util import W


def test_map_constructions():
    psi3 = make_psi(3)
    assert [img.letters for img in psi3.images] == [(2,), (1,)]
    tau = make_tau()
    assert tau.images[0].letters == (1, 3)
    assert tau.images[2].letters == (1,)
    kappa = make_kappa(5)
    assert kappa.images[2].letters == (2, 4)
    assert make_inner(W(3, "e")).images == identity_endomap(3).images
    with pytest.raises(ValueError):
        make_kappa(4)
    with pytest.raises(ValueError):
        make_psi(2)


def test_endomap_validation_rejects_bad_images():
    # s1 -> s1 s2 squares to a nontrivial element
    with pytest.raises(ValueError):
        Endomap(3, (Word(3, (1, 2)), Word(3, (2,))), "broken")
    # images of far-apart generators must commute
    with pytest.raises(ValueError):
        Endomap(4, (Word(4, (1,)), Word(4, (2,)), Word(4, (2, 3, 2))), "broken")


def test_apply_examples():
    assert apply(make_psi(3), W(3, "s1 s2 s1")).letters == (2, 1, 2)
    assert apply(make_kappa(5), W(5, "s3")).letters == (2, 4)
    assert apply(make_tau(), W(4, "s1 s2")).letters == (1, 3, 2)
    with pytest.raises(ValueError):
        apply(make_psi(3), W(4, "s1"))


def test_orders():
    for n in range(3, 9):
        assert order_of(make_psi(n)) == 2
    assert order_of(make_tau()) == 3
    assert order_of(make_kappa(5)) == 4
    assert order_of(identity_endomap(4)) == 1


def test_order_cap_signals_infinite_order():
    with pytest.raises(ValueError):
        order_of(make_inner(W(3, "s1 s2")))


def _order_by_composition(phi):
    # the definition: compose whole maps until the identity map comes back
    ident = identity_endomap(phi.n)
    cur = phi
    for k in range(1, ORDER_CAP + 1):
        if endo_equal(cur, ident):
            return k
        cur = compose(cur, phi)
    raise ValueError("order exceeds cap")


def test_order_of_matches_composition_definition():
    checked = 0
    for n in range(3, 8):
        maps = list(outer_closure(n)) + [identity_endomap(n)]
        for letters in itertools.product(range(1, n), repeat=2):
            inner = make_inner(Word(n, letters))
            maps += [inner, compose(inner, make_psi(n))]
        for phi in maps:
            try:
                expected = _order_by_composition(phi)
            except ValueError:
                with pytest.raises(ValueError):
                    order_of(phi)
            else:
                assert order_of(phi) == expected, phi.label
            checked += 1
    assert checked == 217


def test_inner_maps_have_finite_order_when_conjugator_is_involution():
    assert order_of(make_inner(W(3, "s1"))) == 2


def test_norm_examples():
    assert norm(make_psi(3), W(3, "s1 s2 s1")).letters == (1, 2) * 3
    assert norm(identity_endomap(3), W(3, "s2 s1")).letters == (2, 1)
    expected = reduce(W(4, "s1 s2 s1 s3 s2 s3 s2"))
    assert norm(make_tau(), W(4, "s1 s2")).letters == expected.letters


def test_norm_closed_forms_small():
    # the acceptance suite runs these to depth 10
    psi3, tau, kappa = make_psi(3), make_tau(), make_kappa(5)
    psi_kappa2 = compose(make_psi(5), compose(kappa, kappa))
    base3, base4, base5 = Word(3, (1, 2)), Word(4, (1, 2)), Word(5, (1, 2))
    for i in (1, 2, 3):
        assert norm(psi3, base3**i * Word(3, (1,))).letters == ((1, 2) * (2 * i + 1))
        lhs = norm(tau, base4**i)
        rhs = reduce(base4**i * W(4, "s1 s3 s2") ** i * W(4, "s3 s2") ** i)
        assert lhs.letters == rhs.letters
        x = base5 ** (2 * i)
        block = W(5, "s4 s3") ** (2 * i)
        assert norm(kappa, x).letters == reduce(x * block * x * block).letters
        assert norm(psi_kappa2, x).letters == reduce(x * block).letters


def test_norms_of_remaining_five_strand_maps():
    # mechanical goldens: the other order-2 members collapse onto powers of
    # the seed pair, and stay pairwise non-conjugate across depths
    psi, kappa = make_psi(5), make_kappa(5)
    kappa2 = compose(kappa, kappa)
    psi_kappa = compose(psi, kappa)
    psi_kappa3 = compose(psi, compose(kappa, kappa2))
    base = Word(5, (1, 2))
    for i in (1, 2):
        x = base ** (2 * i)
        assert norm(psi, x).letters == reduce(x * W(5, "s4 s3") ** (2 * i)).letters
        for phi in (kappa2, psi_kappa, psi_kappa3):
            assert norm(phi, x).letters == (1, 2) * (4 * i)
    for phi in (psi, kappa2, psi_kappa, psi_kappa3):
        values = [norm(phi, base ** (2 * i)).word for i in (1, 2, 3)]
        for a, b in itertools.combinations(values, 2):
            assert not conjugate(a, b)


def test_outer_closure_sizes():
    assert len(outer_closure(3)) == 2
    assert len(outer_closure(4)) == 6
    assert len(outer_closure(5)) == 8
    assert len(outer_closure(6)) == 8


def test_outer_closure_relations():
    # dihedral of order 8: psi inverts kappa; symmetric of order 6 below
    for n in (5, 6):
        psi, kappa = make_psi(n), make_kappa(n)
        k3 = compose(kappa, compose(kappa, kappa))
        assert endo_equal(compose(psi, compose(kappa, psi)), k3)
    psi4, tau = make_psi(4), make_tau()
    assert endo_equal(compose(psi4, compose(tau, psi4)), compose(tau, tau))
    assert order_of(compose(psi4, tau)) == 2


def test_shared_boundary_subgroup_is_respected():
    # psi and kappa act identically on the four boundary generators
    for n in (6, 7):
        psi, kappa = make_psi(n), make_kappa(n)
        boundary = (1, 2, n - 2, n - 1)
        for i in boundary:
            a = apply(psi, Word(n, (i,)))
            b = apply(kappa, Word(n, (i,)))
            assert a.letters == b.letters
            assert set(a.letters) <= set(boundary)


def test_twisted_conjugate_norm_obstruction():
    psi3 = make_psi(3)
    verdict = twisted_conjugate(psi3, W(3, "s1 s2 s1"), W(3, "s1 s2") ** 2 * W(3, "s1"))
    assert verdict.status == "not_equivalent"
    assert verdict.norms[0].letters == (1, 2) * 3
    assert verdict.norms[1].letters == (1, 2) * 5


def test_twisted_conjugate_ordinary_case():
    verdict = twisted_conjugate(identity_endomap(3), W(3, "s1"), W(3, "s2 s1 s2"))
    assert verdict.status == "equivalent"
    assert verdict.witness.letters == (2,)


def test_twisted_conjugate_found_witness_golden():
    verdict = twisted_conjugate(make_psi(3), W(3, "s1"), W(3, "s2"), radius=4)
    assert verdict.status == "equivalent"
    assert verdict.witness.letters == (1,)


def test_twisted_conjugate_inconclusive_at_radius_zero():
    verdict = twisted_conjugate(make_psi(3), W(3, "s1"), W(3, "s2"), radius=0)
    assert verdict.status == "inconclusive"


def test_twisted_witness_matches_oracle_search():
    psi3 = make_psi(3)
    x, y = W(3, "s1"), W(3, "s2")
    verdict = twisted_conjugate(psi3, x, y, radius=4)
    assert verdict.witness.letters == twisted_witness_search(psi3, x, y, 4).letters


def test_witness_satisfies_defining_equation():
    rng = random.Random(59)
    psi4 = make_psi(4)
    for _ in range(40):
        x = Word(4, tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4))))
        g = Word(4, tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))))
        y = reduce(multiply(multiply(inverse(g), x), apply(psi4, g).word)).word
        verdict = twisted_conjugate(psi4, x, y, radius=4)
        if verdict.status != "equivalent":
            continue
        w = verdict.witness
        assert equal(multiply(multiply(w, y), inverse(apply(psi4, w).word)), x)


def test_norm_covariance_of_witnesses():
    # a twisted-conjugacy witness conjugates the norms, telescoping the
    # defining equation through the powers of the map
    psi3 = make_psi(3)
    pairs = [(W(3, "s1"), W(3, "s2")), (W(3, "s1 s2 s1"), W(3, "s1 s2 s1"))]
    for x, y in pairs:
        verdict = twisted_conjugate(psi3, x, y, radius=4)
        assert verdict.status == "equivalent"
        g = verdict.witness
        lhs = verdict.norms[0].word
        rhs = multiply(multiply(g, verdict.norms[1].word), inverse(g))
        assert equal(lhs, rhs)


def test_inner_twist_transports_witnesses():
    # composing with an inner map shifts twisted classes by right translation:
    # x = h y (inn(g) o phi)(h)^-1 iff x g = h (y g) phi(h)^-1
    psi3 = make_psi(3)
    g = W(3, "s1 s2")
    shifted = compose(make_inner(g), psi3)
    assert order_of(shifted) == 2
    rng = random.Random(61)
    for _ in range(30):
        x = Word(3, tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4))))
        y = Word(3, tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4))))
        verdict = twisted_conjugate(shifted, x, y, radius=5)
        if verdict.status != "equivalent":
            continue
        h = verdict.witness
        lhs = multiply(x, g)
        rhs = multiply(multiply(h, multiply(y, g)), inverse(apply(psi3, h).word))
        assert equal(lhs, rhs)


def test_rinfty_families():
    base3 = Word(3, (1, 2))
    family = rinfty_witness_family(3, make_psi(3), 3)
    assert [w.letters for w in family] == [
        (base3**i * Word(3, (1,))).letters for i in (1, 2, 3)
    ]
    family = rinfty_witness_family(5, make_kappa(5), 2)
    assert [w.letters for w in family] == [(1, 2) * 2, (1, 2) * 4]
    family = rinfty_witness_family(6, make_psi(6), 2)
    assert [w.letters for w in family] == [(1, 2), (1, 2) * 2]
    family = rinfty_witness_family(4, make_tau(), 2)
    assert [w.letters for w in family] == [(1, 2), (1, 2) * 2]


def test_rinfty_family_members_pairwise_distinct():
    cases = [
        (3, make_psi(3)),
        (4, make_tau()),
        (4, make_psi(4)),
        (5, make_kappa(5)),
        (6, make_psi(6)),
    ]
    for n, phi in cases:
        family = rinfty_witness_family(n, phi, 3)
        for x, y in itertools.combinations(family, 2):
            assert twisted_conjugate(phi, x, y, radius=0).status == "not_equivalent"


def test_rinfty_rejects_unsupported_combinations():
    with pytest.raises(ValueError):
        rinfty_witness_family(3, identity_endomap(3), 2)
    with pytest.raises(ValueError):
        rinfty_witness_family(5, make_inner(W(5, "s1")), 2)
    with pytest.raises(ValueError):
        rinfty_witness_family(2, identity_endomap(2), 1)


def test_heisenberg_counterexample_report():
    report = heisenberg_counterexample()
    assert report.group_order == 27
    assert report.automorphism_order == 3
    assert report.norm_a_trivial and report.norm_b_trivial
    assert not report.conjugator_found
    assert report.candidates_checked == 27


def test_compose_and_identity():
    psi4 = make_psi(4)
    assert endo_equal(compose(psi4, psi4), identity_endomap(4))
    tau = make_tau()
    assert endo_equal(compose(tau, compose(tau, tau)), identity_endomap(4))
    assert not endo_equal(psi4, tau)
