"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the timing lines.
All group computations are exact, so every comparison is equality; the
stated wall-clock budgets are asserted as upper bounds.
"""

import contextlib
import io
import itertools
import json
import pathlib
import random
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

import twinkit
from twinkit import cli
from twinkit.conjugacy import conjugate, is_cyclically_reduced
from twinkit.doodle import render_svg
from twinkit.endomorphisms import (
    injectivity_ball_test,
    make_psi_n,
    non_surjectivity_witness,
)
from twinkit.markov import (
    M3,
    M4,
    destabilize_m3,
    destabilize_m4,
    destabilize_oracle,
    stabilize_m3,
    stabilize_m4,
)
from twinkit.oracle import (
    conjugator_search,
    enumerate_ball,
    reduced_representatives,
)
from twinkit.twisted import (
    apply,
    compose,
    heisenberg_counterexample,
    make_kappa,
    make_psi,
    make_tau,
    norm,
    order_of,
    outer_closure,
)
from twinkit.words import (
    Word,
    certificate,
    commutes,
    equal,
    inverse,
    is_reduced,
    multiply,
    parity_vector,
    reduce,
)

from util import W, all_words


class _Clock:
    # A real-time timer fails the test once the budget runs out, so a hang
    # ends there instead of running on; done() disarms it, and so does the
    # fixture below when a test fails first.  pytest.fail raises a
    # BaseException, which no handler in the code under test catches.
    def __init__(self, criterion, budget):
        self.criterion = criterion
        self.budget = budget
        signal.signal(signal.SIGALRM, self._expire)
        signal.setitimer(signal.ITIMER_REAL, budget)
        self.start = time.perf_counter()

    def _expire(self, signum, frame):
        pytest.fail(f"{self.criterion}: over its budget of {self.budget}s")

    def done(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self.start
        print(f"PASS {self.criterion}: {elapsed:.1f}s (budget {self.budget}s)")
        assert elapsed < self.budget


@pytest.fixture(autouse=True)
def _disarm_clock():
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)


def test_criterion_01_word_problem_matches_bfs_oracle():
    clock = _Clock("criterion 1 word problem vs BFS oracle", 60)
    rng = random.Random(20260810)
    for n, samples in ((3, 50_000), (4, 50_000)):
        words = list(all_words(n, 6))
        reps = {w.letters: reduced_representatives(w) for w in words}
        short = [w for w in words if len(w.letters) <= 4]
        for u in short:
            for v in short:
                assert equal(u, v) == (not reps[u.letters].isdisjoint(reps[v.letters]))
        for _ in range(samples):
            u, v = rng.choice(words), rng.choice(words)
            assert equal(u, v) == (not reps[u.letters].isdisjoint(reps[v.letters]))
    clock.done()


def test_criterion_02_reduced_criterion_matches_length():
    clock = _Clock("criterion 2 reduced-word criterion vs reduction length", 60)
    for n in (2, 3, 4, 5):
        for w in all_words(n, 8):
            assert is_reduced(w) == (len(reduce(w)) == len(w))
    clock.done()


def test_criterion_03_conjugacy_matches_radius_six_search():
    clock = _Clock("criterion 3 conjugacy vs conjugator search", 120)
    pool = [w for w in all_words(4, 6) if is_cyclically_reduced(w)]
    ball = [nf.word for nf in enumerate_ball(4, 6).elements]
    canon = {w.letters: reduce(w).letters for w in pool}
    reachable = {}
    for v in pool:
        forms = set()
        for g in ball:
            forms.add(reduce(multiply(multiply(g, v), inverse(g))).letters)
        reachable[v.letters] = forms
    positives = 0
    for u in pool:
        for v in pool:
            decided = conjugate(u, v)
            assert decided == (canon[u.letters] in reachable[v.letters])
            positives += decided
    assert positives > len(pool)  # reflexive pairs alone guarantee this
    rng = random.Random(3)
    for _ in range(100):
        u, v = rng.choice(pool), rng.choice(pool)
        g = conjugator_search(u, v, 6)
        assert (g is not None) == conjugate(u, v)
        if g is not None:
            assert equal(multiply(multiply(g, v), inverse(g)), u)
    clock.done()


def test_criterion_04_destabilization_matches_oracle_and_round_trips():
    clock = _Clock("criterion 4 destabilization case analysis vs oracle", 120)
    for n in (4, 5):
        for w in all_words(n, 7):
            if not is_reduced(w):
                continue
            for kind, destab in ((M3, destabilize_m3), (M4, destabilize_m4)):
                mine = destab(w)
                ref = destabilize_oracle(w, kind)
                assert mine.found == ref.found
                if mine.found:
                    assert mine.index == ref.index
                    assert equal(mine.beta, ref.beta)
    for n in (3, 4):
        for beta in all_words(n, 6):
            for i in range(1, n + 1):
                for stab, destab in (
                    (stabilize_m3, destabilize_m3),
                    (stabilize_m4, destabilize_m4),
                ):
                    word = stab(beta, i)
                    res = destab(word)
                    assert res.found
                    assert equal(stab(res.beta, res.index), word)
    clock.done()


def test_criterion_05_known_doodle_pair_destabilizes():
    clock = _Clock("criterion 5 hexagon closure destabilization golden", 1)
    res = destabilize_m4(Word(4, (2, 3) * 3 + (1, 2, 1)))
    assert res.found
    assert res.index == 2
    assert equal(res.beta, Word(3, (1, 2) * 3))
    clock.done()


def test_criterion_06_norm_closed_forms_to_depth_ten():
    clock = _Clock("criterion 6 closed-form norms", 10)
    psi3, tau, kappa5, psi6 = make_psi(3), make_tau(), make_kappa(5), make_psi(6)
    psi_kappa2 = compose(make_psi(5), compose(kappa5, kappa5))
    for i in range(1, 11):
        x3 = Word(3, (1, 2) * i + (1,))
        assert norm(psi3, x3).letters == (1, 2) * (2 * i + 1)
        x4 = Word(4, (1, 2) * i)
        rhs4 = reduce(x4 * W(4, "s1 s3 s2") ** i * W(4, "s3 s2") ** i)
        assert norm(tau, x4).letters == rhs4.letters
        x5 = Word(5, (1, 2) * 2 * i)
        block = W(5, "s4 s3") ** (2 * i)
        assert norm(kappa5, x5).letters == reduce(x5 * block * x5 * block).letters
        assert norm(psi_kappa2, x5).letters == reduce(x5 * block).letters
        x6 = Word(6, (1, 2) * i)
        assert norm(psi6, x6).letters == reduce(x6 * W(6, "s5 s4") ** i).letters
    clock.done()


def test_criterion_07_norm_values_pairwise_non_conjugate():
    clock = _Clock("criterion 7 pairwise non-conjugacy of norm values", 60)
    psi3, tau, kappa5, psi6 = make_psi(3), make_tau(), make_kappa(5), make_psi(6)
    psi_kappa2 = compose(make_psi(5), compose(kappa5, kappa5))
    cases = [
        (psi3, [Word(3, (1, 2) * i + (1,)) for i in range(1, 11)]),
        (tau, [Word(4, (1, 2) * i) for i in range(1, 11)]),
        (kappa5, [Word(5, (1, 2) * 2 * i) for i in range(1, 11)]),
        (psi_kappa2, [Word(5, (1, 2) * 2 * i) for i in range(1, 11)]),
        (psi6, [Word(6, (1, 2) * i) for i in range(1, 11)]),
    ]
    for phi, family in cases:
        values = [norm(phi, x).word for x in family]
        for a, b in itertools.combinations(values, 2):
            assert not conjugate(a, b)
    clock.done()


def test_criterion_08_automorphism_group_structure():
    clock = _Clock("criterion 8 outer automorphism structure", 10)
    assert len(outer_closure(4)) == 6
    for n in (5, 6, 7):
        assert len(outer_closure(n)) == 8
    assert order_of(make_psi(5)) == 2
    assert order_of(make_tau()) == 3
    assert order_of(make_kappa(5)) == 4
    clock.done()


def test_criterion_09_norm_converse_counterexample():
    clock = _Clock("criterion 9 order-27 counterexample", 1)
    report = heisenberg_counterexample()
    assert report.norm_a_trivial
    assert report.norm_b_trivial
    assert not report.conjugator_found
    assert report.candidates_checked == 27
    clock.done()


def test_criterion_10_cohopf_evidence():
    clock = _Clock("criterion 10 doubling endomorphism evidence", 120)
    for n, radius in ((3, 8), (4, 7), (5, 6)):
        report = injectivity_ball_test(make_psi_n(n), radius)
        assert report.kernel_trivial, report
    m3 = make_psi_n(3)
    for m in range(11):
        base = Word(3, (1, 2) * m)
        assert apply(m3, base).letters == (1, 2) * (2 * m)
        assert apply(m3, base * Word(3, (1,))).letters == (1, 2) * (2 * m) + (1,)
    for n in (3, 4, 5):
        report = non_surjectivity_witness(make_psi_n(n))
        assert report.generator_images_even
        assert report.target_bit_odd
        assert report.target_outside_image
    m4 = make_psi_n(4)
    for nf in enumerate_ball(4, 5).elements:
        assert parity_vector(apply(m4, nf.word).word)[1] == 0
    clock.done()


def test_criterion_11_three_strand_ball_law():
    clock = _Clock("criterion 11 two-generator ball sizes", 1)
    for radius in range(11):
        assert len(enumerate_ball(3, radius)) == 2 * radius + 1
    clock.done()


def test_criterion_12_rendering_determinism():
    clock = _Clock("criterion 12 byte-identical rendering", 5)
    corpus = [
        Word(3, (1, 2) * 3),
        Word(4, (2, 3) * 3 + (1, 2, 1)),
        Word(2, (1,)),
        Word(3, ()),
        Word(3, (1,)),
        Word(3, (2, 1)),
        Word(4, (1, 3)),
        Word(4, (2, 1, 3, 2)),
        Word(4, (3, 2, 3)),
        Word(5, (1, 4, 2, 3)),
        Word(5, (4, 3, 2, 1)),
        Word(5, (2, 4) * 2),
        Word(6, (1, 2) * 3 + (4, 5) * 4),
        Word(6, (5,)),
        Word(6, (1, 3, 5)),
        Word(2, ()),
        Word(3, (1, 2, 1)),
        Word(4, (1, 2, 3, 2, 3)),
        Word(5, (1, 2) * 4),
        Word(6, (2, 3, 4, 5, 4)),
    ]
    assert len(corpus) == 20
    for w in corpus:
        for mode in ("diagram", "closure"):
            first = render_svg(w, mode).encode()
            second = render_svg(w, mode).encode()
            assert first == second
    clock.done()


def test_long_words_do_not_hang():
    # the normal form costs O(L log L) and the heap peel O(L), so 10^5
    # letters reduce and 2 * 10^4 letters cyclically reduce in well under a
    # second; a quadratic scan would take about a minute
    rng = random.Random(20261018)
    for cmd, n, length in (("reduce", 64, 10**5), ("cyclic-reduce", 16, 2 * 10**4)):
        clock = _Clock(f"{cmd} of {length} letters on {n} strands", 10)
        text = " ".join(f"s{rng.randrange(1, n)}" for _ in range(length))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--output", "json", cmd, "--n", str(n), text])
        clock.done()
        assert code == 0
        rep = Word.parse(n, json.loads(out.getvalue())["normal_form"])
        assert 0 < len(rep) < length
        assert is_reduced(rep)
        if cmd == "cyclic-reduce":
            assert is_cyclically_reduced(rep)


def test_cyclic_reduction_of_long_conjugates_does_not_hang():
    # w = g s5 g^-1 with |g| = 4000 peels down to s5 in one pass over the
    # heap; the rotate-and-renormalise loop it replaced renormalised the
    # whole word once per round and ran past 10 s (cyclic-reduce) and 15 s
    # (conjugate --witness) on this input on a 2-vCPU VM
    rng = random.Random(20261021)
    n = 16
    g = [8]  # a walk of steps +-1 spells a reduced word
    while len(g) < 4000:
        g.append(g[-1] + rng.choice([x for x in (-1, 1) if 0 < g[-1] + x < n]))
    w = Word(n, tuple(g + [5] + g[::-1]))
    s5 = W(n, "s5")
    for cmd in (["cyclic-reduce", "--n", str(n), str(w)], ["conjugate", "--n", str(n), "s5", str(w), "--witness"]):
        clock = _Clock(f"{cmd[0]} of {len(w)} letters on {n} strands", 10)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--output", "json"] + cmd)
        clock.done()
        assert code == 0
        payload = json.loads(out.getvalue())
        c = Word.parse(n, payload["witness"])
        if cmd[0] == "cyclic-reduce":
            assert payload["normal_form"] == "s5"
            assert equal(multiply(multiply(c, s5), inverse(c)), w)
        else:
            assert payload["verdict"] is True
            assert equal(multiply(multiply(c, w), inverse(c)), s5)


def test_long_certificate_shares_its_flips():
    # 791,326 moves here, nearly all flips; each flip is one shared Move per
    # position, so the chain holds references, not objects.  Building every
    # flip as its own Move peaked at 122 MB under tracemalloc and took 6.4 s
    # on a 2-vCPU VM
    rng = random.Random(20261022)
    n = 64
    u = [rng.randrange(1, n) for _ in range(4000)]
    v = list(u)
    for _ in range(400):
        x = rng.randrange(1, n)
        p = rng.randrange(len(v) + 1)
        v[p:p] = [x, x]
    for _ in range(4000):
        p = rng.randrange(len(v) - 1)
        if commutes(v[p], v[p + 1]):
            v[p], v[p + 1] = v[p + 1], v[p]
    u, v = Word(n, tuple(u)), Word(n, tuple(v))
    clock = _Clock(f"certificate of {len(u)} and {len(v)} letters on {n} strands", 10)
    tracemalloc.start()
    try:
        cert = certificate(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    clock.done()
    assert peak < 40 * 2**20
    assert cert.apply_to(u).letters == v.letters


def test_conjugacy_decision_does_not_hang():
    # the decision is linear in the word length; the rotation+flip orbit
    # it replaced is factorial in the number of commuting letters, and took
    # minutes on the first pair
    rng = random.Random(20261019)
    commuting = [f"s{i}" for i in range(1, 61, 2)]
    shuffled = rng.sample(commuting, len(commuting))
    alternating = [f"s{i}" for i in range(1, 39, 2)] + [f"s{i}" for i in range(2, 39, 2)]
    long_word = [f"s{rng.randrange(1, 64)}" for _ in range(4000)]
    cases = (
        (
            9,
            "s1 s3 s5 s7 s2 s4 s6 s8 s3 s5 s7 s2 s4 s6",
            "s3 s4 s7 s2 s3 s5 s6 s4 s7 s1 s8 s2 s6 s5",
            False,
        ),
        (61, " ".join(commuting), " ".join(["s2", "s7"] + shuffled + ["s7", "s2"]), True),
        (40, " ".join(alternating), " ".join(alternating[11:] + alternating[:11]), True),
        (64, " ".join(long_word), " ".join(long_word[1234:] + long_word[:1234]), True),
    )
    for n, u, v, expected in cases:
        clock = _Clock(f"conjugate of {len(u.split())} letters on {n} strands", 10)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--output", "json", "conjugate", "--n", str(n), u, v])
        clock.done()
        assert code == 0
        assert json.loads(out.getvalue())["verdict"] is expected


def test_destabilization_does_not_hang():
    # one pass over the heap of the normal form (2241 letters here); the
    # case analysis it replaced ejected letters to a fixpoint and took
    # 17-22 s per move on a 2-vCPU VM
    rng = random.Random(20261020)
    n = 21
    m3_word = list(range(20, 0, -1)) + [rng.randrange(1, 19) for _ in range(6400)] + [20]
    for move, kind, letters in (("m3", M3, m3_word), ("m4", M4, [n - x for x in m3_word])):
        w = Word(n, tuple(letters))
        clock = _Clock(f"destab --move {move} of {len(w)} letters on {n} strands", 10)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--output", "json", "destab", "--n", str(n), "--move", move, str(w)])
        clock.done()
        assert code == 0
        assert json.loads(out.getvalue())["verdict"] is destabilize_oracle(w, kind).found


def test_endo_parity_does_not_build_the_map():
    # parity reads the word alone; building the doubling map validates
    # O(n^2) commuting pairs and took about 11 s at n = 3000 on a 2-vCPU VM
    n = 100_000
    clock = _Clock(f"endo parity on {n} strands", 10)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--output", "json", "endo", "--n", str(n), "parity", "s2 s1 s2"])
    clock.done()
    assert code == 0
    assert json.loads(out.getvalue())["details"]["parity"] == [1] + [0] * (n - 2)


def test_ball_counts_only_at_two_hundred_strands():
    # the growth series gives the layer sizes without listing 9.6 * 10^10
    # elements; enumerating the ball raised MemoryError after 12 s at radius 4
    clock = _Clock("ball --counts-only on 200 strands at radius 6", 2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--output", "json", "ball", "--n", "200", "--radius", "6", "--counts-only"])
    clock.done()
    assert code == 0
    details = json.loads(out.getvalue())["details"]
    counts = [1, 199, 19899, 1333298, 67351346, 2736330981, 93147936089]
    assert details == {"layer_counts": counts, "size": sum(counts)}


def _commuting_pair(k):
    # s1 s3 ... s(2k-1) and its reversal: equal cyclic representatives
    odd = [f"s{i}" for i in range(1, 2 * k, 2)]
    return " ".join(odd), " ".join(reversed(odd))


_HUGE = str(10**18)
# Inputs that hung or crashed: the wall-clock budget each must now meet, the
# exit code, and the JSON keys it answers with (None: one error line).
_HANG_AND_CRASH_ROWS = [
    # the orbit walk runs out of moves (75.7 s unbudgeted, on a 2-vCPU VM)
    (
        ["conjugate", "--n", "13", "s1 s3 s5 s7 s9 s11 s2 s4 s6 s8 s10 s12",
         "s2 s4 s6 s8 s10 s12 s1 s3 s5 s7 s9 s11", "--witness"],
        10, 2,
        {"verdict": "inconclusive", "witness": None, "details": {"conjugate": True, "move_budget": 200_000}},
    ),
    # the walk starts at its target; walking the whole orbit first ran past
    # 60 s at k = 10 on a 2-vCPU VM
    (["conjugate", "--n", "21", *_commuting_pair(10), "--witness"], 2, 0, {"verdict": True, "witness": "e"}),
    (["conjugate", "--n", "61", *_commuting_pair(30), "--witness"], 2, 0, {"verdict": True, "witness": "e"}),
    # outputs of 10^18 entries are refused before they are built; a short
    # chain at a huge --n still answers
    (["permutation", "--n", _HUGE, "s1"], 2, 1, None),
    (["stab", "--n", _HUGE, "--move", "m3", "--i", "1", "s1"], 2, 1, None),
    (["stab", "--n", _HUGE, "--move", "m3", "--i", _HUGE, "s1"], 2, 0, {"verdict": "ok"}),
]


@pytest.mark.parametrize("argv, budget, code, expected", _HANG_AND_CRASH_ROWS)
def test_hang_and_crash_inputs_end_within_budget(argv, budget, code, expected):
    clock = _Clock(" ".join(argv)[:60], budget)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli.main(["--output", "json", *argv])
    clock.done()
    assert got == code
    if expected is None:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        payload = json.loads(out.getvalue())
        assert {key: payload[key] for key in expected} == expected


def _fresh_interpreter(code):
    # the tests import every module, so a cold start needs its own process
    src = str(pathlib.Path(twinkit.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout.split()


def test_cold_start_loads_only_what_the_parser_needs():
    loaded = _fresh_interpreter(
        "import twinkit.cli\n"
        "twinkit.cli.build_parser()\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'twinkit'))"
    )
    assert loaded == ["twinkit", "twinkit.cli", "twinkit.oracle", "twinkit.words"]


def test_package_namespace_is_lazy():
    out = _fresh_interpreter(
        "import twinkit\n"
        "print([m for m in sys.modules if m.startswith('twinkit.')])\n"
        "print(twinkit.conjugacy.conjugate.__module__)\n"
        "from twinkit import *\n"
        "print(all(globals()[name] is getattr(twinkit, name) for name in twinkit.__all__))\n"
        "try:\n"
        "    twinkit.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')"
    )
    assert out == ["[]", "twinkit.conjugacy", "True", "AttributeError"]


def test_public_names_resolve():
    missing = [name for name in twinkit.__all__ if not hasattr(twinkit, name)]
    assert missing == []
