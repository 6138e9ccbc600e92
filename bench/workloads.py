"""The four benchmark workloads, generated round by round from a seed.

Every operation is one call into a public twinkit function on inputs built
here, with the expected answer known from how the input was built or from
``reference``.  A round has a fixed composition of operation kinds and
sizes, shuffled by the seed, so every seed sees the same mix and only the
random content differs.  Each workload is chosen so that one layer does
most of its work:

- ``words-long``: reduction, equality, reducedness and support on long
  words (n = 16, 64; L in the thousands), certificates at L = 100-400 and
  cyclic reduction at L = 500-750.  A faster ``words`` core moves it most.
- ``conjugacy-markov``: the conjugacy orbit search on short random pairs
  and on the commuting-letter families, plus the Markov / doodle pipeline.
  Words are short, so ``words`` is a small share.
- ``ball-search``: ball enumeration, conjugator search, twisted conjugacy,
  norms, orders, outer closures and injectivity tests.  It makes thousands
  of ``normal_letters`` calls on words of length <= 10, so a ``words``
  change that helps long words but costs per call shows here.
- ``cli-mix``: in-process ``cli.main`` over every subcommand at desk scale,
  where argument parsing and dispatch dominate.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
from typing import Callable

import reference as R

WORKLOADS = ("words-long", "conjugacy-markov", "ball-search", "cli-mix")

# Renders whose bytes are pinned to the output of the initial import of the
# library: (n, letters, mode, sha256 of the SVG).
PINNED_SVGS = (
    (2, (1,), "diagram", "2565374ea94a970f4b3fbd7c221aaeb3519d8b163200148a90a04fbbec9b8bfe"),
    (3, (), "closure", "c798d94f30b8a1f67e684f41d660a07c11bcf4f3a044298801b5bae01668abd5"),
    (3, (1, 2) * 3, "closure", "003e35aeebbc4897222f98dd22c451890501cc59dd2f29eaea6840c3199040a3"),
    (4, (2, 3) * 3 + (1, 2, 1), "closure", "13ef2547588022e7cf77a4da55117961c5bcfa3b06e811a10b6b3afe723436ce"),
    (
        6,
        (1, 3, 5, 2, 4, 1, 3, 5, 2, 4, 3, 3, 1, 5),
        "closure",
        "040f54173b7afdf97482c15448d91ee6746b24f4d2342ff526119aedb8acfe23",
    ),
    (5, (4, 3, 2, 1, 2, 3, 4), "diagram", "e9e9d563bd77d88e6af0ff3b99195cc648d7a4a8959e589b216a7357f30f5229"),
)

# Default drawing constants of the renderer, fixed so that identical input
# renders identical bytes.
SVG_MARGIN = 20
SVG_STRAND_SPACING = 40


@dataclasses.dataclass
class Op:
    """One timed call ``<module>.<function>(*args)`` and its answer check."""

    fn: str
    args: tuple
    check: Callable[[object], bool]
    size: int
    # cli.main only: stdout and stderr are captured and the result is
    # (exit code, stdout, stderr).
    capture: bool = False


@dataclasses.dataclass
class Context:
    """What the generators need: the Word class, the automorphisms built
    once by the library's constructors, sizes and the output directory."""

    Word: type
    maps: dict
    smoke: bool
    out_dir: str

    def length(self, full: int) -> int:
        return max(6, full // 40) if self.smoke else full


ball_layers = functools.cache(R.ball_layers)


def letters(rng, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1, n) for _ in range(length))


def equal_variant(rng, w, n: int, squares: int, flips: int) -> tuple[int, ...]:
    """Same element: insert squares s_j s_j, then flip commuting neighbours."""
    out = list(w)
    for _ in range(squares):
        x = rng.randrange(1, n)
        p = rng.randrange(len(out) + 1)
        out[p:p] = [x, x]
    for _ in range(flips if len(out) > 1 else 0):
        p = rng.randrange(len(out) - 1)
        if R.commutes(out[p], out[p + 1]):
            out[p], out[p + 1] = out[p + 1], out[p]
    return tuple(out)


def odd_variant(rng, w, n: int) -> tuple[int, ...]:
    """One extra letter flips a parity bit, a conjugacy invariant, so the
    result is neither equal nor conjugate to ``w``."""
    p = rng.randrange(len(w) + 1)
    return w[:p] + (rng.randrange(1, n),) + w[p:]


def fmt(w) -> str:
    return " ".join(f"s{x}" for x in w) if w else "e"


def commuting(offset: int, k: int) -> tuple[int, ...]:
    """s_o s_{o+2} ... : k mutually commuting letters."""
    return tuple(range(offset, offset + 2 * k, 2))


def alternating(offset: int) -> tuple[int, ...]:
    """(s1 s3 s5 s7 s2 s4 s6 s8) shifted up by offset - 1."""
    return tuple(offset + d for d in (0, 2, 4, 6, 1, 3, 5, 7))


def svg_ok(svg: str, w, n: int, mode: str) -> bool:
    """Pinned bytes for pinned inputs; otherwise one polyline per strand
    (plus one return arc per strand in closure mode), each with one point
    per time slot and ending in the column the strand permutation gives."""
    for pn, pw, pmode, digest in PINNED_SVGS:
        if (pn, pw, pmode) == (n, tuple(w), mode):
            return hashlib.sha256(svg.encode()).hexdigest() == digest
    strands = re.findall(r'class="strand" points="([^"]*)"', svg)
    arcs = svg.count('class="closure-arc"')
    if len(strands) != n or arcs != (n if mode == "closure" else 0):
        return False
    images = R.permutation(w, n)
    for k, points in enumerate(strands, start=1):
        points = points.split()
        end_col = images.index(k) + 1
        if len(points) != max(len(w), 1) + 1:
            return False
        if int(points[-1].split(",")[0]) != SVG_MARGIN + (end_col - 1) * SVG_STRAND_SPACING:
            return False
    return True


# ---------------------------------------------------------------- words-long


def _reduce(ctx, rng, n, length):
    w = letters(rng, n, length)
    expected = R.normal_form(w)
    return Op("words.reduce", (ctx.Word(n, w),), lambda nf: nf.letters == expected, length)


def _equal(ctx, rng, n, length, positive):
    u = letters(rng, n, length)
    v = equal_variant(rng, u, n, length // 20, length // 2)
    if not positive:
        v = odd_variant(rng, v, n)
    return Op("words.equal", (ctx.Word(n, u), ctx.Word(n, v)), lambda r: r is positive, length)


def _is_reduced(ctx, rng, n, length, positive):
    w = tuple(R.reduce_letters(letters(rng, n, length)))
    if not positive:
        w = w + w[-1:]  # a square at the very end: the scan must reach it
    return Op("words.is_reduced", (ctx.Word(n, w),), lambda r: r is positive, len(w))


def _support(ctx, rng, n, length):
    w = letters(rng, n, length)
    expected = frozenset(R.reduce_letters(w))
    return Op("words.support", (ctx.Word(n, w),), lambda s: s == expected, length)


def _certificate(ctx, rng, n, length):
    u = letters(rng, n, length)
    v = equal_variant(rng, u, n, length // 10, length)

    def check(cert):
        return R.replay(u, [(m.kind, m.pos, m.letter) for m in cert.moves]) == v

    return Op("words.certificate", (ctx.Word(n, u), ctx.Word(n, v)), check, length)


def _cyclic_reduce(ctx, rng, n, length):
    w = letters(rng, n, length)

    def check(cr):
        rep = cr.representative.letters
        return R.is_cyclically_reduced(rep) and R.conjugates_to(cr.conjugator.letters, rep, w)

    return Op("conjugacy.cyclic_reduce", (ctx.Word(n, w),), check, length)


def words_long(ctx, rng, rnd):
    L = ctx.length
    # Eight reductions at L = 2000 sit in the middle of the latency order,
    # so the median latency is theirs rather than a jump between classes.
    # The O(L^3) certificate at L = 400 is the slowest operation, once in a
    # round of about a second, so the latency tail is a low quantile of it.
    ops = [
        _reduce(ctx, rng, n, L(length))
        for n in (16, 64)
        for length in (1000, 2000, 2000, 2000, 2000, 4000)
    ]
    for n in (16, 64):
        ops += [_equal(ctx, rng, n, L(2000), positive) for positive in (True, False)]
    for n, length in ((16, 2000), (64, 4000)):
        ops += [_is_reduced(ctx, rng, n, L(length), positive) for positive in (True, False)]
        ops.append(_support(ctx, rng, n, L(length)))
    ops += [_certificate(ctx, rng, 16, L(length)) for length in (100, 200, 400)]
    ops += [_cyclic_reduce(ctx, rng, 16, L(length)) for length in (500, 750)]
    return ops


# ---------------------------------------------------------- conjugacy-markov


def _conjugate(ctx, n, u, v, positive):
    return Op("conjugacy.conjugate", (ctx.Word(n, u), ctx.Word(n, v)), lambda r: r is positive, len(u) + len(v))


def _witness(ctx, n, u, v):
    def check(g):
        return R.conjugates_to(g.letters, v, u)

    return Op("conjugacy.conjugating_witness", (ctx.Word(n, u), ctx.Word(n, v)), check, len(u) + len(v))


def _stabilized(rng, n):
    """beta on n strands, index i, and both stabilizations as letters on n+1."""
    beta = letters(rng, n, rng.randrange(8, 13))
    i = rng.randrange(1, n + 1)
    m3 = beta + R.m3_chain(n, i)
    m4 = tuple(x + 1 for x in beta) + R.m4_chain(n, i)
    return beta, i, m3, m4


def _destab_check(n, a, kind):
    """The found beta on n strands, stabilized again at the found index,
    must be the element ``a``."""

    def check(res):
        if not res.found or res.beta.n != n:
            return False
        if kind == "M3":
            word = res.beta.letters + R.m3_chain(n, res.index)
        else:
            word = tuple(x + 1 for x in res.beta.letters) + R.m4_chain(n, res.index)
        return R.same_element(word, a)

    return check


def _markov(ctx, rng, n):
    W = ctx.Word
    beta, i, m3, m4 = _stabilized(rng, n)
    a3 = equal_variant(rng, m3, n + 1, 2, 20)
    a4 = equal_variant(rng, m4, n + 1, 2, 20)
    oracle_kind, oracle_word = ("M3", a3) if rng.random() < 0.5 else ("M4", a4)
    # Without s_n (resp. s_1) the element lies in a parabolic subgroup that
    # no M3 (resp. M4) stabilization meets, so both are negatives.
    no_top = letters(rng, n, 12)
    no_bottom = tuple(x + 1 for x in letters(rng, n, 12))
    return [
        Op("markov.stabilize_m3", (W(n, beta), i), lambda w: (w.n, w.letters) == (n + 1, m3), len(beta)),
        Op("markov.stabilize_m4", (W(n, beta), i), lambda w: (w.n, w.letters) == (n + 1, m4), len(beta)),
        Op("markov.destabilize_m3", (W(n + 1, a3),), _destab_check(n, a3, "M3"), len(a3)),
        Op("markov.destabilize_m4", (W(n + 1, a4),), _destab_check(n, a4, "M4"), len(a4)),
        Op(
            "markov.destabilize_oracle",
            (W(n + 1, oracle_word), oracle_kind),
            _destab_check(n, oracle_word, oracle_kind),
            len(oracle_word),
        ),
        Op("markov.destabilize_m3", (W(n + 1, no_top),), lambda res: not res.found, 12),
        Op("markov.destabilize_m4", (W(n + 1, no_bottom),), lambda res: not res.found, 12),
    ]


def _split(ctx, n, w):
    components = R.cycle_count(R.permutation(w, n))

    def check(summary):
        return summary.split_certified and summary.components == components

    return Op("doodle.split_check", (ctx.Word(n, w),), check, len(w))


def _doodle(ctx, rng, n):
    W = ctx.Word
    # A word missing a generator is certified split (condition 1); so is an
    # M3 stabilization of such a word (condition 1 or 2).
    gap = rng.randrange(1, n)
    missing = tuple(x for x in letters(rng, n, 20) if x != gap)
    beta = tuple(x for x in letters(rng, n - 1, 10) if x != min(gap, n - 2))
    stabilized = beta + R.m3_chain(n - 1, rng.randrange(1, n))
    comp_word = letters(rng, n, 30)
    components = R.cycle_count(R.permutation(comp_word, n))
    return [
        _split(ctx, n, missing),
        _split(ctx, n, stabilized),
        Op("doodle.closure_components", (W(n, comp_word),), lambda c: c == components, 30),
    ]


def _render(ctx, n, w, mode):
    return Op("doodle.render_svg", (ctx.Word(n, w), mode), lambda svg: svg_ok(svg, w, n, mode), len(w))


def conjugacy_markov(ctx, rng, rnd):
    # Four random pairs per strand count, each tested positive, negative
    # and for a witness, put the short conjugacy calls in the middle of the
    # latency order, so the median latency is theirs.
    ops = []
    for n in (4, 5, 6):
        for _ in range(4):
            u = letters(rng, n, rng.randrange(8, 14))
            g = letters(rng, n, rng.randrange(5, 9))
            v = g + u + g[::-1]
            ops.append(_conjugate(ctx, n, u, v, True))
            ops.append(_conjugate(ctx, n, u, odd_variant(rng, v, n), False))
            ops.append(_witness(ctx, n, u, v))
        ops += _markov(ctx, rng, n)
        ops += _doodle(ctx, rng, n + 1)
    # Commuting families: the orbit of s_o s_{o+2} ... s_{o+2k-2} has k!k
    # spellings.  Odd offsets that grow with the round keep every
    # representative new, so no round is answered from the orbit cache.
    # One alternating word per round, the slowest operation, and a second
    # eight-letter commuting word (offset past every round's) fill rounds of
    # over a second: the latency tail is a low quantile of the alternating
    # word, or the top of the eight-letter class next to it.
    offset = 2 * rnd + 1
    for k in range(1, 6 if ctx.smoke else 9):
        n = offset + 2 * k
        u = commuting(offset, k)
        g = letters(rng, n, 3)
        ops.append(_conjugate(ctx, n, u, g + tuple(rng.sample(u, k)) + g[::-1], True))
    if not ctx.smoke:
        u = commuting(offset + 1000, 8)
        g = letters(rng, offset + 1016, 3)
        ops.append(_conjugate(ctx, offset + 1016, u, g + tuple(rng.sample(u, 8)) + g[::-1], True))
        u = alternating(offset)
        ops.append(_conjugate(ctx, offset + 9, u, u[4:] + u[:4], True))
        ops.append(_witness(ctx, offset + 9, u, u[4:] + u[:4]))
    pinned = PINNED_SVGS[rnd % len(PINNED_SVGS)]
    ops.append(_render(ctx, pinned[0], pinned[1], pinned[2]))
    for n in (5, 6):
        ops.append(_render(ctx, n, letters(rng, n, 20), "closure"))
    return ops


# --------------------------------------------------------------- ball-search

TWISTED_MAPS = ((4, "psi"), (4, "tau"), (5, "psi"), (5, "kappa"), (6, "psi"), (6, "kappa"))


def family(n: int, count: int) -> list[tuple[int, ...]]:
    """The documented witness family: pairwise not phi-conjugate."""
    step = 2 if n == 5 else 1
    return [(1, 2) * (step * i) for i in range(1, count + 1)]


def _twisted(ctx, rng, n, name, positive):
    phi = ctx.maps[n, name]
    images = R.images_of(name, n)
    if positive:
        # Norms of cyclic length above 8 can take the conjugacy orbit
        # search up to seconds (factorial in commuting letters); that cost
        # is measured by conjugacy-markov, so here the norms stay short.
        y = letters(rng, n, rng.randrange(3, 5))
        while R.cyclic_length(R.norm(images, y)) > 8:
            y = letters(rng, n, rng.randrange(3, 5))
        g = R.normal_form(letters(rng, n, 3))
        x = g + y + R.apply_map(images, g)[::-1]
        radius = len(g)
    else:
        i, j = rng.sample(range(3), 2)
        members = family(n, 3)
        x, y, radius = members[i], members[j], 2

    def check(verdict):
        if not positive:
            return verdict.status == "not_equivalent"
        if verdict.status != "equivalent":
            return False
        w = verdict.witness.letters
        return R.same_element(w + y + R.apply_map(images, w)[::-1], x)

    return Op("twisted.twisted_conjugate", (phi, ctx.Word(n, x), ctx.Word(n, y), radius), check, len(x) + len(y))


def _ball(ctx, n, radius):
    layers = ball_layers(n, radius)

    def check(ball):
        elements = [nf.letters for nf in ball.elements]
        return (
            ball.layer_counts == layers
            and len(set(elements)) == len(elements) == sum(layers)
            and all(R.is_reduced(w) for w in elements)
        )

    return Op("oracle.enumerate_ball", (n, radius), check, radius)


def _conjugator_search(ctx, rng, n):
    u = letters(rng, n, 6)
    g = R.normal_form(letters(rng, n, 3))
    v = g[::-1] + u + g

    def check(found):
        return found is not None and R.conjugates_to(found.letters, v, u)

    return Op("oracle.conjugator_search", (ctx.Word(n, u), ctx.Word(n, v), len(g)), check, len(u) + len(v))


def ball_search(ctx, rng, rnd):
    # Each ball once and the small searches many times per round: the
    # ball of radius 8 on 5 strands is the slowest operation, once in a
    # round of over a second, so the latency tail is a low quantile of it.
    balls = ((4, 4), (5, 3)) if ctx.smoke else ((4, 8), (4, 10), (5, 6), (5, 8), (6, 5), (6, 6))
    ops = [_ball(ctx, n, radius) for n, radius in balls]
    for n, name in TWISTED_MAPS:
        order = R.map_order(R.images_of(name, n))
        ops.append(Op("twisted.order_of", (ctx.maps[n, name],), lambda k, e=order: k == e, n))
    for n in (4, 5, 6):
        size = closure_size(n)
        ops.append(Op("twisted.outer_closure", (n,), lambda maps, e=size: len(maps) == e, n))
    for _ in range(1 if ctx.smoke else 70):
        ops += _searches(ctx, rng)
    return ops


def _searches(ctx, rng):
    """Twisted conjugacy tests make over half of these, so the median
    latency falls inside that class."""
    ops = [_conjugator_search(ctx, rng, n) for n in (4, 5, 6)]
    for n, name in TWISTED_MAPS:
        ops.append(_twisted(ctx, rng, n, name, True))
        ops.append(_twisted(ctx, rng, n, name, False))
    for n, name in TWISTED_MAPS[1::2]:
        x = letters(rng, n, 6)
        expected_norm = R.norm(R.images_of(name, n), x)
        args = (ctx.maps[n, name], ctx.Word(n, x))
        ops.append(Op("twisted.norm", args, lambda nf, e=expected_norm: nf.letters == e, 6))
    for n, radius in ((3, 3), (4, 3)) if ctx.smoke else ((3, 6), (4, 6), (5, 5)):
        checked = sum(ball_layers(n, radius)) - 1

        def check(report, e=checked):
            return report.kernel_trivial and report.elements_checked == e

        ops.append(Op("endomorphisms.injectivity_ball_test", (ctx.maps[n, "psi_n"], radius), check, radius))
    return ops


@functools.cache
def closure_size(n: int) -> int:
    """Size of the group generated by the outer representatives for n."""
    second = [R.images_of("tau", 4)] if n == 4 else [R.images_of("kappa", n)] if n >= 5 else []
    return R.closure_size([R.images_of("psi", n)] + second)


# ------------------------------------------------------------------- cli-mix


def _cli(argv, check, size):
    """Every call here computes a decision, so it must exit 0."""

    def full_check(result):
        exit_code, out, _ = result
        return exit_code == 0 and check(json.loads(out))

    return Op("cli.main", (["--output", "json"] + argv,), full_check, size, capture=True)


PSI_KAPPA_ORDER = R.map_order(R.compose_maps(R.images_of("psi", 5), R.images_of("kappa", 5)))


def cli_mix(ctx, rng, rnd):
    """Sixteen passes over every subcommand, plus one larger ball query
    that is the slowest call of the round, so the latency tail is a low
    quantile of it."""
    radius = 4 if ctx.smoke else 8
    layers = list(ball_layers(5, radius))
    argv = ["ball", "--n", "5", "--radius", str(radius), "--counts-only"]
    ops = [_cli(argv, lambda d: d["details"]["layer_counts"] == layers, radius)]
    for p in range(1 if ctx.smoke else 16):
        ops += _cli_pass(ctx, rng, 16 * rnd + p)
    return ops


def _cli_pass(ctx, rng, rnd):
    n = 4 + rnd % 3
    w = letters(rng, n, 10)
    u = letters(rng, n, 8)
    v = equal_variant(rng, u, n, 2, 8)
    g = letters(rng, n, 4)
    c = g + u + g[::-1]
    beta, i, m3, m4 = _stabilized(rng, n)
    low = tuple(x for x in w if x != n - 1)
    missing = tuple(x for x in w if x != 2)
    x_y = letters(rng, n, 3)
    g2 = R.normal_form(letters(rng, n, 2))
    psi = R.images_of("psi", n)
    twisted_x = g2 + x_y + R.apply_map(psi, g2)[::-1]
    pinned = PINNED_SVGS[rnd % len(PINNED_SVGS)]
    render_n, render_w = (pinned[0], pinned[1]) if rnd % 2 else (n, w)
    render_mode = pinned[2] if rnd % 2 else "closure"
    svg_path = os.path.join(ctx.out_dir, "render.svg")
    perm = R.permutation(w, n)
    radius = 3 if ctx.smoke else 4

    def nf_is(expected):
        return lambda d: d["normal_form"] == fmt(expected)

    def certificate_ok(d):
        moves = [(m["op"], m["pos"], m["letter"]) for m in d["details"]["moves"]]
        return d["details"]["count"] == len(moves) and R.replay(u, moves) == v

    def cyclic_ok(d):
        rep = parse(d["normal_form"])
        return R.is_cyclically_reduced(rep) and R.conjugates_to(parse(d["witness"]), rep, w)

    def destab_ok(kind, a):
        def check(d):
            beta_found = parse(d["details"]["beta"])
            i_found = d["details"]["i"]
            if kind == "M3":
                word = beta_found + R.m3_chain(n, i_found)
            else:
                word = tuple(x + 1 for x in beta_found) + R.m4_chain(n, i_found)
            return d["verdict"] is True and R.same_element(word, a)

        return check

    def render_ok(d):
        with open(svg_path, encoding="utf-8") as handle:
            svg = handle.read()
        return d["details"]["bytes"] == len(svg.encode()) and svg_ok(svg, render_w, render_n, render_mode)

    N = ["--n", str(n)]
    return [
        _cli(["reduce"] + N + [fmt(w)], nf_is(R.normal_form(w)), len(w)),
        _cli(["equal"] + N + [fmt(u), fmt(v)], lambda d: d["verdict"] is True, len(u)),
        _cli(["equal"] + N + [fmt(u), fmt(odd_variant(rng, v, n))], lambda d: d["verdict"] is False, len(u)),
        _cli(["certificate"] + N + [fmt(u), fmt(v)], certificate_ok, len(u)),
        _cli(["cyclic-reduce"] + N + [fmt(w)], cyclic_ok, len(w)),
        _cli(
            ["conjugate"] + N + [fmt(u), fmt(c), "--witness"],
            lambda d: d["verdict"] is True and R.conjugates_to(parse(d["witness"]), c, u),
            len(c),
        ),
        _cli(["conjugate"] + N + [fmt(u), fmt(odd_variant(rng, c, n))], lambda d: d["verdict"] is False, len(c)),
        _cli(["destab", "--n", str(n + 1), "--move", "m3", fmt(m3)], destab_ok("M3", m3), len(m3)),
        _cli(["destab", "--n", str(n + 1), "--move", "m4", "--oracle", fmt(m4)], destab_ok("M4", m4), len(m4)),
        _cli(
            ["stab"] + N + ["--move", "m3", "--i", str(i), fmt(beta)],
            lambda d: d["details"] == {"word": fmt(m3), "n": n + 1} and d["normal_form"] == fmt(R.normal_form(m3)),
            len(beta),
        ),
        _cli(["shift"] + N + [fmt(low)], nf_is(tuple(x + 1 for x in R.normal_form(low))), len(low)),
        _cli(["split"] + N + [fmt(missing)], lambda d: d["verdict"] is True, len(missing)),
        _cli(["components"] + N + [fmt(w)], lambda d: d["verdict"] == R.cycle_count(perm), len(w)),
        _cli(["permutation"] + N + [fmt(w)], lambda d: d["details"]["images"] == list(perm), len(w)),
        _cli(["pure"] + N + [fmt(w)], lambda d: d["verdict"] == (perm == tuple(range(1, n + 1))), len(w)),
        _cli(["aut", "--n", "5", "psi*kappa", "order"], lambda d: d["verdict"] == PSI_KAPPA_ORDER, 0),
        _cli(["aut"] + N + ["psi", "apply", fmt(w)], nf_is(R.normal_form(R.apply_map(psi, w))), len(w)),
        _cli(["aut"] + N + ["psi", "norm", fmt(w)], nf_is(R.norm(psi, w)), len(w)),
        _cli(
            ["twisted"] + N + ["--aut", "psi", "--x", fmt(twisted_x), "--y", fmt(x_y), "--radius", str(len(g2))],
            lambda d: d["verdict"] == "equivalent"
            and R.same_element(parse(d["witness"]) + x_y + R.apply_map(psi, parse(d["witness"]))[::-1], twisted_x),
            len(twisted_x),
        ),
        _cli(
            ["rinfty", "--n", "5", "--aut", "kappa", "--count", "3"],
            lambda d: d["details"]["family"] == [fmt(f) for f in family(5, 3)],
            3,
        ),
        _cli(
            ["endo"] + N + ["apply", fmt(w)],
            nf_is(R.normal_form(R.apply_map(R.images_of("psi_n", n), w))),
            len(w),
        ),
        _cli(
            ["endo"] + N + ["inject-test", "--radius", str(radius)],
            lambda d: d["verdict"] is True and d["details"]["checked"] == sum(ball_layers(n, radius)) - 1,
            radius,
        ),
        _cli(["endo"] + N + ["parity", fmt(w)], lambda d: d["details"]["parity"] == list(R.parity(w, n)), len(w)),
        _cli(
            ["ball"] + N + ["--radius", str(radius), "--counts-only"],
            lambda d: d["details"]["layer_counts"] == list(ball_layers(n, radius)),
            radius,
        ),
        _cli(
            ["render", "--n", str(render_n), fmt(render_w), "--mode", render_mode, "-o", svg_path],
            render_ok,
            len(render_w),
        ),
        _cli(
            ["heisenberg-check"],
            lambda d: d["verdict"] is True
            and d["details"]["group_order"] == 27
            and d["details"]["candidates_checked"] == 27
            and d["details"]["conjugator_found"] is False,
            27,
        ),
    ]


def parse(text: str) -> tuple[int, ...]:
    return () if text == "e" else tuple(int(tok[1:]) for tok in text.split())


ROUNDS = {
    "words-long": words_long,
    "conjugacy-markov": conjugacy_markov,
    "ball-search": ball_search,
    "cli-mix": cli_mix,
}


def rounds(name, ctx, rng):
    """Endless rounds of the workload, each shuffled by the seeded rng."""
    make = ROUNDS[name]
    rnd = 0
    while True:
        ops = make(ctx, rng, rnd)
        rng.shuffle(ops)
        yield ops
        rnd += 1
