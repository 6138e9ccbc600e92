"""Command-line front end for every decision procedure.

Words use the s-token grammar ("s1 s2 s1", bare digits, or "e" for the
identity) and --n is mandatory because words do not carry their strand
count in text form.  Output is plain text or a JSON object with the stable
keys verdict / witness / normal_form / details.  Exit codes: 0 for any
computed decision (negative verdicts included), 1 for parse or
precondition errors, 2 when a bounded search ends inconclusive.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

# Each handler imports the module it runs, so a call loads only what it uses.
from . import oracle, words
from .words import Word

MAX_RADIUS_ENV = "TWINKIT_MAX_RADIUS"
MAX_OUTPUT = 10**6  # longest list an answer may hold, checked before it is built


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_map(n: int, name: str):
    from . import twisted
    factors = []
    for token in name.split("*"):
        token = token.strip()
        if token == "psi":
            factors.append(twisted.make_psi(n))
        elif token == "tau":
            if n != 4:
                raise CliError("tau is only defined on 4 strands")
            factors.append(twisted.make_tau())
        elif token == "kappa":
            factors.append(twisted.make_kappa(n))
        elif token == "id":
            factors.append(twisted.identity_endomap(n))
        elif token.startswith("inn:"):
            factors.append(twisted.make_inner(Word.parse(n, token[4:])))
        else:
            raise CliError(f"unknown automorphism {token!r}")
    phi = factors[0]
    for factor in factors[1:]:
        phi = twisted.compose(phi, factor)
    return phi


def _emit(output, verdict, witness, normal_form, details) -> None:
    if output == "json":
        import json
        payload = {
            "verdict": verdict,
            "witness": witness,
            "normal_form": normal_form,
            "details": details,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        parts = [f"verdict={verdict}"]
        if normal_form is not None:
            parts.append(f'normal_form="{normal_form}"')
        if witness is not None:
            parts.append(f'witness="{witness}"')
        parts.extend(f'{k}="{v}"' if isinstance(v, str) else f"{k}={v}" for k, v in details.items())
        print(" ".join(parts))


# Each handler takes the namespace plus the parsed maps and words its
# subcommand declares, and returns (verdict, witness, normal_form, details).


def _reduce(args, w):
    nf = words.reduce(w)
    return "ok", None, str(nf), {"length": len(nf)}


def _equal(args, u, v):
    return words.equal(u, v), None, str(words.reduce(u)), {}


def _certificate(args, u, v):
    moves = [
        {"op": m.kind, "pos": m.pos, "letter": m.letter} for m in words.certificate(u, v).moves
    ]
    return "ok", None, None, {"moves": moves, "count": len(moves)}


def _cyclic_reduce(args, w):
    from . import conjugacy
    cr = conjugacy.cyclic_reduce(w)
    return "ok", str(cr.conjugator), str(cr.representative), {"length": len(cr.representative)}


def _check_output(size: int, what: str) -> None:
    if size > MAX_OUTPUT:
        raise CliError(f"{what} would hold {size} entries, more than {MAX_OUTPUT}")


def _conjugate(args, u, v):
    from . import conjugacy
    if not args.witness:
        return conjugacy.conjugate(u, v), None, None, {}
    try:
        g = conjugacy.conjugating_witness(u, v)
    except RuntimeError:  # conjugate, but the orbit walk ran out of budget
        return "inconclusive", None, None, {"conjugate": True, "move_budget": oracle.DEFAULT_MOVE_BUDGET}
    return g is not None, None if g is None else str(g), None, {}


def _destab(args, w):
    from . import markov
    if args.oracle:
        res = markov.destabilize_oracle(w, markov.M3 if args.move == "m3" else markov.M4)
    else:
        res = (markov.destabilize_m3 if args.move == "m3" else markov.destabilize_m4)(w)
    details = {"beta": str(res.beta), "i": res.index, "kind": res.kind} if res.found else {}
    return res.found, None, None, details


def _stab(args, w):
    from . import markov
    m3 = args.move == "m3"
    _check_output(2 * (w.n - args.index) + 1 if m3 else 2 * args.index - 1, "the chain")
    stabilize = markov.stabilize_m3 if m3 else markov.stabilize_m4
    out = stabilize(w, args.index)
    return "ok", None, str(words.reduce(out)), {"word": str(out), "n": out.n}


def _shift(args, w):
    from . import markov
    out = markov.m1_shift_inverse(w) if args.inverse else markov.m1_shift(w)
    return "ok", None, str(out), {}


def _split(args, w):
    from . import doodle
    summary = doodle.split_check(w)
    details = {
        "reason": summary.split_reason,
        "components": summary.components,
        "note": "sufficient conditions only; False never certifies non-split",
    }
    return summary.split_certified, None, None, details


def _components(args, w):
    from . import doodle
    return doodle.closure_components(w), None, None, {}


def _permutation(args, w):
    from . import doodle
    _check_output(w.n, "the permutation")
    return "ok", None, None, {"images": list(doodle.permutation_of(w).images)}


def _pure(args, w):
    from . import doodle
    return doodle.is_pure(w), None, None, {}


def _aut(args, phi, w):
    from . import twisted
    if args.action == "order":
        return twisted.order_of(phi), None, None, {}
    if w is None:
        raise CliError(f"aut {args.action} needs a word argument")
    result = twisted.apply(phi, w) if args.action == "apply" else twisted.norm(phi, w)
    return "ok", None, str(result), {}


def _twisted(args, phi, x, y):
    from . import twisted
    verdict = twisted.twisted_conjugate(phi, x, y, args.radius)
    norm_x, norm_y = verdict.norms
    details = {"norm_x": str(norm_x), "norm_y": str(norm_y), "radius": args.radius}
    witness = None if verdict.witness is None else str(verdict.witness)
    return verdict.status, witness, None, details


def _rinfty(args, phi):
    from . import twisted
    family = twisted.rinfty_witness_family(args.n, phi, args.count)
    return "ok", None, None, {"family": [str(x) for x in family]}


def _endo(args, w=None):
    from . import endomorphisms, twisted
    if args.endo_action == "parity":
        # the parity of the word itself, so the map is never built
        endomorphisms.require_strands(args.n)
        return "ok", None, None, {"parity": list(words.parity_vector(w))}
    m = endomorphisms.make_psi_n(args.n)
    if args.endo_action == "apply":
        return "ok", None, str(twisted.apply(m, w)), {}
    report = endomorphisms.injectivity_ball_test(m, args.radius)
    details = {
        "radius": args.radius,
        "checked": report.elements_checked,
        "counterexample": None if report.counterexample is None else str(report.counterexample),
    }
    return report.kernel_trivial, None, None, details


def _ball(args):
    if args.counts_only:
        counts = oracle.ball_layer_counts(args.n, args.radius)
        return "ok", None, None, {"layer_counts": list(counts), "size": sum(counts)}
    ball = oracle.enumerate_ball(args.n, args.radius)
    details = {"layer_counts": list(ball.layer_counts), "size": len(ball)}
    details["elements"] = [str(nf) for nf in ball.elements]
    return "ok", None, None, details


_GEOMETRY_FLAGS = ("strand_spacing", "slot_height", "stroke_width")


def _render(args, w):
    from . import doodle
    # only the geometry flags given are set on the namespace
    given = {k: v for k, v in vars(args).items() if k in _GEOMETRY_FLAGS}
    geometry = dataclasses.replace(doodle.DEFAULT_GEOMETRY, **given)
    svg = doodle.render_svg(w, args.mode, geometry)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    return "ok", None, None, {"path": args.out, "bytes": len(svg.encode())}


def _heisenberg_check(args):
    from . import twisted
    report = twisted.heisenberg_counterexample()
    verdict = report.norm_a_trivial and report.norm_b_trivial and not report.conjugator_found
    return verdict, None, None, dataclasses.asdict(report)


def _add_word_command(sub, name, help_text, run, *names):
    names = names or ("word",)
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--n", type=int, required=True, help="strand count (>= 2)")
    for word in names:
        p.add_argument(word, type=str)
    p.set_defaults(run=run, words=names)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="twinkit", description="twin group decision procedures")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    # Every subcommand sets ``run``; the rest are defaults that main reads.
    parser.set_defaults(n=None, radius=None, maps=(), words=())
    sub = parser.add_subparsers(dest="command", required=True)

    _add_word_command(sub, "reduce", "canonical normal form", _reduce)
    pair = ("word1", "word2")
    _add_word_command(sub, "equal", "word problem for two words", _equal, *pair)
    _add_word_command(
        sub, "certificate", "elementary-move chain between equal words", _certificate, *pair
    )
    _add_word_command(
        sub, "cyclic-reduce", "cyclically reduced conjugacy representative", _cyclic_reduce
    )

    p = _add_word_command(sub, "conjugate", "conjugacy decision", _conjugate, *pair)
    p.add_argument("--witness", action="store_true", help="also return a conjugator")

    p = _add_word_command(sub, "destab", "destabilization decision", _destab)
    p.add_argument("--move", choices=("m3", "m4"), required=True)
    p.add_argument("--oracle", action="store_true", help="use the parabolic-membership oracle")

    p = _add_word_command(sub, "stab", "stabilize with a boundary chain", _stab)
    p.add_argument("--move", choices=("m3", "m4"), required=True)
    p.add_argument("--i", type=int, required=True, dest="index")

    p = _add_word_command(sub, "shift", "strand shift (trivial strand across)", _shift)
    p.add_argument("--inverse", action="store_true")

    _add_word_command(sub, "split", "sufficient split-twin conditions", _split)
    _add_word_command(sub, "components", "closed curves in the closure", _components)
    _add_word_command(sub, "permutation", "strand permutation", _permutation)
    _add_word_command(sub, "pure", "kernel membership of the strand permutation", _pure)

    p = sub.add_parser("aut", help="automorphism operations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("map", type=str, help="psi | tau | kappa | id | inn:<word>, joined by *")
    p.add_argument("action", choices=("order", "apply", "norm"))
    p.add_argument("word", type=str, nargs="?")
    p.set_defaults(run=_aut, maps=("map",), words=("word",))

    p = sub.add_parser("twisted", help="twisted conjugacy decision")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--aut", type=str, required=True)
    p.add_argument("--x", type=str, required=True)
    p.add_argument("--y", type=str, required=True)
    p.add_argument("--radius", type=int, default=oracle.DEFAULT_RADIUS)
    p.set_defaults(run=_twisted, maps=("aut",), words=("x", "y"))

    p = sub.add_parser("rinfty", help="twisted-conjugacy witness family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--aut", type=str, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(run=_rinfty, maps=("aut",))

    p = sub.add_parser("endo", help="the doubling endomorphism")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_endo)
    endo_sub = p.add_subparsers(dest="endo_action", required=True)
    q = endo_sub.add_parser("apply")
    q.add_argument("word", type=str)
    q.set_defaults(words=("word",))
    q = endo_sub.add_parser("inject-test")
    q.add_argument("--radius", type=int, required=True)
    q = endo_sub.add_parser("parity")
    q.add_argument("word", type=str)
    q.set_defaults(words=("word",))

    p = sub.add_parser("ball", help="enumerate elements up to a length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--counts-only", action="store_true")
    p.set_defaults(run=_ball)

    p = sub.add_parser("render", help="SVG diagram or closure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("word", type=str)
    p.add_argument("--mode", choices=("diagram", "closure"), default="diagram")
    p.add_argument("-o", "--out", type=str, required=True)
    for flag in _GEOMETRY_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), type=int, default=argparse.SUPPRESS)
    p.set_defaults(run=_render, words=("word",))

    p = sub.add_parser("heisenberg-check", help="norm-converse counterexample report")
    p.set_defaults(run=_heisenberg_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        n = args.n
        if n is not None and n < 2:
            raise CliError(f"--n must be at least 2, got {n}")
        details = {}
        if args.radius is not None and MAX_RADIUS_ENV in os.environ:
            raw = os.environ[MAX_RADIUS_ENV]
            try:
                cap = int(raw)
            except ValueError:
                cap = None
            if cap is None or cap < 0:
                raise CliError(f"{MAX_RADIUS_ENV} must be a non-negative integer, got {raw!r}")
            if args.radius > cap:
                details["radius_capped_to"] = args.radius = cap
        operands = [_parse_map(n, getattr(args, name)) for name in args.maps]
        for name in args.words:
            text = getattr(args, name)
            operands.append(None if text is None else Word.parse(n, text))
        verdict, witness, normal_form, extra = args.run(args, *operands)
        details.update(extra)
        _emit(args.output, verdict, witness, normal_form, details)
        return 2 if verdict == "inconclusive" else 0
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
