"""Per-layer accounting for traced runs: spans, work counts, phase replays
and scaling ladders.

A span covers one call the benchmark makes into a public function of a
layer; calls nested inside the library are attributed to that outer call.
Compound operations are additionally replayed from outside, one public
sub-step at a time, and the sub-step seconds are moved to the layer that
spends them.  Everything is kept in memory and reported when the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import reference as R
import workloads as W

LAYERS = ("words", "conjugacy", "markov", "doodle", "twisted", "endomorphisms", "oracle", "cli")

# Every public function a workload calls, plus build_parser, which the
# cli.main replay calls.
FUNCTIONS = (
    "words.reduce",
    "words.equal",
    "words.is_reduced",
    "words.support",
    "words.certificate",
    "conjugacy.cyclic_reduce",
    "conjugacy.conjugate",
    "conjugacy.conjugating_witness",
    "markov.stabilize_m3",
    "markov.stabilize_m4",
    "markov.destabilize_m3",
    "markov.destabilize_m4",
    "markov.destabilize_oracle",
    "doodle.split_check",
    "doodle.closure_components",
    "doodle.render_svg",
    "twisted.twisted_conjugate",
    "twisted.norm",
    "twisted.order_of",
    "twisted.outer_closure",
    "endomorphisms.injectivity_ball_test",
    "oracle.enumerate_ball",
    "oracle.conjugator_search",
    "cli.main",
    "cli.build_parser",
)

# Phases of the replayed compound operations: phase -> layer that spends it.
# The part of the span the replayed phases do not cover stays with the
# function's own layer under the last name listed.
PHASES = {
    "twisted.twisted_conjugate": (
        ("norm", "twisted"),
        ("conjugate", "conjugacy"),
        ("enumerate_ball", "oracle"),
        ("search", "twisted"),
    ),
    "doodle.split_check": (("cyclic_reduce", "conjugacy"), ("destabilize", "markov"), ("other", "doodle")),
    "cli.main": (("build_parser", "cli"), ("parse_args", "cli"), ("dispatch", "cli")),
}

DESTABILIZE = ("markov.destabilize_m3", "markov.destabilize_m4", "markov.destabilize_oracle")


def _clock():
    return time.perf_counter()


class Trace:
    """Spans and counters of the traced rounds of one run."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list[tuple[int, str, float, float]] = []
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.phase = defaultdict(float)
        self.layer = defaultdict(float)
        self.replay_s = 0.0
        self.rep_len_max = 0

    def record(self, index: int, op, result, t0: float, t1: float) -> None:
        fn = op.fn
        self.spans.append((index, fn, t0, t1))
        self.calls[fn] += 1
        self.busy[fn] += t1 - t0
        if result is not None and fn in _HOOKS:
            for key, value in _HOOKS[fn](op.args, result).items():
                self.count[key] += value
        if result is not None and fn == "conjugacy.conjugate":
            self.note_rep_len(*op.args)
        replay = _REPLAYS.get(fn)
        if replay is None or result is None:
            self.layer[fn.split(".")[0]] += t1 - t0
            return
        start = _clock()
        phases = replay(self, op.args)
        self.replay_s += _clock() - start
        span = t1 - t0
        covered = sum(phases.values())
        scale = min(1.0, span / covered) if covered else 0.0
        *named, (rest, rest_layer) = PHASES[fn]
        for name, layer in named:
            self.phase[f"{fn}.phase.{name}_s"] += phases[name] * scale
            self.layer[layer] += phases[name] * scale
        self.phase[f"{fn}.phase.{rest}_s"] += span - covered * scale
        self.layer[rest_layer] += span - covered * scale

    def note_rep_len(self, *words) -> None:
        """Track the longest cyclically reduced conjugacy representative."""
        self.rep_len_max = max([self.rep_len_max] + [R.cyclic_length(w.letters) for w in words])

    def timed(self, fn: str, *args):
        """Call a sub-step of a replay and count it as its own function."""
        t0 = _clock()
        result = _resolve(self.mods, fn)(*args)
        self.calls[fn] += 1
        self.busy[fn] += _clock() - t0
        return result

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics; ``wall`` is the summed latency of the traced
        operations, the denominator of every share."""
        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = self.calls[fn]
            out[f"{fn}.busy_s"] = self.busy[fn]
            out[f"{fn}.share"] = self.busy[fn] / wall if wall else 0.0
        for layer in LAYERS:
            out[f"layer.{layer}.share"] = self.layer[layer] / wall if wall else 0.0
        for fn, phases in PHASES.items():
            for name, _ in phases:
                key = f"{fn}.phase.{name}_s"
                if fn == "cli.main" and name == "build_parser":
                    continue  # reported as cli.build_parser.busy_s
                out[key] = self.phase[key]
        c = self.count
        out["words.reduce.letters_in"] = _per(c["reduce_in"], self.calls["words.reduce"])
        out["words.reduce.cancel_ratio"] = _per(c["reduce_in"] - c["reduce_out"], c["reduce_in"])
        out["words.certificate.moves"] = _per(c["moves"], self.calls["words.certificate"])
        out["conjugacy.cyclic_reduce.letters_in"] = _per(c["cyclic_in"], self.calls["conjugacy.cyclic_reduce"])
        out["conjugacy.conjugate.rep_len_max"] = self.rep_len_max
        out["markov.destabilize.found_ratio"] = _per(c["found"], sum(self.calls[f] for f in DESTABILIZE))
        out["doodle.render_svg.bytes"] = _per(c["svg_bytes"], self.calls["doodle.render_svg"])
        out["oracle.enumerate_ball.elements"] = _per(c["ball_elements"], self.calls["oracle.enumerate_ball"])
        out["twisted.twisted_conjugate.inconclusive_ratio"] = _per(
            c["inconclusive"], self.calls["twisted.twisted_conjugate"]
        )
        out["endomorphisms.injectivity_ball_test.elements_checked"] = _per(
            c["checked"], self.calls["endomorphisms.injectivity_ball_test"]
        )
        return out


UNITS_BY_SUFFIX = (
    (".calls", "count"),
    ("_s", "s"),
    (".share", "ratio"),
    ("_ratio", "ratio"),
    (".letters_in", "letters/call"),
    (".moves", "moves/call"),
    (".bytes", "bytes/call"),
    (".elements", "elements/call"),
    (".elements_checked", "elements/call"),
    (".rep_len_max", "letters"),
    (".max_commuting_k", "letters"),
    ("slope_L", "log-log"),
    ("slope_elements", "log-log"),
)


def unit(name: str) -> str:
    return next(u for suffix, u in UNITS_BY_SUFFIX if name.endswith(suffix))


def _per(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _resolve(mods, fn: str):
    module, name = fn.split(".")
    return getattr(getattr(mods, module), name)


_HOOKS = {
    "words.reduce": lambda a, r: {"reduce_in": len(a[0]), "reduce_out": len(r)},
    "words.certificate": lambda a, r: {"moves": len(r.moves)},
    "conjugacy.cyclic_reduce": lambda a, r: {"cyclic_in": len(a[0])},
    "markov.destabilize_m3": lambda a, r: {"found": r.found},
    "markov.destabilize_m4": lambda a, r: {"found": r.found},
    "markov.destabilize_oracle": lambda a, r: {"found": r.found},
    "doodle.render_svg": lambda a, r: {"svg_bytes": len(r.encode())},
    "oracle.enumerate_ball": lambda a, r: {"ball_elements": len(r)},
    "twisted.twisted_conjugate": lambda a, r: {"inconclusive": r.status == "inconclusive"},
    "endomorphisms.injectivity_ball_test": lambda a, r: {"checked": r.elements_checked},
}


def _replay_twisted(trace, args):
    """twisted_conjugate = norm x2, conjugate on the norms, then the ball."""
    phi, x, y, radius = args
    mods = trace.mods
    t0 = _clock()
    nx = mods.twisted.norm(phi, x)
    ny = mods.twisted.norm(phi, y)
    t1 = _clock()
    conjugate = mods.conjugacy.conjugate(nx.word, ny.word)
    t2 = _clock()
    if conjugate:
        mods.oracle.enumerate_ball(phi.n, radius)
    t3 = _clock()
    trace.note_rep_len(nx.word, ny.word)
    return {"norm": t1 - t0, "conjugate": t2 - t1, "enumerate_ball": t3 - t2}


def _replay_split(trace, args):
    """split_check = cyclic_reduce tests around destabilize_m3 / _m4,
    in the order and with the early exits of the library."""
    (w,) = args
    mods = trace.mods
    spent = {"cyclic_reduce": 0.0, "destabilize": 0.0}

    def step(phase, fn, *a):
        t0 = _clock()
        result = fn(*a)
        spent[phase] += _clock() - t0
        return result

    def misses(word, top):
        rep = step("cyclic_reduce", mods.conjugacy.cyclic_reduce, word).representative.letters
        return any(i not in set(rep) for i in range(1, top))

    if not misses(w, w.n):
        for destabilize in (mods.markov.destabilize_m3, mods.markov.destabilize_m4):
            res = step("destabilize", destabilize, w)
            if res.found and misses(res.beta, w.n - 1):
                break
    return spent


def _replay_cli(trace, args):
    """cli.main = build_parser + parse_args, the rest is dispatch."""
    (argv,) = args
    t0 = _clock()
    parser = trace.timed("cli.build_parser")
    t1 = _clock()
    parser.parse_args(argv)
    t2 = _clock()
    return {"build_parser": t1 - t0, "parse_args": t2 - t1}


_REPLAYS = {
    "twisted.twisted_conjugate": _replay_twisted,
    "doodle.split_check": _replay_split,
    "cli.main": _replay_cli,
}


# ------------------------------------------------------------ scaling ladders


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den if den else 0.0


def ladders(ctx, rng, run_op) -> tuple[dict[str, float], dict]:
    """Geometric ladders in L (or radius) for the layers whose cost grows
    fastest, and the commuting-letter ladder for conjugacy.

    ``run_op(op)`` times one operation under the per-operation timeout and
    returns (seconds, status).  A rung is timed once, or as the median of
    three when it takes under 50 ms.
    """

    def rung(op):
        seconds, status = run_op(op)
        if status == "ok" and seconds < 0.05:
            seconds = statistics.median([seconds] + [run_op(op)[0] for _ in range(2)])
        return seconds, status

    def ladder(sizes, make):
        points = []
        for size in sizes:
            op = make(size)
            seconds, status = rung(op)
            points.append({"size": size, "seconds": seconds, "status": status, "x": op.size})
        return points

    def fit(points):
        done = [p for p in points if p["status"] == "ok"]
        return slope([p["x"] for p in done], [p["seconds"] for p in done]) if len(done) > 1 else 0.0

    small = ctx.smoke
    detail = {
        "words.reduce": ladder(
            (50, 100, 200) if small else (1000, 2000, 4000, 8000), lambda L: W._reduce(ctx, rng, 64, L)
        ),
        "words.certificate": ladder(
            (10, 20, 40) if small else (50, 100, 200, 400), lambda L: W._certificate(ctx, rng, 16, L)
        ),
        "conjugacy.cyclic_reduce": ladder(
            (10, 20, 40) if small else (125, 250, 500, 1000), lambda L: W._cyclic_reduce(ctx, rng, 16, L)
        ),
    }
    balls = ladder((2, 3, 4) if small else (4, 5, 6, 7, 8), lambda r: W._ball(ctx, 5, r))
    for p in balls:
        p["x"] = sum(W.ball_layers(5, p["size"]))
    detail["oracle.enumerate_ball"] = balls

    # Even offsets: workload rounds use odd ones, so no rung is answered
    # from the orbit cache.  One rung past the reach of the initial import.
    commuting = []
    max_k = 0
    for k in range(1, 6 if small else 10):
        n = 2 + 2 * k
        u = W.commuting(2, k)
        g = W.letters(rng, n, 3)
        op = W._conjugate(ctx, n, u, g + tuple(rng.sample(u, k)) + g[::-1], True)
        seconds, status = run_op(op)
        commuting.append({"k": k, "seconds": seconds, "status": status})
        if status != "ok":
            break
        max_k = k
    detail["conjugacy.conjugate.commuting"] = commuting

    metrics = {
        "words.reduce.slope_L": fit(detail["words.reduce"]),
        "words.certificate.slope_L": fit(detail["words.certificate"]),
        "conjugacy.cyclic_reduce.slope_L": fit(detail["conjugacy.cyclic_reduce"]),
        "oracle.enumerate_ball.slope_elements": fit(balls),
        "conjugacy.conjugate.max_commuting_k": max_k,
    }
    return metrics, detail
