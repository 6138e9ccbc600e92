"""Run one twinkit benchmark workload and report its metrics.

    python3 bench/run.py --workload words-long --seed 1 --seconds 20 --trace 0

The load is a closed loop: one client, one process, one thread, and each
operation starts only after the previous one returns.  Operations come in
rounds of a fixed mix (see workloads.py); whole rounds run until the summed
operation latency reaches ``--seconds``.  On a shared machine neighbours
only ever slow a round down, so throughput and median latency are taken
from the least disturbed rounds: ``ops_per_s`` is the upper quartile over
rounds of each round's operations per second of latency, and
``latency_p50_ms`` the lower quartile over rounds of each round's median
latency.  ``latency_tail_ms`` is the highest percentile of all latencies
that still has ten samples beyond it.  Input generation and answer
checks happen between operations, outside the timed calls.  Every answer is
checked; a wrong answer, an exception or a call that exceeds the
per-operation timeout counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds, reports the per-layer metrics of the traced
ones (tracing.py) and the tracing overhead, and runs the scaling ladders.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A full
report with the run metadata goes to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

OP_TIMEOUT_S = 2.0
SETUP_RUNS = 9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Time to import the CLI and build its parser in a fresh interpreter,
# excluding interpreter start-up.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import twinkit.cli
twinkit.cli.build_parser()
print(time.perf_counter() - t0)
"""


class Exceeded(Exception):
    """An operation ran past the per-operation timeout."""


def _on_alarm(signum, frame):
    raise Exceeded()


def load_library():
    """Import twinkit from this checkout's sources, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "twinkit", "__init__.py")):
        raise SystemExit(f"twinkit sources not found under {SRC}")
    sys.path.insert(0, SRC)
    from twinkit import cli, conjugacy, doodle, endomorphisms, markov, oracle, twisted, words

    if not os.path.abspath(words.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"twinkit imported from {words.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        words=words,
        conjugacy=conjugacy,
        markov=markov,
        doodle=doodle,
        twisted=twisted,
        endomorphisms=endomorphisms,
        oracle=oracle,
        cli=cli,
    )


def execute(mods, op):
    """Run one operation under the timeout: (result, start, end, status)."""
    module, name = op.fn.split(".")
    fn = getattr(getattr(mods, module), name)
    out, err = io.StringIO(), io.StringIO()
    capture = contextlib.ExitStack()
    if op.capture:
        capture.enter_context(contextlib.redirect_stdout(out))
        capture.enter_context(contextlib.redirect_stderr(err))
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        with capture:
            result = fn(*op.args)
        t1 = time.perf_counter()
        status = "ok"
    except Exceeded:
        result, t1, status = None, time.perf_counter(), "exceeded"
    except Exception as exc:  # a library error is a failed operation
        result, t1, status = exc, time.perf_counter(), "error"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if op.capture and status == "ok":
        result = (result, out.getvalue(), err.getvalue())
    return result, t0, t1, status


def checked(op, result, status) -> bool:
    if status != "ok":
        return False
    try:
        return bool(op.check(result))
    except Exception:  # a malformed answer is a wrong answer
        return False


class Tally:
    """Latencies and outcomes of the operations of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        # Per round: (operations per second, median latency in seconds).
        self.rounds: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.status = defaultdict(int)
        self.kinds: dict[str, list[int]] = {}
        self.failures: list[str] = []

    def add(self, op, seconds, status, ok) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.status[status] += 1
        sizes = self.kinds.setdefault(op.fn, [0, op.size, op.size])
        sizes[0] += 1
        sizes[1] = min(sizes[1], op.size)
        sizes[2] = max(sizes[2], op.size)
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.fn} size={op.size} status={status}")

    def merge(self, other: "Tally") -> None:
        """Add the other pass's outcomes; latencies stay separate."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        for key, value in other.status.items():
            self.status[key] += value
        for fn, (count, lo, hi) in other.kinds.items():
            mine = self.kinds.setdefault(fn, [0, lo, hi])
            mine[:] = [mine[0] + count, min(mine[1], lo), max(mine[2], hi)]


def run_rounds(mods, stream, seconds, trace=None):
    """Whole rounds until the summed latency reaches ``seconds``.  With a
    trace, even rounds are traced and odd rounds are not."""
    tallies = [Tally(), Tally()]
    index = 0
    rnd = 0
    while rnd == 0 or sum(sum(t.latencies) for t in tallies) < seconds:
        traced = trace is not None and rnd % 2 == 0
        tally = tallies[0 if traced or trace is None else 1]
        start = len(tally.latencies)
        for op in next(stream):
            result, t0, t1, status = execute(mods, op)
            ok = checked(op, result, status)
            seconds_taken = OP_TIMEOUT_S if status == "exceeded" else t1 - t0
            tally.add(op, seconds_taken, status, ok)
            if traced:
                trace.record(index, op, result if status == "ok" else None, t0, t1)
            index += 1
        done = tally.latencies[start:]
        tally.rounds.append((len(done) / sum(done), statistics.median(done)))
        rnd += 1
    return tallies, rnd


def ladder_step(mods, op):
    """One checked, timed ladder rung: (seconds, status)."""
    result, t0, t1, status = execute(mods, op)
    if status == "ok" and not checked(op, result, status):
        status = "wrong"
    return t1 - t0, status


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median over fresh interpreters, after one untimed warm-up that also
    leaves compiled bytecode behind."""
    times = []
    for i in range(runs + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC], capture_output=True, text=True, timeout=120, check=True
        )
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def quartile(values, which):
    """Lower (0) or upper (2) quartile; the only value of a single round."""
    return statistics.quantiles(values, n=4)[which] if len(values) > 1 else values[0]


def tail(latencies):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def workload_why(name: str) -> str:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == name), "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for smoke.py")
    args = parser.parse_args(argv)

    sys.path.insert(0, BENCH_DIR)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    mods = load_library()
    os.makedirs(OUT_DIR, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    Word = mods.words.Word
    maps = {(n, "psi"): mods.twisted.make_psi(n) for n in (4, 5, 6)}
    maps[4, "tau"] = mods.twisted.make_tau()
    maps.update({(n, "kappa"): mods.twisted.make_kappa(n) for n in (5, 6)})
    maps.update({(n, "psi_n"): mods.endomorphisms.make_psi_n(n) for n in (3, 4, 5, 6)})
    ctx = workloads.Context(Word, maps, args.smoke, OUT_DIR)
    rng = random.Random(args.seed)
    stream = workloads.rounds(args.workload, ctx, rng)

    setup_s = measure_setup(2 if args.smoke else SETUP_RUNS) if not args.trace else None
    warm, _ = run_rounds(mods, stream, 0.0)  # one round: lazy set-up, not timed
    report = {
        "workload": args.workload,
        "why": workload_why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "op_timeout_s": OP_TIMEOUT_S,
    }

    if args.trace:
        trace = tracing.Trace(mods)
        ladder_metrics, ladder_detail = tracing.ladders(ctx, rng, lambda op: ladder_step(mods, op))
        (traced, plain), rounds = run_rounds(mods, stream, args.seconds, trace)
        total = Tally()
        total.merge(traced)
        total.merge(plain)
        for rung in (p for points in ladder_detail.values() for p in points):
            total.attempted += 1
            total.status[rung["status"]] += 1
            if rung["status"] not in ("ok", "exceeded"):  # past the reach is expected
                total.failed += 1
                total.failures.append(f"ladder rung {rung}")
        wall = sum(traced.latencies)
        metrics = trace.metrics(wall)
        metrics.update(ladder_metrics)
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(traced.latencies) / statistics.fmean(plain.latencies) - 1.0
            if traced.latencies and plain.latencies
            else 0.0
        )
        report.update(
            ladders=ladder_detail,
            replay_s=trace.replay_s,
            spans=trace.spans,
        )
        units = {key: tracing.unit(key) for key in metrics}
    else:
        (total, _), rounds = run_rounds(mods, stream, args.seconds)
        lat = total.latencies
        tail_s, tail_pct, samples = tail(lat)
        metrics = {
            "ops_per_s": quartile([rate for rate, _ in total.rounds], 2),
            "latency_p50_ms": quartile([median for _, median in total.rounds], 0) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "success_ratio": 1.0 - total.failed / total.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
        report.update(tail_percentile=tail_pct, tail_samples=samples)
    total.merge(warm[0])  # the warm-up round is checked too

    report.update(
        rounds=rounds,
        attempted=total.attempted,
        failed=total.failed,
        failed_ratio=total.failed / total.attempted,
        status=dict(total.status),
        failures=total.failures,
        operations={fn: {"ops": c, "size_min": lo, "size_max": hi} for fn, (c, lo, hi) in sorted(total.kinds.items())},
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} report={path}")
    for fn, (count, lo, hi) in sorted(total.kinds.items()):
        print(f"  op {fn}: {count} ops, size {lo}..{hi}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    outcomes = f"{total.failed} of {total.attempted}; {dict(total.status)}"
    print(f"failed_ratio {report['failed_ratio']:.6g} ratio ({outcomes})")
    if not args.trace:
        print(f"latency_tail_ms is p{report['tail_percentile']:.2f} of {report['tail_samples']} samples")
    for line in total.failures:
        print(f"  FAILED {line}")
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
