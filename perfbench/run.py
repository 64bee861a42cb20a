"""porphyry benchmark: seeded closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; porphyry is imported from its
`src/`.  One client sends one operation at a time and waits for it.  With
`--trace 0` the run prints every end-to-end metric; with `--trace 1` it
runs the same loop untraced and then traced, and prints per-layer metrics.
The last line of standard output is the JSON result; a report with the
environment, the metrics and, when traced, every span goes to `.perfbench/`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from oracle import Mismatch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ("monadic-classify", "relational-bounded", "defsys-extents", "cli-session")
# Rounds built per run, whatever --seconds is, so set-up time does not
# depend on run length; a run that needs more cycles through them again.
ROUNDS = {
    "monadic-classify": 32,
    "relational-bounded": 40,
    "defsys-extents": 24,
    "cli-session": 20,
}
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def time_child(code, repeats=SETUP_REPEATS):
    """Median of a figure a fresh interpreter prints, in seconds."""
    out = []
    for _ in range(repeats):
        p = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
            check=True,
        )
        out.append(float(p.stdout.strip()))
    return statistics.median(out)


IMPORT_CODE = (
    "import time; t = time.perf_counter(); import porphyry; "
    "print(time.perf_counter() - t)"
)


def interpreter_and_import_ms():
    """`python -c pass` wall time and `import porphyry.cli` on top of it,
    both timed from a parent process, medians of SETUP_REPEATS."""

    def wall(code):
        out = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=120)
            out.append(time.perf_counter() - t)
        return statistics.median(out)

    interp = wall("pass")
    return interp * 1e3, (wall("import porphyry.cli") - interp) * 1e3


# ------------------------------------------------------------ the loop


class Loop:
    """Closed loop over the rounds' operations until `seconds` of operation
    time have passed.  Answers are checked between operations, untimed.

    With a tracer the loop runs each operation twice, untraced and then
    traced, so both halves see the same inputs in the same state; the
    traced half feeds the spans, and `overhead` compares the two.
    """

    def __init__(self):
        self.lat = []
        self.kinds = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.traced_s = 0.0
        self.untraced_s = 0.0

    def run(self, rounds, seconds, runner=None, tracer=None, min_ops=0):
        ops = [op for r in rounds for op in r]
        gc.collect()
        busy = 0.0
        i = 0
        while busy < seconds or i < min_ops:
            op = ops[i % len(ops)]
            dt = self._one(op, runner, None)
            busy += dt
            if tracer is not None:
                self.untraced_s += dt
                with tracer:
                    tracer.op = self.attempted
                    traced = self._one(op, runner, tracer)
                self.traced_s += traced
                busy += traced
            i += 1
        return busy

    def _one(self, op, runner, tracer):
        err = None
        t0 = time.perf_counter()
        try:
            result = op.run() if runner is None else runner(op.argv)
        except Exception as exc:  # a failed operation, counted and reported
            err = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if err is None:
            try:
                op.verify(result)
            except Mismatch as exc:
                err = f"wrong answer: {exc}"
            except Exception as exc:  # an answer the checker cannot even read
                err = f"unreadable answer: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if tracer is None:
            self.lat.append(dt)
            self.kinds.append(op.kind)
        if err is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op.kind}: {err}")
        return dt

    @property
    def overhead(self):
        """Traced throughput over untraced throughput, same operations."""
        return self.untraced_s / self.traced_s


def tail(lat):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples)."""
    s = sorted(lat)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ------------------------------------------------------------- set-up


def build(workload, seed, workdir):
    import workloads as W

    n = ROUNDS[workload]
    if workload == "monadic-classify":
        return W.build_monadic(seed, n)
    if workload == "relational-bounded":
        return W.build_relational(seed, n)
    if workload == "defsys-extents":
        return W.build_defsys(seed, n)
    env = child_env()
    return W.build_cli(seed, n, workdir, lambda argv: W.cli_subprocess(argv, env))


def setup(workload, seed, workdir):
    """Set-up time: importing porphyry in a fresh interpreter, plus the time
    spent inside porphyry while building the inputs (parsing, demo_magma,
    extensions for expected families).  The benchmark's own generators and
    oracles are not counted.  Medians of SETUP_REPEATS each.  Also returns
    the tracer of the last build, whose spans show where set-up time went."""
    import porphyry

    from tracing import Tracer

    import_s = time_child(IMPORT_CODE)
    builds = []
    rounds = None
    for _ in range(SETUP_REPEATS):
        # Start each build from the same heap: without the previous build's
        # garbage, the collector's pauses do not land in the next one.
        rounds = None
        gc.collect()
        tracer = Tracer().install(porphyry, counters=False)
        with tracer:
            rounds = build(workload, seed, workdir)
        builds.append(sum(t1 - t0 for _, _, parent, t0, t1, *_ in tracer.spans if parent is None))
    return import_s + statistics.median(builds), rounds, tracer


# -------------------------------------------------------- seed figures


def seed_figures(workload):
    """The single-query figures the ROADMAP quotes, re-measured: decide_sat
    on k unary predicates, and transitive & irreflexive |= asymmetric on
    R/2 at bounds 2..4.  Medians of a few repeats, milliseconds."""
    import porphyry as P

    def med(fn, reps):
        out = []
        for _ in range(reps):
            t = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t)
        return statistics.median(out) * 1e3

    figs = {}
    if workload == "monadic-classify":
        for k in range(1, 5):
            sig = P.parse("sig { " + " ".join(f"pred P{i}/1;" for i in range(k)) + " }").signature
            f = P.parse_formula(" & ".join(f"(exists x. P{i}(x))" for i in range(k)), sig)
            figs[f"seed.decide_sat.k{k}_ms"] = med(lambda: P.decide_sat(f, sig), 5)
    elif workload == "relational-bounded":
        sig = P.parse("sig { pred R/2; }").signature
        lhs = P.parse_formula(
            "(forall x. forall y. forall z. R(x, y) & R(y, z) -> R(x, z)) & (forall x. !R(x, x))",
            sig,
        )
        rhs = P.parse_formula("forall x. forall y. R(x, y) -> !R(y, x)", sig)
        for b, reps in ((2, 5), (3, 3), (4, 1)):
            figs[f"seed.bounded_entails.R2.b{b}_ms"] = med(lambda: P.bounded_entails(sig, [lhs], rhs, b), reps)
    return figs


# --------------------------------------------------------------- main


def environment():
    import numpy
    import porphyry

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "porphyry": getattr(porphyry, "__version__", "unknown"),
        "ceiling": porphyry.DEFAULT_CEILING,
    }


def end_to_end(loop, busy, setup_s, children):
    value, pct, n = tail(loop.lat)
    return {
        "latency_p50_ms": (statistics.median(loop.lat) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "throughput_qps": (len(loop.lat) / busy, "1/s"),
        "failed_ratio": (loop.failed / loop.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(children), "MB"),
        "setup_s": (setup_s, "s"),
    }, f"p{pct:.1f} of {n} samples, {TAIL_BEYOND} beyond"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    ap.add_argument("--seconds", type=float, default=20.0, help="operation time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if "PORPHYRY_CEILING" in os.environ:
        print("error: PORPHYRY_CEILING is set; it changes which queries are decided", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "porphyry", "__init__.py")):
        print(f"error: no porphyry source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import porphyry

    if not os.path.abspath(porphyry.__file__).startswith(SRC + os.sep):
        print(f"error: porphyry imported from {porphyry.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    env = environment()
    setup_s, rounds, setup_tracer = setup(args.workload, args.seed, workdir)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
    }
    if args.trace:
        loops, metrics = traced_run(args, rounds, setup_tracer, report)
    else:
        loops, metrics = plain_run(args, rounds, setup_s, report)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        for line in lp.failures:
            print(f"FAILED {line}", file=sys.stderr)
    report.update(metrics=metrics, attempted=attempted, failed=failed)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def plain_run(args, rounds, setup_s, report):
    loop = Loop()
    busy = loop.run(rounds, args.seconds)
    e2e, tail_note = end_to_end(loop, busy, setup_s, args.workload == "cli-session")
    for name, (value, unit) in e2e.items():
        note = f"  ({tail_note})" if name == "latency_tail_ms" else ""
        note = f"  ({loop.failed}/{loop.attempted})" if name == "failed_ratio" else note
        print(f"{name} {value:.6g} {unit}{note}")
    report["tail"] = tail_note
    # failed_ratio is 0 on a correct build, so it travels as attempted/failed.
    metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items() if n != "failed_ratio"}
    return [loop], metrics


def traced_run(args, rounds, setup_tracer, report):
    import porphyry
    import workloads as W
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

    is_cli = args.workload == "cli-session"
    share = args.seconds / 2 if is_cli else args.seconds
    loops = []
    cmd_p50 = {}
    if is_cli:
        sub = Loop()
        # At least one whole round, so every command gets a figure.
        sub.run(rounds, share, min_ops=len(rounds[0]))
        loops.append(sub)
        by_kind = {}
        for kind, dt in zip(sub.kinds, sub.lat):
            by_kind.setdefault(kind, []).append(dt)
        cmd_p50 = {k: statistics.median(v) * 1e3 for k, v in by_kind.items()}
    tracer = Tracer().install(porphyry)
    paired = Loop()
    paired.run(rounds, share, runner=W.cli_inprocess if is_cli else None, tracer=tracer)
    loops.append(paired)

    layers = layer_metrics(tracer)
    built = layer_metrics(setup_tracer)
    for name in ("parser.parse.busy_ms", "magma.demo_magma.busy_ms"):
        layers[f"setup.{name}"] = built[name]
    layers["trace.overhead_ratio"] = paired.overhead
    layers["cli.interpreter_ms"], layers["cli.import_ms"] = interpreter_and_import_ms()
    for cmd in W.CLI_COMMANDS:
        layers[f"cli.{cmd}.p50_ms"] = cmd_p50.get(f"cli.{cmd}", 0.0)
    if tracer.missing:
        print("# not traced (name missing): " + ", ".join(tracer.missing))
    figures = seed_figures(args.workload)
    for name, value in figures.items():
        print(f"# {name} {value:.6g} ms")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name} {layers[name]:.6g} {unit}")

    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for line in tracer.spans_jsonl():
            fh.write(line + "\n")
    report.update(
        missing_names=tracer.missing,
        seed_figures=figures,
        spans=os.path.relpath(spans_path, ROOT),
        layers=layers,
    )
    return loops, {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
