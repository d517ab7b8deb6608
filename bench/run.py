#!/usr/bin/env python3
"""Benchmark of the dhpp solver: set-up, solve and check, per workload.

    python3 bench/run.py --workload diet --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16
    python3 bench/run.py --self-check

Run from the root of a source checkout; dhpp is imported from its `src`.
A run makes the workload's inputs from --seed, then repeats rounds of the
same operations until --seconds have passed. A round times three phases
through dhpp's public entry points:

    setup_s  text to GroundProgram (parse_program, or parse_classical and
             translate_dlp, then ground_program)
    solve_s  enumerate_answer_sets
    check_s  is_answer_set on every answer set found (must accept) and on a
             strictly larger neighbour of each (must reject), repeated
             right after each operation's solve

Every sample is scaled by the machine's speed at the time it was taken, as
a metronome running fixed reference work measures it (Metronome, README).
Each round then, untimed, compares every answer with results computed
apart from dhpp (workloads.py, checks.py). With --trace 1 the rounds
alternate between untraced and traced, and the run prints per-layer
figures (spans.py) instead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from array import array
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import workloads
from spans import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The metronome runs reference_work every TICK_S seconds; the ticks within
# WINDOW_S of a timed sample tell how fast the machine ran it, and reported
# times are scaled to a machine on which one tick takes REFERENCE_S.
TICK_S = 0.02
WINDOW_S = 0.05
REFERENCE_S = 0.001

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("check_s", "s"), ("peak_rss_mb", "MB")]


def import_dhpp():
    """dhpp from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import dhpp
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import dhpp from {SRC}: {exc}")
    if Path(dhpp.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: dhpp was imported from {dhpp.__file__}, not from {SRC}")
    return dhpp


def reference_work() -> int:
    """A fixed piece of pure-Python work of the kind dhpp does: exact
    fractions, small tuples, dict and set lookups. It never changes, so
    its time says how fast this machine runs Python at the moment."""
    values = {}
    seen = set()
    acc = Fraction(1, 3)
    for i in range(1, 60):
        p = Fraction(i, 101)
        key = (i % 13, i % 7)
        lo, hi = values.get(key, (Fraction(0), Fraction(1)))
        lo, hi = max(lo, p * acc), min(hi, p + acc - p * acc)
        values[key] = (lo, hi)
        acc = hi - lo if hi > lo else p
        seen.add(frozenset(values))
    return len(seen)


class Metronome:
    """Runs reference_work from a SIGALRM handler every TICK_S seconds, in
    the main thread between two bytecodes of whatever is being timed, and
    keeps each tick's start and duration. `inside` adds up the time spent
    in the handler, which timed samples take out of their own time."""

    def __init__(self):
        self.starts = array("d")
        self.took = array("d")
        self.inside = 0.0
        self.busy = False

    def tick(self, signum, frame) -> None:
        if self.busy:  # a tick that outlasted TICK_S; skip the one behind it
            return
        self.busy = True
        # a collection of dhpp's garbage belongs to the sample, not the tick
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_work()
        self.starts.append(start)
        self.took.append(perf_counter() - start)
        if collecting:
            gc.enable()
        self.inside += perf_counter() - start
        self.busy = False

    def speed(self, start: float, end: float) -> float:
        """Mean tick duration within WINDOW_S of [start, end], or that of
        the nearest ticks when a long call into C held every tick back. The
        mean, because a sample's time adds up the machine's slow and fast
        moments alike."""
        i = bisect.bisect_left(self.starts, start - WINDOW_S)
        j = bisect.bisect_right(self.starts, end + WINDOW_S)
        if i == j:
            i, j = max(i - 1, 0), min(i + 1, len(self.took))
        return statistics.fmean(self.took[i:j])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def canonical(h) -> dict:
    return {str(f): (v.lo, v.hi) for f, v in h.entries}


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class NoTrace:
    """Stands in for spans.Tracer in untraced rounds."""

    phase = ""

    def span(self, name):
        return nullcontext()

    def count(self, name, n=1):
        pass


class Runner:
    """Runs rounds of one workload and keeps per-operation outcomes."""

    def __init__(self, dhpp, workload):
        self.dhpp = dhpp
        self.workload = workload
        self.ops = [(ji, qi) for ji, job in enumerate(workload.jobs) for qi in range(len(job.queries))]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: list[str] = []
        self.first_answers: dict[tuple[int, int], list] = {}
        # per-round (per-pass for check) totals of each phase, and every
        # timed sample as start, end, seconds and the number of what was
        # timed, flat in an array, so that memory does not grow with rounds
        self.totals = {"setup_s": [], "solve_s": [], "check_s": []}
        self.timed = {"setup_s": array("d"), "solve_s": array("d"), "check_s": array("d")}
        self.keys: dict[object, int] = {}
        self.met = Metronome()

    def mark(self) -> tuple[float, float]:
        return perf_counter(), self.met.inside

    def clock(self, phase: str, key, mark: tuple[float, float]) -> float:
        """Seconds since `mark`, less the metronome's ticks in between."""
        start, inside = mark
        end = perf_counter()
        elapsed = end - start - (self.met.inside - inside)
        self.timed[phase].extend((start, end, elapsed, self.keys.setdefault(key, len(self.keys))))
        return elapsed

    def scaled(self, phase: str) -> float:
        """Every sample of `phase` scaled to REFERENCE_S by the ticks around
        it; then the median of each operation's (or is_answer_set call's)
        samples, summed over them. Set-up samples have one key."""
        per: dict[float, list[float]] = {}
        timed = self.timed[phase]
        for i in range(0, len(timed), 4):
            start, end, elapsed, key = timed[i : i + 4]
            per.setdefault(key, []).append(elapsed * REFERENCE_S / self.met.speed(start, end))
        return sum(statistics.median(v) for v in per.values())

    def setup(self, job, tracer):
        d = self.dhpp
        if job.classical:
            with tracer.span("parse_classical"):
                program = d.parse_classical(job.text)
            with tracer.span("translate_dlp"):
                program = d.translate_dlp(program)
        else:
            with tracer.span("parse_program"):
                program = d.parse_program(job.text)
        with tracer.span("ground_program"):
            return d.ground_program(program)

    def neighbour(self, gp, h):
        """h with its highest atom below [1,1] raised to [1,1]. Answer sets
        are pairwise incomparable, so this is never one; picking the highest
        value keeps the kind of rejection, and its cost, alike across seeds."""
        d = self.dhpp
        below = [f for f in gp.relevant_formulae if f.is_atomic and h.value(f) != d.ONE]
        if not below:
            return None
        top = max(below, key=lambda f: (h.value(f).hi, h.value(f).lo))
        rest = [(g, v) for g, v in h.entries if g != top]
        return d.PInterpretation.from_pairs(rest + [(top, d.ONE)])

    def round(self, tracer=None) -> float:
        d, wl = self.dhpp, self.workload
        traced = tracer is not None
        tracer = tracer or NoTrace()
        # collect the previous round's garbage outside this round's timings
        gc.collect()

        with tracer.span("round"):
            tracer.phase = "setup"
            for _ in range(1 if traced else wl.setup_repeats):
                gps = []
                start = self.mark()
                for job in wl.jobs:
                    try:
                        gps.append(self.setup(job, tracer))
                    except Exception as exc:
                        gps.append(exc)
                self.totals["setup_s"].append(self.clock("setup_s", None, start))

            # each operation's check passes follow its solve, so that check
            # samples are spread over the round, not bunched at its end
            results, verdicts = {}, {}
            passes = [0.0] * (1 if traced else wl.check_repeats)
            solve = 0.0
            for op in self.ops:
                ji, qi = op
                if isinstance(gps[ji], Exception):
                    results[op] = gps[ji]
                    continue
                tracer.phase = "solve"
                start = self.mark()
                try:
                    with tracer.span("enumerate_answer_sets"):
                        results[op] = d.enumerate_answer_sets(gps[ji], **wl.jobs[ji].queries[qi])
                except Exception as exc:
                    results[op] = exc
                solve += self.clock("solve_s", op, start)
                tracer.phase = ""
                if not isinstance(results[op], Exception):
                    verdicts[op] = self.check(op, gps[ji], results[op].interpretations, tracer, passes)
            self.totals["solve_s"].append(solve)
            self.totals["check_s"].extend(passes)

            if traced:
                for result in results.values():
                    if not isinstance(result, Exception):
                        tracer.count("solver.answer_sets", len(result.interpretations))
                for gp in gps:
                    if not isinstance(gp, Exception):
                        tracer.count("grounder.rules", len(gp.rules))
                        tracer.count("grounder.formulae", len(gp.relevant_formulae))
        self.settle(results, verdicts)
        return solve

    def check(self, op, gp, found, tracer, passes: list[float]):
        """Run is_answer_set on every answer set found, which must accept,
        and on its larger neighbour, which must reject, once per pass, adding
        each pass's time to `passes`. Returns whether every verdict was
        right, or what is_answer_set raised."""
        calls = [(h, True) for h in found]
        calls += [(n, False) for n in (self.neighbour(gp, h) for h in found) if n is not None]
        right = True
        tracer.phase = "check"
        try:
            for p in range(len(passes)):
                for k, (h, want) in enumerate(calls):
                    start = self.mark()
                    with tracer.span("is_answer_set"):
                        right = self.dhpp.is_answer_set(gp, h)[0] == want and right
                    passes[p] += self.clock("check_s", (op, k), start)
        except Exception as exc:
            return exc
        finally:
            tracer.phase = ""
        return right

    def settle(self, results, verdicts) -> None:
        """Judge every operation of the round against the independent checks."""
        for op in self.ops:
            self.attempted += 1
            job = self.workload.jobs[op[0]]
            try:
                reason = self.judge(job, op, results[op], verdicts.get(op))
            except Exception as exc:
                self.fail(job, op, "".join(traceback.format_exception_only(exc)).strip(), wrong=False)
                continue
            if reason is not None:
                self.fail(job, op, reason)

    def judge(self, job, op, result, verdict) -> str | None:
        """None when the operation's output is right; raises what dhpp raised."""
        for outcome in (result, verdict):
            if isinstance(outcome, Exception):
                raise outcome
        if not verdict:
            return "is_answer_set misjudged an answer set or its larger neighbour"
        answers = [canonical(h) for h in result.interpretations]
        reason = checks.check_operation(job, answers)
        if reason is not None:
            return reason
        if op in self.first_answers:
            return checks.repeatable(self.first_answers[op], answers)
        self.first_answers[op] = answers
        query = job.queries[op[1]]
        if "seed" not in query:
            return None
        again = self.dhpp.enumerate_answer_sets(self.setup(job, NoTrace()), **query)
        return checks.repeatable(answers, [canonical(h) for h in again.interpretations])

    def fail(self, job, op, reason: str, wrong: bool = True) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong
        if len(self.reasons) < 5:
            self.reasons.append(f"{job.label} query {op[1]}: {reason}")


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "dhpp").glob("*.py"))


def run_workload(args) -> int:
    dhpp = import_dhpp()
    wl = workloads.WORKLOADS[args.workload](ROOT, random.Random(args.seed))
    runner = Runner(dhpp, wl)
    began = perf_counter()
    deadline = began + args.seconds
    layer_rounds, untraced, traced = [], [], []
    tracer = Tracer() if args.trace else None
    rounds = 0
    with runner.met if tracer is None else nullcontext():
        while True:
            if tracer is not None and rounds % 2 == 1:
                first = len(tracer.spans)
                tracer.counts.clear()
                tracer.install()
                try:
                    traced.append(runner.round(tracer))
                finally:
                    tracer.uninstall()
                layer_rounds.append(tracer.round_metrics(first))
            else:
                untraced.append(runner.round())
            rounds += 1
            if perf_counter() >= deadline and (tracer is None or rounds >= 2):
                break
    elapsed = perf_counter() - began

    print(
        f"workload {wl.name}, seed {args.seed}: {rounds} rounds of {len(runner.ops)} operations "
        f"in {elapsed:.1f} s, {runner.failed} of {runner.attempted} failed"
    )
    for reason in runner.reasons:
        print(f"  failed: {reason}")
    print(f"src/dhpp: {src_lines()} lines (for reference, not a metric)")
    metrics = {}
    if tracer is None:
        med, q1, q3 = summary(runner.met.took)
        print(
            f"  machine: {len(runner.met.took)} ticks of reference work, median {med * 1e3:.3f} ms "
            f"(q1 {q1 * 1e3:.3f}, q3 {q3 * 1e3:.3f}); times below are scaled to {REFERENCE_S * 1e3:g} ms"
        )
        for name, values in runner.totals.items():
            med, q1, q3 = summary(values)
            value = runner.scaled(name)
            print(
                f"  {name:12} s   {value:.6f}   {len(runner.timed[name]) // 4} samples; unscaled per "
                f"{'pass' if name == 'check_s' else 'round'}: n={len(values)} "
                f"median={med:.6f} q1={q1:.6f} q3={q3:.6f}"
            )
            metrics[name] = {"value": value, "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  {'peak_rss_mb':12} MB  {peak:.1f}")
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    else:
        skip = tracer.unmeasured() & {name for name, _, _ in PER_LAYER}
        for name in sorted(skip):
            print(f"  absent: {name} (its hooked function is gone)")
        solve_untraced = summary(untraced)[0]
        solve_traced = summary(traced)[0]
        for name, unit, _ in PER_LAYER:
            if name in skip:
                continue
            if name == "trace.solve_untraced_s":
                value = solve_untraced
            elif name == "trace.solve_traced_s":
                value = solve_traced
            elif name == "trace.overhead_s":
                value = solve_traced - solve_untraced
            else:
                value = summary([r.get(name, 0) for r in layer_rounds])[0]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:34} {unit:5} {value:.6g}")
        print(f"  traced rounds: {len(layer_rounds)}, untraced rounds: {len(untraced)}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a process of its own."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        failed = f"{result['failed']} of {result['attempted']} failed"
        print(f"{name}: correct={result['correct']}, {failed}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34} {entry['value']:.6g} {entry['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def self_check(args) -> int:
    """Feed every checker a right result and corrupted ones."""
    dhpp = import_dhpp()
    rng = random.Random(args.seed)
    small = {
        "diet": workloads.diet(ROOT, rng),
        "dice": workloads.dice(ROOT, rng, k=6, guard=8, reject=10),
        "dlp": workloads.dlp(ROOT, rng, count=5),
        "reach": workloads.reach(ROOT, rng),
        "first": workloads.first(ROOT, rng, k=10, guard=12, queries=1),
    }
    ok = True
    for name, wl in small.items():
        runner = Runner(dhpp, wl)
        for job in wl.jobs:
            gp = runner.setup(job, NoTrace())
            for query in job.queries:
                found = dhpp.enumerate_answer_sets(gp, **query).interpretations
                answers = [canonical(h) for h in found]
                if checks.check_operation(job, answers) is not None:
                    print(f"{name}/{job.label}: the right result is rejected")
                    ok = False
                for what, wrong in checks.corruptions(job, answers):
                    caught = checks.check_operation(job, wrong) is not None
                    print(f"{name}/{job.label}: {what}: {'caught' if caught else 'MISSED'}")
                    ok = ok and caught
                other = checks.corruptions(job, answers)[0][1]
                caught = checks.repeatable(answers, other) is not None
                print(f"{name}/{job.label}: a different result on repeat: {'caught' if caught else 'MISSED'}")
                ok = ok and caught
    comparable = [{"a": workloads.ONE}, {"a": workloads.ONE, "b": workloads.ONE}]
    caught = checks.incomparable(comparable) is not None
    print(f"incomparability: comparable answer sets: {'caught' if caught else 'MISSED'}")
    ok = ok and caught

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != set(PER_LAYER):
        print("BENCHMARK.json per_layer does not match the metrics a traced run prints")
        ok = False
    e2e = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    if e2e != set(END_TO_END) or {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        print("BENCHMARK.json end_to_end or workloads do not match this benchmark")
        ok = False
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true", help="test the checkers and exit")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
