"""One workload in one process: set up, signal READY, run the closed loop.

Started by run.py, never by hand.  stdout carries exactly two lines for
run.py: `READY` once set-up is done (run.py times set-up from process start
to that line), then one JSON object with the run's results.  With
`--setup-only` the process exits right after `READY`.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402  (imports moca, so after the path is set)
import workloads  # noqa: E402
from tracing import COUNT_NAMES, LAYERS, SPAN_NAMES, Tracer  # noqa: E402

MAX_LOGGED_FAILURES = 3
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
# Rounds per prologue in ops_per_s: about what a 20 s sentence-sat run
# holds, the one workload with a prologue; without one it cancels out.
NOMINAL_ROUNDS = 5


def _child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Loop:
    """Closed loop with one client: each operation starts when the last ends.

    The prologue runs once, then whole rounds run until `seconds` have
    passed and at least MIN_OPS operations have run.  The round order comes
    from the seed and the round number, so two loops of one run see the
    same sequence."""

    def __init__(self, workload, seed, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.elapsed = 0.0
        self.prologue_s = 0.0
        self.prologue_ok = 0
        self.round_s = []
        self.round_ok = []
        self.child_cpu = {}  # bucket -> seconds of reaped child CPU

    def _do(self, op, bucket):
        tracer = self.tracer
        if tracer is not None:
            tracer.bucket = bucket
            span = tracer.open("op." + op.kind)
        cpu0 = _child_cpu()
        ok = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            ok = False
            self._log_failure(op, traceback.format_exc())
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        self.child_cpu[bucket] = self.child_cpu.get(bucket, 0.0) + _child_cpu() - cpu0
        if ok is None:
            try:
                ok = bool(op.check(out))
                if not ok:
                    self._log_failure(op, "output check failed\n")
            except Exception:
                ok = False
                self._log_failure(op, traceback.format_exc())
        if tracer is not None and not ok:
            tracer.spans[span][5] = True
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.latencies.append(t1 - t0)

    def _log_failure(self, op, text):
        if self.failed < MAX_LOGGED_FAILURES:
            print(f"perfbench: {self.workload.name} {op.kind} failed: {text}",
                  file=sys.stderr, end="")

    def run(self, seconds):
        start = time.perf_counter()
        for op in self.workload.prologue:
            self._do(op, -1)
        self.prologue_s = time.perf_counter() - start
        self.prologue_ok = self.attempted - self.failed
        while (time.perf_counter() - start < seconds or self.rounds == 0
               or self.attempted < MIN_OPS):
            order = list(self.workload.items)
            random.Random(f"{self.seed}/{self.rounds}").shuffle(order)
            t0, ok0 = time.perf_counter(), self.attempted - self.failed
            for op in order:
                self._do(op, self.rounds)
            self.round_s.append(time.perf_counter() - t0)
            self.round_ok.append(self.attempted - self.failed - ok0)
            self.rounds += 1
        self.elapsed = time.perf_counter() - start
        return self

    @property
    def ops_per_s(self):
        """Successful operations per second of a nominal run: the prologue
        once, then NOMINAL_ROUNDS median rounds.  Whole rounds make the
        round count of a real run jump with small speed changes, which would
        change the prologue's weight from run to run; the median round
        shrugs off a brief stall of the host."""
        return ((self.prologue_ok + NOMINAL_ROUNDS * statistics.median(self.round_ok))
                / (self.prologue_s + NOMINAL_ROUNDS * statistics.median(self.round_s)))

    def per_round(self, by_bucket):
        rounds = [by_bucket.get(r, 0.0) for r in range(self.rounds)]
        return by_bucket.get(-1, 0.0) + sum(rounds) / self.rounds

    def end_to_end(self):
        lat = sorted(self.latencies)
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
        return {
            "ops_per_s": self.ops_per_s,
            "op_p50_s": statistics.median(lat),
            "op_p90_s": p90,
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
        }, {
            "ops": self.attempted,
            "rounds": self.rounds,
            "prologue_ops": len(self.workload.prologue),
            "timed_s": self.elapsed,
            "ops_beyond_p90": sum(1 for x in lat if x > p90),
            "prologue_s": self.prologue_s,
            "round_s": self.round_s,
            "child_cpu_s": sum(self.child_cpu.values()),
        }


def _per_layer(tracer, untraced, traced):
    summary = tracer.summarize(traced.rounds)
    counts, agree = tracer.count_totals(traced.rounds)
    metrics = {}
    for name in SPAN_NAMES:
        kind = "setup" if name.startswith("randomized.") else "loop"
        metrics[name + ".busy_s"] = summary.get((kind, name + ".busy_s"), 0.0)
    for layer in LAYERS:
        kind = "setup" if layer == "randomized" else "loop"
        for suffix in ("self_s", "calls", "failures"):
            metrics[f"{layer}.{suffix}"] = summary.get((kind, f"{layer}.{suffix}"), 0.0)
    for name in COUNT_NAMES:
        metrics[name] = counts.get(name, 0)
    busy = metrics["sentence.find_model.busy_s"]
    metrics["sentence.assignments_per_s"] = (
        metrics["sentence.assignments"] / busy if busy else 0.0)
    metrics["sentence.child_cpu_s"] = traced.per_round(traced.child_cpu)
    metrics["trace.overhead"] = traced.ops_per_s / untraced.ops_per_s
    return metrics, agree


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    build = workloads.BUILDERS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.enable()
        span = tracer.open("setup")
        wl = build(args.seed)
        tracer.close(span)
        tracer.disable()
    else:
        wl = build(args.seed)
    for op in wl.warmup:
        op.run()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    first = Loop(wl, args.seed).run(args.seconds)
    e2e, facts = first.end_to_end()
    result = {"attempted": first.attempted, "failed": first.failed,
              "consistent": True, "facts": facts}
    if tracer is None:
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"] = e2e
    else:
        tracer.enable()
        traced = Loop(wl, args.seed, tracer).run(args.seconds)
        tracer.disable()
        metrics, agree = _per_layer(tracer, first, traced)
        metrics.update(probes.run_probes())
        result["metrics"] = metrics
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        result["consistent"] = agree
        result["facts"]["traced_rounds"] = traced.rounds
        result["spans"] = tracer.dump()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
