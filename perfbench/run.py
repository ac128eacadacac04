"""moca benchmark: one workload, one closed loop, metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/moca`.  Workloads:
sentence-unsat, sentence-sat, ca-scan, kernel-laws (see workloads.py).

With `--trace 0` the last stdout line carries the end-to-end metrics:
set-up time (median over several fresh processes), operations per second,
median and 90th-percentile operation latency, the share of operations that
passed their output check, and peak memory.  With `--trace 1` it carries the
per-layer metrics from a traced loop instead.  The line before it holds the
machine facts.  Full results, spans included, go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("sentence-unsat", "sentence-sat", "ca-scan", "kernel-laws")
SETUP_SAMPLES = 7      # fresh processes timed to READY, the timed worker included
IMPORT_SAMPLES = 5     # fresh interpreters timing `import moca.cli`
SPIN_ITERATIONS = 3_000_000
DEADLINE_S = 175.0

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import moca.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def spin():
    """A fixed pure-Python loop; its time tracks host speed, not moca."""
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i
    return time.perf_counter() - t0


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def _kill(proc):
    """Kill a worker that is still running, with any pool processes it
    started (they share its session), and reap it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run_worker(args, deadline, setup_only=False):
    """Start a worker; return (seconds from start to READY, result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        if line.strip() != b"READY":
            raise BenchError(f"worker did not get ready (exit {proc.poll()})")
        out, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    finally:
        _kill(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def import_seconds(deadline):
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                             cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=deadline.left())
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "moca" / "__init__.py").is_file():
        print(f"perfbench: no moca sources under {ROOT / 'src' / 'moca'}",
              file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    try:
        spin_start = spin()
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        # set-up probes before and after the timed worker, so that the
        # median spans the run rather than one moment of the host
        setup_samples = [run_worker(args, deadline, setup_only=True)[0]
                         for _ in range(probes // 2)]
        setup_s, result = run_worker(args, deadline)
        setup_samples.append(setup_s)
        setup_samples += [run_worker(args, deadline, setup_only=True)[0]
                          for _ in range(probes - probes // 2)]
        metrics = result["metrics"]
        if args.trace:
            metrics["cli.import_s"] = import_seconds(deadline)
        else:
            metrics["setup_s"] = statistics.median(setup_samples)
        spin_end = spin()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if args.trace:
        metrics["machine.spin_s"] = (spin_start + spin_end) / 2

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "spin_start_s": spin_start,
        "spin_end_s": spin_end,
        "setup_samples_s": setup_samples,
        **result["facts"],
    }
    units = _units()
    correct = result["failed"] == 0 and result["consistent"]
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in sorted(metrics) if k in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"facts": facts, "result": line,
                                    "spans": result.get("spans")}))
    print(json.dumps({"facts": facts}))
    print(json.dumps(line))
    return 0


def _units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
