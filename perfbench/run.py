"""rookorder benchmark: four workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; rookorder is imported from its src/.
Ops run in a closed loop (the next op starts when the previous one has
returned), one process with one thread at a time.  The op count is fixed
by S and each workload's nominal op time (see workloads.py), so every run
of a seed times the same ops.  An untraced run makes PASSES passes, each
a fresh interpreter (see worker.py) replaying the same ops, pinned to the
CPUs in turn; an op's time is its fastest pass.

Untraced times are in reference-host seconds: an op's wall time divided
by how slow the host was next to it, read as the time of a fixed
pure-Python job (worker.Reference) over worker.REF_S; that is, the op's
time on a host where that job takes worker.REF_S.  On a shared 2-vCPU
KVM guest the host's speed drifts by up to 1.9x for minutes at a time, so
wall times differ that much between runs of the same code; the job slows
with the program, and the ratio stays steady.  The job is the
benchmark's own code, so a change to the program moves the ratio as it
moves the wall time.  Wall-time medians and the median host slowness are
printed in the meta line (``wall_s``).
``--workload all`` runs every workload untraced and then traced, and
checks that both give the same fingerprints.

With --trace 0 the last stdout line reports the end-to-end metrics:

- op_s.p50 (s): median of the per-op times.
- op_s.p99 (s): the highest percentile up to p99 (nearest rank) that has
  TAIL_BEYOND samples beyond it.  query-r6 runs enough ops for a true
  p99; with few ops it falls back towards the median, printed beside it.
- ops_per_s (1/s): ops per second of summed op time.
- setup_s (s): interpreter start to the inputs being ready (import and
  input generation), divided by how slow the host was just after, median
  over SETUPS interpreters: the passes and some that only set up.
- peak_rss_mb (MB): ru_maxrss of a pass at the end of its ops, median
  over the passes.

With --trace 1 one pass alternates traced and untraced ops and the last
line reports, per traced op, ``<module>.<function>.calls`` and
``.self_s`` at every traced boundary (see tracer.py), plus
trace.overhead_s (median traced op minus median untraced op),
trace.gap_s (median op time outside every span) and the exact counts
relation_size, hasse.edges and query.answers_true.

Every op's output is checked, as are the relation fingerprints once per
run; a failed check makes the run exit 1.  host.calib_s, the time of a
fixed pure-Python loop before and after the run, is printed beside the
metrics so host-speed drift can be told from a regression.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LABELS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

PASSES = 2
SETUPS = 5  # interpreters set up per untraced run, the passes among them
GAP_SLACK_S = 0.0005  # allowed median op time outside every span, plus a share
GAP_SHARE = 0.01
WORKER_TIMEOUT_S = 150
CALIB_LOOP = 1_000_000
TAIL_BEYOND = 10


def calibrate() -> float:
    """Seconds for a fixed pure-Python arithmetic loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; return (spawn time, result)."""
    # A fixed string-hash seed makes every pass replay identical work.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): nearest-rank p99, or the highest lower percentile
    that keeps TAIL_BEYOND samples above it; the median if none is above it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(0.99 * n), n - TAIL_BEYOND)
    if rank <= n / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100 * rank / n


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: returns the result line, per-metric sample counts and metadata."""
    passes = 1 if trace else PASSES
    workload = WORKLOADS[name]
    ops = max(workload.min_ops, round(seconds / passes / workload.nominal_s))
    args = ["--workload", name, "--seed", str(seed), "--trace", str(trace)]
    calib_before = calibrate()
    raws, setup = [], []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for p in range(passes if trace else SETUPS):
            # Passes take turns over the CPUs (workers inherit the affinity):
            # a slow phase on one CPU then costs one pass, not the run.
            os.sched_setaffinity(0, {cpus[p % len(cpus)]})
            extra = [] if p else ["--fingerprints"]  # once per run
            # Interpreters past the passes only set up, for more setup_s samples.
            count = ops if p < passes else 0
            spawned, raw = spawn_worker(args + ["--ops", str(count)] + extra, WORKER_TIMEOUT_S)
            if p < passes:
                raws.append(raw)
            setup.append((raw["ready"] - spawned, raw["setup_scale"]))
    finally:
        os.sched_setaffinity(0, cpus)
    calib_after = calibrate()

    failures = []
    for raw in raws:
        failures += raw["errors"]
    failures += [f"check {key} failed" for key, ok in raws[0]["checks"].items() if not ok]
    attempted = sum(raw["attempted"] for raw in raws)
    failed = sum(raw["failed"] for raw in raws)
    raw = raws[0]
    if trace:
        traced = raw["traced_op_s"]
        gap_s = statistics.median(raw["trace_gap_s"])
        gap_ok = min(raw["trace_gap_s"]) >= -1e-9 and gap_s <= (
            GAP_SLACK_S + GAP_SHARE * statistics.median(traced))
        if not gap_ok:
            failures.append("per-op self times do not add up to the traced op time")
        k = len(traced)
        metrics = {}
        for label in LABELS:
            calls, self_s = raw["layers"].get(label, (0, 0.0))
            metrics[f"{label}.calls"] = (calls / k, "count")
            metrics[f"{label}.self_s"] = (self_s / k, "s")
        untraced = raw["op_s"]
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        metrics["trace.gap_s"] = (gap_s, "s")
        metrics["relation_size"] = (raw["relation_size"], "count")
        metrics["hasse.edges"] = (raw["fingerprints"]["hasse_edges"], "count")
        metrics["query.answers_true"] = (raw["answers_true"], "count")
        samples = {key: k for key in metrics}
        samples["trace.overhead_s"] = len(untraced) + k
        ops = {"untraced": len(untraced), "traced": k}
        wall_s = {}
    else:
        # Every pass replays the same seeded inputs from a cold interpreter;
        # an op's time is its fastest pass once each is scaled to the
        # reference host, which discounts what scaling leaves of slow phases.
        scaled = [[t / k for t, k in zip(r["op_s"], r["op_scale"])] for r in raws]
        op_s = [min(times) for times in zip(*scaled)]
        wall_s = {
            "op.p50": statistics.median(min(times) for times in zip(*(r["op_s"] for r in raws))),
            "setup": statistics.median(wall for wall, _ in setup),
            "host_slowness": statistics.median(k for r in raws for k in r["op_scale"]),
        }
        m = len(op_s)
        p99, percentile = tail(op_s)
        metrics = {
            "op_s.p50": (statistics.median(op_s), "s"),
            "op_s.p99": (p99, "s"),
            "ops_per_s": (m / sum(op_s), "1/s"),
            "setup_s": (statistics.median(wall / scale for wall, scale in setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in raws) / 1024, "MB"),
        }
        samples = {key: m for key in metrics}
        samples["setup_s"] = len(setup)
        samples["peak_rss_mb"] = passes
        samples["op_s.p99"] = f"{m}, percentile {percentile:.1f}"
        ops = {"untraced": m, "traced": 0}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    }
    meta = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": passes,
        "ops": ops,
        "fail_ratio": failed / attempted,
        "host.calib_s": {"before": calib_before, "after": calib_after},
        "wall_s": wall_s,
        "fingerprints": raw["fingerprints"],
        "query.answers_true": raw["answers_true"],
        "samples": samples,
        "failures": failures,
    }
    return {"result": result, "meta": meta}


def report(run: dict) -> None:
    meta, result = run["meta"], run["result"]
    print(f"{meta['workload']}  seed={meta['seed']}  trace={meta['trace']}  "
          f"ops={result['attempted']}  failed={result['failed']}  "
          f"fail_ratio={meta['fail_ratio']:g}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<40} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"n={meta['samples'][key]}")
    calib = meta["host.calib_s"]
    print(f"  {'host.calib_s':<40} {calib['before']:>14.6g} -> {calib['after']:.6g} s")
    for failure in meta["failures"]:
        print(f"  FAILURE: {failure}")
    print("meta " + json.dumps(meta, sort_keys=True))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; the fingerprints must agree."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        pair = [run_workload(name, seed, seconds, trace) for trace in (0, 1)]
        same = ("fingerprints", "query.answers_true")
        if any(pair[0]["meta"][key] != pair[1]["meta"][key] for key in same):
            pair[1]["result"]["correct"] = False
            pair[1]["meta"]["failures"].append("traced and untraced fingerprints differ")
        for run in pair:
            report(run)
            result = run["result"]
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rookorder" / "__init__.py").is_file():
        print(f"error: no rookorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        run = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(run)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
