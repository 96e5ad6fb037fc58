"""Runs one workload in a fresh interpreter and prints its raw samples.

Started by run.py, never by hand.  A fresh interpreter per workload keeps
peak RSS per workload and stops the process-lifetime lru_caches behind
ppr_leq from carrying over between workloads.

    python3 perfbench/worker.py --workload NAME --seed N --ops K --trace 0|1 [--fingerprints]

The last stdout line is one JSON object.  ``ready`` is time.monotonic()
(CLOCK_MONOTONIC, shared by all processes on the host) once the inputs
are ready, so the parent can measure set-up from before it spawned this
interpreter.  ``op_scale`` and ``setup_scale`` give, for each op and for
set-up, how slow the host was near it: the reference job's time over
REF_S (see Reference).  With ``--ops 0`` it only sets up.
"""

import argparse
import bisect
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, untraced_api
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

R4_RELATION = 12_301
R5_RELATION = 509_662
R5_EDGES = 7_714

REF_S = 0.02  # the reference job's time on the reference host
REF_EVERY_S = 0.3  # op time between reference readings
REF_WINDOW = 5  # nearest readings whose median gives the host slowness at an op
BITS = 1_546  # |R_5|


class Reference:
    """A fixed pure-Python job, timed between ops, that reads host speed.

    On a shared host the speed of object-heavy Python code drifts by up to
    1.9x for minutes at a time.  This job does the kinds of work rookorder
    does (tuples, dicts, sets, sorting, JSON, and big-integer bitsets as
    wide as R_5's relation rows) and never changes, so an op's time times
    REF_S over the job's time nearby is the op's time on a host where the
    job takes REF_S, and it barely moves with the drift.  The job runs
    with the garbage collector off and frees all it allocates, so its time
    does not depend on the program's heap.
    """

    def __init__(self):
        rng = random.Random(0)
        self.rows = [(rng.randrange(1000), rng.randrange(1000), rng.random())
                     for _ in range(3000)]
        self.perms = [tuple(rng.sample(range(7), 7)) for _ in range(200)]
        self.bitrows = [rng.getrandbits(BITS) & rng.getrandbits(BITS) & rng.getrandbits(BITS)
                        for _ in range(100)]
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.last = 0.0

    def _job(self) -> None:
        groups = {}
        for a, b, c in self.rows:
            groups.setdefault((a % 97, b % 89), []).append((c, a))
        ordered = sorted(self.rows)
        json.loads(json.dumps([list(row) for row in ordered[:1500]]))
        seen = {(a, b) for a, b, _ in self.rows}
        for p in self.perms:
            for q in self.perms[:24]:
                seen.add(tuple(p[i] for i in q))
        columns = [0] * BITS
        for i, bits in enumerate(self.bitrows):
            while bits:
                low = bits & -bits
                columns[low.bit_length() - 1] |= 1 << (15 * i)
                bits ^= low

    def read(self) -> None:
        """Time the job once and record the reading."""
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._job()
        t1 = time.perf_counter()
        if was_enabled:
            gc.enable()
        self.times.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)
        self.last = t1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= REF_EVERY_S

    def scale(self, t: float) -> float:
        """Median of the REF_WINDOW readings nearest in time to t, over REF_S."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - REF_WINDOW // 2, len(self.times) - REF_WINDOW))
        return statistics.median(self.seconds[lo:lo + REF_WINDOW]) / REF_S


def import_program():
    """Import rookorder from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import rookorder

    if not Path(rookorder.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"rookorder imported from {rookorder.__file__}, not {SRC}")


def fingerprints(api) -> tuple[dict, object]:
    """Relation sizes by routes unlike the ones verify uses.

    R_4: count every pair deodhar_leq accepts.  R_5: sum the up-set sizes
    obtained by closing the Hasse cover edges upward, by decreasing length.
    """
    r4 = list(api["elements.enumerate_elements"](4))
    leq = api["order.deodhar_leq"]
    r4_size = sum(leq(x, y) for x in r4 for y in r4)

    h = api["poset.build_hasse"](5)
    above = [[] for _ in h.nodes]
    for lo, hi in h.edges:
        above[lo].append(hi)
    up = [0] * len(h.nodes)
    for i, _, _ in sorted(h.nodes, key=lambda node: -node[2]):
        bits = 1 << i
        for j in above[i]:
            bits |= up[j]
        up[i] = bits
    r5_size = sum(bits.bit_count() for bits in up)
    return {"r4": r4_size, "r5": r5_size, "hasse_edges": len(h.edges)}, h


def run(name, seed, ops, trace, with_fingerprints) -> dict:
    import_program()
    api = untraced_api()
    workload = WORKLOADS[name](seed, api)
    tracer = Tracer(api) if trace else None
    inputs = workload.inputs()
    item = next(inputs)
    ready = time.monotonic()
    reference = Reference()
    for _ in range(REF_WINDOW):
        reference.read()

    clock = time.perf_counter
    op_s, op_mid, traced_s, gaps = [], [], [], []
    layers = {}
    failed = 0
    errors = []
    for i in range(ops):
        if i:
            item = next(inputs)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        t0 = clock()
        try:
            out = workload.run(item)
            error = None
        except Exception:  # an op that raises counts as failed
            error = traceback.format_exc(limit=3)
        elapsed = clock() - t0
        if traced:
            tracer.uninstall()
            totals, root_s = tracer.collect()
            for label, (calls, self_s) in totals.items():
                entry = layers.setdefault(label, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
            traced_s.append(elapsed)
            gaps.append(elapsed - root_s)
        else:
            op_s.append(elapsed)
            op_mid.append(t0 + elapsed / 2)
        if error is None:
            try:
                if not workload.check(item, out):
                    error = f"op {i} failed its check"
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            failed += 1
            if len(errors) < 3:
                errors.append(error)
        if reference.due():
            reference.read()
    reference.read()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "ready": ready,
        "attempted": ops,
        "failed": failed,
        "errors": errors,
        "op_s": op_s,
        "op_scale": [reference.scale(t) for t in op_mid],
        "setup_scale": statistics.median(reference.seconds[:REF_WINDOW]) / REF_S,
        "traced_op_s": traced_s,
        "trace_gap_s": gaps,
        "layers": layers,
        "peak_rss_kb": peak_rss_kb,
        "answers_true": getattr(workload, "answers_true", 0),
    }
    if with_fingerprints:
        # Outside timing; a traced run computes them traced, so they also
        # show that the wrappers do not change results.
        if tracer is not None:
            tracer.install()
        prints, hasse5 = fingerprints(api)
        if tracer is not None:
            tracer.uninstall()
            tracer.collect()
        result["fingerprints"] = prints
        result["relation_size"] = prints["r4"] if workload.n == 4 else prints["r5"]
        result["checks"] = {
            "relation_r4": prints["r4"] == R4_RELATION,
            "relation_r5": prints["r5"] == R5_RELATION,
            "hasse_edges": prints["hasse_edges"] == R5_EDGES,
            "workload_finish": workload.finish(hasse5),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fingerprints", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.ops, args.trace, args.fingerprints)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
