"""The four benchmark workloads.

Each workload builds its inputs from the seed at construction (set-up),
yields one op input at a time from ``inputs()`` (outside timing), runs an
op in ``run()`` (timed) and validates the op's output in ``check()``
(outside timing).  ``nominal_s`` is a typical op time at the parent
commit; run.py divides the run's seconds by it to fix the op count, so
every run of a seed times the same ops whatever the host's speed.
Every program call goes through the ``api`` table, looked up at call
time, so the tracer can swap in its wrappers.

Why these four (one op each):

- verify-r4: the exhaustive campaign over R_4 (43 681 pairs).  The
  per-pair ppr_leq search does most of the work; a faster relation
  engine shows here.  It is left out of BENCHMARK.json, which then
  holds three workloads: with four, every run would have to be too
  short for a steady p99 on query-r6.  ``run.py --workload verify-r4``
  still runs it.
- verify-r5: a sampled campaign over R_5 (100 000 pairs, a fresh seed per
  op).  Mostly closure bit ops, the cover-audit transpose, the oracle
  and deodhar_leq; ppr_leq runs only its 200 spot checks.
- hasse-r5: ``hasse 5 --format json``, a reload with hasse_from_json and
  intervals on seeded comparable pairs.  covers_of dominates; no oracle
  and no per-pair search.
- query-r6: one ``cmp`` query (deodhar_leq, deodhar_leq_gamma, ppr_leq)
  from a seeded stream over R_6, each pair ordered so that
  length(x) <= length(y).  Heavy-tailed and cache-filling; every query is
  timed, including the first, because a session pays the cache fill.
"""

import bisect
import contextlib
import io
import itertools
import json
import random

R4_PAIRS = 43_681
R5_SAMPLES = 100_000
R5_NODES = 1_546
R5_EDGES = 7_714
INTERVAL_PAIRS = 8
QUERY_CHECK = 200  # query.answers_true counts the first QUERY_CHECK queries
GOLDEN = (5 ** 0.5 - 1) / 2


def _capture(main, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


class VerifyR4:
    n = 4
    nominal_s = 0.8  # typical op time; with --seconds it sets the op count
    min_ops = 3

    def __init__(self, seed, api):
        self.api = api

    def inputs(self):
        while True:
            yield ["verify", "4", "--json"]

    def run(self, argv):
        return _capture(self.api["cli.main"], argv)

    def check(self, argv, out):
        code, text = out
        report = json.loads(text)
        return code == 0 and report["passed"] is True and report["pairs_checked"] == R4_PAIRS

    def finish(self, hasse5):
        return True


class VerifyR5(VerifyR4):
    n = 5
    nominal_s = 1.6

    def __init__(self, seed, api):
        self.api = api
        self.rng = random.Random(seed)

    def inputs(self):
        while True:
            s = str(self.rng.randrange(2**31))
            yield ["verify", "5", "--sampled", str(R5_SAMPLES), "--seed", s, "--json"]

    def check(self, argv, out):
        code, text = out
        report = json.loads(text)
        return (
            code == 0
            and report["passed"] is True
            and report["pairs_checked"] == R5_SAMPLES
            and str(report["seed"]) == argv[-2]
        )


class HasseR5:
    n = 5
    nominal_s = 0.22
    min_ops = 3

    def __init__(self, seed, api):
        self.api = api
        rng = random.Random(seed)
        elements = list(api["elements.enumerate_elements"](5))
        leq = api["order.deodhar_leq"]
        self.pairs = []
        while len(self.pairs) < INTERVAL_PAIRS:
            x, y = rng.choice(elements), rng.choice(elements)
            if x != y and leq(x, y):
                self.pairs.append((x, y))
        self.first = None

    def inputs(self):
        while True:
            yield ["hasse", "5", "--format", "json"]

    def run(self, argv):
        code, text = _capture(self.api["cli.main"], argv)
        h = self.api["poset.hasse_from_json"](text)
        interval = self.api["poset.interval"]
        sizes = tuple(len(interval(h, x, y).nodes) for x, y in self.pairs)
        return code, h, sizes

    def check(self, argv, out):
        code, h, sizes = out
        if self.first is None:
            self.first = (h, sizes)
        return (
            code == 0
            and len(h.nodes) == R5_NODES
            and len(h.edges) == R5_EDGES
            and (h, sizes) == self.first
            and all(s >= 2 for s in sizes)
        )

    def finish(self, hasse5):
        """The reloaded diagram must equal an independently built one."""
        return self.first is not None and self.first[0] == hasse5


class QueryR6:
    """Pairs are uniform over R_6 x R_6, ordered by length, but drawn
    stratified by their two lengths: a golden-ratio sequence, offset by
    the seed, picks the lengths (a, b) so that every prefix of the stream
    holds each (a, b) in its population share, and the seed then picks
    the elements.  Query cost depends steeply on both lengths, so a plain
    draw would let one seed's length mix move p50 and p99."""

    n = 6
    nominal_s = 0.0035
    min_ops = QUERY_CHECK

    def __init__(self, seed, api):
        self.api = api
        self.rng = random.Random(seed)
        length = api["length.length"]
        self.levels = {}
        for e in api["elements.enumerate_elements"](6):
            self.levels.setdefault(length(e), []).append(e)
        sizes = {a: len(v) for a, v in self.levels.items()}
        self.cells = [(a, b) for a in sorted(sizes) for b in sorted(sizes) if b >= a]
        shares = [sizes[a] * sizes[b] * (1 if a == b else 2) for a, b in self.cells]
        self.cdf = list(itertools.accumulate(shares))
        self.answered = 0
        self.answers_true = 0

    def inputs(self):
        rng = self.rng
        u = rng.random()
        while True:
            u = (u + GOLDEN) % 1.0
            a, b = self.cells[bisect.bisect_right(self.cdf, u * self.cdf[-1])]
            yield rng.choice(self.levels[a]), rng.choice(self.levels[b])

    def run(self, pair):
        x, y = pair
        api = self.api
        return (
            api["order.deodhar_leq"](x, y),
            api["order.deodhar_leq_gamma"](x, y),
            api["order.ppr_leq"](x, y),
        )

    def check(self, pair, out):
        d, g, p = out
        if self.answered < QUERY_CHECK:
            self.answered += 1
            self.answers_true += d
        return d == g == p

    def finish(self, hasse5):
        return self.answered == QUERY_CHECK


WORKLOADS = {
    "verify-r4": VerifyR4,
    "verify-r5": VerifyR5,
    "hasse-r5": HasseR5,
    "query-r6": QueryR6,
}
