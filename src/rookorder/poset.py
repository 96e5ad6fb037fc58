"""Hasse diagram, rank statistics, exports, and the verification campaign.

The operations over a whole monoid, on the two routes of the order,
containment and moves.  build_hasse takes its edges from the move walk,
and hasse_from_json checks them against the containment covers, so an
edge error of the kernel that build_hasse wrote is caught on reload.
verify holds the move closure, one bitset row per element, XORs each
containment row with its closure row as it arrives, and reads the
difference on every ordered pair, or keeps it if nonzero for sample_count
seeded random pairs; about 200 spot pairs check the per-pair tests, and
every element the length against the exact coordinate-subspace oracle.
Both routes read one enumeration and one walk, so neither can see a
fault of either: the enumeration is checked against a principle of its
own, and a move key that is no element of R_n is set aside by the walk.

build_hasse, hasse_from_json and verify, the operations over a whole
monoid, run steps over one state through one runner, _run, which times
each step, skips one unless every step it needs ran through, and lists
what a step raises in phase_errors.  verify runs _PHASES, its phases in
order, so it raises only on a bad argument.  build_hasse runs the first
two, enumerate and walk, then its diagram, and hasse_from_json the first
(_ENUMERATE), then its containment covers, so all three start from one
checked enumeration: _enumerate is the only caller of enumerate_elements
here.  Those two name their command, and _run refuses the first nonempty
failure list after a step with DefectError.  The three share one size
bound, n in 1..MAX_N, and _check_size is the one rule for it, for cli's
capped sizes and for verify's K, 1..SAMPLED_MAX_K.
The three also run with the cyclic garbage collector paused (_paused_gc):
at R_6 they allocate hundreds of thousands of tuples, lists and records,
none of them in a reference cycle, so every collection during them
would scan the live data and free nothing.
HasseDiagram and VerificationReport are named tuples: immutable, compared
and copied (_replace) as tuples of their fields, in declared order.  The
report's failure fields come from _FAILURE_LISTS, in phase order.
"""

import gc
import json
import random
import time
from bisect import bisect_left
from collections import namedtuple
from functools import wraps
from math import comb, factorial
from types import SimpleNamespace
from typing import NamedTuple

from .containment import _containment_covers, _containment_rows, deodhar_leq, deodhar_leq_gamma
from .elements import OneLine, enumerate_elements
from .length import length
from .moves import _close_moves, _walk, ppr_leq
from .oracle import oracle_length

__all__ = [
    "DefectError",
    "HasseDiagram",
    "VerificationReport",
    "build_hasse",
    "rank_sizes",
    "interval",
    "export_dot",
    "export_json",
    "hasse_from_json",
    "verify",
]

# The largest R_n that build_hasse, hasse_from_json and verify accept.
# R_6 has 13 327 elements and 87 415 covers; its exhaustive campaign checks
# 177.6M ordered pairs and holds one 24 MB relation, 45 MB peak even if all differ.
MAX_N = 6
# verify 6 --sampled K at the cap, in process: 0.4-0.65 s and 45 MB when
# the relations agree, since nothing is drawn; the cap bounds a run where
# they differ, which draws and reads every pair: 1.8-3.2 s and 66 MB when
# every pair differs (0.6-0.75 s and 18 MB at n = 5).
SAMPLED_MAX_K = 1_000_000
_SPOT_CHECK_PAIRS = 200
# Exhaustive R_6 can disagree on up to 177.6M pairs.  A failure list with a
# count field in _FAILURE_LISTS (enumeration and move failures, cover,
# order and oracle mismatches) lists its first this many; the count holds all.
_MISMATCH_LIMIT = 1000
# The failure lists of a VerificationReport, in the order their phases
# run, so a root cause comes first: field, count field (None for a list
# never cut), text label and entry text, whose booleans print as true
# and false.  A report passes when every list is empty.
_FAILURE_LISTS = (
    ("enumeration_failures", "enumeration_failure_count", "enumeration_failures", "{}: {}, expected {}"),
    ("move_failures", "move_failure_count", "move_failures", "element {}: move key {} is no element"),
    ("cover_mismatches", "cover_mismatch_count", "cover_mismatches", "element {}: predicate={} brute={}"),
    ("mismatches", "mismatch_count", "order_mismatches", "pair {} vs {}: containment={} moves={}"),
    ("search_mismatches", None, "search_mismatches", "pair {} vs {}: closure={} search={}"),
    ("oracle_mismatches", "oracle_mismatch_count", "oracle_mismatches", "element {}: formula={} oracle={}"),
    ("phase_errors", None, "phase_errors", "{}: {}: {}"),
)


class DefectError(Exception):
    """build_hasse or hasse_from_json found a defect, refused by _run.
    Not a ValueError, which means a bad argument: cli exits 2 on it, not 1."""


def _check_size(command: str, value: int, cap: int, name: str = "n") -> None:
    """Refuse a value that is not an int (a bool is not one) in 1..cap,
    under the name of the argument it bounds: n, or verify's --sampled K."""
    if type(value) is not int or not 1 <= value <= cap:
        raise ValueError(f"{command} supports {name} in 1..{cap}")


def _paused_gc(operation):
    """operation, run with the cyclic garbage collector paused when it is
    enabled at the call, and left alone when it is not.  On every exit,
    return or raise, the collector is enabled again and collects its
    youngest generation, whose count the operation has run far past:
    left pending, that collection would run at the caller's next
    allocation instead."""

    @wraps(operation)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return operation(*args, **kwargs)
        gc.disable()
        try:
            return operation(*args, **kwargs)
        finally:
            gc.enable()
            gc.collect(0)

    return paused


class HasseDiagram(NamedTuple):
    """Graded order diagram: nodes carry (id, element, length) and edges
    point from the lower element of each covering pair to the upper one.
    Ids are dense from 0 in lexicographic element order, which is a
    linear extension of the order, and edges are sorted by lower id."""

    n: int
    nodes: tuple[tuple[int, OneLine, int], ...]
    edges: tuple[tuple[int, int], ...]


@_paused_gc
def build_hasse(n: int) -> HasseDiagram:
    """Diagram of all of R_n, for an int n in 1..MAX_N; anything else,
    a bool included, raises ValueError.  A defective enumeration or walk,
    or anything raised after the size check, raises DefectError, named
    as verify's report would list it."""
    _check_size("hasse", n, MAX_N)
    c = _campaign(n)
    _run(c, (*_PHASES[:2], ("diagram", _diagram, ())), "hasse")
    return c.diagram


def _diagram(c: SimpleNamespace) -> None:
    c.diagram = HasseDiagram(c.n, tuple((i, e, length(e)) for i, e in enumerate(c.elements)),
                             tuple((i, j) for i, above in enumerate(c.covers) for j in above))


def _campaign(n: int, **state) -> SimpleNamespace:
    """A fresh state over R_n: state, and every failure list empty."""
    return SimpleNamespace(n=n, **state, **{field: [] for field, *_ in _FAILURE_LISTS})


def _run(c: SimpleNamespace, steps, command: str | None = None) -> dict[str, float]:
    """Run steps (name, function of c, the names of the steps it needs)
    in order over the state c; return each one's seconds, a skipped one's
    too.  A step runs only when every step it needs ran through, and any
    Exception it raises is listed in c.phase_errors as [name, type name,
    message].  With a command, the first nonempty failure list after a
    step raises DefectError in the text report's words, on one line."""
    ran, seconds = set(), {}
    mark = time.perf_counter()
    for name, step, needs in steps:
        if ran.issuperset(needs):
            try:
                step(c)
            except Exception as exc:
                c.phase_errors.append([name, type(exc).__name__, str(exc)])
            else:
                ran.add(name)
        now = time.perf_counter()
        seconds[name], mark = now - mark, now
        if command:
            for field, count_field, label, entry in _FAILURE_LISTS:
                if listed := getattr(c, field):
                    count = len(listed) if count_field is None else getattr(c, count_field, len(listed))
                    first = entry.format(*listed[0])
                    raise DefectError(f"{command} found {label}: {count}; the first is {first}")
    return seconds


def rank_sizes(h: HasseDiagram) -> list[int]:
    """Node counts per length value, from 0 through n*n."""
    sizes = [0] * (h.n * h.n + 1)
    for _, _, ln in h.nodes:
        sizes[ln] += 1
    return sizes


def interval(h: HasseDiagram, x: OneLine, y: OneLine) -> HasseDiagram:
    """Induced sub-diagram on the elements between x and y, re-labelled
    densely from 0 in lexicographic order.  Nodes are sorted by element,
    so x and y are found by bisection.  Ids extend the order, so every
    edge between x and y starts at an id from x's up to y's, exclusive,
    and edges are sorted by lower id, so those edges are one slice, also
    found by bisection.  The up-set of x is one forward pass over the
    slice and the down-set of y one backward pass.  y must lie in the
    up-set of x: comparability is read off the diagram's own edges, so a
    loaded diagram whose node set is not convex is held to the paths it
    contains."""
    ix, iy = _node_id(h, x), _node_id(h, y)
    edges = h.edges[bisect_left(h.edges, (ix,)):bisect_left(h.edges, (iy,))]
    up, down = {ix}, {iy}
    for lo, hi in edges:
        if lo in up:
            up.add(hi)
    if iy not in up:
        raise ValueError("endpoints are incomparable or reversed")
    for lo, hi in reversed(edges):
        if hi in down:
            down.add(lo)
    keep = sorted(up & down)
    relabel = {old: new for new, old in enumerate(keep)}
    nodes = tuple((relabel[i], h.nodes[i][1], h.nodes[i][2]) for i in keep)
    # relabel is increasing, so the kept edges stay sorted.
    edges = tuple(
        (relabel[lo], relabel[hi]) for lo, hi in edges if lo in relabel and hi in relabel
    )
    return HasseDiagram(h.n, nodes, edges)


def _node_id(h: HasseDiagram, x: OneLine) -> int:
    i = bisect_left(h.nodes, x.entries, key=lambda node: node[1].entries)
    if i == len(h.nodes) or h.nodes[i][1].entries != x.entries:
        raise ValueError("endpoints must be nodes of the diagram")
    return i


def export_dot(h: HasseDiagram) -> str:
    """Graphviz text, deterministic: nodes by id, then edges sorted."""
    lines = [f"digraph rook_order_{h.n} {{", "  rankdir=BT;"]
    for i, e, ln in h.nodes:
        lines.append(f'  {i} [label="{e} ({ln})"];')
    for lo, hi in h.edges:
        lines.append(f"  {lo} -> {hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(h: HasseDiagram) -> str:
    """The document {"n", "nodes", "edges"}, nodes as {"id", "oneline",
    "length"} objects and edges as [lo, hi] lists, in exactly the bytes
    of json.dumps(doc, indent=2, sort_keys=True) plus a newline.  It is
    written from templates: every value is an integer or a one-line form
    of digits and commas, so nothing needs escaping."""
    edges = [f"    [\n      {lo},\n      {hi}\n    ]" for lo, hi in h.edges]
    nodes = [
        f'    {{\n      "id": {i},\n      "length": {ln},\n      "oneline": "{e}"\n    }}'
        for i, e, ln in h.nodes
    ]
    return f'{{\n  "edges": {_json_list(edges)},\n  "n": {h.n},\n  "nodes": {_json_list(nodes)}\n}}\n'


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


@_paused_gc
def hasse_from_json(text: str) -> HasseDiagram:
    """Load a diagram written by export_json.

    Raises ValueError unless the text is JSON that nests within the
    interpreter's recursion limit, the document has exactly the keys n,
    nodes and edges, n is an int in 1..MAX_N, and nodes and edges are
    lists that hold exactly the diagram the node texts determine.  Node k
    must be {"id": k, "oneline": str(e), "length": length(e)}, its id and
    length of type int (True and 1.0 are refused), for an element e of
    R_n after the previous node's.  R_n is enumerated first, whole even
    for an interval, by verify's enumerate phase, which checks the count
    and order of the elements; the nodes are matched in one pass over
    those elements, in lexicographic order, so no text is parsed.  Edge
    k must be the list [i, j] of the k-th covering pair (i, j) of R_n
    between the nodes, in sorted order, and there must be no more edges
    and no fewer.  build_hasse and interval write edges that way: a full diagram
    and an interval are both convex.  A refusal names the first
    difference: node k and what it must be, edge k and the pair it must
    be, or the two edge counts.

    The edges are checked against the containment order, not against
    the move kernel that build_hasse takes them from (see
    _containment_covers), so an edge error of the kernel is caught here.
    A defective enumeration, or anything the enumeration or that route
    raises, is a defect and raises DefectError, named as verify's report
    would list it.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("diagram JSON is nested too deeply") from None
    if not isinstance(doc, dict) or doc.keys() != {"n", "nodes", "edges"}:
        raise ValueError("diagram must be an object with exactly the keys n, nodes, edges")
    n, raw_nodes, raw_edges = doc["n"], doc["nodes"], doc["edges"]
    _check_size("diagram", n, MAX_N)
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ValueError("nodes and edges must be lists")
    c = _campaign(n)
    _run(c, (_ENUMERATE,), "reload")
    walk = ((str(e), e) for e in c.elements)
    nodes = c.nodes = []
    for ident, node in enumerate(raw_nodes):
        oneline = node.get("oneline") if isinstance(node, dict) else None
        for canonical, e in walk:
            if canonical == oneline:
                break
        else:
            after = f" after {nodes[-1][1]}" if nodes else ""
            raise ValueError(f"node {ident}: oneline must be the canonical text of an element of R_{n}{after}")
        want = {"id": ident, "oneline": canonical, "length": length(e)}
        # True and 1.0 compare equal to 1, so the ints are tested by type.
        if node != want or type(node["id"]) is not int or type(node["length"]) is not int:
            raise ValueError(f"node {ident} must be {json.dumps(want)}")
        nodes.append((ident, e, want["length"]))
    _run(c, (("containment", _node_covers, ()),), "reload")
    edges = c.edges
    # Edge by edge, so that no second copy of the document's edges is held.
    for k, (edge, (lo, hi)) in enumerate(zip(raw_edges, edges)):
        if (type(edge) is not list or edge != [lo, hi]
                or type(edge[0]) is not int or type(edge[1]) is not int):
            raise ValueError(f"edge {k} must be [{lo}, {hi}], the next of the covering pairs between the nodes")
    if len(raw_edges) != len(edges):
        raise ValueError(f"{len(raw_edges)} edges, but the nodes have {len(edges)} covering pairs")
    return HasseDiagram(n, tuple(nodes), tuple(edges))


def _node_covers(c: SimpleNamespace) -> None:
    c.edges = _containment_covers(c.nodes)


class VerificationReport(namedtuple("VerificationReport", (
    "n", "mode", "seed", "pairs_checked",
    *(name for row in _FAILURE_LISTS for name in row[:2] if name),
    "relation_size", "phases", "elapsed",
))):
    """Outcome of one cross-checking campaign over R_n.

    The fields are n, mode, seed, pairs_checked, then each row's list and
    count field, if any, in the phase order of _FAILURE_LISTS, then
    relation_size, phases and elapsed, so a new row gives both its fields.
    Every field is required, and every entry of a failure list is a
    JSON-ready list, so to_dict is the fields as they are plus passed;
    to_text renders the same lists in the table's order; passed reads it.
    mismatches holds [x, y, containment verdict, move-closure verdict]
    for the first 1 000 pairs where the containment rows, then the
    spot-checked per-pair containment tests deodhar_leq and
    deodhar_leq_gamma, differ from the closure, each in pair order (so
    the two verdicts of an entry are opposite); mismatch_count counts all
    such disagreements.  In a sampled campaign the containment rows'
    disagreements come in draw order instead, and a pair drawn twice is
    counted and listed twice.
    search_mismatches holds [x, y, move-closure verdict, per-pair search
    verdict] wherever the two ways of evaluating move reachability
    differ; cover_mismatches holds [x, predicate covers, brute-force
    covers] and oracle_mismatches [x, formula length, oracle length] for
    the first 1 000 failing elements, each counted by its _count field.
    move_failures holds [x, key] for the first 1 000 move or cover keys
    of the kernel that are no element of R_n, in element order, and
    enumeration_failures [what, found, expected] for the first 1 000
    failures of the enumeration's check: its count, then each element
    that does not come after its predecessor.  phase_errors holds
    [phase, exception type, message] for each phase that raised; the
    phases that need its output were skipped.
    All elements are reported in canonical text form.  seed is None for
    an exhaustive campaign.  pairs_checked is 0 unless the containment
    phase ran through, which lists nothing otherwise; relation_size, the
    pairs of the move closure, reflexive ones included, is 0 unless the
    closure phase ran.  phases splits elapsed into the seconds of each
    phase of _PHASES, in order (enumerate, walk, closure, containment,
    spot_checks, oracle), a skipped one too; the argument checks are not timed.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not any(getattr(self, field) for field, *_ in _FAILURE_LISTS)

    def to_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}

    def to_text(self) -> str:
        """The lines that rookorder verify prints, without the last newline."""
        seed = [f"seed: {self.seed}"] if self.mode == "sampled" else []
        lines = [f"n: {self.n}", f"mode: {self.mode}", *seed,
                 f"pairs_checked: {self.pairs_checked}", f"relation_size: {self.relation_size}"]
        for field, count_field, label, entry in _FAILURE_LISTS:
            listed = getattr(self, field)
            count = len(listed) if count_field is None else getattr(self, count_field)
            more = f" (first {len(listed)} listed)" if len(listed) < count else ""
            lines.append(f"{label}: {count}{more}")
            for values in listed:
                lines.append("  " + entry.format(*(str(v).lower() if type(v) is bool else v for v in values)))
        return "\n".join([
            *lines, "phases_s: " + " ".join(f"{k}={v:.3f}" for k, v in self.phases.items()),
            f"elapsed_s: {self.elapsed:.3f}", f"result: {'PASS' if self.passed else 'FAIL'}",
        ])


@_paused_gc
def verify(n: int, sample_count: int | None = None, seed: int = 0) -> VerificationReport:
    """Run the cross-checking campaign over R_n, for n in 1..MAX_N.

    The move closure is built whole, one bitset row per element, and each
    containment row of the threshold lemma (x <= y exactly when every
    prefix threshold count #{i <= k : x_i >= a} of x is at most that of y)
    is XORed with its closure row as it is built.  With sample_count None
    the campaign counts and walks the bits of each difference and drops it,
    so it checks every ordered pair and holds no difference.  Otherwise it
    keeps the nonzero differences and reads them on the first sample_count
    draws of a generator seeded with seed, each one index t into the
    count * count ordered pairs read as (i, j) = divmod(t, count), with
    replacement: a pair drawn twice is checked, and a mismatch on it
    counted and listed, twice.  It draws, in stream order, only when some
    difference is nonzero.  In both campaigns the three per-pair tests that
    rookorder cmp prints, deodhar_leq, deodhar_leq_gamma and the move
    search ppr_leq, are spot-checked against the closure on every stride-th
    ordered pair, stride = max(1, count * count // 200): about 200 pairs,
    or all of fewer than 400.  Both the covers (in the pass that builds the
    closure) and the oracle are audited on every element.  The enumeration
    is checked before any of it, and a move key that is no element is
    listed; the campaign runs on in both cases, and past a phase that
    raises (_PHASES).

    n must be an int in 1..MAX_N, sample_count None or an int in
    1..SAMPLED_MAX_K, and seed an int; anything else, a bool included,
    raises ValueError before any element is enumerated, n's refusal first.
    """
    _check_size("verify", n, MAX_N)
    if sample_count is not None:
        _check_size("verify", sample_count, SAMPLED_MAX_K, "--sampled K")
    if type(seed) is not int:
        raise ValueError("seed must be an integer")

    c = _campaign(n, sample_count=sample_count, seed=seed, mismatch_count=0, pairs_checked=0, relation_size=0)
    phases = _run(c, _PHASES)
    lists = {}
    for field, count_field, *_ in _FAILURE_LISTS:
        listed = lists[field] = getattr(c, field)
        if count_field:  # a list cut as it is collected keeps its own count
            lists[field], lists[count_field] = listed[:_MISMATCH_LIMIT], getattr(c, count_field, len(listed))
    exhaustive = sample_count is None
    return VerificationReport(
        n, "exhaustive" if exhaustive else "sampled", None if exhaustive else seed, c.pairs_checked,
        **lists, relation_size=c.relation_size, phases=phases, elapsed=sum(phases.values()))


def _enumerate(c: SimpleNamespace) -> None:
    """The elements of R_n, checked against a principle of their own:
    there must be sum_k C(n, k)^2 k! of them (k occupied rows and columns
    and a bijection between them), strictly ascending in lexicographic
    order, so none repeats.  Failures are [what, found, expected].  That
    each is an element of R_n is OneLine's to check: a tuple outside R_n
    raises while the list is made, and _run lists it in phase_errors."""
    n = c.n
    c.elements = elements = list(enumerate_elements(n))
    due = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    c.enumeration_failures = [] if len(elements) == due else [["element count", len(elements), due]]
    c.enumeration_failures += [
        [f"element {k}", str(y), f"after {x}"]
        for k, (x, y) in enumerate(zip(elements, elements[1:]), 1) if not x.entries < y.entries
    ]


def _walked(c: SimpleNamespace) -> None:
    c.moves, c.covers, strays = _walk(c.elements)
    # Only the listed entries become text: R_6 has 13 326 when no cover is right.
    c.move_failure_count = len(strays)
    c.move_failures = [[str(c.elements[i]), z] for i, z in strays[:_MISMATCH_LIMIT]]


def _closure(c: SimpleNamespace) -> None:
    elements = c.elements
    c.closure, failures = _close_moves(c.moves, c.covers)
    del c.moves, c.covers
    c.cover_mismatch_count = len(failures)
    c.cover_mismatches = [[str(elements[i]), [str(elements[s]) for s in claimed],
                           [str(elements[s]) for s in brute]] for i, claimed, brute in failures[:_MISMATCH_LIMIT]]
    c.relation_size = sum(row.bit_count() for row in c.closure)


def _containment(c: SimpleNamespace) -> None:
    # Bit j of row i's difference: the relations disagree on (i, j).  A sampled
    # campaign keeps the nonzero ones for its draws; the phase commits at its end.
    count, sampled = len(c.elements), c.sample_count is not None
    found, total, diff = [], 0, {}
    for i, (row, reach) in enumerate(zip(_containment_rows(c.elements, c.elements), c.closure)):
        if (bits := row ^ reach) and sampled:
            diff[i] = bits
        elif bits:
            total += bits.bit_count()
            while bits and len(found) < _MISMATCH_LIMIT:
                _note(c, found, i, (bits & -bits).bit_length() - 1)
                bits &= bits - 1
    if diff:
        draw = random.Random(c.seed).randrange
        for _ in range(c.sample_count):
            i, j = divmod(draw(count * count), count)
            if diff.get(i, 0) >> j & 1:
                total += 1
                _note(c, found, i, j)
    c.mismatches += found
    c.mismatch_count += total
    c.pairs_checked = c.sample_count if sampled else count * count


def _spot_checks(c: SimpleNamespace) -> None:
    elements, closure, count = c.elements, c.closure, len(c.elements)
    for t in range(0, count * count, max(1, count * count // _SPOT_CHECK_PAIRS)):
        i, j = divmod(t, count)
        x, y = elements[i], elements[j]
        p = bool(closure[i] >> j & 1)
        for test in (deodhar_leq, deodhar_leq_gamma):
            if test(x, y) != p:
                c.mismatch_count += 1
                _note(c, c.mismatches, i, j)
        s = ppr_leq(x, y)
        if s != p:
            c.search_mismatches.append([str(x), str(y), p, s])


def _oracle(c: SimpleNamespace) -> None:
    c.oracle_mismatches = [[str(x), ln, computed] for x in c.elements
                           if (ln := length(x)) != (computed := oracle_length(x))]


def _note(c: SimpleNamespace, mismatches: list, i: int, j: int) -> None:
    if len(mismatches) < _MISMATCH_LIMIT:
        p = bool(c.closure[i] >> j & 1)
        mismatches.append([str(c.elements[i]), str(c.elements[j]), not p, p])


# The first phase of verify, and the first step of build_hasse and of
# hasse_from_json too.  The reload names this entry alone, not _PHASES,
# so its code reaches no phase of the move route.
_ENUMERATE = ("enumerate", _enumerate, ())
# The phases of verify, in the order they run and are timed: name, function of
# the campaign's state (containment reads the pairs too), and the phases it needs.
_PHASES = (
    _ENUMERATE,
    ("walk", _walked, ("enumerate",)),
    ("closure", _closure, ("walk",)),
    ("containment", _containment, ("closure",)),
    ("spot_checks", _spot_checks, ("closure",)),
    ("oracle", _oracle, ("enumerate",)),
)

