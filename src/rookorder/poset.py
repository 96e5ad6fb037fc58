"""Hasse diagram, rank statistics, exports, and the verification campaign.

Each whole-monoid pass reads the order module's move kernel once per
element, in its one walk over the elements, and keeps no moves after.
build_hasse takes the kernel's cover flags as the diagram edges.

The other route is the threshold lemma, which reads no move code: x <= y
exactly when, for every prefix length k and every threshold a, the first
k entries of y hold at least as many values >= a as those of x do.
_threshold_tables counts those thresholds, bit-sliced, over any list of
elements, and _containment_row ANDs one element's up-set out of them.
hasse_from_json takes the covers of each loaded node from its row over
the nodes one length above it, since the length is the rank function of
the order, and rejects edges that differ from them; so an edge error of
the kernel that build_hasse wrote is caught on reload.

verify compares two relations, one bitset row per element, and holds
only the move closure, whose pass also audits the kernel's cover flags
against brute-force covers on every element.  _containment_rows yields
the other, the containment relation, as full rows over all of R_n.
Each row is XORed with its closure row as it arrives, and the bits of a
difference are walked only where it is nonzero, so a campaign covers
every ordered pair; given a sample_count, it reads the differences on
that many seeded random pairs instead, and draws the pairs beyond its
spot pairs only when some difference is nonzero.  Either way verify
also checks the per-pair containment test and the per-pair move search
against the closure on about 200 spot pairs (evenly spaced over all
pairs, or the first draws of the sample), and, on every element, the
combinatorial length against the exact coordinate-subspace oracle.
Every disagreement lands in its own list of the returned report, and
none raises; every list but the search's keeps its first 1 000 entries
next to an exact count.  The report also carries the size of the
relation and the seconds of each phase.

build_hasse, hasse_from_json and verify, the operations over a whole
monoid, share one size bound: n in 1..MAX_N.
"""

import json
import random
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import chain
from operator import ne
from typing import Iterator

from .elements import OneLine, enumerate_elements
from .length import length
from .oracle import oracle_length
from .order import _key, _moves, deodhar_leq, ppr_leq

__all__ = [
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
# R_6 has 13 327 elements and 87 415 covers; its exhaustive campaign
# checks 177.6M ordered pairs and holds one 24 MB relation, 43 MB peak.
MAX_N = 6
_SPOT_CHECK_PAIRS = 200
# Exhaustive R_6 can disagree on up to 177.6M pairs; the report lists the
# first order, cover and oracle mismatches in order and counts them all.
_MISMATCH_LIMIT = 1000
_PHASES = ("enumerate", "closure", "containment", "pairs", "spot_checks", "oracle")


@dataclass(frozen=True)
class HasseDiagram:
    """Graded order diagram: nodes carry (id, element, length) and edges
    point from the lower element of each covering pair to the upper one.
    Ids are dense from 0 in lexicographic element order, which is a
    linear extension of the order, and edges are sorted by lower id."""

    n: int
    nodes: tuple[tuple[int, OneLine, int], ...]
    edges: tuple[tuple[int, int], ...]


def build_hasse(n: int) -> HasseDiagram:
    """Diagram of all of R_n, for an int n in 1..MAX_N; anything else,
    a bool included, raises ValueError."""
    if type(n) is not int or not 1 <= n <= MAX_N:
        raise ValueError(f"supported sizes are 1..{MAX_N}")
    elements = list(enumerate_elements(n))
    nodes = tuple((i, e, length(e)) for i, e in enumerate(elements))
    return HasseDiagram(n, nodes, _cover_edges(elements))


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


def hasse_from_json(text: str) -> HasseDiagram:
    """Load a diagram written by export_json.

    Raises ValueError unless the text is JSON that nests within the
    interpreter's recursion limit, the document has exactly the keys n,
    nodes and edges, node ids run densely from 0 in order, every element
    is the canonical text of an element of R_n and carries its own
    length, the elements strictly increase in lexicographic order, every
    edge is a pair of node ids, and the edges, in sorted order, are
    exactly the covering pairs of R_n between nodes.  build_hasse and
    interval write edges that way: a full diagram and an interval are
    both convex.

    The edges are checked against the containment order, not against
    the move kernel that build_hasse takes them from (see
    _containment_covers), so an edge error of the kernel is caught here.
    Node text is looked up in a map from the canonical text of every
    element of R_n, so no text is parsed.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("diagram JSON is nested too deeply") from None
    if not isinstance(doc, dict) or doc.keys() != {"n", "nodes", "edges"}:
        raise ValueError("diagram must be an object with exactly the keys n, nodes, edges")
    n, raw_nodes, raw_edges = doc["n"], doc["nodes"], doc["edges"]
    if type(n) is not int or not 1 <= n <= MAX_N:
        raise ValueError(f"diagram size must be an integer in 1..{MAX_N}")
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ValueError("nodes and edges must be lists")
    canonical = {str(e): e for e in enumerate_elements(n)}
    nodes = []
    for ident, node in enumerate(raw_nodes):
        if not isinstance(node, dict) or node.keys() != {"id", "oneline", "length"}:
            raise ValueError(f"node {ident} must have exactly the keys id, oneline, length")
        i, text, ln = node["id"], node["oneline"], node["length"]
        if type(i) is not int or i != ident:
            raise ValueError(f"node ids must run 0, 1, ... in order; got {i!r}")
        if not isinstance(text, str):
            raise ValueError(f"node {ident}: oneline must be a string")
        e = canonical.get(text)
        if e is None:
            raise ValueError(f"node {ident}: {text!r} is not the canonical text of an element of R_{n}")
        if nodes and e.entries <= nodes[-1][1].entries:
            raise ValueError(f"node {ident}: element {e} does not follow {nodes[-1][1]}")
        if type(ln) is not int or ln != length(e):
            raise ValueError(f"node {ident}: length {ln!r} is not the length of {e}")
        nodes.append((ident, e, ln))
    count = len(nodes)
    for edge in raw_edges:
        if isinstance(edge, list) and len(edge) == 2:
            lo, hi = edge
            if type(lo) is int and type(hi) is int and 0 <= lo < count and 0 <= hi < count:
                continue
        raise ValueError(f"edge {edge!r} is not a pair of node ids")
    edges = _containment_covers(nodes)
    # Edge by edge, so that no second copy of the document's edges is held.
    if len(raw_edges) != len(edges) or any(map(ne, raw_edges, map(list, edges))):
        raise ValueError("edges must be exactly the sorted covering pairs between the nodes")
    return HasseDiagram(n, tuple(nodes), tuple(edges))


def _containment_covers(nodes: list[tuple[int, OneLine, int]]) -> list[tuple[int, int]]:
    """The covering pairs (i, j) between nodes (id, element, length),
    sorted, from the containment order and the node lengths alone.

    The length is the rank function of the order, so y covers x exactly
    when x <= y and length(y) = length(x) + 1, in R_n and so between any
    set of its elements.  The candidates above a node of length L are the
    nodes of length L + 1, so each level gets threshold tables of its own,
    over the level above it only, and each node's covers are the bits of
    its containment row over those tables.  Reads no move code."""
    levels: dict[int, list[tuple[int, OneLine]]] = {}
    for i, e, ln in nodes:
        levels.setdefault(ln, []).append((i, e))
    covers: list[list[int]] = [[] for _ in nodes]
    for ln, lower in levels.items():
        upper = levels.get(ln + 1)
        if not upper:
            continue
        at_least = _threshold_tables([e for _, e in upper])
        everything = (1 << len(upper)) - 1
        for i, e in lower:
            row = _containment_row(at_least, everything, e.entries)
            # upper is in id order, so its bits give ascending ids.
            while row:
                low = row & -row
                covers[i].append(upper[low.bit_length() - 1][0])
                row ^= low
    return [(i, j) for i, above in enumerate(covers) for j in above]


@dataclass
class VerificationReport:
    """Outcome of one cross-checking campaign over R_n.

    Every field is required, and every entry of a mismatch list is a
    JSON-ready list, so to_dict is the fields as they are plus passed.
    mismatches holds [x, y, containment verdict, move-closure verdict]
    for the first 1 000 pairs where the containment rows, then the
    spot-checked per-pair containment test, differ from the closure,
    each in pair order (so the two verdicts of an entry are opposite);
    mismatch_count counts all such disagreements.
    search_mismatches holds [x, y, move-closure verdict, per-pair search
    verdict] wherever the two ways of evaluating move reachability
    differ; cover_mismatches holds [x, predicate covers, brute-force
    covers] and oracle_mismatches [x, formula length, oracle length] for
    the first 1 000 failing elements, each counted by its _count field.
    All elements are reported in canonical text form.  seed is None for
    an exhaustive campaign.  relation_size is the number of pairs,
    reflexive ones included, in the move closure.
    phases splits elapsed into the seconds of enumerate (argument checks
    and elements), closure (kernel, closure rows and cover audit),
    containment (the threshold rows, each compared with its closure row
    as it is built), pairs (the spot pairs, and reading the differences:
    on every pair, or, when sampled, on every drawn pair only if some
    difference is nonzero), spot_checks (the per-pair tests) and oracle
    (lengths and oracle).
    """

    n: int
    mode: str
    seed: int | None
    pairs_checked: int
    mismatches: list[list]
    mismatch_count: int
    search_mismatches: list[list]
    cover_mismatches: list[list]
    cover_mismatch_count: int
    oracle_mismatches: list[list]
    oracle_mismatch_count: int
    relation_size: int
    phases: dict[str, float]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not (
            self.mismatches or self.search_mismatches
            or self.cover_mismatches or self.oracle_mismatches
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify(n: int, sample_count: int | None = None, seed: int = 0) -> VerificationReport:
    """Run the cross-checking campaign over R_n, for n in 1..MAX_N.

    The move closure is built whole, one bitset row per element, and
    each containment row of the threshold lemma (x <= y exactly when
    every prefix threshold count #{i <= k : x_i >= a} of x is at most
    that of y) is XORed with its closure row as it is built; only the
    differences are kept.  With sample_count None the campaign walks
    every bit of every nonzero difference, so it checks every ordered
    pair.  Otherwise it reads the differences on the first sample_count
    draws of a generator seeded with seed, each draw one index t into
    the count * count ordered pairs read as (i, j) = divmod(t, count).
    Draws are with replacement, so a pair drawn twice is checked, and a
    mismatch on it counted and listed, twice.  The per-pair containment
    test and the per-pair move search are spot-checked against the
    closure on S = len(range(0, pairs_checked, stride)) pairs, where
    stride = max(1, pairs_checked // 200): about 200, or all of fewer
    than 400.  They are every stride-th ordered pair, or the first S
    draws.  Those draws are made first; the rest are drawn, and every
    drawn pair read in stream order, only when some difference is
    nonzero, since a zero difference holds no mismatch.  Both the covers
    (in the pass that builds the closure) and the oracle are audited on
    every element.

    n must be an int in 1..MAX_N, sample_count None or an int >= 1, and
    seed an int; anything else, a bool included, raises ValueError.
    """
    marks = [time.perf_counter()]
    exhaustive = sample_count is None
    if type(n) is not int or not 1 <= n <= MAX_N:
        raise ValueError(f"verify supports n in 1..{MAX_N}")
    if not exhaustive and (type(sample_count) is not int or sample_count < 1):
        raise ValueError("sample_count must be a positive integer")
    if type(seed) is not int:
        raise ValueError("seed must be an integer")

    elements = list(enumerate_elements(n))
    count = len(elements)
    marks.append(time.perf_counter())
    closure, cover_failures = _close_moves(elements)
    cover_mismatches = [
        [str(elements[i]), [str(elements[s]) for s in sorted(flagged)],
         [str(elements[s]) for s in sorted(brute)]]
        for i, flagged, brute in cover_failures[:_MISMATCH_LIMIT]
    ]
    marks.append(time.perf_counter())
    # Bit j of diff[i] says the two relations disagree on the pair (i, j).
    diff = [row ^ reach for row, reach in zip(_containment_rows(elements), closure)]
    marks.append(time.perf_counter())

    mismatches = []
    mismatch_count = 0

    def note(i, j):
        if len(mismatches) < _MISMATCH_LIMIT:
            p = bool(closure[i] >> j & 1)
            mismatches.append([str(elements[i]), str(elements[j]), not p, p])

    pairs_checked = count * count if exhaustive else sample_count
    stride = max(1, pairs_checked // _SPOT_CHECK_PAIRS)
    if exhaustive:
        spot = [divmod(t, count) for t in range(0, pairs_checked, stride)]
        for i, bits in enumerate(diff):
            mismatch_count += bits.bit_count()
            while bits and len(mismatches) < _MISMATCH_LIMIT:
                j = (bits & -bits).bit_length() - 1
                note(i, j)
                bits &= bits - 1
    else:
        # Spot pairs first; the rest of the stream only if some row differs.
        draw, space = random.Random(seed).randrange, count * count
        spot = [divmod(draw(space), count) for _ in range(0, pairs_checked, stride)]
        if any(diff):
            rest = (divmod(draw(space), count) for _ in range(pairs_checked - len(spot)))
            for i, j in chain(spot, rest):
                if diff[i] >> j & 1:
                    mismatch_count += 1
                    note(i, j)
    marks.append(time.perf_counter())

    search_mismatches = []
    for i, j in spot:
        x, y = elements[i], elements[j]
        p = bool(closure[i] >> j & 1)
        if deodhar_leq(x, y) != p:
            mismatch_count += 1
            note(i, j)
        s = ppr_leq(x, y)
        if s != p:
            search_mismatches.append([str(x), str(y), p, s])
    marks.append(time.perf_counter())

    oracle_failures = _audit_oracle(elements)
    oracle_mismatches = [
        [str(elements[i]), ln, computed]
        for i, ln, computed in oracle_failures[:_MISMATCH_LIMIT]
    ]
    marks.append(time.perf_counter())
    return VerificationReport(
        n=n, mode="exhaustive" if exhaustive else "sampled",
        seed=None if exhaustive else seed, pairs_checked=pairs_checked,
        mismatches=mismatches, mismatch_count=mismatch_count,
        search_mismatches=search_mismatches,
        cover_mismatches=cover_mismatches, cover_mismatch_count=len(cover_failures),
        oracle_mismatches=oracle_mismatches, oracle_mismatch_count=len(oracle_failures),
        relation_size=sum(row.bit_count() for row in closure),
        phases={name: b - a for name, a, b in zip(_PHASES, marks, marks[1:])},
        elapsed=marks[-1] - marks[0],
    )


def _containment_rows(elements: list[OneLine]) -> Iterator[int]:
    """Up-set bitsets of the containment order, yielded in element order:
    bit j of row i says elements[i] <= elements[j].  Reads no move code."""
    at_least = _threshold_tables(elements)
    everything = (1 << len(elements)) - 1
    for x in elements:
        yield _containment_row(at_least, everything, x.entries)


# _THRESHOLD_DIGITS[a] translates each entry byte to "1" when it is >= a
# and to "0" otherwise, for every threshold a of R_1..R_MAX_N.
_THRESHOLD_DIGITS = tuple(b"0" * a + b"1" * (256 - a) for a in range(MAX_N + 1))


def _threshold_tables(elements: list[OneLine]) -> list[list]:
    """Bit-sliced threshold counts over a nonempty list of elements of one
    size n: at_least[k][a][v], for k in 0..n-1 and a in 1..n, is the
    bitset of the indices of elements with at least v values >= a among
    their first k + 1 entries.

    Threshold lemma (the principle of deodhar_leq_gamma): x <= y exactly
    when, for every prefix length k and every nonzero entry a among the
    first k entries of x, the first k entries of y hold at least as many
    values >= a as those of x do.  Thresholds a > x_k may be skipped too:
    there x's count equals its count over the first k - 1 entries, which
    is checked already, and y's count cannot shrink as k grows.

    The tables are built one position at a time by bit-sliced counting:
    the elements whose entry at the position is >= a form one bitset,
    read off the column of entries with a byte translation, and adding
    it to the counts is one AND and one OR per v.
    """
    n = elements[0].n
    # Reversed, so that element j lands on bit j of int(..., 2).
    columns = [bytes(column[::-1]) for column in zip(*(e.entries for e in elements))]
    at_least: list[list] = [[None] * (n + 1) for _ in range(n)]
    for a in range(1, n + 1):
        digits = _THRESHOLD_DIGITS[a]
        counts = [(1 << len(elements)) - 1] + [0] * n
        for k, column in enumerate(columns):
            hits = int(column.translate(digits), 2)
            for v in range(k + 1, 0, -1):
                counts[v] |= counts[v - 1] & hits
            at_least[k][a] = counts[:]
    return at_least


def _containment_row(at_least: list, everything: int, entries: tuple[int, ...]) -> int:
    """Bitset of the indices of the elements of at_least's list that lie
    at or above the element with these entries, out of everything, the
    bitset of all of them: the AND of one table per (k, a) that the
    threshold lemma needs, at most n(n + 1)/2 of them."""
    row = everything
    seen = []  # nonzero entries so far, ascending
    for k, b in enumerate(entries):
        if b:
            q = bisect_left(seen, b)
            seen.insert(q, b)
            # Each a in seen[:q + 1] has v values >= it among the first
            # k + 1 entries, v falling from len(seen) by one per a.
            v = len(seen)
            tables = at_least[k]
            for a in seen[:q + 1]:
                row &= tables[a][v]
                v -= 1
    return row


def _cover_edges(elements: list[OneLine]) -> tuple[tuple[int, int], ...]:
    """The covering pairs (i, j) between elements, sorted: for each
    element in index order, the ascending indices of its flagged moves.
    Elements are indexed by key, each packed once.  Moves leaving
    elements are skipped, so any set of elements of R_n in lexicographic
    order will do."""
    keys = [_key(e.entries) for e in elements]
    index = {k: i for i, k in enumerate(keys)}
    return tuple(
        (i, j)
        for i, (e, k) in enumerate(zip(elements, keys))
        for j in sorted(index[y] for y, cover in _moves(e.entries, k) if cover and y in index)
    )


def _close_moves(elements: list[OneLine]) -> tuple[list[int], list[tuple[int, list[int], list[int]]]]:
    """Move closure rows and cover audit failures of all of R_n, from
    one pass that reads each element's moves once.  A failure is the
    index triple (i, flagged moves, brute-force covers), both sides in
    kernel order; verify formats only the failures it lists.

    Bit j of row i says element j is reachable from element i.  Every
    move climbs in lexicographic order, so filling rows in descending
    index order has every move's row ready.  Everything strictly above x
    is at or above a move of x, so the brute-force covers of x are its
    moves in no strict up-set of a move: they read no cover flag.  Each
    move's row holds its own bit, so those covers are the bitset
    reach & ~beyond, which is compared with the bitset of the flagged
    moves; the two index lists are built only for an element that
    fails.  Failures come in element order.  Elements are indexed by
    key, each packed once."""
    keys = [_key(e.entries) for e in elements]
    index = {k: i for i, k in enumerate(keys)}
    closure = [0] * len(elements)
    failures = []
    for i in reversed(range(len(elements))):
        moves = _moves(elements[i].entries, keys[i])
        reach = beyond = flagged = 0
        for y, cover in moves:
            s = index[y]
            row, bit = closure[s], 1 << s
            reach |= row
            beyond |= row ^ bit
            if cover:
                flagged |= bit
        closure[i] = reach | 1 << i
        if flagged != reach & ~beyond:
            moved = [(index[y], cover) for y, cover in moves]
            failures.append((
                i, [s for s, cover in moved if cover],
                [s for s, _ in moved if not beyond >> s & 1],
            ))
    failures.reverse()
    return closure, failures


def _audit_oracle(elements: list[OneLine]) -> list[tuple[int, int, int]]:
    """(index, formula length, oracle length) of every element where the
    two differ, in element order; verify formats only those it lists."""
    return [
        (i, ln, computed) for i, x in enumerate(elements)
        if (ln := length(x)) != (computed := oracle_length(x))
    ]
