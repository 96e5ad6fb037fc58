"""Hasse diagrams: their ranks, intervals, exports and the JSON reload.

The reload reads no move code: this module imports elements, length,
containment and campaign, never moves.  HasseDiagram is a named tuple:
immutable, compared and copied (_replace) as a tuple of its fields.
"""

import json
from bisect import bisect_left
from types import SimpleNamespace
from typing import NamedTuple

from .campaign import _ENUMERATE, MAX_N, _campaign, _check_size, _paused_gc, _run
from .containment import _containment_covers
from .elements import OneLine
from .length import length

__all__ = ["HasseDiagram", "rank_sizes", "interval", "export_dot", "export_json", "hasse_from_json"]


class HasseDiagram(NamedTuple):
    """Graded order diagram: nodes carry (id, element, length) and edges
    point from the lower element of each covering pair to the upper one.
    Ids are dense from 0 in lexicographic element order, which is a
    linear extension of the order, and edges are sorted by lower id."""

    n: int
    nodes: tuple[tuple[int, OneLine, int], ...]
    edges: tuple[tuple[int, int], ...]


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
