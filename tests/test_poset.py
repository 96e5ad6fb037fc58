import ast
import gc
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rookorder import (
    HasseDiagram,
    OneLine,
    VerificationReport,
    containment,
    moves,
    poset,
    build_hasse,
    covers_of,
    deodhar_leq,
    export_dot,
    export_json,
    hasse_from_json,
    interval,
    length,
    rank_sizes,
    verify,
)

from helpers import (
    DEFECTS,
    FAULTS,
    LISTS,
    ZERO3,
    brute_cover_sets,
    deodhar_matrix,
    elements_of,
    inject,
    kernel_moves,
    reference_export_json,
    reference_interval,
    reflagged,
)

R2_EDGES = [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6), (5, 6)]


def test_hasse_r1():
    h = build_hasse(1)
    assert [(node[1].entries, node[2]) for node in h.nodes] == [((0,), 0), ((1,), 1)]
    assert h.edges == ((0, 1),)


def test_hasse_r2():
    h = build_hasse(2)
    assert len(h.nodes) == 7
    assert list(h.edges) == R2_EDGES
    assert [node[1].entries for node in h.nodes] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
    ]


def test_hasse_node_ids_and_lengths():
    h = build_hasse(3)
    for ident, el, ln in h.nodes:
        assert h.nodes[ident][0] == ident
        assert ln == length(el)


def test_hasse_rejects_out_of_range():
    # Only a true int is a size: a bool, float or string is refused too.
    for n in (0, 7, True, 2.0, "3", None):
        with pytest.raises(ValueError):
            build_hasse(n)


def test_hasse_deterministic():
    a, b = build_hasse(3), build_hasse(3)
    assert a == b
    assert export_json(a) == export_json(b)
    assert export_dot(a) == export_dot(b)


def test_rank_sizes():
    assert rank_sizes(build_hasse(1)) == [1, 1]
    assert rank_sizes(build_hasse(2)) == [1, 1, 2, 2, 1]
    sizes3 = rank_sizes(build_hasse(3))
    assert len(sizes3) == 10
    assert sum(sizes3) == 34
    assert sizes3[0] == sizes3[-1] == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hasse_is_graded_with_full_chain(n):
    h = build_hasse(n)
    for lo, hi in h.edges:
        assert h.nodes[hi][2] == h.nodes[lo][2] + 1
    # longest chain climbs one length step at a time from 0 to n^2
    depth = [0] * len(h.nodes)
    for lo, hi in h.edges:  # edges arrive sorted, sources before targets
        depth[hi] = max(depth[hi], depth[lo] + 1)
    assert max(depth) == n * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_edge_reachability_recovers_order(n):
    h = build_hasse(n)
    els = elements_of(n)
    rows = deodhar_matrix(n)
    up = [1 << i for i in range(len(els))]
    for lo, hi in sorted(h.edges, key=lambda e: h.nodes[e[1]][2], reverse=True):
        up[lo] |= up[hi]
    assert up == list(rows)


def test_interval_single_point():
    h = build_hasse(2)
    x = OneLine((1, 2))
    sub = interval(h, x, x)
    assert len(sub.nodes) == 1
    assert sub.edges == ()
    assert sub.nodes[0][1] == x


def test_interval_full_r2():
    h = build_hasse(2)
    sub = interval(h, OneLine((0, 0)), OneLine((2, 1)))
    assert len(sub.nodes) == 7
    assert list(sub.edges) == R2_EDGES


def test_interval_proper():
    h = build_hasse(2)
    sub = interval(h, OneLine((0, 1)), OneLine((2, 1)))
    members = {node[1].entries for node in sub.nodes}
    assert (0, 0) not in members
    assert (2, 1) in members
    for lo, hi in sub.edges:
        assert sub.nodes[hi][2] == sub.nodes[lo][2] + 1


def test_interval_rejects_bad_endpoints():
    h = build_hasse(2)
    with pytest.raises(ValueError):
        interval(h, OneLine((2, 0)), OneLine((1, 2)))  # incomparable
    with pytest.raises(ValueError):
        interval(h, OneLine((1, 2)), OneLine((0, 0)))  # wrong way round
    with pytest.raises(ValueError):
        interval(h, OneLine((1, 2, 3)), OneLine((3, 2, 1)))  # not members


def test_interval_r4_is_the_containment_interval():
    h = build_hasse(4)
    els = elements_of(4)
    rng = random.Random(4)
    checked = 0
    while checked < 50:
        x, y = rng.choice(els), rng.choice(els)
        if not deodhar_leq(x, y):
            continue
        sub = interval(h, x, y)
        between = {z.entries for z in els if deodhar_leq(x, z) and deodhar_leq(z, y)}
        assert {node[1].entries for node in sub.nodes} == between
        assert interval(sub, x, y) == sub
        checked += 1


def test_interval_of_a_loaded_diagram_follows_its_edges():
    # Both ends of R_2 and no edge: the loader accepts it, since 0,0 < 2,1
    # is no cover, but no path of the diagram joins the two.
    doc = {"n": 2, "edges": [], "nodes": [
        {"id": 0, "oneline": "0,0", "length": 0},
        {"id": 1, "oneline": "2,1", "length": 4},
    ]}
    h = hasse_from_json(json.dumps(doc))
    with pytest.raises(ValueError):
        interval(h, OneLine((0, 0)), OneLine((2, 1)))
    assert interval(h, OneLine((2, 1)), OneLine((2, 1))).nodes == ((0, OneLine((2, 1)), 4),)
    # It raises and accepts where the scan over all edges does, also on
    # an element that is no node and on one of the wrong size.
    ends = [OneLine((0, 0)), OneLine((2, 1)), OneLine((1, 2)), OneLine((0, 0, 0))]
    for x in ends:
        for y in ends:
            try:
                expected = reference_interval(h, x, y)
            except ValueError:
                with pytest.raises(ValueError):
                    interval(h, x, y)
            else:
                assert interval(h, x, y) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_export_json_is_the_encoder_output_of_a_full_diagram(n):
    h = build_hasse(n)
    assert export_json(h) == reference_export_json(h)


def test_export_json_is_the_encoder_output_of_intervals_and_the_empty_diagram():
    h2, h4 = build_hasse(2), build_hasse(4)
    point = interval(h2, OneLine((1, 2)), OneLine((1, 2)))
    r4 = interval(h4, OneLine((0, 1, 0, 0)), OneLine((3, 4, 0, 2)))
    empty = hasse_from_json('{"n": 2, "nodes": [], "edges": []}')
    assert point.edges == () and r4.edges and empty.nodes == ()
    for h in (point, r4, empty):
        assert export_json(h) == reference_export_json(h)


def test_interval_equals_the_whole_edge_scan_on_r3():
    h, els, rows = build_hasse(3), elements_of(3), deodhar_matrix(3)
    pairs = [(x, y) for x, row in zip(els, rows) for j, y in enumerate(els) if row >> j & 1]
    assert len(pairs) == 441
    for x, y in pairs:
        assert interval(h, x, y) == reference_interval(h, x, y)


def test_interval_equals_the_whole_edge_scan_on_r5():
    h, els, rows = build_hasse(5), elements_of(5), deodhar_matrix(5)
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        i, j = rng.randrange(len(els)), rng.randrange(len(els))
        if rows[i] >> j & 1:
            assert interval(h, els[i], els[j]) == reference_interval(h, els[i], els[j])
            checked += 1


def test_json_round_trip():
    h = build_hasse(2)
    payload = export_json(h)
    data = json.loads(payload)
    assert data["n"] == 2
    assert len(data["nodes"]) == 7
    assert data["nodes"][1] == {"id": 1, "oneline": "0,1", "length": 1}
    assert sorted(map(tuple, data["edges"])) == R2_EDGES
    assert payload.endswith("\n")
    assert hasse_from_json(payload) == h


R2_DOC = json.loads(export_json(build_hasse(2)))


def _edited(**changes):
    doc = json.loads(json.dumps(R2_DOC))
    doc.update(changes)
    return doc


def _with_node(index, **changes):
    nodes = json.loads(json.dumps(R2_DOC["nodes"]))
    nodes[index].update(changes)
    return _edited(nodes=nodes)


def _with_onelines_swapped(a, b):
    nodes = json.loads(json.dumps(R2_DOC["nodes"]))
    nodes[a]["oneline"], nodes[b]["oneline"] = nodes[b]["oneline"], nodes[a]["oneline"]
    return _edited(nodes=nodes)


@pytest.mark.parametrize("doc", [
    [],
    {"n": 2},
    {"n": 2, "nodes": [{"id": 0}], "edges": []},
    {"n": 2, "nodes": [], "edges": [[0, 1]]},
    _edited(extra=1),
    _edited(n="2"),
    _edited(n=0),
    _edited(n=3),
    _edited(nodes={}),
    _edited(edges=[[0, 1, 2]]),
    _edited(edges=[[0, 7]]),
    _edited(edges=[[-1, 0]]),
    _edited(edges=[[0, True]]),
    _edited(edges=[["0", "1"]]),
    _with_node(0, id=1),
    _with_node(3, id=True),
    _with_node(1, oneline="0,1,0"),
    _with_node(1, oneline="2,2"),
    _with_node(1, oneline=1),
    _with_node(1, length=2),
    _with_node(1, length=1.0),
    _with_node(1, extra=0),
    _with_node(1, oneline="0,0", length=0),
    _with_onelines_swapped(2, 3),
    _edited(edges=R2_DOC["edges"] + [[0, 6]]),  # 0,0 < 2,1 is no cover
    _edited(edges=R2_DOC["edges"][1:]),  # the cover 0,0 < 0,1 dropped
    _edited(edges=[[1, 0]] + R2_DOC["edges"][1:]),  # that cover reversed
    _edited(edges=R2_DOC["edges"][::-1]),  # every cover, out of order
    _with_node(0, oneline="00"),  # parse_one_line reads these three as 0,0,
    _with_node(0, oneline="(0,0)"),  # but export_json writes none of them
    _with_node(0, oneline=" 0, 0 "),
    _with_node(1, oneline="0,\u0661"),  # a non-ASCII digit one
    _with_node(1, oneline="+0,1"),
    _with_node(1, oneline="0,1,"),
    _with_node(1, id=True),  # equal to the right id and length of node 1,
    _with_node(1, length=True),  # but not of type int
    _with_node(1, oneline=[0, 1]),  # unhashable
    _edited(edges=[[0, True]] + R2_DOC["edges"][1:]),  # equal to the covers,
    _edited(edges=[[0, 1.0]] + R2_DOC["edges"][1:]),  # but not a pair of ints
])
def test_hasse_from_json_rejects_bad_documents(doc):
    with pytest.raises(ValueError):
        hasse_from_json(json.dumps(doc))


@pytest.mark.parametrize("n", [0, 7, True, 2.0, "3"])
def test_hasse_from_json_refuses_n_through_the_size_rule(n):
    with pytest.raises(ValueError) as caught:
        hasse_from_json(json.dumps(_edited(n=n)))
    assert str(caught.value) == "diagram supports n in 1..6"


def test_hasse_from_json_rejects_deep_nesting():
    with pytest.raises(ValueError):
        hasse_from_json("[" * 100_000)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
NODE_LIKE = st.fixed_dictionaries(
    {"id": st.integers(-1, 8), "oneline": st.text("0123,", max_size=5), "length": st.integers(-1, 5)}
)
DIAGRAM_LIKE = st.fixed_dictionaries({
    "n": st.integers(-1, 7) | JSON_VALUES,
    "nodes": st.lists(NODE_LIKE | JSON_VALUES, max_size=8) | JSON_VALUES,
    "edges": st.lists(st.lists(st.integers(-1, 8), max_size=3) | JSON_VALUES, max_size=8),
})


@given(st.text() | JSON_VALUES.map(json.dumps) | DIAGRAM_LIKE.map(json.dumps))
def test_hasse_from_json_raises_only_value_error(text):
    try:
        hasse_from_json(text)
    except ValueError:
        pass


def _loaded_covers(nodes):
    """The covers the reload checks edges against: containment rows cut
    at the next length."""
    return containment._containment_covers(list(nodes))


@lru_cache(maxsize=None)
def _full_diagram(n):
    """build_hasse(n)'s edges, and the node id of each element."""
    h = build_hasse(n)
    return h.edges, {e: i for i, e, _ in h.nodes}


def _kernel_covers(nodes):
    """The covers build_hasse writes, the move kernel's covers, between
    the nodes' elements, relabelled to the nodes' positions.  The nodes
    are in element order, so the relabelled edges stay sorted."""
    if not nodes:
        return []
    edges, ids = _full_diagram(nodes[0][1].n)
    position = {ids[e]: k for k, (_, e, _) in enumerate(nodes)}
    return [(position[lo], position[hi]) for lo, hi in edges if lo in position and hi in position]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_level_sliced_covers_are_the_kernel_covers_of_r_n(n):
    h = build_hasse(n)
    assert _loaded_covers(h.nodes) == _kernel_covers(h.nodes) == list(h.edges)


def test_level_sliced_covers_are_the_kernel_covers_of_every_r3_interval():
    h, els, rows = build_hasse(3), elements_of(3), deodhar_matrix(3)
    checked = 0
    for x, row in zip(els, rows):
        for j, y in enumerate(els):
            if row >> j & 1:
                sub = interval(h, x, y)
                assert _loaded_covers(sub.nodes) == _kernel_covers(sub.nodes) == list(sub.edges)
                checked += 1
    assert checked == 441


def test_level_sliced_covers_are_the_kernel_covers_of_r5_intervals():
    h, els, rows = build_hasse(5), elements_of(5), deodhar_matrix(5)
    rng = random.Random(21)
    checked = 0
    while checked < 200:
        i, j = rng.randrange(len(els)), rng.randrange(len(els))
        if rows[i] >> j & 1:
            sub = interval(h, els[i], els[j])
            assert _loaded_covers(sub.nodes) == _kernel_covers(sub.nodes) == list(sub.edges)
            checked += 1


def test_level_sliced_covers_are_the_kernel_covers_of_non_convex_node_sets():
    # The two ends of R_2, the node set of
    # test_interval_of_a_loaded_diagram_follows_its_edges, then seeded
    # random subsets of R_4, which are rarely convex.
    ends = ((0, OneLine((0, 0)), 0), (1, OneLine((2, 1)), 4))
    assert _loaded_covers(ends) == _kernel_covers(ends) == []
    nodes = build_hasse(4).nodes
    rng = random.Random(4)
    for size in (2, 10, 50, 100, 150, 200):
        for _ in range(5):
            kept = sorted(rng.sample(range(len(nodes)), size))
            sub = tuple((new, nodes[old][1], nodes[old][2]) for new, old in enumerate(kept))
            assert _loaded_covers(sub) == _kernel_covers(sub)


COVER_FLAG_FAULTS = {
    # The cover 0,0,0,0 < 0,0,0,1 left out of the covers.
    "dropped": lambda a, y, cover: cover and (a, y) != ((0, 0, 0, 0), (0, 0, 0, 1)),
    # The move 0,0,0,0 -> 0,0,0,2, below 0,0,0,1, listed as a cover.
    "flipped": lambda a, y, cover: cover or (a, y) == ((0, 0, 0, 0), (0, 0, 0, 2)),
}


@pytest.mark.parametrize("fault", COVER_FLAG_FAULTS)
def test_reload_catches_a_kernel_cover_error_that_is_consistent_with_itself(monkeypatch, fault):
    good = build_hasse(4)
    inject(monkeypatch, moves, "_moves", lambda real: reflagged(real, COVER_FLAG_FAULTS[fault]))
    h = build_hasse(4)
    assert len(set(h.edges) ^ set(good.edges)) == 1
    with pytest.raises(ValueError, match="covering pairs"):
        hasse_from_json(export_json(h))


COVER_FLAG_ENTRIES = {
    "dropped": ["0,0,0,0", [], ["0,0,0,1"]],
    "flipped": ["0,0,0,0", ["0,0,0,1", "0,0,0,2"], ["0,0,0,1"]],
}


@pytest.mark.parametrize("fault", COVER_FLAG_FAULTS)
def test_verify_lists_a_kernel_cover_error_with_both_sides(monkeypatch, fault):
    # The kernel's and the brute covers are compared as index lists and listed
    # only for an element that fails: here one, with both sides in element
    # order, as the kernel's ascending keys give them.
    inject(monkeypatch, moves, "_moves", lambda real: reflagged(real, COVER_FLAG_FAULTS[fault]))
    report = verify(4)
    assert report.cover_mismatch_count == 1
    assert report.cover_mismatches == [COVER_FLAG_ENTRIES[fault]]
    assert [key for key in LISTS if getattr(report, key)] == ["cover_mismatches"]


def test_reload_reads_no_move_code(monkeypatch):
    # Statically, so that no warm cache hides a read, then at run time,
    # with every function defined in moves, and poset's binding of each,
    # refused.
    assert {where[0] for where in _reached("poset", "hasse_from_json")} & {"moves", "order"} == set()
    h = build_hasse(5)
    text = export_json(h)
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("the reload may read no move code")

    for name, value in list(vars(moves).items()):
        if callable(value) and getattr(value, "__module__", None) == moves.__name__:
            monkeypatch.setattr(moves, name, refuse)
            if getattr(poset, name, None) is value:
                monkeypatch.setattr(poset, name, refuse)
    assert not [name for name, value in vars(poset).items()
                if getattr(value, "__module__", None) == moves.__name__]
    assert hasse_from_json(text) == h
    assert calls == []


def test_the_reload_refuses_a_containment_route_that_raises_as_a_defect(monkeypatch):
    # A ValueError is a bad document; the same error from the containment
    # route is a defect of the code, so the reload of a correct diagram
    # refuses it with DefectError, named as its step.
    text = export_json(build_hasse(3))

    def raising(lower, upper):
        raise ValueError("translation table must be 256 characters long")

    monkeypatch.setattr(containment, "_containment_rows", raising)
    with pytest.raises(poset.DefectError) as caught:
        hasse_from_json(text)
    assert str(caught.value) == (
        "reload found phase_errors: 1; the first is containment: "
        "ValueError: translation table must be 256 characters long"
    )
    # A bad document is still refused as one, before the route runs.
    with pytest.raises(ValueError):
        hasse_from_json(text.replace('"n": 3', '"n": 7'))


def test_the_reload_refuses_a_defective_enumeration_as_a_defect(monkeypatch):
    # The reload matches the nodes against the enumeration only after its
    # check, so a correct diagram of R_3 without the identity 1,2,3 in the
    # enumeration is a defect, in build_hasse's words, not a bad node 17.
    text = export_json(build_hasse(3))
    inject(monkeypatch, *DEFECTS["dropped identity"][:3])
    with pytest.raises(poset.DefectError) as caught:
        hasse_from_json(text)
    assert str(caught.value) == (
        "reload found enumeration_failures: 1; the first is element count: 33, expected 34"
    )

    def raising(n):
        raise RuntimeError("enumeration stand-in")

    monkeypatch.setattr(poset, "enumerate_elements", raising)
    with pytest.raises(poset.DefectError) as caught:
        hasse_from_json(text)
    assert str(caught.value) == (
        "reload found phase_errors: 1; the first is enumerate: RuntimeError: enumeration stand-in"
    )


@pytest.mark.parametrize("defect", DEFECTS)
def test_the_reload_refuses_an_enumeration_defect_as_build_hasse_does(monkeypatch, defect):
    # Both run verify's enumerate phase first and refuse its failures alike;
    # the reload runs no walk, so a kernel defect leaves it a correct diagram.
    h = build_hasse(3)
    text = export_json(h)
    module, name, fault, _ = DEFECTS[defect]
    inject(monkeypatch, module, name, fault)
    with pytest.raises(poset.DefectError) as built:
        build_hasse(3)
    if name == "enumerate_elements":
        with pytest.raises(poset.DefectError) as reloaded:
            hasse_from_json(text)
        assert str(reloaded.value) == str(built.value).replace("hasse found", "reload found", 1)
    else:
        assert hasse_from_json(text) == h


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_whole_monoid_operations_leave_no_cyclic_garbage(monkeypatch, n):
    # They run with the collector paused (poset._paused_gc), which loses
    # nothing only while what they allocate holds no reference cycle.  The
    # young collection that each runs on its way out would free any cycle
    # made during the call, so what every collection frees is counted,
    # that one included.  The last run catches an exception inside a
    # phase, which must leave no cycle either.
    freed = []

    def count(phase, info):
        if phase == "stop":
            freed.append(info["collected"])

    text = export_json(build_hasse(n))
    gc.callbacks.append(count)
    try:
        for operation, args in [(build_hasse, (n,)), (hasse_from_json, (text,)), (verify, (n,)),
                                (verify, (n, 500, 3)), (_verify_raising, (monkeypatch, n))]:
            gc.collect()
            freed.clear()
            operation(*args)
            assert gc.collect() == 0 and freed and not any(freed), (operation.__name__, freed)
    finally:
        gc.callbacks.remove(count)


def _verify_raising(monkeypatch, n):
    """verify(n) with a containment route that raises, as reported."""
    def refuse(lower, upper):
        raise ValueError("containment refused")

    monkeypatch.setattr(poset, "_containment_rows", refuse)
    report = verify(n)
    assert report.phase_errors == [["containment", "ValueError", "containment refused"]]


def _defective_hasse(monkeypatch):
    inject(monkeypatch, *DEFECTS["dropped zero element"][:3])
    build_hasse(3)


OUTCOMES = {
    # The diagram of R_4 holds over 1 000 tracked objects, so a young
    # collection left pending at the return would show in the count.
    "healthy": (lambda monkeypatch: build_hasse(4), None),
    "refusal": (lambda monkeypatch: verify(7), ValueError),
    "defect": (_defective_hasse, poset.DefectError),
    "raising phase": (lambda monkeypatch: _verify_raising(monkeypatch, 4), None),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", OUTCOMES)
def test_the_collector_is_handed_back_as_it_was_on_every_exit(monkeypatch, outcome, enabled):
    operation, error = OUTCOMES[outcome]
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            operation(monkeypatch)
            raised = None
        except (ValueError, poset.DefectError) as exc:
            raised = type(exc)
        young = gc.get_count()[0]
        assert raised is error
        assert gc.isenabled() is enabled
        if enabled:
            # The young collection that the pause put off ran before the
            # return, not at one of the caller's next allocations.
            assert young < gc.get_threshold()[0]
    finally:
        gc.enable()


PACKAGE = Path(poset.__file__).parent


@lru_cache(maxsize=None)
def _bindings(module: str) -> dict:
    """The module-level names of the package module: a def, class or
    assignment maps to its node, a name imported from a package module to
    (that module, the name), or to (that module, None) for the module
    itself, and a name imported from elsewhere to None.  The package
    imports itself only relatively (IMPORTS refuses any other import)."""
    bindings = {}
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bindings.update((alias.asname or alias.name, _imported(node, alias)) for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bindings[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bindings.update((t.id, node) for target in targets for t in ast.walk(target)
                            if isinstance(t, ast.Name))
    return bindings


def _imported(node, alias):
    if not isinstance(node, ast.ImportFrom) or node.level == 0:
        return None
    return (node.module, alias.name) if node.module else (alias.name, None)


def _reached(module: str, name: str) -> set:
    """Every (module, name) of the package that module.name refers to, by
    name or by an import in its body, through any chain of module-level
    names, itself included; (module, None) is a module object."""
    seen, todo = set(), [(module, name)]
    while todo:
        where = todo.pop()
        if where in seen:
            continue
        seen.add(where)
        binding = _bindings(where[0]).get(where[1]) if where[1] else None
        if isinstance(binding, tuple):
            todo.append(binding)
        elif binding is not None:
            for node in ast.walk(binding):
                if isinstance(node, ast.Name) and node.id in _bindings(where[0]):
                    todo.append((where[0], node.id))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    todo += [i for alias in node.names if (i := _imported(node, alias))]
    return seen


def test_verify_build_hasse_and_the_reload_run_their_steps_through_one_guard():
    # poset.py catches every Exception in one place, the step runner _run,
    # and each whole-monoid operation reaches it.
    tree = ast.parse((PACKAGE / "poset.py").read_text())
    catch_all = [handler for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
                 and (handler.type is None or ast.unparse(handler.type) in ("Exception", "BaseException"))]
    run = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_run")
    assert len(catch_all) == 1 and catch_all[0] in ast.walk(run)
    for name in ("verify", "build_hasse", "hasse_from_json"):
        assert ("poset", "_run") in _reached("poset", name), name


def test_the_route_phases_of_verify_reach_no_code_of_the_other_route():
    # Every phase reads the one state of the campaign; the containment
    # phase reads the closure rows there as data, never the code behind them.
    reached = {name: {module for module, _ in _reached("poset", name)}
               for name in ("_walked", "_closure", "_containment")}
    assert "moves" in reached["_walked"] & reached["_closure"] and "containment" in reached["_containment"]
    for name in ("_walked", "_closure"):
        assert reached[name] & {"containment", "length", "oracle", "order"} == set(), name
    assert reached["_containment"] & {"moves", "order"} == set()


# The package modules that each module of the package may import: every
# route imports only elements, so no route reads another's code.
IMPORTS = {
    "elements": set(),
    "length": {"elements"},
    "oracle": {"elements"},
    "containment": {"elements"},
    "moves": {"elements"},
    "order": {"containment", "moves"},
    "poset": {"elements", "length", "oracle", "containment", "moves"},
    "cli": {"elements", "length", "oracle", "order", "poset"},
    "__init__": {"elements", "length", "oracle", "order", "poset"},
    "__main__": {"cli"},
}


def _import_faults(module: str, source: str) -> list[str]:
    """What the import rule refuses in the source of a package module: a
    module with no row in IMPORTS, a relative import of a package module
    outside its row, or an absolute import of anything but a top module of
    the standard library (the package itself included)."""
    if module not in IMPORTS:
        return [f"{module} has no row"]
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if getattr(node, "module", None) else [alias.name for alias in node.names]
            allowed = IMPORTS[module] if getattr(node, "level", 0) else sys.stdlib_module_names
            faults += [f"{module} imports {name}" for name in names if name.split(".")[0] not in allowed]
    return faults


def test_every_module_imports_only_what_its_row_allows():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert sources.keys() == IMPORTS.keys()
    assert [fault for module, source in sources.items() for fault in _import_faults(module, source)] == []
    # The facade defines nothing: every name of it is a route's.
    assert not [node for node in ast.walk(ast.parse(sources["order"]))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))]


def test_the_import_rule_refuses_a_crossing_import_and_a_module_without_a_row():
    source = (PACKAGE / "containment.py").read_text()
    assert _import_faults("containment", source) == []
    assert _import_faults("containment", source + "from .moves import _key\n") == ["containment imports moves"]
    assert _import_faults("moves", "import numpy\n") == ["moves imports numpy"]
    assert _import_faults("completion", "from .elements import OneLine\n") == ["completion has no row"]


def test_json_round_trip_of_an_r4_interval():
    sub = interval(build_hasse(4), OneLine((0, 1, 0, 0)), OneLine((3, 4, 0, 2)))
    assert len(sub.nodes) > 20 and sub.edges
    assert hasse_from_json(export_json(sub)) == sub


def _grown_interval(x, y):
    """The diagram of the interval [x, y], grown from x along covers that
    stay below y, so that no full diagram of R_n is built."""
    members, todo = {x.entries}, [x]
    while todo:
        for z in covers_of(todo.pop()):
            if z.entries not in members and deodhar_leq(z, y):
                members.add(z.entries)
                todo.append(z)
    nodes = tuple((i, e, length(e)) for i, e in enumerate(map(OneLine, sorted(members))))
    ids = {e.entries: i for i, e, _ in nodes}
    edges = tuple(sorted(
        (i, ids[z.entries]) for i, e, _ in nodes for z in covers_of(e) if z.entries in ids
    ))
    return HasseDiagram(x.n, nodes, edges)


def test_json_round_trip_of_an_r6_interval():
    x, y = OneLine((0, 0, 1, 0, 0, 2)), OneLine((2, 3, 0, 1, 0, 4))
    sub = _grown_interval(x, y)
    assert len(sub.nodes) == 250 and sub.edges
    assert hasse_from_json(export_json(sub)) == sub
    assert interval(sub, x, y) == sub


def test_reload_names_the_first_difference():
    # Node 3 of R_2 is 1,0, of length 2, and edge 5 is its cover 1,2.
    doc = _with_node(3, length=3)
    with pytest.raises(ValueError, match=r'^node 3 must be \{"id": 3, "oneline": "1,0", "length": 2\}$'):
        hasse_from_json(json.dumps(doc))
    assert R2_DOC["edges"][5] == [3, 4]
    doc = _edited(edges=R2_DOC["edges"][:5] + R2_DOC["edges"][6:])
    with pytest.raises(ValueError, match=r"^edge 5 must be \[3, 4\], .*covering pairs"):
        hasse_from_json(json.dumps(doc))
    doc = _edited(edges=R2_DOC["edges"] + [[0, 6]])
    with pytest.raises(ValueError, match="^10 edges, but the nodes have 9 covering pairs$"):
        hasse_from_json(json.dumps(doc))


def test_dot_output_shape():
    h = build_hasse(2)
    dot = export_dot(h)
    lines = dot.splitlines()
    assert lines[0] == "digraph rook_order_2 {"
    assert lines[-1] == "}"
    assert sum(1 for l in lines if "->" in l) == len(h.edges)
    assert 'label="0,1 (1)"' in dot


def test_verify_small_exhaustive():
    r1 = verify(1)
    assert r1.passed
    assert r1.mode == "exhaustive"
    assert r1.pairs_checked == 4
    r2 = verify(2)
    assert r2.passed
    assert r2.pairs_checked == 49
    assert r2.mismatches == []
    assert r2.cover_mismatches == []
    assert r2.oracle_mismatches == []


def test_verify_sampled():
    r = verify(2, sample_count=500, seed=7)
    assert r.passed
    assert r.mode == "sampled"
    assert r.seed == 7
    assert r.pairs_checked == 500


def test_verify_sampled_is_seed_deterministic():
    a = verify(3, sample_count=200, seed=11).to_dict()
    b = verify(3, sample_count=200, seed=11).to_dict()
    for timing in ("elapsed", "phases"):
        del a[timing], b[timing]
    assert a == b
    assert a["passed"]


def test_verify_sampled_audits_the_oracle_on_every_element(monkeypatch):
    calls = []
    real = poset.oracle_length
    monkeypatch.setattr(poset, "oracle_length", lambda x: calls.append(x) or real(x))
    assert verify(5, sample_count=1000).passed
    assert len(calls) == len(set(calls)) == 1546


def test_verify_sampled_audits_covers_on_every_element_of_r6(monkeypatch):
    calls = []
    inject(monkeypatch, moves, "_moves", lambda real: lambda a, key: calls.append(a) or (real(a, key)[0], []))
    report = verify(6, sample_count=1)
    assert len(calls) == len(set(calls)) == 13327
    # every element but the top has a cover that the stub leaves out;
    # the report counts them all and lists the first 1 000 in element order
    assert report.cover_mismatch_count == 13326
    assert len(report.cover_mismatches) == 1000
    assert [x for x, _, _ in report.cover_mismatches] == [str(e) for e in elements_of(6)[:1000]]


@pytest.mark.parametrize("run", [build_hasse, verify])
def test_each_whole_monoid_pass_reads_the_kernel_once_per_element(monkeypatch, run):
    calls = []
    inject(monkeypatch, moves, "_moves", lambda real: lambda a, key: calls.append(a) or real(a, key))
    run(5)
    assert len(calls) == len(set(calls)) == 1546
    assert set(calls) == {e.entries for e in elements_of(5)}


def test_verify_exhaustive_spot_checks_the_search_on_spread_pairs(monkeypatch):
    calls = []
    real = poset.ppr_leq
    monkeypatch.setattr(poset, "ppr_leq", lambda x, y: calls.append(x) or real(x, y))
    assert verify(4).passed
    assert 200 <= len(calls) <= 400
    assert len(set(calls)) > 1


MISMATCH_LISTS = ("mismatches", "search_mismatches", "cover_mismatches", "oracle_mismatches")
# Every ordered pair, or 5 000 seeded random pairs of R_3's 1 156.
CAMPAIGNS = [pytest.param(None, id="exhaustive"), pytest.param(5000, id="sampled")]
COUNTS = {
    "mismatches": "mismatch_count",
    "cover_mismatches": "cover_mismatch_count",
    "oracle_mismatches": "oracle_mismatch_count",
    "move_failures": "move_failure_count",
    "enumeration_failures": "enumeration_failure_count",
}
FIRST_ENTRY = {
    "mismatches": ["0,0,0", "3,2,1", False, True],
    "cover_mismatches": ["0,0,0", [], ["0,0,1"]],
    "oracle_mismatches": ["3,2,1", 9, 10],
}


@pytest.mark.parametrize("sample_count", CAMPAIGNS)
@pytest.mark.parametrize("target", MISMATCH_LISTS)
def test_verify_routes_each_fault_to_its_own_list(monkeypatch, sample_count, target):
    inject(monkeypatch, *FAULTS[target])
    report = verify(3, sample_count, seed=0).to_dict()
    assert [key for key in LISTS if report[key]] == [target]
    assert report["passed"] is False
    if target in FIRST_ENTRY:
        assert report[target][0] == FIRST_ENTRY[target]
    for key, count in COUNTS.items():
        assert report[count] == len(report[key])


@pytest.mark.parametrize("sample_count", CAMPAIGNS)
def test_verify_compares_each_containment_row_as_it_arrives(monkeypatch, sample_count):
    # The containment fault as a one-shot generator: verify may read each
    # row once, in order, and must report exactly what the list gives.
    module, name, fault = FAULTS["mismatches"]
    listed = fault(getattr(module, name))
    monkeypatch.setattr(module, name, listed)
    expected = verify(3, sample_count, seed=0).to_dict()
    monkeypatch.setattr(module, name, lambda lower, upper: (row for row in listed(lower, upper)))
    report = verify(3, sample_count, seed=0).to_dict()
    assert [key for key in LISTS if report[key]] == ["mismatches"]
    assert report["mismatches"][0] == expected["mismatches"][0] == FIRST_ENTRY["mismatches"]
    for count in COUNTS.values():
        assert report[count] == expected[count]


@pytest.mark.parametrize("sample_count", CAMPAIGNS)
@pytest.mark.parametrize("name", ["deodhar_leq", "deodhar_leq_gamma"])
def test_a_deodhar_fault_on_spot_checked_pairs_lands_only_in_mismatches(monkeypatch, name, sample_count):
    real = getattr(poset, name)
    monkeypatch.setattr(poset, name, lambda x, y: not real(x, y))
    report = verify(3, sample_count, seed=0).to_dict()
    assert [key for key in LISTS if report[key]] == ["mismatches"]
    # each per-pair test runs on the spot pairs, and only there: every
    # stride-th ordered pair of R_3, in both campaigns
    space = len(elements_of(3)) ** 2
    spot_checks = len(range(0, space, space // 200))
    assert report["mismatch_count"] == len(report["mismatches"]) == spot_checks
    assert report["mismatches"][0] == ["0,0,0", "0,0,0", False, True]


@pytest.mark.parametrize("sample_count", CAMPAIGNS)
def test_a_wrong_length_lands_only_in_oracle_mismatches(monkeypatch, sample_count):
    # No order route reads a length, so one wrong length is the oracle's alone.
    real = poset.length
    monkeypatch.setattr(poset, "length", lambda x: 10 if x == ZERO3 else real(x))
    report = verify(3, sample_count, seed=0).to_dict()
    assert [key for key in LISTS if report[key]] == ["oracle_mismatches"]
    assert report["oracle_mismatches"][0] == ["0,0,0", 10, 0]
    assert report["relation_size"] == 441


@pytest.mark.parametrize("sample_count", [150, 5000])
@pytest.mark.parametrize(("n", "flips"), [(3, 60), (4, 2000)])
def test_sampled_mismatches_are_those_of_the_first_draws_of_the_seed(
    monkeypatch, n, flips, sample_count,
):
    # A multi-bit containment fault: seeded bit flips in the rows.  The
    # sampled pairs are the first sample_count draws of the seeded stream,
    # in order and with replacement, whichever of them are also spot-checked.
    truth, els = deodhar_matrix(n), elements_of(n)
    count = len(els)
    rows = list(truth)
    rng = random.Random(n)
    for _ in range(flips):
        i, j = rng.randrange(count), rng.randrange(count)
        rows[i] ^= 1 << j
    monkeypatch.setattr(poset, "_containment_rows", lambda lower, upper: iter(rows))
    draw = random.Random(3).randrange
    expected = []
    for _ in range(sample_count):
        i, j = divmod(draw(count * count), count)
        if (rows[i] ^ truth[i]) >> j & 1:
            p = bool(truth[i] >> j & 1)
            expected.append([str(els[i]), str(els[j]), not p, p])
    report = verify(n, sample_count, seed=3).to_dict()
    assert expected
    assert report["mismatch_count"] == len(expected)
    assert report["mismatches"] == expected


@pytest.mark.parametrize("sample_count", [150, 5000])
def test_a_healthy_sampled_campaign_draws_only_its_spot_pairs(monkeypatch, sample_count):
    # The spot pairs of a sampled campaign are the exhaustive ones: a healthy
    # run draws nothing from the seed and searches exactly those pairs.
    draws, searched = [], []

    class Spy(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    real = poset.ppr_leq
    monkeypatch.setattr(poset.random, "Random", Spy)
    monkeypatch.setattr(poset, "ppr_leq", lambda x, y: searched.append((x, y)) or real(x, y))
    assert verify(4).passed
    exhaustive = searched[:]
    searched.clear()
    assert verify(4, sample_count, seed=5).passed
    assert draws == []
    assert searched == exhaustive


def test_verify_reports_relation_size_and_phases():
    r4 = verify(4)
    r5 = verify(5, sample_count=1)
    assert (r4.relation_size, r5.relation_size) == (12301, 509662)
    for report in (r4, r5):
        assert list(report.phases) == [
            "enumerate", "walk", "closure", "containment", "pairs", "spot_checks", "oracle",
        ]
        assert all(s >= 0 for s in report.phases.values())
        assert sum(report.phases.values()) == pytest.approx(report.elapsed)
        d = report.to_dict()
        assert (d["relation_size"], d["phases"]) == (report.relation_size, report.phases)


def test_verify_and_build_hasse_run_the_one_walk_phase_once_each(monkeypatch):
    walks = []
    walk = poset._walked
    assert poset._PHASES[1][:2] == ("walk", walk)

    def recorder(c):
        walks.append(c.n)
        walk(c)

    monkeypatch.setattr(poset, "_PHASES", tuple(
        (name, recorder if name == "walk" else function, needs) for name, function, needs in poset._PHASES
    ))
    for run in (verify, build_hasse):
        walks.clear()
        run(3)
        assert walks == [3], run.__name__


def test_verify_build_hasse_and_the_reload_run_the_one_enumerate_phase_once_each(monkeypatch):
    # _ENUMERATE is the first entry of _PHASES, and the only code of poset
    # that calls enumerate_elements; the reload names it alone (see
    # test_reload_reads_no_move_code).
    assert poset._PHASES[0] is poset._ENUMERATE
    assert poset._ENUMERATE[:2] == ("enumerate", poset._enumerate)
    text = export_json(build_hasse(3))
    events = []
    phase, elements = poset._enumerate, poset.enumerate_elements

    def recorder(c):
        events.append("phase")
        phase(c)

    def enumeration(n):
        events.append("elements")
        return elements(n)

    entry = ("enumerate", recorder, ())
    monkeypatch.setattr(poset, "_ENUMERATE", entry)
    monkeypatch.setattr(poset, "_PHASES", (entry, *poset._PHASES[1:]))
    monkeypatch.setattr(poset, "enumerate_elements", enumeration)
    for run, arg in ((verify, 3), (build_hasse, 3), (hasse_from_json, text)):
        events.clear()
        run(arg)
        assert events == ["phase", "elements"], run.__name__


def test_verify_r5_is_exhaustive():
    r = verify(5)
    assert r.passed
    assert (r.mode, r.pairs_checked, r.relation_size, r.mismatch_count) == (
        "exhaustive", 2390116, 509662, 0,
    )


def test_verify_lists_the_first_order_mismatches_and_counts_them_all(monkeypatch):
    # Rows holding only their own bit disagree on every strict pair of R_4.
    monkeypatch.setattr(
        poset, "_containment_rows", lambda lower, upper: [1 << i for i in range(len(lower))],
    )
    report = verify(4)
    assert not report.passed
    assert (report.mismatch_count, len(report.mismatches)) == (12092, 1000)
    assert report.mismatches[0] == ["0,0,0,0", "0,0,0,1", False, True]
    index = {str(e): i for i, e in enumerate(elements_of(4))}
    pairs = [(index[x], index[y]) for x, y, _, _ in report.mismatches]
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_containment_rows_are_the_all_pairs_containment_matrix(n):
    els = list(elements_of(n))
    assert list(containment._containment_rows(els, els)) == list(deodhar_matrix(n))


@pytest.mark.parametrize("n", [4, 5])
def test_containment_rows_of_two_lists_are_the_matrix_cut_to_their_indices(n):
    # Rows follow lower and bit b follows upper[b]: seeded sublists in
    # random order and of different lengths, lower and upper swapped, a
    # one-element upper, and an empty lower.
    els, truth = elements_of(n), deodhar_matrix(n)
    rng = random.Random(n)
    picks = [rng.sample(range(len(els)), size) for size in (40, 90)]
    middle = [rng.randrange(len(els))]
    everything, top = range(len(els)), len(els) - 1
    cases = [
        (picks[0], picks[1]), (picks[1], picks[0]), (sorted(picks[1]), picks[0]),
        (everything, middle), (everything, [0]), (picks[1], [top]), ([], picks[0]),
    ]
    for lower, upper in cases:
        expected = [sum((truth[i] >> j & 1) << b for b, j in enumerate(upper)) for i in lower]
        rows = containment._containment_rows([els[i] for i in lower], [els[j] for j in upper])
        assert list(rows) == expected
    # The one-element upper in the middle splits R_n, so its bit 0 is
    # set on some rows and clear on others.
    below = sum(row >> middle[0] & 1 for row in truth)
    assert 1 < below < len(els)


def test_containment_rows_of_r7_sublists_hold_deodhar_leq():
    # Past MAX_N: each row is checked pair by pair against deodhar_leq on
    # seeded elements of R_7, a random permutation with a random set of
    # entries cleared, lower ones sparser so that both verdicts occur.
    rng = random.Random(7)

    def draw(keep):
        return OneLine(tuple(a if rng.random() < keep else 0 for a in rng.sample(range(1, 8), 7)))

    lower = [draw(0.4) for _ in range(80)]
    upper = [draw(0.7) for _ in range(120)]
    rows = list(containment._containment_rows(lower, upper))
    expected = [sum(deodhar_leq(x, y) << j for j, y in enumerate(upper)) for x in lower]
    assert rows == expected
    assert 0 < sum(row.bit_count() for row in rows) < len(lower) * len(upper)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closure_rows_are_the_all_pairs_containment_matrix(monkeypatch, n):
    # verify scores ppr_leq against these rows, so they may not come from
    # the per-pair search.
    def refuse(*args):
        raise AssertionError("the closure rows may read no per-pair search")

    for name in ("ppr_leq", "_successors"):
        monkeypatch.setattr(moves, name, refuse)
    assert moves._close_moves(*moves._walk(list(elements_of(n)))[:2])[0] == list(deodhar_matrix(n))


def test_each_copy_of_a_repeated_element_gets_its_own_closure_row():
    # Element 5 of R_3, 0,1,2, given twice: the walk indexes its key by the
    # second copy, and each copy's row is the 23 elements above it, moved
    # up one index past the copy, and its own bit.
    els = list(elements_of(3))
    rows = moves._close_moves(*moves._walk(els[:6] + els[5:])[:2])[0]
    above = deodhar_matrix(3)[5] >> 6 << 7
    assert above.bit_count() == 23
    assert (rows[5], rows[6]) == (above | 1 << 5, above | 1 << 6)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brute_covers_read_no_cover_flag(monkeypatch, n):
    # Every move listed as a cover: each element with a non-cover move fails,
    # and its brute side is still the transitive reduction of the order.
    inject(monkeypatch, moves, "_moves", lambda real: lambda a, key: (real(a, key)[0],) * 2)
    report = verify(n)
    els = elements_of(n)
    covers = brute_cover_sets(n)
    with_non_cover = [i for i, e in enumerate(els) if len(kernel_moves(e.entries)) > len(covers[i])]
    assert with_non_cover or n == 1
    assert report.cover_mismatch_count == len(with_non_cover)
    assert [x for x, _, _ in report.cover_mismatches] == [str(els[i]) for i in with_non_cover]
    for i, (_, _, brute) in zip(with_non_cover, report.cover_mismatches):
        assert brute == [str(OneLine(y)) for y in sorted(covers[i])]


@pytest.mark.parametrize("n, size, failing", [(3, 441, 30), (4, 12301, 204), (5, 509662, 1540)])
def test_rows_hold_in_any_move_order_and_the_audit_checks_it(monkeypatch, n, size, failing):
    # Moves walked last to first: no move lies in the rows ORed before it,
    # so every row is ORed and the relation keeps its size, but the brute
    # side is then every move, descending, which no ascending cover list
    # matches once an element has two moves.
    def reversed_moves(real):
        def kernel(a, key):
            found, covers = real(a, key)
            return found[::-1], covers
        return kernel

    inject(monkeypatch, moves, "_moves", reversed_moves)
    report = verify(n)
    assert report.relation_size == size
    assert [key for key in LISTS if getattr(report, key)] == ["cover_mismatches"]
    kernel = {str(e): kernel_moves(e.entries) for e in elements_of(n)}
    with_two_moves = [x for x, above in kernel.items() if len(above) >= 2]
    assert report.cover_mismatch_count == len(with_two_moves) == failing
    assert [x for x, _, _ in report.cover_mismatches] == with_two_moves[:1000]
    for x, _, brute in report.cover_mismatches:
        assert brute == [str(OneLine(y)) for y, _ in reversed(kernel[x])]


def test_containment_rows_of_r5_hold_the_relation():
    els = list(elements_of(5))
    rows = containment._containment_rows(els, els)
    assert sum(row.bit_count() for row in rows) == 509662


def test_verify_rejects_bad_arguments():
    for n in (7, 0, True, 2.0, "3", None):
        with pytest.raises(ValueError):
            verify(n)
    for n, sample_count in [(7, 1), (2, 0), (2, -1), (3, True), (3, False), (3, 2.5), (3, "5")]:
        with pytest.raises(ValueError):
            verify(n, sample_count)
    # An unseeded campaign could not be reproduced, and a report's seed
    # of None marks an exhaustive one.
    for sample_count in (5, None):
        for seed in (None, True, 2.5, "x"):
            with pytest.raises(ValueError, match="seed"):
                verify(3, sample_count, seed=seed)


class WorkRan(Exception):
    pass


def _work(n):
    raise WorkRan


def test_verify_refuses_a_pair_count_outside_the_cap_before_any_work(monkeypatch):
    # The library holds the bound that rookorder verify --sampled prints.
    monkeypatch.setattr(poset, "enumerate_elements", _work)
    cap = poset.SAMPLED_MAX_K
    for sample_count in (0, cap + 1):
        with pytest.raises(ValueError) as caught:
            verify(6, sample_count)
        assert str(caught.value) == f"verify supports --sampled K in 1..{cap}"
    # With both arguments out of bounds, n is refused first.
    with pytest.raises(ValueError) as caught:
        verify(7, 0)
    assert str(caught.value) == "verify supports n in 1..6"
    # At the cap the work starts, and what it raises is reported.
    assert verify(6, cap).phase_errors == [["enumerate", "WorkRan", ""]]


def test_verify_lists_a_memory_error_and_lets_an_interrupt_through(monkeypatch):
    # Every Exception is a phase error, MemoryError included; any other
    # BaseException stops the campaign, and the collector is handed back.
    for error in (MemoryError, KeyboardInterrupt):
        def raising(elements):
            raise error("walk stand-in")

        monkeypatch.setattr(poset, "_walk", raising)
        if error is MemoryError:
            assert verify(3).phase_errors == [["walk", "MemoryError", "walk stand-in"]]
        else:
            with pytest.raises(KeyboardInterrupt):
                verify(3)
        assert gc.isenabled()


def test_records_keep_their_field_order():
    # The report's failure fields are those of _FAILURE_LISTS, in phase order.
    assert HasseDiagram._fields == ("n", "nodes", "edges")
    assert VerificationReport._fields == (
        "n", "mode", "seed", "pairs_checked", "enumeration_failures",
        "enumeration_failure_count", "move_failures", "move_failure_count",
        "cover_mismatches", "cover_mismatch_count", "mismatches",
        "mismatch_count", "search_mismatches", "oracle_mismatches",
        "oracle_mismatch_count", "phase_errors", "relation_size", "phases",
        "elapsed",
    )


def test_report_to_dict_keys_are_the_fields_then_passed():
    d = verify(2).to_dict()
    assert list(d) == [*VerificationReport._fields, "passed"]


def test_report_shape():
    r = verify(2)
    d = r.to_dict()
    assert d["n"] == 2
    assert d["passed"] is True
    assert set(d) >= {"n", "mode", "pairs_checked", "mismatches", "elapsed", "passed"}
    failing = r._replace(mismatches=[["0,0", "1,0", True, False]], mismatch_count=1)
    assert not failing.passed
    assert failing.to_dict()["passed"] is False
