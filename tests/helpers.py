"""Shared test oracles, reference implementations and injected faults.

The oracles here are deliberately naive and independent of the library
code paths they are used to check.
"""

import json
from collections import deque
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial

from rookorder import HasseDiagram, OneLine, campaign, containment, enumerate_elements, length, moves, poset
from rookorder.elements import to_matrix
from rookorder.moves import _key, _moves
from rookorder.campaign import _FAILURE_LISTS

# Every failure list of a verify report, in _FAILURE_LISTS order, so that
# a fault is seen to fill no other.
LISTS = [field for field, *_ in _FAILURE_LISTS]


def closed_form_count(n: int) -> int:
    """Number of n-by-n partial permutation matrices: choose k occupied
    rows, k occupied columns, and a bijection between them."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


@lru_cache(maxsize=None)
def elements_of(n: int) -> tuple[OneLine, ...]:
    return tuple(enumerate_elements(n))


def zero_el(n: int) -> OneLine:
    return OneLine((0,) * n)


def identity_el(n: int) -> OneLine:
    return OneLine(tuple(range(1, n + 1)))


def reversal_el(n: int) -> OneLine:
    return OneLine(tuple(range(n, 0, -1)))


def from_matrix(m: tuple[tuple[int, ...], ...]) -> OneLine:
    """Read the column values off the rows of a 0-1 matrix: the inverse of
    to_matrix."""
    n = len(m)
    entries = []
    for j in range(n):
        hit = 0
        for i in range(n):
            if m[i][j]:
                hit = i + 1
                break
        entries.append(hit)
    return OneLine(tuple(entries))


def matrix_product_01(a, b):
    """Plain triple-loop integer matrix product over tuple-of-tuples."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def unit_matrix(n: int, i: int, j: int):
    return tuple(tuple(int((r, c) == (i, j)) for c in range(n)) for r in range(n))


def row_rank(rows, width: int) -> int:
    """Rank over the rationals by fraction-free integer elimination."""
    m = [list(r) for r in rows]
    pivots = 0
    for col in range(width):
        hit = next((r for r in range(pivots, len(m)) if m[r][col]), None)
        if hit is None:
            continue
        m[pivots], m[hit] = m[hit], m[pivots]
        pivot_row = m[pivots]
        pv = pivot_row[col]
        for r in range(pivots + 1, len(m)):
            f = m[r][col]
            if f:
                row = m[r]
                for c in range(col, width):
                    row[c] = pv * row[c] - f * pivot_row[c]
        pivots += 1
        if pivots == len(m):
            break
    return pivots


def dense_oracle(x: OneLine) -> tuple[int, int, int, int]:
    """Naive reference for the orbit oracle by dense elimination of the
    products E(i,j) * x and x * E(i,j) over the upper-triangular units,
    flattened to integer vectors of length n*n: left rank, right rank,
    meet dimension (by rank of the stacked rows) and the orbit dimension
    left + right - meet."""
    n = x.n
    m = to_matrix(x)
    units = [unit_matrix(n, i, j) for i in range(n) for j in range(i, n)]

    def flat(mat):
        return tuple(v for row in mat for v in row)

    left_rows = tuple(flat(matrix_product_01(u, m)) for u in units)
    right_rows = tuple(flat(matrix_product_01(m, u)) for u in units)
    left, right = row_rank(left_rows, n * n), row_rank(right_rows, n * n)
    meet = left + right - row_rank(left_rows + right_rows, n * n)
    return left, right, meet, left + right - meet


def tuple_inversions(t: tuple[int, ...]) -> int:
    return sum(
        1 for i in range(len(t)) for j in range(i + 1, len(t)) if t[i] > t[j]
    )


def classical_bruhat_leq(u: OneLine, w: OneLine) -> bool:
    """Bruhat order on permutations as the transitive closure of
    inversion-increasing transpositions, pruned by the inversion count."""
    if u.n != w.n:
        raise ValueError("size mismatch")
    target = w.entries
    if u.entries == target:
        return True
    bound = tuple_inversions(target)
    if tuple_inversions(u.entries) >= bound:
        return False
    seen = {u.entries}
    queue = deque((u.entries,))
    while queue:
        cur = queue.popleft()
        for i in range(len(cur)):
            for j in range(i + 1, len(cur)):
                if cur[i] < cur[j]:
                    nxt = list(cur)
                    nxt[i], nxt[j] = nxt[j], nxt[i]
                    t = tuple(nxt)
                    if t == target:
                        return True
                    if t not in seen and tuple_inversions(t) < bound:
                        seen.add(t)
                        queue.append(t)
    return False


@lru_cache(maxsize=None)
def deodhar_matrix(n: int) -> tuple[int, ...]:
    """Bitset rows of the containment order: bit j of row i says
    element i <= element j in lexicographic indexing.

    x <= y when every sorted truncation of x is componentwise at most the
    one of y.  The sorted truncations of each element are laid end to end
    in one key, so x <= y is key(x) <= key(y) at every position p, and
    the row of x is the AND over p of the elements whose key at p is at
    least key(x)[p]."""
    keys = [
        tuple(v for k in range(1, n + 1) for v in sorted(x.entries[:k]))
        for x in elements_of(n)
    ]
    at_least = []
    for p in range(len(keys[0])):
        by_value = [0] * (n + 2)
        for j, key in enumerate(keys):
            by_value[key[p]] |= 1 << j
        for v in range(n, -1, -1):
            by_value[v] |= by_value[v + 1]
        at_least.append(by_value)
    rows = []
    for key in keys:
        bits = (1 << len(keys)) - 1
        for p, v in enumerate(key):
            bits &= at_least[p][v]
        rows.append(bits)
    return tuple(rows)


@lru_cache(maxsize=None)
def brute_cover_sets(n: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """For each element (lexicographic index), the entry tuples of its
    covers, extracted from the order relation alone: y covers x when y is
    strictly above x and the open interval between them is empty."""
    els = elements_of(n)
    count = len(els)
    rows = deodhar_matrix(n)
    strict_up = [rows[i] & ~(1 << i) for i in range(count)]
    strict_down = [0] * count
    for i in range(count):
        bits = strict_up[i]
        while bits:
            low = bits & -bits
            strict_down[low.bit_length() - 1] |= 1 << i
            bits ^= low
    out = []
    for i in range(count):
        covers = set()
        bits = strict_up[i]
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            bits ^= low
            if strict_up[i] & strict_down[j] == 0:
                covers.add(els[j].entries)
        out.append(frozenset(covers))
    return tuple(out)


def reference_moves(a: tuple[int, ...]) -> list[tuple[tuple[int, ...], bool]]:
    """Every single generator move on the entries a, each with its cover
    flag, straight from the definitions: raises position-major with
    values ascending, then swaps in lexicographic (i, j) order."""
    n = len(a)
    out = []
    for i in range(n):
        for b in range(a[i] + 1, n + 1):
            if b not in a:
                out.append((a[:i] + (b,) + a[i + 1:], _raise_is_cover(a, i, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] < a[j]:
                swapped = a[:i] + (a[j],) + a[i + 1:j] + (a[i],) + a[j + 1:]
                out.append((swapped, _swap_is_cover(a, i, j)))
    return out


def key_entries(key: int, n: int) -> tuple[int, ...]:
    """The entries of the element of R_n whose move-kernel key is key,
    read off the documented layout: prefix sums S_1..S_n in fields of
    w = bit_length(n(n + 1)/2) + 1 bits each, S_1 most significant,
    above prefix square sums Q_1..Q_n in fields of q =
    bit_length(n(n + 1)(2n + 1)/6) + 1 bits each, Q_1 most significant.
    The square fields must hold the prefix square sums of the entries
    the sum fields give, and no guard bit may be set."""
    w = (n * (n + 1) // 2).bit_length() + 1
    q = (n * (n + 1) * (2 * n + 1) // 6).bit_length() + 1
    squares = [key >> q * (n - 1 - k) & (1 << q) - 1 for k in range(n)]
    sums = [key >> q * n + w * (n - 1 - k) & (1 << w) - 1 for k in range(n)]
    assert key >> (w + q) * n == 0, "bits above the fields"
    assert all(s >> w - 1 == 0 for s in sums), "sum guard bit set"
    assert all(s >> q - 1 == 0 for s in squares), "square guard bit set"
    entries = tuple(b - a for a, b in zip([0] + sums, sums))
    assert squares == list(accumulate(v * v for v in entries)), "square fields"
    return entries


def kernel_moves(a: tuple[int, ...]) -> list[tuple[tuple[int, ...], bool]]:
    """The move kernel's moves of the entries a, in kernel order, each
    result decoded to its entries by key_entries, with whether the
    kernel lists it among the covers."""
    n = len(a)
    moves, covers = _moves(a, _key(a))
    covers = set(covers)
    return [(key_entries(z, n), z in covers) for z in moves]


def reflagged(real, flag):
    """A stand-in for the move kernel real with the same moves, whose
    covers are the moves z, in kernel order, for which flag(entries,
    result entries, whether real lists z as a cover) holds."""
    def moves(a, key):
        n = len(a)
        keys, covers = real(a, key)
        covers = set(covers)
        return keys, [z for z in keys if flag(a, key_entries(z, n), z in covers)]
    return moves


def inject(monkeypatch, module, name, fault):
    """Set module.name to fault(the real one) for one test.  A kernel
    stand-in is a fault of the walk alone: the search gets a successor
    cache of its own over the real kernel, so no stand-in's moves outlive
    the test in the shared one."""
    real = getattr(module, name)
    if (module, name) == (moves, "_moves"):
        monkeypatch.setattr(moves, "_successors", lru_cache(maxsize=None)(
            lambda key, n: tuple(real(moves._entries(key, n), key)[0])))
    monkeypatch.setattr(module, name, fault(real))


ZERO3, TOP3 = OneLine((0, 0, 0)), OneLine((3, 2, 1))
# One injected fault per failure list of a verify report, by list, as the
# module whose code reads the name it replaces, that name, and a function
# of the real one to its stand-in (see inject).
# Each is wrong in a way that no other check sees: one containment bit on
# a non-cover pair whose upper end is the top, every per-pair search
# verdict, the covers of one element, one oracle value.
FAULTS = {
    "mismatches": (containment, "_containment_rows", lambda real: lambda lower, upper: [
        row & ~(1 << len(upper) - 1) if i == 0 else row for i, row in enumerate(real(lower, upper))
    ]),
    "search_mismatches": (poset, "ppr_leq", lambda real: lambda x, y: not real(x, y)),
    "cover_mismatches": (moves, "_moves", lambda real: reflagged(
        real, lambda a, y, cover: cover and a != ZERO3.entries
    )),
    "oracle_mismatches": (poset, "oracle_length", lambda real: lambda x: real(x) + (x == TOP3)),
}


def edited(edit):
    """A fault of enumerate_elements: the list of real(n)'s elements, as
    edit returns it."""
    return lambda real: lambda n: iter(edit(list(real(n))))


def with_stray_move(real):
    """A stand-in for the move kernel real that also gives the zero
    element the move key 1, which is no element's: its last prefix square
    sum is 1 and every prefix sum 0."""
    def moves(a, key):
        keys, covers = real(a, key)
        return (keys if any(a) else keys + [key + 1]), covers
    return moves


# Injected defects of the two things that both routes of verify read,
# the enumeration and the walk of the move kernel, by name: the (module,
# name) each replaces, a function of the real one to its stand-in, and the
# lists of the verify 3 report it fills, in report order.  Elements 5 and
# 9 of R_3 are 0,1,2 and 0,2,3.  A dropped zero element leaves two
# routes that agree on the rest, so only the count sees it; a dropped
# identity is also a move of its lower covers, which the walk lists.  Each
# copy of a repeated element has its own closure row, so only the
# relations differ there: containment puts each copy below the other.
# Element 5 given again in place of element 6, 0,1,3, keeps the count
# right, so only the strict ascent check names the enumeration; the moves
# onto 0,1,3 are strays, and every route that reaches past it is wrong.  An
# empty enumeration fails its count, and the containment rows, which need
# an element to read n from, raise: a phase error.
DEFECTS = {
    "move key outside R_n": (moves, "_moves", with_stray_move, ["move_failures"]),
    "dropped zero element": (campaign, "enumerate_elements", edited(lambda es: es[1:]), ["enumeration_failures"]),
    "dropped identity": (
        campaign, "enumerate_elements", edited(lambda es: [e for e in es if e.entries != (1, 2, 3)]),
        ["enumeration_failures", "move_failures"],
    ),
    "repeated element": (
        campaign, "enumerate_elements", edited(lambda es: es[:6] + es[5:]),
        ["enumeration_failures", "mismatches"],
    ),
    "element repeated in place of the next": (
        campaign, "enumerate_elements", edited(lambda es: es[:6] + [es[5]] + es[7:]),
        ["enumeration_failures", "move_failures", "cover_mismatches", "mismatches", "search_mismatches"],
    ),
    "two swapped elements": (
        campaign, "enumerate_elements", edited(lambda es: es[:5] + [es[9]] + es[6:9] + [es[5]] + es[10:]),
        ["enumeration_failures", "cover_mismatches", "mismatches"],
    ),
    "empty enumeration": (
        campaign, "enumerate_elements", edited(lambda es: []), ["enumeration_failures", "phase_errors"],
    ),
}


def _raise_is_cover(a: tuple[int, ...], i: int, b: int) -> bool:
    """Type 1: raising position i of a to the unused value b > a[i] is a
    cover exactly when every value strictly between a[i] and b already
    sits to the left of i and, when a[i] == 0, every entry to the right
    of i exceeds b (so in particular no empty column remains after i)."""
    return set(range(a[i] + 1, b)) <= set(a[:i]) and (a[i] > 0 or all(t > b for t in a[i + 1:]))


def _swap_is_cover(a: tuple[int, ...], i: int, j: int) -> bool:
    """Type 2: swapping positions i < j of a, where a[i] < a[j], is a
    cover exactly when no entry strictly between the two positions lies
    in the closed value range [a[i], a[j]]; with a[i] == 0 that bars
    intervening empty columns too."""
    return all(v < a[i] or v > a[j] for v in a[i + 1:j])


def reference_export_json(h: HasseDiagram) -> str:
    """The diagram document written by the standard JSON encoder."""
    doc = {
        "n": h.n,
        "nodes": [
            {"id": i, "oneline": str(e), "length": ln} for i, e, ln in h.nodes
        ],
        "edges": [[lo, hi] for lo, hi in h.edges],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reference_interval(h: HasseDiagram, x: OneLine, y: OneLine) -> HasseDiagram:
    """The sub-diagram between x and y from a dict of all nodes and two
    passes over all edges: the up-set of x forward, the down-set of y
    backward.  Raises ValueError where interval must."""
    index = {e.entries: i for i, e, _ in h.nodes}
    if x.entries not in index or y.entries not in index:
        raise ValueError("endpoints must be nodes of the diagram")
    up, down = {index[x.entries]}, {index[y.entries]}
    for lo, hi in h.edges:
        if lo in up:
            up.add(hi)
    if index[y.entries] not in up:
        raise ValueError("endpoints are incomparable or reversed")
    for lo, hi in reversed(h.edges):
        if hi in down:
            down.add(lo)
    keep = sorted(up & down)
    relabel = {old: new for new, old in enumerate(keep)}
    nodes = tuple((relabel[i], h.nodes[i][1], h.nodes[i][2]) for i in keep)
    edges = tuple(sorted(
        (relabel[lo], relabel[hi])
        for lo, hi in h.edges
        if lo in relabel and hi in relabel
    ))
    return HasseDiagram(h.n, nodes, edges)


@lru_cache(maxsize=None)
def lengths_of(n: int) -> tuple[int, ...]:
    return tuple(length(e) for e in elements_of(n))
