"""The Bruhat-Chevalley order on rook elements, two independent ways.

deodhar_leq compares sorted truncations of the one-line vectors, and
deodhar_leq_gamma restates the same comparison through threshold counts.
ppr_leq instead takes the reflexive-transitive closure of two generator
moves: raising one entry to a larger unused value, and exchanging a
smaller entry with a larger one to its right.  The two routes share no
comparison logic; the verification harness checks that they agree.

One private kernel on entry tuples, _steps, generates every single
move.  _moves pairs each with whether it is a cover (an edge of the
Hasse diagram), the one place a cover is decided: a raise by the
condition _raise_is_cover, a swap by _swap_is_cover, both read off the
entries of x alone.  covers_of and the diagram and verify code in poset
read _moves, while ppr_raises and the search's successor cache read
_steps and decide no cover.  OneLine is built only for values returned.

ppr_leq searches depth first from x by the moves (_successors).  Every
move climbs in lexicographic order and lowers no prefix sum (see
_steps), so each of the two potentials prunes twice.  Lexicographic: x
after y is refused, and the search keeps only nodes strictly below y.
Prefix sums: a pair with some prefix sum of x above the same prefix
sum of y is refused before the search, and the search keeps only nodes
with no prefix sum above y's.  The search reads no length.
"""

from bisect import insort
from functools import lru_cache
from itertools import accumulate
from operator import le

from .elements import OneLine

__all__ = [
    "deodhar_leq",
    "deodhar_leq_gamma",
    "ppr_raises",
    "ppr_leq",
    "covers_of",
]


def deodhar_leq(x: OneLine, y: OneLine) -> bool:
    """Order test by containment of every pair of same-length sorted
    truncations.

    The sorted prefixes grow by insertion, so the whole test runs in
    O(n^2); the first failing truncation exits early.  Comparing the
    ascending prefixes componentwise is the same as comparing the
    non-increasing ones.
    """
    _check_same_n(x, y)
    xs: list[int] = []
    ys: list[int] = []
    for u, v in zip(x.entries, y.entries):
        insort(xs, u)
        insort(ys, v)
        for p, q in zip(xs, ys):
            if p > q:
                return False
    return True


def deodhar_leq_gamma(x: OneLine, y: OneLine) -> bool:
    """Order test by threshold counts, no sorting.

    For each truncation length k and each nonzero entry a of the prefix
    x(k), the prefix y(k) must hold at least as many entries >= a as x(k)
    does.  That is exactly containment of the sorted prefixes, so this
    must agree with deodhar_leq on every pair.  The counts of entries
    >= t are kept per threshold t and updated as each entry of the two
    prefixes arrives, so the whole test runs in O(n^2).
    """
    _check_same_n(x, y)
    at_least_x = [0] * (x.n + 1)
    at_least_y = [0] * (x.n + 1)
    seen = []
    for u, v in zip(x.entries, y.entries):
        for t in range(1, u + 1):
            at_least_x[t] += 1
        for t in range(1, v + 1):
            at_least_y[t] += 1
        if u:
            seen.append(u)
        for t in seen:
            if at_least_x[t] > at_least_y[t]:
                return False
    return True


def ppr_raises(x: OneLine) -> list[OneLine]:
    """Results of every single generator move on x.

    Raises come first (position-major, values ascending), then swaps in
    lexicographic position order.  Results are pairwise distinct and all
    strictly above x.
    """
    return [OneLine(y) for y, _, _ in _steps(x.entries)]


def _steps(a: tuple[int, ...]) -> list[tuple[tuple[int, ...], int, int | None]]:
    """Every single generator move on the entries a, in ppr_raises order,
    as (result, i, j): a raise of position i has j None, a swap of
    positions i < j has j.  The one place the moves are generated; no
    cover is decided here, so ppr_raises and the search's successor
    cache pay for none.

    Each move puts a larger value at the first position it changes, so
    every result is lexicographically larger than a: lexicographic order
    is a linear extension of the order.

    No move lowers a prefix sum S_k = a_1 + ... + a_k.  Raising position
    i by d adds d to S_k for every k >= i; swapping i < j with a_i < a_j
    adds a_j - a_i to S_k for i <= k < j and leaves the others alone.  So
    x <= y needs every prefix sum of x to be at most that of y.
    """
    n = len(a)
    out = []
    for i in range(n):
        for b in range(a[i] + 1, n + 1):
            if b not in a:
                out.append((a[:i] + (b,) + a[i + 1:], i, None))
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] < a[j]:
                out.append((a[:i] + (a[j],) + a[i + 1:j] + (a[i],) + a[j + 1:], i, j))
    return out


def _moves(a: tuple[int, ...]) -> list[tuple[tuple[int, ...], bool]]:
    """Every single generator move on the entries a (see _steps), each
    paired with whether it is a cover: the one place both are decided."""
    return [
        (z, _raise_is_cover(a, i, z[i]) if j is None else _swap_is_cover(a, i, j))
        for z, i, j in _steps(a)
    ]


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


# One shared tuple per element across all successor lists, so that an
# element listed as the successor of many others is held once: without
# it, peak RSS of the benchmark's R_6 query traffic rose from 28 to 42 MB.
_shared: dict[tuple[int, ...], tuple[int, ...]] = {}


@lru_cache(maxsize=None)
def _successors(entries: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(_shared.setdefault(z, z) for z, _, _ in _steps(entries))


def ppr_leq(x: OneLine, y: OneLine) -> bool:
    """Order test by reachability of y from x under generator moves.

    Depth-first search from x by the moves (_successors).  The successors
    of a node are visited in kernel order, first raise first, so pushed
    onto the stack reversed: from 0,0,0,0,0,0,0 to 4,5,3,2,6,1,0 that
    expands 14 nodes, and the reverse order 28 625.  The answer is True
    as soon as the search generates y, and False once no node is left.

    Two potentials, both read off the moves (see _steps), prune every
    node that cannot lie on a path from x to y.  Every move yields a
    lexicographically larger tuple and lowers no prefix sum, so x > y
    lexicographically, or any prefix sum of x above the same prefix sum
    of y, answers False before the search.  In the search, only nodes
    below y whose prefix sums are all at most y's are kept.  Every node
    below y enters seen before its prefix sums are tested, so each node
    is tested once, kept or refused; the sums are computed there, not
    stored.  No containment logic and no length is consulted.
    """
    _check_same_n(x, y)
    source, target = x.entries, y.entries
    if source == target:
        return True
    ceiling = list(accumulate(target))
    if source > target or not all(map(le, accumulate(source), ceiling)):
        return False
    seen = {source}
    stack = [source]
    while stack:
        for z in reversed(_successors(stack.pop())):
            if z == target:
                return True
            if z < target and z not in seen:
                seen.add(z)
                if all(map(le, accumulate(z), ceiling)):
                    stack.append(z)
    return False


def covers_of(x: OneLine) -> list[OneLine]:
    """All elements covering x: the single moves of x that _moves flags."""
    return [OneLine(y) for y, cover in _moves(x.entries) if cover]


def _check_same_n(x: OneLine, y: OneLine) -> None:
    if x.n != y.n:
        raise ValueError(f"size mismatch: {x.n} vs {y.n}")
