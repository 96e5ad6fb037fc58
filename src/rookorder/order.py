"""The Bruhat-Chevalley order on rook elements, two independent ways.

deodhar_leq compares sorted truncations of the one-line vectors, and
deodhar_leq_gamma restates the same comparison through threshold counts.
ppr_leq instead takes the reflexive-transitive closure of two generator
moves: raising one entry to a larger unused value, and exchanging a
smaller entry with a larger one to its right.  The two routes share no
comparison logic; the verification harness checks that they agree.

One private kernel, _moves, generates every single move paired with
whether it is a cover (an edge of the Hasse diagram), the one place a
cover is decided: both come out of one scan of the entries of x alone.
Its results are keys, ints that pack the prefix sums of an element, each
computed from the key of x (_key, _entries).  covers_of, ppr_raises, the
search's successor cache and the diagram and verify code in poset all
read _moves.  Entries and OneLine are decoded only for values returned.

ppr_leq searches depth first from x by the moves (_successors), on keys,
lexicographically largest successor first.  Every move climbs in
lexicographic order and lowers no prefix sum (see _moves), so each of
the two potentials prunes twice.  Lexicographic: x after y is refused,
and the search keeps only nodes strictly below y.  Prefix sums: a pair
with some prefix sum of x above the same prefix sum of y is refused
before the search, and the search keeps only nodes with no prefix sum
above y's.  Key order is lexicographic order, and one subtraction tests
every prefix sum at once.  A node's successors are kept ascending, so
its scan stops at the first key not below y's.  The search reads no
length.
"""

from bisect import insort
from functools import lru_cache
from itertools import accumulate
from operator import le, sub

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
    """Results of every single generator move on x: raises first
    (position-major, values ascending), then swaps in lexicographic
    position order, pairwise distinct and all strictly above x."""
    a, n = x.entries, x.n
    return [OneLine(_entries(z, n)) for z, _ in _moves(a, _key(a))]


# Bounded: a layout is n + 2 ints, and callers mix few sizes at a time.
@lru_cache(maxsize=8)
def _layout(n: int) -> tuple[int, int, tuple[int, ...]]:
    """Field width w, guard mask and steps of the keys of R_n.

    A field holds one prefix sum, at most n(n + 1)/2, below its top bit,
    the guard; guard has the top bit of every field set, and step[i] a
    one in every field from position i onward."""
    w = (n * (n + 1) // 2).bit_length() + 1
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)
    return w, ones << w - 1, tuple(ones >> w * i for i in range(n))


def _key(a: tuple[int, ...]) -> int:
    """The prefix sums S_1..S_n of the entries a packed into one int,
    S_1 in the most significant field (see _layout).

    Every S_k fits below its field's guard bit, so the key is a
    bijection, and int order is lexicographic order of the entries:
    where two elements first differ, so do their prefix sums, in the
    same direction, and no field carries into the next."""
    w = _layout(len(a))[0]
    key = s = 0
    for v in a:
        s += v
        key = key << w | s
    return key


def _entries(key: int, n: int) -> tuple[int, ...]:
    """The entries of the element of R_n with this key: the inverse of
    _key."""
    w = _layout(n)[0]
    mask = (1 << w) - 1
    sums = [key >> w * k & mask for k in range(n - 1, -1, -1)]
    return tuple(map(sub, sums, [0] + sums))


def _moves(a: tuple[int, ...], key: int) -> list[tuple[int, bool]]:
    """Every single generator move on the entries a, whose key is key, in
    ppr_raises order, each as (key of the result, is a cover): the one
    place both are decided.

    Raising position i to an unused b > a[i] is a cover exactly when
    every value strictly between sits left of i and, if a[i] == 0, every
    entry right of i exceeds b; swapping i < j with a[i] < a[j] exactly
    when no entry between them lies in [a[i], a[j]].  So no entry after
    i, up to j for a swap, may lie in [a[i], target).  One scan of j > i
    keeps low, the least such entry (0 once a zero follows a zero), and
    flags a swap by a[j] < low and a raise by b < low.  Then low drops
    to 0: the free b lies between a[i] and every later raise target, so
    only the first raise of i can be a cover.

    Each move puts a larger value at the first position it changes, so
    every result is lexicographically larger than a: lexicographic order
    is a linear extension of the order.

    No move lowers a prefix sum S_k = a_1 + ... + a_k.  Raising position
    i by d adds d to S_k for every k >= i; swapping i < j with a_i < a_j
    adds a_j - a_i to S_k for i <= k < j and leaves the others alone.  So
    x <= y needs every prefix sum of x to be at most that of y.  Those
    deltas give each result's key from key: a raise of u to b adds
    (b - u) * step[i], a swap of u with v adds (v - u) * (step[i] -
    step[j]).  No prefix sum leaves its field, so no delta carries.
    """
    n = len(a)
    step = _layout(n)[2]
    free = [b for b in range(1, n + 1) if b not in a]
    raises = []
    swaps = []
    for i, u in enumerate(a):
        low = n + 1
        here = step[i]
        for j in range(i + 1, n):
            v = a[j]
            if v > u:
                swaps.append((key + (v - u) * (here - step[j]), v < low))
            if u <= v < low:
                low = v
        for b in free:
            if b > u:
                raises.append((key + (b - u) * here, b < low))
                low = 0
    return raises + swaps


# One shared int per key across all successor lists, so that an element
# listed as the successor of many others is held once: without it, peak
# RSS of the benchmark's R_6 query traffic rose from 28 to 34 MB.  Equal
# keys of different sizes may share one int, since only its value is read.
_shared: dict[int, int] = {}


@lru_cache(maxsize=None)
def _successors(key: int, n: int) -> tuple[int, ...]:
    """Keys of the single moves of the element of R_n with this key,
    ascending, so lexicographically smallest first: ppr_leq stops each
    scan at the first key not below y's.  Cached per (key, n): keys of
    different sizes can be equal, as 0 is the zero element of every R_n."""
    keys = [z for z, _ in _moves(_entries(key, n), key)]
    keys.sort()
    return tuple(map(_shared.setdefault, keys, keys))


def ppr_leq(x: OneLine, y: OneLine) -> bool:
    """Order test by reachability of y from x under generator moves.

    Depth-first search from x by the moves (_successors), on keys: ints
    that pack the prefix sums (see _key).  A node's successors come in
    ascending key order and are pushed in that order, so the
    lexicographically largest, the nearest to y in that order, is
    expanded first.  The order only ranks nodes and refuses none: every
    verdict is the same in any order.  The scan of a node's successors
    stops at the first key not below y's, since every later key is
    larger.  The answer is True as soon as the search generates y, and
    False once no node is left.

    Two potentials, both read off the moves (see _moves), prune every
    node that cannot lie on a path from x to y.  Every move yields a
    lexicographically larger element and lowers no prefix sum, so x > y
    lexicographically, or any prefix sum of x above the same prefix sum
    of y, answers False before the search.  These entry tests read the
    entry tuples, so a pair they refuse is never packed.  In the search,
    only nodes below y whose prefix sums are all at most y's are kept.
    There both tests are one int operation on keys: key order is
    lexicographic order, and with ceiling = key(y) | guard, the field of
    S_k in ceiling - key(z) keeps its guard bit exactly when S_k(z) <=
    S_k(y), and no field borrows from the next.  Every node below y
    enters seen before its prefix sums are tested, so each node is
    tested once, kept or refused.  No containment logic and no length is
    consulted.
    """
    _check_same_n(x, y)
    a, b = x.entries, y.entries
    if a >= b:
        return a == b
    if not all(map(le, accumulate(a), accumulate(b))):
        return False
    n = x.n
    source, target = _key(a), _key(b)
    guard = _layout(n)[1]
    ceiling = target | guard
    seen = {source}
    stack = [source]
    while stack:
        for z in _successors(stack.pop(), n):
            if z >= target:
                if z == target:
                    return True
                break
            if z not in seen:
                seen.add(z)
                if (ceiling - z) & guard == guard:
                    stack.append(z)
    return False


def covers_of(x: OneLine) -> list[OneLine]:
    """All elements covering x: the single moves of x that _moves flags."""
    a, n = x.entries, x.n
    return [OneLine(_entries(z, n)) for z, cover in _moves(a, _key(a)) if cover]


def _check_same_n(x: OneLine, y: OneLine) -> None:
    if x.n != y.n:
        raise ValueError(f"size mismatch: {x.n} vs {y.n}")
