"""The Bruhat-Chevalley order on rook elements, two independent ways.

deodhar_leq compares sorted truncations of the one-line vectors, each
pair of them componentwise in C.  deodhar_leq_gamma restates the same
comparison through threshold counts, with no sorting: each side packs
#{entries >= t} for every threshold t into one int of guarded fields
(_count_table), so a prefix costs two adds, an OR and one guard test,
O(n) int operations in all.  The two tests share no comparison logic.
ppr_leq instead takes the reflexive-transitive closure of two generator
moves: raising one entry to a larger unused value, and exchanging a
smaller entry with a larger one to its right.  The two routes share no
comparison logic either, and gamma's count fields are not the move
route's keys; the verification harness checks that all three agree.

One private kernel, _moves, generates the keys of every single move of
x and, among them, the keys of its covers (the edges of the Hasse
diagram), both ascending: the one place a move or a cover is decided,
in one scan of the entries of x alone.  A key is an int that packs the
prefix sums and the prefix square sums of an element (_layout, _key,
_entries), and each move's key is computed from the key of x.
covers_of, ppr_raises, the search's successor cache and the diagram and
verify code in poset all read _moves.  Entries and OneLine are decoded
only for values returned.

ppr_leq searches depth first from x by the moves (_successors), on keys,
lexicographically largest successor first.  Every move climbs in
lexicographic order and lowers no prefix sum and no prefix square sum
(see _moves), so each of these potentials prunes.  Lexicographic: x
after y is refused, and the search keeps only nodes strictly below y.
Prefix sums and prefix square sums: a pair with some prefix sum or
prefix square sum of x above the same one of y is refused before the
search, and the search keeps only nodes with none above y's.  Key order
is lexicographic order, and one subtraction tests every prefix sum and
every prefix square sum at once.  A node's successors are ascending, so
its scan stops at the first key not below y's.  The search reads no
length.
"""

from bisect import insort
from functools import lru_cache
from itertools import accumulate
from operator import getitem, le, sub

from .elements import OneLine

__all__ = [
    "deodhar_leq",
    "deodhar_leq_gamma",
    "ppr_leq",
    "covers_of",
]


def deodhar_leq(x: OneLine, y: OneLine) -> bool:
    """Order test by containment of every pair of same-length sorted
    truncations.

    The sorted prefixes grow by insertion, and each pair of them is
    compared componentwise by one all(map(le, ...)), so the comparisons
    run in C: O(n^2) in all, and the first failing truncation exits
    early.  Comparing the ascending prefixes componentwise is the same as
    comparing the non-increasing ones.
    """
    a, b = x.entries, y.entries
    _check_same_n(a, b)
    xs: list[int] = []
    ys: list[int] = []
    for u, v in zip(a, b):
        insort(xs, u)
        insort(ys, v)
        if not all(map(le, xs, ys)):
            return False
    return True


def deodhar_leq_gamma(x: OneLine, y: OneLine) -> bool:
    """Order test by threshold counts, no sorting.

    For each truncation length k and each nonzero entry a of the prefix
    x(k), the prefix y(k) must hold at least as many entries >= a as x(k)
    does.  That is exactly containment of the sorted prefixes, so this
    must agree with deodhar_leq on every pair.

    Each side keeps its counts packed in one int, one field per
    threshold t = 1..n holding #{entries >= t} (see _count_table).  An
    entry u adds inc[u], one to each of fields 1..u; held collects the
    guard bits of the nonzero entries of x so far.  In (cy | every) - cx
    every field of y has its guard set and x's count, at most n, sits
    below it, so no field borrows from the next, and a field keeps its
    guard bit exactly when y's count is at least x's: one test checks
    every threshold of the prefix.  The whole test is O(n) int operations
    on ints of n * (n.bit_length() + 1) bits.
    """
    a, b = x.entries, y.entries
    _check_same_n(a, b)
    inc, guard, every = _count_table(len(a))
    cx = cy = held = 0
    for u, v in zip(a, b):
        cx += inc[u]
        cy += inc[v]
        held |= guard[u]
        if (cy | every) - cx & held != held:
            return False
    return True


@lru_cache(maxsize=8)
def _count_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Increments, guard bits and guard mask of the packed threshold
    counts of R_n, read by deodhar_leq_gamma alone.

    A count holds n fields of n.bit_length() + 1 bits, threshold 1 the
    least significant; a field holds #{entries >= t}, at most n, below
    its top bit, the guard.  inc[u] adds one to fields 1..u, guard[u] is
    the guard bit of field u (0 for u = 0) and every has all n set."""
    w = n.bit_length() + 1
    ones = tuple(1 << w * t for t in range(n))
    inc = tuple(accumulate(ones, initial=0))
    guard = (0,) + tuple(one << w - 1 for one in ones)
    return inc, guard, inc[n] << w - 1


def ppr_raises(x: OneLine) -> list[OneLine]:
    """Results of every single generator move on x, pairwise distinct,
    all strictly above x, in lexicographic order."""
    a, n = x.entries, x.n
    return [OneLine(_entries(z, n)) for z in _moves(a, _key(a))[0]]


# Bounded: callers mix few sizes at a time.  A layout's lift table holds
# n(n + 1) ints of 2n fields each: 56 ints of 14 bytes at n = 7, but
# 40 200 ints of about 1 KB, some 40 MB, at n = 200 (cli.COVERS_MAX_N).
@lru_cache(maxsize=8)
def _layout(n: int) -> tuple[int, int, int, tuple[tuple[int, ...], ...]]:
    """Field widths w and q, guard mask and lift table of the keys of R_n.

    A key holds n prefix-sum fields of w bits above n prefix-square-sum
    fields of q bits, S_1 and Q_1 the most significant of each.  A field
    holds its value, at most n(n + 1)/2 for S_k and n(n + 1)(2n + 1)/6
    for Q_k, below its top bit, the guard; guard has the top bit of
    every field set.  lift[i][v] is the key of an entry v at position i
    alone: v in every S_k and v * v in every Q_k with k >= i."""
    w = (n * (n + 1) // 2).bit_length() + 1
    q = (n * (n + 1) * (2 * n + 1) // 6).bit_length() + 1
    sums = ((1 << w * n) - 1) // ((1 << w) - 1)
    squares = ((1 << q * n) - 1) // ((1 << q) - 1)
    guard = sums << w - 1 + q * n | squares << q - 1
    lift = tuple(
        tuple(v * (sums >> w * i << q * n) + v * v * (squares >> q * i) for v in range(n + 1))
        for i in range(n)
    )
    return w, q, guard, lift


def _key(a: tuple[int, ...]) -> int:
    """The prefix sums S_1..S_n and prefix square sums Q_1..Q_n of the
    entries a packed into one int (see _layout): the sum of the lifts of
    its entries.

    Every field fits below its guard bit, so no field carries into the
    next.  The sums alone determine the entries, so the key is a
    bijection, and they sit above the squares, so int order is
    lexicographic order of the entries: where two elements first differ,
    so do their prefix sums, in the same direction."""
    return sum(map(getitem, _layout(len(a))[3], a))


def _entries(key: int, n: int) -> tuple[int, ...]:
    """The entries of the element of R_n with this key, read off its
    prefix sums: the inverse of _key."""
    w, q = _layout(n)[:2]
    mask = (1 << w) - 1
    key >>= q * n
    sums = [key >> w * k & mask for k in range(n - 1, -1, -1)]
    return tuple(map(sub, sums, [0] + sums))


def _moves(a: tuple[int, ...], key: int) -> tuple[list[int], list[int]]:
    """Keys of every single generator move on the entries a, whose key is
    key, and keys of the moves that are covers, both ascending: the one
    place a move or a cover is decided.

    The scan runs over positions i from last to first, and at each over
    the values v = a[i] + 1..n.  A free v is a raise of i to v; a v at
    some j > i is a swap of i with j; a v left of i is no move.  A move
    at i keeps every position before i and puts a larger value at i, so
    results from a later position are smaller, and at one position they
    ascend with v: the keys come out ascending.

    Raising position i to an unused b > a[i] is a cover exactly when
    every value strictly between sits left of i and, if a[i] == 0, every
    entry right of i exceeds b; swapping i < j with a[i] < a[j] exactly
    when no entry between them lies in [a[i], a[j]].  In the scan at i:
    a raise is a cover exactly when v is the first candidate (free or
    right of i) and either a[i] > 0 or no zero sits right of i; a swap
    with j exactly when j lies left of every earlier swap candidate at i
    and, if a[i] == 0, left of the first zero right of i.  low holds the
    least of those positions.

    Each move puts a larger value at the first position it changes, so
    every result is lexicographically larger than a: lexicographic order
    is a linear extension of the order.

    No move lowers a prefix sum S_k = a_1 + ... + a_k or a prefix square
    sum Q_k = a_1^2 + ... + a_k^2.  Raising position i from u to b adds
    b - u to S_k and b^2 - u^2 to Q_k for every k >= i; swapping i < j
    with u = a_i < a_j = v adds v - u to S_k and v^2 - u^2 to Q_k for
    i <= k < j and leaves the others alone.  So x <= y needs every prefix
    sum and every prefix square sum of x to be at most that of y.  The
    key of a result is key minus the lifts of the entries it replaces
    plus the lifts of the new ones (see _layout): a raise is key -
    here[u] + here[b], a swap adds - there[v] + there[u] to that.
    """
    n = len(a)
    lift = _layout(n)[3]
    at = [-1] * (n + 1)
    for j, v in enumerate(a):
        at[v] = j
    moves = []
    covers = []
    zero = n  # the first zero right of i, or n
    for i in range(n - 1, -1, -1):
        u = a[i]
        here = lift[i]
        base = key - here[u]
        low = n if u else zero
        first = low == n
        for v in range(u + 1, n + 1):
            j = at[v]
            if j < 0:
                z = base + here[v]
                moves.append(z)
                if first:
                    covers.append(z)
            elif j > i:
                there = lift[j]
                z = base + here[v] - there[v] + there[u]
                moves.append(z)
                if j < low:
                    covers.append(z)
                    low = j
            else:
                continue
            first = False
        if not u:
            zero = i
    return moves, covers


# One shared int per key across all successor lists, so that an element
# listed as the successor of many others is held once: without it, peak
# RSS of the benchmark's R_6 query traffic rose from 28 to 34 MB.  Equal
# keys of different sizes may share one int, since only its value is read.
_shared: dict[int, int] = {}


@lru_cache(maxsize=None)
def _successors(key: int, n: int) -> tuple[int, ...]:
    """Keys of the single moves of the element of R_n with this key, in
    the kernel's ascending order, so lexicographically smallest first:
    ppr_leq stops each scan at the first key not below y's.  Cached per
    (key, n): keys of different sizes can be equal, as 0 is the zero
    element of every R_n."""
    keys = _moves(_entries(key, n), key)[0]
    return tuple(map(_shared.setdefault, keys, keys))


def ppr_leq(x: OneLine, y: OneLine) -> bool:
    """Order test by reachability of y from x under generator moves.

    Depth-first search from x by the moves (_successors), on keys: ints
    that pack the prefix sums and prefix square sums (see _key).  A node's successors come in
    ascending key order and are pushed in that order, so the
    lexicographically largest, the nearest to y in that order, is
    expanded first.  The order only ranks nodes and refuses none: every
    verdict is the same in any order.  The scan of a node's successors
    stops at the first key not below y's, since every later key is
    larger.  The answer is True as soon as the search generates y, and
    False once no node is left.

    Three potentials, all read off the moves (see _moves), prune every
    node that cannot lie on a path from x to y.  Every move yields a
    lexicographically larger element and lowers no prefix sum and no
    prefix square sum, so x > y lexicographically, or any prefix sum of
    x above the same prefix sum of y, answers False before anything is
    packed: these entry tests read the entry tuples.  Then x answers
    False if any prefix square sum of x is above y's, and in the search
    only nodes below y whose prefix sums and prefix square sums are all
    at most y's are kept.  There these tests are one int operation on
    keys: key order is lexicographic order, and with ceiling = key(y) |
    guard, each field of ceiling - key(z) keeps its guard bit exactly
    when the sum it holds for z is at most y's, and no field borrows
    from the next.  Every node below y enters seen before its sums are
    tested, so each node is tested once, kept or refused.  No
    containment logic and no length is consulted.
    """
    a, b = x.entries, y.entries
    _check_same_n(a, b)
    if a >= b:
        return a == b
    if not all(map(le, accumulate(a), accumulate(b))):
        return False
    n = len(a)
    source, target = _key(a), _key(b)
    guard = _layout(n)[2]
    ceiling = target | guard
    if (ceiling - source) & guard != guard:
        return False
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
    """All elements covering x, in lexicographic order: the covers that
    _moves lists."""
    a, n = x.entries, x.n
    return [OneLine(_entries(z, n)) for z in _moves(a, _key(a))[1]]


def _check_same_n(a: tuple[int, ...], b: tuple[int, ...]) -> None:
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
