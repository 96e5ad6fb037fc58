"""The move route: the order as reachability by generator moves.

ppr_leq takes the reflexive-transitive closure of two generator moves:
raising one entry to a larger unused value, and exchanging a smaller
entry with a larger one to its right.  Like the containment route, this
module imports only elements, so neither route reads the other's code.

One private kernel, _moves, generates the keys of every single move of
x and, among them, the keys of its covers (the edges of the Hasse
diagram), both ascending: the one place a move or a cover is decided,
in one scan of the entries of x alone.  A key is an int that packs the
prefix sums and the prefix square sums of an element (_layout, _key,
_entries), and each move's key is computed from the key of x.
covers_of, ppr_raises, the search's successor cache and the walk all
read _moves.  Entries and OneLine are decoded only for values returned.

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

One walk, _walk, reads the kernel over a whole monoid, once per
element, for build_hasse and verify; _close_moves closes its moves and
audits its covers from the walk's index lists alone.
"""

from functools import lru_cache
from operator import getitem, sub

from .elements import OneLine, _check_same_n

__all__ = ["ppr_leq", "covers_of"]


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
# RSS of the benchmark's R_6 query traffic (query-r6) rises from 25.7 to
# 30.3-30.6 MB.  Equal keys of different sizes may share one int, since
# only its value is read.
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
    prefix square sum, so x > y lexicographically answers False before
    anything is packed, the one test on the entry tuples.  Then x
    answers False if any prefix sum or prefix square sum of x is above
    y's, and in the search only nodes below y whose prefix sums and
    prefix square sums are all at most y's are kept.  The sum tests are
    one int operation on keys, and so is the order test in the search:
    key order is lexicographic order, and with ceiling = key(y) | guard,
    each field of ceiling - key(z) keeps its guard bit exactly when the
    sum it holds for z is at most y's, and no field borrows from the
    next.  Every node below y enters seen before its sums are
    tested, so each node is tested once, kept or refused.  No
    containment logic and no length is consulted.
    """
    a, b = x.entries, y.entries
    _check_same_n(a, b)
    if a >= b:
        return a == b
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


def _walk(elements: list[OneLine]) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int]]]:
    """The one walk that reads the move kernel over all of R_n, one _key
    per element: (moves, covers, strays), where moves[i] and covers[i]
    are the ascending indices of element i's moves and covers.  Every
    move climbs in lexicographic order, so its index is above i.  A key
    that is no element's, which only a faulty kernel or enumeration
    gives, is left out of both and set aside in strays as (i, key), in
    that order: the walk never raises on it.  The key of an element
    given twice indexes its last copy, and each copy is walked."""
    keys = [_key(e.entries) for e in elements]
    index = {k: i for i, k in enumerate(keys)}
    at = index.get
    moves, covers, strays = [], [], []
    for i, (e, k) in enumerate(zip(elements, keys)):
        up, above = _moves(e.entries, k)
        found, cover = list(map(at, up)), list(map(at, above))
        if None in found or None in cover:
            strays += [(i, z) for z in sorted({*up, *above}) if z not in index]
            found = [j for j in found if j is not None]
            cover = [j for j in cover if j is not None]
        moves.append(found)
        covers.append(cover)
    return moves, covers, strays


def _close_moves(moves: list[list[int]], covers: list[list[int]]) -> tuple[
    list[int], list[tuple[int, list[int], list[int]]],
]:
    """Move closure rows and cover audit failures of all of R_n from the
    lists of _walk alone, with no kernel or element read.  A failure is
    the index triple (i, kernel covers, brute-force covers), ascending.

    Bit j of row i says element j is reachable from element i.  The rows
    are closed in descending index order, so every move's row is ready.
    A move already in reach adds nothing, since a row holds the row of
    every element it holds, so only the other moves' rows are ORed and
    the rows are exact in any move order.  Everything strictly above x
    is at or above a move of x, and a move lies only above moves of lower
    index, so when the moves ascend, as the kernel's keys give them, the
    ORed moves are the brute-force covers of x, the moves in no strict
    up-set of another: they read no kernel cover.  They are compared as
    lists, so a kernel listing its moves out of order fails the audit."""
    closure = [0] * len(moves)
    failures = []
    for i in range(len(moves) - 1, -1, -1):
        reach = 0
        brute = []
        for s in moves[i]:
            if not reach >> s & 1:
                brute.append(s)
                reach |= closure[s]
        closure[i] = reach | 1 << i
        if brute != covers[i]:
            failures.append((i, covers[i], brute))
    failures.reverse()
    return closure, failures
