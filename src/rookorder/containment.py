"""The containment route: the order read off threshold counts of prefixes.

Threshold lemma: x <= y exactly when, for every prefix length k and every
threshold a, the first k entries of y hold at least as many values >= a
as those of x do.  Like the move route, this module imports only
elements, so neither route reads the other's code.

deodhar_leq compares sorted truncations of the one-line vectors, each
pair of them componentwise in C.  deodhar_leq_gamma restates the same
comparison through threshold counts, with no sorting: each side packs
#{entries >= t} for every threshold t into one int of guarded fields
(_count_table), so a prefix costs two adds, an OR and one guard test,
O(n) int operations in all.  The two tests share no comparison logic,
and gamma's count fields are not the move route's keys.

_containment_rows evaluates the lemma over whole lists, for verify over
all of R_n and for the diagram reload one length level at a time
(_containment_covers).
"""

from bisect import bisect_left, insort
from functools import lru_cache
from itertools import accumulate
from operator import le
from typing import Iterator

from .elements import OneLine, _check_same_n

__all__ = ["deodhar_leq", "deodhar_leq_gamma"]


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


def _containment_rows(lower: list[OneLine], upper: list[OneLine]) -> Iterator[int]:
    """Up-set bitsets of the containment order of lower over upper, both
    of one size n and upper nonempty, yielded in the order of lower: bit
    j of row i says lower[i] <= upper[j].

    By the threshold lemma, only the nonzero entries a of the first k
    entries of x need a count.  Thresholds a > x_k may be skipped too:
    there x's count equals its count over the first k - 1 entries, which
    is checked already, and y's count cannot shrink as k grows.

    The tables are built once, over upper, one position at a time by
    bit-sliced counting: at_least[k][a][v] is the bitset of the j with
    at least v values >= a among the first k + 1 entries of upper[j].
    The elements whose entry at the position is >= a form one bitset,
    read off the column of entries with a byte translation, and adding
    it to the counts is one AND and one OR per v.  Each row is then the
    AND of one table per (k, a) that the lemma needs, at most n(n + 1)/2
    of them.
    """
    n = upper[0].n
    everything = (1 << len(upper)) - 1
    # Reversed, so that upper[j] lands on bit j of int(..., 2).
    columns = [bytes(column[::-1]) for column in zip(*(e.entries for e in upper))]
    at_least: list[list] = [[None] * (n + 1) for _ in range(n)]
    for a in range(1, n + 1):
        # Translates each entry byte to "1" when it is >= a, else to "0".
        digits = b"0" * a + b"1" * (256 - a)
        counts = [everything] + [0] * n
        for k, column in enumerate(columns):
            hits = int(column.translate(digits), 2)
            for v in range(k + 1, 0, -1):
                counts[v] |= counts[v - 1] & hits
            at_least[k][a] = counts[:]
    for x in lower:
        row = everything
        seen = []  # nonzero entries so far, ascending
        for k, b in enumerate(x.entries):
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
        yield row


def _containment_covers(nodes: list[tuple[int, OneLine, int]]) -> list[tuple[int, int]]:
    """The covering pairs (i, j) between nodes (id, element, length),
    sorted, from the containment order and the node lengths alone.

    The length is the rank function of the order, so y covers x exactly
    when x <= y and length(y) = length(x) + 1, in R_n and so between any
    set of its elements.  The candidates above a node of length L are the
    nodes of length L + 1, so each length level L with a level above it
    is one call _containment_rows(level L, level L + 1), whose row for a
    node has exactly its covers as bits."""
    levels: dict[int, list[tuple[int, OneLine]]] = {}
    for i, e, ln in nodes:
        levels.setdefault(ln, []).append((i, e))
    covers: list[list[int]] = [[] for _ in nodes]
    for ln, lower in levels.items():
        upper = levels.get(ln + 1)
        if not upper:
            continue
        rows = _containment_rows([e for _, e in lower], [e for _, e in upper])
        for (i, _), row in zip(lower, rows):
            # upper is in id order, so its bits give ascending ids.
            while row:
                low = row & -row
                covers[i].append(upper[low.bit_length() - 1][0])
                row ^= low
    return [(i, j) for i, above in enumerate(covers) for j in above]
