"""The length function: the combinatorial grading of the order.

The length of an element is the dimension of its double orbit under the
invertible upper-triangular group.  It splits into three orbit
dimensions,

    length = dim_bx + dim_xb - dim_meet,

each with a closed form in the one-line entries: dim_bx is the entry
sum, dim_xb adds n - i + 1 over the occupied columns i, and the
intersection term dim_meet is the rank plus the coinversion count.
Folding the pieces together gives the working formula used everywhere
else:

    length = sum of star weights - number of coinversions

with star weight a_i + n - i at occupied columns and 0 elsewhere.
`length` evaluates it in one pass over the entries from the right end,
keeping the nonzero values passed as the bits of one int: the
coinversions that start at an occupied column are the bits above its
value, counted with int.bit_count, and no pair is listed.
`length_breakdown` reports every piece in one NamedTuple,
`LengthBreakdown`, with a coinversion count that lists no pair, but not
the length they give: `rookorder len` prints `length` itself beside the
pieces and the pairs `coinversions` lists.
"""

from typing import NamedTuple

from .elements import OneLine, rank

__all__ = ["LengthBreakdown", "coinversions", "length", "length_breakdown"]


def coinversions(x: OneLine) -> list[tuple[int, int]]:
    """All pairs (i, j) with i < j and 0 < a_i < a_j, positions 1-based."""
    a = x.entries
    return [
        (i + 1, j + 1)
        for i in range(x.n)
        for j in range(i + 1, x.n)
        if 0 < a[i] < a[j]
    ]


def length(x: OneLine) -> int:
    """Orbit dimension: star-weight sum minus the coinversion count.

    One pass from the right end.  At occupied position i (1-based) it
    adds the star weight a_i + n - i, n - i being the number of entries
    passed, and subtracts the coinversions that start at i: the later
    entries larger than a_i.  The nonzero values passed are the bits of
    one mask, and nonzero values never repeat, so those are the set bits
    of the mask shifted right by a_i."""
    total = 0
    later = 0
    for passed, ai in enumerate(reversed(x.entries)):
        if ai:
            total += ai + passed - (later >> ai).bit_count()
            later |= 1 << ai
    return total


class LengthBreakdown(NamedTuple):
    """Every quantity entering the length computation for one element."""

    star_weights: tuple[int, ...]
    star_sum: int
    coinv: int
    dim_bx: int
    dim_xb: int
    dim_meet: int


def length_breakdown(x: OneLine) -> LengthBreakdown:
    """The star weights, the count (not the list) of coinversions and
    the three orbit dimensions of x."""
    a, n = x.entries, x.n
    stars = tuple(ai + n - i if ai else 0 for i, ai in enumerate(a, 1))
    coinv = sum(1 for i, ai in enumerate(a) if ai for b in a[i + 1:] if b > ai)
    return LengthBreakdown(
        star_weights=stars,
        star_sum=sum(stars),
        coinv=coinv,
        dim_bx=sum(a),
        dim_xb=sum(n - i for i, ai in enumerate(a) if ai),
        dim_meet=rank(x) + coinv,
    )
