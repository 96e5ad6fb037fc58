"""The length function: the combinatorial grading of the order.

The length of an element is the dimension of its double orbit under the
invertible upper-triangular group.  It splits as

    length = dim_bx + dim_xb - dim_meet

and every piece has a closed form in the one-line entries: dim_bx is the
entry sum, dim_xb adds n - i + 1 over the occupied columns i, and the
intersection term is the rank plus the coinversion count.  Folding the
pieces together gives the working formula used everywhere else:

    length = sum of star weights - number of coinversions

with star weight a_i + n - i at occupied columns and 0 elsewhere.
"""

from dataclasses import dataclass

from .elements import OneLine, rank

__all__ = [
    "CoinversionPair",
    "LengthBreakdown",
    "coinversions",
    "star_weight",
    "length",
    "dim_bx",
    "dim_xb",
    "dim_meet",
    "length_breakdown",
]

CoinversionPair = tuple[int, int]


def coinversions(x: OneLine) -> list[CoinversionPair]:
    """All pairs (i, j) with i < j and 0 < a_i < a_j, positions 1-based."""
    a = x.entries
    return [
        (i + 1, j + 1)
        for i in range(x.n)
        for j in range(i + 1, x.n)
        if 0 < a[i] < a[j]
    ]


def star_weight(x: OneLine, i: int) -> int:
    """a_i + n - i for an occupied column, 0 for an empty one; i is 1-based."""
    if not 1 <= i <= x.n:
        raise IndexError(f"position {i} outside 1..{x.n}")
    a = x.entries[i - 1]
    return a + x.n - i if a else 0


def length(x: OneLine) -> int:
    """Orbit dimension: star-weight sum minus the coinversion count."""
    total = sum(star_weight(x, i) for i in range(1, x.n + 1))
    return total - len(coinversions(x))


def dim_bx(x: OneLine) -> int:
    """Dimension of the left one-sided orbit closure: the entry sum."""
    return sum(x.entries)


def dim_xb(x: OneLine) -> int:
    """Dimension of the right one-sided orbit closure."""
    n = x.n
    return sum(n - i for i, a in enumerate(x.entries) if a)


def dim_meet(x: OneLine) -> int:
    """Dimension of the intersection of the two one-sided closures."""
    return rank(x) + len(coinversions(x))


@dataclass(frozen=True)
class LengthBreakdown:
    """Every quantity entering the length computation for one element."""

    star_weights: tuple[int, ...]
    star_sum: int
    coinv: int
    length: int
    dim_bx: int
    dim_xb: int
    dim_meet: int


def length_breakdown(x: OneLine) -> LengthBreakdown:
    stars = tuple(star_weight(x, i) for i in range(1, x.n + 1))
    coinv = len(coinversions(x))
    return LengthBreakdown(
        star_weights=stars,
        star_sum=sum(stars),
        coinv=coinv,
        length=sum(stars) - coinv,
        dim_bx=dim_bx(x),
        dim_xb=dim_xb(x),
        dim_meet=dim_meet(x),
    )
