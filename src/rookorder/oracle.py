"""Exact orbit dimensions from coordinate-subspace spans.

The upper-triangular matrix space is spanned by the unit matrices E(i,j)
with i <= j, so the one-sided orbit closures of an element x are the
spans of the products E(i,j) * x, respectively x * E(i,j).  Row i of
E(i,j) * x is row j of x and column j of x * E(i,j) is column i of x,
every other entry being zero; since x has at most one 1 in each row and
column, every product is zero or a single unit matrix.  Each span is
therefore the coordinate subspace on the flat positions i*n + c of those
unit matrices: its dimension is the size of that set, and the meet of two
spans is the intersection of their sets.  Everything is exact, and the
module shares no code with the combinatorial formulas it is used to
check.
"""

from dataclasses import dataclass

from .elements import OneLine

__all__ = ["MatrixSpan", "left_span", "right_span", "meet_dim", "oracle_length"]


@dataclass(frozen=True)
class MatrixSpan:
    """A coordinate subspace of the flattened n-by-n matrices: the flat
    positions of the unit matrices that span it, and its dimension."""

    ambient_dim: int
    coordinates: frozenset[int]
    rank: int


def _span(n: int, coordinates: frozenset[int]) -> MatrixSpan:
    return MatrixSpan(n * n, coordinates, len(coordinates))


def left_span(x: OneLine) -> MatrixSpan:
    """Span of the products E(i,j) * x over the upper-triangular units:
    the unit at (i, c) for each i <= j where row j of x has its 1 in
    column c, i.e. for each i < a where column c holds the value a."""
    n = x.n
    return _span(n, frozenset(
        i * n + c for c, a in enumerate(x.entries) for i in range(a)
    ))


def right_span(x: OneLine) -> MatrixSpan:
    """Span of the products x * E(i,j) over the upper-triangular units:
    the unit at (r, j) for each j >= i where column i of x has its 1 in
    row r, i.e. in row a - 1 when column i holds the value a."""
    n = x.n
    return _span(n, frozenset(
        (a - 1) * n + j for i, a in enumerate(x.entries) if a for j in range(i, n)
    ))


def meet_dim(left: MatrixSpan, right: MatrixSpan) -> int:
    """Dimension of the intersection of two spans in the same ambient
    space: the number of unit matrices they share."""
    if left.ambient_dim != right.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return len(left.coordinates & right.coordinates)


def oracle_length(x: OneLine) -> int:
    """Orbit dimension computed purely from the two spans."""
    left = left_span(x)
    right = right_span(x)
    return left.rank + right.rank - meet_dim(left, right)
