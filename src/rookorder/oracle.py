"""Exact orbit dimensions from coordinate-subspace spans.

The upper-triangular matrix space is spanned by the unit matrices E(i,j)
with i <= j, so the one-sided orbit closures of an element x are the
spans of the products E(i,j) * x, respectively x * E(i,j).  Row i of
E(i,j) * x is row j of x and column j of x * E(i,j) is column i of x,
every other entry being zero; since x has at most one 1 in each row and
column, every product is zero or a single unit matrix.  Each span is
therefore the coordinate subspace on the flat positions i*n + c of those
unit matrices, and this module represents it by exactly that set of
positions, as an int with bit i*n + c set for each: its dimension is
span.bit_count(), and the meet of two spans is span & other.  Everything
is exact, and the module shares no code with the combinatorial formulas
it is used to check.
"""

from .elements import OneLine

__all__ = ["left_span", "right_span", "oracle_length"]


def left_span(x: OneLine) -> int:
    """Span of the products E(i,j) * x over the upper-triangular units,
    as the bitmask of its flat coordinates: the unit at (i, c) for each
    i <= j where row j of x has its 1 in column c, i.e. for each i < a
    where column c holds the value a.  Column c's part is the repunit
    with one bit per row, cut at row a and shifted by c."""
    n = x.n
    repunit = ((1 << n * n) - 1) // ((1 << n) - 1)  # bit i*n for each row i
    span = 0
    for c, a in enumerate(x.entries):
        span |= (repunit & ((1 << a * n) - 1)) << c
    return span


def right_span(x: OneLine) -> int:
    """Span of the products x * E(i,j) over the upper-triangular units,
    as the bitmask of its flat coordinates: the unit at (r, j) for each
    j >= i where column i of x has its 1 in row r, i.e. in row a - 1
    when column i holds the value a.  Column i's part is one run of
    n - i bits, from position (a - 1)*n + i."""
    n = x.n
    span = 0
    for i, a in enumerate(x.entries):
        if a:
            span |= ((1 << n - i) - 1) << (a - 1) * n + i
    return span


def oracle_length(x: OneLine) -> int:
    """Orbit dimension computed purely from the two spans:
    dim left + dim right - dim meet."""
    left = left_span(x)
    right = right_span(x)
    return left.bit_count() + right.bit_count() - (left & right).bit_count()
