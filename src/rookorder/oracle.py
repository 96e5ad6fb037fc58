"""Exact orbit dimensions from coordinate-subspace spans.

The upper-triangular matrix space is spanned by the unit matrices E(i,j)
with i <= j, so the one-sided orbit closures of an element x are the
spans of the products E(i,j) * x, respectively x * E(i,j).  Row i of
E(i,j) * x is row j of x and column j of x * E(i,j) is column i of x,
every other entry being zero; since x has at most one 1 in each row and
column, every product is zero or a single unit matrix.  Each span is
therefore the coordinate subspace on the flat positions i*n + c of those
unit matrices, and this module represents it as exactly that set: its
dimension is len(span), and the meet of two spans is the intersection
of their sets.  Everything is exact, and the module shares no code with
the combinatorial formulas it is used to check.
"""

from .elements import OneLine

__all__ = ["left_span", "right_span", "oracle_length"]


def left_span(x: OneLine) -> frozenset[int]:
    """Span of the products E(i,j) * x over the upper-triangular units,
    as its set of flat coordinates: the unit at (i, c) for each i <= j
    where row j of x has its 1 in column c, i.e. for each i < a where
    column c holds the value a."""
    n = x.n
    return frozenset(i * n + c for c, a in enumerate(x.entries) for i in range(a))


def right_span(x: OneLine) -> frozenset[int]:
    """Span of the products x * E(i,j) over the upper-triangular units,
    as its set of flat coordinates: the unit at (r, j) for each j >= i
    where column i of x has its 1 in row r, i.e. in row a - 1 when
    column i holds the value a."""
    n = x.n
    return frozenset(
        (a - 1) * n + j for i, a in enumerate(x.entries) if a for j in range(i, n)
    )


def oracle_length(x: OneLine) -> int:
    """Orbit dimension computed purely from the two spans:
    dim left + dim right - dim meet."""
    left = left_span(x)
    right = right_span(x)
    return len(left) + len(right) - len(left & right)
