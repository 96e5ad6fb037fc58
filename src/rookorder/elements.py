"""Rook-monoid elements: parsing, validation, rank and enumeration.

An element of the rook monoid R_n is an n-by-n matrix of zeros and ones
with at most one 1 in every row and every column.  Column j is recorded
by a single number: the row index of its 1, or 0 when the column is
empty.  The vector of those column values is the "one line" form used
throughout this package; n is always the vector length.  OneLine holds
it as a slotted record: one field, entries, the tuple itself, and no
per-element __dict__, so an enumerated monoid costs the tuples and one
small object each.

OneLine(entries) checks its rules on every call, and it is the only way
an element is made: enumerate_elements, parse_one_line, covers_of,
ppr_raises, copies and pickles all go through it.  An element's text
fills a "%d,...,%d" template cached per size.

>>> x = parse_one_line("3,0,4,0")
>>> x.entries
(3, 0, 4, 0)
>>> rank(x)
2
>>> to_matrix(x)[2]
(1, 0, 0, 0)
>>> [str(e) for e in enumerate_elements(1)]
['0', '1']
"""

from functools import lru_cache
from typing import Iterator

__all__ = [
    "OneLine",
    "parse_one_line",
    "rank",
    "enumerate_elements",
]


class OneLine:
    """One-line form of a rook-monoid element.

    Entry j is the row holding the 1 of column j, or 0 for an empty
    column.  entries is a tuple of ints (a bool is not one) in 0..n, and
    nonzero values never repeat; anything else raises ValueError.

    A slotted record with one field, entries, and no __dict__: it cannot
    be changed once made, and it is equal to another OneLine of the same
    entries, hashing as the tuple (entries,), but to nothing else.
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        # True and 1.0 compare and hash equal to 1, and a list hashes not
        # at all, so both the tuple and its ints are tested by type.
        if type(entries) is not tuple:
            raise ValueError(f"entries must be a tuple of ints, not {type(entries).__name__}")
        n = len(entries)
        if n == 0:
            raise ValueError("element needs at least one column")
        seen = set()
        for a in entries:
            if type(a) is not int or not 0 <= a <= n:
                raise ValueError(f"entry {a} outside 0..{n}" if type(a) is int else f"entry {a!r} is not an int")
            if a:
                if a in seen:
                    raise ValueError(f"nonzero entry {a} appears twice")
                seen.add(a)
        object.__setattr__(self, "entries", entries)

    def __reduce__(self):
        # Copies and pickles go through the constructor, which checks the
        # entries; the default restore would assign the slot and be refused.
        return (OneLine, (self.entries,))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"OneLine(entries={self.entries!r})"

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return _template(len(self.entries)) % self.entries


@lru_cache(maxsize=8)
def _template(n: int) -> str:
    """The text template of size n, n fields %d joined by commas.  Filled
    with the entries, which are ints, it gives ",".join(map(str, entries))."""
    return ",".join(["%d"] * n)


def parse_one_line(text: str) -> OneLine:
    """Parse element text.

    The canonical form is comma separated ("3,0,4,0").  Single digits may
    also be packed together without commas ("3040", surrounding parens
    allowed), which is unambiguous only while n <= 9.  Entries are ASCII
    digits only.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if "," in s:
        tokens = [t.strip() for t in s.split(",")]
    else:
        if len(s) > 9:
            raise ValueError("digit-packed form is limited to n <= 9; use commas")
        tokens = list(s)
    if not tokens or any(not (t.isascii() and t.isdigit()) for t in tokens):
        raise ValueError(f"malformed element text: {text!r}")
    return OneLine(tuple(int(t) for t in tokens))


def to_matrix(x: OneLine) -> tuple[tuple[int, ...], ...]:
    """The rows of the 0-1 matrix of x: a 1 in row x_j of column j for
    every nonzero x_j."""
    n = x.n
    rows = [[0] * n for _ in range(n)]
    for j, a in enumerate(x.entries):
        if a:
            rows[a - 1][j] = 1
    return tuple(tuple(r) for r in rows)


def rank(x: OneLine) -> int:
    """Number of ones in the matrix, i.e. of nonzero columns."""
    return sum(1 for a in x.entries if a)


def enumerate_elements(n: int) -> Iterator[OneLine]:
    """Yield every element of R_n exactly once, in lexicographic order of
    the entry vectors.  Lazy: an n that is not an int (a bool is not
    one) of at least 1 raises at the call, and each element is built
    when asked for.  A stack holds prefixes: a popped prefix is yielded
    when full, else replaced by its extensions by 0 and by each value it
    lacks, pushed largest first.  The smallest pops first, and all under
    it pop before its next sibling: the order is lexicographic.  Each
    element is made by OneLine, which checks it, so a tuple outside R_n
    raises ValueError when it is reached."""
    if type(n) is not int or n < 1:
        raise ValueError("n must be at least 1, and an int")

    def walk() -> Iterator[OneLine]:
        values = range(n, -1, -1)
        stack = [()]
        while stack:
            t = stack.pop()
            if len(t) == n:
                yield OneLine(t)
            else:
                stack += [t + (v,) for v in values if not v or v not in t]

    return walk()


def _check_same_n(a: tuple[int, ...], b: tuple[int, ...]) -> None:
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
