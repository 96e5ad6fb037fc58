from collections import Counter
from itertools import permutations

import pytest

from rookorder import (
    OneLine,
    coinversions,
    enumerate_elements,
    length,
    length_breakdown,
    parse_one_line,
    rank,
)

from helpers import elements_of, identity_el, reversal_el, tuple_inversions, zero_el


def test_coinversion_examples():
    assert coinversions(parse_one_line("4,0,2,3")) == [(3, 4)]
    assert coinversions(parse_one_line("3,2,1")) == []
    assert coinversions(parse_one_line("3,0,5,1,0,4")) == [(1, 3), (1, 6), (4, 6)]
    assert coinversions(zero_el(4)) == []


# test_acceptance::test_criterion_01 pins the worked examples and
# test_criterion_09 the misprinted one; this is the one value neither pins.
LENGTH_EXAMPLES = [
    ("1,2,3,4", 10),
]


@pytest.mark.parametrize("text,expected", LENGTH_EXAMPLES)
def test_length_examples(text, expected):
    assert length(parse_one_line(text)) == expected


def test_permutation_length_is_shifted_inversion_count():
    for n in (1, 2, 3, 4, 5):
        shift = n * (n + 1) // 2
        for p in permutations(range(1, n + 1)):
            w = OneLine(p)
            assert length(w) == tuple_inversions(p) + shift


def test_dimension_pieces():
    def dims(x):
        b = length_breakdown(x)
        return b.dim_bx, b.dim_xb, b.dim_meet

    assert dims(parse_one_line("4,0,2,3")) == (9, 7, 4)
    assert dims(zero_el(3)) == (0, 0, 0)
    assert dims(identity_el(3))[:2] == (6, 6)
    assert dims(parse_one_line("1,2"))[2] == 3


def test_breakdown_fields():
    x = parse_one_line("4,0,2,3")
    b = length_breakdown(x)
    assert b.star_weights == (7, 0, 3, 3)
    assert b.star_sum == 13
    assert b.coinv == 1
    assert length(x) == 12
    assert (b.dim_bx, b.dim_xb, b.dim_meet) == (9, 7, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_decomposition_exhaustive(n):
    for x in elements_of(n):
        b = length_breakdown(x)
        assert length(x) == b.star_sum - b.coinv
        assert length(x) == b.dim_bx + b.dim_xb - b.dim_meet
        assert b.dim_meet == rank(x) + b.coinv
        assert b.coinv == len(coinversions(x))
        assert len(b.star_weights) == n
        assert b.star_sum == sum(b.star_weights)
        assert all(w >= 0 for w in b.star_weights)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_length_bounds_and_uniqueness(n):
    zero, top = zero_el(n), reversal_el(n)
    assert (length(zero), length(top)) == (0, n * n)
    for x in elements_of(n):
        ln = length(x)
        assert 0 <= ln <= n * n
        if ln == 0:
            assert x == zero
        if ln == n * n:
            assert x == top


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_renner_count_of_the_matrices_over_fq(n):
    # Over F_q the B x B orbit of x holds (q-1)^rank(x) * q^(length(x) - rank(x))
    # matrices, the length being the orbit's dimension, and Renner's
    # decomposition splits all q^(n*n) n-by-n matrices into these orbits.
    # Both sides are polynomials in q of degree n*n, so the n*n + 1 values
    # q = 2..n*n+2 fix the identity.  A wrong length, one that length and
    # oracle_length share included, breaks it, as does a missing or
    # repeated element.
    cells = Counter((rank(x), length(x)) for x in enumerate_elements(n))
    for q in range(2, n * n + 3):
        orbits = sum(c * (q - 1) ** r * q ** (ln - r) for (r, ln), c in cells.items())
        assert orbits == q ** (n * n), q
