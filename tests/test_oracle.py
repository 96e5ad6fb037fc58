from random import Random

import pytest

from rookorder import (
    OneLine,
    left_span,
    length,
    oracle_length,
    parse_one_line,
    rank,
    right_span,
)
from rookorder.elements import to_matrix

from helpers import (
    dense_oracle,
    elements_of,
    identity_el,
    matrix_product_01,
    reversal_el,
    unit_matrix,
    zero_el,
)


def test_span_example():
    x = parse_one_line("4,0,2,3")
    left = left_span(x)
    right = right_span(x)
    assert (left | right) >> 16 == 0
    assert left.bit_count() == 9
    assert right.bit_count() == 7
    assert (left & right).bit_count() == 4
    assert oracle_length(x) == 12


def test_span_of_zero_and_identity():
    z = zero_el(3)
    assert left_span(z).bit_count() == 0
    assert right_span(z).bit_count() == 0
    assert oracle_length(z) == 0
    for n in (1, 2, 3, 4):
        e = identity_el(n)
        expected = n * (n + 1) // 2
        assert left_span(e).bit_count() == expected
        assert right_span(e).bit_count() == expected
        assert oracle_length(e) == expected


def test_span_coordinates_lie_in_ambient_space():
    x = parse_one_line("2,0,3")
    for span in (left_span(x), right_span(x)):
        assert type(span) is int
        assert span >= 0 and span >> 9 == 0
    # rows 0..1 of column 0 and rows 0..2 of column 2
    assert left_span(x) == sum(1 << c for c in (0, 3, 2, 5, 8))


def test_meet_with_self_is_rank():
    span = left_span(parse_one_line("4,0,2,3"))
    assert (span & span).bit_count() == span.bit_count()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_closed_forms_exhaustive(n):
    for x in elements_of(n):
        left = left_span(x)
        right = right_span(x)
        assert left.bit_count() == sum(x.entries)
        assert right.bit_count() == sum(n - i for i, a in enumerate(x.entries) if a)
        meet = (left & right).bit_count()
        # the ones of x lie in both spans
        assert rank(x) <= meet <= min(left.bit_count(), right.bit_count())
        for span in (left, right):
            assert span >> n * n == 0


def _flat_positions(products, n):
    """Bitmask of the flat positions r*n + c of the nonzero entries of
    the given n-by-n matrices."""
    positions = {r * n + c for m in products for r in range(n) for c in range(n) if m[r][c]}
    return sum(1 << p for p in positions)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_span_bits_are_the_positions_of_the_nonzero_unit_products(n):
    units = [unit_matrix(n, i, j) for i in range(n) for j in range(i, n)]
    for x in elements_of(n):
        m = to_matrix(x)
        left = _flat_positions((matrix_product_01(u, m) for u in units), n)
        right = _flat_positions((matrix_product_01(m, u) for u in units), n)
        assert (left_span(x), right_span(x)) == (left, right), str(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_matches_dense_reference_exhaustive(n):
    for x in elements_of(n):
        left = left_span(x)
        right = right_span(x)
        got = (left.bit_count(), right.bit_count(), (left & right).bit_count(), oracle_length(x))
        assert got == dense_oracle(x), str(x)


def test_oracle_at_large_n():
    assert oracle_length(identity_el(30)) == 465
    assert oracle_length(reversal_el(30)) == 900
    rng = Random(12)
    n = 12
    for _ in range(50):
        k = rng.randint(0, n)
        entries = [0] * n
        for p, v in zip(rng.sample(range(n), k), rng.sample(range(1, n + 1), k)):
            entries[p] = v
        x = OneLine(tuple(entries))
        assert oracle_length(x) == length(x), str(x)

