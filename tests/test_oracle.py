from random import Random

import pytest
from hypothesis import given

from rookorder import (
    OneLine,
    left_span,
    length,
    meet_dim,
    oracle_length,
    parse_one_line,
    rank,
    right_span,
)

from helpers import (
    dense_oracle,
    elements_of,
    identity_el,
    reversal_el,
    rook_elements,
    zero_el,
)


def test_span_example():
    x = parse_one_line("4,0,2,3")
    left = left_span(x)
    right = right_span(x)
    assert left.ambient_dim == right.ambient_dim == 16
    assert left.rank == 9
    assert right.rank == 7
    assert meet_dim(left, right) == 4
    assert oracle_length(x) == 12


def test_span_of_zero_and_identity():
    z = zero_el(3)
    assert left_span(z).rank == 0
    assert right_span(z).rank == 0
    assert oracle_length(z) == 0
    for n in (1, 2, 3, 4):
        e = identity_el(n)
        expected = n * (n + 1) // 2
        assert left_span(e).rank == expected
        assert right_span(e).rank == expected
        assert oracle_length(e) == expected


def test_span_coordinates_lie_in_ambient_space():
    x = parse_one_line("2,0,3")
    for span in (left_span(x), right_span(x)):
        assert span.ambient_dim == 9
        assert all(type(c) is int and c in range(9) for c in span.coordinates)
        assert span.rank == len(span.coordinates)
    # rows 0..1 of column 0 and rows 0..2 of column 2
    assert left_span(x).coordinates == {0, 3, 2, 5, 8}


def test_meet_with_self_is_rank():
    span = left_span(parse_one_line("4,0,2,3"))
    assert meet_dim(span, span) == span.rank


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        meet_dim(left_span(zero_el(2)), left_span(zero_el(3)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_closed_forms_exhaustive(n):
    for x in elements_of(n):
        left = left_span(x)
        right = right_span(x)
        assert left.rank == sum(x.entries)
        assert right.rank == sum(n - i for i, a in enumerate(x.entries) if a)
        meet = meet_dim(left, right)
        assert 0 <= meet <= min(left.rank, right.rank)
        for span in (left, right):
            assert span.coordinates <= set(range(n * n))
            assert span.rank == len(span.coordinates)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_matches_formula_exhaustive(n):
    for x in elements_of(n):
        assert oracle_length(x) == length(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_matches_dense_reference_exhaustive(n):
    for x in elements_of(n):
        left = left_span(x)
        right = right_span(x)
        got = (left.rank, right.rank, meet_dim(left, right), oracle_length(x))
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


@given(rook_elements(max_n=5, n=5))
def test_oracle_matches_formula_sampled_r5(x):
    assert oracle_length(x) == length(x)


@given(rook_elements(max_n=4))
def test_meet_bounded_by_rank_plus(x):
    left = left_span(x)
    right = right_span(x)
    meet = meet_dim(left, right)
    assert meet >= rank(x)  # the ones of x lie in both closures
    assert meet <= min(left.rank, right.rank)
