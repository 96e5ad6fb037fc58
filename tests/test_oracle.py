from random import Random

import pytest
from hypothesis import given

from rookorder import (
    OneLine,
    left_span,
    length,
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
    assert left | right <= set(range(16))
    assert len(left) == 9
    assert len(right) == 7
    assert len(left & right) == 4
    assert oracle_length(x) == 12


def test_span_of_zero_and_identity():
    z = zero_el(3)
    assert len(left_span(z)) == 0
    assert len(right_span(z)) == 0
    assert oracle_length(z) == 0
    for n in (1, 2, 3, 4):
        e = identity_el(n)
        expected = n * (n + 1) // 2
        assert len(left_span(e)) == expected
        assert len(right_span(e)) == expected
        assert oracle_length(e) == expected


def test_span_coordinates_lie_in_ambient_space():
    x = parse_one_line("2,0,3")
    for span in (left_span(x), right_span(x)):
        assert type(span) is frozenset
        assert all(type(c) is int and c in range(9) for c in span)
    # rows 0..1 of column 0 and rows 0..2 of column 2
    assert left_span(x) == {0, 3, 2, 5, 8}


def test_meet_with_self_is_rank():
    span = left_span(parse_one_line("4,0,2,3"))
    assert len(span & span) == len(span)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_closed_forms_exhaustive(n):
    for x in elements_of(n):
        left = left_span(x)
        right = right_span(x)
        assert len(left) == sum(x.entries)
        assert len(right) == sum(n - i for i, a in enumerate(x.entries) if a)
        meet = len(left & right)
        assert 0 <= meet <= min(len(left), len(right))
        for span in (left, right):
            assert span <= set(range(n * n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_matches_formula_exhaustive(n):
    for x in elements_of(n):
        assert oracle_length(x) == length(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_matches_dense_reference_exhaustive(n):
    for x in elements_of(n):
        left = left_span(x)
        right = right_span(x)
        got = (len(left), len(right), len(left & right), oracle_length(x))
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
    meet = len(left & right)
    assert meet >= rank(x)  # the ones of x lie in both closures
    assert meet <= min(len(left), len(right))
