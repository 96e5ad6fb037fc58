import copy
import pickle
import tracemalloc
from itertools import islice

import pytest

from rookorder import (
    OneLine,
    enumerate_elements,
    parse_one_line,
    rank,
)
from rookorder.elements import to_matrix
from rookorder.poset import build_hasse

from helpers import (
    closed_form_count,
    elements_of,
    from_matrix,
    identity_el,
    reversal_el,
    zero_el,
)


def test_parse_canonical():
    assert parse_one_line("3,0,4,0").entries == (3, 0, 4, 0)
    assert parse_one_line(" 3 , 0 , 4 , 0 ").entries == (3, 0, 4, 0)
    assert parse_one_line("0,0,0").entries == (0, 0, 0)


def test_parse_digit_packed():
    assert parse_one_line("3040") == parse_one_line("3,0,4,0")
    assert parse_one_line("(3040)") == parse_one_line("3,0,4,0")
    assert parse_one_line("(3142)").entries == (3, 1, 4, 2)
    assert parse_one_line("1").entries == (1,)


def test_parse_rejects_garbage():
    for bad in ["", "1,a", "1,,2", "-1,2", "1;2", "(", "2,2,1", "3,1", "0,0,4"]:
        with pytest.raises(ValueError):
            parse_one_line(bad)


def test_parse_accepts_ascii_digits_only():
    # fullwidth 2, Arabic-Indic 3 and 0, superscript 2: all str.isdigit()
    for bad in ["1,\uff12", "\u0663,\u0660", "\u00b2"]:
        with pytest.raises(ValueError, match="malformed element text"):
            parse_one_line(bad)


def test_parse_digit_packed_is_bounded():
    with pytest.raises(ValueError):
        parse_one_line("0" * 10)
    # ten columns spelled with commas are fine
    assert parse_one_line(",".join(["0"] * 10)).n == 10


def test_one_line_validation():
    with pytest.raises(ValueError):
        OneLine(())
    with pytest.raises(ValueError):
        OneLine((3, 0))  # entry above n
    with pytest.raises(ValueError):
        OneLine((1, 1))  # repeated nonzero
    assert OneLine((0, 0)).n == 2


@pytest.mark.parametrize("entries, message", [
    ((True, 0), "entry True is not an int"),  # would equal OneLine((1, 0)) and print True,0
    ((0, 1.0), "entry 1.0 is not an int"),  # would end in a TypeError of moves._key
    ((0, "1"), "entry '1' is not an int"),
    ((3, 0), "entry 3 outside 0..2"),
    ([1, 0], "entries must be a tuple of ints, not list"),  # would hash not at all
    ("10", "entries must be a tuple of ints, not str"),
])
def test_one_line_refuses_entries_that_are_not_a_tuple_of_ints(entries, message):
    with pytest.raises(ValueError) as refusal:
        OneLine(entries)
    assert str(refusal.value) == message


def test_one_line_is_equal_and_hashes_by_its_entries():
    x, same, other = OneLine((3, 0, 4, 0)), OneLine((3, 0, 4, 0)), OneLine((3, 0, 0, 4))
    assert x == same and x is not same and not x != same
    assert x != other
    assert hash(x) == hash(same) == hash(((3, 0, 4, 0),))
    assert {x: 1}[same] == 1 and len({x, same, other}) == 2


def test_one_line_is_a_slotted_record_that_cannot_change():
    x = OneLine((3, 0, 4, 0))
    assert repr(x) == "OneLine(entries=(3, 0, 4, 0))"
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError, match="cannot assign to field 'entries'"):
        x.entries = (1, 0, 0, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        x.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field 'entries'"):
        del x.entries
    assert x.entries == (3, 0, 4, 0)
    assert x != (3, 0, 4, 0) and (3, 0, 4, 0) != x


def test_one_line_round_trips_through_pickle_and_copy():
    x = OneLine((1, 0))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(x, protocol)) == x
    for obj in (x, build_hasse(3), list(enumerate_elements(3))):
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
    # Loading goes through the constructor, so it checks the entries.
    forged = object.__new__(OneLine)
    object.__setattr__(forged, "entries", (1, 1))
    with pytest.raises(ValueError, match="nonzero entry 1 appears twice"):
        pickle.loads(pickle.dumps(forged))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_an_enumerated_element_is_what_the_constructor_makes(n):
    # enumerate_elements stores its tuples without OneLine's checks.
    for x in enumerate_elements(n):
        checked = OneLine(x.entries)
        assert type(x) is OneLine and x == checked and hash(x) == hash(checked)
        assert str(x) == ",".join(map(str, x.entries))
        with pytest.raises(AttributeError, match="cannot assign to field 'entries'"):
            x.entries = checked.entries
        with pytest.raises(AttributeError, match="cannot delete field 'entries'"):
            del x.entries


def test_element_text_at_sizes_the_template_cache_evicted():
    # The text templates are cached for 8 sizes, so n = 1, 9 and 10 are
    # made again after sizes 1..12; n = 1000 has multi-digit entries.
    for n in [*range(1, 13), 1, 9, 10, 1000]:
        for x in (zero_el(n), identity_el(n), reversal_el(n)):
            assert str(x) == ",".join(map(str, x.entries))


def test_str_parse_round_trip():
    for n in (1, 2, 3, 4, 5, 6):
        for x in elements_of(n):
            assert parse_one_line(str(x)) == x


def test_matrix_shapes():
    m = to_matrix(parse_one_line("3,0,4,0"))
    assert m == (
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 1, 0),
    )
    assert from_matrix(m).entries == (3, 0, 4, 0)
    perm = to_matrix(parse_one_line("3,1,4,2"))
    assert all(sum(row) == 1 for row in perm)
    assert all(sum(row[j] for row in perm) == 1 for j in range(4))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matrix_round_trip_exhaustive(n):
    for x in elements_of(n):
        m = to_matrix(x)
        # a square 0-1 matrix with at most one 1 per row and per column
        assert len(m) == n and all(len(row) == n for row in m)
        assert all(v in (0, 1) for row in m for v in row)
        assert all(sum(row) <= 1 for row in m)
        assert all(sum(row[j] for row in m) <= 1 for j in range(n))
        assert from_matrix(m) == x
        assert rank(x) == sum(map(sum, m))


def test_rank_and_permutation():
    assert rank(parse_one_line("3,0,4,0")) == 2
    assert rank(zero_el(3)) == 0
    assert rank(identity_el(3)) == 3
    assert rank(parse_one_line("3,1,4,2")) == 4  # a permutation fills every column


def test_enumeration_order_and_uniqueness():
    for n in (1, 2, 3, 4):
        seq = [x.entries for x in elements_of(n)]
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)


def test_enumeration_small_listings():
    assert [x.entries for x in elements_of(1)] == [(0,), (1,)]
    assert [x.entries for x in elements_of(2)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
    ]


def test_enumeration_rejects_nonpositive():
    # At the call, before any element is asked for.
    for n in (0, -1, True, 2.0, "3"):
        with pytest.raises(ValueError, match="n must be at least 1"):
            enumerate_elements(n)


@pytest.mark.parametrize("n", [6, 7])
def test_enumeration_streams_the_closed_form_count_ascending(n):
    count = 0
    last = ()
    for x in enumerate_elements(n):
        assert x.entries > last
        last = x.entries
        count += 1
    assert count == closed_form_count(n)


def test_enumeration_is_lazy():
    # The first 1 000 of R_8's 1 441 729 elements, with only them built;
    # building all of R_8 before the first yield peaks near 200 MB.
    tracemalloc.start()
    try:
        first = [x.entries for x in islice(enumerate_elements(8), 1000)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first[:2] == [(0,) * 8, (0,) * 7 + (1,)]
    assert len(first) == 1000
    assert peak < 1 << 20


def test_module_doctests():
    # The examples of the package and of every module in it.
    import doctest
    import importlib
    import pkgutil

    import rookorder

    names = [info.name for info in pkgutil.iter_modules(rookorder.__path__, "rookorder.")]
    failed = attempted = 0
    for module in [rookorder, *map(importlib.import_module, names)]:
        result = doctest.testmod(module)
        failed, attempted = failed + result.failed, attempted + result.attempted
    assert failed == 0
    assert attempted >= 5
