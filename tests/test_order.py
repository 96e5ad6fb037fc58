import random
from collections import Counter
from itertools import accumulate, permutations
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookorder import (
    OneLine,
    covers_of,
    deodhar_leq,
    deodhar_leq_gamma,
    length,
    ppr_leq,
    ppr_raises,
)
from rookorder import order
from rookorder.order import _entries, _key, _layout

from helpers import (
    brute_cover_sets,
    classical_bruhat_leq,
    deodhar_matrix,
    element_pairs,
    elements_of,
    kernel_moves,
    key_entries,
    lengths_of,
    reference_moves,
    rook_elements,
)


def test_deodhar_examples():
    assert deodhar_leq(OneLine((4, 0, 2, 3, 1)), OneLine((4, 3, 0, 5, 1)))
    assert not deodhar_leq(OneLine((3, 5, 2, 0, 1)), OneLine((2, 1, 4, 0, 3)))
    assert deodhar_leq(OneLine((0, 0)), OneLine((2, 1)))
    with pytest.raises(ValueError):
        deodhar_leq(OneLine((1, 0)), OneLine((1, 0, 0)))


def test_deodhar_not_just_final_containment():
    # entry multisets are comparable, but the k = 1 truncation is not
    assert all(u <= v for u, v in zip(sorted((2, 0)), sorted((1, 2))))
    assert not deodhar_leq(OneLine((2, 0)), OneLine((1, 2)))


def test_gamma_variant_examples():
    assert deodhar_leq_gamma(OneLine((1, 0, 3)), OneLine((3, 0, 2)))
    assert not deodhar_leq_gamma(OneLine((3, 0, 2)), OneLine((1, 0, 3)))
    # counting strictly above the entry values themselves would wrongly
    # accept this pair; thresholds sit just below each nonzero entry
    assert not deodhar_leq_gamma(OneLine((2, 0)), OneLine((1, 0)))
    with pytest.raises(ValueError):
        deodhar_leq_gamma(OneLine((1, 0)), OneLine((1, 0, 0)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gamma_variant_agrees_exhaustively(n):
    els = elements_of(n)
    rows = deodhar_matrix(n)
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            assert deodhar_leq_gamma(x, y) == bool(rows[i] >> j & 1)


def _is_single_move(x: OneLine, y: OneLine) -> bool:
    """y arises from x by raising one entry to an unused larger value, or
    by swapping one smaller entry with a larger one to its right."""
    a, b = x.entries, y.entries
    diff = [p for p in range(len(a)) if a[p] != b[p]]
    if len(diff) == 1:
        (i,) = diff
        return b[i] > a[i] and b[i] not in a
    if len(diff) == 2:
        i, j = diff
        return a[i] < a[j] and (b[i], b[j]) == (a[j], a[i])
    return False


def test_generator_moves_examples():
    results = ppr_raises(OneLine((2, 1, 4, 0, 3)))
    assert OneLine((3, 1, 4, 0, 2)) in results  # exchange of positions 1 and 5
    assert OneLine((2, 1, 4, 5, 3)) in results  # raise of the empty column
    assert OneLine((2, 1, 5, 0, 3)) in results  # raise 4 -> 5
    assert OneLine((1, 2, 4, 0, 3)) not in results  # descending exchange
    assert (3, 5, 2, 0, 1) in {y.entries for y in ppr_raises(OneLine((3, 5, 1, 0, 2)))}
    assert ppr_raises(OneLine((2, 1))) == []  # top element moves nowhere
    assert ppr_raises(OneLine((0,))) == [OneLine((1,))]


@given(rook_elements(max_n=5))
def test_generator_moves_go_strictly_up(x):
    results = ppr_raises(x)
    assert len({y.entries for y in results}) == len(results)
    for y in results:
        assert y.n == x.n
        assert _is_single_move(x, y)
        assert length(y) > length(x)
    # every single move is listed
    expected = sum(
        1 for a in x.entries for v in range(a + 1, x.n + 1) if v not in x.entries
    )
    expected += sum(
        1 for i in range(x.n) for j in range(i + 1, x.n) if x.entries[i] < x.entries[j]
    )
    assert len(results) == expected


def test_ppr_examples():
    assert ppr_leq(OneLine((2, 1, 4, 0, 3)), OneLine((3, 5, 2, 0, 1)))
    assert not ppr_leq(OneLine((3, 5, 2, 0, 1)), OneLine((2, 1, 4, 0, 3)))
    assert ppr_leq(OneLine((0, 0)), OneLine((0, 0)))
    with pytest.raises(ValueError):
        ppr_leq(OneLine((1, 0)), OneLine((1, 0, 0)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ppr_agrees_with_deodhar_exhaustively(n):
    els = elements_of(n)
    rows = deodhar_matrix(n)
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            assert ppr_leq(x, y) == deodhar_leq(x, y) == bool(rows[i] >> j & 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_keys_decode_and_increase_in_enumeration_order(n):
    # the key is a bijection, read back by the library and by the layout
    # the helper restates, and key order is lexicographic order
    keys = []
    for x in elements_of(n):
        key = _key(x.entries)
        assert _entries(key, n) == key_entries(key, n) == x.entries
        keys.append(key)
    assert all(a < b for a, b in zip(keys, keys[1:]))


def _guard_test(z, y):
    """The search's prefix-sum test on keys: every prefix sum of z is at
    most the same prefix sum of y."""
    guard = _layout(len(y))[1]
    return ((_key(y) | guard) - _key(z)) & guard == guard


def test_guard_test_is_the_prefix_sum_test_on_every_pair_of_r4():
    els = [x.entries for x in elements_of(4)]
    held = 0
    for z in els:
        for y in els:
            expected = all(map(le, accumulate(z), accumulate(y)))
            assert _guard_test(z, y) == expected, (z, y)
            held += expected
    assert 0 < held < len(els) ** 2


@pytest.mark.parametrize("n", [7, 8, 15, 16])
def test_guard_test_is_the_prefix_sum_test_where_the_field_width_changes(n):
    # n(n + 1)/2 is 28, 36, 120 and 136: the field width is 6, 7, 8 and 9
    # bits.  The reversal has the largest prefix sums, and the zero the
    # smallest, so the pairs reach both ends of every field.
    assert _layout(n)[0] == (n * (n + 1) // 2).bit_length() + 1
    rng = random.Random(n)

    def draw():
        values = rng.sample(range(1, n + 1), rng.randrange(n + 1))
        entries = values + [0] * (n - len(values))
        rng.shuffle(entries)
        return tuple(entries)

    ends = [(0,) * n, tuple(range(n, 0, -1)), tuple(range(1, n + 1))]
    drawn = ends + [draw() for _ in range(300)]
    held = 0
    for z in drawn:
        assert key_entries(_key(z), n) == z
        for y in ends + drawn[len(ends):len(ends) + 40]:
            expected = all(map(le, accumulate(z), accumulate(y)))
            assert _guard_test(z, y) == expected, (z, y)
            held += expected
    assert held and not all(_guard_test(z, ends[0]) for z in drawn)


def test_keys_of_different_sizes_collide_and_the_caches_tell_them_apart():
    # the zeros of R_1 and R_2 both pack to 0, and 0,1 packs as 1 does;
    # ppr_leq and covers_of interleaved over R_1..R_3 in one process must
    # still answer for the size they are asked about
    assert _key((0,)) == _key((0, 0)) == 0
    assert _key((1,)) == _key((0, 1)) == 1
    order._successors.cache_clear()
    order._layout.cache_clear()
    sizes = [(elements_of(n), deodhar_matrix(n), brute_cover_sets(n)) for n in (1, 2, 3)]
    for t in range(len(elements_of(3))):
        for els, rows, covers in sizes:
            i = t % len(els)
            x = els[i]
            assert {c.entries for c in covers_of(x)} == covers[i], x
            for j, y in enumerate(els):
                assert ppr_leq(x, y) == bool(rows[i] >> j & 1), (x, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_moves_never_lower_the_entry_sum(n):
    # the prefix-sum potential of the search: a swap keeps the entry sum,
    # a raise adds to it, and every prefix sum, of which the entry sum is
    # the last, rises by exactly the move's step over the prefixes that
    # hold the change
    for x in elements_of(n):
        a = x.entries
        for b, _ in kernel_moves(a):
            diff = [p for p in range(n) if a[p] != b[p]]
            changed = len(diff)
            assert changed in (1, 2)
            if changed == 2:
                assert sum(b) == sum(a)
                i, j = diff
                step, rises = b[i] - a[i], range(i, j)
            else:
                assert sum(b) > sum(a)
                (i,) = diff
                step, rises = b[i] - a[i], range(i, n)
            assert step > 0
            for k, (s, t) in enumerate(zip(accumulate(a), accumulate(b))):
                assert t - s == (step if k in rises else 0)


def test_prefix_sums_refuse_a_pair_before_the_search(monkeypatch):
    # lexicographically below and with the smaller entry sum, but the
    # second prefix sum of x is 3 against 1: the search may not expand x
    def expand(key, n):
        raise AssertionError("the search expanded a node")

    monkeypatch.setattr(order, "_successors", expand)
    assert not ppr_leq(OneLine((0, 3, 0)), OneLine((1, 0, 3)))


@pytest.mark.parametrize("x, y", [
    # x's one successor below y, 0,3,0, has entry sum 3 = sum(y) but
    # second prefix sum 3 against 1
    ((0, 0, 3), (1, 0, 2)),
    # x's five successors below y each have entry sum at most 6 = sum(y),
    # but a second or third prefix sum above y's 2 or 3
    ((0, 0, 3, 2), (2, 0, 1, 3)),
])
def test_prefix_sums_prune_the_nodes_of_the_search(monkeypatch, x, y):
    # every node the entry sum alone would keep is refused by a prefix sum,
    # so the search ends after expanding x and nothing else
    successors = order._successors

    def expand(key, n):
        assert key_entries(key, n) == x, f"the search expanded {key_entries(key, n)}"
        return successors(key, n)

    monkeypatch.setattr(order, "_successors", expand)
    assert not ppr_leq(OneLine(x), OneLine(y))


def test_search_visits_successors_in_kernel_order(monkeypatch):
    # first raise first reaches this y, far above the zero element of R_7,
    # in 14 expansions; visiting the successors last first takes 28 625
    successors = order._successors
    expanded = []

    def expand(key, n):
        expanded.append(key)
        return successors(key, n)

    monkeypatch.setattr(order, "_successors", expand)
    assert ppr_leq(OneLine((0,) * 7), OneLine((4, 5, 3, 2, 6, 1, 0)))
    assert len(expanded) <= 50


def test_search_tests_each_node_once(monkeypatch):
    # a node refused by its prefix sums is remembered too, so no node is
    # prefix-tested twice however many nodes generate it; on this false
    # pair a search that remembers only kept nodes tests one node 14 times.
    # The prefix test of a node z is ceiling - z, the one subtraction with
    # a node on its right, so successors that count their reflected
    # subtractions count the tests.
    tested = Counter()

    class Node(int):
        def __rsub__(self, other):
            tested[int(self)] += 1
            return other - int(self)

    successors = order._successors
    monkeypatch.setattr(
        order, "_successors", lambda key, n: tuple(map(Node, successors(int(key), n)))
    )
    assert not ppr_leq(OneLine((0, 0, 0, 0, 6, 0)), OneLine((5, 4, 3, 2, 1, 6)))
    assert len(tested) > 1000
    assert max(tested.values()) == 1


def test_search_refuses_the_false_pairs_that_pass_both_entry_tests():
    # the pairs the entry tests cannot refute still reach the search, so
    # its own False path is exercised on each of them
    els = elements_of(4)
    rows = deodhar_matrix(4)
    admitted = 0
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            a, b = x.entries, y.entries
            if rows[i] >> j & 1 or a > b:
                continue
            if all(s <= t for s, t in zip(accumulate(a), accumulate(b))):
                admitted += 1
                assert not ppr_leq(x, y), (x, y)
    assert admitted == 1792


def test_ppr_agrees_with_deodhar_on_length_stratified_r6_pairs():
    # one seeded pair per cell (a, b) of lengths with a <= b: 703 pairs,
    # 487 of them comparable
    levels = {}
    for x in elements_of(6):
        levels.setdefault(length(x), []).append(x)
    rng = random.Random(6)
    answers = []
    for a in sorted(levels):
        for b in sorted(levels):
            if a <= b:
                x, y = rng.choice(levels[a]), rng.choice(levels[b])
                d = deodhar_leq(x, y)
                assert ppr_leq(x, y) == d, (x, y)
                answers.append(d)
    assert len(answers) >= 500
    assert True in answers and False in answers


def _is_cover_move(x: OneLine, y: OneLine) -> bool:
    """Whether y covers x, for a y that arises from x by one move."""
    assert y in ppr_raises(x)
    return y in covers_of(x)


def test_cover_type1_examples():
    # raises of one entry
    x = OneLine((4, 0, 5, 0, 3, 1))
    assert _is_cover_move(x, OneLine((4, 0, 5, 0, 6, 1)))  # 3 -> 6 via 4, 5 on the left
    assert not _is_cover_move(x, OneLine((6, 0, 5, 0, 3, 1)))  # skips 5
    assert _is_cover_move(OneLine((0, 0)), OneLine((0, 1)))
    # raising the first empty column is no cover: 0,1 sits between
    assert not _is_cover_move(OneLine((0, 0)), OneLine((1, 0)))


def test_cover_type2_examples():
    # exchanges of a smaller entry with a larger one to its right
    assert _is_cover_move(OneLine((2, 6, 5, 0, 4, 1, 7)), OneLine((4, 6, 5, 0, 2, 1, 7)))
    assert not _is_cover_move(OneLine((1, 2, 3)), OneLine((3, 2, 1)))
    assert _is_cover_move(OneLine((0, 1)), OneLine((1, 0)))


def test_reversal_is_three_covers_above_identity_in_r3():
    # lengths 6 and 9; gradedness puts three cover steps between them
    bottom, top = OneLine((1, 2, 3)), OneLine((3, 2, 1))
    assert length(bottom) == 6
    assert length(top) == 9
    assert deodhar_leq(bottom, top)
    frontier = {bottom.entries}
    steps = 0
    while top.entries not in frontier:
        frontier = {c.entries for e in frontier for c in covers_of(OneLine(e))}
        steps += 1
    assert steps == 3


@given(rook_elements(max_n=5), st.data())
def test_cover_predicates_match_length_jump(x, data):
    moves = ppr_raises(x)
    if not moves:
        return
    y = data.draw(st.sampled_from(moves))
    assert (y in covers_of(x)) == (length(y) == length(x) + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_move_kernel_cover_flags_match_the_public_predicates(n):
    brute = brute_cover_sets(n)
    for i, x in enumerate(elements_of(n)):
        for entries, cover in kernel_moves(x.entries):
            assert entries > x.entries
            assert cover == (entries in brute[i])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_move_kernel_equals_the_definitional_reference(n):
    # same moves, same order, same cover flags
    for x in elements_of(n):
        assert kernel_moves(x.entries) == reference_moves(x.entries), x


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_covers_match_brute_force_exhaustive(n):
    brute = brute_cover_sets(n)
    for i, x in enumerate(elements_of(n)):
        assert {c.entries for c in covers_of(x)} == set(brute[i])


def test_covers_examples():
    assert [c.entries for c in covers_of(OneLine((0, 0)))] == [(0, 1)]
    tops = covers_of(OneLine((2, 1)))
    assert tops == []
    assert (4, 0, 5, 0, 6, 1) in {c.entries for c in covers_of(OneLine((4, 0, 5, 0, 3, 1)))}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ascending_swaps_go_up_exhaustive(n):
    for x in elements_of(n):
        a = x.entries
        for i in range(n):
            for r in range(i + 1, n):
                if a[i] < a[r]:
                    swapped = list(a)
                    swapped[i], swapped[r] = swapped[r], swapped[i]
                    z = OneLine(tuple(swapped))
                    assert z != x
                    assert deodhar_leq(x, z)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partial_order_axioms_exhaustive(n):
    els = elements_of(n)
    rows = deodhar_matrix(n)
    for i in range(len(els)):
        assert rows[i] >> i & 1  # reflexive
        bits = rows[i]
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            bits ^= low
            if rows[j] >> i & 1:
                assert i == j  # antisymmetric
            assert rows[i] | rows[j] == rows[i]  # transitive: up-sets nest


@given(element_pairs(max_n=4))
def test_order_respects_length(pair):
    x, y = pair
    if deodhar_leq(x, y) and x != y:
        assert length(x) < length(y)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_strict_monotonicity_exhaustive(n):
    els = elements_of(n)
    rows = deodhar_matrix(n)
    lens = lengths_of(n)
    for i in range(len(els)):
        bits = rows[i] & ~(1 << i)
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            bits ^= low
            assert lens[i] < lens[j]


@pytest.mark.parametrize("n", [2, 3])
def test_prefix_and_suffix_stability(n):
    els = elements_of(n)
    for x in els:
        for y in els:
            if not deodhar_leq(x, y):
                continue
            # a prefix padded with empty columns is again an element of R_n,
            # and the padding adds equal zeros to both sorted truncations
            for k in range(1, n + 1):
                pad = (0,) * (n - k)
                assert deodhar_leq(OneLine(x.entries[:k] + pad), OneLine(y.entries[:k] + pad))
            for c in range(0, n + 2):
                try:
                    xc = OneLine(x.entries + (c,))
                    yc = OneLine(y.entries + (c,))
                except ValueError:
                    continue
                assert deodhar_leq(xc, yc)


def test_symmetric_group_restriction_exhaustive():
    for n in (1, 2, 3, 4):
        perms = [OneLine(p) for p in permutations(range(1, n + 1))]
        for u in perms:
            for w in perms:
                assert deodhar_leq(u, w) == classical_bruhat_leq(u, w)


@settings(max_examples=60)
@given(st.data())
def test_symmetric_group_restriction_sampled_s5(data):
    base = tuple(range(1, 6))
    u = OneLine(tuple(data.draw(st.permutations(base))))
    w = OneLine(tuple(data.draw(st.permutations(base))))
    assert deodhar_leq(u, w) == classical_bruhat_leq(u, w)
