import random
from collections import Counter
from itertools import accumulate
from operator import le

import pytest

from rookorder import (
    OneLine,
    covers_of,
    deodhar_leq,
    deodhar_leq_gamma,
    length,
    ppr_leq,
)
from rookorder import moves
from rookorder.moves import _entries, _key, _layout, _moves, ppr_raises

from helpers import (
    brute_cover_sets,
    deodhar_matrix,
    elements_of,
    identity_el,
    kernel_moves,
    key_entries,
    lengths_of,
    reference_moves,
    reversal_el,
    zero_el,
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


# The count fields of deodhar_leq_gamma are n.bit_length() + 1 bits wide,
# a width that grows at n = 2, 4, 8 and 16: 1 and 3, 3 and 4, 7 and 8, and
# 15 and 16 bracket each step, and 200 is far past them.
@pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 15, 16, 200])
def test_gamma_counts_fill_their_fields_at_every_width(n):
    # A count reaches n in the reversal and in the identity, compared with
    # each other, with themselves and with the zero element.  A seeded
    # chain of covers from the zero element gives true pairs, all the way
    # to the reversal up to n = 16; reversed, they are false pairs.
    zero, ident, top = zero_el(n), identity_el(n), reversal_el(n)
    ends = (zero, ident, top)
    cases = [(x, y, x == zero or y == top or x == y) for x in ends for y in ends]
    rng = random.Random(n)
    chain = [zero]
    for _ in range(n * n if n <= 16 else 16):
        chain.append(rng.choice(covers_of(chain[-1])))
    assert n > 16 or chain[-1] == top
    picked = chain[:: max(1, len(chain) // 20)]
    for i, x in enumerate(picked):
        cases += [(x, y, True) for y in picked[i:]]
        cases += [(y, x, False) for y in picked[i + 1:]]
    for x, y, want in cases:
        assert deodhar_leq_gamma(x, y) == deodhar_leq(x, y) == want, (x, y)


def test_generator_moves_examples():
    results = ppr_raises(OneLine((2, 1, 4, 0, 3)))
    assert OneLine((3, 1, 4, 0, 2)) in results  # exchange of positions 1 and 5
    assert OneLine((2, 1, 4, 5, 3)) in results  # raise of the empty column
    assert OneLine((2, 1, 5, 0, 3)) in results  # raise 4 -> 5
    assert OneLine((1, 2, 4, 0, 3)) not in results  # descending exchange
    assert (3, 5, 2, 0, 1) in {y.entries for y in ppr_raises(OneLine((3, 5, 1, 0, 2)))}
    assert ppr_raises(OneLine((2, 1))) == []  # top element moves nowhere
    assert ppr_raises(OneLine((0,))) == [OneLine((1,))]


def test_generator_moves_go_strictly_up():
    # every move of R_1..R_5: ppr_raises lists the definitional moves in
    # lexicographic order, each longer than x, and a move covers x exactly
    # when it is one length step above x
    for n in (1, 2, 3, 4, 5):
        for x, ln in zip(elements_of(n), lengths_of(n)):
            moves = ppr_raises(x)
            assert [y.entries for y in moves] == sorted(b for b, _ in reference_moves(x.entries)), x
            covers = set(covers_of(x))
            for y in moves:
                assert length(y) > ln, (x, y)
                assert (y in covers) == (length(y) == ln + 1), (x, y)


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
    """The search's test on keys: every prefix sum and every prefix
    square sum of z is at most the same one of y."""
    guard = _layout(len(y))[2]
    return ((_key(y) | guard) - _key(z)) & guard == guard


def _square_sums(a):
    return accumulate(v * v for v in a)


def _sums_test(z, y):
    """The same test on entries."""
    return (all(map(le, accumulate(z), accumulate(y)))
            and all(map(le, _square_sums(z), _square_sums(y))))


def test_guard_test_is_the_prefix_sum_test_on_every_pair_of_r4():
    # both potentials at once: prefix sums and prefix square sums, each of
    # which refuses pairs that the other admits
    els = [x.entries for x in elements_of(4)]
    held = sums_only = squares_only = 0
    for z in els:
        for y in els:
            expected = _sums_test(z, y)
            assert _guard_test(z, y) == expected, (z, y)
            held += expected
            sums = all(map(le, accumulate(z), accumulate(y)))
            squares = all(map(le, _square_sums(z), _square_sums(y)))
            sums_only += sums and not squares
            squares_only += squares and not sums
    assert 0 < held < len(els) ** 2
    assert sums_only and squares_only


@pytest.mark.parametrize("n", [7, 8, 15, 16])
def test_guard_test_is_the_prefix_sum_test_where_the_field_width_changes(n):
    # n(n + 1)/2 is 28, 36, 120 and 136: the sum field width is 6, 7, 8
    # and 9 bits; n(n + 1)(2n + 1)/6 is 140, 204, 1 240 and 1 496, so the
    # square fields are 9, 9, 12 and 12 bits.  The reversal has the
    # largest prefix sums and prefix square sums, and the zero the
    # smallest, so the pairs reach both ends of every field.
    assert _layout(n)[:2] == (
        (n * (n + 1) // 2).bit_length() + 1,
        (n * (n + 1) * (2 * n + 1) // 6).bit_length() + 1,
    )
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
            expected = _sums_test(z, y)
            assert _guard_test(z, y) == expected, (z, y)
            held += expected
    assert held and not all(_guard_test(z, ends[0]) for z in drawn)


def test_keys_of_different_sizes_collide_and_the_caches_tell_them_apart():
    # the zeros of R_1 and R_2 both pack to 0, and the successor cache
    # holds a different entry for each; ppr_leq and covers_of interleaved
    # over R_1..R_3 in one process must still answer for the size they are
    # asked about
    assert _key((0,)) == _key((0, 0)) == 0
    moves._successors.cache_clear()
    moves._layout.cache_clear()
    assert moves._successors(0, 1) != moves._successors(0, 2)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_moves_never_lower_a_prefix_square_sum(n):
    # the second potential: a raise of u to b adds b^2 - u^2 to every
    # prefix square sum from its position on, and a swap of u < v adds
    # v^2 - u^2 to those between its two positions
    for x in elements_of(n):
        a = x.entries
        for b, _ in kernel_moves(a):
            diff = [p for p in range(n) if a[p] != b[p]]
            i = diff[0]
            rises = range(i, n) if len(diff) == 1 else range(i, diff[1])
            step = b[i] ** 2 - a[i] ** 2
            assert step > 0
            for k, (s, t) in enumerate(zip(_square_sums(a), _square_sums(b))):
                assert t - s == (step if k in rises else 0)


def test_prefix_square_sums_refuse_a_pair_before_the_search(monkeypatch):
    # lexicographically below, and every prefix sum of x, 0, 0, 3, is at
    # most y's, 0, 1, 3; but the third prefix square sum is 9 against 5
    def expand(key, n):
        raise AssertionError("the search expanded a node")

    x, y = (0, 0, 3), (0, 1, 2)
    assert all(map(le, accumulate(x), accumulate(y)))
    assert list(_square_sums(x))[-1] == 9 and list(_square_sums(y))[-1] == 5
    monkeypatch.setattr(moves, "_successors", expand)
    assert not ppr_leq(OneLine(x), OneLine(y))


def test_prefix_sums_refuse_a_pair_before_the_search(monkeypatch):
    # lexicographically below and with the smaller entry sum, but the
    # second prefix sum of x is 3 against 1: the search may not expand x
    def expand(key, n):
        raise AssertionError("the search expanded a node")

    monkeypatch.setattr(moves, "_successors", expand)
    assert not ppr_leq(OneLine((0, 3, 0)), OneLine((1, 0, 3)))


@pytest.mark.parametrize("x, y", [
    # x's successors below y are 2,1,3, whose entry sum 6 is above
    # sum(y) = 5, and 2,3,0, whose entry sum is 5 but whose second prefix
    # sum is 5 against 3
    ((2, 1, 0), (3, 0, 2)),
    # x's two successors below y with entry sum at most 5 = sum(y),
    # 0,2,3,0 and 0,3,0,2, have second prefix sums 2 and 3 against 1
    ((0, 0, 3, 2), (1, 0, 4, 0)),
])
def test_prefix_sums_prune_the_nodes_of_the_search(monkeypatch, x, y):
    # x passes every test on its own sums, so the search expands it; every
    # node the entry sum alone would keep is refused by a prefix sum, so
    # the search ends after expanding x and nothing else
    successors = moves._successors
    expanded = []

    def expand(key, n):
        expanded.append(key_entries(key, n))
        return successors(key, n)

    monkeypatch.setattr(moves, "_successors", expand)
    assert not ppr_leq(OneLine(x), OneLine(y))
    assert expanded == [x]


@pytest.fixture
def expanded(monkeypatch):
    """The keys the search expands, appended as it expands them."""
    successors = moves._successors
    keys = []

    def expand(key, n):
        keys.append(key)
        return successors(key, n)

    monkeypatch.setattr(moves, "_successors", expand)
    return keys


@pytest.mark.parametrize("x, y, bound", [
    # far above the zero element of R_7: 6 expansions, against 14 with
    # the first raise first and 28 625 with the last swap first
    ((0,) * 7, (4, 5, 3, 2, 6, 1, 0), 10),
    # the slowest true pairs of the first-raise-first order, which
    # expanded 18 385 and 11 602 nodes: 5 and 46
    ((0, 0, 0, 0, 0, 3, 0), (7, 0, 6, 1, 5, 3, 4), 10),
    ((0, 0, 0, 3, 0, 0, 5), (7, 0, 6, 2, 1, 3, 5), 60),
])
def test_search_visits_the_largest_successor_first(expanded, x, y, bound):
    assert ppr_leq(OneLine(x), OneLine(y))
    assert len(expanded) <= bound


def test_search_finds_every_true_pair_of_r4_within_16_expansions(expanded):
    # every comparable pair x < y passes both entry tests and reaches the
    # search; the first raise first needed up to 54 expansions
    els = elements_of(4)
    rows = deodhar_matrix(4)
    searched = 0
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            if i != j and rows[i] >> j & 1:
                expanded.clear()
                assert ppr_leq(x, y), (x, y)
                assert len(expanded) <= 16, (x, y, len(expanded))
                searched += 1
    assert searched == 12092


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_successors_are_the_kernel_moves_ascending(n):
    # the search stops scanning a node's successors at the first key not
    # below y's, which skips nothing only if every later key is larger
    for x in elements_of(n):
        key = _key(x.entries)
        keys = _moves(x.entries, key)[0]
        assert all(a < b for a, b in zip(keys, keys[1:])), x
        assert moves._successors(key, n) == tuple(keys), x


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

    successors = moves._successors
    monkeypatch.setattr(
        moves, "_successors", lambda key, n: tuple(map(Node, successors(int(key), n)))
    )
    assert not ppr_leq(OneLine((0, 0, 0, 0, 6, 0)), OneLine((5, 4, 3, 2, 1, 6)))
    assert len(tested) > 1000
    assert max(tested.values()) == 1


def test_search_refuses_the_false_pairs_that_pass_both_entry_tests(expanded):
    # the pairs that neither the entry tests nor the prefix square sums of
    # x refute still reach the search, so its own False path is exercised
    # on each of them; of the 1 792 false pairs that pass the entry tests,
    # the square sums refuse 1 000 before the search
    els = elements_of(4)
    rows = deodhar_matrix(4)
    admitted = searched = 0
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            a, b = x.entries, y.entries
            if rows[i] >> j & 1 or a > b:
                continue
            if all(s <= t for s, t in zip(accumulate(a), accumulate(b))):
                admitted += 1
                searched += _sums_test(a, b)
                expanded.clear()
                assert not ppr_leq(x, y), (x, y)
                assert bool(expanded) == _sums_test(a, b), (x, y)
    assert (admitted, searched) == (1792, 792)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_move_kernel_cover_flags_match_the_public_predicates(n):
    brute = brute_cover_sets(n)
    for i, x in enumerate(elements_of(n)):
        for entries, cover in kernel_moves(x.entries):
            assert entries > x.entries
            assert cover == (entries in brute[i])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_move_kernel_equals_the_definitional_reference(n):
    # same moves, same cover flags, in lexicographic order: both key lists
    # strictly ascending and the covers a subset of the moves
    for x in elements_of(n):
        moves, covers = _moves(x.entries, _key(x.entries))
        assert all(a < b for a, b in zip(moves, moves[1:])), x
        assert all(a < b for a, b in zip(covers, covers[1:])), x
        assert set(covers) <= set(moves), x
        assert kernel_moves(x.entries) == sorted(reference_moves(x.entries)), x


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
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


def transpose_by_reversal(x: OneLine) -> OneLine:
    """sigma(x) = w0 x^T w0: each nonzero x_r = c (1-based) becomes the
    value n + 1 - r at position n + 1 - c."""
    n = x.n
    entries = [0] * n
    for r, c in enumerate(x.entries, 1):
        if c:
            entries[n - c] = n + 1 - r
    return OneLine(tuple(entries))


@pytest.mark.parametrize(("n", "fixed_points"), [(1, 2), (2, 5), (3, 14), (4, 43), (5, 142)])
def test_transpose_by_reversal_is_an_order_automorphism(n, fixed_points):
    # Renner's x <= y says B x B lies in the closure of B y B, B upper
    # triangular.  Transposing maps B x B orbits to B- x B- orbits, and
    # conjugating by w0 maps B- back to B, so sigma keeps the order and the
    # orbit dimension, the length.  Its principle is neither the moves nor
    # the threshold counts.
    fixed = 0
    for x in elements_of(n):
        s = transpose_by_reversal(x)
        assert transpose_by_reversal(s) == x
        assert length(s) == length(x)
        assert set(covers_of(s)) == set(map(transpose_by_reversal, covers_of(x)))
        fixed += s == x
    assert fixed == fixed_points
