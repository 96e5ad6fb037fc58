"""End-to-end acceptance run.

Each test here is one acceptance criterion and prints a single summary
line (visible under pytest -s); the pytest verdict for the test is the
pass/fail line for that criterion.  Heavy cross-checks are shared
through a module-level cache so the whole file stays under a few
minutes.
"""

import time
from functools import lru_cache
from itertools import permutations
from pathlib import Path

from rookorder import (
    OneLine,
    build_hasse,
    covers_of,
    deodhar_leq,
    interval,
    length,
    oracle_length,
    parse_one_line,
    rank_sizes,
    verify,
)

from helpers import classical_bruhat_leq, closed_form_count, elements_of

LENGTH_EXAMPLES = [
    ("4,0,2,3", 12),
    ("4,0,5,0,3,1", 21),
    ("4,0,5,0,6,1", 22),
    ("2,6,5,0,4,1,7", 35),
    ("4,6,5,0,2,1,7", 36),
    ("7,6,5,0,4,1,2", 42),
]

COVER_CHAIN = [
    "2,1,4,0,3",
    "3,1,4,0,2",
    "3,4,1,0,2",
    "3,5,1,0,2",
    "3,5,2,0,1",
]


@lru_cache(maxsize=None)
def exhaustive_report(n):
    return verify(n)


def announce(criterion, detail):
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_criterion_01_length_values_and_speed():
    elapsed = []
    for text, expected in LENGTH_EXAMPLES:
        x = parse_one_line(text)
        best = min(_timed(length, x) for _ in range(3))
        assert length(x) == expected
        assert best < 1e-3, f"length of {text} took {best:.6f}s"
        elapsed.append(best)
    announce(
        "length formula on the worked examples",
        f"6 values exact, slowest call {max(elapsed) * 1e6:.1f}us",
    )


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_criterion_02_oracle_matches_formula_through_r6():
    start = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 4, 5, 6):
        for x in elements_of(n):
            assert oracle_length(x) == length(x), str(x)
            checked += 1
    announce(
        "orbit oracle equals the combinatorial length",
        f"{checked} elements of R_1 through R_6 in {time.perf_counter() - start:.1f}s",
    )


def test_criterion_03_order_implementations_agree():
    for n in (1, 2, 3, 4, 5):
        report = exhaustive_report(n)
        assert report.mismatches == [], report.mismatches[:5]
    pairs = sum(exhaustive_report(n).pairs_checked for n in (1, 2, 3, 4, 5))
    announce(
        "containment order equals move-closure order",
        f"all {pairs} ordered pairs through R_5",
    )


def test_criterion_04_cover_predicates_match_brute_force():
    for n in (1, 2, 3, 4, 5):
        report = exhaustive_report(n)
        assert report.cover_mismatches == [], report.cover_mismatches[:5]
    total = sum(len(elements_of(n)) for n in (1, 2, 3, 4, 5))
    announce(
        "covering predicates equal brute-force covers",
        f"all {total} elements through R_5",
    )


def test_criterion_05_grading():
    for n in (1, 2, 3, 4):
        h = build_hasse(n)
        lengths = sorted(ln for _, _, ln in h.nodes)
        assert lengths[0] == 0
        assert lengths[-1] == n * n
        for lo, hi in h.edges:
            assert h.nodes[hi][2] == h.nodes[lo][2] + 1
    assert rank_sizes(build_hasse(2)) == [1, 1, 2, 2, 1]
    announce(
        "the order is graded by length",
        "every Hasse edge through R_4 climbs exactly one step",
    )


def test_criterion_06_cover_chain():
    chain = [parse_one_line(t) for t in COVER_CHAIN]
    assert [length(x) for x in chain] == [15, 16, 17, 18, 19]
    for lo, hi in zip(chain, chain[1:]):
        # one step either raises one entry or exchanges two
        diff = [p for p, (a, b) in enumerate(zip(lo.entries, hi.entries)) if a != b]
        if len(diff) == 1:
            assert hi.entries[diff[0]] > lo.entries[diff[0]]
        else:
            i, j = diff
            assert lo.entries[i] < lo.entries[j]
            assert (hi.entries[i], hi.entries[j]) == (lo.entries[j], lo.entries[i])
        assert hi.entries in {c.entries for c in covers_of(lo)}
    h = build_hasse(5)
    sub = interval(h, chain[0], chain[-1])
    members = {node[1].entries for node in sub.nodes}
    assert all(x.entries in members for x in chain)
    announce(
        "the worked covering chain",
        f"4 covers from {chain[0]} to {chain[-1]}, "
        f"interval holds {len(members)} elements",
    )


def test_criterion_07_symmetric_group_restriction():
    pairs = 0
    for n in (1, 2, 3, 4, 5):
        perms = [OneLine(p) for p in permutations(range(1, n + 1))]
        for u in perms:
            for w in perms:
                assert deodhar_leq(u, w) == classical_bruhat_leq(u, w), (u, w)
                pairs += 1
    announce(
        "restriction to permutations is the classical order",
        f"all {pairs} pairs of S_1 through S_5 against an independent transposition search",
    )


def test_criterion_08_element_counts():
    counts = [len(elements_of(n)) for n in (1, 2, 3, 4, 5)]
    assert counts == [2, 7, 34, 209, 1546]
    assert counts == [closed_form_count(n) for n in (1, 2, 3, 4, 5)]
    announce("element counts", "2, 7, 34, 209, 1546 match the closed form")


def test_criterion_09_documented_discrepancy():
    x = parse_one_line("6,0,5,0,3,1")
    assert length(x) == 24
    assert oracle_length(x) == 24
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "6,0,5,0,3,1" in readme
    assert "23" in readme and "24" in readme
    announce(
        "the corrected worked example",
        "formula and oracle both give 24; README records the published 23",
    )
