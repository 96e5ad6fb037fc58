"""Source mutants that verify must catch, each in its own failure list.

Each entry of MUTANTS names a module of the package, one of its lines
(without indentation, occurring exactly once), the line that replaces
it, and the one failure list of the verify report that the mutant must
fill.  A mutant is applied to a copy of the package in a temporary
directory, never to the package itself, and `python -m rookorder verify
4 --json` runs on the copy: it must exit 2 with exactly that list
non-empty.  No mutant of MUTANTS changes a move, so the closure keeps
R_4's 12 301 pairs.  Equivalent mutants, which change no verdict, are
left out.

The mutants of RELATION_MUTANTS change the relation: a move kernel that
gives keys of no element, an enumeration that drops an element, and one
that drops every element with two empty columns.  Each must fill
exactly its lists and leave its relation size, and `hasse 4` on the
copy must refuse it with exit 2 and one line of stderr.

The mutants of PHASE_MUTANTS make one phase of verify raise: the
containment route's translation table a byte short, a closure one row
short, and an enumeration that reaches past n or lets a value repeat,
which OneLine, the maker of every element, refuses.  Each must be
listed as that phase's one entry of phase_errors, given in full, with
exit 2 and nothing on stderr, never a traceback or a usage error.
`hasse 4` reads the enumeration but neither of the others, so it prints
the stderr line listed and exits 2, or succeeds when the line is empty.
The reload of a correct diagram reads the enumeration and the
containment route, so it refuses every mutant of PHASE_MUTANTS but the
closure's, and the first enumeration mutant of RELATION_MUTANTS, with
DefectError, never the ValueError of a bad document.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rookorder
from rookorder import build_hasse, export_json

from helpers import LISTS

PACKAGE = Path(rookorder.__file__).resolve().parent

MUTANTS = [
    # _moves: every raise is a cover candidate, a zero never bars one, or
    # the first zero right of i is taken one place too far right.  Never
    # updating zero is the second of these again, so it is not listed.
    ("moves", "first = low == n", "first = True", "cover_mismatches"),
    ("moves", "low = n if u else zero", "low = n", "cover_mismatches"),
    ("moves", "zero = i", "zero = i + 1", "cover_mismatches"),
    # deodhar_leq: equal sorted entries refuse the pair.
    ("containment", "if not all(map(le, xs, ys)):", "if not all(map(int.__lt__, xs, ys)):", "mismatches"),
    # deodhar_leq_gamma: each entry v of y counts as v - 1.
    ("containment", "cy += inc[v]", "cy += inc[v - 1] if v else 0", "mismatches"),
    # ppr_leq: the search keeps at most one node besides x.
    ("moves", "if z not in seen:", "if z not in seen and len(seen) < 2:", "search_mismatches"),
    # _layout: the square-sum fields lose a bit, so a large prefix square
    # sum fills its field's guard bit.  The keys stay one per element and
    # the walk keeps every move, but ppr_leq's guard test refuses nodes.
    ("moves", "q = (n * (n + 1) * (2 * n + 1) // 6).bit_length() + 1",
     "q = (n * (n + 1) * (2 * n + 1) // 6).bit_length()", "search_mismatches"),
    # _containment_rows: every threshold reads the same count, or the
    # count of a full prefix is never made.
    ("containment", "v -= 1", "pass", "mismatches"),
    ("containment", "for v in range(k + 1, 0, -1):", "for v in range(k, 0, -1):", "mismatches"),
    # _close_moves: the brute side stays empty, or every move's row is
    # ORed and every move counted a brute cover.  The rows stay exact.
    ("moves", "brute.append(s)", "pass", "cover_mismatches"),
    ("moves", "if not reach >> s & 1:", "if True:", "cover_mismatches"),
    # length: value a is kept one bit too high in the mask, so a later
    # a_i - 1 counts as a coinversion of a_i.
    ("length", "later |= 1 << ai", "later |= 1 << ai + 1", "oracle_mismatches"),
    # right_span: column 0 contributes nothing.
    ("oracle", "for i, a in enumerate(x.entries):", "for i, a in enumerate(x.entries[1:], 1):",
     "oracle_mismatches"),
]


RELATION_MUTANTS = [
    # _moves: a swap keeps both copies of its value, so no swap is a key of
    # R_4; the raises still are.
    ("moves", "z = base + here[v] - there[v] + there[u]", "z = base + here[v]",
     ["move_failures", "cover_mismatches", "mismatches"], 4413),
    # enumerate_elements: the first element, the zero element, is dropped.
    # Both routes agree on the rest, so only the enumeration check sees it.
    ("elements", "yield OneLine(t)", "if any(t): yield OneLine(t)", ["enumeration_failures"], 12092),
    # enumerate_elements: the filter bars a second 0 as it bars a second
    # nonzero value, so the 89 elements with two or more empty columns are
    # dropped.  The routes agree on the 120 left, and the count names it.
    ("elements", "stack += [t + (v,) for v in values if not v or v not in t]",
     "stack += [t + (v,) for v in values if v not in t]", ["enumeration_failures"], 3781),
]


PHASE_MUTANTS = [
    ("containment", 'digits = b"0" * a + b"1" * (256 - a)', 'digits = b"0" * a + b"1" * (255 - a)',
     ["containment", "ValueError", "translation table must be 256 characters long"], ""),
    ("moves", "closure = [0] * len(moves)", "closure = [0] * (len(moves) - 1)",
     ["closure", "IndexError", "list assignment index out of range"], ""),
    # enumerate_elements: the last entry is n + 1, or the first entry of a
    # prefix may repeat, first in 1,1,0,0.
    ("elements", "yield OneLine(t)", "yield OneLine(t[:-1] + (n + 1,))",
     ["enumerate", "ValueError", "entry 5 outside 0..4"],
     "error: hasse found phase_errors: 1; the first is enumerate: ValueError: entry 5 outside 0..4\n"),
    ("elements", "stack += [t + (v,) for v in values if not v or v not in t]",
     "stack += [t + (v,) for v in values if not v or v not in t[1:]]",
     ["enumerate", "ValueError", "nonzero entry 1 appears twice"],
     "error: hasse found phase_errors: 1; the first is enumerate: ValueError: nonzero entry 1 appears twice\n"),
]


def verify_copy(tmp_path, mutant=None):
    """Exit code and JSON report of verify 4 on a copy of the package in
    tmp_path, with the mutant's line replaced."""
    copy_package(tmp_path, mutant)
    proc = run_copy(tmp_path, "verify", "4", "--json")
    assert proc.stderr == ""
    return proc.returncode, json.loads(proc.stdout)


def copy_package(tmp_path, mutant=None):
    """A copy of the package in tmp_path, with the mutant's line replaced."""
    copy = tmp_path / "rookorder"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant:
        module, old, new = mutant[:3]
        path = copy / f"{module}.py"
        lines = path.read_text().split("\n")
        at = [i for i, line in enumerate(lines) if line.strip() == old]
        assert len(at) == 1, (module, old, len(at))
        line = lines[at[0]]
        lines[at[0]] = line[:len(line) - len(line.lstrip())] + new
        path.write_text("\n".join(lines))


def run_copy(tmp_path, *argv, script=None, stdin=None):
    """The finished process of `python -m rookorder *argv`, or of `python
    -c script`, on the copy of the package in tmp_path."""
    return subprocess.run(
        [sys.executable, *(["-c", script] if script else ["-m", "rookorder", *argv])],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
        input=stdin, capture_output=True, text=True, timeout=60,
    )


def test_the_unmutated_copy_passes(tmp_path):
    code, report = verify_copy(tmp_path)
    assert code == 0 and report["passed"]
    assert not any(report[field] for field in LISTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m[0]}:{m[1]}")
def test_verify_catches_the_mutant_in_its_own_list(tmp_path, mutant):
    code, report = verify_copy(tmp_path, mutant)
    assert code == 2
    assert [field for field in LISTS if report[field]] == [mutant[3]]
    assert report["relation_size"] == 12301


@pytest.mark.parametrize("mutant", RELATION_MUTANTS, ids=lambda m: f"{m[0]}:{m[1]}")
def test_verify_lists_and_hasse_refuses_a_mutant_of_the_relation(tmp_path, mutant):
    code, report = verify_copy(tmp_path, mutant)
    assert code == 2
    assert [field for field in LISTS if report[field]] == mutant[3]
    assert report["relation_size"] == mutant[4]
    proc = run_copy(tmp_path, "hasse", "4")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: hasse found ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("mutant", PHASE_MUTANTS, ids=lambda m: f"{m[0]}:{m[3][0]}")
def test_verify_lists_a_phase_that_raises_and_hasse_reads_only_the_enumeration(tmp_path, mutant):
    code, report = verify_copy(tmp_path, mutant)
    assert code == 2
    assert [field for field in LISTS if report[field]] == ["phase_errors"]
    assert report["phase_errors"] == [mutant[3]]
    proc = run_copy(tmp_path, "hasse", "4")
    assert (proc.returncode, proc.stderr) == (2 if mutant[4] else 0, mutant[4])
    if mutant[4]:
        assert proc.stdout == ""
    else:
        assert proc.stdout.startswith("digraph rook_order_4 {")


RELOAD = """
import sys
from rookorder import DefectError, hasse_from_json
try:
    hasse_from_json(sys.stdin.read())
except DefectError as exc:
    print(f"DefectError: {exc}")
"""


def test_the_reload_refuses_a_containment_mutant_that_raises_as_a_defect(tmp_path):
    # The mutant's translation table is a byte short, so the containment
    # route raises ValueError, the type of every bad-document refusal.
    copy_package(tmp_path, PHASE_MUTANTS[0])
    written = run_copy(tmp_path, "hasse", "3", "--format", "json")
    assert (written.returncode, written.stderr) == (0, "")
    proc = run_copy(tmp_path, script=RELOAD, stdin=written.stdout)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "DefectError: reload found phase_errors: 1; the first is containment: "
        "ValueError: translation table must be 256 characters long\n"
    )


# A correct diagram of R_4, written by the unmutated package.
R4_JSON = export_json(build_hasse(4))


@pytest.mark.parametrize("mutant, refusal", [
    (RELATION_MUTANTS[1], "enumeration_failures: 1; the first is element count: 208, expected 209"),
    (PHASE_MUTANTS[3], "phase_errors: 1; the first is enumerate: ValueError: nonzero entry 1 appears twice"),
    (PHASE_MUTANTS[2], "phase_errors: 1; the first is enumerate: ValueError: entry 5 outside 0..4"),
], ids=["relation:enumeration", "relation:repeat", "phase:enumerate"])
def test_the_reload_refuses_an_enumeration_mutant_as_a_defect(tmp_path, mutant, refusal):
    # The reload matches the nodes only against the checked enumeration, so
    # a mutant there is a defect, never a bad node of the document.
    copy_package(tmp_path, mutant)
    proc = run_copy(tmp_path, script=RELOAD, stdin=R4_JSON)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"DefectError: reload found {refusal}\n"


def test_hasse_refuses_an_enumeration_that_repeats_a_value_by_its_count(tmp_path):
    # enumerate_elements yields each element twice.  Every value is a valid
    # element, so OneLine passes them all, and the count is the first of the
    # 210 enumeration failures: the count and each repeat out of order.
    copy_package(tmp_path, ("elements", "yield OneLine(t)", "yield from (OneLine(t), OneLine(t))"))
    proc = run_copy(tmp_path, "hasse", "4")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: hasse found enumeration_failures: 210; the first is element count: 418, expected 209\n"
