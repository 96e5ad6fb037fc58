"""Source mutants that verify must catch, each in its own failure list.

Each entry of MUTANTS names a module of the package, one of its lines
(without indentation, occurring exactly once), the line that replaces
it, and the one failure list of the verify report that the mutant must
fill.  A mutant is applied to a copy of the package in a temporary
directory, never to the package itself, and `python -m rookorder verify
4 --json` runs on the copy: it must exit 2 with exactly that list
non-empty.  No mutant changes a move, so the closure keeps R_4's 12 301
pairs.  Equivalent mutants, which change no verdict, are left out.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rookorder
from rookorder.poset import _FAILURE_LISTS

PACKAGE = Path(rookorder.__file__).resolve().parent
LISTS = [field for field, *_ in _FAILURE_LISTS]

MUTANTS = [
    # _moves: every raise is a cover candidate, a zero never bars one, or
    # the first zero right of i is taken one place too far right.  Never
    # updating zero is the second of these again, so it is not listed.
    ("order", "first = low == n", "first = True", "cover_mismatches"),
    ("order", "low = n if u else zero", "low = n", "cover_mismatches"),
    ("order", "zero = i", "zero = i + 1", "cover_mismatches"),
    # deodhar_leq: equal sorted entries refuse the pair.
    ("order", "if not all(map(le, xs, ys)):", "if not all(map(int.__lt__, xs, ys)):", "mismatches"),
    # deodhar_leq_gamma: each entry v of y counts as v - 1.
    ("order", "cy += inc[v]", "cy += inc[v - 1] if v else 0", "mismatches"),
    # ppr_leq: the search keeps at most one node besides x.
    ("order", "if z not in seen:", "if z not in seen and len(seen) < 2:", "search_mismatches"),
    # _containment_rows: every threshold reads the same count, or the
    # count of a full prefix is never made.
    ("poset", "v -= 1", "pass", "mismatches"),
    ("poset", "for v in range(k + 1, 0, -1):", "for v in range(k, 0, -1):", "mismatches"),
    # _close_moves: the brute side stays empty, or every move's row is
    # ORed and every move counted a brute cover.  The rows stay exact.
    ("poset", "brute.append(s)", "pass", "cover_mismatches"),
    ("poset", "if not reach >> s & 1:", "if True:", "cover_mismatches"),
    # length: one too many at an occupied last position.
    ("length", "total += ai + n - i", "total += ai + n - i + (i == n)", "oracle_mismatches"),
    # right_span: column 0 contributes nothing.
    ("oracle", "for i, a in enumerate(x.entries):", "for i, a in enumerate(x.entries[1:], 1):",
     "oracle_mismatches"),
]


def verify_copy(tmp_path, mutant=None):
    """Exit code and JSON report of verify 4 on a copy of the package,
    with the mutant's line replaced."""
    copy = tmp_path / "rookorder"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant:
        module, old, new, _ = mutant
        path = copy / f"{module}.py"
        lines = path.read_text().split("\n")
        at = [i for i, line in enumerate(lines) if line.strip() == old]
        assert len(at) == 1, (module, old, len(at))
        line = lines[at[0]]
        lines[at[0]] = line[:len(line) - len(line.lstrip())] + new
        path.write_text("\n".join(lines))
    proc = subprocess.run(
        [sys.executable, "-m", "rookorder", "verify", "4", "--json"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stderr == ""
    return proc.returncode, json.loads(proc.stdout)


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
