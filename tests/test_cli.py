import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rookorder
from rookorder import cli, moves, parse_one_line, poset

from helpers import DEFECTS, FAULTS, LISTS, inject


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_len_breakdown(capsys):
    code, out, err = run(capsys, "len", "4,0,2,3")
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "element: 4,0,2,3",
        "n: 4",
        "rank: 3",
        "star_weights: 7,0,3,3",
        "star_sum: 13",
        "coinv: 1",
        "coinversion_pairs: (3,4)",
        "length: 12",
        "dim_bx: 9",
        "dim_xb: 7",
        "dim_meet: 4",
    ]


def test_len_prints_the_audited_length(capsys, monkeypatch):
    # The length line is length(x) itself, the function verify audits
    # against the oracle, not a sum of the breakdown's pieces.
    monkeypatch.setattr(cli, "length", lambda x: -7)
    code, out, _ = run(capsys, "len", "4,0,2,3")
    assert code == 0
    assert "length: -7" in out.splitlines()
    assert "star_sum: 13" in out.splitlines()


def test_len_zero_element(capsys):
    code, out, _ = run(capsys, "len", "0,0")
    assert code == 0
    assert "coinversion_pairs: -" in out
    assert "length: 0" in out


def test_cmp_comparable_pair(capsys):
    code, out, err = run(capsys, "cmp", "2,1,4,0,3", "3,5,2,0,1")
    assert code == 0
    assert err == ""
    assert "deodhar: true" in out
    assert "gamma: true" in out
    assert "ppr: true" in out
    assert "length_x: 15" in out
    assert "length_y: 19" in out


def test_cmp_incomparable_pair(capsys):
    code, out, _ = run(capsys, "cmp", "2,0", "1,2")
    assert code == 0
    assert "deodhar: false" in out
    assert "ppr: false" in out


def test_cmp_refuses_sizes_above_seven_before_comparing(capsys, monkeypatch):
    def refuse(x, y):
        raise AssertionError("no order test may run past the size cap")

    for name in ("deodhar_leq", "deodhar_leq_gamma", "ppr_leq"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, "cmp", "0,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0")
    assert (code, out, err) == (1, "", "error: cmp supports n in 1..7\n")
    monkeypatch.undo()
    code, out, _ = run(capsys, "cmp", "7,6,5,4,3,2,1", "7,6,5,4,3,2,1")
    assert code == 0
    assert "ppr: true" in out


class WorkRan(Exception):
    pass


def _work(*args):
    raise WorkRan


@pytest.mark.parametrize("command, cap, workers", [
    ("len", cli.LEN_MAX_N, ("length_breakdown", "coinversions", "length")),
    ("covers", cli.COVERS_MAX_N, ("covers_of",)),
    ("oracle", cli.ORACLE_MAX_N, ("left_span", "right_span", "oracle_length")),
    ("enum", cli.ENUM_MAX_N, ("enumerate_elements",)),
])
def test_size_caps_refuse_before_any_work(capsys, monkeypatch, command, cap, workers):
    for name in workers:
        monkeypatch.setattr(cli, name, _work)

    def arg(n):
        return str(n) if command == "enum" else ",".join(["0"] * n)

    expected = (1, "", f"error: {command} supports n in 1..{cap}\n")
    assert run(capsys, command, arg(cap + 1)) == expected
    with pytest.raises(WorkRan):  # at the cap the work starts
        cli.main([command, arg(cap)])


def _is_element_text(text):
    try:
        parse_one_line(text)
    except ValueError:
        return False
    return True


@given(st.text().filter(lambda t: not _is_element_text(t)))
def test_malformed_element_text_exits_one(text):
    for argv in (["len", text], ["covers", text], ["oracle", text],
                 ["cmp", text, "0"], ["cmp", "0", text]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 1, argv
        assert "error:" in err.getvalue(), argv


def test_cmp_exits_two_when_implementations_disagree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "deodhar_leq", lambda x, y: False)
    code, out, err = run(capsys, "cmp", "0,0", "0,1")
    assert code == 2
    assert "deodhar: false" in out
    assert "ppr: true" in out
    assert "implementations disagree" in err


def test_covers(capsys):
    code, out, _ = run(capsys, "covers", "0,1")
    assert code == 0
    assert out.splitlines() == ["0,2", "1,0"]


def test_covers_print_in_lexicographic_order(capsys):
    # two raises and three swaps, interleaved in element order, the order
    # of enum and of the diagram ids
    code, out, _ = run(capsys, "covers", "2,0,1,0,3")
    assert code == 0
    assert out.splitlines() == ["2,0,1,0,4", "2,0,1,3,0", "2,0,3,0,1", "2,1,0,0,3", "3,0,1,0,2"]


def test_covers_of_top_is_empty(capsys):
    code, out, _ = run(capsys, "covers", "2,1")
    assert code == 0
    assert out == ""


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "6,0,5,0,3,1")
    assert code == 0
    assert out.splitlines() == [
        "element: 6,0,5,0,3,1",
        "left_rank: 15",
        "right_rank: 13",
        "meet_dim: 4",
        "oracle_length: 24",
    ]


def test_oracle_prints_the_audited_oracle_length(capsys, monkeypatch):
    # The last line is oracle_length(x) itself, the function verify
    # audits, not the rank lines recombined.
    monkeypatch.setattr(cli, "oracle_length", lambda x: -7)
    code, out, _ = run(capsys, "oracle", "6,0,5,0,3,1")
    assert code == 0
    assert out.splitlines()[1:] == ["left_rank: 15", "right_rank: 13", "meet_dim: 4", "oracle_length: -7"]


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "2")
    assert code == 0
    assert out.splitlines() == ["0,0", "0,1", "0,2", "1,0", "1,2", "2,0", "2,1"]


def test_enum_into_a_closed_pipe_exits_1_without_a_traceback():
    # R_7's 130 922 lines overflow the pipe, so writing goes on after the
    # reader has closed it.
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "rookorder", "enum", "7"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"0,0,0,0,0,0,0\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_importing_the_cli_pulls_in_neither_dataclasses_nor_inspect():
    # A fresh interpreter: this one has imported both already.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; before = set(sys.modules); import rookorder.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    added = proc.stdout.split()
    assert "rookorder.cli" in added
    assert not {"dataclasses", "inspect"} & set(added), added


def test_the_top_level_is_the_seven_modules_and_their_public_names():
    # A fresh interpreter: in this one, importing rookorder.cli has bound
    # cli on the package as well.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import rookorder; print(*(name for name in vars(rookorder) if not name.startswith('_')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    names = set(proc.stdout.split())
    modules = ("elements", "length", "oracle", "containment", "moves", "order", "poset")
    assert names == {*modules, *(name for module in modules
                                 for name in importlib.import_module(f"rookorder.{module}").__all__)}
    # The function, bound over the module of the same name.
    assert rookorder.length is importlib.import_module("rookorder.length").length
    # These two serve the tests and the benchmark's tracer only.
    assert not {"to_matrix", "ppr_raises"} & names


def test_enum_rejects_zero(capsys):
    for n in ("0", "-1"):
        assert run(capsys, "enum", n) == (1, "", "error: enum supports n in 1..8\n")


def test_hasse_dot(capsys):
    code, out, _ = run(capsys, "hasse", "2")
    assert code == 0
    assert out.startswith("digraph rook_order_2 {")
    assert out.rstrip().endswith("}")


def test_hasse_json(capsys):
    code, out, _ = run(capsys, "hasse", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert len(doc["nodes"]) == 7
    assert len(doc["edges"]) == 9


def test_hasse_ranks(capsys):
    for n, size, covers in (1, 2, 1), (2, 7, 9), (3, 34, 79), (4, 209, 746):
        code, out, _ = run(capsys, "hasse", str(n), "--format", "ranks")
        assert code == 0
        assert out.splitlines()[0] == f"R_{n}: {size} elements, {covers} covering pairs"
    code, out, _ = run(capsys, "hasse", "2", "--format", "ranks")
    assert code == 0
    assert out == (
        "R_2: 7 elements, 9 covering pairs\n"
        "  length  count\n"
        "       0      1\n"
        "       1      1\n"
        "       2      2\n"
        "       3      2\n"
        "       4      1\n"
        "  widest rank: length 2 with 2 elements\n"
        "\n"
    )


def test_hasse_rejects_big_n(capsys):
    # The refusal names its command, as every other size refusal does.
    for n in ("7", "9"):
        assert run(capsys, "hasse", n) == (1, "", "error: hasse supports n in 1..6\n")


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "1")
    assert code == 0
    lines = out.splitlines()
    assert "mode: exhaustive" in lines
    assert "pairs_checked: 4" in lines
    assert "order_mismatches: 0" in lines
    assert "relation_size: 3" in lines
    assert any(line.startswith("phases_s: enumerate=") for line in lines)
    assert lines[-1] == "result: PASS"


def test_verify_sampled_flags(capsys):
    code, out, _ = run(capsys, "verify", "2", "--sampled", "300", "--seed", "5")
    assert code == 0
    assert "mode: sampled" in out
    assert "seed: 5" in out
    assert "pairs_checked: 300" in out


def test_verify_refuses_a_seed_without_sampled(capsys):
    # An exhaustive campaign draws no pairs, so a seed there would be ignored.
    code, out, err = run(capsys, "verify", "2", "--seed", "7")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--sampled" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["pairs_checked"] == 49


def test_verify_exits_two_on_failure(capsys, monkeypatch):
    failing = poset.verify(2)._replace(
        mismatches=[["0,0", "1,0", True, False]], mismatch_count=1
    )
    monkeypatch.setattr(cli, "verify", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "2")
    assert code == 2
    assert "order_mismatches: 1" in out
    assert "pair 0,0 vs 1,0: containment=true moves=false" in out
    assert out.splitlines()[-1] == "result: FAIL"


@pytest.mark.parametrize("n, mode", [
    (4, "exhaustive"), (5, "exhaustive"), (6, "exhaustive"), (7, "refused"),
])
def test_verify_is_exhaustive_up_to_the_exhaustive_bound(capsys, monkeypatch, n, mode):
    calls = []
    real = cli.verify
    monkeypatch.setattr(cli, "verify", lambda *a, **k: calls.append(a) or real(*a, **k))
    monkeypatch.setattr(poset, "enumerate_elements", _work)
    if mode == "refused":
        expected = (1, "", "error: verify supports n in 1..6\n")
        assert run(capsys, "verify", str(n)) == expected
    else:
        # Up to the bound the work starts, and what it raises is reported.
        code, out, err = run(capsys, "verify", str(n), "--json")
        assert (code, err) == (2, "")
        assert json.loads(out)["phase_errors"] == [["enumerate", "WorkRan", ""]]
    assert calls == [(n, None, 0)]


def test_sampled_pair_count_cap_refuses_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(poset, "enumerate_elements", _work)
    cap = poset.SAMPLED_MAX_K
    expected = (1, "", f"error: verify supports --sampled K in 1..{cap}\n")
    for k in (0, cap + 1):
        assert run(capsys, "verify", "6", "--sampled", str(k)) == expected
    # At the cap the work starts, and what it raises is reported.
    code, out, err = run(capsys, "verify", "6", "--sampled", str(cap), "--json")
    assert (code, err) == (2, "")
    assert json.loads(out)["phase_errors"] == [["enumerate", "WorkRan", ""]]


def test_verify_refuses_n_before_the_pair_count(capsys, monkeypatch):
    monkeypatch.setattr(poset, "enumerate_elements", _work)
    expected = (1, "", "error: verify supports n in 1..6\n")
    assert run(capsys, "verify", "7", "--sampled", "0") == expected


def test_verify_reports_every_order_mismatch_and_lists_the_first(capsys, monkeypatch):
    # Rows holding only their own bit disagree on every strict pair of R_4.
    monkeypatch.setattr(
        poset, "_containment_rows", lambda lower, upper: [1 << i for i in range(len(lower))],
    )
    code, out, _ = run(capsys, "verify", "4")
    assert code == 2
    assert "order_mismatches: 12092 (first 1000 listed)" in out
    assert sum(line.startswith("  pair ") for line in out.splitlines()) == 1000
    assert out.splitlines()[-1] == "result: FAIL"
    code, out, _ = run(capsys, "verify", "4", "--json")
    doc = json.loads(out)
    assert (code, doc["mismatch_count"], len(doc["mismatches"])) == (2, 12092, 1000)


# The count lines of verify 3 with the two faults below, by listing limit.
# At 33 the cover list is whole and the oracle list leaves out one entry.
COVER_AND_ORACLE_LINES = {
    2: ("cover_mismatches: 33 (first 2 listed)", "oracle_mismatches: 34 (first 2 listed)"),
    33: ("cover_mismatches: 33", "oracle_mismatches: 34 (first 33 listed)"),
}


@pytest.mark.parametrize("limit", COVER_AND_ORACLE_LINES)
def test_verify_reports_every_cover_and_oracle_mismatch_and_lists_the_first(
    capsys, monkeypatch, limit,
):
    # A kernel that lists no cover fails every element of R_3 but the top, which has
    # no moves, and a wrong oracle fails all 34 elements.
    monkeypatch.setattr(poset, "_MISMATCH_LIMIT", limit)
    inject(monkeypatch, moves, "_moves", lambda real: lambda a, key: (real(a, key)[0], []))
    monkeypatch.setattr(poset, "oracle_length", lambda x: -1)
    code, out, _ = run(capsys, "verify", "3")
    lines = out.splitlines()
    assert code == 2
    cover_line, oracle_line = COVER_AND_ORACLE_LINES[limit]
    assert cover_line in lines
    assert oracle_line in lines
    assert sum(line.startswith("  element ") for line in lines) == 2 * limit
    code, out, _ = run(capsys, "verify", "3", "--json")
    doc = json.loads(out)
    assert (code, doc["cover_mismatch_count"], len(doc["cover_mismatches"])) == (2, 33, limit)
    assert (doc["oracle_mismatch_count"], len(doc["oracle_mismatches"])) == (34, limit)


# The text report of verify 3 with every fault of FAULTS at once and two
# entries listed per cut list, timings masked: every line but the search
# entries (232 in both campaigns; one per spot pair), and the sha256
# of the whole text.
FOUR_FAULTS_TEXT = {
    (): ("""\
n: 3
mode: exhaustive
pairs_checked: 1156
relation_size: 441
enumeration_failures: 0
move_failures: 0
cover_mismatches: 1
  element 0,0,0: predicate=[] brute=['0,0,1']
order_mismatches: 1
  pair 0,0,0 vs 3,2,1: containment=false moves=true
search_mismatches: 232
oracle_mismatches: 1
  element 3,2,1: formula=9 oracle=10
phase_errors: 0
phases_s: -
elapsed_s: -
result: FAIL
""", "f60b9a71f65c678d460c9b4050fcf3dd0899c2e1c37988afa758115086d88356"),
    ("--sampled", "5000"): ("""\
n: 3
mode: sampled
seed: 0
pairs_checked: 5000
relation_size: 441
enumeration_failures: 0
move_failures: 0
cover_mismatches: 1
  element 0,0,0: predicate=[] brute=['0,0,1']
order_mismatches: 4 (first 2 listed)
  pair 0,0,0 vs 3,2,1: containment=false moves=true
  pair 0,0,0 vs 3,2,1: containment=false moves=true
search_mismatches: 232
oracle_mismatches: 1
  element 3,2,1: formula=9 oracle=10
phase_errors: 0
phases_s: -
elapsed_s: -
result: FAIL
""", "2ea83bfcbecb9a5f8f3c35746fa48b926bd3afaee2cd8c7728d15418532da748"),
}


@pytest.mark.parametrize("campaign", FOUR_FAULTS_TEXT, ids=["exhaustive", "sampled"])
def test_the_text_report_of_every_fault_at_once(capsys, monkeypatch, campaign):
    monkeypatch.setattr(poset, "_MISMATCH_LIMIT", 2)
    for fault in FAULTS.values():
        inject(monkeypatch, *fault)
    code, out, err = run(capsys, "verify", "3", *campaign)
    out = re.sub(r"(?m)^(phases_s|elapsed_s): .*$", r"\1: -", out)
    text, digest = FOUR_FAULTS_TEXT[campaign]
    assert (code, err) == (2, "")
    assert "".join(line for line in out.splitlines(True) if "search=" not in line) == text
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("defect", DEFECTS)
def test_verify_lists_a_defective_enumeration_or_walk(capsys, monkeypatch, defect):
    # Both routes read one enumeration and one walk; a fault there is
    # listed, in both campaigns, and never raises.
    *fault, lists = DEFECTS[defect]
    inject(monkeypatch, *fault)
    labels = {field: label for field, _, label, _ in poset._FAILURE_LISTS}
    for campaign in ([], ["--sampled", "5000"]):
        code, out, err = run(capsys, "verify", "3", "--json", *campaign)
        report = json.loads(out)
        assert (code, err) == (2, "")
        assert [field for field in LISTS if report[field]] == lists
        if defect == "dropped zero element":
            assert report["enumeration_failures"] == [["element count", 33, 34]]
        code, out, err = run(capsys, "verify", "3", *campaign)
        assert (code, err) == (2, "")
        for field in LISTS:
            assert (f"{labels[field]}: 0" in out.splitlines()) == (field not in lists), field
        # The text lists in the order the phases run, so the root cause comes first.
        heads = [line.partition(": ") for line in out.splitlines()]
        first = next(label for label, _, count in heads if label in labels.values() and count != "0")
        assert first == labels[lists[0]]
        assert out.splitlines()[-1] == "result: FAIL"


# The one stderr line of hasse 3 under each defect: the enumeration is
# checked before the walk reads it.
HASSE_REFUSALS = {
    "move key outside R_n":
        "error: hasse found move_failures: 1; the first is element 0,0,0: move key 1 is no element\n",
    "dropped zero element":
        "error: hasse found enumeration_failures: 1; the first is element count: 33, expected 34\n",
    "dropped identity":
        "error: hasse found enumeration_failures: 1; the first is element count: 33, expected 34\n",
    "repeated element":
        "error: hasse found enumeration_failures: 2; the first is element count: 35, expected 34\n",
    "element repeated in place of the next":
        "error: hasse found enumeration_failures: 1; the first is element 6: 0,1,2, expected after 0,1,2\n",
    "two swapped elements":
        "error: hasse found enumeration_failures: 2; the first is element 6: 0,1,3, expected after 0,2,3\n",
    "empty enumeration":
        "error: hasse found enumeration_failures: 1; the first is element count: 0, expected 34\n",
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_hasse_refuses_a_defective_enumeration_or_walk_in_one_line(capsys, monkeypatch, defect):
    # The refusal is no ValueError, which would read as a usage error and exit 1.
    assert not issubclass(poset.DefectError, ValueError)
    inject(monkeypatch, *DEFECTS[defect][:3])
    for fmt in ("dot", "json", "ranks"):
        assert run(capsys, "hasse", "3", "--format", fmt) == (2, "", HASSE_REFUSALS[defect])


class PhaseRaised(Exception):
    pass


def _raise(*args):
    raise PhaseRaised("stand-in raised")


# One stand-in that raises inside each phase of verify, by case: the phase,
# the poset name the stand-in replaces and the phases that need that phase
# and so are skipped.  random.Random is drawn from, inside containment, only
# in a sampled campaign whose relations differ somewhere, so that case also
# carries the containment fault, and no mismatch may be listed from it.
PHASE_RAISERS = {
    "enumerate": ("enumerate", "enumerate_elements", ["walk", "closure", "containment", "spot_checks", "oracle"]),
    "walk": ("walk", "_walk", ["closure", "containment", "spot_checks"]),
    "closure": ("closure", "_close_moves", ["containment", "spot_checks"]),
    "containment": ("containment", "_containment_rows", []),
    "containment draws": ("containment", "random.Random", []),
    "spot_checks": ("spot_checks", "ppr_leq", []),
    "oracle": ("oracle", "oracle_length", []),
}


@pytest.mark.parametrize("case", PHASE_RAISERS)
def test_verify_reports_a_phase_that_raises_and_skips_only_what_needs_it(capsys, monkeypatch, case):
    phase, name, skipped = PHASE_RAISERS[case]
    draws = name == "random.Random"
    # A wrong oracle value, listed whenever the oracle phase runs.
    for fault in ["oracle_mismatches"] + ["mismatches"] * draws:
        inject(monkeypatch, *FAULTS[fault])
    monkeypatch.setattr(poset.random if draws else poset, name.split(".")[-1], _raise)
    ran = []

    def recording(name, function):
        return lambda c: ran.append(name) or function(c)

    monkeypatch.setattr(poset, "_PHASES", tuple(
        (name, recording(name, function), needs) for name, function, needs in poset._PHASES
    ))
    every = [name for name, _, _ in poset._PHASES]
    oracle_runs = phase != "oracle" and "oracle" not in skipped
    pairs_run = phase != "containment" and "containment" not in skipped
    for campaign, pairs in ([], 1156), (["--sampled", "5000"], 5000):
        if draws and not campaign:
            continue
        ran.clear()
        code, out, err = run(capsys, "verify", "3", "--json", *campaign)
        report = json.loads(out)
        assert (code, err) == (2, "")
        assert report["phase_errors"] == [[phase, "PhaseRaised", "stand-in raised"]]
        # The JSON keeps the phases in the order they run, not sorted.
        assert list(report["phases"]) == every
        assert ran == [name for name in every if name not in skipped]
        assert [field for field in LISTS if report[field]] == ["oracle_mismatches"] * oracle_runs + ["phase_errors"]
        assert report["oracle_mismatches"] == [["3,2,1", 9, 10]] * oracle_runs
        # The report says what it checked: no pair unless containment ran through.
        assert report["pairs_checked"] == pairs * pairs_run
        if phase == "containment":
            assert report["relation_size"] == 441
        code, out, err = run(capsys, "verify", "3", *campaign)
        assert (code, err) == (2, "")
        lines = out.splitlines()
        assert f"  {phase}: PhaseRaised: stand-in raised" in lines
        # Every phase keeps its seconds, in order, a skipped one too.
        timed = next(line for line in lines if line.startswith("phases_s: "))
        assert [pair.split("=")[0] for pair in timed.split()[1:]] == every
        assert lines[-1] == "result: FAIL"


# The step of hasse that each poset name raises in: verify's phase, or the diagram.
HASSE_STEPS = {"enumerate_elements": "enumerate", "length": "diagram", "_walk": "walk"}


@pytest.mark.parametrize("name", HASSE_STEPS)
def test_hasse_refuses_anything_raised_after_its_size_check_in_one_line(capsys, monkeypatch, name):
    monkeypatch.setattr(poset, name, _raise)
    expected = f"error: hasse found phase_errors: 1; the first is {HASSE_STEPS[name]}: PhaseRaised: stand-in raised\n"
    assert run(capsys, "hasse", "3") == (2, "", expected)
    assert run(capsys, "hasse", "7") == (1, "", "error: hasse supports n in 1..6\n")


@pytest.mark.parametrize("argv", [["verify", "2"], ["verify", "2", "--sampled", "300"]])
def test_verify_exits_two_when_search_disagrees_with_closure(capsys, monkeypatch, argv):
    monkeypatch.setattr(poset, "ppr_leq", lambda x, y: False)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "search_mismatches: 0" not in out
    assert "closure=true search=false" in out
    assert out.splitlines()[-1] == "result: FAIL"


def test_malformed_element(capsys):
    code, _, err = run(capsys, "len", "2,2,1")
    assert code == 1
    assert err.startswith("error:")


def test_no_arguments(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_unknown_command(capsys):
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "rookorder" in out


def test_the_parser_is_built_once_and_holds_no_state_of_a_call(capsys):
    assert cli.build_parser() is cli.build_parser()
    for argv in (["verify", "2", "--seed", "3"], ["hasse", "3", "--format", "svg"], ["frobnicate"]):
        first = run(capsys, *argv)
        assert first[0] == 1 and first[2]
        assert run(capsys, *argv) == first
    code, out, err = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: rookorder") and err == ""


def test_a_second_call_of_main_leaves_no_cyclic_garbage(capsys):
    # The first call may build the parser; a rebuilt one would be garbage.
    for argv in (["hasse", "3", "--format", "json"], ["verify", "2"], ["len", "1,0"]):
        run(capsys, *argv)
        gc.collect()
        assert run(capsys, *argv)[0] == 0
        assert gc.collect() == 0, argv


def test_cmp_size_mismatch(capsys):
    assert run(capsys, "cmp", "1,0", "1,0,0") == (1, "", "error: size mismatch: 2 vs 3\n")


@pytest.mark.parametrize("args", [["cmp", "1,0", "1,0,0"], ["covers", "abc"]])
def test_usage_errors(capsys, args):
    code = cli.main(args)
    capsys.readouterr()
    assert code == 1
