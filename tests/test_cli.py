import contextlib
import io
import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rookorder import cli, parse_one_line, poset


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
    assert (code, out, err) == (1, "", "error: cmp supports n <= 7\n")
    monkeypatch.undo()
    code, out, _ = run(capsys, "cmp", "7,6,5,4,3,2,1", "7,6,5,4,3,2,1")
    assert code == 0
    assert "ppr: true" in out


class WorkRan(Exception):
    pass


def _work(*args):
    raise WorkRan


@pytest.mark.parametrize("command, cap, workers", [
    ("len", cli.LEN_MAX_N, ("length_breakdown", "coinversions")),
    ("covers", cli.COVERS_MAX_N, ("covers_of",)),
    ("oracle", cli.ORACLE_MAX_N, ("left_span", "right_span")),
    ("enum", cli.ENUM_MAX_N, ("enumerate_elements",)),
])
def test_size_caps_refuse_before_any_work(capsys, monkeypatch, command, cap, workers):
    for name in workers:
        monkeypatch.setattr(cli, name, _work)

    def arg(n):
        return str(n) if command == "enum" else ",".join(["0"] * n)

    expected = (1, "", f"error: {command} supports n <= {cap}\n")
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


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "2")
    assert code == 0
    assert out.splitlines() == ["0,0", "0,1", "0,2", "1,0", "1,2", "2,0", "2,1"]


def test_enum_rejects_zero(capsys):
    code, _, err = run(capsys, "enum", "0")
    assert code == 1
    assert err.startswith("error:")


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
    code, _, err = run(capsys, "hasse", "9")
    assert code == 1
    assert "error:" in err


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
    failing = replace(
        poset.verify(2), mismatches=[["0,0", "1,0", True, False]], mismatch_count=1
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
        with pytest.raises(WorkRan):  # up to the bound the work starts
            cli.main(["verify", str(n)])
    assert calls == [(n, None, 0)]


def test_sampled_pair_count_cap_refuses_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(poset, "enumerate_elements", _work)
    cap = cli.SAMPLED_MAX_K
    expected = (1, "", f"error: verify supports --sampled K <= {cap}\n")
    assert run(capsys, "verify", "6", "--sampled", str(cap + 1)) == expected
    with pytest.raises(WorkRan):  # at the cap the work starts
        cli.main(["verify", "6", "--sampled", str(cap)])


def test_verify_reports_every_order_mismatch_and_lists_the_first(capsys, monkeypatch):
    # Rows holding only their own bit disagree on every strict pair of R_4.
    monkeypatch.setattr(poset, "_containment_rows", lambda els: [1 << i for i in range(len(els))])
    code, out, _ = run(capsys, "verify", "4")
    assert code == 2
    assert "order_mismatches: 12092 (first 1000 listed)" in out
    assert sum(line.startswith("  pair ") for line in out.splitlines()) == 1000
    assert out.splitlines()[-1] == "result: FAIL"
    code, out, _ = run(capsys, "verify", "4", "--json")
    doc = json.loads(out)
    assert (code, doc["mismatch_count"], len(doc["mismatches"])) == (2, 12092, 1000)


def test_verify_reports_every_cover_and_oracle_mismatch_and_lists_the_first(capsys, monkeypatch):
    # Cleared cover flags fail every element of R_3 but the top, which has
    # no moves, and a wrong oracle fails all 34 elements.
    real = poset._moves
    monkeypatch.setattr(poset, "_MISMATCH_LIMIT", 2)
    monkeypatch.setattr(poset, "_moves", lambda a, key: [(y, False) for y, _ in real(a, key)])
    monkeypatch.setattr(poset, "oracle_length", lambda x: -1)
    code, out, _ = run(capsys, "verify", "3")
    lines = out.splitlines()
    assert code == 2
    assert "cover_mismatches: 33 (first 2 listed)" in lines
    assert "oracle_mismatches: 34 (first 2 listed)" in lines
    assert sum(line.startswith("  element ") for line in lines) == 4
    code, out, _ = run(capsys, "verify", "3", "--json")
    doc = json.loads(out)
    assert (code, doc["cover_mismatch_count"], len(doc["cover_mismatches"])) == (2, 33, 2)
    assert (doc["oracle_mismatch_count"], len(doc["oracle_mismatches"])) == (34, 2)


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


def test_cmp_size_mismatch(capsys):
    assert run(capsys, "cmp", "1,0", "1,0,0") == (1, "", "error: size mismatch: 2 vs 3\n")


@pytest.mark.parametrize("args", [["cmp", "1,0", "1,0,0"], ["covers", "abc"]])
def test_usage_errors(capsys, args):
    code = cli.main(args)
    capsys.readouterr()
    assert code == 1
