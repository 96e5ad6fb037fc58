"""Command-line front end.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a
comparison or verification run uncovers a disagreement between the
independent implementations.
"""

import argparse
import json
import sys

from .elements import enumerate_elements, parse_one_line, rank
from .length import coinversions, length, length_breakdown
from .oracle import left_span, right_span
from .order import covers_of, deodhar_leq, deodhar_leq_gamma, ppr_leq
from .poset import build_hasse, export_dot, export_json, rank_sizes, verify

USAGE_ERROR = 1
MISMATCH_ERROR = 2
# Size caps, each checked before any work runs; above one the command
# exits 1.  The per-pair move search in cmp is slowest at n = 7 on false
# pairs such as 0,0,0,0,0,7,0 against 6,5,4,3,2,1,7: 1.3-1.5 s and 38 MB
# for the whole command.  The slowest true pair found, 0,0,0,0,0,3,0
# against 7,0,6,1,5,3,4, takes 0.5-0.7 s and 29 MB.
CMP_MAX_N = 7
# covers of the zero element (n*n raises, each one key): 0.14 s and 29 MB
# at n = 200.
COVERS_MAX_N = 200
# len of the identity (n(n-1)/2 coinversion pairs): 0.7 s and 111 MB at n = 1000.
LEN_MAX_N = 1000
# oracle of the identity, both spans built once: 0.02-0.03 s and 16 MB at
# n = 700, 0.08 s and 16 MB at n = 1000.
ORACLE_MAX_N = 700
# enum 8 prints 1 441 729 elements in 10.5 s; R_9 has 17 572 114.
ENUM_MAX_N = 8
# verify 6 --sampled K at the cap: 0.6-0.8 s and 43 MB when the relations
# agree, since only the spot pairs are drawn; the cap bounds a run where
# they differ, which draws and reads every pair: 1.3-1.7 s and 43 MB
# (0.55-0.9 s at n = 5).
SAMPLED_MAX_K = 1_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookorder",
        description="Rook-monoid order calculator and verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("len", help="length breakdown of one element")
    p.add_argument("element", help="one-line form, e.g. 4,0,2,3")
    p.set_defaults(handler=_cmd_len)

    p = sub.add_parser("cmp", help="compare two elements under every order implementation")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_cmp)

    p = sub.add_parser("covers", help="list the elements covering one element")
    p.add_argument("element")
    p.set_defaults(handler=_cmd_covers)

    p = sub.add_parser("oracle", help="orbit dimensions from the exact linear-algebra oracle")
    p.add_argument("element")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("hasse", help="emit the full order diagram of R_n")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("dot", "json", "ranks"), default="dot")
    p.set_defaults(handler=_cmd_hasse)

    p = sub.add_parser("verify", help="cross-check all implementations over R_n")
    p.add_argument("n", type=int)
    p.add_argument("--sampled", type=int, metavar="K",
                   help="check K seeded random pairs instead of all pairs")
    p.add_argument("--seed", type=int, help="seed of the --sampled pairs (default 0)")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enum", help="list all elements of R_n, one per line")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_enum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _check_size(command: str, n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"{command} supports n <= {cap}")


def _cmd_len(args) -> int:
    x = parse_one_line(args.element)
    _check_size("len", x.n, LEN_MAX_N)
    b = length_breakdown(x)
    pairs = coinversions(x)
    print(f"element: {x}")
    print(f"n: {x.n}")
    print(f"rank: {rank(x)}")
    print(f"star_weights: {','.join(map(str, b.star_weights))}")
    print(f"star_sum: {b.star_sum}")
    print(f"coinv: {b.coinv}")
    print(f"coinversion_pairs: {' '.join(f'({i},{j})' for i, j in pairs) or '-'}")
    print(f"length: {b.length}")
    print(f"dim_bx: {b.dim_bx}")
    print(f"dim_xb: {b.dim_xb}")
    print(f"dim_meet: {b.dim_meet}")
    return 0


def _cmd_cmp(args) -> int:
    x = parse_one_line(args.x)
    y = parse_one_line(args.y)
    _check_size("cmp", max(x.n, y.n), CMP_MAX_N)
    d = deodhar_leq(x, y)
    g = deodhar_leq_gamma(x, y)
    p = ppr_leq(x, y)
    print(f"x: {x}")
    print(f"y: {y}")
    print(f"deodhar: {_verdict(d)}")
    print(f"gamma: {_verdict(g)}")
    print(f"ppr: {_verdict(p)}")
    print(f"length_x: {length(x)}")
    print(f"length_y: {length(y)}")
    if not d == g == p:
        print("implementations disagree", file=sys.stderr)
        return MISMATCH_ERROR
    return 0


def _cmd_covers(args) -> int:
    x = parse_one_line(args.element)
    _check_size("covers", x.n, COVERS_MAX_N)
    for y in covers_of(x):
        print(y)
    return 0


def _cmd_oracle(args) -> int:
    x = parse_one_line(args.element)
    _check_size("oracle", x.n, ORACLE_MAX_N)
    left = left_span(x)
    right = right_span(x)
    left_rank, right_rank = left.bit_count(), right.bit_count()
    meet_dim = (left & right).bit_count()
    print(f"element: {x}")
    print(f"left_rank: {left_rank}")
    print(f"right_rank: {right_rank}")
    print(f"meet_dim: {meet_dim}")
    # oracle_length's orbit dimension, from the spans built once above.
    print(f"oracle_length: {left_rank + right_rank - meet_dim}")
    return 0


def _cmd_hasse(args) -> int:
    h = build_hasse(args.n)
    render = {"dot": export_dot, "json": export_json, "ranks": _rank_table}[args.format]
    print(render(h), end="")
    return 0


def _rank_table(h) -> str:
    """Element count per length value, the totals and the widest rank."""
    sizes = rank_sizes(h)
    widest = max(range(len(sizes)), key=sizes.__getitem__)
    return "".join([
        f"R_{h.n}: {len(h.nodes)} elements, {len(h.edges)} covering pairs\n",
        "  length  count\n",
        *(f"  {ln:6d}  {count:5d}\n" for ln, count in enumerate(sizes)),
        f"  widest rank: length {widest} with {sizes[widest]} elements\n\n",
    ])


def _cmd_verify(args) -> int:
    if args.sampled is None and args.seed is not None:
        raise ValueError("--seed needs --sampled: an exhaustive campaign draws no pairs")
    if args.sampled is not None and args.sampled > SAMPLED_MAX_K:
        raise ValueError(f"verify supports --sampled K <= {SAMPLED_MAX_K}")
    report = verify(args.n, args.sampled, 0 if args.seed is None else args.seed)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"n: {report.n}")
        print(f"mode: {report.mode}")
        if report.mode == "sampled":
            print(f"seed: {report.seed}")
        print(f"pairs_checked: {report.pairs_checked}")
        print(f"relation_size: {report.relation_size}")
        _print_count("order_mismatches", report.mismatches, report.mismatch_count)
        for x, y, d, p in report.mismatches:
            print(f"  pair {x} vs {y}: containment={_verdict(d)} moves={_verdict(p)}")
        print(f"search_mismatches: {len(report.search_mismatches)}")
        for x, y, p, s in report.search_mismatches:
            print(f"  pair {x} vs {y}: closure={_verdict(p)} search={_verdict(s)}")
        _print_count("cover_mismatches", report.cover_mismatches, report.cover_mismatch_count)
        for x, predicate, brute in report.cover_mismatches:
            print(f"  element {x}: predicate={predicate} brute={brute}")
        _print_count("oracle_mismatches", report.oracle_mismatches, report.oracle_mismatch_count)
        for x, formula, oracle in report.oracle_mismatches:
            print(f"  element {x}: formula={formula} oracle={oracle}")
        print("phases_s: " + " ".join(f"{k}={v:.3f}" for k, v in report.phases.items()))
        print(f"elapsed_s: {report.elapsed:.3f}")
        print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else MISMATCH_ERROR


def _print_count(label: str, listed: list, count: int) -> None:
    more = f" (first {len(listed)} listed)" if len(listed) < count else ""
    print(f"{label}: {count}{more}")


def _cmd_enum(args) -> int:
    _check_size("enum", args.n, ENUM_MAX_N)
    for e in enumerate_elements(args.n):
        print(e)
    return 0


def _verdict(flag: bool) -> str:
    return "true" if flag else "false"


if __name__ == "__main__":
    raise SystemExit(main())
