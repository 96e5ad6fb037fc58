"""Command-line front end.

Exit codes: 0 on success, 1 on usage or parse errors only, and 2 on a
disagreement between the independent implementations or any other
defect: a verify phase that raises is a row of its report, and hasse
refuses a defect found after its size check with poset.DefectError, not
a ValueError, in one line that names a phase that raised.  Output cut
short by a closed pipe, as by `| head`, exits 1 without a traceback.

The argument parser is built once per process (build_parser is cached):
building it takes most of a millisecond and leaves a few hundred objects
in reference cycles, garbage for the cyclic collector on every call of
main.  Parsing changes none of its state, and each handler reads the
functions it calls from this module at its call, so a function replaced
here after the first parse is still the one run.
"""

import argparse
import json
import os
import sys
from functools import cache

from .elements import enumerate_elements, parse_one_line, rank
from .length import coinversions, length, length_breakdown
from .oracle import left_span, oracle_length, right_span
from .order import covers_of, deodhar_leq, deodhar_leq_gamma, ppr_leq
from .poset import DefectError, _check_size, build_hasse, export_dot, export_json, rank_sizes, verify

USAGE_ERROR = 1
MISMATCH_ERROR = 2
# Size caps, each checked before any work runs; above one the command
# exits 1.  The per-pair move search in cmp is slowest at n = 7 on false
# pairs such as 0,0,0,0,7,0,0 against 6,5,4,3,2,7,1 (23 028 expansions):
# 0.5-0.6 s and 32 MB for the whole command; 0,0,0,0,0,7,0 against
# 6,5,4,3,2,1,7 expands 19 245 nodes, 0.4-0.5 s and 30 MB.  The slowest
# true pair found in 24 000 seeded true pairs of R_7, 0,1,0,2,3,5,0
# against 7,0,4,6,0,5,0, expands 8 147 nodes: 0.3 s and 24 MB.
CMP_MAX_N = 7
# covers of the zero element (n*n raises, each one key of about 1 KB):
# 0.2 s and 82 MB at n = 200, half of it the key table (moves._layout).
COVERS_MAX_N = 200
# len of the identity (n(n-1)/2 coinversion pairs): 0.6-0.7 s and 112 MB at n = 1000.
LEN_MAX_N = 1000
# oracle of the identity, each span built twice (rank lines, oracle_length):
# 0.04-0.06 s and 16 MB at n = 700, 0.14-0.17 s and 16 MB at n = 1000.
ORACLE_MAX_N = 700
# enum 8 writes 1 441 729 lines into a file in 5.6-6.4 s and 15 MB; R_9 has 17 572 114.
ENUM_MAX_N = 8


@cache
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

    p = sub.add_parser("covers", help="list the elements covering one element, in lexicographic order")
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
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ValueError, DefectError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH_ERROR if isinstance(exc, DefectError) else USAGE_ERROR
    except BrokenPipeError:
        # The reader closed the pipe, as `| head` does.  Point stdout at
        # the null device so that the flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


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
    print(f"length: {length(x)}")
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
    left, right = left_span(x), right_span(x)
    print(f"element: {x}")
    print(f"left_rank: {left.bit_count()}")
    print(f"right_rank: {right.bit_count()}")
    print(f"meet_dim: {(left & right).bit_count()}")
    print(f"oracle_length: {oracle_length(x)}")
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
    report = verify(args.n, args.sampled, 0 if args.seed is None else args.seed)
    # Top-level keys sorted; phases keeps the run order of poset._PHASES.
    print(json.dumps(dict(sorted(report.to_dict().items())), indent=2) if args.json else report.to_text())
    return 0 if report.passed else MISMATCH_ERROR


def _cmd_enum(args) -> int:
    _check_size("enum", args.n, ENUM_MAX_N)
    sys.stdout.writelines(f"{e}\n" for e in enumerate_elements(args.n))
    return 0


def _verdict(flag: bool) -> str:
    return "true" if flag else "false"
