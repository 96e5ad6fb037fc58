"""Rook monoid under the Bruhat-Chevalley order.

The package provides rook elements (parsing, rank and enumeration), the
combinatorial length function with its decomposition into star weights,
coinversions and orbit dimensions, two independent implementations of
the order (sorted-truncation containment and generator-move closure),
the covers of an element, an exact integer linear-algebra oracle for
orbit dimensions, Hasse-diagram tooling, and one verification campaign
(verify) that cross-checks all of them against each other on whole
monoids, exhaustively or on a seeded sample of pairs.
"""

from .elements import (
    OneLine,
    enumerate_elements,
    parse_one_line,
    rank,
)
from .length import (
    LengthBreakdown,
    coinversions,
    length,
    length_breakdown,
)
from .oracle import left_span, oracle_length, right_span
from .order import (
    covers_of,
    deodhar_leq,
    deodhar_leq_gamma,
    ppr_leq,
)
from .poset import (
    DefectError,
    HasseDiagram,
    VerificationReport,
    build_hasse,
    export_dot,
    export_json,
    hasse_from_json,
    interval,
    rank_sizes,
    verify,
)

__version__ = "0.1.0"
