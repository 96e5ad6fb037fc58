"""Rook monoid under the Bruhat-Chevalley order.

The package provides rook elements (parsing, rank and enumeration), the
combinatorial length function with its decomposition into star weights,
coinversions and orbit dimensions, two independent implementations of
the order (sorted-truncation containment and generator-move closure),
the covers of an element, an exact integer linear-algebra oracle for
orbit dimensions, Hasse-diagram tooling, and one verification campaign
(verify) that cross-checks all of them against each other on whole
monoids, exhaustively or on a seeded sample of pairs.

The top level re-exports each module's __all__, so every public name is
declared once, beside its definition; rookorder.length is the function.
"""

from .elements import *
from .length import *
from .oracle import *
from .order import *
from .poset import *

__version__ = "0.1.0"
