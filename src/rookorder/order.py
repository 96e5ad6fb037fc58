"""The Bruhat-Chevalley order on rook elements, per pair: a facade that
defines nothing.  deodhar_leq and deodhar_leq_gamma come from the
containment route, ppr_leq, covers_of and ppr_raises from the move route.
It keeps the public import path rookorder.order and the module of the
benchmark tracer's labels (order.deodhar_leq, order.ppr_leq, ...).
"""

from . import containment, moves
from .containment import deodhar_leq, deodhar_leq_gamma
from .moves import covers_of, ppr_leq, ppr_raises

__all__ = [*containment.__all__, *moves.__all__]
