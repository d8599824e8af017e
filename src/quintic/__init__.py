"""Closed-form quintic solver over arbitrary-precision complex arithmetic.

The pipeline reduces a monic quintic to Bring-Jerrard form with a quartic
Tschirnhaus substitution, solves the reduced equation z^5 - z - s = 0 with a
generalized hypergeometric series (analytically continued where the series
diverges), and unwinds through Ferrari's quartic method.  An independent
Aberth-Ehrlich root finder cross-validates every answer.

Only the entry points are re-exported here; everything else is imported
from its own module (``quintic.tschirnhaus``, ``quintic.bring``, ...).
"""

from .mpfield import PrecisionCtx
from .tschirnhaus import MonicQuintic
from .bring import solve_bring
from .closedform import solve_quintic
from .oracle import aberth_solve, match_rootsets
from . import errors

__version__ = "0.1.0"

__all__ = [
    "MonicQuintic",
    "PrecisionCtx",
    "solve_quintic",
    "solve_bring",
    "aberth_solve",
    "match_rootsets",
    "errors",
]
