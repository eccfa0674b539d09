"""Exact convex duality calculus for step paths on finite scenario trees.

The library provides, in exact rational arithmetic:

* piecewise-linear convex functions with conjugation, recession functions,
  subdifferentials and interval support functions (``plconvex``);
* polyhedral cones with polars, pointedness/solidity and window hulls
  (``polycone``);
* step paths, atomic measures, the dual pairing and the integral
  functionals I and J on a time grid (``timegrid``);
* interval-valued mappings with semicontinuity checks, left-limit maps and
  metric-projection selections (``setmaps``);
* finite scenario trees with the optional projection, Jensen checks and
  the pasting construction (``scenario``);
* the primal/dual functionals, conjugate and subdifferential checks,
  interchange rules and their brute-force oracles (``duality``);
* obstacle, bid-ask and currency-market presets (``finmodels``);
* JSON instance files and a batch verification CLI (``serialize``, ``cli``).
"""

from .plconvex import EMPTY_INTERVAL, PLConvex, RInterval, abs_fn, indicator, \
    pl, restrict, support_fn
from .rationals import INF, NEG_INF, Q, ext, fmt, rat
from .timegrid import GridMeasure, LebesgueSplit, StepPath, TimeGrid, \
    eval_I, eval_J, lebesgue_decompose, pairing

__all__ = [
    "EMPTY_INTERVAL", "PLConvex", "RInterval", "abs_fn", "indicator",
    "pl", "restrict", "support_fn",
    "INF", "NEG_INF", "Q", "ext", "fmt", "rat",
    "GridMeasure", "LebesgueSplit", "StepPath", "TimeGrid",
    "eval_I", "eval_J", "lebesgue_decompose", "pairing",
]
