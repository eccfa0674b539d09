"""Shared strategies and independent float oracles for the test suite.

The oracles here deliberately avoid the library's conjugate/recession
calculus: grid searches evaluate functions pointwise in floating point, so
they stay independent of the exact code paths they check.
"""

import json
import random
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import strategies as st

from cadlagconvex import serialize
from cadlagconvex.duality import Instance
from cadlagconvex.generators import rand_coarse
from cadlagconvex.plconvex import PLConvex, RInterval, pl
from cadlagconvex.presets import bundled_instance_path
from cadlagconvex.rationals import INF, NEG_INF, Ext, is_finite, xmul, xsum
from cadlagconvex.scenario import RandomIntegrand, RandomMeasure
from cadlagconvex.serialize import InstanceDoc, instance_doc_from_json
from cadlagconvex.setmaps import SetMap
from cadlagconvex.timegrid import TimeGrid


def forget_last_load() -> None:
    """Empty the one-document slot of ``load_instance``: its next call parses."""
    serialize._parsed.cache_clear()


@pytest.fixture(autouse=True)
def _no_document_from_an_earlier_test():
    forget_last_load()


def preset(name: str) -> InstanceDoc:
    """The bundled preset ``name``, parsed afresh from its shipped file: new
    objects on every call, never the document ``load_instance`` holds."""
    with open(bundled_instance_path(name), encoding="utf-8") as fh:
        return instance_doc_from_json(json.load(fh))


def affine(slope, value_at_zero) -> PLConvex:
    """x -> slope * x + value_at_zero on the whole line."""
    return pl(NEG_INF, INF, (), (slope,), Fraction(0), value_at_zero)


def rebuilt(x):
    """x built again from new objects, field by field: equal to x and of its
    type, but not x itself, so no identity shortcut can answer for it."""
    if isinstance(x, float):
        return float(str(x))
    if isinstance(x, Fraction):
        return type(x)(x.numerator, x.denominator)
    if isinstance(x, RInterval):
        return RInterval(rebuilt(x.lo), rebuilt(x.hi))
    if isinstance(x, PLConvex):
        return PLConvex(rebuilt(x.dom_lo), rebuilt(x.dom_hi),
                        tuple(map(rebuilt, x.breakpoints)), tuple(map(rebuilt, x.slopes)),
                        rebuilt(x.anchor_x), rebuilt(x.anchor_val))
    raise TypeError(f"cannot rebuild {x!r}")


# The pinned left limit 0 at t_0 as the library stated it before it became
# slot -1 of the hatted walk ``duality._coordinates(inst, True, FINE)``; the
# reference bodies of the oracle, the properness loop and the refined entry
# points use these copies, and the walk's slot -1 is checked against
# ``refined_pinned_start``.

def _zero_start_ok(inst: Instance, scenario: str) -> bool:
    return inst.st_map(scenario).point_vals[0].contains(Fraction(0))


def _zero_start_cost(inst: Instance) -> Ext:
    """E[mutilde_0 htilde_0(0)]: the charge on the forced left limit 0 at time 0."""
    terms = []
    for s in inst.tree.scenarios:
        m0 = inst.mutilde.measures[s].atoms[0]
        if m0 > 0:
            h0 = inst.htilde.functions[s][0].eval(Fraction(0))
            terms.append(xmul(inst.tree.prob(s), xmul(m0, h0)))
    return xsum(terms)


def refined_pinned_start(r: Instance):
    """The coordinates of slot -1 of ``r``, from its own data: per cell of
    partitions[0], the left limit 0 cut by every scenario's Stilde(0),
    charged by mutilde_0 htilde_0 (a zero atom included)."""
    out = []
    for cell in r.tree.cells(0):
        feas = RInterval.singleton(Fraction(0))
        for s in cell:
            feas = feas.intersect(r.st_map(s).point_vals[0])
        s = cell[0]
        out.append((-1, cell, r.tree.mass(cell), feas,
                    [(r.mutilde.measures[s].atoms[0], r.htilde.functions[s][0])]))
    return out


# The fixed-grid coordinates as the library stated them before
# ``duality._coordinates(inst, hatted)`` read its own sets and charges:
# per-scenario sets, a charge list and the walk over both.  The reference
# bodies of the oracle, the properness loop, the feasible path, the infima
# and the interchange witness use these copies, on ``inst.refine(FINE)``
# where the library walks ``_coordinates(inst, True, FINE)``;
# ``_fixed_value_sets`` builds afresh on every call, where the library's
# copy kept one per instance.

def _fixed_value_sets(inst: Instance) -> Dict[str, Tuple[RInterval, ...]]:
    """Per scenario, the per-slot feasible values of fixed-grid paths for the
    hatted functional."""
    return {s: _value_sets(inst.s_map(s), inst.st_map(s)) for s in inst.tree.scenarios}


def _value_sets(smap: SetMap, stmap: SetMap) -> Tuple[RInterval, ...]:
    n = len(smap.point_vals)
    out = []
    for i in range(n):
        v = smap.point_vals[i]
        if i < n - 1:
            v = v.intersect(smap.open_vals[i]).intersect(stmap.open_vals[i]).intersect(
                stmap.point_vals[i + 1])
        out.append(v)
    return tuple(out)


def _charges(inst: Instance, hatted: bool) -> List[Tuple[RandomMeasure, RandomIntegrand, int]]:
    """(measure, integrand, lag) of each charge on the value at a slot i.

    The value pays mu_i h_i; in the hatted form it is also the left limit
    at t_{i+1}, which pays mutilde_{i+1} htilde_{i+1}.
    """
    return [(inst.mu, inst.h, 0)] + ([(inst.mutilde, inst.htilde, 1)] if hatted else [])


def sets_coordinates(inst: Instance, sets: Dict[str, List[RInterval]], charges):
    """Yield (slot, cell, mass, feasible interval, terms) for every coordinate.

    A coordinate is one partition cell at one slot; its feasible interval is
    the slot's set, and ``terms`` holds the (atom, integrand) of each charge
    at ``slot + lag`` that is still a grid slot.  Both are the same for every
    scenario of the cell, so only the first one's are read.  A caller that
    searches a bounded range cuts the interval itself.
    """
    tree, n = inst.tree, inst.grid.n_slots
    for i in range(n):
        for cell in tree.cells(i):
            s = cell[0]
            terms = [(m.measures[s].atoms[i + lag], fam.functions[s][i + lag])
                     for m, fam, lag in charges if i + lag < n]
            yield i, cell, tree.mass(cell), sets[s][i], terms


# Random intervals and interval maps on the generators' coarse lattice.

def rand_interval(rng: random.Random) -> RInterval:
    kind = rng.choice(["bounded", "bounded", "left", "right", "line", "point"])
    if kind == "point":
        x = rand_coarse(rng)
        return RInterval(x, x)
    if kind == "line":
        return RInterval.whole_line()
    if kind == "left":
        return RInterval(NEG_INF, rand_coarse(rng))
    if kind == "right":
        return RInterval(rand_coarse(rng), INF)
    a, b = rand_coarse(rng), rand_coarse(rng)
    return RInterval(min(a, b), max(a, b))


def rand_setmap(rng: random.Random, grid: TimeGrid,
                regular: bool = False) -> SetMap:
    """Random interval map; with ``regular`` the point values sit inside cells."""
    cells = tuple(rand_interval(rng) for _ in range(grid.n_cells))
    points: List[RInterval] = []
    for i in range(grid.n_slots):
        if regular and i < grid.n_cells:
            base = cells[i]
            lo = base.lo if rng.random() < 0.7 or not is_finite(base.lo) else base.lo + \
                min(Fraction(1, 2), (base.hi - base.lo) / 2 if is_finite(base.hi) else Fraction(1, 2))
            points.append(RInterval(lo, base.hi))
        else:
            points.append(rand_interval(rng))
    return SetMap(grid, tuple(points), cells)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
slope_steps = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)


@st.composite
def plconvex_st(draw, max_breaks: int = 3):
    """Random canonical piecewise-linear convex function."""
    kind = draw(st.sampled_from(["line", "left", "right", "bounded", "singleton"]))
    if kind == "singleton":
        x = draw(small_fractions)
        return pl(x, x, (), (0,), x, draw(small_fractions))
    if kind == "line":
        dom_lo, dom_hi = NEG_INF, INF
    elif kind == "left":
        dom_lo, dom_hi = NEG_INF, draw(small_fractions)
    elif kind == "right":
        dom_lo, dom_hi = draw(small_fractions), INF
    else:
        a = draw(small_fractions)
        b = draw(small_fractions)
        dom_lo, dom_hi = min(a, b), max(a, b)
        if dom_lo == dom_hi:
            dom_hi = dom_lo + 1
    raw = draw(st.lists(small_fractions, max_size=max_breaks))
    inner = sorted({x for x in raw if dom_lo < x < dom_hi})
    s = draw(small_fractions)
    slopes = [s]
    for _ in inner:
        slopes.append(slopes[-1] + draw(slope_steps))
    anchor = dom_lo if is_finite(dom_lo) else (dom_hi if is_finite(dom_hi) else Fraction(0))
    return pl(dom_lo, dom_hi, inner, slopes, anchor, draw(small_fractions))


def pl_float(fn: PLConvex, xs: np.ndarray) -> np.ndarray:
    """Vectorized float evaluation; +inf outside the domain closure."""
    knots = fn.knots()
    out = np.full(xs.shape, np.inf)
    lo = -np.inf if fn.dom_lo == NEG_INF else float(fn.dom_lo)
    hi = np.inf if fn.dom_hi == INF else float(fn.dom_hi)
    inside = (xs >= lo) & (xs <= hi)
    if not knots:
        base = float(fn.anchor_val) + float(fn.slopes[0]) * (xs - float(fn.anchor_x))
        out[inside] = base[inside]
        return out
    kx = np.array([float(k) for k in knots])
    kv = np.array([float(fn.eval(k)) for k in knots])
    vals = np.interp(xs, kx, kv)
    left_tail = inside & (xs < kx[0])
    right_tail = inside & (xs > kx[-1])
    vals = np.where(left_tail, kv[0] + float(fn.slopes[0]) * (xs - kx[0]), vals)
    vals = np.where(right_tail, kv[-1] + float(fn.slopes[-1]) * (xs - kx[-1]), vals)
    out[inside] = vals[inside]
    return out


def conjugate_grid_oracle(fn: PLConvex, v, lo=-10.0, hi=10.0, step=1e-3) -> float:
    """sup over a float grid of v*x - fn(x); a lower bound of the conjugate."""
    xs = np.arange(lo, hi + step, step)
    vals = float(v) * xs - pl_float(fn, xs)
    finite = vals[np.isfinite(vals)]
    return float(finite.max()) if finite.size else -np.inf


def inf_grid_oracle(fn: PLConvex, lo=-10.0, hi=10.0, step=1e-3) -> float:
    xs = np.arange(lo, hi + step, step)
    vals = pl_float(fn, xs)
    finite = vals[np.isfinite(vals)]
    return float(finite.min()) if finite.size else np.inf


def recession_quotient(fn: PLConvex, x: Fraction, alpha: int = 10 ** 6):
    """Exact difference quotient (h(a + alpha*x) - h(a)) / alpha at the anchor."""
    a = fn.anchor_x
    val = fn.eval(a + alpha * x)
    if val == INF:
        return INF
    return (val - fn.eval(a)) / alpha
