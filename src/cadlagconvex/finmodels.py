"""Market-model presets built from the generic duality machinery.

Bid-ask bands S_t = [b_t, a_t] between an optional bid and ask, with their
left regularizations, and cone-valued currency-market constraints with polar
membership certificates and a sampled polarity check.  The obstacle is the
band with no ask, the half-line [b_t, +inf): :func:`band_setmap` builds both
constraint maps and one closed form prices both supports, the ask (+inf
without one) against the positive parts of the dual atoms and the bid
against the negative parts.  Each closed form is what the generic
``support_DS`` and the brute-force oracle must reproduce.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .duality import DualPair, Instance, indicator_integrand, make_instance
from .plconvex import RInterval
from .polycone import ConeMap, PolyCone, cone_hull, vdot
from .rationals import Ext, INF, Q, rat, xmul, xsum
from .scenario import (RandomMeasure, RandomPath, RandomSetMap, ScenarioTree,
                       check_adapted, unmeasurable_slot)
from .setmaps import SetMap, escaping_slots
from .timegrid import TimeGrid, refine_cells, refine_slots


# ---------------------------------------------------------------------------
# Scalar processes with point / open-cell values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarProcess:
    """Real-valued process, constant on open cells with separate point values."""

    tree: ScenarioTree
    grid: TimeGrid
    points: Mapping[str, Tuple[Q, ...]]
    cells: Mapping[str, Tuple[Q, ...]]
    flag: str = "raw"

    def __post_init__(self):
        if self.flag not in ("optional", "predictable", "raw"):
            raise ValueError(f"unknown flag {self.flag!r}")
        object.__setattr__(self, "points",
                           {s: tuple(rat(v) for v in vals)
                            for s, vals in self.points.items()})
        object.__setattr__(self, "cells",
                           {s: tuple(rat(v) for v in vals)
                            for s, vals in self.cells.items()})
        for s in self.tree.scenarios:
            if len(self.points[s]) != self.grid.n_slots:
                raise ValueError("need one point value per grid time")
            if len(self.cells[s]) != self.grid.n_cells:
                raise ValueError("need one value per open cell")
        if self.flag != "raw" and unmeasurable_slot(
                self.tree, self.points, self.cells,
                self.flag == "predictable") is not None:
            raise ValueError(f"process is not {self.flag}")

    @classmethod
    def constant_cells(cls, tree: ScenarioTree, grid: TimeGrid,
                       values: Mapping[str, Sequence], flag: str = "raw") -> "ScalarProcess":
        """Point value at t_i equal to the following cell value (cadlag style)."""
        pts, cls_ = {}, {}
        for s, vals in values.items():
            vals = tuple(rat(v) for v in vals)
            if len(vals) != grid.n_cells:
                raise ValueError("need one value per cell")
            pts[s] = vals + (vals[-1],)
            cls_[s] = vals
        return cls(tree, grid, pts, cls_, flag)

    def refine(self, factor: int) -> "ScalarProcess":
        """Inserted grid times take the surrounding cell's value."""
        fine = self.grid.refine(factor)
        pts = {s: refine_slots(self.points[s], self.cells[s], factor)
               for s in self.tree.scenarios}
        cellv = {s: refine_cells(self.cells[s], factor) for s in self.tree.scenarios}
        return ScalarProcess(self.tree.refine(factor), fine, pts, cellv, self.flag)


def left_usc_reg(b: ScalarProcess) -> ScalarProcess:
    """Left upper semicontinuous regularization: limsup from the left.

    On cell-constant processes the limsup at t_i is the preceding cell value
    (limsup and liminf agree), with 0 at t_0 by the left-limit convention.
    The output is predictable whenever the input is optional: the preceding
    cell value is known one partition earlier.
    """
    pts = {
        s: (Fraction(0),) + b.cells[s]
        for s in b.tree.scenarios
    }
    flag = "predictable" if b.flag in ("optional", "predictable") else "raw"
    return ScalarProcess(b.tree, b.grid, pts, b.cells, flag)


def left_lsc_reg(a: ScalarProcess) -> ScalarProcess:
    """Left lower semicontinuous regularization: liminf from the left.

    Coincides with :func:`left_usc_reg` on cell-constant processes; kept as a
    separate name because the two regularizations bound different sides of
    the bid-ask spread.
    """
    return left_usc_reg(a)


def right_usc_slots(b: ScalarProcess) -> Dict[str, List[int]]:
    """Slots violating right upper semicontinuity (point below the next cell)."""
    return {s: escaping_slots(b.points[s], b.cells[s], 0, operator.ge)
            for s in b.tree.scenarios}


def right_lsc_slots(a: ScalarProcess) -> Dict[str, List[int]]:
    """Slots violating right lower semicontinuity (point above the next cell)."""
    return {s: escaping_slots(a.points[s], a.cells[s], 0, operator.le)
            for s in a.tree.scenarios}


def _jordan(x: Q) -> Tuple[Q, Q]:
    return (x, Fraction(0)) if x >= 0 else (Fraction(0), -x)


# ---------------------------------------------------------------------------
# Bands S_t = [b_t, a_t]; the obstacle is the band with a = +inf
# ---------------------------------------------------------------------------

def band_setmap(b: ScalarProcess, a: Optional[ScalarProcess] = None) -> RandomSetMap:
    """The map whose point and cell values are [b, a] in each scenario, or
    [b, +inf) when ``a`` is None."""
    def band(s: str, side: str) -> Tuple[RInterval, ...]:
        his = repeat(INF) if a is None else getattr(a, side)[s]
        return tuple(map(RInterval, getattr(b, side)[s], his))
    return RandomSetMap(b.tree, b.grid, {
        s: SetMap(b.grid, band(s, "points"), band(s, "cells")) for s in b.tree.scenarios})


def _band_support(b: ScalarProcess, b_vec: ScalarProcess, a: Optional[ScalarProcess],
                  a_under: Optional[ScalarProcess], d: DualPair) -> Ext:
    """E[sum of a u+ - b u- over the optional atoms plus a_under ut+ - b_vec ut-
    over the predictable atoms after t_0], with the Jordan parts u+, u- of
    each atom.  With no ask (``a`` and ``a_under`` None) a positive part
    costs ``xmul(INF, u+)``: +inf when it is positive, 0 when it is zero.
    """
    def terms(s: str):
        for lo, hi, m, first in ((b, a, d.u, 0), (b_vec, a_under, d.ut, 1)):
            for i, atom in enumerate(m.measures[s].atoms[first:], first):
                plus, minus = _jordan(atom)
                yield xmul(INF if hi is None else hi.points[s][i], plus)
                yield -lo.points[s][i] * minus
    return b.tree.expectation({s: xsum(terms(s)) for s in b.tree.scenarios})


def _model_instance(smap: RandomSetMap) -> Instance:
    """The hard constraint y in S: the indicators of S, charged by no measure."""
    zero = RandomMeasure.zero(smap.tree, smap.grid)
    return make_instance(smap.tree, smap.grid, indicator_integrand(smap, "optional"), zero,
                         S=smap)


@dataclass(frozen=True)
class ObstacleModel:
    b: ScalarProcess
    b_vec: ScalarProcess
    ycheck: RandomPath
    instance: Instance


def obstacle_model(b: ScalarProcess, ycheck: RandomPath) -> ObstacleModel:
    """Hard constraint y >= b for an optional right-usc bound dominated in D."""
    if b.flag != "optional":
        raise ValueError("obstacle bound must be optional")
    bad = {s: v for s, v in right_usc_slots(b).items() if v}
    if bad:
        raise ValueError(f"bound is not right-usc at slots {bad}")
    if not check_adapted(ycheck):
        raise ValueError("dominating path must be adapted")
    smap = band_setmap(b)
    for s in b.tree.scenarios:
        if not smap.maps[s].is_selection(ycheck.paths[s]):
            raise ValueError(f"dominating path below the bound in {s!r}")
    return ObstacleModel(b, left_usc_reg(b), ycheck, _model_instance(smap))


def obstacle_support(model: ObstacleModel, d: DualPair) -> Ext:
    """Closed form: E[integral of b du + integral of the left regularization
    d(ut)] when both measures are nonpositive, +inf otherwise.

    Atoms of the predictable measure at t_0 pair against the pinched start
    {0} and contribute nothing, any sign.
    """
    return _band_support(model.b, model.b_vec, None, None, d)


@dataclass(frozen=True)
class BidAskModel:
    b: ScalarProcess
    a: ScalarProcess
    b_vec: ScalarProcess
    a_under: ScalarProcess
    ybar: RandomPath
    instance: Instance


def bidask_model(b: ScalarProcess, a: ScalarProcess, ybar: RandomPath) -> BidAskModel:
    """Interval constraints between a right-usc bid and a right-lsc ask.

    Requires the strict separation b < ybar < a slot-wise, and the same for
    the left regularizations against the left limits of ybar (skipping the
    pinched start).
    """
    if b.flag != "optional" or a.flag != "optional":
        raise ValueError("bid and ask must be optional")
    bad_b = {s: v for s, v in right_usc_slots(b).items() if v}
    bad_a = {s: v for s, v in right_lsc_slots(a).items() if v}
    if bad_b or bad_a:
        raise ValueError(f"regularity failure: bid {bad_b}, ask {bad_a}")
    if not check_adapted(ybar):
        raise ValueError("separating path must be adapted")
    b_vec, a_under = left_usc_reg(b), left_lsc_reg(a)
    for s in b.tree.scenarios:
        vals = ybar.paths[s].values
        lefts = ybar.paths[s].left_values()
        for i in range(b.grid.n_slots):
            if not (b.points[s][i] < vals[i] < a.points[s][i]):
                raise ValueError(f"separation fails at slot {i} in {s!r}")
            if i < b.grid.n_cells and not (b.cells[s][i] < vals[i] < a.cells[s][i]):
                raise ValueError(f"separation fails on cell {i} in {s!r}")
            if i >= 1 and not (b_vec.points[s][i] < lefts[i] < a_under.points[s][i]):
                raise ValueError(f"left separation fails at slot {i} in {s!r}")
    return BidAskModel(b, a, b_vec, a_under, ybar, _model_instance(band_setmap(b, a)))


def bidask_support(model: BidAskModel, d: DualPair) -> Ext:
    """Closed form with the Jordan decomposition of both measures.

    The ask prices the positive parts and the bid the negative parts; on the
    predictable side the left-lsc regularization of the ask meets the
    positive part and the left-usc regularization of the bid the negative
    part.  Atoms at t_0 of the predictable measure contribute nothing.
    """
    return _band_support(model.b, model.b_vec, model.a, model.a_under, d)


# ---------------------------------------------------------------------------
# Currency markets: cone-valued constraints and the polar membership test
# ---------------------------------------------------------------------------

Vec = Tuple[Fraction, ...]


@dataclass(frozen=True)
class VectorPath:
    """Vector-valued step path on the grid (single scenario)."""

    grid: TimeGrid
    values: Tuple[Vec, ...]

    def __post_init__(self):
        vals = tuple(tuple(rat(x) for x in v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.grid.n_slots:
            raise ValueError("need one vector per grid time")

    def left_values(self) -> Tuple[Vec, ...]:
        dim = len(self.values[0])
        zero = tuple(Fraction(0) for _ in range(dim))
        return (zero,) + self.values[:-1]


@dataclass(frozen=True)
class VectorMeasure:
    """Vector-valued atomic measure on the grid (single scenario)."""

    grid: TimeGrid
    atoms: Tuple[Vec, ...]

    def __post_init__(self):
        atoms = tuple(tuple(rat(x) for x in a) for a in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if len(atoms) != self.grid.n_slots:
            raise ValueError("need one vector atom per grid time")

    def refine(self, factor: int) -> "VectorMeasure":
        """Atoms stay at the original times; new slots carry the zero vector."""
        zero = tuple(Fraction(0) for _ in self.atoms[0])
        return VectorMeasure(self.grid.refine(factor),
                             refine_slots(self.atoms, [zero] * self.grid.n_cells, factor))


def vector_pairing(y: VectorPath, u: VectorMeasure, ut: VectorMeasure) -> Q:
    total = sum((vdot(v, a) for v, a in zip(y.values, u.atoms)), Fraction(0))
    total += sum((vdot(w, a) for w, a in zip(y.left_values(), ut.atoms)), Fraction(0))
    return total


@dataclass(frozen=True)
class CurrencyModel:
    """Polar-cone description of self-financing dual pairs.

    ``solvency`` is the cone map G of solvency cones; the constraint map is
    its slot-wise polar S = G*.  A dual pair belongs to the polar of the
    selection set exactly when each atom of the optional measure points into
    G at its slot and each atom of the predictable measure into the
    preceding cell cone (the polar of the left-limit constraint).  Cone
    membership is scale invariant, so atom directions need no normalization.

    The polarity of a member is checked by sampling: a selection takes at
    each slot a combination, with coefficients ``randint(0, 4)``, of the
    generators of the cone it can reach there, and every sampled pairing
    must be <= 0.  :meth:`max_sampled_pairing` scores the samples through
    the integer pairing table of :meth:`generator_pairings`.
    """

    solvency: ConeMap
    constraints: ConeMap
    report: Dict

    @property
    def grid(self) -> TimeGrid:
        return self.solvency.grid

    def attainable_cone(self, i: int) -> PolyCone:
        """Values selections of the constraint map can take at t_i."""
        if i == self.grid.n_cells:
            return self.constraints.point_cones[i]
        hull = cone_hull([self.solvency.point_cones[i], self.solvency.cell_cones[i]])
        return hull.polar()

    def is_member(self, u: VectorMeasure, ut: VectorMeasure) -> Dict:
        """Membership of a dual pair in the polar cone of the selection set."""
        n = self.grid.n_slots
        u_ok = [all(x == 0 for x in u.atoms[i])
                or self.solvency.point_cones[i].member(u.atoms[i])
                for i in range(n)]
        ut_ok = [True] + [
            all(x == 0 for x in ut.atoms[i])
            or self.solvency.cell_cones[i - 1].member(ut.atoms[i])
            for i in range(1, n)]
        return {"u_ok": u_ok, "ut_ok": ut_ok,
                "member": all(u_ok) and all(ut_ok)}

    @cached_property
    def _attainable_cones(self) -> Tuple[PolyCone, ...]:
        """:meth:`attainable_cone` of every slot, built once per model."""
        return tuple(self.attainable_cone(i) for i in range(self.grid.n_slots))

    def _draw_coefficients(self, rng) -> List[List[int]]:
        """The coefficients of one sampled selection: ``rng.randint(0, 4)``
        per generator of each attainable cone, in slot order, then generator
        order.  A slot whose cone has no generators draws nothing."""
        randint = rng.randint
        return [[randint(0, 4) for _ in cone.generators] for cone in self._attainable_cones]

    def sample_selection(self, rng) -> VectorPath:
        """Random rational selection: at each slot, the combination of the
        attainable cone's generators with the coefficients of
        :meth:`_draw_coefficients` (the zero vector where there are none)."""
        dim = self.solvency.dim
        return VectorPath(self.grid, tuple(
            tuple(sum((c * g[k] for c, g in zip(coeffs, cone.generators)), Fraction(0))
                  for k in range(dim))
            for cone, coeffs in zip(self._attainable_cones, self._draw_coefficients(rng))))

    def generator_pairings(self, u: VectorMeasure,
                           ut: VectorMeasure) -> Tuple[Tuple[Q, ...], ...]:
        """The pairing table: per slot i and generator g_ij of its attainable
        cone, w_ij = <g_ij, u_i> + <g_ij, ut_{i+1}>, without the ut term at
        the last slot.  It is :func:`vector_pairing` of the path that is g_ij
        at slot i and 0 elsewhere, so a selection with coefficients c_ij
        pairs to sum c_ij w_ij."""
        rows = []
        for i, cone in enumerate(self._attainable_cones):
            c = u.atoms[i]
            if i < self.grid.n_cells:
                c = tuple(map(operator.add, c, ut.atoms[i + 1]))
            rows.append(tuple(vdot(g, c) for g in cone.generators))
        return tuple(rows)

    def max_sampled_pairing(self, rng, u: VectorMeasure, ut: VectorMeasure,
                            count: int) -> Fraction:
        """``max(vector_pairing(self.sample_selection(rng), u, ut) for _ in
        range(count))``, drawing the same numbers from ``rng``.

        The pairing table goes over one common denominator L as integers W,
        so each sample scores as the integer sum of c_ij W_ij; the largest is
        returned as one ``Fraction(best, L)``.
        """
        table = [w for row in self.generator_pairings(u, ut) for w in row]
        denom = lcm(*(w.denominator for w in table))
        scaled = [w.numerator * (denom // w.denominator) for w in table]
        best = max(sum(map(operator.mul, chain.from_iterable(self._draw_coefficients(rng)),
                           scaled))
                   for _ in range(count))
        return Fraction(best, denom)


def currency_model(solvency: ConeMap) -> CurrencyModel:
    """Build the polar constraint system of a solvency cone map.

    Verifies the standing hypotheses: the polar map S = G* is right inner
    semicontinuous and solid, and its left-limit map is solid away from the
    pinched start.  Failures are reported, not silently accepted.
    """
    s_map = solvency.polar_map()
    right_isc = s_map.right_isc()
    solid = [k.solid() for k in s_map.point_cones] + [k.solid() for k in s_map.cell_cones]
    vec_solid = [s_map.cell_cones[i - 1].solid() for i in range(1, solvency.grid.n_slots)]
    report = {
        "polar_right_isc": right_isc,
        "polar_solid": all(solid),
        "vec_polar_solid": all(vec_solid),
        "pass": right_isc and all(solid) and all(vec_solid),
    }
    if not report["pass"]:
        raise ValueError(f"currency preconditions fail: {report}")
    return CurrencyModel(solvency, s_map, report)
