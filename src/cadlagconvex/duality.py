"""Primal/dual functionals on scenario trees and their theorem checks.

The primal functional charges an optional integrand along a path against an
optional measure, a predictable integrand along the left limits against a
predictable atomic measure, and hard interval constraints on both.  Its
conjugate over the dual pairs (optional measure, predictable measure) has an
exact pointwise expression through the J-functionals of the conjugate
integrands; this module evaluates both sides and cross-checks them with a
brute-force lattice oracle, verifies the subdifferential characterization,
and runs the deterministic and stochastic interchange rules.

Two path semantics coexist deliberately.  ``eval_F``/``eval_Fhat`` treat a
path on the instance's own grid, where the left limit at t_i is the previous
slot's value.  The sup/inf underlying conjugates and interchange rules ranges
over paths on *refinements* of the grid, where a path may jump inside a cell,
making the value at t_i and the left limit at t_i independent coordinates.
On either grid the objective separates across (partition cell, slot), so
both primal functionals, the oracle, both interchange rules, the properness
diagnostic and the feasible path generator work one coordinate at a time,
on one walk: ``_coordinates(inst, hatted, factor)`` states the feasible set
and charges of each coordinate of ``inst.refine(factor)`` (inserted times
carry zero mass), read from the coarse instance, and in the hatted form
first the left limit at t_0, which the paper pins to 0, as slot -1.  The
value at slot i lies in what S lets a right-continuous selection take and
pays mu_i h_i; in the hatted form it is also the left limit at the next
time, so Stilde cuts it and, just before t_{i+1}, mutilde_{i+1} htilde_{i+1}
charges it.  The fine walk is ``_coordinates(inst, True, FINE)``; only the
oracle and an honest path search build the refined instance.  The hatted
interchange witness is a path on the refined tree and grid, priced on the
fine walk.  A charge is an (atom, integrand) pair and costs the cell's mass
times the atom times the integrand at the coordinate's value; every walk
holds only those with a positive atom.  ``eval_F``, ``eval_Fhat`` and the
witness's price are one sum over a walk, ``_price``.  Each walk is built
once per instance and (hatted, factor) and shared, read-only, by every
reader of that instance.

Each coordinate is evaluated once, on the data of the cell's first
scenario.  That is exact: the constructors of :class:`Instance` and
:class:`DualPair` reject unmeasurable data and parts on another tree or
grid, and ``_require_dual`` a dual pair on another one than the instance's,
so every integrand, measure, constraint set and dual atom a slot-i
coordinate reads is constant on the cells of ``partitions[i]``, and the sum
of the cell's per-scenario objectives is the cell's mass times one of them.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .plconvex import RInterval, indicator, once
from .rationals import Ext, INF, NEG_INF, Q, is_finite, rat, xmul, xneg, xsum
from .scenario import (RandomIntegrand, RandomMeasure, RandomPath,
                       RandomSetMap, ScenarioTree, check_adapted,
                       check_predictable, expected_pairing)
from .setmaps import SetMap, escaping_slots, michael_check
from .timegrid import StepPath, TimeGrid, eval_J, refined_once

DEFAULT_BUDGET = 10 ** 7
BUDGET_ENV_VAR = "CADLAG_CONVEX_BUDGET"
FINE = 2  # refinement factor of the grid the sup/inf ranges over


class BudgetExceededError(RuntimeError):
    """The brute-force lattice search space holds too many points."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"brute-force search space has {needed} lattice points, "
            f"budget is {budget}; shrink B, the lattice step or the grid, "
            f"or raise {BUDGET_ENV_VAR}")
        self.needed = needed
        self.budget = budget


def resolve_budget(budget: Optional[int] = None) -> int:
    """The given budget, else $CADLAG_CONVEX_BUDGET, else DEFAULT_BUDGET.

    Raises ValueError for a negative budget or a non-integer variable.
    """
    name, value = "--budget", budget
    if budget is None:
        name, value = BUDGET_ENV_VAR, os.environ.get(BUDGET_ENV_VAR) or DEFAULT_BUDGET
        try:
            budget = int(value)
        except ValueError:
            budget = -1
    if budget < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return budget


# ---------------------------------------------------------------------------
# Instances and dual pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """A primal problem: integrands, measures and hard constraint maps.

    ``S`` defaults to the slot-wise closed domain of ``h`` (extended
    constantly over the open cells) and ``Stilde`` to its left-limit map;
    ``htilde`` defaults to the indicator family of ``Stilde``, which turns
    the hatted functional into the plain one.  Measurability flags are
    enforced at construction; the relation between the constraint maps and
    the integrand domains is recorded by :func:`assumption_report` instead,
    since instances that violate it are legitimate gap-mode inputs.
    """

    tree: ScenarioTree
    grid: TimeGrid
    h: RandomIntegrand
    mu: RandomMeasure
    mutilde: RandomMeasure
    htilde: RandomIntegrand
    S: RandomSetMap
    Stilde: RandomSetMap

    def __post_init__(self):
        for name in ("h", "mu", "mutilde", "htilde", "S", "Stilde"):
            _require_on(self, name, getattr(self, name))
        if not self.mu.is_nonnegative or not self.mutilde.is_nonnegative:
            raise ValueError("mu and mutilde must be nonnegative")
        if self.h.flag != "optional" or not check_adapted(self.h):
            raise ValueError("h must be optional")
        if self.htilde.flag != "predictable" or not check_predictable(self.htilde):
            raise ValueError("htilde must be predictable")
        if not check_adapted(self.mu):
            raise ValueError("mu must be optional")
        if not check_predictable(self.mutilde):
            raise ValueError("mutilde must be predictable")
        if not check_adapted(self.S):
            raise ValueError("S must be optional")
        if not check_predictable(self.Stilde):
            raise ValueError("Stilde must be predictable")

    # -- per-scenario accessors ------------------------------------------------

    def s_map(self, scenario: str) -> SetMap:
        return self.S.maps[scenario]

    def st_map(self, scenario: str) -> SetMap:
        return self.Stilde.maps[scenario]

    def refine(self, factor: int) -> "Instance":
        """The instance on the factor-refined grid; repeated calls return the same one."""
        return refined_once(self, factor, self._refine)

    def _refine(self, factor: int) -> "Instance":
        return Instance(self.tree.refine(factor), self.grid.refine(factor),
                        self.h.refine(factor), self.mu.refine(factor),
                        self.mutilde.refine(factor), self.htilde.refine(factor),
                        self.S.refine(factor), self.Stilde.refine(factor))

    def magnitude_bound(self) -> Q:
        """Largest |breakpoint|, |slope knot| or finite constraint endpoint,
        and at least 1; computed once per instance."""
        return once(self, "magnitude_bound", self._magnitude_bound)

    def _magnitude_bound(self) -> Q:
        # scenarios and inserted slots share function and interval objects:
        # visit each once
        functions = {id(fn): fn for fam in (self.h, self.htilde)
                     for fns in fam.functions.values() for fn in fns}
        intervals = {id(iv): iv for rsm in (self.S, self.Stilde) for sm in rsm.maps.values()
                     for iv in sm.point_vals + sm.open_vals}
        values = chain((b for fn in functions.values() for b in fn.knots()),
                       (side for iv in intervals.values() for side in (iv.lo, iv.hi)
                        if is_finite(side)))
        num, den = 1, 1  # the largest |v| so far, compared by cross-multiplying
        for v in values:
            if abs(v.numerator) * den > num * v.denominator:
                num, den = abs(v.numerator), v.denominator
        return Fraction(num, den)


def _require_on(inst: Instance, name: str, part) -> None:
    """ValueError unless ``part`` lies on the instance's tree and grid; the
    parts of one instance share them, so identity is tested first."""
    for attr in ("tree", "grid"):
        ours, theirs = getattr(inst, attr), getattr(part, attr)
        if theirs is not ours and theirs != ours:
            raise ValueError(f"{name} is not on the instance's {attr}")


def domain_setmap(h: RandomIntegrand) -> RandomSetMap:
    """Slot-wise closed domain of the integrand, constant on open cells."""
    maps = {}
    for s, fns in h.functions.items():
        points = tuple(fn.domain for fn in fns)
        cells = tuple(fn.domain for fn in fns[:-1])
        maps[s] = SetMap(h.grid, points, cells)
    return RandomSetMap(h.tree, h.grid, maps)


def indicator_integrand(rsm: RandomSetMap, flag: str) -> RandomIntegrand:
    """The indicators of the point values; equal intervals share one function."""
    shared = cache(indicator)
    fams = {
        s: tuple(shared(iv) for iv in sm.point_vals)
        for s, sm in rsm.maps.items()
    }
    return RandomIntegrand(rsm.tree, rsm.grid, fams, flag)


def make_instance(tree: ScenarioTree, grid: TimeGrid, h: RandomIntegrand,
                  mu: RandomMeasure, mutilde: Optional[RandomMeasure] = None,
                  htilde: Optional[RandomIntegrand] = None,
                  S: Optional[RandomSetMap] = None,
                  Stilde: Optional[RandomSetMap] = None) -> Instance:
    """Assemble an instance, filling the default constraint system."""
    if mutilde is None:
        mutilde = RandomMeasure.zero(tree, grid)
    if S is None:
        S = domain_setmap(h)
    if Stilde is None:
        Stilde = S.vec_map()
    if htilde is None:
        htilde = indicator_integrand(Stilde, "predictable")
    return Instance(tree, grid, h, mu, mutilde, htilde, S, Stilde)


@dataclass(frozen=True)
class DualPair:
    """An optional measure paired against paths, a predictable one against left limits."""

    u: RandomMeasure
    ut: RandomMeasure

    def __post_init__(self):
        if not check_adapted(self.u):
            raise ValueError("u must be optional")
        if not check_predictable(self.ut):
            raise ValueError("ut must be predictable")
        if self.u.grid != self.ut.grid or self.u.tree != self.ut.tree:
            raise ValueError("dual pair must share tree and grid")

    def refine(self, factor: int) -> "DualPair":
        return DualPair(self.u.refine(factor), self.ut.refine(factor))


# ---------------------------------------------------------------------------
# Primal evaluation (paths on the instance's own grid)
# ---------------------------------------------------------------------------

def _require_adapted_path(y: RandomPath, tree: ScenarioTree, grid: TimeGrid) -> None:
    if not check_adapted(y):
        raise ValueError("path must be adapted")
    if y.grid != grid:
        raise ValueError("grid mismatch")
    if y.tree != tree:
        raise ValueError("path must be adapted to the instance's tree")


def _require_dual(inst: Instance, d: DualPair) -> None:
    _require_on(inst, "dual pair", d.u)  # d.ut shares d.u's tree and grid


def eval_F(inst: Instance, y: RandomPath) -> Ext:
    """E I_h(y) plus the indicator of y being a selection of S; y is adapted to inst.tree."""
    return _price(y, inst.tree, inst.grid, _coordinates(inst, False))


def eval_Fhat(inst: Instance, y: RandomPath) -> Ext:
    """The hatted functional: adds the left-limit costs and Stilde's constraints, at 0 too."""
    return _price(y, inst.tree, inst.grid, _coordinates(inst, True))


def _price(y: RandomPath, tree: ScenarioTree, grid: TimeGrid, coords) -> Ext:
    """Sum of mass x atom x integrand at y's value on each coordinate's first
    scenario, 0 at slot -1; +inf if such a value misses its coordinate's set.
    ``y`` must be an adapted path on ``tree`` and ``grid``, those of the
    instance whose coordinates ``coords`` walks."""
    _require_adapted_path(y, tree, grid)
    charges = []
    for i, cell, mass, feas, terms in coords:
        x = y.paths[cell[0]].values[i] if i >= 0 else Fraction(0)
        if not feas.contains(x):
            return INF
        charges += [xmul(mass, xmul(atom, fn.eval(x))) for atom, fn in terms]
    return xsum(charges)


# ---------------------------------------------------------------------------
# The pointwise conjugate and the support function of the constraint set
# ---------------------------------------------------------------------------

def conj_pointwise(inst: Instance, d: DualPair) -> Ext:
    """E[J of h* at u against mu, plus J of htilde* at ut against mutilde], or
    -inf when a fine coordinate, the pinned start's included, is empty."""
    _require_dual(inst, d)
    if _no_selection(inst):
        return NEG_INF
    vals: Dict[str, Ext] = {}
    for s in inst.tree.scenarios:
        hstar = tuple(fn.conjugate() for fn in inst.h.functions[s])
        htstar = tuple(fn.conjugate() for fn in inst.htilde.functions[s])
        vals[s] = xsum([
            eval_J(hstar, d.u.measures[s], inst.mu.measures[s]),
            eval_J(htstar, d.ut.measures[s], inst.mutilde.measures[s]),
        ])
    return inst.tree.expectation(vals)


def support_DS(inst: Instance, d: DualPair) -> Ext:
    """Support function of the constraint set at a dual pair.

    Sums slot support values of the point constraint intervals against the
    atoms; homogeneity makes the result independent of any reference measure.
    Returns the -inf sentinel when no selection exists: some fine coordinate
    is empty, the pinned start's included (Stilde(0) misses 0).
    """
    _require_dual(inst, d)
    if _no_selection(inst):
        return NEG_INF
    vals: Dict[str, Ext] = {}
    for s in inst.tree.scenarios:
        smap, stmap = inst.s_map(s), inst.st_map(s)
        terms = [smap.point_vals[i].support(a)
                 for i, a in enumerate(d.u.measures[s].atoms)]
        terms += [stmap.point_vals[i].support(a)
                  for i, a in enumerate(d.ut.measures[s].atoms)]
        vals[s] = xsum(terms)
    return inst.tree.expectation(vals)


# ---------------------------------------------------------------------------
# Coordinates: feasible sets and charges per (slot, cell)
# ---------------------------------------------------------------------------

def _off_domain(values: Tuple[RInterval, ...], fns, first: int = 0) -> List[int]:
    """Slots i >= first where ``values[i - first]`` is not the closed domain of fns[i]."""
    return [i for i, v in enumerate(values, first) if v != fns[i].domain]


def _charged(terms) -> list:
    """The terms with a positive atom: a zero atom charges nothing.  Every
    atom is a ``GridMeasure`` atom, so a ``Fraction``, whose sign is its
    numerator's."""
    return [(atom, fn) for atom, fn in terms if atom.numerator > 0]


def _coordinates(inst: Instance, hatted: bool, factor: int = 1) -> Tuple:
    """The (slot, cell, mass, feasible interval, terms) of every coordinate
    of ``inst.refine(factor)``, read from ``inst`` without building it; the
    hatted form holds first the pinned start.

    Fine slot j lies in coarse slot i = j // factor, with the cells of
    partitions[i].  At j = i * factor the value lies in ``S.attainable_at(i)``
    and pays mu_i h_i; at an inserted slot it lies in S's cell value of slot
    i and pays nothing, as the inserted mu atom is 0.  In the hatted form,
    for i < n-1, the value is also the left limit at the next fine time, so
    Stilde's cell value of slot i cuts it; only the slot just before t_{i+1}
    meets Stilde's point value at t_{i+1} and pays mutilde_{i+1} htilde_{i+1}.
    The pinned start is the left limit at t_0, pinned to 0: slot -1 per cell
    of partitions[0], with {0} meet Stilde(0) and the charge mutilde_0
    htilde_0; it is no value of the path.  ``terms`` holds the ``_charged``
    (atom, integrand) pairs.  Both are the same for every scenario of the
    cell, so only the first one's are read.  A caller that searches a
    bounded range cuts the interval itself.

    The walk is a fact of the instance: it is built once per instance and
    form through :func:`plconvex.once`, under the key ``("coordinates",
    hatted, factor)``, and every call returns the same tuple.  Its readers
    share it, ``terms`` lists included, and never change it.

    Not building ``inst.refine(factor)`` loses no rejection of its
    constructor, as refinement keeps measurability: an inserted slot carries
    cell data of slot i, constant on partitions[i], and so are the
    predictable htilde_{i+1} and Stilde's point value at t_{i+1}.
    """
    return once(inst, ("coordinates", hatted, factor),
                lambda: _build_coordinates(inst, hatted, factor))


def _build_coordinates(inst: Instance, hatted: bool, factor: int) -> Tuple:
    """The walk of :func:`_coordinates`, built afresh."""
    tree, n = inst.tree, inst.grid.n_slots
    S, Stilde = inst.S.maps, inst.Stilde.maps
    mu, mutilde = inst.mu.measures, inst.mutilde.measures
    h, htilde = inst.h.functions, inst.htilde.functions
    coords = []
    if hatted:
        zero = RInterval.singleton(Fraction(0))
        for cell in tree.cells(0):
            s = cell[0]
            coords.append((-1, cell, tree.mass(cell), zero.intersect(Stilde[s].point_vals[0]),
                           _charged([(mutilde[s].atoms[0], htilde[s][0])])))
    for j in range(factor * (n - 1) + 1):
        i, inside = divmod(j, factor)
        for cell in tree.cells(i):
            s = cell[0]
            sm = S[s]
            v = sm.open_vals[i] if inside else sm.attainable_at(i)
            terms = [] if inside else [(mu[s].atoms[i], h[s][i])]
            if hatted and i < n - 1:
                stm = Stilde[s]
                v = v.intersect(stm.open_vals[i])
                if inside == factor - 1:  # the slot just before t_{i+1}
                    v = v.intersect(stm.point_vals[i + 1])
                    terms.append((mutilde[s].atoms[i + 1], htilde[s][i + 1]))
            coords.append((j, cell, tree.mass(cell), v, _charged(terms)))
    return tuple(coords)


def _no_selection(inst: Instance) -> bool:
    """Whether some set of ``_coordinates(inst, True, FINE)``, the pinned
    start's included, is empty, so that no selection of the constraints
    exists; a fact of the instance alone, decided once per instance."""
    return once(inst, "no_selection", lambda: any(
        feas.is_empty for _, _, _, feas, _ in _coordinates(inst, True, FINE)))


def _coordinate_infima(inst: Instance, coords):
    """Minimize each coordinate's charged cost over its feasible interval.

    At most one charge has mass at a coordinate, as on the FINE grid, where
    mu is 0 at the inserted slots, the only ones charged as a left limit;
    two would need one joint minimization.  Returns the infimum, +inf if
    some coordinate is empty; each scenario's minimizers nearest 0 by slot
    (None if not attained; the feasible point nearest 0 where no charge has
    mass); and the right-hand side: the cell's mass times every charged atom
    of the coordinates, empty ones included, against the integrand's infimum
    over the line.  ``coords`` is a ``_coordinates`` walk, such as
    ``_coordinates(inst, True, FINE)``; the pinned start's slot -1 adds to
    the infimum and the right-hand side but to no path.
    """
    costs, rhs = [], []
    path = {s: [] for s in inst.tree.scenarios}
    for i, cell, mass, feas, terms in coords:
        rhs += [xmul(mass, xmul(atom, fn.min_on_line)) for atom, fn in terms]
        point = None
        if feas.is_empty:
            costs.append(INF)
        else:
            assert len(terms) <= 1, f"two charges with mass at slot {i}"
            point = feas.nearest_to(Fraction(0))
            for atom, fn in terms:
                val, argmin = fn.inf_over(feas)
                costs.append(xmul(mass, xmul(atom, val)))
                point = None if argmin.is_empty else argmin.nearest_to(Fraction(0))
        if i >= 0:
            for s in cell:
                path[s].append(point)
    return xsum(costs), path, xsum(rhs)


# ---------------------------------------------------------------------------
# Assumption diagnostics
# ---------------------------------------------------------------------------

def assumption_report(inst: Instance) -> Dict:
    """Slot-wise diagnostics under which the pointwise formulas are exact.

    Records, per scenario: the constraint maps agreeing with the integrand
    domains (image closure), the Michael-representation inclusions on both
    maps, the cross-compatibility of the two constraint systems, the pinched
    left start, properness (a feasible point with finite cost exists) and
    the constructive affine minorants.  A slot-wise condition is computed as
    its failing slots, which the report lists under ``failing_slots``.
    Properness is read on ``_coordinates(inst, True, FINE)``, pinned start
    included.

    Decided once per instance: every call on it returns the same dict, which
    callers read and never change.
    """
    return once(inst, "assumption_report", lambda: _assumption_report(inst))


def _assumption_report(inst: Instance) -> Dict:
    # a scenario is improper on a fine coordinate that is empty or on which
    # a charged integrand is +inf throughout
    improper = set()
    for _, cell, _, feas, terms in _coordinates(inst, True, FINE):
        if feas.is_empty or any(feas.intersect(fn.domain).is_empty for _, fn in terms):
            improper.update(cell)
    zero = RInterval.singleton(Fraction(0))
    per_scenario = {}
    for s in inst.tree.scenarios:
        smap, stmap = inst.s_map(s), inst.st_map(s)
        hfns, htfns = inst.h.functions[s], inst.htilde.functions[s]
        # each condition as its failing slots, or as a flag if not slot-wise
        checks = {
            "s_is_cl_dom_h": _off_domain(smap.point_vals, hfns)
            + _off_domain(smap.open_vals, hfns),
            "stilde_is_cl_dom_htilde": _off_domain(stmap.point_vals[1:], htfns, 1),
            "slot0_pinched": stmap.point_vals[0] == zero and htfns[0].domain == zero,
            "michael_S": escaping_slots(smap.point_vals, smap.open_vals, 0),
            "michael_Stilde": escaping_slots(stmap.point_vals, stmap.open_vals, 1),
            "cross_S_in_Stilde_cells": escaping_slots(smap.point_vals, stmap.open_vals, 0),
            "cross_Stilde_in_S_cells": escaping_slots(stmap.point_vals, smap.open_vals, 1),
            "s_contains_dom_h": all(fn.domain.issubset(v)
                                    for fn, v in zip(hfns, smap.point_vals)),
            "proper": s not in improper,
        }
        per_scenario[s] = {k: v if isinstance(v, bool) else not v
                           for k, v in checks.items()}
        per_scenario[s]["failing_slots"] = {
            k: v for k, v in checks.items() if not isinstance(v, bool) and v}
    summary = {k: all(flags[k] for flags in per_scenario.values()) for k in checks}
    # s_contains_dom_h is recorded, not required
    all_ok = all(v for k, v in summary.items() if k != "s_contains_dom_h")
    # minorant_certificate builds an affine minorant of every PL integrand
    summary["minorant_h"] = summary["minorant_htilde"] = True
    summary["all_ok"] = all_ok
    return {"per_scenario": per_scenario, "summary": summary, "all_ok": all_ok}


# ---------------------------------------------------------------------------
# Brute-force conjugate oracle
# ---------------------------------------------------------------------------

def conj_bruteforce(inst: Instance, d: DualPair, B, delta,
                    budget: Optional[int] = None) -> Ext:
    """Lower bound of the conjugate by an adapted lattice search.

    Searches adapted step paths on the once-refined grid with values in
    {-B, -B+delta, ..., B}, evaluating pairing minus primal cost directly
    (no conjugate calculus), and maximizes coordinate by coordinate, which
    is exact because the objective separates across (partition cell, slot).
    Converges to the true conjugate from below as B grows and delta shrinks.
    Returns the -inf sentinel when no lattice path is feasible.

    The budget caps the number of lattice points in the search space, the
    points of each coordinate's feasible interval summed over coordinates;
    it is checked before anything is evaluated.  Only candidate points are
    scored: the two ends of each coordinate's lattice range and the floor
    and ceil lattice neighbours of every knot of the integrands the
    coordinate charges.  This is exact: no knot lies strictly between two
    consecutive candidates with a lattice point between them, so on that
    closed segment every scenario's cost is affine, or +inf inside it, and
    the lattice maximum sits at one of the two candidates.

    Candidates are scored in integers, with the values of an exact rational
    evaluation.  With B = P/R and delta = p/q, lattice point k is
    (-P*q + k*p*R) / (R*q), and every lattice index (the range ends, the
    knot neighbours, each integrand's domain cut and the ceil index of each
    breakpoint, which picks the affine piece of ``PLConvex.int_pieces`` that
    holds a candidate) is an integer floor or ceil division.  A coordinate's
    candidates are compared as integer numerators over one denominator, and
    one ``Fraction`` is built for the maximum.
    """
    _require_dual(inst, d)
    B, delta = rat(B), rat(delta)
    if B <= 0 or delta <= 0:
        raise ValueError("B and delta must be positive")
    budget = resolve_budget(budget)
    P, R, p, q = B.numerator, B.denominator, delta.numerator, delta.denominator

    def index(x: Q, up: bool) -> int:
        """The floor, or the ceil if ``up``, of the lattice index (x + B) / delta."""
        num, den = (x.numerator * R + P * x.denominator) * q, x.denominator * R * p
        return -(-num // den) if up else num // den

    r = inst.refine(FINE)
    needed = 0
    coords, pinned = [], []
    box = RInterval(-B, B)
    for i, cell, mass, feas, terms in _coordinates(r, True):
        if i < 0:  # the pinned start: no lattice, scored after the budget check
            pinned.append((mass, feas, terms))
            continue
        # lattice indices k of the points -B + k*delta in the constraint,
        # which lies in [-B, B], so 0 <= k <= 2B/delta
        constraint = box.intersect(feas)
        if constraint.is_empty:
            k_lo, k_hi = 0, -1
        else:
            k_lo, k_hi = index(constraint.lo, True), index(constraint.hi, False)
        needed += max(0, k_hi - k_lo + 1)
        coords.append((i, cell, mass, k_lo, k_hi, terms))
    if needed > budget:
        raise BudgetExceededError(needed, budget)

    total: Ext = Fraction(0)  # less the cost of the pinned start, paired with no atom
    for mass, feas, terms in pinned:
        cost = xsum([xmul(mass * atom, fn.eval(Fraction(0))) for atom, fn in terms])
        if feas.is_empty or cost == INF:
            return NEG_INF
        total -= cost

    # lattice point k is (start + k*step) / D
    D, start, step, top = R * q, -P * q, p * R, index(B, False)
    lattice: Dict[int, _OnLattice] = {}  # by id: refined slots share functions

    def on_lattice(fn) -> _OnLattice:
        e, alphas, slopes = fn.int_pieces()
        return _OnLattice(
            e * D,
            index(fn.dom_lo, True) if is_finite(fn.dom_lo) else 0,
            index(fn.dom_hi, False) if is_finite(fn.dom_hi) else top,
            {index(x, up) for x in fn.knots() for up in (False, True)},
            tuple(index(b, True) for b in fn.breakpoints),
            tuple((a * D + s * start, s * step) for a, s in zip(alphas, slopes)))

    # one scoring per coordinate, on the cell's first scenario, weighted by
    # the cell's mass: the data is constant on the cell (module docstring)
    for i, cell, mass, k_lo, k_hi, terms in coords:
        # the pairing coefficient of fine slot i, read from the coarse dual as
        # GridMeasure.refine places it: u_k where FINE divides i, ut_{k+1}
        # where FINE divides i + 1, 0 elsewhere
        k, inside = divmod(i, FINE)
        coeff = d.u.measures[cell[0]].atoms[k] if inside == 0 else Fraction(0)
        if inside == FINE - 1:
            coeff += d.ut.measures[cell[0]].atoms[k + 1]
        charged = []
        for atom, fn in terms:
            if id(fn) not in lattice:
                lattice[id(fn)] = on_lattice(fn)
            charged.append((atom, lattice[id(fn)]))
        lo = max([k_lo] + [fl.lo for _, fl in charged])  # the domain cuts
        hi = min([k_hi] + [fl.hi for _, fl in charged])
        ks = [k for k in {k_lo, k_hi}.union(*(fl.knots for _, fl in charged)) if lo <= k <= hi]
        if not ks:
            return NEG_INF
        # the value at lattice point k is (p0 + p1*k - sum m*(a + b*k)) / den
        den = math.lcm(coeff.denominator * D, *(atom.denominator * fl.den for atom, fl in charged))
        m0 = coeff.numerator * (den // (coeff.denominator * D))
        scaled = [(atom.numerator * (den // (atom.denominator * fl.den)), fl.cuts, fl.pieces)
                  for atom, fl in charged]
        best = _best_numerator(ks, m0 * start, m0 * step, scaled)
        total += Fraction(mass.numerator * best, mass.denominator * den)
    return total


class _OnLattice(NamedTuple):
    """An integrand on the lattice of ``conj_bruteforce``: at lattice point k
    in ``[lo, hi]``, its domain cut, it is (a + b*k) / den with (a, b) =
    ``pieces[bisect_right(cuts, k)]``; ``cuts`` holds the ceil lattice index
    of each breakpoint and ``knots`` the floor and ceil ones of each knot."""

    den: int
    lo: int
    hi: int
    knots: Set[int]
    cuts: Tuple[int, ...]
    pieces: Tuple[Tuple[int, int], ...]


def _best_numerator(ks, p0: int, p1: int, charges) -> int:
    """The largest p0 + p1*k - sum m*(a + b*k) over the lattice indices k in
    ``ks``, where (a, b) is the piece of each charge (m, cuts, pieces) that
    holds k: the one after every breakpoint whose ceil index is at most k."""
    best = None
    for k in ks:
        v = p0 + p1 * k
        for m, cuts, pieces in charges:
            a, b = pieces[bisect_right(cuts, k)]
            v -= m * (a + b * k)
        if best is None or v > best:
            best = v
    return best


def bruteforce_gap_bound(d: DualPair, delta) -> Q:
    """The explicit lattice gap bound delta * E[sum |u| + sum |ut|]."""
    return rat(delta) * d.u.tree.expectation({
        s: d.u.measures[s].total_variation() + d.ut.measures[s].total_variation()
        for s in d.u.tree.scenarios})


# ---------------------------------------------------------------------------
# Subdifferential characterization
# ---------------------------------------------------------------------------

def subdiff_check(inst: Instance, y: RandomPath, d: DualPair,
                  primal: Optional[Ext] = None) -> Dict:
    """Slot-wise subgradient inclusions versus the exact Fenchel identity.

    The four inclusions: the density of u lies in the subdifferential of h
    at the path value on {mu > 0}; the singular direction of u lies in the
    normal cone of the point constraint set; and the two analogues for the
    predictable side at the left limits.  Their conjunction is equivalent to
    primal value plus conjugate equalling the pairing, which is also checked.
    ``primal`` is ``eval_Fhat(inst, y)``, computed here unless passed in;
    the path is checked against the instance either way.
    """
    _require_adapted_path(y, inst.tree, inst.grid)
    _require_dual(inst, d)
    primal = eval_Fhat(inst, y) if primal is None else primal
    if primal == INF:
        raise ValueError("path has infinite primal value")
    # u against h and S at the path values, ut against htilde and Stilde at the left limits
    halves = (("u_density_in_subdiff_h", "u_singular_in_normal_cone",
               inst.h, inst.mu, d.u, inst.S, False),
              ("ut_density_in_subdiff_htilde", "ut_singular_in_normal_cone",
               inst.htilde, inst.mutilde, d.ut, inst.Stilde, True))
    per_scenario = {}
    for s in inst.tree.scenarios:
        path = y.paths[s]
        rows: List[Dict[str, bool]] = [{} for _ in path.values]
        for density_key, singular_key, fam, m, dm, rsm, at_left in halves:
            xs = path.left_values() if at_left else path.values
            fns, sets = fam.functions[s], rsm.maps[s].point_vals
            m_atoms, d_atoms = m.measures[s].atoms, dm.measures[s].atoms
            for i, row in enumerate(rows):
                if m_atoms[i] > 0:
                    row[density_key] = fns[i].subdiff(xs[i]).contains(d_atoms[i] / m_atoms[i])
                elif d_atoms[i] != 0:
                    sign = Fraction(1) if d_atoms[i] > 0 else Fraction(-1)
                    row[singular_key] = indicator(sets[i]).subdiff(xs[i]).contains(sign)
        per_scenario[s] = rows
    all_ok = all(all(row.values()) for rows in per_scenario.values() for row in rows)
    conj = conj_pointwise(inst, d)
    pair = expected_pairing(y, d.u, d.ut)
    gap = xsum([primal, conj, -pair]) if conj != INF else INF
    equality = gap == 0
    return {
        "inclusions": per_scenario,
        "all_inclusions": all_ok,
        "primal": primal,
        "conjugate": conj,
        "pairing": pair,
        "fenchel_gap": gap,
        "fenchel_equality": equality,
        "equivalence_ok": all_ok == equality,
    }


# ---------------------------------------------------------------------------
# Interchange rules
# ---------------------------------------------------------------------------

def interchange_det(inst: Instance, side: str = "cadlag") -> Dict:
    """Interchange of infimum and integration, deterministic case.

    ``side='cadlag'`` minimizes the h-cost over selections of S;
    ``side='caglad'`` minimizes the htilde-cost over left-continuous
    selections of Stilde (free start).  The right-hand side integrates the
    unconstrained slot infima.  Equality is asserted when the closure
    assumptions hold; otherwise the slot-wise gap is reported, and the
    statement is vacuous when the left side is +inf.
    """
    if len(inst.tree.scenarios) != 1:
        raise ValueError("deterministic interchange needs a single scenario")
    s, n = inst.tree.scenarios[0], inst.grid.n_slots
    if side == "cadlag":
        sm, fns, lag = inst.s_map(s), inst.h.functions[s], 0
        coords = _coordinates(inst, False)
        failing = michael_check(sm)["failing_slots"]
    elif side == "caglad":
        # a caglad path's slot i is its left limit at t_i, charged by htilde_i
        sm, fns, lag = inst.st_map(s), inst.htilde.functions[s], 1
        coords = [(i, (s,), inst.tree.mass((s,)),
                   sm.point_vals[i].intersect(sm.open_vals[i - 1]) if i else sm.point_vals[0],
                   _charged([(inst.mutilde.measures[s].atoms[i], fns[i])])) for i in range(n)]
        failing = escaping_slots(sm.point_vals, sm.open_vals, 1)
    else:
        raise ValueError("side must be 'cadlag' or 'caglad'")
    image_closure = not (_off_domain(sm.point_vals, fns)
                         + _off_domain(sm.open_vals, fns, lag))

    closure_holds = all(feas.intersect(fns[i].domain) == feas for i, _, _, feas, _ in coords)
    lhs, _, rhs = _coordinate_infima(inst, coords)
    vacuous = lhs == INF
    if vacuous:
        gap = None
    elif lhs == rhs:
        gap = Fraction(0)
    else:
        gap = xsum([lhs, xneg(rhs)])
    assumptions = {
        "michael": not failing,
        "michael_failing_slots": failing,
        "image_closure": image_closure,
        "domain_closure": closure_holds,
    }
    return {
        "side": side,
        "lhs": lhs,
        "rhs": rhs,
        "gap": gap,
        "vacuous": vacuous,
        "ok": vacuous or lhs == rhs,
        "assumptions": assumptions,
        "assumptions_ok": not failing and image_closure and closure_holds,
    }


def interchange_stoch(inst: Instance, form: str = "Fhat") -> Dict:
    """Interchange over adapted paths, with an explicit witness.

    The left side minimizes per (partition cell, slot) since the objective
    separates across the tree; for the hatted form this runs on
    ``_coordinates(inst, True, FINE)``.  When every slot infimum is
    attained, the minimizers form an adapted witness, whose primal value is
    asserted to equal the left side exactly.  For the hatted form it is a
    path on the refined tree and grid, ``inst.tree.refine(FINE)`` and
    ``inst.grid.refine(FINE)``, priced on the walk that gave the left side,
    so equal to ``eval_Fhat(inst.refine(FINE), witness)`` without building
    that instance.  It is the ``scenario.paste`` of the left-limit-optimal
    path into the cells announcing the predictable atoms, as the tests
    check: on the refined grid no coordinate has two charges.
    The right side charges each atom against its integrand's infimum over
    the line, the hatted form's mutilde_0 htilde_0 at the pinned start too.
    """
    if form not in ("F", "Fhat"):
        raise ValueError("form must be 'F' or 'Fhat'")
    assumptions = assumption_report(inst)
    hatted = form == "Fhat"
    coords = _coordinates(inst, hatted, FINE if hatted else 1)
    lhs, path, rhs = _coordinate_infima(inst, coords)
    out = {
        "form": form,
        "lhs": lhs,
        "rhs": rhs,
        "vacuous": lhs == INF,
        "ok": lhs == INF or lhs == rhs,
        "assumptions": assumptions["summary"],
        "assumptions_ok": assumptions["all_ok"],
        "witness": None,
    }
    if lhs == INF or any(v is None for vals in path.values() for v in vals):
        return out
    tree, grid = inst.tree, inst.grid
    if hatted:
        tree, grid = tree.refine(FINE), grid.refine(FINE)
    witness = RandomPath(tree, grid, {s: StepPath(grid, tuple(path[s]))
                                      for s in tree.scenarios})
    achieved = _price(witness, tree, grid, coords) if hatted else eval_F(inst, witness)
    assert achieved == lhs, "witness must achieve the infimum exactly"
    out["witness"] = witness
    out["witness_value"] = achieved
    return out
