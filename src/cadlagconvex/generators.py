"""Seeded random builders for functions, maps, trees and whole instances.

Used by the verification CLI and the acceptance suite.  Generated breakpoints
and constraint endpoints live on a coarse lattice (denominators dividing 4),
so a brute-force search with step 1/100 hits every kink exactly and the
lattice gap bound is honest.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .duality import (DualPair, Instance, _coordinates, assumption_report,
                       make_instance)
from .plconvex import PLConvex, _canonical, _canonical_anchor, pl
from .rationals import INF, NEG_INF, is_finite, xle
from .scenario import (RandomIntegrand, RandomMeasure, RandomPath,
                       ScenarioTree)
from .timegrid import GridMeasure, StepPath, TimeGrid

COARSE_DENOMS = (1, 2, 4)


def _quarters(rng: random.Random, lo: int = -3, hi: int = 3) -> int:
    d = rng.choice(COARSE_DENOMS)
    return rng.randint(lo * d, hi * d) * (4 // d)


def rand_coarse(rng: random.Random, lo: int = -3, hi: int = 3) -> Fraction:
    return Fraction(_quarters(rng, lo, hi), 4)


def rand_rational(rng: random.Random, lo: int = -3, hi: int = 3) -> Fraction:
    d = rng.randint(1, 12)
    return Fraction(rng.randint(lo * d, hi * d), d)


def rand_plconvex(rng: random.Random, max_breaks: int = 3) -> PLConvex:
    """Random canonical function: any domain type, coarse kinks, rational slopes.

    Built canonical without :func:`pl`: kinks lie inside the domain and
    slopes increase, so only the anchor moves, to the first kink.  The draws
    are :func:`rand_coarse`'s and :func:`rand_rational`'s, held as integers
    until each field is made as one ``Fraction``."""
    kind = rng.choice(["line", "left", "right", "bounded", "bounded", "singleton"])
    if kind == "singleton":
        x = rand_coarse(rng)
        return _canonical(x, x, (), (Fraction(0),), x, rand_rational(rng))
    lo, hi = NEG_INF, INF  # kinks and finite ends in quarters
    if kind == "left":
        hi = _quarters(rng, 0, 3)
    elif kind == "right":
        lo = _quarters(rng, -3, 0)
    elif kind == "bounded":
        a, b = _quarters(rng), _quarters(rng)
        lo, hi = (min(a, b), max(a, b)) if a != b else (a, a + 4)
    inner = sorted({x for x in (_quarters(rng) for _ in range(rng.randint(0, max_breaks)))
                    if lo < x < hi})
    d = rng.randint(1, 12)
    slopes, n = [], rng.randint(-3 * d, 3 * d) * 12  # slopes over 12*d: steps a/b, b | 12
    for _ in range(len(inner) + 1):
        slopes.append(n)
        n += rng.randint(1, 8) * 12 // rng.randint(1, 4) * d  # a is drawn before b
    e = rng.randint(1, 12)
    m = rng.randint(-3 * e, 3 * e)  # m/e is the value at x
    x = lo if lo != NEG_INF else (hi if hi != INF else 0)
    walk = 0  # over 48*d: left over the kinks right of x, then right to the first kink
    for k in range(bisect_left(inner, x), 0, -1):
        walk, x = walk + slopes[k] * (inner[k - 1] - x), inner[k - 1]
    walk += slopes[0] * (inner[0] - x) if inner else 0
    dom_lo, dom_hi = (v if v in (NEG_INF, INF) else Fraction(v, 4) for v in (lo, hi))
    bps = tuple(Fraction(x, 4) for x in inner)
    return _canonical(dom_lo, dom_hi, bps, tuple(Fraction(s, 12 * d) for s in slopes),
                      _canonical_anchor(dom_lo, dom_hi, bps),
                      Fraction(m * 48 * d + walk * e, 48 * d * e))


def rand_grid(rng: random.Random, max_cells: int = 4) -> TimeGrid:
    n = rng.randint(1, max_cells)
    times = [Fraction(0)]
    for _ in range(n):
        times.append(times[-1] + Fraction(rng.randint(1, 4), rng.choice((1, 2))))
    return TimeGrid(tuple(times))


def rand_tree(rng: random.Random, n_slots: int, max_scenarios: int = 4) -> ScenarioTree:
    """Random nested partitions over up to ``max_scenarios`` scenarios."""
    n_scen = rng.randint(1, max_scenarios)
    ids = tuple(f"s{k}" for k in range(n_scen))
    weights = [rng.randint(1, 4) for _ in ids]
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    partition: Tuple[Tuple[str, ...], ...] = (ids,)
    partitions = []
    for _ in range(n_slots):
        partitions.append(partition)
        new: List[Tuple[str, ...]] = []
        for cell in partition:
            if len(cell) > 1 and rng.random() < 0.6:
                cut = rng.randint(1, len(cell) - 1)
                new.append(tuple(cell[:cut]))
                new.append(tuple(cell[cut:]))
            else:
                new.append(cell)
        partition = tuple(new)
    return ScenarioTree(ids, probs, tuple(partitions))


def _per_cell(rng: random.Random, tree: ScenarioTree, slot: int, draw) -> Dict[str, object]:
    """One draw per partition cell, broadcast to its scenarios."""
    out: Dict[str, object] = {}
    for cell in tree.cells(slot):
        value = draw()
        for s in cell:
            out[s] = value
    return out


def rand_passing_instance(rng: random.Random, max_scenarios: int = 4,
                          max_cells: int = 4,
                          with_htilde: bool = False) -> Instance:
    """Instance satisfying every assumption of the conjugate theorem.

    The integrand is drawn per (slot, partition cell), the constraint maps
    default to its domain system, and an optional nontrivial predictable
    integrand is derived from the preceding slot's domain.
    """
    grid = rand_grid(rng, max_cells)
    tree = rand_tree(rng, grid.n_slots, max_scenarios)
    fns: Dict[str, List[PLConvex]] = {s: [] for s in tree.scenarios}
    for i in range(grid.n_slots):
        drawn = _per_cell(rng, tree, i, lambda: rand_plconvex(rng, max_breaks=2))
        for s in tree.scenarios:
            fns[s].append(drawn[s])
    h = RandomIntegrand(tree, grid, {s: tuple(v) for s, v in fns.items()}, "optional")
    mu_vals: Dict[str, List[Fraction]] = {s: [] for s in tree.scenarios}
    mut_vals: Dict[str, List[Fraction]] = {s: [] for s in tree.scenarios}
    for i in range(grid.n_slots):
        drawn = _per_cell(rng, tree, i,
                          lambda: Fraction(rng.randint(0, 3), rng.choice((1, 2))))
        for s in tree.scenarios:
            mu_vals[s].append(drawn[s])
        pred = tree.pred_slot(i)
        drawn_t = _per_cell(rng, tree, pred,
                            lambda: Fraction(rng.randint(0, 2)))
        for s in tree.scenarios:
            mut_vals[s].append(drawn_t[s] if i >= 1 else Fraction(0))
    mu = RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                    for s, v in mu_vals.items()})
    mutilde = RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                         for s, v in mut_vals.items()})
    htilde = None
    if with_htilde:
        ht: Dict[str, List[PLConvex]] = {s: [] for s in tree.scenarios}
        for i in range(grid.n_slots):
            if i == 0:
                zero = Fraction(0)
                start = pl(zero, zero, (), (0,), zero, rand_coarse(rng, 0, 2))
                for s in tree.scenarios:
                    ht[s].append(start)
                continue
            pred = tree.pred_slot(i)
            for cell in tree.cells(pred):
                dom = fns[cell[0]][i - 1].domain
                slope0 = rand_rational(rng, -2, 2)
                slopes = [slope0]
                inner = sorted({x for x in (rand_coarse(rng) for _ in range(rng.randint(0, 2)))
                                if not (xle(x, dom.lo) or xle(dom.hi, x))})
                for _ in inner:
                    slopes.append(slopes[-1] + Fraction(rng.randint(1, 4), 2))
                anchor = dom.lo if is_finite(dom.lo) else (
                    dom.hi if is_finite(dom.hi) else Fraction(0))
                fn = pl(dom.lo, dom.hi, inner, slopes, anchor, rand_rational(rng))
                for s in cell:
                    ht[s].append(fn)
        htilde = RandomIntegrand(tree, grid, {s: tuple(v) for s, v in ht.items()},
                                 "predictable")
    inst = make_instance(tree, grid, h, mu, mutilde, htilde)
    assert assumption_report(inst)["all_ok"]
    return inst


def rand_finite_dual(rng: random.Random, inst: Instance) -> DualPair:
    """Dual pair with finite pointwise conjugate.

    Densities are drawn inside the slope range of the slot integrand on
    {mu > 0}; singular atoms appear only in directions with finite support
    function of the domain.
    """
    tree, grid = inst.tree, inst.grid
    u_vals: Dict[str, List[Fraction]] = {s: [] for s in tree.scenarios}
    ut_vals: Dict[str, List[Fraction]] = {s: [] for s in tree.scenarios}
    for i in range(grid.n_slots):
        for cell in tree.cells(i):
            rep = cell[0]
            fn = inst.h.functions[rep][i]
            m = inst.mu.measures[rep].atoms[i]
            atom = _finite_dual_atom(rng, fn, m)
            for s in cell:
                u_vals[s].append(atom)
        pred = tree.pred_slot(i)
        for cell in tree.cells(pred):
            rep = cell[0]
            if i == 0:
                atom = Fraction(rng.randint(-1, 1))  # pairs against the pinched start
            else:
                fn = inst.htilde.functions[rep][i]
                m = inst.mutilde.measures[rep].atoms[i]
                atom = _finite_dual_atom(rng, fn, m)
            for s in cell:
                ut_vals[s].append(atom)
    u = RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                   for s, v in u_vals.items()})
    ut = RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                    for s, v in ut_vals.items()})
    return DualPair(u, ut)


def _finite_dual_atom(rng: random.Random, fn: PLConvex, mass: Fraction) -> Fraction:
    if mass > 0:
        lo, hi = fn.slopes[0], fn.slopes[-1]
        t = Fraction(rng.randint(0, 4), 4)
        density = lo + t * (hi - lo)
        return mass * density
    candidates = [Fraction(0)]
    if is_finite(fn.dom_hi):
        candidates.append(Fraction(rng.randint(1, 2)))
    if is_finite(fn.dom_lo):
        candidates.append(Fraction(-rng.randint(1, 2)))
    return rng.choice(candidates)


def rand_feasible_path(rng: random.Random, inst: Instance) -> RandomPath:
    """Adapted path with finite hatted value, drawn per partition cell in the
    set of its ``_coordinates(inst, True)`` cut by the domains of the
    integrands charged there: the instance's own grid, not the fine walk
    ``_coordinates(inst, True, FINE)``.  ValueError if a cut set, the pinned
    start's (slot -1, never drawn) included, is empty."""
    tree, grid = inst.tree, inst.grid
    vals: Dict[str, List[Optional[Fraction]]] = {s: [None] * grid.n_slots
                                                 for s in tree.scenarios}
    for i, cell, _, feas, terms in _coordinates(inst, True):
        for _, fn in terms:
            feas = feas.intersect(fn.domain)
        if feas.is_empty:
            raise ValueError("instance has no feasible fixed-grid path")
        if i < 0:
            continue
        pick = feas.nearest_to(rand_coarse(rng, -2, 2))
        for s in cell:
            vals[s][i] = pick
    return RandomPath(tree, grid, {s: StepPath(grid, tuple(vals[s]))
                                   for s in tree.scenarios})
