"""Finite scenario trees and the discrete optional/predictable calculus.

A tree is a finite probability space together with one partition of the
scenarios per grid time, each refining the previous one.  Slot-i data of an
optional object is constant on the cells of ``partitions[i]``; predictable
data is constant on the cells of ``partitions[i-1]`` (``partitions[0]`` at
slot 0), while open-cell data of either kind is constant on ``partitions[i]``
because no information arrives strictly between grid times.

Projections are cell-wise probability-weighted averages, so everything
stays rational and Jensen/tower identities can be asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .plconvex import PLConvex, once
from .rationals import Ext, Q, rat, xmul, xsum
from .setmaps import SetMap
from .timegrid import (GridMeasure, StepPath, TimeGrid, eval_I, pairing,
                       refine_slots, refined_once)

Cell = Tuple[str, ...]
Partition = Tuple[Cell, ...]


@dataclass(frozen=True)
class ScenarioTree:
    """Finite filtered probability space given by nested partitions."""

    scenarios: Tuple[str, ...]
    probs: Tuple[Q, ...]
    partitions: Tuple[Partition, ...]

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "probs", tuple(rat(p) for p in self.probs))
        parts = tuple(
            tuple(sorted(tuple(sorted(cell)) for cell in partition))
            for partition in self.partitions
        )
        object.__setattr__(self, "partitions", parts)
        if len(self.scenarios) != len(set(self.scenarios)):
            raise ValueError("duplicate scenario ids")
        if len(self.probs) != len(self.scenarios):
            raise ValueError("need one probability per scenario")
        if any(p <= 0 for p in self.probs) or sum(self.probs) != 1:
            raise ValueError("probabilities must be positive and sum to 1")
        universe = sorted(self.scenarios)
        for partition in parts:
            flat = sorted(s for cell in partition for s in cell)
            if flat != universe:
                raise ValueError("each slot must partition the scenario set")
        for coarse, fine in zip(parts, parts[1:]):
            for cell in fine:
                if not any(set(cell) <= set(big) for big in coarse):
                    raise ValueError("partitions must refine over time")

    @property
    def n_slots(self) -> int:
        return len(self.partitions)

    def prob(self, scenario: str) -> Q:
        return self.probs[self.scenarios.index(scenario)]

    def cells(self, slot: int) -> Partition:
        return self.partitions[slot]

    def pred_slot(self, slot: int) -> int:
        """Slot whose partition carries predictable data for this slot."""
        return max(slot - 1, 0)

    def mass(self, cell: Cell) -> Q:
        """Probability of a set of scenarios, exact; summed once per cell."""
        return once(self, cell, lambda: sum((self.prob(s) for s in cell), Fraction(0)))

    def expectation(self, values: Mapping[str, Ext]) -> Ext:
        return xsum(xmul(self.prob(s), values[s]) for s in self.scenarios)

    def cell_average(self, slot: int, values: Mapping[str, Q]) -> Dict[str, Q]:
        """Conditional expectation given the slot's partition, exact."""
        out: Dict[str, Q] = {}
        for cell in self.partitions[slot]:
            avg = sum((self.prob(s) * values[s] for s in cell), Fraction(0)) / self.mass(cell)
            for s in cell:
                out[s] = avg
        return out

    def refine(self, factor: int) -> "ScenarioTree":
        """Inserted times copy the preceding partition; repeated calls return the same tree."""
        return refined_once(self, factor, lambda k: ScenarioTree(
            self.scenarios, self.probs, refine_slots(self.partitions, self.partitions, k)))

    @classmethod
    def deterministic(cls, n_slots: int) -> "ScenarioTree":
        return cls(("w",), (Fraction(1),), ((("w",),),) * n_slots)


# ---------------------------------------------------------------------------
# Random objects: one deterministic object per scenario on a shared grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomPath:
    tree: ScenarioTree
    grid: TimeGrid
    paths: Mapping[str, StepPath]

    def __post_init__(self):
        _validate_family(self.tree, self.grid, self.paths)

    def slot_values(self, i: int) -> Dict[str, Q]:
        return {s: self.paths[s].values[i] for s in self.tree.scenarios}

    def refine(self, factor: int) -> "RandomPath":
        return RandomPath(self.tree.refine(factor), self.grid.refine(factor),
                          {s: p.refine(factor) for s, p in self.paths.items()})


@dataclass(frozen=True)
class RandomMeasure:
    tree: ScenarioTree
    grid: TimeGrid
    measures: Mapping[str, GridMeasure]

    def __post_init__(self):
        _validate_family(self.tree, self.grid, self.measures)

    @property
    def is_nonnegative(self) -> bool:
        return all(m.is_nonnegative for m in self.measures.values())

    def refine(self, factor: int) -> "RandomMeasure":
        return RandomMeasure(self.tree.refine(factor), self.grid.refine(factor),
                             {s: m.refine(factor) for s, m in self.measures.items()})

    @classmethod
    def zero(cls, tree: ScenarioTree, grid: TimeGrid) -> "RandomMeasure":
        return cls(tree, grid, {s: GridMeasure.zero(grid) for s in tree.scenarios})


@dataclass(frozen=True)
class RandomSetMap:
    tree: ScenarioTree
    grid: TimeGrid
    maps: Mapping[str, SetMap]

    def __post_init__(self):
        _validate_family(self.tree, self.grid, self.maps)

    def vec_map(self) -> "RandomSetMap":
        return RandomSetMap(self.tree, self.grid,
                            {s: m.vec_map() for s, m in self.maps.items()})

    def refine(self, factor: int) -> "RandomSetMap":
        return RandomSetMap(self.tree.refine(factor), self.grid.refine(factor),
                            {s: m.refine(factor) for s, m in self.maps.items()})


@dataclass(frozen=True)
class RandomIntegrand:
    """Per-scenario families of convex functions, one per grid time."""

    tree: ScenarioTree
    grid: TimeGrid
    functions: Mapping[str, Tuple[PLConvex, ...]]
    flag: str = "raw"  # optional | predictable | raw

    def __post_init__(self):
        if self.flag not in ("optional", "predictable", "raw"):
            raise ValueError(f"unknown flag {self.flag!r}")
        for s in self.tree.scenarios:
            if s not in self.functions:
                raise ValueError(f"missing scenario {s!r}")
            if len(self.functions[s]) != self.grid.n_slots:
                raise ValueError("need one integrand per grid time")

    def refine(self, factor: int) -> "RandomIntegrand":
        """Optional data extends from the left grid time, predictable from the right."""
        skip = 1 if self.flag == "predictable" else 0
        out = {s: refine_slots(fns, fns[skip:], factor)
               for s, fns in self.functions.items()}
        return RandomIntegrand(self.tree.refine(factor), self.grid.refine(factor),
                               out, self.flag)


def _validate_family(tree: ScenarioTree, grid: TimeGrid, family: Mapping) -> None:
    if tree.n_slots != grid.n_slots:
        raise ValueError("tree must carry one partition per grid time")
    for s in tree.scenarios:
        if s not in family:
            raise ValueError(f"missing scenario {s!r}")
        if family[s].grid != grid:
            raise ValueError("grid mismatch")


# ---------------------------------------------------------------------------
# Adaptedness and projections
# ---------------------------------------------------------------------------

def unmeasurable_slot(tree: ScenarioTree, points: Mapping[str, Sequence],
                      cells: Optional[Mapping[str, Sequence]] = None,
                      predictable: bool = False) -> Optional[int]:
    """First slot breaking optional (or predictable) measurability, else None.

    ``points[s][i]`` is scenario s's data at t_i; it must be constant on the
    cells of partitions[i], or of partitions[i-1] when ``predictable``.
    ``cells[s][i]``, when given, is its data on the open cell (t_i, t_{i+1})
    and must be constant on partitions[i] either way.

    Each scenario's value is tested against the cell's first by identity
    before ``!=``: the loader shares one object among equal documents and
    ``refine`` copies references, so most pairs are one object.  The
    shortcut is exact because identity implies equality for every value
    here (``Fraction``, ``PLConvex``, ``RInterval``, ``bool``; no NaN is
    representable), and every pair that is not one object is still compared.
    """
    for i in range(tree.n_slots):
        checks = [(points, tree.pred_slot(i) if predictable else i)]
        if cells is not None and i < tree.n_slots - 1:
            checks.append((cells, i))
        for data, slot in checks:
            for cell in tree.cells(slot):
                first = data[cell[0]][i]
                for s in cell[1:]:
                    x = data[s][i]
                    if x is not first and x != first:
                        return i
    return None


def _layout(x) -> Tuple[Mapping[str, Sequence], Optional[Mapping[str, Sequence]]]:
    """Per-scenario point data and open-cell data (None: cells repeat points)."""
    if isinstance(x, RandomSetMap):
        return ({s: m.point_vals for s, m in x.maps.items()},
                {s: m.open_vals for s, m in x.maps.items()})
    if isinstance(x, RandomPath):
        return {s: p.values for s, p in x.paths.items()}, None
    if isinstance(x, RandomMeasure):
        return {s: m.atoms for s, m in x.measures.items()}, None
    if isinstance(x, RandomIntegrand):
        return x.functions, None
    raise TypeError(f"no slot data for {type(x).__name__}")


def check_adapted(x) -> bool:
    """Slot-i data constant on each cell of partitions[i] (optional data)."""
    return unmeasurable_slot(x.tree, *_layout(x)) is None


def check_predictable(x) -> bool:
    """Slot-i data constant on partitions[i-1]; open cells still on partitions[i]."""
    return unmeasurable_slot(x.tree, *_layout(x), predictable=True) is None


def optional_projection(w: RandomPath) -> RandomPath:
    """Slot-wise conditional expectation onto the current partition."""
    return _project(w, lambda i: i)


def predictable_projection(w: RandomPath) -> RandomPath:
    """Slot-wise conditional expectation onto the previous partition."""
    return _project(w, w.tree.pred_slot)


def _project(w: RandomPath, which_slot: Callable[[int], int]) -> RandomPath:
    tree = w.tree
    per_slot = [tree.cell_average(which_slot(i), w.slot_values(i))
                for i in range(tree.n_slots)]
    paths = {
        s: StepPath(w.grid, tuple(per_slot[i][s] for i in range(tree.n_slots)))
        for s in tree.scenarios
    }
    return RandomPath(tree, w.grid, paths)


def expected_pairing(y: RandomPath, u: RandomMeasure, ut: RandomMeasure) -> Q:
    tree = y.tree
    vals = {s: pairing(y.paths[s], u.measures[s], ut.measures[s])
            for s in tree.scenarios}
    return tree.expectation(vals)


def expected_integral(h: RandomIntegrand, w: RandomPath, mu: RandomMeasure) -> Ext:
    tree = w.tree
    vals = {s: eval_I(h.functions[s], w.paths[s], mu.measures[s])
            for s in tree.scenarios}
    return tree.expectation(vals)


# ---------------------------------------------------------------------------
# Jensen's inequality for the projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorantCertificate:
    """Optional (v, alpha) with h >= v*y - alpha slot-wise; always exists here."""

    v: Dict[str, Tuple[Q, ...]]
    alpha: Dict[str, Tuple[Q, ...]]


def minorant_certificate(h: RandomIntegrand) -> MinorantCertificate:
    """Pick v in dom h* slot-wise (a middle slope) and alpha = (h*(v))^+.

    Every proper piecewise-linear convex function admits such a pair, and the
    choice is a deterministic function of the slot integrand, so it inherits
    the integrand's measurability.  h*(v) at a slope v of segment j of h is
    ``fn.conjugate_at_slope(j)``: v*x - h(x) at a point x of that segment,
    where v is a subgradient and the sup defining h* is attained.  It is the
    exact value of ``fn.conjugate().eval(v)`` without building h*.
    """
    pairs: Dict[int, Tuple[Q, Q]] = {}  # by id: shared function objects are visited once
    for fns in h.functions.values():
        for fn in fns:
            if id(fn) not in pairs:
                j = len(fn.slopes) // 2
                pairs[id(fn)] = (fn.slopes[j], max(fn.conjugate_at_slope(j), Fraction(0)))
    return MinorantCertificate(
        {s: tuple(pairs[id(fn)][0] for fn in h.functions[s]) for s in h.tree.scenarios},
        {s: tuple(pairs[id(fn)][1] for fn in h.functions[s]) for s in h.tree.scenarios})


def jensen_check(h: RandomIntegrand, mu: RandomMeasure, w: RandomPath,
                 projection: str = "optional") -> Dict:
    """Compare E I_h(w) with E I_h of the projected process.

    Preconditions (verified, not assumed): the integrand and measure carry
    the optional (resp. predictable) flag and are measurable accordingly, the
    measure is nonnegative, and an integrable affine minorant of h exists;
    the certificate is produced constructively.
    """
    if projection not in ("optional", "predictable"):
        raise ValueError("projection must be 'optional' or 'predictable'")
    check = check_adapted if projection == "optional" else check_predictable
    problems = []
    if h.flag != projection or not check(h):
        problems.append(f"integrand is not {projection}")
    if not check(mu):
        problems.append(f"measure is not {projection}")
    if not mu.is_nonnegative:
        problems.append("measure is not nonnegative")
    if problems:
        raise ValueError("; ".join(problems))
    cert = minorant_certificate(h)
    proj = optional_projection(w) if projection == "optional" else predictable_projection(w)
    lhs = expected_integral(h, w, mu)
    rhs = expected_integral(h, proj, mu)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ok": lhs >= rhs,
        "projection": projection,
        "minorant": cert,
    }


# ---------------------------------------------------------------------------
# Predictable atoms and the pasting construction
# ---------------------------------------------------------------------------

def predictable_atoms(ut: RandomMeasure) -> Dict[str, Tuple[int, ...]]:
    """Atom slots {i : atom != 0} per scenario; the measure must be predictable."""
    if not check_predictable(ut):
        raise ValueError("measure is not predictable")
    return {
        s: tuple(i for i, a in enumerate(ut.measures[s].atoms) if a != 0)
        for s in ut.tree.scenarios
    }


def paste(y: RandomPath, ytilde: RandomPath,
          atoms: Mapping[str, Sequence[int]]) -> RandomPath:
    """Splice the second path into the cells preceding the given atom slots.

    The result z takes ytilde's value on slot i whenever i+1 is an atom slot
    (the one-cell window before the atom) and y's value otherwise, so its
    left limit at every atom time matches ytilde's.  Both inputs must be
    adapted and the atom sets predictable (the indicator of "i+1 is an atom"
    must be known at slot i); the output is then adapted again.
    """
    tree = y.tree
    if y.grid != ytilde.grid or y.tree != ytilde.tree:
        raise ValueError("paths must share tree and grid")
    if not check_adapted(y) or not check_adapted(ytilde):
        raise ValueError("paste needs adapted inputs")
    # slot i carries the indicator of "i+1 is an atom", known at slot i
    flags = {s: [(i + 1) in atoms.get(s, ()) for i in range(tree.n_slots)]
             for s in tree.scenarios}
    bad = unmeasurable_slot(tree, flags)
    if bad is not None:
        raise ValueError(f"atom indicator at slot {bad + 1} is not predictable")
    paths = {}
    for s in tree.scenarios:
        marked = set(atoms.get(s, ()))
        vals = tuple(
            ytilde.paths[s].values[i] if (i + 1) in marked else y.paths[s].values[i]
            for i in range(tree.n_slots)
        )
        paths[s] = StepPath(y.grid, vals)
    z = RandomPath(tree, y.grid, paths)
    assert check_adapted(z)
    return z
