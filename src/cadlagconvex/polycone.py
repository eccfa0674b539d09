"""Exact polyhedral cone calculus in small dimension.

Cones are kept in generator (V) and half-space (H) form, with conversion by
the double description sweep and feasibility questions answered by
Fourier-Motzkin elimination; everything is rational and exact.  Rays and
normals are canonicalized to coprime integer vectors, so representations are
reproducible.  Intended for dimension <= 4 at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

from .rationals import Q, rat
from .timegrid import TimeGrid, refine_cells, refine_slots

Vec = Tuple[Fraction, ...]


def vdot(a: Sequence[Q], b: Sequence[Q]) -> Q:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def canon_ray(v: Sequence) -> Optional[Vec]:
    """Scale a rational vector to coprime integers, preserving direction.

    Returns None for the zero vector.
    """
    ints = _int_ray(v)
    return None if ints is None else tuple(Fraction(x) for x in ints)


def _int_ray(v: Sequence) -> Optional[Tuple[int, ...]]:
    """:func:`canon_ray` as a tuple of ``int``."""
    vec = tuple(rat(x) for x in v)
    if all(x == 0 for x in vec):
        return None
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _ray_form(vectors: Iterable, dim: int, what: str) -> Tuple[Vec, ...]:
    """The canonical rays of the nonzero vectors, sorted, without repeats;
    sorted and deduplicated as ``int`` tuples, in C, made ``Fraction`` last."""
    rays = set()
    for v in vectors:
        r = _int_ray(v)
        if r is None:
            continue  # the zero vector is never listed
        if len(r) != dim:
            raise ValueError(f"{what} dimension mismatch")
        rays.add(r)
    return tuple(tuple(Fraction(x) for x in r) for r in sorted(rays))


# ---------------------------------------------------------------------------
# Linear algebra and Fourier-Motzkin over the rationals
# ---------------------------------------------------------------------------

def rank(vectors: Sequence[Sequence[Q]], dim: int) -> int:
    rows = [list(v) for v in vectors]
    r = 0
    for col in range(dim):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


Row = Tuple[Tuple[Fraction, ...], Fraction]  # coeffs . x <= rhs


def _canon_row(coeffs: Sequence[Q], rhs: Q) -> Row:
    ray = canon_ray(tuple(coeffs) + (rhs,))
    if ray is None:
        return tuple(Fraction(0) for _ in coeffs), Fraction(0)
    return ray[:-1], ray[-1]


def fm_feasible(rows: List[Row], nvars: int) -> bool:
    """Exact feasibility of a system of <= inequalities by elimination.

    Variables are eliminated in the order of cheapest pairing first, and a
    derived row is dropped when its ancestor set exceeds the number of
    eliminations plus one (such rows are implied by others, so feasibility
    is unaffected); both controls keep the row count from exploding.
    """
    table = {}
    for idx, (c, r) in enumerate(rows):
        key = _canon_row(c, r)
        if key not in table:
            table[key] = frozenset((idx,))
    remaining = list(range(nvars))
    eliminated = 0
    while remaining:
        counts = {}
        for k in remaining:
            pos = sum(1 for c, _ in table if c[k] > 0)
            neg = sum(1 for c, _ in table if c[k] < 0)
            counts[k] = pos * neg
        k = min(remaining, key=lambda v: counts[v])
        remaining.remove(k)
        eliminated += 1
        zero, pos, neg = {}, [], []
        for (c, r), hist in table.items():
            if c[k] == 0:
                zero[(c, r)] = hist
            elif c[k] > 0:
                pos.append((c, r, hist))
            else:
                neg.append((c, r, hist))
        table = zero
        for cp, rp, hp in pos:
            for cn, rn, hn in neg:
                hist = hp | hn
                if len(hist) > eliminated + 1:
                    continue
                lam, mu = -cn[k], cp[k]
                c2 = tuple(lam * a + mu * b for a, b in zip(cp, cn))
                key = _canon_row(c2, lam * rp + mu * rn)
                if all(x == 0 for x in key[0]) and key[1] < 0:
                    return False
                if key not in table or len(table[key]) > len(hist):
                    table[key] = hist
    return all(r >= 0 for _, r in table)


def _dd_rays(halfspaces: Sequence[Vec], dim: int) -> Tuple[Vec, ...]:
    """Generators of {x | a . x <= 0 for all a}: the double description sweep."""
    rays: List[Vec] = []
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        rays.append(tuple(e))
        e2 = list(e)
        e2[i] = Fraction(-1)
        rays.append(tuple(e2))
    processed: List[Vec] = []
    for a in halfspaces:
        inside, boundary, outside = [], [], []
        for r in rays:
            s = vdot(a, r)
            (inside if s < 0 else boundary if s == 0 else outside).append((r, s))
        new: List[Vec] = [r for r, _ in inside] + [r for r, _ in boundary]
        for p, sp in inside:
            for n, sn in outside:
                w = canon_ray(tuple(sn * pi - sp * ni for pi, ni in zip(p, n)))
                if w is not None:
                    new.append(w)
        processed.append(a)
        rays = _extreme_filter(sorted(set(new)), processed, dim)
    return tuple(_reduce_rays(rays, dim))


def _member_multipliers(x: Vec, gens: Sequence[Vec], dim: int) -> bool:
    """x in cone(gens), by Fourier-Motzkin on the multiplier system."""
    if all(v == 0 for v in x):
        return True
    if not gens:
        return False
    k = len(gens)
    rows: List[Row] = []
    for c in range(dim):
        coeffs = tuple(g[c] for g in gens)
        rows.append((coeffs, x[c]))
        rows.append((tuple(-a for a in coeffs), -x[c]))
    for j in range(k):
        coeffs = tuple(Fraction(-1) if i == j else Fraction(0) for i in range(k))
        rows.append((coeffs, Fraction(0)))
    return fm_feasible(rows, k)


_REDUCE_CAP = 40


def _extreme_filter(rays: List[Vec], halfspaces: Sequence[Vec], dim: int) -> List[Vec]:
    """Keep only rays on minimal faces; exact via ranks of active rows.

    With constraint rows of rank k, the faces of dimension (lineality + 1)
    are cut out by active sets of rank k - 1, and every cone element is a
    conic combination of rays on such faces (rays inside the lineality space
    have fully active rank k and are kept too).  Dropping rays interior to
    higher faces therefore preserves the generated cone, pointed or not.
    """
    k = rank(halfspaces, dim)
    if k <= 1:
        return rays
    kept = []
    for r in rays:
        active = [a for a in halfspaces if vdot(a, r) == 0]
        if rank(active, dim) >= k - 1:
            kept.append(r)
    return kept


def _reduce_rays(rays: List[Vec], dim: int) -> List[Vec]:
    """Drop generators lying in the cone of the others (when cheap enough).

    Redundancy removal is cosmetic: a redundant generating set still defines
    the same cone, so the multiplier search is skipped for large families
    where elimination would be expensive.
    """
    if len(rays) > _REDUCE_CAP:
        return rays
    kept = list(rays)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if others and _member_multipliers(kept[i], others, dim):
            kept.pop(i)
        else:
            i += 1
    return kept


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

class PolyCone:
    """Polyhedral cone with lazily synchronized V- and H-forms.

    At least one form is supplied at construction; the other is computed on
    first use and cached (idempotent, so concurrent reads are safe).
    Equality is set equality, decided by mutual membership.
    """

    def __init__(self, dim: int, generators: Optional[Iterable] = None,
                 halfspaces: Optional[Iterable] = None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self._generators: Optional[Tuple[Vec, ...]] = None
        self._halfspaces: Optional[Tuple[Vec, ...]] = None
        if generators is not None:
            self._generators = _ray_form(generators, dim, "generator")
        if halfspaces is not None:  # a zero normal is a trivial inequality
            self._halfspaces = _ray_form(halfspaces, dim, "half-space")
        if self._generators is None and self._halfspaces is None:
            raise ValueError("need generators or half-spaces")

    # -- forms ----------------------------------------------------------------

    @property
    def generators(self) -> Tuple[Vec, ...]:
        if self._generators is None:
            self._generators = _dd_rays(self._halfspaces, self.dim)
        return self._generators

    @property
    def halfspaces(self) -> Tuple[Vec, ...]:
        if self._halfspaces is None:
            self._halfspaces = _dd_rays(self._generators, self.dim)
        return self._halfspaces

    @classmethod
    def from_generators(cls, generators: Iterable, dim: int) -> "PolyCone":
        return cls(dim, generators=generators)

    @classmethod
    def zero(cls, dim: int) -> "PolyCone":
        return cls(dim, generators=())

    @classmethod
    def whole_space(cls, dim: int) -> "PolyCone":
        return cls(dim, halfspaces=())

    @classmethod
    def orthant(cls, dim: int) -> "PolyCone":
        eye = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
               for i in range(dim)]
        return cls(dim, generators=eye)

    # -- predicates -------------------------------------------------------------

    def member(self, x: Sequence) -> bool:
        """Exact membership; uses the H-form when present, else multipliers."""
        vec = tuple(rat(v) for v in x)
        if len(vec) != self.dim:
            raise ValueError("vector dimension mismatch")
        if self._halfspaces is not None:
            return all(vdot(a, vec) <= 0 for a in self._halfspaces)
        return _member_multipliers(vec, self._generators, self.dim)

    def member_v(self, x: Sequence) -> bool:
        """Membership decided from the generators.

        Uses Fourier-Motzkin on the multiplier system; elimination cost grows
        with the number of generators, so large families route through the
        (equally exact) half-space form instead.
        """
        vec = tuple(rat(v) for v in x)
        if len(self.generators) > _REDUCE_CAP:
            return self.member_h(vec)
        return _member_multipliers(vec, self.generators, self.dim)

    def member_h(self, x: Sequence) -> bool:
        vec = tuple(rat(v) for v in x)
        return all(vdot(a, vec) <= 0 for a in self.halfspaces)

    def polar(self) -> "PolyCone":
        """K* = {x | x . y <= 0 for all y in K}; both forms synchronized."""
        if not self.generators:
            return PolyCone.whole_space(self.dim)
        out = PolyCone(self.dim, halfspaces=self.generators)
        out._generators = self.halfspaces
        return out

    def pointed(self) -> bool:
        """K ∩ (-K) = {0}: the half-space normals span the whole space."""
        return rank(self.halfspaces, self.dim) == self.dim

    def pointed_direct(self) -> bool:
        """Same test from the V-form: no generator's negation stays inside."""
        gens = self.generators
        return all(not _member_multipliers(tuple(-x for x in g), gens, self.dim)
                   for g in gens)

    def solid(self) -> bool:
        """Nonempty interior: the generators span the whole space."""
        return rank(self.generators, self.dim) == self.dim

    def subcone_of(self, other: "PolyCone") -> bool:
        if self.dim != other.dim:
            raise ValueError("cone dimension mismatch")
        return all(other.member(g) for g in self.generators)

    def same_cone(self, other: "PolyCone") -> bool:
        return self.subcone_of(other) and other.subcone_of(self)

    def __eq__(self, other):
        if not isinstance(other, PolyCone):
            return NotImplemented
        return self.dim == other.dim and self.same_cone(other)

    __hash__ = None

    def __repr__(self):
        gens = self._generators if self._generators is not None else "?"
        return f"PolyCone(dim={self.dim}, generators={gens})"


def cone_hull(cones: Sequence[PolyCone]) -> PolyCone:
    """Closed conic hull of finitely many polyhedral cones.

    Finitely generated cones are closed, so the hull is just the cone of the
    pooled generators; redundant ones are removed.
    """
    if not cones:
        raise ValueError("hull of an empty family")
    dim = cones[0].dim
    if any(k.dim != dim for k in cones):
        raise ValueError("cone dimension mismatch")
    pooled = sorted({g for k in cones for g in k.generators})
    return PolyCone(dim, generators=_reduce_rays(pooled, dim))


# ---------------------------------------------------------------------------
# Cone-valued mappings on the grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeMap:
    """Cone-valued mapping with point values and open-cell values."""

    grid: TimeGrid
    point_cones: Tuple[PolyCone, ...]
    cell_cones: Tuple[PolyCone, ...]

    def __post_init__(self):
        if len(self.point_cones) != self.grid.n_slots:
            raise ValueError("need one cone per grid time")
        if len(self.cell_cones) != self.grid.n_cells:
            raise ValueError("need one cone per open cell")
        dims = {k.dim for k in self.point_cones} | {k.dim for k in self.cell_cones}
        if len(dims) != 1:
            raise ValueError("cone dimension mismatch")

    @property
    def dim(self) -> int:
        return self.point_cones[0].dim

    @classmethod
    def constant(cls, grid: TimeGrid, cone: PolyCone) -> "ConeMap":
        return cls(grid, (cone,) * grid.n_slots, (cone,) * grid.n_cells)

    def vec_map(self) -> "ConeMap":
        """Left-limit mapping: {0} at t_0, preceding cell cone afterwards."""
        points = (PolyCone.zero(self.dim),) + self.cell_cones
        return ConeMap(self.grid, points, self.cell_cones)

    def polar_map(self) -> "ConeMap":
        return ConeMap(self.grid,
                       tuple(k.polar() for k in self.point_cones),
                       tuple(k.polar() for k in self.cell_cones))

    def right_isc(self) -> bool:
        return all(self.point_cones[i].subcone_of(self.cell_cones[i])
                   for i in range(self.grid.n_cells))

    def refine(self, factor: int) -> "ConeMap":
        """New grid times take the surrounding cell's cone."""
        return ConeMap(self.grid.refine(factor),
                       refine_slots(self.point_cones, self.cell_cones, factor),
                       refine_cells(self.cell_cones, factor))


def cs_regularity_check(g_map: ConeMap, gt_map: ConeMap) -> dict:
    """Solvency-cone regularity report for a currency-market pair (G, G~).

    Grid semantics of the window hulls: the hull over [t_i, t_i+) is the
    conic hull of the point cone at t_i with the following cell cone, and the
    hull over [t_i-, t_i) is the preceding cell cone.  Checks per slot:
    efficient friction (pointedness), right regularity (window hull equals
    the point cone) and left regularity (preceding cell cone equals the
    predictable cone), plus the derived facts about the polar mappings.
    The left condition at t_0 is degenerate and reported as holding by
    convention.
    """
    if g_map.grid != gt_map.grid:
        raise ValueError("misaligned grids")
    n = g_map.grid.n_slots
    friction_g = [k.pointed() for k in g_map.point_cones]
    friction_g_cells = [k.pointed() for k in g_map.cell_cones]
    friction_gt = [k.pointed() for k in gt_map.point_cones]
    right_regular = [
        cone_hull([g_map.point_cones[i], g_map.cell_cones[i]]).same_cone(g_map.point_cones[i])
        for i in range(n - 1)
    ]
    left_regular = [True] + [
        g_map.cell_cones[i - 1].same_cone(gt_map.point_cones[i])
        for i in range(1, n)
    ]
    s_map = g_map.polar_map()
    s_right_isc = s_map.right_isc()
    s_solid = [k.solid() for k in s_map.point_cones]
    vec_agrees = [True] + [
        gt_map.point_cones[i].polar().same_cone(s_map.cell_cones[i - 1])
        for i in range(1, n)
    ]
    vec_solid = [k.polar().solid() for k in gt_map.point_cones]
    ok = (all(friction_g) and all(friction_g_cells) and all(friction_gt)
          and all(right_regular) and all(left_regular))
    return {
        "efficient_friction_G": friction_g,
        "efficient_friction_G_cells": friction_g_cells,
        "efficient_friction_Gtilde": friction_gt,
        "right_regular": right_regular,
        "left_regular": left_regular,
        "polar_right_isc": s_right_isc,
        "polar_solid": s_solid,
        "polar_vec_agrees_with_Gtilde_polar": vec_agrees,
        "Gtilde_polar_solid": vec_solid,
        "pass": ok and s_right_isc and all(s_solid) and all(vec_agrees) and all(vec_solid),
        "failing_slots": sorted(
            {i for i, v in enumerate(right_regular) if not v}
            | {i for i, v in enumerate(left_regular) if not v}
            | {i for i, v in enumerate(friction_g) if not v}
            | {i for i, v in enumerate(friction_gt) if not v}),
    }
