"""Exact polyhedral cone calculus in small dimension.

Cones are kept in generator (V) and half-space (H) form.  The double
description sweep converts one form into the other, in integer arithmetic on
coprime rays and normals.  It splits off the lineality space of its rows
once and sweeps the pointed rest, so the generating set it returns is
irredundant and no generator is tested for redundancy afterwards;
membership is read off the half-space normals.  Everything is exact and the
representations are reproducible.  Intended for dimension <= 4
(:data:`MAX_DIM`, the bound on cone files) at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .rationals import Q, rat
from .setmaps import escaping_slots
from .timegrid import TimeGrid, refine_cells, refine_slots

Vec = Tuple[Fraction, ...]
IntVec = Tuple[int, ...]

MAX_DIM = 4  # the largest dimension a cone file may declare


def vdot(a: Sequence[Q], b: Sequence[Q]) -> Q:
    return sum(map(mul, a, b))


def _coprime(v: Sequence[int]) -> Optional[IntVec]:
    """The integer vector divided by the gcd of its entries; None if zero."""
    g = gcd(*v)
    return None if g == 0 else tuple(x // g for x in v)


def _int_ray(v: Sequence) -> Optional[IntVec]:
    """The rational vector scaled to coprime integers, preserving direction;
    None for the zero vector."""
    vec = tuple(rat(x) for x in v)
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    return _coprime([x.numerator * (denom // x.denominator) for x in vec])


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
# The double description sweep, on coprime integer rays and normals
# ---------------------------------------------------------------------------

def _null_space(rows: Sequence[IntVec], dim: int) -> List[IntVec]:
    """A basis of {x | r . x = 0 for every row r}, by fraction-free
    Gauss-Jordan elimination."""
    rows = list(rows)
    pivots: List[int] = []
    for col in range(dim):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and c:
                rows[i] = _coprime([p[col] * a - c * b for a, b in zip(rows[i], p)]) \
                    or (0,) * dim
        pivots.append(col)
    basis = []
    for free in range(dim):
        if free not in pivots:
            v = [0] * dim
            v[free] = prod(rows[i][col] for i, col in enumerate(pivots))
            for i, col in enumerate(pivots):
                v[col] = -rows[i][free] * v[free] // rows[i][col]
            basis.append(_coprime(v))
    return basis


def rank(rows: Sequence[IntVec], dim: int) -> int:
    return dim - len(_null_space(rows, dim))


def _dd_sweep(rows: Sequence[IntVec], dim: int) -> List[IntVec]:
    """Irredundant generators of {x | a . x <= 0 for every row a}: the double
    description sweep.

    The cone is its lineality space L, the null space of the rows, plus a
    pointed cone in the orthogonal complement of L (Rockafellar, *Convex
    Analysis*, section 18).  With b and -b appended as rows for each vector
    b of a basis of L the rows span the space, so the sweep starts from the
    simplicial cone of the first spanning rows and holds only extreme rays of
    the pointed part, which do not depend on the order of the rows.  They
    come sorted, then b, -b for each basis vector.  Projecting onto the
    complement of L shows that none is a conic combination of the others.
    """
    lines = [w for b in _null_space(rows, dim) for w in (b, tuple(-x for x in b))]
    rows = list(rows) + lines
    basis: List[IntVec] = []
    for a in rows:
        if len(basis) < dim and rank(basis + [a], dim) > len(basis):
            basis.append(a)
    rays = []  # ray j spans the null space of the other basis rows
    for j, b in enumerate(basis):
        (v,) = _null_space(basis[:j] + basis[j + 1:], dim)
        rays.append(v if vdot(b, v) < 0 else tuple(-x for x in v))
    processed = list(basis)
    for a in rows:
        inside, boundary, outside = [], [], []
        for r in rays:
            s = vdot(a, r)
            (inside if s < 0 else boundary if s == 0 else outside).append((r, s))
        new: List[IntVec] = [r for r, _ in inside] + [r for r, _ in boundary]
        for p, sp in inside:
            for n, sn in outside:
                w = _coprime([sn * pi - sp * ni for pi, ni in zip(p, n)])
                if w is not None:
                    new.append(w)
        processed.append(a)
        rays = _extreme_filter(sorted(set(new)), processed, dim)
    return rays + lines


def _dd_rays(rows: Sequence[Vec], dim: int) -> Tuple[Vec, ...]:
    """:func:`_dd_sweep` of the rational rows, as rays of ``Fraction``."""
    return tuple(tuple(map(Fraction, r)) for r in _dd_sweep([_int_ray(a) for a in rows], dim))


def _extreme_filter(rays: List[IntVec], rows: Sequence[IntVec],
                    dim: int) -> List[IntVec]:
    """Keep the extreme rays of the cone cut out by ``rows``, which span the
    space: those whose active rows have rank dim - 1.  The cone is pointed,
    so its extreme rays generate it."""
    return [r for r in rays
            if rank([a for a in rows if vdot(a, r) == 0], dim) >= dim - 1]


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
        if generators is not None:
            self.generators = _ray_form(generators, dim, "generator")
        if halfspaces is not None:  # a zero normal is a trivial inequality
            self.halfspaces = _ray_form(halfspaces, dim, "half-space")
        if generators is None and halfspaces is None:
            raise ValueError("need generators or half-spaces")

    # -- forms ----------------------------------------------------------------

    @cached_property
    def generators(self) -> Tuple[Vec, ...]:
        return _dd_rays(self.halfspaces, self.dim)

    @cached_property
    def halfspaces(self) -> Tuple[Vec, ...]:
        return _dd_rays(self.generators, self.dim)

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
        """Exact membership: no half-space normal is positive on ``x``.

        The half-spaces are swept from the generators on first use and cached.
        """
        vec = tuple(rat(v) for v in x)
        if len(vec) != self.dim:
            raise ValueError("vector dimension mismatch")
        return all(vdot(a, vec) <= 0 for a in self.halfspaces)

    def polar(self) -> "PolyCone":
        """K* = {x | x . y <= 0 for all y in K}; both forms synchronized."""
        if not self.generators:
            return PolyCone.whole_space(self.dim)
        out = PolyCone(self.dim, halfspaces=self.generators)
        out.generators = self.halfspaces
        return out

    def pointed(self) -> bool:
        """K ∩ (-K) = {0}: the half-space normals span the whole space."""
        return rank([_int_ray(a) for a in self.halfspaces], self.dim) == self.dim

    def solid(self) -> bool:
        """Nonempty interior: the generators span the whole space."""
        return rank([_int_ray(g) for g in self.generators], self.dim) == self.dim

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
        return f"PolyCone(dim={self.dim}, generators={vars(self).get('generators', '?')})"


def cone_hull(cones: Sequence[PolyCone]) -> PolyCone:
    """Closed conic hull of finitely many polyhedral cones.

    Finitely generated cones are closed, so the hull is just the cone of the
    pooled generators.  Its half-spaces are swept from them at once and its
    generators, irredundant, back from the half-spaces on first use.
    """
    if not cones:
        raise ValueError("hull of an empty family")
    dim = cones[0].dim
    if any(k.dim != dim for k in cones):
        raise ValueError("cone dimension mismatch")
    pooled = [g for k in cones for g in k.generators]
    return PolyCone(dim, halfspaces=_dd_rays(pooled, dim))


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

    def polar_map(self) -> "ConeMap":
        return ConeMap(self.grid,
                       tuple(k.polar() for k in self.point_cones),
                       tuple(k.polar() for k in self.cell_cones))

    def right_isc(self) -> bool:
        return not escaping_slots(self.point_cones, self.cell_cones, 0, PolyCone.subcone_of)

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
