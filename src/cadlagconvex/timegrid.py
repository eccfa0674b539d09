"""Step paths and atomic measures on a rational time grid of [0, T].

A step path is right continuous with left limits: it holds value ``v_i`` on
``[t_i, t_{i+1})`` and ``v_N`` at T, with the convention that the left limit
at 0 is 0.  Measures are purely atomic with one signed weight per grid time.
All sums are exact; a +inf integrand value makes the whole integral +inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Callable, Optional, Sequence, Tuple

from .plconvex import PLConvex, once
from .rationals import Ext, Q, rat, xmul, xsum


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing rational times t_0 = 0 < t_1 < ... < t_N = T."""

    times: Tuple[Q, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(rat(t) for t in self.times))
        if len(self.times) < 2:
            raise ValueError("grid needs at least two times")
        if self.times[0] != 0:
            raise ValueError("grid must start at 0")
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("grid times must be strictly increasing")

    @property
    def n_cells(self) -> int:
        return len(self.times) - 1

    @property
    def n_slots(self) -> int:
        return len(self.times)

    def refine(self, factor: int) -> "TimeGrid":
        """Insert factor-1 equispaced times per cell; repeated calls return the same grid."""
        return refined_once(self, factor, self._refine)

    def _refine(self, factor: int) -> "TimeGrid":
        out = []
        for a, b in zip(self.times, self.times[1:]):
            step = (b - a) / factor
            out.extend(a + j * step for j in range(factor))
        out.append(self.times[-1])
        return TimeGrid(tuple(out))


def refined_once(obj, factor: int, build: Callable[[int], object]):
    """``build(factor)`` through :func:`plconvex.once`, keyed by the factor.

    A factor below 2 raises before the lookup and is never stored.
    """
    if factor < 2:
        raise ValueError("refinement factor must be >= 2")
    return once(obj, index(factor), lambda: build(factor))


def refine_slots(points: Sequence, fillers: Sequence, factor: int) -> tuple:
    """Slot data on the factor-refined grid.

    Slot i keeps ``points[i]`` and moves to fine slot i * factor; the
    factor - 1 slots inserted after it, inside cell i, take ``fillers[i]``.
    """
    out = []
    for p, f in zip(points[:-1], fillers):
        out.append(p)
        out.extend([f] * (factor - 1))
    out.append(points[-1])
    return tuple(out)


def refine_cells(cells: Sequence, factor: int) -> tuple:
    """Open-cell data on the factor-refined grid: each cell splits in factor."""
    return tuple(c for c in cells for _ in range(factor))


def _check_grid(grid: TimeGrid, *objs) -> None:
    for o in objs:
        if o.grid != grid:
            raise ValueError("grid mismatch")


@dataclass(frozen=True)
class StepPath:
    """Cadlag step path: value v_i on [t_i, t_{i+1}), v_N at T."""

    grid: TimeGrid
    values: Tuple[Q, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(rat(v) for v in self.values))
        if len(self.values) != self.grid.n_slots:
            raise ValueError("need one value per grid time")

    def left_values(self) -> Tuple[Q, ...]:
        """Left limits at the grid times; the limit at 0 is 0 by convention."""
        return (Fraction(0),) + self.values[:-1]

    def refine(self, factor: int) -> "StepPath":
        return StepPath(self.grid.refine(factor),
                        refine_slots(self.values, self.values, factor))


@dataclass(frozen=True)
class GridMeasure:
    """Signed purely atomic measure with one weight per grid time."""

    grid: TimeGrid
    atoms: Tuple[Q, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(rat(a) for a in self.atoms))
        if len(self.atoms) != self.grid.n_slots:
            raise ValueError("need one atom per grid time")

    @property
    def is_nonnegative(self) -> bool:
        # the sign of a Fraction is its numerator's: an int compare, no ABC check
        return all(a.numerator >= 0 for a in self.atoms)

    def total_variation(self) -> Q:
        return sum((abs(a) for a in self.atoms), Fraction(0))

    def refine(self, factor: int) -> "GridMeasure":
        """Atoms stay at the original times; new slots carry weight 0."""
        zeros = (Fraction(0),) * self.grid.n_cells
        return GridMeasure(self.grid.refine(factor),
                           refine_slots(self.atoms, zeros, factor))

    @classmethod
    def zero(cls, grid: TimeGrid) -> "GridMeasure":
        return cls(grid, (Fraction(0),) * grid.n_slots)


def pairing(y: StepPath, u: GridMeasure, ut: GridMeasure) -> Q:
    """<y, (u, ut)> = integral of y du plus integral of y_- d(ut), exact."""
    _check_grid(y.grid, u, ut)
    left = y.left_values()
    return sum((v * a for v, a in zip(y.values, u.atoms)), Fraction(0)) + \
        sum((w * a for w, a in zip(left, ut.atoms)), Fraction(0))


@dataclass(frozen=True)
class LebesgueSplit:
    """Slot-wise Lebesgue decomposition of theta against a nonnegative mu.

    ``density[i]`` is theta_i / mu_i where mu_i > 0 (None elsewhere);
    ``singular[i]`` is theta_i where mu_i = 0 (None elsewhere).  Recombining
    against the reference measure reproduces theta exactly.
    """

    grid: TimeGrid
    density: Tuple[Optional[Q], ...]
    singular: Tuple[Optional[Q], ...]

    def recombine(self, mu: GridMeasure) -> GridMeasure:
        _check_grid(self.grid, mu)
        atoms = []
        for d, s, m in zip(self.density, self.singular, mu.atoms):
            atoms.append(d * m if d is not None else s)
        return GridMeasure(self.grid, tuple(atoms))


def lebesgue_decompose(theta: GridMeasure, mu: GridMeasure) -> LebesgueSplit:
    """Split theta into a mu-density part and atoms on {mu = 0}."""
    _check_grid(theta.grid, mu)
    if not mu.is_nonnegative:
        raise ValueError("reference measure must be nonnegative")
    density, singular = [], []
    for t, m in zip(theta.atoms, mu.atoms):
        if m > 0:
            density.append(t / m)
            singular.append(None)
        else:
            density.append(None)
            singular.append(t)
    return LebesgueSplit(theta.grid, tuple(density), tuple(singular))


def eval_I(h: Sequence[PLConvex], y: StepPath, mu: GridMeasure) -> Ext:
    """Integral of h_t(y_t) against mu; +inf as soon as one term is +inf."""
    _check_grid(y.grid, mu)
    if not mu.is_nonnegative:
        raise ValueError("mu must be nonnegative")
    if len(h) != y.grid.n_slots:
        raise ValueError("need one integrand per grid time")
    terms = []
    for fn, v, m in zip(h, y.values, mu.atoms):
        if m == 0:
            continue
        terms.append(xmul(m, fn.eval(v)))
    return xsum(terms)


def eval_J(g: Sequence[PLConvex], theta: GridMeasure, mu: GridMeasure) -> Ext:
    """J-functional of the family g at theta, relative to mu.

    Absolutely continuous slots contribute mu_i * g_i(theta_i / mu_i); slots
    where mu vanishes contribute |theta_i| times the recession function of
    g_i in the direction of theta_i.
    """
    _check_grid(theta.grid, mu)
    if not mu.is_nonnegative:
        raise ValueError("mu must be nonnegative")
    if len(g) != theta.grid.n_slots:
        raise ValueError("need one integrand per grid time")
    terms = []
    for fn, t, m in zip(g, theta.atoms, mu.atoms):
        if m > 0:
            terms.append(xmul(m, fn.eval(t / m)))
        elif t != 0:
            direction = Fraction(1) if t > 0 else Fraction(-1)
            terms.append(xmul(abs(t), fn.recession().eval(direction)))
    return xsum(terms)
