"""Interval-valued mappings on the grid with point and open-cell values.

A ``SetMap`` assigns a nonempty closed interval ``point_vals[i]`` to each grid
time t_i and a nonempty closed interval ``open_vals[i]`` to each open cell
(t_i, t_{i+1}); the value at T is the last point value.  This class of
mappings is closed under every construction used here, and turns the
semicontinuity and representation statements for right-continuous selections
into finite, exactly decidable slot conditions:

* right inner semicontinuity  <=>  point value inside the following cell value;
* attainable values at t_i of right-continuous selections = point ∩ cell;
* the left-limit mapping has point value at t_i equal to the preceding cell
  value, with {0} at t_0 by the left-limit-at-zero convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .plconvex import EMPTY_INTERVAL, RInterval
from .rationals import Q, rat
from .timegrid import StepPath, TimeGrid, refine_cells, refine_slots


@dataclass(frozen=True)
class SetMap:
    """Interval-valued mapping, constant on open grid cells."""

    grid: TimeGrid
    point_vals: Tuple[RInterval, ...]
    open_vals: Tuple[RInterval, ...]

    def __post_init__(self):
        if len(self.point_vals) != self.grid.n_slots:
            raise ValueError("need one point value per grid time")
        if len(self.open_vals) != self.grid.n_cells:
            raise ValueError("need one interval value per open cell")
        if any(p.is_empty for p in self.point_vals) or any(c.is_empty for c in self.open_vals):
            raise ValueError("mapping must be nonempty-valued")

    @classmethod
    def constant(cls, grid: TimeGrid, value: RInterval) -> "SetMap":
        return cls(grid, (value,) * grid.n_slots, (value,) * grid.n_cells)

    def attainable_at(self, i: int) -> RInterval:
        """Closed set of values right-continuous selections can take at t_i.

        Right continuity forces the value at t_i into the closure of the
        following cell's values, so this is point ∩ cell for i < N and the
        terminal point value at N.  May be empty.
        """
        if i == self.grid.n_cells:
            return self.point_vals[i]
        return self.point_vals[i].intersect(self.open_vals[i])

    def vec_map(self) -> "SetMap":
        """Left-limit mapping: liminf along s increasing strictly to t.

        Point value at t_i is the preceding cell value (i >= 1) and {0} at
        t_0; open-cell values are inherited, so the result is again constant
        on cells.
        """
        zero = RInterval.singleton(Fraction(0))
        points = (zero,) + self.open_vals
        return SetMap(self.grid, points, self.open_vals)

    def has_selection(self) -> bool:
        return all(not self.attainable_at(i).is_empty for i in range(self.grid.n_slots))

    def is_selection(self, y: StepPath) -> bool:
        """Membership of a step path, which holds its value at t_i on the
        following cell: each value lies in :meth:`attainable_at`."""
        if y.grid != self.grid:
            raise ValueError("grid mismatch")
        return all(self.attainable_at(i).contains(v) for i, v in enumerate(y.values))

    def refine(self, factor: int) -> "SetMap":
        """New grid times take the surrounding cell's value."""
        return SetMap(self.grid.refine(factor),
                      refine_slots(self.point_vals, self.open_vals, factor),
                      refine_cells(self.open_vals, factor))


def escaping_slots(points: Sequence, cells: Sequence, lag: int,
                   inside: Callable[[object, object], bool] = RInterval.issubset) -> List[int]:
    """Slots i, in increasing order, whose point value is not inside the
    following cell value cells[i] (``lag`` 0, i < N; right inner
    semicontinuity) or the preceding one cells[i - 1] (``lag`` 1, i >= 1).
    The points and the cells may come from two mappings.  ``inside`` is the
    inclusion: of intervals, of cones (``PolyCone.subcone_of``), or ``>=``
    (``<=``) for the bid (ask) of a band, the band's own right regularity."""
    return [i + lag for i, cell in enumerate(cells) if not inside(points[i + lag], cell)]


def right_isc_check(sm: SetMap) -> bool:
    """Inverse images of open sets are open for right-open intervals.

    On cell-constant mappings this reduces to point value inside the
    following cell value at every non-terminal grid time.
    """
    return not escaping_slots(sm.point_vals, sm.open_vals, 0)


def michael_check(sm: SetMap) -> Dict:
    """Compare each point value with the attainable values of selections.

    Reports whether the representation "point value = closure of selection
    values" holds at every slot, and that this verdict coincides with right
    inner semicontinuity.  When no selection exists the representation fails
    everywhere.
    """
    n = sm.grid.n_slots
    nonempty = sm.has_selection()
    slot_ok = []
    for i in range(n):
        att = sm.attainable_at(i) if nonempty else EMPTY_INTERVAL
        slot_ok.append(att == sm.point_vals[i])
    holds = all(slot_ok)
    right_isc = right_isc_check(sm)
    return {
        "slot_ok": slot_ok,
        "representation_holds": holds,
        "right_isc": right_isc,
        "matches_right_isc": holds == right_isc,
        "failing_slots": [i for i, ok in enumerate(slot_ok) if not ok],
    }


class SelectionPreconditionError(ValueError):
    """Raised when a mapping is not regular enough for the projection path."""

    def __init__(self, slot: int):
        super().__init__(f"point value escapes the following cell value at slot {slot}")
        self.slot = slot


def projection_selection(sm: SetMap, x: Q) -> StepPath:
    """Step path of nearest points to x, slot-wise.

    Requires point values inside the following cell values, so the per-slot
    projections assemble into a right-continuous selection.  The left limit
    of the result at t_i is the nearest point of the left-limit mapping
    whenever the preceding attainable set fills the preceding cell.
    """
    x = rat(x)
    escaping = escaping_slots(sm.point_vals, sm.open_vals, 0)
    if escaping:
        raise SelectionPreconditionError(escaping[0])
    values = tuple(sm.attainable_at(i).nearest_to(x) for i in range(sm.grid.n_slots))
    path = StepPath(sm.grid, values)
    vec = sm.vec_map()
    left = path.left_values()
    for i in range(1, sm.grid.n_slots):
        if sm.attainable_at(i - 1) == sm.open_vals[i - 1]:
            assert left[i] == vec.point_vals[i].nearest_to(x), \
                "left limit of the projection path must project onto the left-limit map"
    return path
