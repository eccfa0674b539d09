"""Interval-valued mappings: attainability, semicontinuity, selections."""

import random
from fractions import Fraction as F

import pytest
from cadlagconvex.plconvex import RInterval
from cadlagconvex.rationals import INF, NEG_INF, is_finite
from cadlagconvex.setmaps import (SelectionPreconditionError, SetMap,
                                  escaping_slots, left_isc_check, michael_check,
                                  projection_selection, right_isc_check,
                                  solid_check)
from cadlagconvex.timegrid import TimeGrid

G3 = TimeGrid((0, 1, 2))


def lattice_attainable(sm: SetMap, i: int, step=F(1, 4), radius=6):
    """Oracle: slot values of actual step selections on a value lattice.

    Enumerates lattice points and keeps those extendable to a full selection
    (point and cell constraints at every slot are interval, so extendability
    only needs every other slot's attainable set to be nonempty).
    """
    others_ok = all(not sm.attainable_at(j).is_empty
                    for j in range(sm.grid.n_slots) if j != i)
    if not others_ok:
        return []
    target = sm.attainable_at(i)
    pts = [F(k) * step for k in range(-radius * 4, radius * 4 + 1)]
    return [p for p in pts if target.contains(p)]


class TestAttainable:
    def test_constant_map(self):
        sm = SetMap.constant(G3, RInterval(F(0), F(1)))
        assert sm.attainable_at(0) == RInterval(F(0), F(1))

    def test_right_continuity_clips_point_value(self):
        sm = SetMap(G3, (RInterval(F(0), F(2)),) * 3,
                    (RInterval(F(0), F(1)), RInterval(F(0), F(2))))
        att = sm.attainable_at(0)
        assert att == RInterval(F(0), F(1))
        # oracle: lattice selections never exceed the following cell value
        pts = lattice_attainable(sm, 0)
        assert pts and max(pts) == F(1) and min(pts) == F(0)

    def test_pinched_point(self):
        sm = SetMap(G3, (RInterval(F(0), F(0)),) + (RInterval(F(0), F(1)),) * 2,
                    (RInterval(F(0), F(1)),) * 2)
        assert sm.attainable_at(0) == RInterval(F(0), F(0))

    def test_terminal_slot_unclipped(self):
        sm = SetMap(G3, (RInterval(F(0), F(1)),) * 2 + (RInterval(F(5), F(9)),),
                    (RInterval(F(0), F(1)),) * 2)
        assert sm.attainable_at(2) == RInterval(F(5), F(9))


class TestVecMap:
    def test_constant_map(self):
        sm = SetMap.constant(G3, RInterval(F(0), F(1)))
        vec = sm.vec_map()
        assert vec.point_vals[0] == RInterval.singleton(F(0))
        assert vec.point_vals[1] == RInterval(F(0), F(1))

    def test_left_neighbor_cell(self):
        sm = SetMap(G3, (RInterval(F(0), F(9)),) * 3,
                    (RInterval(F(2), F(3)), RInterval(F(0), F(9))))
        assert sm.vec_map().point_vals[1] == RInterval(F(2), F(3))

    def test_point_value_invisible_to_left_limits(self):
        sm = SetMap(G3, (RInterval(F(0), F(1)), RInterval(F(5), F(6)), RInterval(F(0), F(1))),
                    (RInterval(F(0), F(1)),) * 2)
        assert sm.vec_map().point_vals[1] == RInterval(F(0), F(1))

    def test_vec_of_constant_is_constant_from_t1(self):
        sm = SetMap.constant(G3, RInterval(F(-1), F(2)))
        vec = sm.vec_map()
        assert vec.point_vals[1] == vec.point_vals[2] == RInterval(F(-1), F(2))

    def test_vec_is_left_isc(self):
        rng = random.Random(23)
        for _ in range(50):
            sm = _random_setmap(rng, G3)
            assert left_isc_check(sm.vec_map())


class TestSemicontinuity:
    def test_constant_right_isc(self):
        assert right_isc_check(SetMap.constant(G3, RInterval(F(0), F(1))))

    def test_point_escaping_cell_fails(self):
        sm = SetMap(G3, (RInterval(F(0), F(1)), RInterval(F(0), F(2)), RInterval(F(0), F(1))),
                    (RInterval(F(0), F(1)), RInterval(F(0), F(1))))
        assert not right_isc_check(sm)
        rep = michael_check(sm)
        assert not rep["representation_holds"]
        assert rep["failing_slots"] == [1]
        assert rep["matches_right_isc"]
        assert escaping_slots(sm.point_vals, sm.open_vals, 0) == [1]
        assert escaping_slots(sm.point_vals, sm.open_vals, 1) == [1]

    def test_escaping_slots_compare_the_following_or_preceding_cell(self):
        rng = random.Random(5)
        G5 = TimeGrid((0, 1, 2, 3, 4))
        for _ in range(100):
            sm, other = _random_setmap(rng, G5), _random_setmap(rng, G5)
            points, cells = sm.point_vals, other.open_vals
            assert escaping_slots(points, cells, 0) == [
                i for i in range(4) if not points[i].issubset(cells[i])]
            assert escaping_slots(points, cells, 1) == [
                i for i in range(1, 5) if not points[i].issubset(cells[i - 1])]
            assert right_isc_check(sm) == (escaping_slots(sm.point_vals, sm.open_vals, 0) == [])
            assert left_isc_check(sm) == (escaping_slots(sm.point_vals, sm.open_vals, 1) == [])

    def test_pinched_point_is_right_isc_but_not_solid(self):
        sm = SetMap(G3, (RInterval(F(0), F(1)), RInterval(F(0), F(0)), RInterval(F(0), F(1))),
                    (RInterval(F(0), F(1)), RInterval(F(0), F(1))))
        assert right_isc_check(sm)
        assert not solid_check(sm)


class TestMichael:
    def test_constant_map_holds(self):
        rep = michael_check(SetMap.constant(G3, RInterval(F(0), F(1))))
        assert rep["representation_holds"] and rep["right_isc"] and rep["matches_right_isc"]

    def test_failure_pinpoints_slot(self):
        sm = SetMap(G3, (RInterval(F(0), F(1)), RInterval(F(0), F(2)), RInterval(F(0), F(1))),
                    (RInterval(F(0), F(1)), RInterval(F(0), F(1))))
        rep = michael_check(sm)
        assert rep["failing_slots"] == [1]
        assert sm.attainable_at(1) == RInterval(F(0), F(1)) != sm.point_vals[1]

    def test_regular_map_has_both_representations(self):
        sm = SetMap.constant(G3, RInterval(F(-2), F(5)))
        rep = michael_check(sm)
        assert rep["representation_holds"] and rep["left_representation_holds"]


def _random_setmap(rng: random.Random, grid: TimeGrid, regular=False) -> SetMap:
    def iv():
        kind = rng.randrange(4)
        if kind == 0:
            a = F(rng.randint(-3, 3), 2)
            return RInterval(a, a + F(rng.randint(0, 4), 2))
        if kind == 1:
            return RInterval(NEG_INF, F(rng.randint(-2, 3)))
        if kind == 2:
            return RInterval(F(rng.randint(-3, 2)), INF)
        return RInterval.whole_line()

    cells = tuple(iv() for _ in range(grid.n_cells))
    if regular:
        points = []
        for i in range(grid.n_slots):
            if i < grid.n_cells:
                c = cells[i]
                lo = c.lo if not is_finite(c.lo) or rng.random() < 0.5 else c.lo + F(1, 4) \
                    if (not is_finite(c.hi) or c.hi - c.lo >= F(1, 2)) else c.lo
                points.append(RInterval(lo, c.hi))
            else:
                points.append(iv())
        return SetMap(grid, tuple(points), cells)
    return SetMap(grid, tuple(iv() for _ in range(grid.n_slots)), cells)


def test_michael_equals_right_isc_on_random_maps():
    rng = random.Random(31)
    for _ in range(300):
        sm = _random_setmap(rng, G3)
        assert michael_check(sm)["matches_right_isc"]


class TestProjectionSelection:
    def test_projection_onto_interval(self):
        sm = SetMap.constant(G3, RInterval(F(1), F(2)))
        assert projection_selection(sm, F(0)).values == (F(1), F(1), F(1))

    def test_slotwise_nearest_point(self):
        grid = TimeGrid((0, 1, 2, 3))
        points = tuple(RInterval(F(i), F(i + 1)) for i in range(4))
        cells = tuple(RInterval(F(i), F(i + 2)) for i in range(3))
        sm = SetMap(grid, points, cells)
        path = projection_selection(sm, F(0))
        assert path.values == (F(0), F(1), F(2), F(3))

    def test_interior_point(self):
        sm = SetMap.constant(G3, RInterval(F(-1), F(1)))
        assert projection_selection(sm, F(0)).values == (F(0),) * 3

    def test_precondition_violation_reports_slot(self):
        sm = SetMap(G3, (RInterval(F(0), F(1)), RInterval(F(0), F(2)), RInterval(F(0), F(1))),
                    (RInterval(F(0), F(1)), RInterval(F(0), F(1))))
        with pytest.raises(SelectionPreconditionError) as err:
            projection_selection(sm, F(0))
        assert err.value.slot == 1

    def test_selection_and_distance_identities(self):
        rng = random.Random(41)
        for _ in range(60):
            sm = _random_setmap(rng, G3, regular=True)
            if not right_isc_check(sm) or not sm.has_selection():
                continue
            x = F(rng.randint(-5, 5), 2)
            path = sm and projection_selection(sm, x)
            for i, v in enumerate(path.values):
                att = sm.attainable_at(i)
                assert att.contains(v)
                assert abs(x - v) == att.distance_to(x)
            vec = sm.vec_map()
            lefts = path.left_values()
            for i in range(1, sm.grid.n_slots):
                if sm.attainable_at(i - 1) == sm.open_vals[i - 1]:
                    assert lefts[i] == vec.point_vals[i].nearest_to(x)


def test_refine_keeps_attainability():
    sm = SetMap(G3, (RInterval(F(0), F(2)),) * 3,
                (RInterval(F(0), F(1)), RInterval(F(1), F(2))))
    fine = sm.refine(2)
    assert fine.point_vals[1] == RInterval(F(0), F(1))
    assert fine.attainable_at(0) == sm.attainable_at(0)
    assert fine.attainable_at(2) == sm.attainable_at(1)
