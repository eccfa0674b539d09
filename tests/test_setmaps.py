"""Interval-valued mappings: attainability, semicontinuity, selections."""

import random
from fractions import Fraction as F

import pytest

from conftest import rand_setmap

from cadlagconvex.plconvex import RInterval
from cadlagconvex.setmaps import (SelectionPreconditionError, SetMap,
                                  escaping_slots, michael_check,
                                  projection_selection, right_isc_check)
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
            vec = rand_setmap(rng, G3).vec_map()
            assert escaping_slots(vec.point_vals, vec.open_vals, 1) == []


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
            sm, other = rand_setmap(rng, G5), rand_setmap(rng, G5)
            points, cells = sm.point_vals, other.open_vals
            assert escaping_slots(points, cells, 0) == [
                i for i in range(4) if not points[i].issubset(cells[i])]
            assert escaping_slots(points, cells, 1) == [
                i for i in range(1, 5) if not points[i].issubset(cells[i - 1])]
            assert right_isc_check(sm) == (escaping_slots(sm.point_vals, sm.open_vals, 0) == [])

    def test_pinched_point_is_right_isc_but_not_solid(self):
        sm = SetMap(G3, (RInterval(F(0), F(1)), RInterval(F(0), F(0)), RInterval(F(0), F(1))),
                    (RInterval(F(0), F(1)), RInterval(F(0), F(1))))
        assert right_isc_check(sm)
        assert sm.point_vals[1].lo == sm.point_vals[1].hi


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
        assert michael_check(sm)["representation_holds"]
        assert michael_check(sm.vec_map())["representation_holds"]


def test_michael_equals_right_isc_on_random_maps():
    rng = random.Random(31)
    verdicts = set()
    for _ in range(300):
        rep = michael_check(rand_setmap(rng, G3))
        assert rep["matches_right_isc"]
        verdicts.add(rep["right_isc"])
    assert verdicts == {True, False}


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
            sm = rand_setmap(rng, G3, regular=True)
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
