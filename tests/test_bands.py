"""Bands [b, a], the obstacle as the band with no ask, and the one
right-regularity test: each shared body against a copy of the per-model body
it replaced."""

import random
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _charges, _fixed_value_sets, rand_setmap, sets_coordinates

from cadlagconvex.duality import (FINE, DualPair, _coordinate_infima, _coordinates,
                                  interchange_stoch, make_instance)
from cadlagconvex.finmodels import (ScalarProcess, band_setmap, bidask_model,
                                    bidask_support, obstacle_model,
                                    obstacle_support, right_lsc_slots,
                                    right_usc_slots)
from cadlagconvex.generators import rand_coarse, rand_grid, rand_passing_instance, rand_tree
from cadlagconvex.plconvex import RInterval, abs_fn, pl, restrict
from cadlagconvex.polycone import ConeMap, PolyCone
from cadlagconvex.rationals import INF
from cadlagconvex.scenario import (RandomIntegrand, RandomMeasure, RandomPath,
                                   ScenarioTree, paste, predictable_atoms)
from cadlagconvex.setmaps import SetMap
from cadlagconvex.timegrid import GridMeasure, StepPath, TimeGrid


# -- the per-model bodies the shared ones replaced ------------------------------------

def old_right_usc_slots(b):
    out = {}
    for s in b.tree.scenarios:
        out[s] = [i for i in range(b.grid.n_cells)
                  if not (b.points[s][i] >= b.cells[s][i])]
    return out


def old_right_lsc_slots(a):
    out = {}
    for s in a.tree.scenarios:
        out[s] = [i for i in range(a.grid.n_cells)
                  if not (a.points[s][i] <= a.cells[s][i])]
    return out


def old_cone_right_isc(cm):
    return all(cm.point_cones[i].subcone_of(cm.cell_cones[i])
               for i in range(cm.grid.n_cells))


def old_is_selection(sm, y):
    if y.grid != sm.grid:
        raise ValueError("grid mismatch")
    for i, v in enumerate(y.values):
        if not sm.point_vals[i].contains(v):
            return False
        if i < sm.grid.n_cells and not sm.open_vals[i].contains(v):
            return False
    return True


def old_dominates(b, ycheck):
    """The domination loops of the old ``obstacle_model``."""
    for s in b.tree.scenarios:
        vals = ycheck.paths[s].values
        if any(vals[i] < b.points[s][i] for i in range(b.grid.n_slots)):
            return False
        if any(vals[i] < b.cells[s][i] for i in range(b.grid.n_cells)):
            return False
    return True


def old_obstacle_support(model, d):
    tree = model.b.tree
    vals = {}
    for s in tree.scenarios:
        u = d.u.measures[s].atoms
        ut = d.ut.measures[s].atoms
        if any(a > 0 for a in u) or any(a > 0 for a in ut[1:]):
            vals[s] = INF
            continue
        total = sum((model.b.points[s][i] * u[i] for i in range(len(u))), F(0))
        total += sum((model.b_vec.points[s][i] * ut[i] for i in range(1, len(ut))), F(0))
        vals[s] = total
    return tree.expectation(vals)


def _jordan(x):
    return (x, F(0)) if x >= 0 else (F(0), -x)


def old_bidask_support(model, d):
    tree = model.b.tree
    vals = {}
    for s in tree.scenarios:
        total = F(0)
        for i, atom in enumerate(d.u.measures[s].atoms):
            plus, minus = _jordan(atom)
            total += model.a.points[s][i] * plus - model.b.points[s][i] * minus
        for i, atom in enumerate(d.ut.measures[s].atoms):
            if i == 0:
                continue
            plus, minus = _jordan(atom)
            total += model.a_under.points[s][i] * plus - model.b_vec.points[s][i] * minus
        vals[s] = total
    return tree.expectation(vals)


def old_band_maps(b, a=None):
    """The constraint maps the old ``obstacle_model`` and ``bidask_model`` built."""
    if a is None:
        return {s: SetMap(b.grid, tuple(RInterval(p, INF) for p in b.points[s]),
                          tuple(RInterval(c, INF) for c in b.cells[s]))
                for s in b.tree.scenarios}
    return {s: SetMap(b.grid,
                      tuple(RInterval(lo, hi) for lo, hi in zip(b.points[s], a.points[s])),
                      tuple(RInterval(lo, hi) for lo, hi in zip(b.cells[s], a.cells[s])))
            for s in b.tree.scenarios}


# -- random data ---------------------------------------------------------------------

def per_cell(tree, slot, draw):
    out = {}
    for cell in tree.cells(slot):
        value = draw()
        for s in cell:
            out[s] = value
    return out


def rand_process(rng, tree, grid, lo, hi, gap=None, flag="optional"):
    """Optional process with values in [lo, hi]; ``gap(cell)`` draws the point
    value beside the following cell value, else both are free."""
    def value():
        return F(rng.randint(2 * lo, 2 * hi), 2)
    points = {s: [] for s in tree.scenarios}
    cells = {s: [] for s in tree.scenarios}
    for i in range(grid.n_slots):
        def slot():
            c = value()
            p = value() if gap is None or i == grid.n_cells else gap(c)
            return p, c
        drawn = per_cell(tree, i, slot)
        for s in tree.scenarios:
            points[s].append(drawn[s][0])
            if i < grid.n_cells:
                cells[s].append(drawn[s][1])
    return ScalarProcess(tree, grid, points, cells, flag)


def rand_dual(rng, tree, grid):
    def atoms(pred):
        out = {s: [] for s in tree.scenarios}
        for i in range(grid.n_slots):
            drawn = per_cell(tree, tree.pred_slot(i) if pred else i,
                             lambda: F(rng.randint(-4, 4), rng.choice((1, 2))))
            for s in tree.scenarios:
                out[s].append(drawn[s])
        return RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                          for s, v in out.items()})
    return DualPair(atoms(False), atoms(True))


def constant_path(tree, grid, value):
    return RandomPath(tree, grid, {s: StepPath(grid, (F(value),) * grid.n_slots)
                                   for s in tree.scenarios})


def tree_and_grid(rng):
    grid = rand_grid(rng, 3)
    return rand_tree(rng, grid.n_slots, 3), grid


def same(x, y):
    return type(x) is type(y) and x == y


# -- right regularity ---------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_right_usc_and_lsc_slots_equal_the_old_loops(seed):
    rng = random.Random(seed)
    tree, grid = tree_and_grid(rng)
    p = rand_process(rng, tree, grid, -3, 3, flag="raw")
    assert right_usc_slots(p) == old_right_usc_slots(p)
    assert right_lsc_slots(p) == old_right_lsc_slots(p)


@st.composite
def cone_maps(draw):
    dim = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * dim)

    def cone():
        return PolyCone(dim, generators=[tuple(map(F, g)) for g in draw(
            st.lists(vec, max_size=3))])
    n = draw(st.integers(1, 3))
    cells = [cone() for _ in range(n)]
    points = []
    for i in range(n + 1):
        if i < n and cells[i].generators and draw(st.booleans()):
            gens = cells[i].generators  # a subcone of the following cell cone
            points.append(PolyCone(dim, generators=draw(
                st.lists(st.sampled_from(gens), max_size=len(gens)))))
        else:
            points.append(cone())
    return ConeMap(TimeGrid(tuple(range(n + 1))), tuple(points), tuple(cells))


@settings(max_examples=150, deadline=None)
@given(cone_maps())
def test_cone_map_right_isc_equals_the_old_loop(cm):
    assert cm.right_isc() is old_cone_right_isc(cm)


def test_cone_map_right_isc_sees_both_verdicts():
    up = PolyCone(2, generators=[(F(1), F(0))])
    quadrant = PolyCone(2, generators=[(F(1), F(0)), (F(0), F(1))])
    grid = TimeGrid((0, 1))
    assert ConeMap(grid, (up, quadrant), (quadrant,)).right_isc()
    assert not ConeMap(grid, (quadrant, up), (up,)).right_isc()


# -- selections ------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_is_selection_equals_the_point_and_cell_loop(seed, regular):
    rng = random.Random(seed)
    grid = rand_grid(rng, 4)
    sm = rand_setmap(rng, grid, regular)
    for _ in range(5):
        y = StepPath(grid, tuple(rand_coarse(rng) for _ in range(grid.n_slots)))
        assert sm.is_selection(y) is old_is_selection(sm, y)
    if sm.has_selection():
        y = StepPath(grid, tuple(sm.attainable_at(i).nearest_to(rand_coarse(rng))
                                 for i in range(grid.n_slots)))
        assert sm.is_selection(y) and old_is_selection(sm, y)


def test_is_selection_still_checks_the_grid():
    sm = rand_setmap(random.Random(0), TimeGrid((0, 1)))
    with pytest.raises(ValueError, match="grid mismatch"):
        sm.is_selection(StepPath(TimeGrid((0, 2)), (F(0), F(0))))


# -- bands and their closed forms --------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_obstacle_equals_the_old_model_and_closed_form(seed):
    rng = random.Random(seed)
    tree, grid = tree_and_grid(rng)
    b = rand_process(rng, tree, grid, -3, 3, gap=lambda c: c + F(rng.randint(0, 2), 2))
    assert band_setmap(b).maps == old_band_maps(b)
    # a dominating path, then one that may dip below the bound
    model = obstacle_model(b, constant_path(tree, grid, 4))
    assert model.instance.S.maps == old_band_maps(b)
    low = RandomPath(tree, grid, {s: StepPath(grid, b.points[s]) for s in tree.scenarios})
    for y in (low, constant_path(tree, grid, rng.randint(-3, 3))):
        if old_dominates(b, y):
            obstacle_model(b, y)
        else:
            with pytest.raises(ValueError):
                obstacle_model(b, y)
    for _ in range(5):
        d = rand_dual(rng, tree, grid)
        assert same(obstacle_support(model, d), old_obstacle_support(model, d))
    # nonpositive duals reach the finite branch too
    flipped = rand_dual(rng, tree, grid)
    nonpos = DualPair(*(RandomMeasure(tree, grid, {
        s: GridMeasure(grid, tuple(-abs(a) for a in m.measures[s].atoms))
        for s in tree.scenarios}) for m in (flipped.u, flipped.ut)))
    value = obstacle_support(model, nonpos)
    assert same(value, old_obstacle_support(model, nonpos)) and value != INF


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bidask_equals_the_old_model_and_closed_form(seed):
    rng = random.Random(seed)
    tree, grid = tree_and_grid(rng)
    b = rand_process(rng, tree, grid, -4, -1, gap=lambda c: min(F(-1), c + F(rng.randint(0, 2), 2)))
    a = rand_process(rng, tree, grid, 1, 4, gap=lambda c: max(F(1), c - F(rng.randint(0, 2), 2)))
    assert band_setmap(b, a).maps == old_band_maps(b, a)
    model = bidask_model(b, a, constant_path(tree, grid, 0))
    assert model.instance.S.maps == old_band_maps(b, a)
    for _ in range(5):
        d = rand_dual(rng, tree, grid)
        assert same(bidask_support(model, d), old_bidask_support(model, d))


# -- the interchange witness --------------------------------------------------------

def per_charge_paths(r, sets, charges):
    """The old per-charge minimizer paths: a charge without mass at a
    coordinate takes the previous charge's point, the first the feasible
    point nearest 0."""
    tree, n = r.tree, r.grid.n_slots
    picks = [{s: [None] * n for s in tree.scenarios} for _ in charges]
    for i, cell, mass, feas, terms in sets_coordinates(r, sets, charges):
        if feas.is_empty:
            continue
        point = feas.nearest_to(F(0))
        for chosen, (atom, fn) in zip_longest(picks, terms, fillvalue=(0, None)):
            if atom > 0:
                _, argmin = fn.inf_over(feas)
                point = None if argmin.is_empty else argmin.nearest_to(F(0))
            for s in cell:
                chosen[s][i] = point
    return [RandomPath(tree, r.grid, {s: StepPath(r.grid, tuple(c[s])) for s in tree.scenarios})
            for c in picks]


def test_the_witness_is_the_pasting_of_the_per_charge_paths():
    witnesses = 0
    for seed in range(150):
        inst = rand_passing_instance(random.Random(seed), with_htilde=seed % 2 == 1)
        for form in ("F", "Fhat"):
            rep = interchange_stoch(inst, form)
            if rep["witness"] is None:
                continue
            witnesses += 1
            hatted = form == "Fhat"
            r = inst.refine(FINE) if hatted else inst
            sets = _fixed_value_sets(r) if hatted else {
                s: [r.s_map(s).attainable_at(i) for i in range(r.grid.n_slots)]
                for s in r.tree.scenarios}
            y = per_charge_paths(r, sets, _charges(r, hatted))
            expected = paste(y[0], y[1], predictable_atoms(r.mutilde)) if hatted else y[0]
            assert rep["witness"] == expected
    assert witnesses >= 80  # 88 of the 300 runs attain every slot infimum


def test_two_charges_with_mass_at_one_coordinate_are_refused():
    # unrefined, the value at t_0 is charged by mu_0 and, as the left limit
    # at t_1, by mutilde_1: the hatted charges must run on the refined grid
    tree = ScenarioTree.deterministic(2)
    grid = TimeGrid((0, 1))
    kink = restrict(abs_fn(), RInterval(F(-6), F(6)))
    zero = F(0)
    pinch = pl(zero, zero, (), (0,), zero, zero)
    h = RandomIntegrand(tree, grid, {"w": (kink, kink)}, "optional")
    ht = RandomIntegrand(tree, grid, {"w": (pinch, kink)}, "predictable")
    mu = RandomMeasure(tree, grid, {"w": GridMeasure(grid, (1, 1))})
    mut = RandomMeasure(tree, grid, {"w": GridMeasure(grid, (0, 3))})
    inst = make_instance(tree, grid, h, mu, mut, ht)
    with pytest.raises(AssertionError, match="two charges with mass at slot 0"):
        _coordinate_infima(inst, _coordinates(inst, True))
    r = inst.refine(FINE)
    _coordinate_infima(r, _coordinates(r, True))
    assert interchange_stoch(inst, "Fhat")["witness"] is not None
