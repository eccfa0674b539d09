"""The coordinates of the refined grid read from the coarse instance.

``_coordinates(inst, hatted, k)`` against the pinned start of the
materialised ``inst.refine(k)`` and the walk on it, tuple by tuple, at k = 2
(``FINE``) and 3; the entry points that walk ``_coordinates(inst, True,
FINE)`` against copies of their bodies on the refined instance; and
``eval_Fhat``, which walks ``_coordinates(inst, True)``, against its
per-scenario body; and the walk as one tuple per instance and form, built
once and shared unchanged by every reader.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (_charges, _fixed_value_sets, _zero_start_cost, _zero_start_ok,
                      rand_interval, refined_pinned_start, sets_coordinates)

from cadlagconvex import cli, duality
from cadlagconvex.duality import (FINE, Instance, _coordinate_infima, _coordinates,
                                  _off_domain, assumption_report, conj_pointwise, eval_F,
                                  eval_Fhat, interchange_stoch, subdiff_check, support_DS)
from cadlagconvex.generators import (_per_cell, rand_coarse, rand_feasible_path,
                                     rand_finite_dual, rand_passing_instance)
from cadlagconvex.plconvex import RInterval
from cadlagconvex.presets import PRESET_NAMES, bundled_instance_path
from cadlagconvex.rationals import INF, NEG_INF, xmul, xsum
from cadlagconvex.scenario import RandomMeasure, RandomPath, RandomSetMap, ScenarioTree
from cadlagconvex.serialize import load_instance
from cadlagconvex.setmaps import SetMap, escaping_slots
from cadlagconvex.timegrid import GridMeasure, StepPath, eval_I

# -- inputs ------------------------------------------------------------------------


def with_random_constraints(rng, inst):
    """``inst`` with S and Stilde drawn per partition cell: point values of S
    on partitions[i], of Stilde on partitions[i-1] (partitions[0] at slot 0),
    cell values of both on partitions[i].  Unlike the default constraint
    system, Stilde's point value at t_{i+1} and its cell value on (t_i,
    t_{i+1}) then differ."""
    tree, grid = inst.tree, inst.grid

    def draw(predictable):
        points = [_per_cell(rng, tree, tree.pred_slot(i) if predictable else i,
                            lambda: rand_interval(rng)) for i in range(grid.n_slots)]
        cells = [_per_cell(rng, tree, i, lambda: rand_interval(rng))
                 for i in range(grid.n_cells)]
        return RandomSetMap(tree, grid, {
            s: SetMap(grid, tuple(p[s] for p in points), tuple(c[s] for c in cells))
            for s in tree.scenarios})
    return Instance(tree, grid, inst.h, inst.mu, inst.mutilde, inst.htilde,
                    draw(False), draw(True))


def with_charged_start(rng, inst):
    """``inst`` with a positive mutilde_0 drawn per cell of partitions[0]: the
    drawn htilde_0 is pinned at 0 with a value c >= 0, so the pinned start
    pays c times that atom."""
    tree, grid = inst.tree, inst.grid
    start = _per_cell(rng, tree, 0, lambda: F(rng.randint(1, 3), rng.choice((1, 2))))
    mutilde = RandomMeasure(tree, grid, {
        s: GridMeasure(grid, (start[s],) + m.atoms[1:]) for s, m in inst.mutilde.measures.items()})
    return Instance(tree, grid, inst.h, inst.mu, mutilde, inst.htilde, inst.S, inst.Stilde)


def drawn_instance(seed, kind):
    rng = random.Random(seed)
    inst = rand_passing_instance(rng, max_scenarios=3, max_cells=3,
                                 with_htilde=kind != "plain")
    redraw = {"constrained": with_random_constraints, "charged-start": with_charged_start}
    return (redraw[kind](rng, inst) if kind in redraw else inst), rng


KINDS = ("plain", "htilde", "constrained", "charged-start")


def charged_start(inst):
    """Whether the pinned start pays a nonzero charge."""
    return any(inst.mutilde.measures[s].atoms[0] > 0
               and inst.htilde.functions[s][0].eval(F(0)) != 0 for s in inst.tree.scenarios)


def preset_docs():
    """Each bundled preset and its x2 refinement."""
    for name in PRESET_NAMES:
        doc = load_instance(bundled_instance_path(name))
        yield name, doc
        yield f"{name}-x2", doc.refine(2)


PRESETS = dict(preset_docs())


def bounds(inst):
    big = inst.magnitude_bound()
    return (RInterval.whole_line(), RInterval(-big, big), RInterval(F(-1, 2), F(1)))


# -- the generator against the materialised refinement ------------------------------

def typed(x):
    return type(x), x


FACTORS = (FINE, 3)


def assert_same_coordinates(inst, bound, factor, hatted):
    """The walk's coordinates of ``inst.refine(factor)``, each interval cut to
    ``bound`` here, are (hatted) the refinement's pinned start, whose
    zero-atom charge the walk leaves out, and those the walk yields on the
    materialised refinement past slot -1, cut to that bound."""
    r = inst.refine(factor)
    start = refined_pinned_start(r) if hatted else []
    want = [(i, cell, mass, bound.intersect(feas), [(a, fn) for a, fn in terms if a > 0])
            for i, cell, mass, feas, terms in start + [
                c for c in _coordinates(r, hatted) if c[0] >= 0]]
    got = [(i, cell, mass, bound.intersect(feas), terms)
           for i, cell, mass, feas, terms in _coordinates(inst, hatted, factor)]
    assert len(got) == len(want)
    for (i, cell, mass, feas, terms), (wi, wcell, wmass, wfeas, wterms) in zip(got, want):
        assert (i, cell) == (wi, wcell)
        assert typed(mass) == typed(wmass)
        assert feas.is_empty == wfeas.is_empty
        if not feas.is_empty:
            assert (typed(feas.lo), typed(feas.hi)) == (typed(wfeas.lo), typed(wfeas.hi))
        assert len(terms) == len(wterms)
        for (atom, fn), (watom, wfn) in zip(terms, wterms):
            assert typed(atom) == typed(watom)
            assert fn is wfn


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS))
def test_fine_coordinates_equal_those_of_the_refined_instance(seed, kind):
    inst, _ = drawn_instance(seed, kind)
    for bound, factor, hatted in itertools.product(bounds(inst), FACTORS, (False, True)):
        assert_same_coordinates(inst, bound, factor, hatted)


@pytest.mark.parametrize("name", PRESETS)
def test_fine_coordinates_of_every_preset_equal_those_of_its_refinement(name):
    inst = PRESETS[name].instance
    for bound, factor, hatted in itertools.product(bounds(inst), FACTORS, (False, True)):
        assert_same_coordinates(inst, bound, factor, hatted)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS))
def test_the_refined_constructor_accepts_every_drawn_instance(seed, kind):
    # refinement keeps measurability, so skipping the constructor of the
    # refined instance loses no rejection: here it runs, unmemoised
    inst, _ = drawn_instance(seed, kind)
    assert isinstance(Instance._refine(inst, FINE), Instance)


def test_the_refined_constructor_accepts_every_preset():
    for doc in PRESETS.values():
        assert isinstance(Instance._refine(doc.instance, FINE), Instance)


# -- the entry points against their bodies on the refined instance ------------------

def refined_assumption_report(inst):
    """assumption_report as it read properness from inst.refine(FINE)."""
    r = inst.refine(FINE)
    improper = set()
    for _, cell, _, feas, terms in sets_coordinates(r, _fixed_value_sets(r), _charges(r, True)):
        if feas.is_empty or any(atom > 0 and feas.intersect(fn.domain).is_empty
                                for atom, fn in terms):
            improper.update(cell)
    zero = RInterval.singleton(F(0))
    per_scenario = {}
    for s in inst.tree.scenarios:
        smap, stmap = inst.s_map(s), inst.st_map(s)
        hfns, htfns = inst.h.functions[s], inst.htilde.functions[s]
        proper = _zero_start_ok(inst, s) and s not in improper and (
            inst.mutilde.measures[s].atoms[0] == 0 or htfns[0].domain.contains(F(0)))
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
            "proper": proper,
        }
        per_scenario[s] = {k: v if isinstance(v, bool) else not v
                           for k, v in checks.items()}
        per_scenario[s]["failing_slots"] = {
            k: v for k, v in checks.items() if not isinstance(v, bool) and v}
    summary = {k: all(flags[k] for flags in per_scenario.values()) for k in checks}
    all_ok = all(v for k, v in summary.items() if k != "s_contains_dom_h")
    summary["minorant_h"] = summary["minorant_htilde"] = True
    summary["all_ok"] = all_ok
    return {"per_scenario": per_scenario, "summary": summary, "all_ok": all_ok}


def refined_support_DS(inst, d):
    """support_DS as it tested the pinned start and emptiness on inst.refine(FINE)."""
    r = inst.refine(FINE)
    if not all(_zero_start_ok(r, s) for s in r.tree.scenarios) or any(
            v.is_empty for sets in _fixed_value_sets(r).values() for v in sets):
        return NEG_INF
    vals = {}
    for s in inst.tree.scenarios:
        smap, stmap = inst.s_map(s), inst.st_map(s)
        terms = [smap.point_vals[i].support(a)
                 for i, a in enumerate(d.u.measures[s].atoms)]
        terms += [stmap.point_vals[i].support(a)
                  for i, a in enumerate(d.ut.measures[s].atoms)]
        vals[s] = xsum(terms)
    return inst.tree.expectation(vals)


def sets_coordinate_infima(inst, sets, charges):
    """_coordinate_infima as it read the coordinates of ``inst`` from per-slot sets."""
    tree, n = inst.tree, inst.grid.n_slots
    rhs = tree.expectation({
        s: xsum(xmul(a, fn.min_on_line) for m, fam, _ in charges
                for a, fn in zip(m.measures[s].atoms, fam.functions[s]) if a > 0)
        for s in tree.scenarios})
    costs, infeasible = [], False
    path = {s: [None] * n for s in tree.scenarios}
    for i, cell, mass, feas, terms in sets_coordinates(inst, sets, charges):
        if feas.is_empty:
            infeasible = True
            continue
        charged = [(atom, fn) for atom, fn in terms if atom > 0]
        assert len(charged) <= 1
        point = feas.nearest_to(F(0))
        for atom, fn in charged:
            val, argmin = fn.inf_over(feas)
            costs.append(xmul(mass, xmul(atom, val)))
            point = None if argmin.is_empty else argmin.nearest_to(F(0))
        for s in cell:
            path[s][i] = point
    return costs, infeasible, path, rhs


def refined_interchange_stoch(inst, form):
    """interchange_stoch as it minimized over the coordinates of inst.refine(FINE)."""
    assumptions = refined_assumption_report(inst)
    hatted = form == "Fhat"
    r = inst.refine(FINE) if hatted else inst
    tree, n = r.tree, r.grid.n_slots
    sets = _fixed_value_sets(r) if hatted else {
        s: [r.s_map(s).attainable_at(i) for i in range(n)] for s in tree.scenarios}
    costs, infeasible, path, rhs = sets_coordinate_infima(r, sets, _charges(r, hatted))
    if hatted:
        infeasible = infeasible or not all(_zero_start_ok(r, s) for s in tree.scenarios)
        costs.append(_zero_start_cost(r))
    lhs = INF if infeasible else xsum(costs)
    out = {"form": form, "lhs": lhs, "rhs": rhs, "vacuous": lhs == INF,
           "ok": lhs == INF or lhs == rhs, "assumptions": assumptions["summary"],
           "assumptions_ok": assumptions["all_ok"], "witness": None}
    if infeasible or any(v is None for vals in path.values() for v in vals):
        return out
    witness = RandomPath(tree, r.grid, {s: StepPath(r.grid, tuple(path[s]))
                                        for s in tree.scenarios})
    achieved = (eval_Fhat if hatted else eval_F)(r, witness)
    assert achieved == lhs
    out["witness"] = witness
    out["witness_value"] = achieved
    return out


def same(x, y):
    """Equal, with equal types all the way down (dicts, lists, tuples)."""
    if type(x) is not type(y):
        return False
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(same, x, y))
    return x == y


def assert_entry_points_equal_the_refined_bodies(inst, duals):
    assert same(assumption_report(inst), refined_assumption_report(inst))
    for d in duals:
        assert same(support_DS(inst, d), refined_support_DS(inst, d))
    for form in ("F", "Fhat"):
        new, old = interchange_stoch(inst, form), refined_interchange_stoch(inst, form)
        assert same({k: v for k, v in new.items() if k != "witness"},
                    {k: v for k, v in old.items() if k != "witness"})
        assert new["witness"] == old["witness"]
        if new["witness"] is not None:
            assert all(same(p.values, q.values) for p, q in
                       zip(new["witness"].paths.values(), old["witness"].paths.values()))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS))
def test_entry_points_equal_their_bodies_on_the_refined_instance(seed, kind):
    inst, rng = drawn_instance(seed, kind)
    assert_entry_points_equal_the_refined_bodies(inst, [rand_finite_dual(rng, inst)
                                                        for _ in range(2)])


@pytest.mark.parametrize("name", PRESETS)
def test_entry_points_on_every_preset_equal_their_bodies_on_the_refined_instance(name):
    doc = PRESETS[name]
    assert_entry_points_equal_the_refined_bodies(doc.instance, doc.duals)


def test_the_drawn_cases_hold_both_outcomes():
    # the inputs above reach empty fine coordinates, improper scenarios,
    # interchange witnesses and a charged pinned start, so the equalities are
    # not vacuous
    seen = set()
    for seed in range(60):
        for kind in KINDS:
            inst, rng = drawn_instance(seed, kind)
            d = rand_finite_dual(rng, inst)
            seen.add(("support", support_DS(inst, d) == NEG_INF))
            seen.add(("proper", assumption_report(inst)["summary"]["proper"]))
            seen.add(("witness", interchange_stoch(inst, "Fhat")["witness"] is None))
            seen.add(("charged start", charged_start(inst)))
    assert seen == {(k, v) for k in ("support", "proper", "witness", "charged start")
                    for v in (True, False)}


# -- the hatted witness, priced on the fine walk --------------------------------------

def refuse_refine(inst, factor):
    raise AssertionError("refined instance built")


def assert_the_witness_is_priced_as_on_the_refined_instance(inst):
    """interchange_stoch builds its Fhat witness on the refined tree and grid
    and prices it on ``_coordinates(inst, True, FINE)``, with no refined
    instance; the price equals eval_Fhat on ``inst.refine(FINE)``, the slow
    reference, and the left side.  Returns whether a witness exists."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Instance, "_refine", refuse_refine)
        rep = interchange_stoch(inst, "Fhat")
    witness = rep["witness"]
    if witness is None:
        return False
    assert witness.tree is inst.tree.refine(FINE) and witness.grid is inst.grid.refine(FINE)
    assert same(rep["witness_value"], eval_Fhat(inst.refine(FINE), witness))
    assert same(rep["witness_value"], rep["lhs"])
    return True


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS))
def test_the_hatted_witness_is_priced_as_eval_Fhat_on_the_refined_instance(seed, kind):
    # test_the_drawn_cases_hold_both_outcomes shows these draws reach witnesses
    assert_the_witness_is_priced_as_on_the_refined_instance(drawn_instance(seed, kind)[0])


def test_every_preset_prices_its_hatted_witness_as_eval_Fhat_on_the_refined_instance():
    assert all(assert_the_witness_is_priced_as_on_the_refined_instance(doc.instance)
               for doc in PRESETS.values())


@pytest.mark.parametrize("form", ["F", "Fhat"])
def test_the_witness_is_checked_as_an_adapted_path(form, monkeypatch):
    # the walk reads each cell's first scenario only, so moving another
    # scenario of the cell keeps the witness's price: only the path check sees it
    inst = PRESETS["basic"].instance
    infima = duality._coordinate_infima

    def skewed(inst, coords):
        lhs, path, rhs = infima(inst, coords)
        path[inst.tree.cells(0)[0][1]][0] += 1
        return lhs, path, rhs

    monkeypatch.setattr(duality, "_coordinate_infima", skewed)
    with pytest.raises(ValueError, match="^path must be adapted$"):
        interchange_stoch(inst, form)


def test_the_witness_price_refuses_a_path_on_another_tree_or_grid():
    inst = PRESETS["basic"].instance
    rep = interchange_stoch(inst, "Fhat")
    witness, coords = rep["witness"], _coordinates(inst, True, FINE)
    tree, grid = inst.tree.refine(FINE), inst.grid.refine(FINE)
    assert same(duality._price(witness, tree, grid, coords), rep["lhs"])
    with pytest.raises(ValueError, match="^grid mismatch$"):
        duality._price(witness, tree, inst.grid.refine(3), coords)
    singletons = tuple((s,) for s in tree.scenarios)
    finer = ScenarioTree(tree.scenarios, tree.probs, (singletons,) * tree.n_slots)
    with pytest.raises(ValueError, match="^path must be adapted to the instance's tree$"):
        duality._price(witness, finer, grid, coords)


# -- eval_Fhat against its per-scenario body ------------------------------------------

def scenario_eval_Fhat(inst, y):
    """eval_Fhat as it tested the left limit 0 at t_0 and the fixed value sets
    scenario by scenario (its adaptedness check aside)."""
    if y.grid != inst.S.grid:
        raise ValueError("grid mismatch")
    vals = {}
    for s in inst.tree.scenarios:
        path = y.paths[s]
        if not inst.st_map(s).point_vals[0].contains(F(0)) or not all(
                v.contains(x) for v, x in zip(_fixed_value_sets(inst)[s], path.values)):
            vals[s] = INF
            continue
        vals[s] = xsum([
            eval_I(inst.h.functions[s], path, inst.mu.measures[s]),
            eval_I(inst.htilde.functions[s], StepPath(inst.grid, path.left_values()),
                   inst.mutilde.measures[s]),
        ])
    return inst.tree.expectation(vals)


def drawn_path(rng, inst):
    """An adapted path on the instance's tree, one value per partition cell:
    mostly the point nearest a random one of the cell's fixed value set cut
    by the domains of h_i and htilde_{i+1}, sometimes that of a wider set
    (S's attainable values, cut or not by Stilde's cell value), sometimes
    the random point itself."""
    tree, grid = inst.tree, inst.grid
    sets = _fixed_value_sets(inst)
    vals = {s: [None] * grid.n_slots for s in tree.scenarios}
    for i in range(grid.n_slots):
        for cell in tree.cells(i):
            x, k, s = rand_coarse(rng), rng.random(), cell[0]
            wide = inst.s_map(s).attainable_at(i)
            narrow = sets[s][i].intersect(inst.h.functions[s][i].domain)
            if i < grid.n_cells:
                narrow = narrow.intersect(inst.htilde.functions[s][i + 1].domain)
                if k < 0.935:
                    wide = wide.intersect(inst.st_map(s).open_vals[i])
            target = narrow if k < 0.9 else wide if k < 0.97 else RInterval.whole_line()
            if not target.is_empty:
                x = target.nearest_to(x)
            for t in cell:
                vals[t][i] = x
    return RandomPath(tree, grid, {s: StepPath(grid, tuple(v)) for s, v in vals.items()})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS))
def test_eval_Fhat_equals_its_per_scenario_body(seed, kind):
    inst, rng = drawn_instance(seed, kind)
    for _ in range(3):
        y = drawn_path(rng, inst)
        assert same(eval_Fhat(inst, y), scenario_eval_Fhat(inst, y))


def test_the_drawn_paths_hold_both_outcomes():
    # finite and +inf values, and paths whose every value lies in its set
    # with the left limit 0 inside Stilde(0) and outside it; eval_Fhat
    # equals the body on each
    seen = set()
    for seed in range(100):
        for kind in KINDS:
            inst, rng = drawn_instance(seed, kind)
            for _ in range(3):
                y = drawn_path(rng, inst)
                want = scenario_eval_Fhat(inst, y)
                assert same(eval_Fhat(inst, y), want)
                seen.add(("finite", want != INF))
                if all(v.contains(x) for s in inst.tree.scenarios
                       for v, x in zip(_fixed_value_sets(inst)[s], y.paths[s].values)):
                    seen.add(("pin", all(_zero_start_ok(inst, s) for s in inst.tree.scenarios)))
    assert seen == {(k, v) for k in ("finite", "pin") for v in (True, False)}


def test_fine_coordinates_do_not_refine(monkeypatch):
    def refuse(inst, factor):
        raise AssertionError("refined instance built")

    inst, rng = drawn_instance(7, "constrained")
    d = rand_finite_dual(rng, inst)
    monkeypatch.setattr(Instance, "_refine", refuse)
    for factor, hatted in itertools.product(FACTORS, (False, True)):
        list(_coordinates(inst, hatted, factor))
    assumption_report(inst)
    support_DS(inst, d)
    _coordinate_infima(inst, _coordinates(inst, True, FINE))
    _coordinate_infima(inst, _coordinates(inst, True, 3))


@pytest.mark.parametrize("kind", KINDS)
def test_instance_facts_walk_the_fine_coordinates_once(monkeypatch, kind):
    # whether a fine coordinate is empty, and the assumption report, are facts
    # of the instance alone: one walk each, however many duals are checked
    walk = duality._coordinates
    walks = []

    def counted(inst, hatted, factor=1):
        walks.append((inst, hatted, factor))
        return walk(inst, hatted, factor)

    monkeypatch.setattr(duality, "_coordinates", counted)
    for seed in range(10):
        inst, rng = drawn_instance(seed, kind)
        inst = dataclasses.replace(inst)  # no memo: rand_passing_instance read the report
        duals = [rand_finite_dual(rng, inst) for _ in range(3)]
        empty = any(feas.is_empty for _, _, _, feas, _ in walk(inst, True, FINE))
        walks.clear()
        reports = [assumption_report(inst) for _ in range(3)]
        for d in duals:
            assert (conj_pointwise(inst, d) == NEG_INF) == empty
            assert (support_DS(inst, d) == NEG_INF) == empty
        assert walks == [(inst, True, FINE)] * 2
        assert reports[1] is reports[0] and reports[2] is reports[0]


# -- one walk per instance and form, shared by every reader ---------------------------

FORMS = ((False, 1), (True, 1), (True, FINE), (True, 3))


def assert_same_walk(got, want):
    """Two walks, tuple by tuple: the same slots, cells, typed masses and
    interval ends, and the same typed atoms on the same integrand objects."""
    assert len(got) == len(want)
    for (i, cell, mass, feas, terms), (wi, wcell, wmass, wfeas, wterms) in zip(got, want):
        assert (i, cell, typed(mass)) == (wi, wcell, typed(wmass))
        assert (typed(feas.lo), typed(feas.hi)) == (typed(wfeas.lo), typed(wfeas.hi))
        assert [(typed(a), id(fn)) for a, fn in terms] == [(typed(a), id(fn)) for a, fn in wterms]


def walk_instances():
    for seed in range(8):
        for kind in KINDS:
            yield f"{kind}-{seed}", drawn_instance(seed, kind)[0]
    for name, doc in PRESETS.items():
        yield name, doc.instance


@pytest.mark.parametrize("name,inst", walk_instances())
def test_a_walk_is_built_once_per_instance_whatever_order_the_forms_are_asked_in(name, inst):
    # a key without hatted or without factor hands one form another's walk,
    # in some order of asking; a copy has an empty memo and builds again
    fresh = {form: duality._build_coordinates(inst, *form) for form in FORMS}
    before = {}
    for order in itertools.permutations(FORMS):
        x = dataclasses.replace(inst)
        walks = {form: _coordinates(x, *form) for form in order}
        for form in FORMS:
            assert type(walks[form]) is tuple
            assert_same_walk(walks[form], fresh[form])
            assert _coordinates(x, *form) is walks[form]
            assert walks[form] is not before.get(form)
        before = walks


@pytest.mark.parametrize("kind", KINDS)
def test_the_readers_of_one_instance_build_each_walk_once(monkeypatch, kind):
    build, built = duality._build_coordinates, []

    def counted(inst, hatted, factor):
        built.append((id(inst), hatted, factor))
        return build(inst, hatted, factor)

    monkeypatch.setattr(duality, "_build_coordinates", counted)
    with_path = 0
    for seed in range(10):
        inst, rng = drawn_instance(seed, kind)
        d = rand_finite_dual(rng, inst)
        try:
            y = rand_feasible_path(rng, inst)
        except ValueError:  # no finite-valued path to price
            y = None
        inst = dataclasses.replace(inst)  # no memo: the draws read the walks
        built.clear()
        assumption_report(inst)
        conj_pointwise(inst, d)
        support_DS(inst, d)
        interchange_stoch(inst, "F")
        interchange_stoch(inst, "Fhat")
        if y is not None:
            with_path += 1
            eval_Fhat(inst, y)
            subdiff_check(inst, y, d)
        assert sorted(set(built)) == sorted(built)
        assert {(id(inst), True, FINE), (id(inst), False, 1)} <= set(built)
        if y is not None:
            assert (id(inst), True, 1) in built
    assert with_path


def memoised_walks(inst, seen=None):
    """Every walk memoised on ``inst`` and on the instances memoised on it
    (its refinements, its constraint indicator), with its key."""
    seen = set() if seen is None else seen
    if id(inst) in seen:
        return
    seen.add(id(inst))
    for key, value in vars(inst).get("_memo", {}).items():
        if isinstance(key, tuple) and key[0] == "coordinates":
            yield inst, key, value
        elif isinstance(value, Instance):
            yield from memoised_walks(value, seen)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_no_theorem_changes_a_shared_walk(name, capsys):
    path = str(bundled_instance_path(name))
    for theorem in cli.THEOREMS:
        try:
            cli.main(["verify", path, "--theorem", theorem])
        except ValueError:  # interchange-det on a multi-scenario preset
            pass
    capsys.readouterr()
    walks = list(memoised_walks(load_instance(path).instance))  # the document verified
    assert ("coordinates", True, FINE) in {key for _, key, _ in walks}
    for inst, (_, hatted, factor), walk in walks:
        assert_same_walk(walk, duality._build_coordinates(inst, hatted, factor))
