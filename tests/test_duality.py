"""Primal/dual functionals, conjugate formulas, interchange rules."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadlagconvex.duality import (FINE, BudgetExceededError, DualPair, Instance,
                                  _coordinates, assumption_report, bruteforce_gap_bound,
                                  conj_bruteforce, conj_pointwise, eval_F,
                                  eval_Fhat, indicator_integrand, interchange_det,
                                  interchange_stoch, make_instance,
                                  subdiff_check, support_DS)
from cadlagconvex.generators import (rand_coarse, rand_feasible_path,
                                     rand_finite_dual, rand_grid,
                                     rand_passing_instance, rand_plconvex)
from cadlagconvex.plconvex import (RInterval, abs_fn, indicator, pl, restrict)
from cadlagconvex.presets import PRESET_NAMES, bundled_instance_path
from cadlagconvex.rationals import INF, NEG_INF, is_finite, xsum
from cadlagconvex.scenario import (RandomIntegrand, RandomMeasure, RandomPath,
                                   RandomSetMap, ScenarioTree,
                                   expected_pairing)
from cadlagconvex.serialize import instance_doc_from_json, load_instance
from cadlagconvex.setmaps import SetMap
from cadlagconvex.timegrid import GridMeasure, StepPath, TimeGrid, eval_I

from conftest import (_fixed_value_sets, _zero_start_ok, forget_last_load, preset,
                      rand_interval, rand_setmap, refined_pinned_start)

G2 = TimeGrid((0, 1))
G3 = TimeGrid((0, 1, 2))


def det_instance(fns, mu_atoms, grid=None, **kwargs):
    grid = grid or TimeGrid(tuple(range(len(fns))))
    tree = ScenarioTree.deterministic(len(fns))
    h = RandomIntegrand(tree, grid, {"w": tuple(fns)}, "optional")
    mu = RandomMeasure(tree, grid, {"w": GridMeasure(grid, tuple(mu_atoms))})
    extra = {}
    for key, val in kwargs.items():
        extra[key] = val
    return make_instance(tree, grid, h, mu, **extra)


def det_dual(inst, u_atoms, ut_atoms=None):
    tree, grid = inst.tree, inst.grid
    ut_atoms = ut_atoms or (0,) * grid.n_slots
    return DualPair(
        RandomMeasure(tree, grid, {"w": GridMeasure(grid, tuple(u_atoms))}),
        RandomMeasure(tree, grid, {"w": GridMeasure(grid, tuple(ut_atoms))}))


def det_path(inst, values):
    return RandomPath(inst.tree, inst.grid, {"w": StepPath(inst.grid, tuple(values))})


def two_tree():
    half = F(1, 2)
    return ScenarioTree(("a", "b"), (half, half),
                        ((("a", "b"),), (("a",), ("b",))))


def split_at_start(tree):
    """``tree`` with its first partition split into single scenarios."""
    return ScenarioTree(tree.scenarios, tree.probs,
                        (tuple((s,) for s in tree.scenarios),) + tree.partitions[1:])


def on_grid(part, grid):
    """A measure, integrand or set-map family with the same data on ``grid``."""
    if isinstance(part, RandomMeasure):
        return RandomMeasure(part.tree, grid, {s: GridMeasure(grid, m.atoms)
                                               for s, m in part.measures.items()})
    if isinstance(part, RandomSetMap):
        return RandomSetMap(part.tree, grid, {s: SetMap(grid, m.point_vals, m.open_vals)
                                              for s, m in part.maps.items()})
    return dataclasses.replace(part, grid=grid)


def pinned_start_doc():
    """The basic preset with Stilde(0) = [1, 2], which misses the left limit
    0 at t_0: no path is feasible for the hatted functional."""
    with open(bundled_instance_path("basic"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for s in ("up", "dn"):
        doc["setmap_Stilde"][s]["point_vals"][0] = ["1", "2"]
    return instance_doc_from_json(doc)


class TestOneTreeAndGrid:
    PARTS = ("h", "mu", "mutilde", "htilde", "S", "Stilde")
    G013 = TimeGrid((0, 1, 3))  # basic's grid is (0, 1, 2)

    @pytest.mark.parametrize("name", PARTS)
    def test_an_instance_part_on_another_tree_is_refused(self, name):
        inst = preset("basic").instance
        part = dataclasses.replace(getattr(inst, name), tree=split_at_start(inst.tree))
        with pytest.raises(ValueError, match=f"^{name} is not on the instance's tree$"):
            dataclasses.replace(inst, **{name: part})

    @pytest.mark.parametrize("name", PARTS)
    def test_an_instance_part_on_another_grid_is_refused(self, name):
        inst = preset("basic").instance
        part = on_grid(getattr(inst, name), self.G013)
        with pytest.raises(ValueError, match=f"^{name} is not on the instance's grid$"):
            dataclasses.replace(inst, **{name: part})

    def test_an_equal_tree_and_grid_are_accepted(self):
        inst = preset("basic").instance
        tree = ScenarioTree(inst.tree.scenarios, inst.tree.probs, inst.tree.partitions)
        grid = TimeGrid(inst.grid.times)
        assert tree is not inst.tree and grid is not inst.grid
        mu = on_grid(dataclasses.replace(inst.mu, tree=tree), grid)
        assert dataclasses.replace(inst, mu=mu).mu is mu

    def dual_consumers(self, doc, d):
        inst = doc.instance
        return [lambda: conj_pointwise(inst, d), lambda: support_DS(inst, d),
                lambda: conj_bruteforce(inst, d, 4, F(1, 100)),
                lambda: subdiff_check(inst, doc.paths[0], d)]

    def test_a_dual_pair_on_another_tree_is_refused(self):
        # the dual's tree splits up and dn at t_0, where basic's does not
        doc = preset("basic")
        tree, grid = split_at_start(doc.instance.tree), doc.instance.grid
        u = RandomMeasure(tree, grid, {"up": GridMeasure(grid, (1, 0, 0)),
                                       "dn": GridMeasure(grid, (-1, 0, 0))})
        d = DualPair(u, RandomMeasure.zero(tree, grid))
        for consume in self.dual_consumers(doc, d):
            with pytest.raises(ValueError, match="^dual pair is not on the instance's tree$"):
                consume()

    def test_a_dual_pair_on_another_grid_is_refused(self):
        doc = preset("basic")
        d = DualPair(*(on_grid(m, self.G013) for m in (doc.duals[0].u, doc.duals[0].ut)))
        for consume in self.dual_consumers(doc, d):
            with pytest.raises(ValueError, match="^dual pair is not on the instance's grid$"):
                consume()


class TestEvalF:
    def test_unconstrained_zero_path(self):
        inst = det_instance([abs_fn(), abs_fn()], (1, 1), grid=G2)
        assert eval_F(inst, det_path(inst, (0, 0))) == 0

    def test_constraint_violation_is_infinite(self):
        box = restrict(abs_fn(), RInterval(F(-1), F(1)))
        inst = det_instance([box, box], (1, 1), grid=G2)
        assert eval_F(inst, det_path(inst, (2, 0))) == INF

    def test_two_scenario_direct_sum(self):
        tree = two_tree()
        h = RandomIntegrand(tree, G2, {s: (abs_fn(),) * 2 for s in ("a", "b")}, "optional")
        mu = RandomMeasure(tree, G2, {s: GridMeasure(G2, (1, 1)) for s in ("a", "b")})
        inst = make_instance(tree, G2, h, mu)
        y = RandomPath(tree, G2, {s: StepPath(G2, (1, 2)) for s in ("a", "b")})
        assert eval_F(inst, y) == 3
        assert eval_Fhat(inst, y) == 3

    def test_non_adapted_path_rejected(self):
        tree = two_tree()
        h = RandomIntegrand(tree, G2, {s: (abs_fn(),) * 2 for s in ("a", "b")}, "optional")
        mu = RandomMeasure(tree, G2, {s: GridMeasure(G2, (1, 1)) for s in ("a", "b")})
        inst = make_instance(tree, G2, h, mu)
        y = RandomPath(tree, G2, {"a": StepPath(G2, (1, 0)), "b": StepPath(G2, (2, 0))})
        with pytest.raises(ValueError):
            eval_F(inst, y)

    @pytest.mark.parametrize("value", [0, 5])  # feasible on its grid or not
    def test_a_path_on_another_grid_is_rejected(self, value):
        box = restrict(abs_fn(), RInterval(F(-1), F(1)))
        inst = det_instance([box, box], (1, 1), grid=G2)
        y = det_path(det_instance([box] * 3, (1, 1, 1), grid=G3), (value,) * 3)
        for evaluate in (eval_F, eval_Fhat):
            with pytest.raises(ValueError, match="grid mismatch"):
                evaluate(inst, y)

    def test_a_path_adapted_only_to_another_tree_is_rejected(self):
        # up and dn share one cell at t_0 in basic; this tree splits them
        inst = preset("basic").instance
        split = ScenarioTree(inst.tree.scenarios, inst.tree.probs,
                             ((("up",), ("dn",)),) + inst.tree.partitions[1:])
        y = RandomPath(split, inst.grid, {"up": StepPath(inst.grid, (1, 0, 0)),
                                          "dn": StepPath(inst.grid, (-1, 0, 0))})
        for evaluate in (eval_F, eval_Fhat):
            with pytest.raises(ValueError, match="adapted to the instance's tree"):
                evaluate(inst, y)

    def test_subdiff_check_rejects_such_a_path_with_its_primal_given(self):
        # a primal passed in skips eval_Fhat, so the path is checked on its own
        doc = preset("basic")
        inst = doc.instance
        y = RandomPath(split_at_start(inst.tree), inst.grid,
                       {"up": StepPath(inst.grid, (1, 0, 0)), "dn": StepPath(inst.grid, (-1, 0, 0))})
        for primal in (None, F(0)):
            with pytest.raises(ValueError, match="^path must be adapted to the instance's tree$"):
                subdiff_check(inst, y, doc.duals[0], primal)


def fhat_slot_loop(inst, y):
    """eval_Fhat with the slot-by-slot feasibility loop it had before it read
    the feasible value sets; kept only as the reference of the test below."""
    n = inst.grid.n_slots
    vals = {}
    for s in inst.tree.scenarios:
        path = y.paths[s]
        smap, stmap = inst.s_map(s), inst.st_map(s)
        left = StepPath(inst.grid, path.left_values())
        feasible = smap.is_selection(path)
        if feasible:
            lefts = path.left_values()
            for i in range(n):
                if not stmap.point_vals[i].contains(lefts[i]):
                    feasible = False
                    break
            if feasible:
                for i in range(n - 1):
                    if not stmap.open_vals[i].contains(path.values[i]):
                        feasible = False
                        break
        if not feasible:
            vals[s] = INF
            continue
        vals[s] = xsum([
            eval_I(inst.h.functions[s], path, inst.mu.measures[s]),
            eval_I(inst.htilde.functions[s], left, inst.mutilde.measures[s]),
        ])
    return inst.tree.expectation(vals)


def random_constrained_instance(rng):
    """One scenario, so any maps are adapted and predictable: S is drawn
    independently of h, and Stilde of S, or as its left-limit map, or as that
    map with a random value at t_0 (which need not hold the left limit 0)."""
    grid = rand_grid(rng, 3)
    tree = ScenarioTree.deterministic(grid.n_slots)

    def measure(atoms):
        return RandomMeasure(tree, grid, {"w": GridMeasure(grid, tuple(atoms))})
    h = RandomIntegrand(tree, grid, {"w": tuple(rand_plconvex(rng) for _ in grid.times)},
                        "optional")
    S, Stilde = (RandomSetMap(tree, grid, {"w": rand_setmap(rng, grid, rng.random() < 0.5)})
                 for _ in range(2))
    kind = rng.randrange(3)
    if kind:
        vec = S.maps["w"].vec_map()
        start = vec.point_vals[0] if kind == 1 else rand_interval(rng)
        Stilde = RandomSetMap(tree, grid, {"w": SetMap(grid, (start,) + vec.point_vals[1:],
                                                       vec.open_vals)})
    return make_instance(tree, grid, h, measure(rng.randint(0, 2) for _ in grid.times),
                         measure(rng.randint(0, 2) for _ in grid.times), None, S, Stilde)


def random_adapted_path(rng, inst, base=None):
    """Coarse values drawn per partition cell; with ``base``, one cell moved."""
    tree, n = inst.tree, inst.grid.n_slots
    vals = {s: list(base.paths[s].values) if base else [None] * n for s in tree.scenarios}
    coords = [(i, cell) for i in range(n) for cell in tree.cells(i)]
    for i, cell in [rng.choice(coords)] if base else coords:
        v = rand_coarse(rng)
        for s in cell:
            vals[s][i] = v
    return RandomPath(tree, inst.grid, {s: StepPath(inst.grid, tuple(v)) for s, v in vals.items()})


def fhat_case(seed, instance, path):
    """An instance and an adapted path: a feasible one, one with a cell moved,
    or one drawn cell by cell (also when no feasible path exists)."""
    rng = random.Random(seed)
    if instance == "passing":
        inst = rand_passing_instance(rng, max_scenarios=3, max_cells=3,
                                     with_htilde=rng.random() < 0.5)
    else:
        inst = random_constrained_instance(rng)
    try:
        y = rand_feasible_path(rng, inst) if path != "drawn" else None
    except ValueError:
        y = None
    if y is None or path == "moved":
        y = random_adapted_path(rng, inst, y)
    return inst, y


FHAT_INSTANCES, FHAT_PATHS = ("passing", "constrained"), ("feasible", "moved", "drawn")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FHAT_INSTANCES), st.sampled_from(FHAT_PATHS))
def test_eval_Fhat_equals_the_slot_loop(seed, instance, path):
    inst, y = fhat_case(seed, instance, path)
    assert eval_Fhat(inst, y) == fhat_slot_loop(inst, y)


@pytest.mark.parametrize("instance", FHAT_INSTANCES)
def test_the_cases_hold_feasible_and_infeasible_paths(instance):
    finite = {path: [fhat_slot_loop(*fhat_case(seed, instance, path)) != INF
                     for seed in range(60)] for path in FHAT_PATHS}
    assert any(finite["feasible"]) and any(finite["moved"] + finite["drawn"])
    assert not all(finite["moved"]) and not all(finite["drawn"])


class TestConjPointwise:
    def test_zero_dual_with_nonnegative_integrand(self):
        inst = det_instance([abs_fn(), abs_fn()], (1, 1), grid=G2)
        d = det_dual(inst, (0, 0))
        assert conj_pointwise(inst, d) == 0

    def test_density_beyond_slope_range_is_infinite(self):
        inst = det_instance([abs_fn(), abs_fn()], (1, 0), grid=G2)
        d = det_dual(inst, (2, 0))
        assert conj_pointwise(inst, d) == INF

    def test_singular_atom_with_unbounded_domain_is_infinite(self):
        # the recession of the conjugate of |.| is the support function of
        # the whole line: a singular atom against it costs +inf, and the
        # direct sup over paths confirms it (the slot coordinate is free)
        inst = det_instance([abs_fn(), abs_fn()], (1, 0), grid=G2)
        d = det_dual(inst, (F(1, 2), 3))
        assert conj_pointwise(inst, d) == INF
        lower = conj_bruteforce(inst, d, B=4, delta=F(1, 4))
        bigger = conj_bruteforce(inst, d, B=8, delta=F(1, 4))
        assert bigger > lower  # diverges as the box grows

    def test_singular_atom_with_clipped_domain(self):
        # clipping the slot-1 domain to [0, 1] makes the singular direction
        # pay the support of [0, 1]: J = h*(1/2) * 1 + 3 * 1 = 3
        clipped = restrict(abs_fn(), RInterval(F(0), F(1)))
        inst = det_instance([abs_fn(), clipped], (1, 0), grid=G2)
        d = det_dual(inst, (F(1, 2), 3))
        assert conj_pointwise(inst, d) == 3
        brute = conj_bruteforce(inst, d, B=4, delta=F(1, 100))
        assert 0 <= conj_pointwise(inst, d) - brute <= bruteforce_gap_bound(d, F(1, 100))

    def test_empty_fine_coordinate_gives_sentinel(self):
        # no path is feasible, so Fhat is +inf everywhere and its conjugate is
        # -inf: Stilde(0) misses the pinned left limit 0, or the point value
        # at t_1 misses the cells around it
        box, unit = RInterval(F(0), F(2)), RInterval(F(0), F(1))
        tree2, tree3 = ScenarioTree.deterministic(2), ScenarioTree.deterministic(3)
        gapped = SetMap(G3, (unit, RInterval(F(3), F(4)), unit), (unit, unit))
        cases = [
            det_instance([abs_fn()] * 2, (1, 1), grid=G2,
                         S=RandomSetMap(tree2, G2, {"w": SetMap.constant(G2, box)}),
                         Stilde=RandomSetMap(tree2, G2, {"w": SetMap(
                             G2, (RInterval(F(1), F(2)), box), (box,))})),
            det_instance([abs_fn()] * 3, (1, 1, 1), grid=G3,
                         S=RandomSetMap(tree3, G3, {"w": gapped}),
                         Stilde=RandomSetMap(tree3, G3, {"w": gapped}).vec_map()),
        ]
        for inst in cases:
            d = det_dual(inst, (F(1, 2),) * inst.grid.n_slots, (1,) * inst.grid.n_slots)
            assert conj_pointwise(inst, d) == NEG_INF
            assert conj_bruteforce(inst, d, B=4, delta=F(1, 2)) == NEG_INF


class TestConjBruteforce:
    def test_zero_dual_bounded_by_zero(self):
        inst = det_instance([abs_fn(), abs_fn()], (1, 1), grid=G2)
        d = det_dual(inst, (0, 0))
        val = conj_bruteforce(inst, d, B=2, delta=F(1, 2))
        assert val == 0  # 0 is feasible and optimal

    def test_infeasible_constraints_give_sentinel(self):
        # a point value escaping both neighboring cells at an interior slot
        # leaves no right-continuous selection at all
        smap = RandomSetMap(ScenarioTree.deterministic(3), G3, {
            "w": SetMap(G3, (RInterval(F(0), F(1)), RInterval(F(3), F(4)),
                             RInterval(F(0), F(1))),
                        (RInterval(F(0), F(1)), RInterval(F(0), F(1))))})
        inst = det_instance([abs_fn()] * 3, (1, 1, 1), grid=G3, S=smap,
                            Stilde=smap.vec_map())
        d = det_dual(inst, (0, 0, 0))
        assert conj_bruteforce(inst, d, B=6, delta=F(1, 2)) == NEG_INF

    def test_the_oracle_and_the_report_share_one_refined_instance(self, monkeypatch):
        idoc = load_instance(bundled_instance_path("basic"))
        want = (conj_bruteforce(idoc.instance, idoc.duals[0], B=4, delta=F(1, 4)),
                assumption_report(idoc.instance))
        forget_last_load()  # new objects, whose refinement is not yet built
        idoc = load_instance(bundled_instance_path("basic"))
        inst, d = idoc.instance, idoc.duals[0]
        builds = []
        build = Instance._refine

        def counting(self, factor):
            builds.append(factor)
            return build(self, factor)
        monkeypatch.setattr(Instance, "_refine", counting)
        assert (conj_bruteforce(inst, d, B=4, delta=F(1, 4)),
                assumption_report(inst)) == want
        assert conj_bruteforce(inst, idoc.duals[1], B=4, delta=F(1, 4)) != NEG_INF
        assert builds == [FINE]

    def test_budget_cap(self):
        inst = det_instance([abs_fn()] * 3, (1, 1, 1), grid=G3)
        d = det_dual(inst, (0, 0, 0))
        with pytest.raises(BudgetExceededError) as err:
            conj_bruteforce(inst, d, B=2, delta=F(1, 100), budget=10)
        assert err.value.needed > 10

    def test_matches_full_path_enumeration(self):
        """Duplication guard: coordinate maximization vs literal path search."""
        tree = two_tree()
        box = restrict(abs_fn(), RInterval(F(-1), F(1)))
        h = RandomIntegrand(tree, G2, {s: (box, box) for s in ("a", "b")}, "optional")
        mu = RandomMeasure(tree, G2, {"a": GridMeasure(G2, (1, 2)),
                                      "b": GridMeasure(G2, (1, 1))})
        mut = RandomMeasure(tree, G2, {s: GridMeasure(G2, (0, 1)) for s in ("a", "b")})
        inst = make_instance(tree, G2, h, mu, mut)
        d = DualPair(
            RandomMeasure(tree, G2, {"a": GridMeasure(G2, (1, F(3, 2))),
                                     "b": GridMeasure(G2, (1, -1))}),
            RandomMeasure(tree, G2, {s: GridMeasure(G2, (0, F(1, 2))) for s in ("a", "b")}))
        B, delta = F(1), F(1, 2)
        lattice = [F(k, 2) for k in range(-2, 3)]
        r = inst.refine(2)
        rd = d.refine(2)
        best = NEG_INF
        coords = []
        for i in range(r.grid.n_slots):
            coords.append(list(r.tree.cells(i)))
        choices = [lattice] * sum(len(c) for c in coords)
        slots_cells = [(i, cell) for i, cells in enumerate(coords) for cell in cells]
        for combo in itertools.product(*choices):
            vals = {s: [None] * r.grid.n_slots for s in ("a", "b")}
            for (i, cell), v in zip(slots_cells, combo):
                for s in cell:
                    vals[s][i] = v
            y = RandomPath(r.tree, r.grid,
                           {s: StepPath(r.grid, tuple(vals[s])) for s in ("a", "b")})
            primal = eval_Fhat(r, y)
            if primal == INF:
                continue
            cand = expected_pairing(y, rd.u, rd.ut) - primal
            best = cand if best == NEG_INF else max(best, cand)
        assert conj_bruteforce(inst, d, B, delta) == best


class TestSubdiff:
    def make_abs_instance(self):
        tree = two_tree()
        h = RandomIntegrand(tree, G2, {s: (abs_fn(),) * 2 for s in ("a", "b")}, "optional")
        mu = RandomMeasure(tree, G2, {s: GridMeasure(G2, (1, 1)) for s in ("a", "b")})
        return make_instance(tree, G2, h, mu)

    def test_densities_inside_subdifferential(self):
        inst = self.make_abs_instance()
        y = RandomPath(inst.tree, G2, {s: StepPath(G2, (0, 0)) for s in ("a", "b")})
        d = DualPair(
            RandomMeasure(inst.tree, G2, {"a": GridMeasure(G2, (F(1, 2), 1)),
                                          "b": GridMeasure(G2, (F(1, 2), F(-1, 3)))}),
            RandomMeasure.zero(inst.tree, G2))
        rep = subdiff_check(inst, y, d)
        assert rep["all_inclusions"] and rep["fenchel_equality"] and rep["equivalence_ok"]

    def test_density_outside_fails_with_positive_gap(self):
        inst = self.make_abs_instance()
        y = RandomPath(inst.tree, G2, {s: StepPath(G2, (0, 0)) for s in ("a", "b")})
        d = DualPair(
            RandomMeasure(inst.tree, G2, {s: GridMeasure(G2, (2, 0)) for s in ("a", "b")}),
            RandomMeasure.zero(inst.tree, G2))
        rep = subdiff_check(inst, y, d)
        assert not rep["all_inclusions"]
        assert rep["fenchel_gap"] == INF or rep["fenchel_gap"] > 0
        assert rep["equivalence_ok"]

    def test_singular_normal_cone_at_boundary(self):
        box = restrict(abs_fn(), RInterval(F(-1), F(1)))
        inst = det_instance([box, box], (1, 0), grid=G2)
        y = det_path(inst, (0, 1))  # slot 1 sits at the right endpoint
        d = det_dual(inst, (0, 2))  # positive singular atom there
        rep = subdiff_check(inst, y, d)
        assert rep["all_inclusions"] and rep["fenchel_equality"]

    def test_infinite_primal_value_rejected(self):
        box = restrict(abs_fn(), RInterval(F(-1), F(1)))
        inst = det_instance([box, box], (1, 0), grid=G2)
        with pytest.raises(ValueError):
            subdiff_check(inst, det_path(inst, (5, 0)), det_dual(inst, (0, 0)))

    def test_assumption_report_pinpoints_slots(self):
        smap = RandomSetMap(ScenarioTree.deterministic(3), G3, {
            "w": SetMap(G3, (RInterval(F(0), F(2)), RInterval(F(0), F(2)),
                             RInterval(F(0), F(2))),
                        (RInterval(F(0), F(2)), RInterval(F(0), F(1))))})
        box = restrict(abs_fn(), RInterval(F(0), F(2)))
        inst = det_instance([box] * 3, (1, 1, 1), grid=G3, S=smap,
                            Stilde=smap.vec_map())
        rep = assumption_report(inst)
        assert not rep["all_ok"]
        assert rep["per_scenario"]["w"]["failing_slots"] == {
            "s_is_cl_dom_h": [1], "michael_S": [1], "cross_S_in_Stilde_cells": [1]}
        # slot 0 of htilde is judged by slot0_pinched alone
        start = SetMap(G3, (RInterval(F(0), F(1)),) + smap.maps["w"].vec_map().point_vals[1:],
                       smap.maps["w"].open_vals)
        htilde = indicator_integrand(RandomSetMap(inst.tree, G3, {"w": start}), "predictable")
        flags = assumption_report(det_instance([box] * 3, (1, 1, 1), grid=G3, S=smap,
                                               Stilde=smap.vec_map(), htilde=htilde))
        assert flags["per_scenario"]["w"]["failing_slots"] == \
            rep["per_scenario"]["w"]["failing_slots"]
        assert flags["summary"]["stilde_is_cl_dom_htilde"]
        assert not flags["summary"]["slot0_pinched"]

    def test_cross_conditions_read_the_other_map_s_cells(self):
        tree, zero, wide, narrow = (ScenarioTree.deterministic(3), RInterval(F(0), F(0)),
                                    RInterval(F(0), F(2)), RInterval(F(0), F(1)))
        S = RandomSetMap(tree, G3, {"w": SetMap.constant(G3, wide)})
        Stilde = RandomSetMap(tree, G3, {"w": SetMap(G3, (zero, wide, wide), (narrow,) * 2)})
        box = restrict(abs_fn(), wide)
        rep = assumption_report(det_instance([box] * 3, (1, 1, 1), grid=G3, S=S, Stilde=Stilde))
        assert rep["per_scenario"]["w"]["failing_slots"] == {
            "michael_Stilde": [1, 2], "cross_S_in_Stilde_cells": [0, 1]}


class TestInterchangeDet:
    def test_constraint_matching_domain_gives_equality(self):
        band = restrict(abs_fn(), RInterval(F(1), F(2)))
        inst = det_instance([band] * 3, (1, 1, 1), grid=G3)
        rep = interchange_det(inst, "cadlag")
        assert rep["ok"] and rep["assumptions_ok"]
        assert rep["lhs"] == rep["rhs"] == 3

    def test_hard_constraints_beyond_domain_report_gap(self):
        smap = RandomSetMap(ScenarioTree.deterministic(3), G3,
                            {"w": SetMap.constant(G3, RInterval(F(1), F(2)))})
        inst = det_instance([abs_fn()] * 3, (1, 1, 1), grid=G3, S=smap,
                            Stilde=smap.vec_map())
        rep = interchange_det(inst, "cadlag")
        assert not rep["assumptions"]["image_closure"]
        assert rep["lhs"] == 3 and rep["rhs"] == 0 and rep["gap"] == 3
        assert not rep["ok"]

    def test_zero_measure(self):
        inst = det_instance([abs_fn()] * 3, (0, 0, 0), grid=G3)
        rep = interchange_det(inst, "cadlag")
        assert rep["lhs"] == rep["rhs"] == 0 and rep["ok"]

    def test_caglad_side(self):
        zero = F(0)
        pinch = pl(zero, zero, (), (0,), zero, zero)
        kink = restrict(abs_fn(), RInterval(F(-2), F(2)))
        tree = ScenarioTree.deterministic(3)
        h = RandomIntegrand(tree, G3, {"w": (kink,) * 3}, "optional")
        ht = RandomIntegrand(tree, G3, {"w": (pinch, kink, kink)}, "predictable")
        mu = RandomMeasure.zero(tree, G3)
        mut = RandomMeasure(tree, G3, {"w": GridMeasure(G3, (0, 1, 2))})
        inst = make_instance(tree, G3, h, mu, mut, ht)
        rep = interchange_det(inst, "caglad")
        assert rep["ok"] and rep["lhs"] == rep["rhs"] == 0

    def test_domain_closure_reads_an_uncharged_slot(self):
        # mu_1 = 0 charges nothing at slot 1, yet h_1's domain [-1, 1] lies
        # strictly inside S's attainable set [-2, 2] there
        S = RandomSetMap(ScenarioTree.deterministic(3), G3,
                         {"w": SetMap.constant(G3, RInterval(F(-2), F(2)))})
        narrow = restrict(abs_fn(), RInterval(F(-1), F(1)))
        rep = interchange_det(det_instance([abs_fn(), narrow, abs_fn()], (1, 0, 1),
                                           grid=G3, S=S), "cadlag")
        assert not rep["assumptions"]["domain_closure"] and not rep["assumptions_ok"]
        assert rep["lhs"] == rep["rhs"] == 0 and rep["ok"]

    def test_domain_closure_reads_an_uncharged_slot_on_the_caglad_side(self):
        # mutilde_1 = 0 charges nothing at slot 1, yet htilde_1's domain
        # [-1, 1] lies strictly inside Stilde's set [-2, 2] there
        tree, wide = ScenarioTree.deterministic(3), RInterval(F(-2), F(2))
        Stilde = RandomSetMap(tree, G3, {"w": SetMap.constant(G3, wide)})
        narrow = restrict(abs_fn(), RInterval(F(-1), F(1)))
        ht = RandomIntegrand(tree, G3, {"w": (abs_fn(), narrow, abs_fn())}, "predictable")
        mut = RandomMeasure(tree, G3, {"w": GridMeasure(G3, (1, 0, 1))})
        inst = det_instance([restrict(abs_fn(), wide)] * 3, (0, 0, 0), grid=G3,
                            mutilde=mut, htilde=ht, Stilde=Stilde)
        rep = interchange_det(inst, "caglad")
        assert not rep["assumptions"]["domain_closure"] and not rep["assumptions_ok"]
        assert rep["lhs"] == rep["rhs"] == 0 and rep["ok"]

    def test_requires_single_scenario(self):
        tree = two_tree()
        h = RandomIntegrand(tree, G2, {s: (abs_fn(),) * 2 for s in ("a", "b")}, "optional")
        mu = RandomMeasure(tree, G2, {s: GridMeasure(G2, (1, 1)) for s in ("a", "b")})
        inst = make_instance(tree, G2, h, mu)
        with pytest.raises(ValueError):
            interchange_det(inst)


class TestInterchangeStoch:
    def test_deterministic_reduces_to_det(self):
        band = restrict(abs_fn(), RInterval(F(1), F(2)))
        inst = det_instance([band] * 3, (1, 1, 1), grid=G3)
        det = interchange_det(inst, "cadlag")
        sto = interchange_stoch(inst, "F")
        assert sto["lhs"] == det["lhs"] and sto["rhs"] == det["rhs"] and sto["ok"]

    def test_scenario_dependent_minimizers(self):
        tree = two_tree()
        shift = {"a": F(2), "b": F(-1)}
        h = RandomIntegrand(tree, G2, {
            s: (abs_fn(), pl(NEG_INF, INF, (shift[s],), (-1, 1), shift[s], 0))
            for s in ("a", "b")}, "optional")
        mu = RandomMeasure(tree, G2, {s: GridMeasure(G2, (1, 1)) for s in ("a", "b")})
        inst = make_instance(tree, G2, h, mu)
        rep = interchange_stoch(inst, "F")
        assert rep["ok"] and rep["lhs"] == rep["rhs"] == 0
        assert rep["witness"].paths["a"].values[1] == 2
        assert rep["witness"].paths["b"].values[1] == -1

    def test_pasting_witness_achieves_infimum(self):
        tree = two_tree()
        kink = restrict(abs_fn(), RInterval(F(-6), F(6)))
        target = pl(F(-6), F(6), (F(5),), (-1, 1), F(5), F(0))
        zero = F(0)
        pinch = pl(zero, zero, (), (0,), zero, zero)
        h = RandomIntegrand(tree, G2, {s: (kink, kink) for s in ("a", "b")}, "optional")
        ht = RandomIntegrand(tree, G2, {s: (pinch, target) for s in ("a", "b")},
                             "predictable")
        mu = RandomMeasure(tree, G2, {s: GridMeasure(G2, (1, 1)) for s in ("a", "b")})
        mut = RandomMeasure(tree, G2, {s: GridMeasure(G2, (0, 3)) for s in ("a", "b")})
        inst = make_instance(tree, G2, h, mu, mut, ht)
        rep = interchange_stoch(inst, "Fhat")
        assert rep["ok"] and rep["lhs"] == rep["rhs"] == 0
        # the witness jumps to the left-limit target on the announcing half-cell
        z = rep["witness"]
        assert z.paths["a"].values[1] == 5 and z.paths["a"].values[0] == 0
        assert rep["witness_value"] == 0

    def test_rhs_charges_the_atom_at_time_zero(self):
        # the left limit at t_0 is pinned to 0, which is no coordinate, but the
        # right-hand side still integrates mutilde_0 against inf htilde_0
        tree = ScenarioTree.deterministic(2)
        h = RandomIntegrand(tree, G2, {"w": (abs_fn(), abs_fn())}, "optional")
        shifted = pl(NEG_INF, INF, (F(1),), (-1, 1), F(1), F(-1))  # |x - 1| - 1
        ht = RandomIntegrand(tree, G2, {"w": (shifted, abs_fn())}, "predictable")
        mut = RandomMeasure(tree, G2, {"w": GridMeasure(G2, (1, 0))})
        inst = make_instance(tree, G2, h, RandomMeasure.zero(tree, G2), mut, ht)
        rep = interchange_stoch(inst, "Fhat")
        assert rep["lhs"] == 0 and rep["rhs"] == -1 and not rep["ok"]


    def test_an_empty_pinned_start_has_no_witness(self):
        # every value coordinate is feasible and records a path value; only
        # the pinned start is empty, so the infimum is +inf
        rep = interchange_stoch(pinned_start_doc().instance, "Fhat")
        assert rep["lhs"] == INF and rep["vacuous"] and rep["ok"]
        assert rep["witness"] is None and "witness_value" not in rep

    def test_an_infinite_pinned_charge_has_no_witness(self):
        # the left limit 0 at t_0 is feasible, but mutilde_0 = 1 charges it
        # with the indicator of {1}: no path attains the +inf infimum
        inst = preset("basic").instance
        tree, grid, one = inst.tree, inst.grid, indicator(RInterval(F(1), F(1)))
        ht = RandomIntegrand(tree, grid, {s: (one,) + fns[1:] for s, fns
                                          in inst.htilde.functions.items()}, "predictable")
        mut = RandomMeasure(tree, grid, {s: GridMeasure(grid, (1,) + m.atoms[1:])
                                         for s, m in inst.mutilde.measures.items()})
        rep = interchange_stoch(dataclasses.replace(inst, htilde=ht, mutilde=mut), "Fhat")
        assert rep["lhs"] == INF and rep["witness"] is None


class TestSupportDS:
    def test_unit_ball(self):
        smap = RandomSetMap(ScenarioTree.deterministic(3), G3,
                            {"w": SetMap.constant(G3, RInterval(F(-1), F(1)))})
        inst = det_instance([indicator(RInterval(F(-1), F(1)))] * 3, (0, 0, 0),
                            grid=G3, S=smap)
        assert support_DS(inst, det_dual(inst, (1, 0, 0))) == 1

    def test_halfline_negative_direction(self):
        half = RInterval(F(0), INF)
        smap = RandomSetMap(ScenarioTree.deterministic(3), G3,
                            {"w": SetMap.constant(G3, half)})
        inst = det_instance([indicator(half)] * 3, (0, 0, 0), grid=G3, S=smap)
        assert support_DS(inst, det_dual(inst, (-2, 0, 0))) == 0
        assert support_DS(inst, det_dual(inst, (2, 0, 0))) == INF

    def test_predictable_atom_against_vec_map_with_bruteforce(self):
        box = RInterval(F(0), F(1))
        smap = RandomSetMap(ScenarioTree.deterministic(3), G3,
                            {"w": SetMap.constant(G3, box)})
        inst = det_instance([indicator(box)] * 3, (0, 0, 0), grid=G3, S=smap)
        d = det_dual(inst, (0, 0, 0), (0, 1, 0))
        val = support_DS(inst, d)
        assert val == 1
        brute = conj_bruteforce(inst, d, B=2, delta=F(1, 4))
        assert 0 <= val - brute <= bruteforce_gap_bound(d, F(1, 4))

    def test_terminal_jump_keeps_selections(self):
        # a jump into a disjoint terminal point value is right-continuous,
        # so the selection set stays nonempty and the support is finite
        smap = RandomSetMap(ScenarioTree.deterministic(2), G2, {
            "w": SetMap(G2, (RInterval(F(0), F(1)), RInterval(F(3), F(4))),
                        (RInterval(F(0), F(1)),))})
        inst = det_instance([abs_fn()] * 2, (0, 0), grid=G2, S=smap,
                            Stilde=smap.vec_map())
        assert support_DS(inst, det_dual(inst, (0, 1))) == 4

    def test_empty_selection_set_gives_sentinel(self):
        smap = RandomSetMap(ScenarioTree.deterministic(3), G3, {
            "w": SetMap(G3, (RInterval(F(0), F(1)), RInterval(F(3), F(4)),
                             RInterval(F(0), F(1))),
                        (RInterval(F(0), F(1)), RInterval(F(0), F(1))))})
        inst = det_instance([abs_fn()] * 3, (0, 0, 0), grid=G3, S=smap,
                            Stilde=smap.vec_map())
        assert support_DS(inst, det_dual(inst, (0, 0, 0))) == NEG_INF

    def test_stilde_at_0_missing_0_gives_sentinel(self):
        # the left limit at t_0 is pinned to 0, so no path is a selection
        # when Stilde(0) misses 0, though every fine coordinate is nonempty
        box = RInterval(F(0), F(2))
        tree = ScenarioTree.deterministic(2)
        inst = det_instance([indicator(box)] * 2, (0, 0), grid=G2,
                            S=RandomSetMap(tree, G2, {"w": SetMap.constant(G2, box)}),
                            Stilde=RandomSetMap(tree, G2, {"w": SetMap(
                                G2, (RInterval(F(1), F(2)), box), (box,))}))
        d = det_dual(inst, (1, 0), (0, 1))
        assert support_DS(inst, d) == NEG_INF
        assert conj_bruteforce(inst, d, B=4, delta=F(1, 2)) == NEG_INF


class TestProperties:
    def test_adapted_paths_solid_and_max_stable(self):
        # the space of all adapted step paths is closed under domination and
        # pointwise maxima of absolute values; asserted once, structurally
        rng = random.Random(97)
        tree = two_tree()
        from cadlagconvex.scenario import check_adapted

        def adapted():
            root = F(rng.randint(-4, 4))
            return RandomPath(tree, G2, {
                s: StepPath(G2, (root, F(rng.randint(-4, 4)))) for s in ("a", "b")})

        for _ in range(25):
            y1, y2 = adapted(), adapted()
            envelope = RandomPath(tree, G2, {
                s: StepPath(G2, tuple(max(abs(a), abs(b)) for a, b in
                                      zip(y1.paths[s].values, y2.paths[s].values)))
                for s in ("a", "b")})
            assert check_adapted(envelope)
            # domination never leaves the space: any adapted path below the
            # envelope in absolute value is again a member (adaptedness is
            # the only membership condition)
            shrunk = RandomPath(tree, G2, {
                s: StepPath(G2, tuple(v / 2 for v in envelope.paths[s].values))
                for s in ("a", "b")})
            assert check_adapted(shrunk)

    def test_weak_duality_on_passing_instances(self):
        rng = random.Random(101)
        for k in range(8):
            inst = rand_passing_instance(rng, with_htilde=(k % 2 == 0))
            d = rand_finite_dual(rng, inst)
            pointwise = conj_pointwise(inst, d)
            brute = conj_bruteforce(inst, d, B=2 * inst.magnitude_bound(),
                                    delta=F(1, 4))
            assert brute <= pointwise

    def test_fenchel_young_and_equality_cases(self):
        rng = random.Random(103)
        for k in range(8):
            inst = rand_passing_instance(rng, with_htilde=(k % 2 == 0))
            d = rand_finite_dual(rng, inst)
            y = rand_feasible_path(rng, inst)
            primal = eval_Fhat(inst, y)
            if primal == INF:
                continue
            conj = conj_pointwise(inst, d)
            pair = expected_pairing(y, d.u, d.ut)
            assert conj == INF or primal + conj >= pair
            if conj != INF:
                rep = subdiff_check(inst, y, d)
                assert rep["equivalence_ok"]

    def test_lsc_lemma_minorant_from_finite_dual(self):
        rng = random.Random(107)
        inst = rand_passing_instance(rng)
        d = rand_finite_dual(rng, inst)
        if conj_pointwise(inst, d) == INF:
            return
        # direction (a): densities of a finite dual give the affine minorant
        for s in inst.tree.scenarios:
            for i in range(inst.grid.n_slots):
                m = inst.mu.measures[s].atoms[i]
                if m == 0:
                    continue
                x = d.u.measures[s].atoms[i] / m
                alpha = max(inst.h.functions[s][i].conjugate()(x), F(0))
                fn = inst.h.functions[s][i]
                for probe in (F(-2), F(0), F(3, 2)):
                    assert fn(probe) >= x * probe - alpha

    def test_lsc_lemma_dual_representation_of_F(self):
        # direction (b): sup over slope-quantized duals of the pairing minus
        # the J-functional recovers F(y); with integrand slopes on the value
        # lattice the quantized family already contains the exact maximizer
        grid = G2
        fns = [pl(F(-2), F(2), (F(0),), (F(-1), F(1)), F(0), F(0)),
               pl(F(-2), F(2), (F(1),), (F(-1, 2), F(3, 2)), F(1), F(0))]
        inst = det_instance(fns, (1, 2), grid=grid)
        y = det_path(inst, (F(1, 2), 1))
        target = eval_F(inst, y)
        lattice = [F(k, 4) for k in range(-8, 9)]
        best = NEG_INF
        for d0 in lattice:
            for d1 in lattice:
                d = det_dual(inst, (d0 * 1, d1 * 2))
                val = expected_pairing(y, d.u, d.ut) - conj_pointwise(inst, d)
                best = val if best == NEG_INF else max(best, val)
        assert best == target

    def test_decomposable_interchange_over_raw_selections(self):
        # over all slot-wise (non-adapted) choices the integral interchanges
        # with minimization exactly; the per-slot argmin assembles a witness
        rng = random.Random(109)
        for _ in range(5):
            inst = rand_passing_instance(rng)
            rhs_terms = []
            witness = {}
            attained = True
            for s in inst.tree.scenarios:
                vals = []
                for i in range(inst.grid.n_slots):
                    m = inst.mu.measures[s].atoms[i]
                    fn = inst.h.functions[s][i]
                    val, argmin = fn.inf_over(fn.domain)
                    if m > 0:
                        rhs_terms.append(inst.tree.prob(s) * m * val
                                         if val not in (INF, NEG_INF) else val)
                    vals.append(argmin.nearest_to(F(0)) if not argmin.is_empty else None)
                if any(v is None for v in vals):
                    attained = False
                    break
                witness[s] = StepPath(inst.grid, tuple(vals))
            if not attained:
                continue
            lhs = inst.tree.expectation({
                s: eval_I(inst.h.functions[s], witness[s], inst.mu.measures[s])
                for s in inst.tree.scenarios})
            assert lhs == sum(rhs_terms)

    def test_strong_duality_gap_bound(self):
        rng = random.Random(113)
        delta = F(1, 100)
        for k in range(6):
            inst = rand_passing_instance(rng, with_htilde=(k % 2 == 0))
            d = rand_finite_dual(rng, inst)
            pointwise = conj_pointwise(inst, d)
            if pointwise == INF:
                continue
            B = 2 * inst.magnitude_bound()
            brute = conj_bruteforce(inst, d, B, delta)
            assert 0 <= pointwise - brute <= bruteforce_gap_bound(d, delta)


class TestMagnitudeBound:
    @staticmethod
    def reference(inst):
        """1 and every |knot| and finite |constraint end|, scenario by scenario."""
        return max([F(1)]
                   + [abs(b) for fam in (inst.h, inst.htilde)
                      for fns in fam.functions.values() for fn in fns for b in fn.knots()]
                   + [abs(x) for rsm in (inst.S, inst.Stilde) for sm in rsm.maps.values()
                      for iv in sm.point_vals + sm.open_vals for x in (iv.lo, iv.hi)
                      if is_finite(x)])

    def check(self, inst):
        for x in (inst, inst.refine(FINE)):
            want = self.reference(x)
            got = x.magnitude_bound()
            assert (got, type(got)) == (want, F)
            assert x.magnitude_bound() is got

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
    def test_equals_the_largest_magnitude(self, seed, with_htilde, constrained):
        rng = random.Random(seed)
        inst = rand_passing_instance(rng, max_scenarios=4, max_cells=4,
                                     with_htilde=with_htilde)
        if constrained:  # half-lines and points among the constraint values
            smap = rand_setmap(rng, inst.grid)
            S = RandomSetMap(inst.tree, inst.grid, {s: smap for s in inst.tree.scenarios})
            inst = make_instance(inst.tree, inst.grid, inst.h, inst.mu, inst.mutilde,
                                 inst.htilde, S, S.vec_map())
        self.check(inst)

    @pytest.mark.parametrize("iv", [RInterval(F(-9), INF), RInterval(F(9), INF),
                                    RInterval(NEG_INF, F(-9)), RInterval(F(-9), F(-9))])
    def test_a_half_line_or_a_point_counts_its_finite_end(self, iv):
        tree = ScenarioTree.deterministic(2)
        S = RandomSetMap(tree, G2, {"w": SetMap(G2, (iv, iv), (iv,))})
        # htilde given, so no indicator of S brings the end in as a knot
        htilde = RandomIntegrand(tree, G2, {"w": (abs_fn(), abs_fn())}, "predictable")
        inst = det_instance([abs_fn(), abs_fn()], (1, 1), grid=G2, S=S, htilde=htilde)
        self.check(inst)
        assert inst.magnitude_bound() == 9

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_equals_the_largest_magnitude_on_the_presets(self, name):
        self.check(preset(name).instance)


def kernel_case(seed, kind):
    """A passing instance; one with random constraint maps, or a random htilde
    and mutilde, or both, each shared by every scenario (so adapted and
    predictable); or a one-scenario constrained one."""
    rng = random.Random(seed)
    if kind == "constrained":
        return random_constrained_instance(rng)
    inst = rand_passing_instance(rng, max_scenarios=3, max_cells=3,
                                 with_htilde=rng.random() < 0.5)
    if kind == "passing":
        return inst
    tree, grid = inst.tree, inst.grid

    def shared(value):
        return {s: value for s in tree.scenarios}
    S, Stilde, htilde, mutilde = inst.S, inst.Stilde, inst.htilde, inst.mutilde
    maps, costs = rng.choice(((True, False), (False, True), (True, True)))
    if maps:
        S, Stilde = (RandomSetMap(tree, grid, shared(rand_setmap(rng, grid)))
                     for _ in range(2))
        if rng.random() < 0.5:
            Stilde = S.vec_map()
    if costs:
        htilde = RandomIntegrand(tree, grid, shared(tuple(rand_plconvex(rng) for _ in grid.times)),
                                 "predictable")
        mutilde = RandomMeasure(tree, grid, shared(GridMeasure(
            grid, tuple(rng.randint(0, 2) for _ in grid.times))))
    return make_instance(tree, grid, inst.h, inst.mu, mutilde, htilde, S, Stilde)


KERNEL_KINDS = ("passing", "shared-random", "constrained")


def feasible_path_slot_loop(rng, inst):
    """rand_feasible_path as it was before it read the charged integrands from
    _coordinates, with the coordinate loop written out and the pinned start
    tested from the instance's own data; kept only as the reference of the
    test below.  An integrand's domain cuts only where its atom is positive,
    as eval_I skips a zero atom."""
    tree, grid = inst.tree, inst.grid
    n = grid.n_slots
    whole = RInterval.whole_line()

    def charged_domain(fn, atom):
        return fn.domain if atom > 0 else whole
    for s in tree.scenarios:
        # the left limit 0 at t_0 must lie in Stilde(0) and, if mutilde_0 charges
        # it, in htilde_0's domain
        start = charged_domain(inst.htilde.functions[s][0], inst.mutilde.measures[s].atoms[0])
        if not (_zero_start_ok(inst, s) and start.contains(F(0))):
            raise ValueError("instance has no feasible fixed-grid path")
    sets = {}
    for s in tree.scenarios:
        # the value at t_i is charged by mu_i h_i and, as a left limit, by
        # mutilde_{i+1} htilde_{i+1}
        h_doms = [charged_domain(fn, a) for fn, a in
                  zip(inst.h.functions[s], inst.mu.measures[s].atoms)]
        ht_next = [charged_domain(fn, a) for fn, a in
                   zip(inst.htilde.functions[s][1:], inst.mutilde.measures[s].atoms[1:])] + [whole]
        sets[s] = [v.intersect(dom).intersect(tdom) for v, dom, tdom in
                   zip(_fixed_value_sets(inst)[s], h_doms, ht_next)]
    vals = {s: [None] * n for s in tree.scenarios}
    for i in range(n):
        for cell in tree.cells(i):
            feas = whole.intersect(sets[cell[0]][i])
            if feas.is_empty:
                raise ValueError("instance has no feasible fixed-grid path")
            pick = feas.nearest_to(rand_coarse(rng, -2, 2))
            for s in cell:
                vals[s][i] = pick
    return RandomPath(tree, grid, {s: StepPath(grid, tuple(vals[s]))
                                   for s in tree.scenarios})


def proper_slot_loop(inst):
    """assumption_report's per-scenario properness as the loop over the coarse
    slots computed it before it read the fine coordinates; kept only as the
    reference of the test below."""
    r = inst.refine(FINE)
    out = {}
    for s in inst.tree.scenarios:
        hfns, htfns = inst.h.functions[s], inst.htilde.functions[s]
        sets = _fixed_value_sets(r)[s]
        mu_atoms = inst.mu.measures[s].atoms
        mut_atoms = inst.mutilde.measures[s].atoms
        proper = _zero_start_ok(inst, s) and not any(v.is_empty for v in sets)
        if proper:
            # t_i is fine slot FINE * i; its left limit is the value just before
            for i in range(inst.grid.n_slots):
                if mu_atoms[i] > 0 and sets[FINE * i].intersect(hfns[i].domain).is_empty:
                    proper = False
                if i >= 1 and mut_atoms[i] > 0 and \
                        sets[FINE * i - 1].intersect(htfns[i].domain).is_empty:
                    proper = False
            if mut_atoms[0] > 0 and not htfns[0].domain.contains(F(0)):
                proper = False
        out[s] = proper
    return out


def path_outcome(rng, inst, draw):
    try:
        return draw(rng, inst)
    except ValueError as exc:
        return str(exc)


class TestChargeLayout:
    @staticmethod
    def fresh(inst, s, hatted):
        """Scenario s's set at each slot, built from the definition: the
        attainable values of S and, in the hatted form, Stilde's values on
        the following cell and at the following time."""
        smap, stmap = inst.s_map(s), inst.st_map(s)
        n = inst.grid.n_slots
        out = []
        for i in range(n):
            parts = [smap.point_vals[i]]
            if i < n - 1:
                parts.append(smap.open_vals[i])
                if hatted:
                    parts += [stmap.open_vals[i], stmap.point_vals[i + 1]]
            if any(p.is_empty for p in parts) or max(p.lo for p in parts) > min(p.hi for p in parts):
                out.append(RInterval(INF, NEG_INF))
            else:
                out.append(RInterval(max(p.lo for p in parts), min(p.hi for p in parts)))
        return tuple(out)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
    def test_every_scenario_of_a_cell_has_the_coordinate_s_set_and_terms(
            self, seed, with_htilde, constrained):
        rng = random.Random(seed)
        inst = rand_passing_instance(rng, max_scenarios=3, max_cells=3,
                                     with_htilde=with_htilde)
        if constrained:  # S and Stilde each one random map for every scenario
            S, Stilde = (RandomSetMap(inst.tree, inst.grid, dict.fromkeys(
                inst.tree.scenarios, rand_setmap(rng, inst.grid))) for _ in range(2))
            inst = make_instance(inst.tree, inst.grid, inst.h, inst.mu, inst.mutilde,
                                 inst.htilde, S, Stilde)
        # the walk at factor k against the definition on the materialised
        # inst.refine(k), and the walk of that refinement, as the oracle runs it
        for k, hatted in itertools.product((1, FINE, 3), (False, True)):
            x = inst.refine(k) if k > 1 else inst
            self.assert_is_the_definition(x, hatted, _coordinates(inst, hatted, k))
            if k > 1:
                self.assert_is_the_definition(x, hatted, _coordinates(x, hatted))

    def assert_is_the_definition(self, x, hatted, walk):
        n = x.grid.n_slots
        sets = {s: self.fresh(x, s, hatted) for s in x.tree.scenarios}
        coords = list(walk)
        # the hatted walk starts with the pinned start, whose zero-atom
        # charge it leaves out
        start = [(i, cell, mass, feas, [(atom, fn) for atom, fn in terms if atom > 0])
                 for i, cell, mass, feas, terms in refined_pinned_start(x)] if hatted else []
        assert coords[:len(start)] == start
        seen = []
        for i, cell, mass, feas, terms in coords[len(start):]:
            assert mass == sum(x.tree.prob(s) for s in cell)
            for s in cell:
                seen.append((i, s))
                # the value at t_i pays mu_i h_i and, as the left limit
                # at t_{i+1}, mutilde_{i+1} htilde_{i+1}; a zero atom
                # charges nothing, so the walk leaves its term out
                want = [(x.mu.measures[s].atoms[i], x.h.functions[s][i])]
                if hatted and i + 1 < n:
                    want.append((x.mutilde.measures[s].atoms[i + 1],
                                 x.htilde.functions[s][i + 1]))
                assert terms == [(atom, fn) for atom, fn in want if atom > 0]
                assert feas == sets[s][i]
        assert sorted(seen) == sorted(itertools.product(range(n), x.tree.scenarios))

    def test_rand_feasible_path_keeps_the_pinned_start(self):
        inst = pinned_start_doc().instance
        rng = random.Random(0)
        assert eval_Fhat(inst, random_adapted_path(rng, inst)) == INF
        with pytest.raises(ValueError, match="no feasible fixed-grid path"):
            rand_feasible_path(rng, inst)

    def test_rand_feasible_path_ignores_an_uncharged_domain(self):
        # htilde_0 = indicator of {1} misses the pinned left limit 0, but
        # mutilde_0 = 0 does not charge it, so eval_Fhat stays finite
        with open(bundled_instance_path("basic"), encoding="utf-8") as fh:
            doc = json.load(fh)
        one = {"dom": ["1", "1"], "breakpoints": [], "slopes": ["0"], "anchor": ["1", "0"]}
        for s in ("up", "dn"):
            assert doc["mutilde"][s][0] == "0"
            doc["integrand_htilde"]["functions"][s][0] = one
        idoc = instance_doc_from_json(doc)
        inst = idoc.instance
        assert inst.htilde.functions["up"][0] == indicator(RInterval(F(1), F(1)))
        assert is_finite(eval_Fhat(inst, idoc.paths[0]))
        for seed in range(10):
            assert is_finite(eval_Fhat(inst, rand_feasible_path(random.Random(seed), inst)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(KERNEL_KINDS))
    def test_rand_feasible_path_equals_the_slot_loop(self, seed, kind):
        inst = kernel_case(seed, kind)
        a, b = random.Random(seed), random.Random(seed)
        assert path_outcome(a, inst, rand_feasible_path) == \
            path_outcome(b, inst, feasible_path_slot_loop)
        assert a.getstate() == b.getstate()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(KERNEL_KINDS))
    def test_proper_equals_the_slot_loop(self, seed, kind):
        inst = kernel_case(seed, kind)
        flags = assumption_report(inst)["per_scenario"]
        assert {s: f["proper"] for s, f in flags.items()} == proper_slot_loop(inst)

    @pytest.mark.parametrize("kind", KERNEL_KINDS[1:])
    def test_the_cases_hold_both_outcomes(self, kind):
        insts = [kernel_case(seed, kind) for seed in range(60)]
        drawn = [isinstance(path_outcome(random.Random(0), x, rand_feasible_path), RandomPath)
                 for x in insts]
        proper = [v for x in insts for v in proper_slot_loop(x).values()]
        assert any(drawn) and not all(drawn)
        assert any(proper) and not all(proper)
