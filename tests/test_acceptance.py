"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is pinned here: structural identities are exact, the
conjugate-theorem oracle gap is bounded by delta * E[sum|u| + sum|ut|] with
delta = 1/100 and lattice radius B = twice the largest data magnitude, and
the two timed criteria assert their stated runtime budgets.
"""

import random
import time
from fractions import Fraction as F

from conftest import affine, preset, rand_setmap

from cadlagconvex.duality import (DualPair, assumption_report,
                                  bruteforce_gap_bound, conj_bruteforce,
                                  conj_pointwise, eval_F, eval_Fhat,
                                  interchange_det, interchange_stoch,
                                  subdiff_check, support_DS)
from cadlagconvex.finmodels import (ScalarProcess, bidask_model, bidask_support,
                                    currency_model, obstacle_model,
                                    obstacle_support, vector_pairing)
from cadlagconvex.generators import (rand_feasible_path, rand_finite_dual,
                                     rand_passing_instance, rand_plconvex, rand_tree)
from cadlagconvex.plconvex import indicator, support_fn
from cadlagconvex.polycone import ConeMap, PolyCone, cone_hull, cs_regularity_check
from cadlagconvex.presets import PRESET_NAMES
from cadlagconvex.rationals import INF, NEG_INF, is_finite
from cadlagconvex.scenario import (RandomIntegrand, RandomMeasure, RandomPath,
                                   expected_pairing, jensen_check)
from cadlagconvex.serialize import InstanceDoc
from cadlagconvex.setmaps import (michael_check, projection_selection,
                                  right_isc_check)
from cadlagconvex.timegrid import GridMeasure, StepPath, TimeGrid

DELTA = F(1, 100)


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_and_2_involution_and_recession_support():
    rng = random.Random(2024)
    fns = [rand_plconvex(rng) for _ in range(500)]
    t0 = time.time()
    for fn in fns:
        assert fn.conjugate().conjugate() == fn
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, f"500 double conjugations are structural identities in {elapsed:.2f}s")
    for fn in fns:
        assert support_fn(fn.conjugate().domain) == fn.recession()
    report(2, "support of conjugate domain equals recession on the same 500")


def test_criterion_3_conjugate_theorem_gap_bound():
    rng = random.Random(33)
    t0 = time.time()
    checked = 0
    while checked < 50:
        inst = rand_passing_instance(rng, max_scenarios=4, max_cells=4,
                                     with_htilde=(checked % 2 == 0))
        assert assumption_report(inst)["all_ok"]
        d = rand_finite_dual(rng, inst)
        pointwise = conj_pointwise(inst, d)
        if pointwise == INF:
            continue
        B = 2 * inst.magnitude_bound()
        brute = conj_bruteforce(inst, d, B, DELTA)
        bound = bruteforce_gap_bound(d, DELTA)
        gap = pointwise - brute
        assert 0 <= gap <= bound, (checked, gap, bound)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, f"50 instances: pointwise - bruteforce in [0, delta*E|u|] in {elapsed:.1f}s")


def _subdiff_pick(interval):
    if is_finite(interval.lo) and is_finite(interval.hi):
        return (interval.lo + interval.hi) / 2
    if is_finite(interval.hi):
        return interval.hi
    if is_finite(interval.lo):
        return interval.lo
    return F(0)


def _build_subgradient_dual(rng, inst, y):
    tree, grid = inst.tree, inst.grid
    u_vals = {s: [None] * grid.n_slots for s in tree.scenarios}
    ut_vals = {s: [None] * grid.n_slots for s in tree.scenarios}
    sites = []  # (side, slot, cell, violation_atom)
    for i in range(grid.n_slots):
        for cell in tree.cells(i):
            rep = cell[0]
            v = y.paths[rep].values[i]
            m = inst.mu.measures[rep].atoms[i]
            if m > 0:
                sd = inst.h.functions[rep][i].subdiff(v)
                atom = m * _subdiff_pick(sd)
                if is_finite(sd.hi):
                    sites.append(("u", i, cell, m * (sd.hi + 1)))
                elif is_finite(sd.lo):
                    sites.append(("u", i, cell, m * (sd.lo - 1)))
            else:
                cone = indicator(inst.s_map(rep).point_vals[i]).subdiff(v)
                choice = [F(0)]
                if cone.hi == INF:
                    choice.append(F(1))
                if cone.lo == NEG_INF:
                    choice.append(F(-1))
                atom = rng.choice(choice)
                if cone.lo == 0 == cone.hi:
                    sites.append(("u", i, cell, F(1)))
                elif cone.lo == 0 and cone.hi == INF:
                    sites.append(("u", i, cell, F(-1)))
                elif cone.hi == 0 and cone.lo == NEG_INF:
                    sites.append(("u", i, cell, F(1)))
            for s in cell:
                u_vals[s][i] = atom
        pred = tree.pred_slot(i)
        for cell in tree.cells(pred):
            rep = cell[0]
            w = y.paths[rep].left_values()[i]
            m = inst.mutilde.measures[rep].atoms[i]
            if m > 0:
                sd = inst.htilde.functions[rep][i].subdiff(w)
                atom = m * _subdiff_pick(sd)
                if is_finite(sd.hi):
                    sites.append(("ut", i, cell, m * (sd.hi + 1)))
            elif i >= 1:
                cone = indicator(inst.st_map(rep).point_vals[i]).subdiff(w)
                atom = F(0)
                if cone.lo == 0 == cone.hi:
                    sites.append(("ut", i, cell, F(1)))
            else:
                atom = F(rng.randint(-1, 1))
            for s in cell:
                ut_vals[s][i] = atom
    d = DualPair(
        RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(u_vals[s]))
                                   for s in tree.scenarios}),
        RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(ut_vals[s]))
                                   for s in tree.scenarios}))
    return d, sites


def _perturb_dual(d, site):
    side, slot, cell, bad_atom = site
    which = d.u if side == "u" else d.ut
    measures = {}
    for s, gm in which.measures.items():
        atoms = list(gm.atoms)
        if s in cell:
            atoms[slot] = bad_atom
        measures[s] = GridMeasure(gm.grid, tuple(atoms))
    perturbed = RandomMeasure(which.tree, which.grid, measures)
    return DualPair(perturbed, d.ut) if side == "u" else DualPair(d.u, perturbed)


def test_criterion_4_subdifferential_characterization():
    rng = random.Random(44)
    exact, violated = 0, 0
    while exact < 50 or violated < 50:
        inst = rand_passing_instance(rng, with_htilde=(exact % 2 == 0))
        y = rand_feasible_path(rng, inst)
        if eval_Fhat(inst, y) == INF:
            continue
        d, sites = _build_subgradient_dual(rng, inst, y)
        rep = subdiff_check(inst, y, d)
        assert rep["all_inclusions"], "constructed pair must satisfy the inclusions"
        assert rep["fenchel_gap"] == 0 and rep["fenchel_equality"]
        exact += 1
        if violated < 50 and sites:
            bad = _perturb_dual(d, rng.choice(sites))
            brep = subdiff_check(inst, y, bad)
            assert not brep["all_inclusions"]
            assert brep["fenchel_gap"] == INF or brep["fenchel_gap"] > 0
            assert brep["equivalence_ok"]
            violated += 1
    report(4, "50 subgradient pairs give exact Fenchel equality, "
              "50 perturbed pairs a strictly positive gap")


def test_criterion_5_interchange_rules():
    rng = random.Random(55)
    # deterministic: assumption-passing instances give exact equality
    for k in range(10):
        inst = rand_passing_instance(rng, max_scenarios=1, with_htilde=(k % 2 == 0))
        rep = interchange_det(inst, "cadlag")
        assert rep["assumptions_ok"] and rep["ok"]
        if rep["vacuous"] is False:
            assert rep["lhs"] == rep["rhs"]
        rep_l = interchange_det(inst, "caglad")
        assert rep_l["ok"]
    # stochastic, both functional forms
    for k in range(10):
        inst = rand_passing_instance(rng, with_htilde=(k % 2 == 0))
        for form in ("F", "Fhat"):
            rep = interchange_stoch(inst, form)
            assert rep["assumptions_ok"] and rep["ok"]
            if not rep["vacuous"]:
                assert rep["lhs"] == rep["rhs"]
    # the canonical violating instance: point value escaping the next cell
    bad = preset("michael-violation").instance
    rep = interchange_det(bad, "cadlag")
    assert not rep["assumptions"]["michael"]
    assert rep["assumptions"]["michael_failing_slots"] == [1]
    assert rep["gap"] == 1 and rep["gap"] > 0 and not rep["ok"]
    mich = michael_check(bad.s_map("w"))
    assert mich["failing_slots"] == [1]
    report(5, "interchange exact on passing instances; canonical violation "
              "reports gap 1 at slot 1")


def test_criterion_6_jensen():
    rng = random.Random(66)
    checked_general, checked_affine = 0, 0
    while checked_general + checked_affine < 200:
        affine_case = (checked_general + checked_affine) % 3 == 0
        grid_times = [F(0)]
        for _ in range(rng.randint(1, 3)):
            grid_times.append(grid_times[-1] + rng.randint(1, 2))
        grid = TimeGrid(tuple(grid_times))
        tree = rand_tree(rng, grid.n_slots, max_scenarios=4)
        fns = {s: [] for s in tree.scenarios}
        for i in range(grid.n_slots):
            for cell in tree.cells(i):
                if affine_case:
                    fn = affine(F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
                else:
                    fn = rand_plconvex(rng, max_breaks=2)
                for s in cell:
                    fns[s].append(fn)
        h = RandomIntegrand(tree, grid, {s: tuple(v) for s, v in fns.items()},
                            "optional")
        mu_vals = {s: [] for s in tree.scenarios}
        for i in range(grid.n_slots):
            for cell in tree.cells(i):
                m = F(rng.randint(0, 2))
                for s in cell:
                    mu_vals[s].append(m)
        mu = RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                        for s, v in mu_vals.items()})
        # raw process: independent values per scenario and slot
        if affine_case:
            w_vals = {s: tuple(F(rng.randint(-4, 4)) for _ in range(grid.n_slots))
                      for s in tree.scenarios}
        else:
            w_vals = {}
            for s in tree.scenarios:
                vals = []
                for i in range(grid.n_slots):
                    dom = h.functions[s][i].domain
                    vals.append(dom.nearest_to(F(rng.randint(-4, 4))))
                w_vals[s] = tuple(vals)
        w = RandomPath(tree, grid, {s: StepPath(grid, v) for s, v in w_vals.items()})
        rep = jensen_check(h, mu, w)
        assert rep["ok"], "expectation of the integral may only drop under projection"
        if affine_case:
            assert rep["lhs"] == rep["rhs"]
            checked_affine += 1
        else:
            checked_general += 1
    report(6, f"Jensen holds on 200 raw processes "
              f"({checked_affine} affine cases with exact equality)")


def test_criterion_7_selection_theorem():
    rng = random.Random(77)
    grid = TimeGrid((0, 1, 2, 3))
    anchors = [F(k, 2) for k in range(-9, 11, 2)]
    checked = 0
    while checked < 100:
        sm = rand_setmap(rng, grid, regular=True)
        if not right_isc_check(sm) or not sm.has_selection():
            continue
        for x in anchors:
            path = projection_selection(sm, x)
            vec = sm.vec_map()
            lefts = path.left_values()
            for i, v in enumerate(path.values):
                att = sm.attainable_at(i)
                assert att.contains(v)
                assert abs(x - v) == att.distance_to(x)
            for i in range(1, grid.n_slots):
                if sm.attainable_at(i - 1) == sm.open_vals[i - 1]:
                    assert lefts[i] == vec.point_vals[i].nearest_to(x)
        checked += 1
    matches = 0
    for _ in range(500):
        sm = rand_setmap(rng, grid, regular=False)
        assert michael_check(sm)["matches_right_isc"]
        matches += 1
    report(7, "projection selections verified on 100 maps x 10 anchors; "
              "Michael verdict = right-isc on 500 maps")


def _random_obstacle(rng):
    grid_times = [F(0)]
    for _ in range(rng.randint(1, 3)):
        grid_times.append(grid_times[-1] + rng.randint(1, 2))
    grid = TimeGrid(tuple(grid_times))
    tree = rand_tree(rng, grid.n_slots, max_scenarios=3)
    pts = {s: [] for s in tree.scenarios}
    cells = {s: [] for s in tree.scenarios}
    for i in range(grid.n_cells):
        for cell in tree.cells(i):
            c = F(rng.randint(-8, 8), 4)
            bump = F(rng.randint(0, 2), 4)
            for s in cell:
                cells[s].append(c)
                pts[s].append(c + bump)
    for cell in tree.cells(grid.n_slots - 1):
        p = F(rng.randint(-8, 8), 4)
        for s in cell:
            pts[s].append(p)
    b = ScalarProcess(tree, grid, {s: tuple(v) for s, v in pts.items()},
                      {s: tuple(v) for s, v in cells.items()}, "optional")
    top = max(max(v) for v in pts.values()) + 1
    ycheck = RandomPath(tree, grid, {s: StepPath(grid, (top,) * grid.n_slots)
                                     for s in tree.scenarios})
    model = obstacle_model(b, ycheck)
    u_vals = {s: [] for s in tree.scenarios}
    ut_vals = {s: [] for s in tree.scenarios}
    for i in range(grid.n_slots):
        for cell in tree.cells(i):
            a = -F(rng.randint(0, 4), 2)
            for s in cell:
                u_vals[s].append(a)
        for cell in tree.cells(tree.pred_slot(i)):
            a = F(rng.randint(-1, 1)) if i == 0 else -F(rng.randint(0, 4), 2)
            for s in cell:
                ut_vals[s].append(a)
    d = DualPair(
        RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                   for s, v in u_vals.items()}),
        RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                   for s, v in ut_vals.items()}))
    return model, d


def _random_bidask(rng):
    grid_times = [F(0)]
    for _ in range(rng.randint(1, 3)):
        grid_times.append(grid_times[-1] + rng.randint(1, 2))
    grid = TimeGrid(tuple(grid_times))
    tree = rand_tree(rng, grid.n_slots, max_scenarios=3)
    b_pts = {s: [] for s in tree.scenarios}
    b_cells = {s: [] for s in tree.scenarios}
    a_pts = {s: [] for s in tree.scenarios}
    a_cells = {s: [] for s in tree.scenarios}
    ybar_vals = {s: [] for s in tree.scenarios}
    for i in range(grid.n_slots):
        for cell in tree.cells(i):
            base = F(rng.randint(-8, 0), 4)
            b_pt = base + F(rng.randint(0, 1), 4)
            a_cell = base + 2 + F(rng.randint(0, 1), 4)
            a_pt = a_cell - F(rng.randint(0, 1), 4)
            mid = (b_pt + min(a_pt, a_cell)) / 2
            for s in cell:
                b_pts[s].append(b_pt)
                a_pts[s].append(a_pt)
                if i < grid.n_cells:
                    b_cells[s].append(base)
                    a_cells[s].append(a_cell)
                ybar_vals[s].append(mid)
    b = ScalarProcess(tree, grid, {s: tuple(v) for s, v in b_pts.items()},
                      {s: tuple(v) for s, v in b_cells.items()}, "optional")
    a = ScalarProcess(tree, grid, {s: tuple(v) for s, v in a_pts.items()},
                      {s: tuple(v) for s, v in a_cells.items()}, "optional")
    ybar = RandomPath(tree, grid, {s: StepPath(grid, tuple(v))
                                   for s, v in ybar_vals.items()})
    model = bidask_model(b, a, ybar)
    u_vals = {s: [] for s in tree.scenarios}
    ut_vals = {s: [] for s in tree.scenarios}
    for i in range(grid.n_slots):
        for cell in tree.cells(i):
            atom = F(rng.randint(-4, 4), 2)
            for s in cell:
                u_vals[s].append(atom)
        for cell in tree.cells(tree.pred_slot(i)):
            atom = F(rng.randint(-4, 4), 2)
            for s in cell:
                ut_vals[s].append(atom)
    d = DualPair(
        RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                   for s, v in u_vals.items()}),
        RandomMeasure(tree, grid, {s: GridMeasure(grid, tuple(v))
                                   for s, v in ut_vals.items()}))
    return model, d


def test_criterion_8_market_presets():
    rng = random.Random(88)
    for _ in range(20):
        model, d = _random_obstacle(rng)
        closed = obstacle_support(model, d)
        formula = support_DS(model.instance, d)
        assert closed == formula
        if closed != INF:
            delta = F(1, 4)
            B = 2 * model.instance.magnitude_bound()
            brute = conj_bruteforce(model.instance, d, B, delta)
            assert 0 <= closed - brute <= bruteforce_gap_bound(d, delta)
    for _ in range(20):
        model, d = _random_bidask(rng)
        closed = bidask_support(model, d)
        assert closed == support_DS(model.instance, d)
        delta = F(1, 4)
        B = 2 * model.instance.magnitude_bound()
        brute = conj_bruteforce(model.instance, d, B, delta)
        assert 0 <= closed - brute <= bruteforce_gap_bound(d, delta)
    # currency: members certify nonpositive pairing on sampled selections
    doc = preset("currency")
    grid = doc.instance.grid
    cm = currency_model(doc.model.parts["solvency"])
    members = 0
    for u, ut in doc.model.parts["duals"]:
        if not cm.is_member(u, ut)["member"]:
            continue
        members += 1
        for _ in range(100):
            y = cm.sample_selection(rng)
            assert vector_pairing(y, u, ut) <= 0
    assert members >= 2
    # bundled regularity instance passes; a one-slot mutation fails
    cs_doc = preset("cs")
    g_map, gt_map = cs_doc.model.parts["G"], cs_doc.model.parts["Gtilde"]
    assert cs_regularity_check(g_map, gt_map)["pass"]
    bigger = cone_hull([g_map.cell_cones[0],
                        PolyCone.from_generators([(1, -1)], 2)])
    mutated = ConeMap(g_map.grid, g_map.point_cones,
                      (bigger,) + g_map.cell_cones[1:])
    bad = cs_regularity_check(mutated, gt_map)
    assert not bad["pass"] and 0 in bad["failing_slots"]
    report(8, "obstacle/bid-ask closed forms match the generic support and "
              "the oracle; currency members certify polarity; regularity "
              "mutation detected")


def _collect_functionals(idoc: InstanceDoc):
    inst = idoc.instance
    out = {}
    for pk, y in enumerate(idoc.paths):
        out[f"F[{pk}]"] = eval_F(inst, y)
        out[f"Fhat[{pk}]"] = eval_Fhat(inst, y)
        rep = jensen_check(inst.h, inst.mu, y)
        out[f"jensen_lhs[{pk}]"] = rep["lhs"]
        out[f"jensen_rhs[{pk}]"] = rep["rhs"]
        for dk, d in enumerate(idoc.duals):
            out[f"pairing[{pk},{dk}]"] = expected_pairing(y, d.u, d.ut)
    for dk, d in enumerate(idoc.duals):
        out[f"conj[{dk}]"] = conj_pointwise(inst, d)
        out[f"support[{dk}]"] = support_DS(inst, d)
    sto = interchange_stoch(inst, "Fhat")
    out["interchange_lhs"] = sto["lhs"]
    out["interchange_rhs"] = sto["rhs"]
    if len(inst.tree.scenarios) == 1:
        det = interchange_det(inst, "cadlag")
        out["det_lhs"], out["det_rhs"] = det["lhs"], det["rhs"]
    kind = None if idoc.model is None else idoc.model.kind
    parts = {} if idoc.model is None else idoc.model.parts
    if kind == "obstacle":
        m = obstacle_model(parts["b"], parts["ycheck"])
        for dk, d in enumerate(idoc.duals):
            out[f"obstacle[{dk}]"] = obstacle_support(m, d)
    if kind == "bidask":
        m = bidask_model(parts["b"], parts["a"], parts["ybar"])
        for dk, d in enumerate(idoc.duals):
            out[f"bidask[{dk}]"] = bidask_support(m, d)
    if kind == "currency":
        cm = currency_model(parts["solvency"])
        for dk, (u, ut) in enumerate(parts["duals"]):
            out[f"currency[{dk}]"] = cm.is_member(u, ut)["member"]
    if kind == "cs":
        out["cs_pass"] = cs_regularity_check(parts["G"], parts["Gtilde"])["pass"]
    return out


def _refine_doc(idoc: InstanceDoc, factor: int) -> InstanceDoc:
    return idoc.refine(factor)


def test_criterion_9_refinement_invariance():
    for name in PRESET_NAMES:
        idoc = preset(name)
        base = _collect_functionals(idoc)
        for k in (2, 3):
            fine = _refine_doc(idoc, k)
            assert _collect_functionals(fine) == base, (name, k)
    report(9, f"all functionals invariant under refinement (k=2,3) on "
              f"{len(PRESET_NAMES)} bundled instances")
