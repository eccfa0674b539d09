"""Market presets: regularizations, closed-form supports, cone memberships."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadlagconvex import cli, finmodels
from cadlagconvex.duality import (DualPair, bruteforce_gap_bound,
                                  conj_bruteforce, support_DS)
from cadlagconvex.finmodels import (CurrencyModel, ScalarProcess, VectorMeasure,
                                    VectorPath, bidask_model, bidask_support,
                                    currency_model, left_usc_reg,
                                    obstacle_model, obstacle_support,
                                    right_usc_slots, vector_pairing)
from cadlagconvex.polycone import ConeMap, PolyCone
from cadlagconvex.presets import bundled_instance_path
from cadlagconvex.rationals import INF
from cadlagconvex.scenario import RandomMeasure, RandomPath, ScenarioTree
from cadlagconvex.serialize import load_instance
from cadlagconvex.timegrid import GridMeasure, StepPath, TimeGrid

G3 = TimeGrid((0, 1, 2))


def det_tree():
    return ScenarioTree.deterministic(3)


def two_tree():
    half = F(1, 2)
    return ScenarioTree(("a", "b"), (half, half),
                        ((("a", "b"),), (("a",), ("b",)), (("a",), ("b",))))


class TestRegularizations:
    def test_shift_of_cell_values(self):
        tree = det_tree()
        b = ScalarProcess(tree, G3, {"w": (1, 3, 2)}, {"w": (1, 3)}, "optional")
        reg = left_usc_reg(b)
        assert reg.points["w"] == (F(0), F(1), F(3))
        assert reg.flag == "predictable"
        assert check_predictable_scalar(reg)

    def test_constant_process(self):
        tree = det_tree()
        b = ScalarProcess.constant_cells(tree, G3, {"w": (7, 7)}, "optional")
        reg = left_usc_reg(b)
        assert reg.points["w"][1:] == (F(7), F(7))

    def test_point_spike_invisible(self):
        tree = det_tree()
        b = ScalarProcess(tree, G3, {"w": (0, 9, 0)}, {"w": (0, 0)}, "optional")
        reg = left_usc_reg(b)
        assert reg.points["w"][2] == 0  # the spike at t_1 never shows up

    def test_predictable_flag_on_random_trees(self):
        rng = random.Random(3)
        tree = two_tree()
        for _ in range(20):
            shared = F(rng.randint(-3, 3))
            pts = {s: (shared, F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
                   for s in ("a", "b")}
            cells = {s: (shared, pts[s][1]) for s in ("a", "b")}
            b = ScalarProcess(tree, G3, pts, cells, "optional")
            reg = left_usc_reg(b)
            assert reg.flag == "predictable" and check_predictable_scalar(reg)


def check_predictable_scalar(sp: ScalarProcess) -> bool:
    tree = sp.tree
    for i in range(tree.n_slots):
        slot = tree.pred_slot(i)
        data = {s: sp.points[s][i] for s in tree.scenarios}
        for cell in tree.cells(slot):
            first = data[cell[0]]
            if any(data[s] != first for s in cell):
                return False
    return True


class TestObstacle:
    def make(self, cells, tree=None):
        tree = tree or det_tree()
        b = ScalarProcess.constant_cells(tree, G3, {s: cells for s in tree.scenarios},
                                         "optional")
        top = max(cells) + 1
        ycheck = RandomPath(tree, G3, {s: StepPath(G3, (top,) * 3)
                                       for s in tree.scenarios})
        return obstacle_model(b, ycheck)

    def d(self, model, u_atoms, ut_atoms):
        tree, grid = model.instance.tree, model.instance.grid
        return DualPair(
            RandomMeasure(tree, grid, {s: GridMeasure(grid, u_atoms)
                                       for s in tree.scenarios}),
            RandomMeasure(tree, grid, {s: GridMeasure(grid, ut_atoms)
                                       for s in tree.scenarios}))

    def test_zero_bound_negative_atom(self):
        m = self.make((0, 0))
        assert obstacle_support(m, self.d(m, (-1, 0, 0), (0, 0, 0))) == 0

    def test_positive_atom_infeasible(self):
        m = self.make((0, 0))
        d = self.d(m, (1, 0, 0), (0, 0, 0))
        assert obstacle_support(m, d) == INF
        assert support_DS(m.instance, d) == INF

    def test_left_regularized_bound_prices_predictable_atoms(self):
        m = self.make((1, 3))
        d = self.d(m, (0, 0, 0), (0, -2, 0))
        assert obstacle_support(m, d) == -2  # -2 times the left bound 1 at t_1
        assert support_DS(m.instance, d) == -2
        brute = conj_bruteforce(m.instance, d, B=8, delta=F(1, 4))
        assert 0 <= -2 - brute <= bruteforce_gap_bound(d, F(1, 4))

    def test_right_usc_violation_reported(self):
        tree = det_tree()
        b = ScalarProcess(tree, G3, {"w": (0, 0, 0)}, {"w": (0, 1)}, "optional")
        yc = RandomPath(tree, G3, {"w": StepPath(G3, (2, 2, 2))})
        assert right_usc_slots(b) == {"w": [1]}
        with pytest.raises(ValueError):
            obstacle_model(b, yc)

    def test_domination_required(self):
        tree = det_tree()
        b = ScalarProcess.constant_cells(tree, G3, {"w": (0, 5)}, "optional")
        yc = RandomPath(tree, G3, {"w": StepPath(G3, (1, 1, 1))})
        with pytest.raises(ValueError):
            obstacle_model(b, yc)


class TestBidAsk:
    def make(self, b_cells, a_cells, mid):
        tree = det_tree()
        b = ScalarProcess.constant_cells(tree, G3, {"w": b_cells}, "optional")
        a = ScalarProcess.constant_cells(tree, G3, {"w": a_cells}, "optional")
        ybar = RandomPath(tree, G3, {"w": StepPath(G3, (mid,) * 3)})
        return bidask_model(b, a, ybar)

    def d(self, model, u_atoms, ut_atoms=(0, 0, 0)):
        tree, grid = model.instance.tree, model.instance.grid
        return DualPair(
            RandomMeasure(tree, grid, {"w": GridMeasure(grid, u_atoms)}),
            RandomMeasure(tree, grid, {"w": GridMeasure(grid, ut_atoms)}))

    def test_symmetric_band(self):
        m = self.make((-1, -1), (1, 1), 0)
        assert bidask_support(m, self.d(m, (1, 0, 0))) == 1
        assert bidask_support(m, self.d(m, (-1, 0, 0))) == 1

    def test_predictable_atom_prices_left_regularized_ask(self):
        m = self.make((0, 1), (2, 3), F(3, 2))
        d = self.d(m, (0, 0, 0), (0, 1, 0))
        assert bidask_support(m, d) == 2  # lsc regularization of the ask at t_1
        assert support_DS(m.instance, d) == 2
        brute = conj_bruteforce(m.instance, d, B=6, delta=F(1, 4))
        assert 0 <= 2 - brute <= bruteforce_gap_bound(d, F(1, 4))

    def test_jordan_mixture_matches_support_DS(self):
        rng = random.Random(19)
        m = self.make((0, 1), (2, 3), F(3, 2))
        tree, grid = m.instance.tree, m.instance.grid
        for _ in range(25):
            u = tuple(F(rng.randint(-3, 3), 2) for _ in range(3))
            ut = (F(rng.randint(-2, 2)),) + tuple(F(rng.randint(-3, 3), 2) for _ in range(2))
            d = DualPair(RandomMeasure(tree, grid, {"w": GridMeasure(grid, u)}),
                         RandomMeasure(tree, grid, {"w": GridMeasure(grid, ut)}))
            assert bidask_support(m, d) == support_DS(m.instance, d)

    def test_sublinearity(self):
        rng = random.Random(23)
        m = self.make((-1, 0), (1, 2), F(1, 2))
        tree, grid = m.instance.tree, m.instance.grid

        def rand_d():
            u = tuple(F(rng.randint(-2, 2)) for _ in range(3))
            ut = tuple(F(rng.randint(-2, 2)) for _ in range(3))
            return DualPair(RandomMeasure(tree, grid, {"w": GridMeasure(grid, u)}),
                            RandomMeasure(tree, grid, {"w": GridMeasure(grid, ut)}))

        def add(d1, d2):
            u = tuple(a + b for a, b in zip(d1.u.measures["w"].atoms,
                                            d2.u.measures["w"].atoms))
            ut = tuple(a + b for a, b in zip(d1.ut.measures["w"].atoms,
                                             d2.ut.measures["w"].atoms))
            return DualPair(RandomMeasure(tree, grid, {"w": GridMeasure(grid, u)}),
                            RandomMeasure(tree, grid, {"w": GridMeasure(grid, ut)}))

        for _ in range(25):
            d1, d2 = rand_d(), rand_d()
            s1, s2 = bidask_support(m, d1), bidask_support(m, d2)
            assert bidask_support(m, add(d1, d2)) <= s1 + s2
            lam = F(rng.randint(1, 4))
            scaled = DualPair(
                RandomMeasure(tree, grid, {"w": GridMeasure(
                    grid, tuple(lam * a for a in d1.u.measures["w"].atoms))}),
                RandomMeasure(tree, grid, {"w": GridMeasure(
                    grid, tuple(lam * a for a in d1.ut.measures["w"].atoms))}))
            assert bidask_support(m, scaled) == lam * s1

    def test_separation_failure_reports_slot(self):
        tree = det_tree()
        b = ScalarProcess.constant_cells(tree, G3, {"w": (0, 0)}, "optional")
        a = ScalarProcess.constant_cells(tree, G3, {"w": (2, 2)}, "optional")
        ybar = RandomPath(tree, G3, {"w": StepPath(G3, (0, 1, 1))})  # touches the bid
        with pytest.raises(ValueError) as err:
            bidask_model(b, a, ybar)
        assert "slot 0" in str(err.value)


class TestCurrency:
    def grid(self):
        return TimeGrid((0, 1, 2))

    def model(self):
        # constraint map S = orthant, so solvency G = its polar
        return currency_model(ConeMap.constant(self.grid(), PolyCone.orthant(2).polar()))

    def test_member_diagonal_direction(self):
        cm = self.model()
        u = VectorMeasure(self.grid(), ((-1, -1), (0, 0), (0, 0)))
        ut = VectorMeasure(self.grid(), ((0, 0),) * 3)
        assert cm.is_member(u, ut)["member"]

    def test_non_member_axis_direction(self):
        cm = self.model()
        u = VectorMeasure(self.grid(), ((1, 0), (0, 0), (0, 0)))
        ut = VectorMeasure(self.grid(), ((0, 0),) * 3)
        assert not cm.is_member(u, ut)["member"]

    def test_zero_pair_is_member(self):
        cm = self.model()
        z = VectorMeasure(self.grid(), ((0, 0),) * 3)
        assert cm.is_member(z, z)["member"]

    def test_members_certify_nonpositive_pairings(self):
        cm = self.model()
        rng = random.Random(29)
        u = VectorMeasure(self.grid(), ((-1, -2), (0, 0), (-1, 0)))
        ut = VectorMeasure(self.grid(), ((0, 0), (0, -1), (-2, -1)))
        assert cm.is_member(u, ut)["member"]
        for _ in range(100):
            y = cm.sample_selection(rng)
            assert vector_pairing(y, u, ut) <= 0

    def test_membership_closed_under_addition(self):
        cm = self.model()
        u1 = VectorMeasure(self.grid(), ((-1, -2), (0, 0), (-1, 0)))
        u2 = VectorMeasure(self.grid(), ((0, -1), (-3, -1), (0, 0)))
        ut = VectorMeasure(self.grid(), ((0, 0),) * 3)
        total = VectorMeasure(self.grid(), tuple(
            tuple(a + b for a, b in zip(x, y)) for x, y in zip(u1.atoms, u2.atoms)))
        assert cm.is_member(u1, ut)["member"] and cm.is_member(u2, ut)["member"]
        assert cm.is_member(total, ut)["member"]

    def test_verify_builds_each_attainable_cone_once(self, monkeypatch, capsys):
        built = []
        orig = finmodels.CurrencyModel.attainable_cone
        monkeypatch.setattr(finmodels.CurrencyModel, "attainable_cone",
                            lambda cm, i: built.append(i) or orig(cm, i))
        path = bundled_instance_path("currency")
        assert cli.main(["verify", path, "--theorem", "currency"]) == 0
        assert sorted(built) == [0, 1, 2]  # the preset's grid has 3 slots
        report = json.loads(capsys.readouterr().out)
        del report["timestamp"]
        # the report of the build-per-sample code this replaced
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() \
            == "d69f7ee9be60a525ed7fb1c80d8c60477cde9de25674f04ee062af4dae568cf1"

    def test_precondition_failure_raises(self):
        # a solvency cone containing a line has a non-solid polar
        halfplane = PolyCone.from_generators([(1, 0), (-1, 0), (0, 1)], 2)
        with pytest.raises(ValueError):
            currency_model(ConeMap.constant(self.grid(), halfplane))


# ---------------------------------------------------------------------------
# The integer kernel of the currency check against the sampling loop
# ---------------------------------------------------------------------------

def reference_max(cm, rng, u, ut, count):
    """The reference for the kernel: the largest pairing of ``count``
    selections, each sampled and paired as a path."""
    return max(vector_pairing(cm.sample_selection(rng), u, ut) for _ in range(count))


def assert_kernel_matches(cm, duals, seed, count):
    """The duals in turn on one generator, as ``_check_currency`` runs them:
    equal values, all of type Fraction, and the same generator state after
    each dual, so no dual draws more or fewer numbers than the sampler."""
    rng, ref = random.Random(seed), random.Random(seed)
    for u, ut in duals:
        got = cm.max_sampled_pairing(rng, u, ut, count)
        want = reference_max(cm, ref, u, ut, count)
        assert got == want
        assert type(got) is F and type(want) is F
        assert rng.getstate() == ref.getstate()


def coefficient_selection(cm, rng):
    """A sampled selection from its definition: ``rng.randint(0, 4)`` per
    generator of each attainable cone, slot by slot, generator by generator,
    and nothing drawn at a slot whose cone has no generators."""
    dim = cm.solvency.dim
    values = []
    for i in range(cm.grid.n_slots):
        vec = [F(0)] * dim
        for g in cm.attainable_cone(i).generators:
            c = rng.randint(0, 4)
            vec = [x + c * gk for x, gk in zip(vec, g)]
        values.append(tuple(vec))
    return VectorPath(cm.grid, tuple(values))


def assert_pairings_are_unit_paths(cm, u, ut):
    """w_ij is the pairing of the path that is g_ij at slot i and 0 elsewhere."""
    zero = (F(0),) * cm.solvency.dim
    table = cm.generator_pairings(u, ut)
    assert len(table) == cm.grid.n_slots
    for i, row in enumerate(table):
        gens = cm.attainable_cone(i).generators
        assert len(row) == len(gens)
        for g, w in zip(gens, row):
            unit = VectorPath(cm.grid, tuple(g if k == i else zero
                                             for k in range(cm.grid.n_slots)))
            assert w == vector_pairing(unit, u, ut)


def assert_selection_draws(cm, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert cm.sample_selection(rng) == coefficient_selection(cm, ref)
        assert rng.getstate() == ref.getstate()


@pytest.fixture(scope="module")
def currency_files(tmp_path_factory):
    """The currency preset and its ``refine --factor 2`` file, as loaded."""
    path = bundled_instance_path("currency")
    fine = str(tmp_path_factory.mktemp("currency") / "currency2.json")
    assert cli.main(["refine", path, "--factor", "2", "-o", fine]) == 0
    return [load_instance(p).model.parts for p in (path, fine)]


COUNTS = (1, 2, 7, 50)


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("count", COUNTS)
def test_kernel_equals_the_sampling_loop_on_the_preset(currency_files, which, count):
    parts = currency_files[which]
    cm = currency_model(parts["solvency"])
    duals = parts["duals"]
    members = [d for d in duals if cm.is_member(*d)["member"]]
    assert 0 < len(members) < len(duals)  # the non-member has a positive w_ij
    for seed in range(4):
        assert_kernel_matches(cm, members, seed, count)  # the CLI's sequence
        assert_kernel_matches(cm, duals, seed, count)
        for d in duals:
            assert_kernel_matches(cm, [d], seed, count)
    for u, ut in duals:
        assert_pairings_are_unit_paths(cm, u, ut)
    assert_selection_draws(cm, 5)


def _vm(grid, atoms):
    return VectorMeasure(grid, tuple(tuple(F(x) for x in a) for a in atoms))


def test_kernel_on_a_cone_with_no_generators():
    # the whole plane as the solvency cone at t_1 leaves {0} attainable there
    grid = TimeGrid((0, 1, 2, 3))
    plane = PolyCone.from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    neg = PolyCone.orthant(2).polar()
    solvency = ConeMap(grid, (neg, plane, neg, neg), (neg, plane, neg))
    cm = CurrencyModel(solvency, solvency.polar_map(), {})
    assert [len(cm.attainable_cone(i).generators) for i in range(4)] == [2, 0, 2, 2]
    duals = [
        (_vm(grid, ((-1, F(-1, 2)), (1, 1), (F(1, 3), -2), (-1, -1))),
         _vm(grid, ((0, 0), (F(-1, 5), 0), (3, 3), (0, 1)))),
        (_vm(grid, ((1, 0), (0, 0), (0, 0), (0, 0))),
         _vm(grid, ((0, 0),) * 4)),
    ]
    assert cm.generator_pairings(*duals[0])[1] == ()
    for count in COUNTS:
        for seed in range(3):
            assert_kernel_matches(cm, duals, seed, count)
    for u, ut in duals:
        assert_pairings_are_unit_paths(cm, u, ut)
    assert_selection_draws(cm, 11)


def test_kernel_with_no_generators_anywhere_draws_nothing():
    grid = TimeGrid((0, 1))
    line = PolyCone.from_generators([(1,), (-1,)], 1)
    cm = CurrencyModel(ConeMap.constant(grid, line), ConeMap.constant(grid, line.polar()), {})
    u = _vm(grid, ((F(2, 3),), (-1,)))
    rng = random.Random(3)
    state = rng.getstate()
    got = cm.max_sampled_pairing(rng, u, u, 5)
    assert got == 0 and type(got) is F and rng.getstate() == state


def test_kernel_refuses_a_zero_count_like_max():
    cm = currency_model(ConeMap.constant(G3, PolyCone.orthant(2).polar()))
    z = _vm(G3, ((0, 0),) * 3)
    with pytest.raises(ValueError):
        cm.max_sampled_pairing(random.Random(0), z, z, 0)


_atoms = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_weights = st.fractions(min_value=0, max_value=3, max_denominator=6)


@st.composite
def currency_cases(draw):
    """A solvency cone map of integer families (zero, repeated and opposite
    rays, so also cones whose attainable cone is {0}), and one to three
    duals whose atoms are each a nonnegative rational combination of the
    solvency cone they must point into, or any rational vector: members,
    non-members and tables with positive entries."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    grid = TimeGrid(tuple(range(n + 1)))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)

    def cone():
        return PolyCone.from_generators(draw(st.lists(vec, max_size=4)), dim)

    solvency = ConeMap(grid, tuple(cone() for _ in range(n + 1)),
                       tuple(cone() for _ in range(n)))

    def atom(k):
        if k is not None and draw(st.booleans()):
            ws = draw(st.lists(_weights, min_size=len(k.generators),
                               max_size=len(k.generators)))
            return tuple(sum((w * g[j] for w, g in zip(ws, k.generators)), F(0))
                         for j in range(dim))
        return tuple(draw(st.lists(_atoms, min_size=dim, max_size=dim)))

    def dual():
        u = VectorMeasure(grid, tuple(atom(k) for k in solvency.point_cones))
        ut = VectorMeasure(grid, (atom(None),) + tuple(atom(k) for k in solvency.cell_cones))
        return u, ut

    duals = [dual() for _ in range(draw(st.integers(1, 3)))]
    return CurrencyModel(solvency, solvency.polar_map(), {}), duals


@settings(max_examples=150, deadline=None)
@given(currency_cases(), st.integers(1, 50), st.integers(0, 2 ** 32))
def test_kernel_equals_the_sampling_loop_on_drawn_cone_maps(case, count, seed):
    cm, duals = case
    assert_kernel_matches(cm, duals, seed, count)
    for u, ut in duals:
        assert_pairings_are_unit_paths(cm, u, ut)
    assert_selection_draws(cm, seed)
