"""Scenario trees: measurability, projections, Jensen, atoms, pasting."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import affine, rebuilt

from cadlagconvex.plconvex import EMPTY_INTERVAL, abs_fn, restrict, RInterval
from cadlagconvex.rationals import NEG_INF
from cadlagconvex.scenario import (RandomIntegrand, RandomMeasure, RandomPath,
                                   ScenarioTree, check_adapted,
                                   check_predictable, expected_pairing,
                                   jensen_check, minorant_certificate,
                                   optional_projection, paste,
                                   predictable_atoms, unmeasurable_slot)
from cadlagconvex.timegrid import GridMeasure, StepPath, TimeGrid

G3 = TimeGrid((0, 1, 2))


def two_scenario_tree():
    half = F(1, 2)
    return ScenarioTree(("a", "b"), (half, half),
                        ((("a", "b"),), (("a",), ("b",)), (("a",), ("b",))))


def rpath(tree, values_by_scenario):
    return RandomPath(tree, G3, {s: StepPath(G3, v) for s, v in values_by_scenario.items()})


def rmeasure(tree, atoms_by_scenario):
    return RandomMeasure(tree, G3, {s: GridMeasure(G3, a) for s, a in atoms_by_scenario.items()})


class TestMeasurability:
    def test_deterministic_is_adapted_and_predictable(self):
        tree = two_scenario_tree()
        y = rpath(tree, {"a": (1, 2, 3), "b": (1, 2, 3)})
        assert check_adapted(y) and check_predictable(y)

    def test_splitting_cell_breaks_adaptedness(self):
        tree = two_scenario_tree()
        y = rpath(tree, {"a": (1, 0, 0), "b": (2, 0, 0)})
        assert not check_adapted(y)

    def test_adapted_not_predictable(self):
        tree = two_scenario_tree()
        y = rpath(tree, {"a": (1, 5, 5), "b": (1, 7, 7)})
        assert check_adapted(y)
        assert not check_predictable(y)

    @pytest.mark.parametrize("ids", [(1, 2), ("a", None), ("a", b"b")])
    def test_scenario_ids_must_be_strings(self, ids):
        """A file keys probabilities by scenario id, and JSON keys are strings:
        a tree with int ids used to be written, then refused on load."""
        half = F(1, 2)
        with pytest.raises(ValueError, match="^scenario ids must be strings$"):
            ScenarioTree(ids, (half, half), ((ids,), tuple((s,) for s in ids)))

    def test_refinement_chain_enforced(self):
        with pytest.raises(ValueError):
            ScenarioTree(("a", "b"), (F(1, 2), F(1, 2)),
                         ((("a",), ("b",)), (("a", "b"),), (("a", "b"),)))


class TestProjections:
    def test_projection_fixes_adapted(self):
        tree = two_scenario_tree()
        y = rpath(tree, {"a": (1, 5, 5), "b": (1, 7, 7)})
        assert optional_projection(y).paths == y.paths

    def test_average_on_merged_cell(self):
        tree = two_scenario_tree()
        w = rpath(tree, {"a": (2, 0, 0), "b": (4, 0, 0)})
        ow = optional_projection(w)
        assert ow.paths["a"].values[0] == ow.paths["b"].values[0] == 3

    def test_tower_property(self):
        rng = random.Random(3)
        tree = two_scenario_tree()
        for _ in range(30):
            w = rpath(tree, {s: tuple(F(rng.randint(-5, 5)) for _ in range(3))
                             for s in ("a", "b")})
            ow = optional_projection(w)
            assert optional_projection(ow).paths == ow.paths

    def test_pairing_invariance_under_projection(self):
        rng = random.Random(7)
        tree = two_scenario_tree()
        for _ in range(30):
            w = rpath(tree, {s: tuple(F(rng.randint(-5, 5)) for _ in range(3))
                             for s in ("a", "b")})
            u = rmeasure(tree, {"a": (1, 2, 0), "b": (1, -1, 0)})   # optional
            ut = rmeasure(tree, {"a": (0, 1, 2), "b": (0, 1, 2)})   # predictable
            assert check_adapted(u) and check_predictable(ut)
            zero_u = RandomMeasure.zero(tree, G3)
            # optional measures cannot distinguish a process from its projection
            assert expected_pairing(w, u, zero_u) == \
                expected_pairing(optional_projection(w), u, zero_u)
            # predictable measures act on left limits, which may be projected
            # onto the previous partition slot by slot
            for i in range(1, 3):
                vals = {s: w.paths[s].values[i - 1] for s in ("a", "b")}
                proj = tree.cell_average(i - 1, vals)
                raw_term = tree.expectation({
                    s: vals[s] * ut.measures[s].atoms[i] for s in ("a", "b")})
                proj_term = tree.expectation({
                    s: proj[s] * ut.measures[s].atoms[i] for s in ("a", "b")})
                assert raw_term == proj_term


class TestJensen:
    def test_adapted_process_gives_equality(self):
        tree = two_scenario_tree()
        h = RandomIntegrand(tree, G3, {s: (abs_fn(),) * 3 for s in ("a", "b")}, "optional")
        mu = rmeasure(tree, {s: (1, 1, 0) for s in ("a", "b")})
        w = rpath(tree, {"a": (1, 2, 0), "b": (1, 3, 0)})
        rep = jensen_check(h, mu, w)
        assert rep["lhs"] == rep["rhs"] and rep["ok"]

    def test_cancelling_averages(self):
        tree = two_scenario_tree()
        h = RandomIntegrand(tree, G3, {s: (abs_fn(),) * 3 for s in ("a", "b")}, "optional")
        mu = rmeasure(tree, {s: (1, 0, 0) for s in ("a", "b")})
        w = rpath(tree, {"a": (1, 0, 0), "b": (-1, 0, 0)})
        rep = jensen_check(h, mu, w)
        assert rep["lhs"] == 1 and rep["rhs"] == 0 and rep["ok"]

    def test_affine_integrand_commutes(self):
        rng = random.Random(11)
        tree = two_scenario_tree()
        h = RandomIntegrand(tree, G3, {s: (affine(F(3), F(1)),) * 3 for s in ("a", "b")},
                            "optional")
        for _ in range(30):
            shared = tuple(F(rng.randint(0, 3)) for _ in range(3))
            mu = rmeasure(tree, {s: shared for s in ("a", "b")})
            w = rpath(tree, {s: tuple(F(rng.randint(-5, 5)) for _ in range(3))
                             for s in ("a", "b")})
            rep = jensen_check(h, mu, w)
            assert rep["lhs"] == rep["rhs"]

    def test_unbounded_below_integrand_gets_nonzero_minorant(self):
        tree = two_scenario_tree()
        h = RandomIntegrand(tree, G3, {s: (affine(F(1), F(0)),) * 3 for s in ("a", "b")},
                            "optional")
        cert = minorant_certificate(h)
        assert cert.v["a"][0] == 1    # slope of the integrand, in dom h*
        mu = rmeasure(tree, {s: (1, 0, 0) for s in ("a", "b")})
        w = rpath(tree, {"a": (4, 0, 0), "b": (-4, 0, 0)})
        rep = jensen_check(h, mu, w)
        assert rep["ok"] and rep["lhs"] == rep["rhs"] == 0

    def test_precondition_failures_reported(self):
        tree = two_scenario_tree()
        h = RandomIntegrand(tree, G3, {s: (abs_fn(),) * 3 for s in ("a", "b")}, "raw")
        mu = rmeasure(tree, {s: (1, 0, 0) for s in ("a", "b")})
        w = rpath(tree, {s: (0, 0, 0) for s in ("a", "b")})
        with pytest.raises(ValueError):
            jensen_check(h, mu, w)


class TestAtomsAnnouncePaste:
    def test_deterministic_atoms(self):
        tree = two_scenario_tree()
        ut = rmeasure(tree, {s: (0, 0, 3) for s in ("a", "b")})
        assert predictable_atoms(ut) == {"a": (2,), "b": (2,)}

    def test_zero_measure_has_no_atoms(self):
        tree = two_scenario_tree()
        assert predictable_atoms(RandomMeasure.zero(tree, G3)) == {"a": (), "b": ()}

    def test_non_predictable_rejected(self):
        tree = two_scenario_tree()
        ut = rmeasure(tree, {"a": (0, 5, 0), "b": (0, 0, 0)})
        with pytest.raises(ValueError):
            predictable_atoms(ut)

    def test_paste_empty_atoms_is_identity(self):
        tree = two_scenario_tree()
        y = rpath(tree, {s: (1, 2, 3) for s in ("a", "b")})
        yt = rpath(tree, {s: (9, 9, 9) for s in ("a", "b")})
        assert paste(y, yt, {"a": (), "b": ()}).paths == y.paths

    def test_paste_single_atom_touches_one_slot(self):
        tree = two_scenario_tree()
        y = rpath(tree, {s: (1, 2, 3) for s in ("a", "b")})
        yt = rpath(tree, {s: (9, 9, 9) for s in ("a", "b")})
        z = paste(y, yt, {"a": (2,), "b": (2,)})
        assert z.paths["a"].values == (F(1), F(9), F(3))
        assert z.paths["a"].left_values()[2] == 9

    def test_paste_all_interior_atoms(self):
        tree = two_scenario_tree()
        y = rpath(tree, {s: (1, 2, 3) for s in ("a", "b")})
        yt = rpath(tree, {s: (9, 8, 7) for s in ("a", "b")})
        z = paste(y, yt, {"a": (1, 2), "b": (1, 2)})
        assert z.paths["a"].values == (F(9), F(8), F(3))

    def test_paste_preserves_selections_and_dominates(self):
        rng = random.Random(17)
        tree = two_scenario_tree()
        box = RInterval(F(-5), F(5))
        h = RandomIntegrand(tree, G3, {s: (restrict(abs_fn(), box),) * 3
                                       for s in ("a", "b")}, "optional")
        for _ in range(20):
            def adapted_path():
                root = F(rng.randint(-5, 5))
                return rpath(tree, {s: (root, F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
                                    for s in ("a", "b")})
            y, yt = adapted_path(), adapted_path()
            z = paste(y, yt, {"a": (2,), "b": (2,)})
            for s in ("a", "b"):
                for i, v in enumerate(z.paths[s].values):
                    assert v in (y.paths[s].values[i], yt.paths[s].values[i])
                    fn = h.functions[s][i]
                    assert fn(v) <= max(fn(y.paths[s].values[i]),
                                        fn(yt.paths[s].values[i]))

    def test_pasted_left_limits_match_at_atoms(self):
        tree = two_scenario_tree()
        ut = rmeasure(tree, {"a": (0, 0, 2), "b": (0, 0, 1)})
        atoms = predictable_atoms(ut)
        y = rpath(tree, {s: (0, 0, 0) for s in ("a", "b")})
        yt = rpath(tree, {"a": (5, 5, 5), "b": (5, 6, 6)})
        z = paste(y, yt, atoms)
        for s in ("a", "b"):
            assert z.paths[s].left_values()[2] == yt.paths[s].left_values()[2]


def test_tree_refinement_repeats_partitions():
    tree = two_scenario_tree()
    fine = tree.refine(2)
    assert fine.n_slots == 5
    assert fine.partitions[1] == tree.partitions[0]
    assert fine.partitions[2] == tree.partitions[1]


# -- the identity shortcut of unmeasurable_slot and the mass memo -----------------

def unmeasurable_slot_by_inequality(tree, points, cells=None, predictable=False):
    """Reference copy of unmeasurable_slot before it tested identity first:
    each scenario of a cell is compared with the cell's first by != alone."""
    for i in range(tree.n_slots):
        checks = [(points, tree.pred_slot(i) if predictable else i)]
        if cells is not None and i < tree.n_slots - 1:
            checks.append((cells, i))
        for data, slot in checks:
            for cell in tree.cells(slot):
                first = data[cell[0]][i]
                if any(data[s][i] != first for s in cell[1:]):
                    return i
    return None


SCENARIOS = ("a", "b", "c", "d", "e")
# a few values of each kind the loader shares; an entry is one of them or a
# copy of it rebuilt field by field
POOLS = {
    "fraction": (F(1, 2), F(1), F(-3, 4)),
    "interval": (RInterval(F(0), F(1)), RInterval(NEG_INF, F(1)), EMPTY_INTERVAL),
    "function": (abs_fn(), affine(F(1), F(0)), restrict(abs_fn(), RInterval(F(0), F(1)))),
}


@st.composite
def trees(draw):
    """Nested partitions of up to five scenarios; a cell splits now and then,
    so cells of three or more scenarios are common."""
    scenarios = SCENARIOS[:draw(st.integers(1, len(SCENARIOS)))]
    weights = draw(st.lists(st.integers(1, 3), min_size=len(scenarios),
                            max_size=len(scenarios)))
    partition, partitions = [scenarios], []
    for _ in range(draw(st.integers(2, 4))):
        finer = []
        for cell in partition:
            labels = [draw(st.sampled_from([0, 0, 0, 1])) for _ in cell]
            finer += [tuple(s for s, k in zip(cell, labels) if k == side) for side in (0, 1)
                      if side in labels]
        partition = finer
        partitions.append(tuple(partition))
    return ScenarioTree(scenarios, tuple(F(w, sum(weights)) for w in weights),
                        tuple(partitions))


@st.composite
def slot_families(draw):
    """(tree, points, cells or None, predictable): slot data of one kind,
    constant on the cells it must be constant on but for an entry now and
    then, each entry either the pool's object or a copy rebuilt from it."""
    tree = draw(trees())
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    predictable = draw(st.booleans())

    def family(n_slots, slot_of):
        data = {s: [] for s in tree.scenarios}
        for i in range(n_slots):
            for cell in tree.cells(slot_of(i)):
                k = draw(st.integers(0, len(pool) - 1))
                for s in cell:
                    v = pool[draw(st.integers(0, len(pool) - 1))
                             if draw(st.integers(0, 7)) == 0 else k]
                    data[s].append(rebuilt(v) if draw(st.booleans()) else v)
        return data
    points = family(tree.n_slots, tree.pred_slot if predictable else (lambda i: i))
    cells = family(tree.n_slots - 1, lambda i: i) if draw(st.booleans()) else None
    return tree, points, cells, predictable


def _three_in_a_cell():
    """One cell of three scenarios at slot 0 whose first two share a value and
    whose third differs."""
    tree = ScenarioTree(("a", "b", "c"), (F(1, 3),) * 3, ((("a", "b", "c"),),) * 2)
    x = F(1)
    return tree, {"a": [x, x], "b": [x, x], "c": [F(2), x]}, None, False


@settings(max_examples=300, deadline=None)
@given(slot_families())
@example(_three_in_a_cell())
def test_unmeasurable_slot_equals_the_inequality_reference(family):
    """Identity answers only for pairs that are one object: equal copies and
    every later scenario of a cell are still compared."""
    tree, points, cells, predictable = family
    assert unmeasurable_slot(tree, points, cells, predictable) == \
        unmeasurable_slot_by_inequality(tree, points, cells, predictable)


@settings(max_examples=100, deadline=None)
@given(trees())
def test_mass_equals_its_old_expression(tree):
    """The memoised mass is the exact sum, the same object on each call."""
    for partition in tree.partitions:
        for cell in partition:
            mass = tree.mass(cell)
            assert type(mass) is F and mass == sum((tree.prob(s) for s in cell), F(0))
            assert tree.mass(cell) is mass
