"""Refinement composes, and one refinement shares one grid and one tree.

Refining by a and then by b equals refining by a * b, for every refinable
type.  ``TimeGrid.refine``, ``ScenarioTree.refine`` and ``Instance.refine``
return one object per (value, factor), so every part of a refined instance
holds the same grid and every scenario-level part the same tree, and the
refined instance itself is built once.
"""

import dataclasses
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import preset

import cadlagconvex
from cadlagconvex import (duality, finmodels, polycone, scenario, serialize,
                          setmaps, timegrid)
from cadlagconvex.generators import (rand_feasible_path, rand_finite_dual,
                                     rand_passing_instance)
from cadlagconvex.presets import PRESET_NAMES
from cadlagconvex.scenario import ScenarioTree
from cadlagconvex.serialize import InstanceDoc, Model, instance_doc_to_json
from cadlagconvex.timegrid import TimeGrid

FACTORS = [(2, 2), (2, 3), (3, 2)]


def _random_doc(seed: int) -> InstanceDoc:
    rng = random.Random(seed)
    inst = rand_passing_instance(rng, max_scenarios=3, max_cells=3, with_htilde=True)
    return InstanceDoc(inst, [rand_finite_dual(rng, inst)],
                       [rand_feasible_path(rng, inst)], None)


def _refinable_classes():
    """Every class of the package that defines its own ``refine``."""
    modules = (duality, finmodels, polycone, scenario, serialize, setmaps, timegrid)
    return {cls for mod in modules for _, cls in inspect.getmembers(mod, inspect.isclass)
            if cls.__module__.startswith(cadlagconvex.__name__) and "refine" in vars(cls)}


def _refinables(idoc: InstanceDoc):
    """The document's instance, duals, paths and model data, and their parts."""
    inst = idoc.instance
    tree, grid = inst.tree, inst.grid
    out = [inst, grid, tree, inst.h, inst.htilde, inst.mu, inst.mutilde,
           inst.S, inst.Stilde, *idoc.duals, *idoc.paths]
    for s in tree.scenarios:
        out += [inst.mu.measures[s], inst.s_map(s)]
        out += [p.paths[s] for p in idoc.paths]
    for part in ({} if idoc.model is None else idoc.model.parts).values():
        # the currency duals are a tuple of (u, ut) pairs
        out += [m for pair in part for m in pair] if type(part) is tuple else [part]
    return out


def _assert_composes(idoc: InstanceDoc, a: int, b: int) -> None:
    for x in _refinables(idoc):
        assert x.refine(a).refine(b) == x.refine(a * b), (type(x).__name__, a, b)
    assert instance_doc_to_json(idoc.refine(a).refine(b)) == \
        instance_doc_to_json(idoc.refine(a * b))


@pytest.mark.parametrize("a, b", FACTORS)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_refine_compositionally(name, a, b):
    _assert_composes(preset(name), a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FACTORS))
def test_random_instances_refine_compositionally(seed, factors):
    _assert_composes(_random_doc(seed), *factors)


def test_every_refinable_type_is_covered():
    covered = {type(x) for name in PRESET_NAMES for x in _refinables(preset(name))}
    assert _refinable_classes() - covered == {InstanceDoc, Model}


# -- one grid and one tree per refinement -------------------------------------------

def _scenario_parts(idoc: InstanceDoc):
    """Every part of the document that holds the tree, with the grid too."""
    inst = idoc.instance
    return [inst, inst.h, inst.htilde, inst.mu, inst.mutilde, inst.S, inst.Stilde,
            *(m for d in idoc.duals for m in (d.u, d.ut)), *idoc.paths]


def _grid_parts(idoc: InstanceDoc):
    """Every part of the document that holds the grid."""
    inst = idoc.instance
    measures = [inst.mu, inst.mutilde, *(m for d in idoc.duals for m in (d.u, d.ut))]
    return _scenario_parts(idoc) + \
        [m for rm in measures for m in rm.measures.values()] + \
        [m for rsm in (inst.S, inst.Stilde) for m in rsm.maps.values()] + \
        [p for rp in idoc.paths for p in rp.paths.values()]


def _assert_shares(idoc: InstanceDoc, k: int) -> None:
    fine = idoc.refine(k)
    grid, tree = fine.instance.grid, fine.instance.tree
    assert grid is idoc.instance.grid.refine(k)
    assert tree is idoc.instance.tree.refine(k)
    assert all(x.grid is grid for x in _grid_parts(fine))
    assert all(x.tree is tree for x in _scenario_parts(fine))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_refine_onto_one_grid_and_tree(name, k):
    _assert_shares(preset(name), k)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 4]))
def test_random_instances_refine_onto_one_grid_and_tree(seed, k):
    _assert_shares(_random_doc(seed), k)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_one_grid_and_one_tree_are_built_per_refinement(name, monkeypatch):
    inst = preset(name).instance
    built = {TimeGrid: 0, ScenarioTree: 0}
    for cls in built:
        def counted(self, _cls=cls, _orig=cls.__post_init__):
            built[_cls] += 1
            _orig(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    fine = inst.refine(2)
    assert built == {TimeGrid: 1, ScenarioTree: 1}
    assert inst.refine(2) is fine
    assert built == {TimeGrid: 1, ScenarioTree: 1}


def _hash(x):
    """hash(x), or the type of the error it raises (an Instance holds dicts)."""
    try:
        return hash(x)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_memo_changes_no_equality_hash_repr_or_output(name):
    idoc = preset(name)
    inst = idoc.instance
    grid, tree = inst.grid, inst.tree
    before = [(repr(x), _hash(x), [f.name for f in dataclasses.fields(x)])
              for x in (grid, tree, inst)]
    text = instance_doc_to_json(idoc)
    idoc.refine(2)
    idoc.refine(3)
    assert inst.refine(2) is inst.refine(2)
    after = [(repr(x), _hash(x), [f.name for f in dataclasses.fields(x)])
             for x in (grid, tree, inst)]
    assert after == before
    assert instance_doc_to_json(idoc) == text
    twin = preset(name).instance
    assert twin == inst and twin.refine(2) == inst.refine(2)
    assert twin.refine(2) is not inst.refine(2)
    twin_grid = TimeGrid(grid.times)
    twin_tree = ScenarioTree(tree.scenarios, tree.probs, tree.partitions)
    assert twin_grid == grid and hash(twin_grid) == hash(grid)
    assert twin_tree == tree and hash(twin_tree) == hash(tree)
    assert twin_grid.refine(2) == grid.refine(2) and twin_tree.refine(2) == tree.refine(2)


@pytest.mark.parametrize("factor", [1, 0, -1])
def test_a_factor_below_two_raises_on_every_call(factor):
    idoc = preset("basic")
    inst = idoc.instance
    for _ in range(2):
        for x in (inst.grid, inst.tree, inst, idoc):
            with pytest.raises(ValueError, match="factor must be >= 2"):
                x.refine(factor)
    inst.refine(2)
    for x in (inst.grid, inst.tree, inst):
        with pytest.raises(ValueError, match="factor must be >= 2"):
            x.refine(factor)
    assert set(vars(inst.grid)["_memo"]) == set(vars(inst)["_memo"]) == {2}
