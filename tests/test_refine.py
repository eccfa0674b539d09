"""Refining by a and then by b equals refining by a * b, for every refinable type."""

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cadlagconvex
from cadlagconvex import (duality, finmodels, polycone, scenario, serialize,
                          setmaps, timegrid)
from cadlagconvex.generators import (rand_feasible_path, rand_finite_dual,
                                     rand_passing_instance)
from cadlagconvex.presets import PRESET_NAMES, build_preset
from cadlagconvex.serialize import (InstanceDoc, conemap_from_json,
                                    instance_doc_to_json,
                                    scalar_process_from_json,
                                    vector_measure_from_json)

FACTORS = [(2, 2), (2, 3), (3, 2)]


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
    model = idoc.model or {}
    out += [scalar_process_from_json(model[k], tree, grid) for k in ("b", "a") if k in model]
    out += [conemap_from_json(model[k], grid)
            for k in ("solvency", "G", "Gtilde") if k in model]
    out += [vector_measure_from_json(dd[k], grid)
            for dd in model.get("duals", []) for k in ("u", "ut")]
    return out


def _assert_composes(idoc: InstanceDoc, a: int, b: int) -> None:
    for x in _refinables(idoc):
        assert x.refine(a).refine(b) == x.refine(a * b), (type(x).__name__, a, b)
    assert instance_doc_to_json(idoc.refine(a).refine(b)) == \
        instance_doc_to_json(idoc.refine(a * b))


@pytest.mark.parametrize("a, b", FACTORS)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_refine_compositionally(name, a, b):
    _assert_composes(build_preset(name), a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FACTORS))
def test_random_instances_refine_compositionally(seed, factors):
    rng = random.Random(seed)
    inst = rand_passing_instance(rng, max_scenarios=3, max_cells=3, with_htilde=True)
    idoc = InstanceDoc(inst, [rand_finite_dual(rng, inst)],
                       [rand_feasible_path(rng, inst)], None)
    _assert_composes(idoc, *factors)


def test_every_refinable_type_is_covered():
    covered = {type(x) for name in PRESET_NAMES for x in _refinables(build_preset(name))}
    assert _refinable_classes() - covered == {InstanceDoc}
