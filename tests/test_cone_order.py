"""The order of the rays a cone conversion lists, on the cones the currency
and cs checks build.

``CurrencyModel._draw_coefficients`` draws one ``randint`` per generator of
each attainable cone, in the order the conversion lists them, so a sampled
``currency`` report depends on that order and not only on the cone.  The
cases are the cones of the ``currency`` and ``cs`` presets and of their x2
refinements: each file cone and its polar, the window hull of each slot's
point cone with its cell cone, and the currency model's attainable cones.
Two cones with a lineality space pin where its basis goes.  Their forms, as
coprime integer rays in order, were recorded from the double description
sweep that the extreme-ray enumeration replaced.
"""

import pytest

from conftest import preset

from cadlagconvex.finmodels import currency_model
from cadlagconvex.polycone import ConeMap, PolyCone, cone_hull

HULLED = {"currency": "solvency", "cs": "G"}


def built_cones(name, factor):
    """``(label, cone)`` for every cone the preset's check builds on the
    file refined by ``factor``."""
    model = preset(name).model
    parts = (model if factor == 1 else model.refine(factor)).parts
    for part, cm in sorted(parts.items()):
        if isinstance(cm, ConeMap):
            for where, cones in (("point", cm.point_cones), ("cell", cm.cell_cones)):
                for i, k in enumerate(cones):
                    yield f"{part} {where} {i}", k
                    yield f"{part} {where} {i} polar", k.polar()
    g = parts[HULLED[name]]
    for i in range(g.grid.n_cells):
        yield f"hull {i}", cone_hull([g.point_cones[i], g.cell_cones[i]])
    if name == "currency":
        for i, k in enumerate(currency_model(g)._attainable_cones):
            yield f"attainable {i}", k


def ints(form):
    return tuple(tuple(int(x) for x in r) for r in form)


PINNED = {
    ("currency", 1): {
        "solvency point 0": (((-1, 0), (0, -1)), ((0, 1), (1, 0))),
        "solvency point 0 polar": (((0, 1), (1, 0)), ((-1, 0), (0, -1))),
        "solvency point 1": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "solvency point 1 polar": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "solvency point 2": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "solvency point 2 polar": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "solvency cell 0": (((-1, 0), (0, -1)), ((0, 1), (1, 0))),
        "solvency cell 0 polar": (((0, 1), (1, 0)), ((-1, 0), (0, -1))),
        "solvency cell 1": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "solvency cell 1 polar": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "hull 0": (((-1, 0), (0, -1)), ((0, 1), (1, 0))),
        "hull 1": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "attainable 0": (((0, 1), (1, 0)), ((-1, 0), (0, -1))),
        "attainable 1": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "attainable 2": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
    },
    ("currency", 2): {
        "solvency point 0": (((-1, 0), (0, -1)), ((0, 1), (1, 0))),
        "solvency point 0 polar": (((0, 1), (1, 0)), ((-1, 0), (0, -1))),
        "solvency point 1": (((-1, 0), (0, -1)), ((0, 1), (1, 0))),
        "solvency point 1 polar": (((0, 1), (1, 0)), ((-1, 0), (0, -1))),
        "solvency point 2": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "solvency point 2 polar": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "solvency point 3": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "solvency point 3 polar": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "solvency point 4": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "solvency point 4 polar": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "solvency cell 0": (((-1, 0), (0, -1)), ((0, 1), (1, 0))),
        "solvency cell 0 polar": (((0, 1), (1, 0)), ((-1, 0), (0, -1))),
        "solvency cell 1": (((-1, 0), (0, -1)), ((0, 1), (1, 0))),
        "solvency cell 1 polar": (((0, 1), (1, 0)), ((-1, 0), (0, -1))),
        "solvency cell 2": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "solvency cell 2 polar": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "solvency cell 3": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "solvency cell 3 polar": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "hull 0": (((-1, 0), (0, -1)), ((0, 1), (1, 0))),
        "hull 1": (((-1, 0), (0, -1)), ((0, 1), (1, 0))),
        "hull 2": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "hull 3": (((-2, -1), (-1, -2)), ((-1, 2), (2, -1))),
        "attainable 0": (((0, 1), (1, 0)), ((-1, 0), (0, -1))),
        "attainable 1": (((0, 1), (1, 0)), ((-1, 0), (0, -1))),
        "attainable 2": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "attainable 3": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
        "attainable 4": (((-1, 2), (2, -1)), ((-2, -1), (-1, -2))),
    },
    ("cs", 1): {
        "G point 0": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "G point 0 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "G point 1": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "G point 1 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "G point 2": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "G point 2 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "G cell 0": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "G cell 0 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "G cell 1": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "G cell 1 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "Gtilde point 0": ((), ((-1, 0), (0, -1), (0, 1), (1, 0))),
        "Gtilde point 0 polar": (((1, 0), (-1, 0), (0, 1), (0, -1)), ()),
        "Gtilde point 1": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "Gtilde point 1 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "Gtilde point 2": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "Gtilde point 2 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "Gtilde cell 0": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "Gtilde cell 0 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "Gtilde cell 1": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "Gtilde cell 1 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "hull 0": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "hull 1": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
    },
    ("cs", 2): {
        "G point 0": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "G point 0 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "G point 1": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "G point 1 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "G point 2": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "G point 2 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "G point 3": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "G point 3 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "G point 4": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "G point 4 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "G cell 0": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "G cell 0 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "G cell 1": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "G cell 1 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "G cell 2": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "G cell 2 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "G cell 3": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "G cell 3 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "Gtilde point 0": ((), ((-1, 0), (0, -1), (0, 1), (1, 0))),
        "Gtilde point 0 polar": (((1, 0), (-1, 0), (0, 1), (0, -1)), ()),
        "Gtilde point 1": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "Gtilde point 1 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "Gtilde point 2": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "Gtilde point 2 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "Gtilde point 3": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "Gtilde point 3 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "Gtilde point 4": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "Gtilde point 4 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "Gtilde cell 0": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "Gtilde cell 0 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "Gtilde cell 1": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "Gtilde cell 1 polar": (((-2, 1), (1, -2)), ((1, 2), (2, 1))),
        "Gtilde cell 2": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "Gtilde cell 2 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "Gtilde cell 3": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "Gtilde cell 3 polar": (((-4, 1), (1, -4)), ((1, 4), (4, 1))),
        "hull 0": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "hull 1": (((1, 2), (2, 1)), ((-2, 1), (1, -2))),
        "hull 2": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
        "hull 3": (((1, 4), (4, 1)), ((-4, 1), (1, -4))),
    },
}


@pytest.mark.parametrize("name, factor", sorted(PINNED))
def test_conversions_list_the_recorded_rays_in_order(name, factor):
    got = {label: (k.generators, k.halfspaces) for label, k in built_cones(name, factor)}
    assert all(x.denominator == 1 for form in got.values() for rays in form
               for r in rays for x in r)
    assert {label: (ints(g), ints(h)) for label, (g, h) in got.items()} == PINNED[name, factor]


def test_the_lineality_space_comes_last_both_ways():
    """The extreme rays of the pointed part come sorted, then b, -b for each
    basis vector b of the lineality space."""
    line = PolyCone(4, halfspaces=[(3, 2, 3, 5), (18, 5, 4, 2), (21, 14, 29, 47),
                                   (22, -7, 18, 9)])
    assert ints(line.generators) == ((-53, -56, 33, 20), (-14, 19, -12, 8), (-7, 50, -33, 4),
                                     (7, -14, -3, -22), (1, -2, -3, 2), (-1, 2, 3, -2))
    assert ints(PolyCone(2, halfspaces=[(0, -1)]).generators) == ((0, 1), (-1, 0), (1, 0))
