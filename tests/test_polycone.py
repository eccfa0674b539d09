"""Polyhedral cone calculus: polars, membership, regularity windows."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadlagconvex.polycone import (ConeMap, PolyCone, canon_ray, cone_hull,
                                   cs_regularity_check, vdot)
from cadlagconvex.rationals import rat
from cadlagconvex.timegrid import TimeGrid

ORTH = PolyCone.orthant(2)


def canon_ray_by_fractions(v):
    """The Fraction arithmetic canon_ray used before it went integer-only."""
    vec = tuple(rat(x) for x in v)
    if all(x == 0 for x in vec):
        return None
    denom = 1
    for x in vec:
        denom = denom * x.denominator // math.gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return tuple(F(x, g) for x in ints)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30)
                | st.integers(-50, 50), min_size=1, max_size=4))
def test_canon_ray_equals_the_fraction_arithmetic(v):
    got, want = canon_ray(v), canon_ray_by_fractions(v)
    assert got == want
    assert got is None or all(type(x) is F and x.denominator == 1 for x in got)


def polycone_forms_by_fraction_sort(dim, generators, halfspaces):
    """Reference copy of PolyCone.__init__ before it sorted rays as int tuples:
    the stored forms, sorted and deduplicated as tuples of Fraction."""
    forms = []
    for vectors, what in ((generators, "generator"), (halfspaces, "half-space")):
        if vectors is None:
            forms.append(None)
            continue
        rays = []
        for v in vectors:
            r = canon_ray(v)
            if r is None:
                continue
            if len(r) != dim:
                raise ValueError(f"{what} dimension mismatch")
            rays.append(r)
        forms.append(tuple(sorted(set(rays))))
    return tuple(forms)


_entries = st.fractions(min_value=-6, max_value=6, max_denominator=4) | st.integers(-6, 6)


@st.composite
def cone_data(draw):
    """A dimension and vectors for both forms: zero vectors, scaled repeats of
    one ray, and now and then a vector of the wrong length."""
    dim = draw(st.integers(1, 3))
    forms = []
    for _ in range(2):
        if draw(st.integers(0, 4)) == 0:
            forms.append(None)
            continue
        vecs = draw(st.lists(st.lists(_entries, min_size=dim, max_size=dim), max_size=5))
        if vecs and draw(st.booleans()):
            vecs.append([draw(st.sampled_from([2, F(1, 3), -1])) * x for x in vecs[0]])
        if draw(st.integers(0, 9)) == 0:
            vecs.append([1] * draw(st.sampled_from([d for d in (1, 2, 3, 4) if d != dim])))
        forms.append(vecs)
    if forms == [None, None]:
        forms[0] = []
    return dim, forms[0], forms[1]


@settings(max_examples=200, deadline=None)
@given(cone_data())
def test_cone_forms_equal_the_fraction_sort(data):
    dim, gens, halfs = data
    try:
        want = polycone_forms_by_fraction_sort(dim, gens, halfs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            PolyCone(dim, generators=gens, halfspaces=halfs)
        return
    cone = PolyCone(dim, generators=gens, halfspaces=halfs)
    got = (cone._generators, cone._halfspaces)
    assert got == want
    for form in got:
        for ray in form or ():
            assert all(type(x) is F and x.denominator == 1 for x in ray)


class TestPolar:
    def test_orthant_polar_halfspaces(self):
        polar = ORTH.polar()
        assert polar == PolyCone.from_generators([(-1, 0), (0, -1)], 2)
        assert set(polar.halfspaces) == set(ORTH.generators)

    def test_whole_space_polar_is_origin(self):
        assert PolyCone.whole_space(2).polar() == PolyCone.zero(2)

    def test_wedge_polar_against_angular_sweep(self):
        K = PolyCone.from_generators([(1, 1), (1, -1)], 2)
        polar = K.polar()
        assert polar == PolyCone.from_generators([(-1, -1), (-1, 1)], 2)
        # angular enumeration: directions in the polar iff nonpositive on K
        gens = np.array([[1.0, 1.0], [1.0, -1.0]])
        for theta in np.arange(0, 2 * math.pi, 1e-3 * 2 * math.pi):
            d = np.array([math.cos(theta), math.sin(theta)])
            in_polar_float = bool((gens @ d <= 1e-12).all())
            q = (F(round(d[0] * 1000), 1000), F(round(d[1] * 1000), 1000))
            if abs(vdot((F(1), F(1)), q)) < F(1, 100) or abs(vdot((F(1), F(-1)), q)) < F(1, 100):
                continue  # too close to the boundary for the rounded direction
            assert polar.member(q) == in_polar_float

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ORTH.member((1, 2, 3))


class TestMember:
    def test_orthant_member(self):
        assert ORTH.member((1, 2))
        assert not ORTH.member((-1, 2))

    def test_wedge_member_by_multipliers(self):
        K = PolyCone.from_generators([(1, 1), (1, -1)], 2)
        # (2, 0) = 1*(1,1) + 1*(1,-1)
        assert K.member_v((2, 0))
        assert not K.member_v((0, 1))

    def test_h_and_v_agree(self):
        rng = random.Random(3)
        cones = [ORTH, PolyCone.from_generators([(1, 1), (1, -1)], 2),
                 PolyCone.from_generators([(1, 0), (-1, 0), (0, 1)], 2),
                 PolyCone.zero(2), PolyCone.whole_space(2)]
        for K in cones:
            for _ in range(40):
                x = (F(rng.randint(-4, 4), rng.choice((1, 2))),
                     F(rng.randint(-4, 4), rng.choice((1, 2))))
                assert K.member_h(x) == K.member_v(x)


class TestPointedSolid:
    def test_orthant(self):
        assert ORTH.pointed() and ORTH.solid()

    def test_line_is_neither(self):
        line = PolyCone.from_generators([(1, 0), (-1, 0)], 2)
        assert not line.pointed() and not line.solid()

    def test_narrow_wedge(self):
        K = PolyCone.from_generators([(1, 0), (1, 1)], 2)
        assert K.pointed() and K.solid()
        assert K.pointed_direct()

    def test_pointed_iff_polar_solid(self):
        for K in (ORTH, PolyCone.from_generators([(1, 0), (-1, 0)], 2),
                  PolyCone.from_generators([(1, 0)], 2),
                  PolyCone.zero(2), PolyCone.whole_space(2),
                  PolyCone.from_generators([(1, 1, 0), (1, -1, 0), (0, 0, 1)], 3)):
            assert K.pointed() == K.polar().solid()
            assert K.solid() == K.polar().pointed()
            assert K.pointed() == K.pointed_direct()


class TestHull:
    def test_axes_hull_is_orthant(self):
        h = cone_hull([PolyCone.from_generators([(1, 0)], 2),
                       PolyCone.from_generators([(0, 1)], 2)])
        assert h == ORTH

    def test_hull_identity(self):
        K = PolyCone.from_generators([(1, 2), (2, 1)], 2)
        assert cone_hull([K]) == K

    def test_hull_contains_interior_direction(self):
        h = cone_hull([PolyCone.from_generators([(1, 1)], 2),
                       PolyCone.from_generators([(1, -1)], 2)])
        assert h.member_v((1, 0))

    def test_idempotent_and_order_free(self):
        a = PolyCone.from_generators([(1, 0), (1, 1)], 2)
        b = PolyCone.from_generators([(0, 1)], 2)
        assert cone_hull([a, b]) == cone_hull([b, a])
        assert cone_hull([cone_hull([a, b])]) == cone_hull([a, b])

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            cone_hull([])


def test_double_polar_on_random_cones():
    rng = random.Random(11)
    for dim in (2, 3, 4):
        for _ in range(6):
            gens = [tuple(F(rng.randint(-2, 2)) for _ in range(dim))
                    for _ in range(rng.randint(1, dim + 1))]
            gens = [g for g in gens if any(x != 0 for x in g)] or [(F(1),) * dim]
            K = PolyCone.from_generators(gens, dim)
            KK = K.polar().polar()
            assert KK == K
            for _ in range(20):
                x = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
                assert K.member_h(x) == KK.member_h(x)


class TestRegularity:
    def grid(self):
        return TimeGrid((0, 1, 2))

    def test_constant_map_passes(self):
        g_map = ConeMap.constant(self.grid(), ORTH)
        gt_map = ConeMap(self.grid(), (PolyCone.zero(2), ORTH, ORTH), (ORTH, ORTH))
        rep = cs_regularity_check(g_map, gt_map)
        assert rep["pass"]
        assert rep["failing_slots"] == []

    def test_cell_cone_escaping_point_cone_fails_right_regularity(self):
        big = PolyCone.from_generators([(1, 0), (0, 1), (1, -1)], 2)
        g_map = ConeMap(self.grid(), (ORTH, ORTH, ORTH), (big, ORTH))
        gt_map = ConeMap(self.grid(), (PolyCone.zero(2), big, ORTH), (big, ORTH))
        rep = cs_regularity_check(g_map, gt_map)
        assert rep["right_regular"] == [False, True]
        assert not rep["pass"]
        assert 0 in rep["failing_slots"]
        # window hull equality decided exactly by mutual membership
        assert not cone_hull([ORTH, big]).same_cone(ORTH)

    def test_halfplane_fails_efficient_friction(self):
        halfplane = PolyCone.from_generators([(1, 0), (-1, 0), (0, 1)], 2)
        g_map = ConeMap.constant(self.grid(), halfplane)
        gt_map = ConeMap(self.grid(), (PolyCone.zero(2), halfplane, halfplane),
                         (halfplane, halfplane))
        rep = cs_regularity_check(g_map, gt_map)
        assert rep["efficient_friction_G"] == [False, False, False]
        assert not rep["pass"]

    def test_left_regularity_uses_preceding_cell(self):
        small = PolyCone.from_generators([(1, 1)], 2)
        g_map = ConeMap(self.grid(), (ORTH, ORTH, ORTH), (ORTH, ORTH))
        gt_map = ConeMap(self.grid(), (PolyCone.zero(2), small, ORTH), (ORTH, ORTH))
        rep = cs_regularity_check(g_map, gt_map)
        assert rep["left_regular"] == [True, False, True]

    def test_misaligned_grids_rejected(self):
        g_map = ConeMap.constant(self.grid(), ORTH)
        other = ConeMap.constant(TimeGrid((0, 1)), ORTH)
        with pytest.raises(ValueError):
            cs_regularity_check(g_map, other)


def test_vec_map_shifts_cells():
    g = TimeGrid((0, 1, 2))
    a = PolyCone.from_generators([(1, 0)], 2)
    b = PolyCone.from_generators([(0, 1)], 2)
    cm = ConeMap(g, (a, b, a), (b, a))
    vec = cm.vec_map()
    assert vec.point_cones[0] == PolyCone.zero(2)
    assert vec.point_cones[1] == b
    assert vec.point_cones[2] == a
