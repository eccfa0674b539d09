"""Polyhedral cone calculus: polars, membership, regularity windows.

The double description code is checked against an independent reference:
Fourier-Motzkin elimination on the multiplier system of a generator family.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadlagconvex.polycone import (ConeMap, PolyCone, _int_ray, cone_hull,
                                   cs_regularity_check, vdot)
from cadlagconvex.rationals import rat
from cadlagconvex.timegrid import TimeGrid

ORTH = PolyCone.orthant(2)


# ---------------------------------------------------------------------------
# Fourier-Motzkin reference
# ---------------------------------------------------------------------------

def _canon_row(coeffs, rhs):
    ray = _int_ray(tuple(coeffs) + (rhs,))
    if ray is None:
        return (0,) * len(coeffs), 0
    return ray[:-1], ray[-1]


def fm_feasible(rows, nvars):
    """Exact feasibility of a system of rows ``(coeffs, rhs)``, each meaning
    coeffs . x <= rhs, by elimination.

    Variables are eliminated in the order of cheapest pairing first.  Each
    row keeps every set of original rows it derives from (its histories),
    and a derivation is dropped when its history exceeds one plus the number
    of zero coefficients of the derived row: Chernikov's rule, counting the
    variables that cancel without being eliminated too.  Such rows are
    implied by others, so feasibility is unaffected.  A row that kept only
    its smallest history could lose a descendant that another history
    allows, and so call points outside a cone members.
    """
    table = {}
    for idx, (c, r) in enumerate(rows):
        table.setdefault(_canon_row(c, r), set()).add(frozenset((idx,)))
    remaining = list(range(nvars))
    while remaining:
        k = min(remaining, key=lambda v: sum(1 for c, _ in table if c[v] > 0)
                * sum(1 for c, _ in table if c[v] < 0))
        remaining.remove(k)
        pos = [(c, r, h) for (c, r), h in table.items() if c[k] > 0]
        neg = [(c, r, h) for (c, r), h in table.items() if c[k] < 0]
        table = {key: h for key, h in table.items() if key[0][k] == 0}
        for cp, rp, hp in pos:
            for cn, rn, hn in neg:
                lam, mu = -cn[k], cp[k]
                c2 = tuple(lam * a + mu * b for a, b in zip(cp, cn))
                hists = {a | b for a in hp for b in hn if len(a | b) <= c2.count(0) + 1}
                if not hists:
                    continue
                key = _canon_row(c2, lam * rp + mu * rn)
                if all(x == 0 for x in key[0]) and key[1] < 0:
                    return False
                table.setdefault(key, set()).update(hists)
    return all(r >= 0 for _, r in table)


def member_multipliers(x, gens, dim):
    """x in cone(gens), by Fourier-Motzkin on the multiplier system."""
    x = tuple(rat(v) for v in x)
    if all(v == 0 for v in x):
        return True
    if not gens:
        return False
    k = len(gens)
    rows = []
    for c in range(dim):
        coeffs = tuple(rat(g[c]) for g in gens)
        rows.append((coeffs, x[c]))
        rows.append((tuple(-a for a in coeffs), -x[c]))
    for j in range(k):
        rows.append((tuple(F(-1) if i == j else F(0) for i in range(k)), F(0)))
    return fm_feasible(rows, k)


def member_v(cone, x):
    """Membership decided from the generators alone."""
    return member_multipliers(x, cone.generators, cone.dim)


def pointed_direct(cone):
    """Pointedness from the V-form: no generator's negation stays inside."""
    gens = cone.generators
    return all(not member_multipliers(tuple(-x for x in g), gens, cone.dim)
               for g in gens)


def reduce_rays_by_multipliers(rays, dim):
    """Drop, in order, each ray that lies in the cone of the rays left, each
    redundancy decided by the multiplier system."""
    kept = list(rays)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if others and member_multipliers(kept[i], others, dim):
            kept.pop(i)
        else:
            i += 1
    return kept


def canon_ray_by_fractions(v):
    """The canonical ray in the Fraction arithmetic used before it went
    integer-only: coprime integers as Fractions, None for the zero vector."""
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
    got, want = _int_ray(v), canon_ray_by_fractions(v)
    assert got == want
    assert got is None or all(type(x) is int for x in got)


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
            r = canon_ray_by_fractions(v)
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
    got = (vars(cone).get("generators"), vars(cone).get("halfspaces"))
    assert got == want
    for form in got:
        for ray in form or ():
            assert all(type(x) is F and x.denominator == 1 for x in ray)


@st.composite
def generator_families(draw):
    """A dimension from 1 to 4 and a family of at most 7 integer vectors:
    the empty family, zero vectors, repeated and scaled rays and opposite
    pairs, so cones that are not pointed too."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * dim)
    family = draw(st.lists(vector, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if not family:
            break
        v = draw(st.sampled_from(family))
        factor = draw(st.sampled_from([0, 1, 2, -1]))
        family.insert(draw(st.integers(0, len(family))), tuple(factor * x for x in v))
    return dim, family


def drawn_points(data, gens, dim):
    """The generators, an integer combination of them with weights from -1
    to 2, and up to four points of the lattice [-3, 3]^dim."""
    weights = data.draw(st.lists(st.integers(-1, 2), min_size=len(gens), max_size=len(gens)))
    combination = tuple(sum(w * g[k] for w, g in zip(weights, gens)) for k in range(dim))
    return list(gens) + [combination] + data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * dim), max_size=4))


def assert_irredundant(gens, dim):
    """No generator lies in the cone of the others, by the multiplier system."""
    for i, g in enumerate(gens):
        assert not member_multipliers(g, gens[:i] + gens[i + 1:], dim), g


def lineality_dim(gens, dim):
    """The dimension of K ∩ -K for K = cone(gens): it is spanned by the
    generators whose negation lies in K, found by the multiplier system."""
    inside = [[float(x) for x in g] for g in gens
              if member_multipliers(tuple(-x for x in g), gens, dim)]
    return int(np.linalg.matrix_rank(np.array(inside))) if inside else 0


@settings(max_examples=200, deadline=None)
@given(generator_families(), st.data())
def test_double_description_equals_the_multiplier_reference(family, data):
    """The hull's generators, swept there and back, are irredundant and span
    the reference's cone; on a pointed cone they are its extreme rays, which
    is the reference, and otherwise at most two more per lineality dimension."""
    dim, gens = family
    cone = PolyCone.from_generators(gens, dim)
    reference = reduce_rays_by_multipliers(list(cone.generators), dim)
    hull = cone_hull([cone])
    swept = list(hull.generators)
    assert_irredundant(swept, dim)
    assert all(member_multipliers(g, reference, dim) for g in swept)
    assert all(member_multipliers(g, swept, dim) for g in reference)
    assert hull.same_cone(PolyCone.from_generators(reference, dim))
    if pointed_direct(cone):
        assert swept == reference
    assert len(swept) <= 2 * lineality_dim(reference, dim) + len(reference)
    for x in drawn_points(data, gens, dim):
        assert cone.member(x) == member_v(cone, x)


LINE_HALFSPACES = [(3, 2, 3, 5), (18, 5, 4, 2), (21, 14, 29, 47), (22, -7, 18, 9)]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_a_cone_with_a_lineality_line_lists_six_irredundant_generators(data):
    """A sweep started from +-e_i listed 2,552 generators for this cone: its
    lineality line, both ways, and the four extreme rays of the rest."""
    cone = PolyCone(4, halfspaces=LINE_HALFSPACES)
    gens = list(cone.generators)
    assert len(gens) == 6
    assert_irredundant(gens, 4)
    for x in drawn_points(data, gens, 4):
        assert all(vdot(a, x) <= 0 for a in LINE_HALFSPACES) == member_v(cone, x)


def test_generators_of_a_cone_with_a_lineality_line_generate_all_of_it():
    """A redundancy test that keeps too few elimination rows drops a needed
    generator here, and the generators span less than the half-spaces."""
    halfspaces = [(-3, -2, 1, -1), (0, -1, 0, 0), (0, -1, 1, 3), (0, 1, -1, -3)]
    cone = PolyCone(4, halfspaces=halfspaces)
    x = (-8, 12, 3, 3)
    assert all(vdot(a, x) <= 0 for a in halfspaces)
    assert member_multipliers(x, cone.generators, 4)
    assert len(cone.generators) == 4


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
        assert member_v(K, (2, 0))
        assert not member_v(K, (0, 1))

    def test_h_and_v_agree(self):
        rng = random.Random(3)
        cones = [ORTH, PolyCone.from_generators([(1, 1), (1, -1)], 2),
                 PolyCone.from_generators([(1, 0), (-1, 0), (0, 1)], 2),
                 PolyCone.zero(2), PolyCone.whole_space(2)]
        for K in cones:
            for _ in range(40):
                x = (F(rng.randint(-4, 4), rng.choice((1, 2))),
                     F(rng.randint(-4, 4), rng.choice((1, 2))))
                assert K.member(x) == member_v(K, x)


class TestPointedSolid:
    def test_orthant(self):
        assert ORTH.pointed() and ORTH.solid()

    def test_line_is_neither(self):
        line = PolyCone.from_generators([(1, 0), (-1, 0)], 2)
        assert not line.pointed() and not line.solid()

    def test_narrow_wedge(self):
        K = PolyCone.from_generators([(1, 0), (1, 1)], 2)
        assert K.pointed() and K.solid()
        assert pointed_direct(K)

    def test_pointed_iff_polar_solid(self):
        for K in (ORTH, PolyCone.from_generators([(1, 0), (-1, 0)], 2),
                  PolyCone.from_generators([(1, 0)], 2),
                  PolyCone.zero(2), PolyCone.whole_space(2),
                  PolyCone.from_generators([(1, 1, 0), (1, -1, 0), (0, 0, 1)], 3)):
            assert K.pointed() == K.polar().solid()
            assert K.solid() == K.polar().pointed()
            assert K.pointed() == pointed_direct(K)


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
        assert member_v(h, (1, 0))

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
                assert K.member(x) == KK.member(x)


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


