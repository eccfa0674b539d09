"""The integer sums of products and the integer segment walk against the
``Fraction`` forms they replace.

``rationals.xdot`` and ``PLConvex._finite_value`` add and compare numerators
and denominators as ``int`` and build one ``Fraction`` per result.  Each
reference below is a copy of the code before that change, in ``Fraction``
arithmetic; the fast path must give the same value of the same type.
"""

import random
from bisect import bisect_left
from fractions import Fraction as F
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from cadlagconvex.generators import rand_coarse, rand_plconvex, rand_rational, rand_tree
from cadlagconvex import plconvex
from cadlagconvex.plconvex import PLConvex
from cadlagconvex.rationals import INF, NEG_INF, is_finite, xdot, xmul, xsum
from cadlagconvex.timegrid import GridMeasure, StepPath, TimeGrid, eval_I, eval_J, pairing


def assert_same(got, want):
    assert (type(got), got) == (type(want), want)


# -- sums of products -----------------------------------------------------------

def xsum_by_fraction(terms):
    """Reference copy of rationals.xsum before it summed in integers."""
    total = F(0)
    saw_neg = False
    for t in terms:
        if not is_finite(t):
            if t == INF:
                return INF
            if t == NEG_INF:
                saw_neg = True
                continue
        if not saw_neg:
            total += t
    return NEG_INF if saw_neg else total


def xdot_by_fraction(rows):
    """``xsum(xmul(a, xmul(b, ...)) for (a, b, ...) in rows)`` in Fraction arithmetic."""
    return xsum_by_fraction(reduce(lambda acc, f: xmul(f, acc), reversed(row[:-1]), row[-1])
                            for row in rows)


# zero, signs, infinities and denominators that share factors and that do not
factors = st.one_of(
    st.just(F(0)), st.sampled_from([INF, NEG_INF]),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20)))
rows = st.lists(st.lists(factors, min_size=1, max_size=4).map(tuple), max_size=8)


@settings(max_examples=500, deadline=None)
@given(rows)
def test_xdot_equals_the_fraction_sum_of_products(rs):
    assert_same(xdot(rs), xdot_by_fraction(rs))
    assert_same(xdot(iter(rs)), xdot_by_fraction(rs))  # a generator is read once


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(factors, st.integers(-9, 9)), max_size=10))
def test_xsum_equals_the_fraction_sum(terms):
    """int terms still add, as they did in Fraction arithmetic."""
    assert_same(xsum(terms), xsum_by_fraction(terms))


def test_xdot_edge_rows():
    half, third = F(1, 2), F(-1, 3)
    table = [
        ([], F(0)),
        ([(F(0), INF)], F(0)),                      # a zero factor beats an infinity
        ([(INF, F(0), NEG_INF)], F(0)),
        ([(NEG_INF, half), (INF,)], INF),           # +inf beats -inf, in either order
        ([(INF,), (NEG_INF,)], INF),
        ([(NEG_INF, third)], INF),                  # the sign of the product
        ([(INF, third), (half,)], NEG_INF),
        ([(NEG_INF, NEG_INF, third)], NEG_INF),
        ([(half, third), (third, third), (F(5, 6),)], F(5, 6) + F(-1, 6) + F(1, 9)),
        ([(half, F(2)), (F(-1),)], F(0)),
    ]
    for rs, want in table:
        assert_same(xdot(rs), want)
        assert_same(xdot_by_fraction(rs), want)


# -- the segment walk -------------------------------------------------------------

def finite_value_by_fraction(fn, x):
    """Reference copy of PLConvex._finite_value before it walked in integers."""
    if x is fn.anchor_x:
        return fn.anchor_val
    bps, slopes = fn.breakpoints, fn.slopes
    prev, val = fn.anchor_x, fn.anchor_val
    j = bisect_left(bps, prev)
    if prev <= x:
        while j < len(bps) and bps[j] < x:
            val += slopes[j] * (bps[j] - prev)
            prev = bps[j]
            j += 1
    else:
        while j and bps[j - 1] > x:
            val += slopes[j] * (bps[j - 1] - prev)
            prev = bps[j - 1]
            j -= 1
    return val + slopes[j] * (x - prev)


def _domain_points(fn, rng):
    """Every knot, each once as itself and once as an equal copy, points
    between and beside them, and draws from the domain closure."""
    knots = fn.knots()
    lo = knots[0] - 2 if knots else F(-2)
    hi = knots[-1] + 2 if knots else F(2)
    xs = [*knots, *(F(k.numerator, k.denominator) for k in knots),
          *(rand_rational(rng, int(lo) - 1, int(hi) + 1) for _ in range(6)),
          *((a + b) / 2 for a, b in zip(knots, knots[1:])), lo, hi, F(0)]
    return [x for x in xs if fn.domain.contains(x)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 6))
def test_finite_value_equals_the_fraction_walk(seed, max_breaks):
    """Canonical values and raw ones anchored anywhere in the domain closure,
    at a knot, between knots or at a draw, so that walks cross kinks
    leftwards and rightwards, and stop at a kink, at a domain end or between."""
    rng = random.Random(seed)
    fn = rand_plconvex(rng, max_breaks)
    fns = [fn, fn.conjugate()]
    for g in list(fns):
        for ax in _domain_points(g, rng):
            fns.append(PLConvex(g.dom_lo, g.dom_hi, g.breakpoints, g.slopes, ax,
                                rand_rational(rng)))
    for g in fns:
        for x in _domain_points(g, rng) + [g.anchor_x, F(g.anchor_x.numerator,
                                                           g.anchor_x.denominator)]:
            assert_same(g._finite_value(x), finite_value_by_fraction(g, x))


def steps_by_fraction(fn, x):
    """Segments the reference walk charges to reach x: one per kink it
    crosses, a kink at a rightward walk's anchor included, plus the last."""
    a = fn.anchor_x
    if x is a:
        return 0
    if a <= x:
        return 1 + sum(a <= b < x for b in fn.breakpoints)
    return 1 + sum(x < b < a for b in fn.breakpoints)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 6))
def test_finite_value_charges_the_segments_of_the_fraction_walk(seed, max_breaks):
    """A walk that also stepped onto a kink equal to x would charge a segment
    of length 0: the same value, but one more step than the reference."""
    rng = random.Random(seed)
    fn = rand_plconvex(rng, max_breaks)
    fns = [fn] + [PLConvex(fn.dom_lo, fn.dom_hi, fn.breakpoints, fn.slopes, ax, F(0))
                  for ax in _domain_points(fn, rng)]
    calls = []

    def counting(*args):
        calls.append(args)
        return walked(*args)

    walked = plconvex._walked
    plconvex._walked = counting
    try:
        for g in fns:
            for x in _domain_points(g, rng):
                calls.clear()
                g._finite_value(x)
                assert len(calls) == steps_by_fraction(g, x), (g, x)
    finally:
        plconvex._walked = walked


def test_finite_value_walks_both_ways_across_every_kink():
    """|x - 1| + |x + 1| + x, anchored right of every kink and left of them."""
    bps, slopes = (F(-1), F(1)), (F(-1), F(1), F(3))
    for ax, av in ((F(5, 2), F(15, 2)), (F(-7, 3), F(7, 3))):
        g = PLConvex(NEG_INF, INF, bps, slopes, ax, av)
        for x in (F(-4), F(-1), F(-1, 2), F(0), F(1), F(3, 2), F(4)):
            want = abs(x - 1) + abs(x + 1) + x
            assert_same(g._finite_value(x), want)
            assert_same(finite_value_by_fraction(g, x), want)


# -- the functionals and the expectation --------------------------------------------

def eval_I_by_fraction(h, y, mu):
    """Reference copy of timegrid.eval_I's sum before it went through xdot."""
    terms = []
    for fn, v, m in zip(h, y.values, mu.atoms):
        if m == 0:
            continue
        terms.append(xmul(m, fn.eval(v)))
    return xsum_by_fraction(terms)


def eval_J_by_fraction(g, theta, mu):
    """Reference copy of timegrid.eval_J's sum before it went through xdot."""
    terms = []
    for fn, t, m in zip(g, theta.atoms, mu.atoms):
        if m > 0:
            terms.append(xmul(m, fn.eval(t / m)))
        elif t != 0:
            direction = F(1) if t > 0 else F(-1)
            terms.append(xmul(abs(t), fn.recession().eval(direction)))
    return xsum_by_fraction(terms)


def pairing_by_fraction(y, u, ut):
    """Reference copy of timegrid.pairing before it went through xdot."""
    left = y.left_values()
    return sum((v * a for v, a in zip(y.values, u.atoms)), F(0)) + \
        sum((w * a for w, a in zip(left, ut.atoms)), F(0))


def expectation_by_fraction(tree, values):
    """Reference copy of ScenarioTree.expectation before it went through xdot."""
    return xsum_by_fraction(xmul(tree.prob(s), values[s]) for s in tree.scenarios)


def _atoms(rng, n, nonnegative):
    """Atoms with zeros, mixed denominators and, unless ``nonnegative``, signs."""
    lo = 0 if nonnegative else -3
    return tuple(F(0) if rng.random() < 0.3 else rand_rational(rng, lo, 3) for _ in range(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 6))
def test_functionals_equal_their_fraction_forms(seed, n):
    rng = random.Random(seed)
    grid = TimeGrid(tuple(F(i, 2) for i in range(n)))
    fns = [rand_plconvex(rng, 3) for _ in range(n)]
    mu = GridMeasure(grid, _atoms(rng, n, True))
    theta, u, ut = (GridMeasure(grid, _atoms(rng, n, False)) for _ in range(3))
    # values in the domains, so that eval_I is finite, and anywhere
    inside = StepPath(grid, tuple(fn.anchor_x for fn in fns))
    anywhere = StepPath(grid, tuple(rand_coarse(rng) for _ in range(n)))
    for y in (inside, anywhere):
        assert_same(eval_I(fns, y, mu), eval_I_by_fraction(fns, y, mu))
        assert_same(pairing(y, u, ut), pairing_by_fraction(y, u, ut))
    stars = [fn.conjugate() for fn in fns]
    for g in (fns, stars):
        assert_same(eval_J(g, theta, mu), eval_J_by_fraction(g, theta, mu))
        assert_same(eval_J(g, u, mu), eval_J_by_fraction(g, u, mu))


extended = st.one_of(st.sampled_from([INF, NEG_INF, F(0)]),
                     st.fractions(min_value=-5, max_value=5, max_denominator=12))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.lists(extended, min_size=4, max_size=4))
def test_expectation_equals_its_fraction_form(seed, draws):
    tree = rand_tree(random.Random(seed), 1)
    values = dict(zip(tree.scenarios, draws))
    assert_same(tree.expectation(values), expectation_by_fraction(tree, values))
