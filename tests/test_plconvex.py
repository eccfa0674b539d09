"""Piecewise-linear convex calculus: examples and conjugation laws."""

import contextlib
import dataclasses
import random
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadlagconvex import cli, generators, plconvex
from cadlagconvex.generators import (COARSE_DENOMS, rand_passing_instance,
                                     rand_plconvex, rand_rational)
from cadlagconvex.plconvex import (EMPTY_INTERVAL, PLConvex, RInterval, abs_fn,
                                   indicator, pl, restrict, support_fn)
from cadlagconvex.presets import PRESET_NAMES, bundled_instance_path
from cadlagconvex.rationals import INF, NEG_INF, ext, is_finite, rat
from cadlagconvex.scenario import (RandomIntegrand, ScenarioTree,
                                   minorant_certificate)
from cadlagconvex.serialize import load_instance
from cadlagconvex.timegrid import TimeGrid

from conftest import (affine, conjugate_grid_oracle, forget_last_load, inf_grid_oracle,
                      plconvex_st, rand_interval, rebuilt, recession_quotient)

KINK = pl(NEG_INF, INF, (1,), (-1, 2), 1, -1)  # max(-x, 2x - 3)
BOX02 = RInterval(F(0), F(2))


class TestEval:
    def test_abs_at_3(self):
        assert abs_fn()(F(3)) == 3

    def test_indicator_outside(self):
        assert indicator(BOX02)(F(3)) == INF

    def test_eval_matches_fields(self):
        assert KINK.breakpoints == (F(1),)
        assert KINK.slopes == (F(-1), F(2))
        assert KINK(F(1)) == -1


class TestConjugate:
    def test_abs_conjugate_is_box_indicator(self):
        assert abs_fn().conjugate() == indicator(RInterval(F(-1), F(1)))

    def test_indicator_conjugate_is_support(self):
        star = indicator(BOX02).conjugate()
        assert star == support_fn(BOX02)
        assert star(F(1)) == 2 and star(F(-1)) == 0

    def test_kink_conjugate_closed_form(self):
        star = KINK.conjugate()
        assert star.domain == RInterval(F(-1), F(2))
        for v in (F(-1), F(0), F(1, 2), F(2)):
            assert star(v) == v + 1
        assert star(F(3)) == INF

    def test_kink_conjugate_against_grid_search(self):
        star = KINK.conjugate()
        for v in (F(-1), F(0), F(1), F(2)):
            approx = conjugate_grid_oracle(KINK, v)
            assert abs(float(star(v)) - approx) < 1e-2


class TestRecession:
    def test_indicator_recession_is_origin(self):
        rec = indicator(BOX02).recession()
        assert rec.domain == RInterval.singleton(F(0))
        assert rec(F(0)) == 0

    def test_abs_recession_is_abs(self):
        assert abs_fn().recession() == abs_fn()

    def test_kink_recession_from_difference_quotients(self):
        rec = KINK.recession()
        for x in (F(1), F(-1), F(3)):
            assert rec(x) == recession_quotient(KINK, x)
        assert rec == pl(NEG_INF, INF, (0,), (-1, 2), 0, 0)  # max(-x, 2x)


class TestSubdiff:
    def test_abs_at_zero(self):
        assert abs_fn().subdiff(F(0)) == RInterval(F(-1), F(1))

    def test_abs_at_smooth_point(self):
        assert abs_fn().subdiff(F(2)) == RInterval(F(1), F(1))

    def test_indicator_normal_cone_at_boundary(self):
        assert indicator(BOX02).subdiff(F(2)) == RInterval(F(0), INF)

    def test_outside_domain_is_empty(self):
        assert indicator(BOX02).subdiff(F(3)) is EMPTY_INTERVAL or \
            indicator(BOX02).subdiff(F(3)).is_empty


class TestInfOver:
    def test_monotone_on_interval(self):
        assert abs_fn().inf_over(RInterval(F(1), F(3))) == (F(1), RInterval(F(1), F(1)))

    def test_global_min(self):
        assert abs_fn().inf_over(RInterval.whole_line()) == (F(0), RInterval(F(0), F(0)))

    def test_kink_on_box_matches_grid_search(self):
        val, argmin = KINK.inf_over(RInterval(F(0), F(4)))
        assert (val, argmin) == (F(-1), RInterval(F(1), F(1)))
        assert abs(float(val) - inf_grid_oracle(restrict(KINK, RInterval(F(0), F(4))))) < 1e-2

    def test_unbounded_below(self):
        val, argmin = affine(F(1), F(0)).inf_over(RInterval.whole_line())
        assert val == NEG_INF and argmin.is_empty

    def test_empty_constraint(self):
        val, argmin = abs_fn().inf_over(EMPTY_INTERVAL)
        assert val == INF and argmin.is_empty


class TestSupportIndicator:
    def test_unit_ball_support_is_abs(self):
        assert support_fn(RInterval(F(-1), F(1))) == abs_fn()

    def test_halfline_support(self):
        sigma = support_fn(RInterval(F(0), INF))
        assert sigma == indicator(RInterval(NEG_INF, F(0)))

    def test_singleton_support_is_linear(self):
        sigma = support_fn(RInterval.singleton(F(2)))
        assert sigma == affine(F(2), F(0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            indicator(EMPTY_INTERVAL)


class TestConstruction:
    def test_equal_adjacent_slopes_merged(self):
        fn = pl(NEG_INF, INF, (F(0), F(1)), (F(1), F(1), F(2)), F(0), F(0))
        assert fn.breakpoints == (F(1),)
        assert fn.slopes == (F(1), F(2))

    def test_breakpoints_outside_domain_dropped(self):
        fn = pl(F(0), F(2), (F(-1), F(1), F(5)), (F(-3), F(-1), F(1), F(2)), F(1), F(0))
        assert fn.breakpoints == (F(1),)
        assert fn.slopes == (F(-1), F(1))

    def test_decreasing_slopes_rejected(self):
        with pytest.raises(ValueError):
            pl(NEG_INF, INF, (F(0),), (F(1), F(0)), F(0), F(0))

    def test_anchor_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            pl(F(0), F(1), (), (F(0),), F(2), F(0))

    @pytest.mark.parametrize("lo, hi", [
        (INF, INF), (INF, F(1)), (F(1), NEG_INF), (NEG_INF, NEG_INF),
        (F(2), F(1)), ("inf", "inf"), ("inf", "1"), ("1", "-inf"),
        ("-inf", "-inf"), ("2", "1"),
    ])
    def test_empty_or_inverted_domain_rejected(self, lo, hi):
        with pytest.raises(ValueError, match=r"^empty or inverted domain$"):
            pl(lo, hi, (), (F(0),), F(1), F(0))

    @pytest.mark.parametrize("lo, hi", [
        (1.5, INF), (0, 2.5), (F(0), 2.0), (float("nan"), INF), (NEG_INF, float("nan")),
    ])
    def test_a_finite_float_end_is_refused(self, lo, hi):
        with pytest.raises(ValueError,
                           match=r"^interval endpoints must be rational or infinite$"):
            pl(lo, hi, (), (F(1),), F(2), F(0))

    @pytest.mark.parametrize("lo, hi", [(F(1), F(1)), ("1", "1")])
    def test_one_point_domain_builds(self, lo, hi):
        fn = pl(lo, hi, (), (F(0),), F(1), F(3))
        assert (fn.dom_lo, fn.dom_hi, fn.anchor_x, fn.anchor_val) == (1, 1, 1, 3)
        assert fn(F(1)) == 3 and fn(F(2)) == INF


# -- properties ---------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(plconvex_st())
def test_involution(fn):
    assert fn.conjugate().conjugate() == fn


@settings(max_examples=150, deadline=None)
@given(plconvex_st())
def test_support_of_conjugate_domain_is_recession(fn):
    assert support_fn(fn.conjugate().domain) == fn.recession()


@settings(max_examples=100, deadline=None)
@given(plconvex_st(),
       st.fractions(min_value=-4, max_value=4, max_denominator=6),
       st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_fenchel_inequality(fn, x, v):
    star = fn.conjugate()
    fx, fv = fn(x), star(v)
    if fx == INF or fv == INF:
        return
    assert fx + fv >= x * v
    equality = fx + fv == x * v
    assert equality == fn.subdiff(x).contains(v)


@settings(max_examples=100, deadline=None)
@given(plconvex_st())
def test_inf_on_line_is_minus_conjugate_at_zero(fn):
    inf_val = fn.inf_over(RInterval.whole_line())[0]
    star0 = fn.conjugate()(F(0))
    if star0 == INF:
        assert inf_val == NEG_INF
    else:
        assert inf_val == -star0


@settings(max_examples=100, deadline=None)
@given(plconvex_st(),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_subdiff_monotonicity(fn, x1, x2):
    if x1 == x2:
        return
    x1, x2 = min(x1, x2), max(x1, x2)
    s1, s2 = fn.subdiff(x1), fn.subdiff(x2)
    if s1.is_empty or s2.is_empty:
        return
    assert s1.hi <= s2.lo


# -- closed-form conjugate values -------------------------------------------------

def max_over_knots_conjugate(fn):
    """Reference build of h*: its anchor value is the max of v0*x - h(x) over the
    knots of h, the formula conjugate() used before the closed form."""
    if fn.dom_lo == fn.dom_hi:
        return pl(NEG_INF, INF, (), (fn.dom_lo,), F(0), -fn.anchor_val)
    if not fn.breakpoints and fn.dom_lo == NEG_INF and fn.dom_hi == INF:
        s = fn.slopes[0]
        return pl(s, s, (), (F(0),), s, s * fn.anchor_x - fn.anchor_val)
    v_lo = fn.slopes[0] if fn.dom_lo == NEG_INF else NEG_INF
    v_hi = fn.slopes[-1] if fn.dom_hi == INF else INF
    bps = list(fn.slopes)
    if fn.dom_lo == NEG_INF:
        bps = bps[1:]
    if fn.dom_hi == INF:
        bps = bps[:-1]
    knots = fn.knots()
    if bps:
        v0 = bps[0]
    else:
        v0 = v_lo if v_lo != NEG_INF else v_hi
    val0 = max(v0 * x - fn.eval(x) for x in knots)
    return pl(v_lo, v_hi, bps, knots, v0, val0)


@st.composite
def conjugate_inputs(draw):
    """Every domain shape: points, half-lines, whole-line affine and kinked
    functions, restrictions of those, and conjugates of all of them."""
    fn = draw(plconvex_st(max_breaks=6))
    if draw(st.booleans()):
        centre = fn.domain.nearest_to(draw(st.fractions(-3, 3, max_denominator=4)))
        lo = draw(st.sampled_from([NEG_INF, centre, centre - 1, centre - F(1, 3)]))
        hi = draw(st.sampled_from([INF, centre, centre + 2, centre + F(1, 2)]))
        fn = restrict(fn, RInterval(lo, hi))
    if draw(st.booleans()):
        fn = fn.conjugate()
    return fn


@settings(max_examples=300, deadline=None)
@given(conjugate_inputs())
def test_conjugate_matches_max_over_knots(fn):
    assert fn.conjugate() == max_over_knots_conjugate(fn)


@settings(max_examples=100, deadline=None)
@given(st.lists(conjugate_inputs(), min_size=3, max_size=3))
def test_minorant_alpha_is_positive_part_of_conjugate(fns):
    grid = TimeGrid((0, 1, 2))
    tree = ScenarioTree(("a",), (F(1),), (((("a",),),) * 3))
    cert = minorant_certificate(RandomIntegrand(tree, grid, {"a": tuple(fns)}, "raw"))
    for fn, v, alpha in zip(fns, cert.v["a"], cert.alpha["a"]):
        assert alpha == max(fn.conjugate().eval(v), F(0))


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(cls, name, counted)
    return calls


def test_conjugate_walks_the_segments_a_constant_number_of_times(monkeypatch):
    fn = pl(F(-1), INF, [F(k, 4) for k in range(40)], [F(k) for k in range(41)], F(-1), F(7))
    assert len(fn.breakpoints) == 40
    walks = _count_calls(monkeypatch, PLConvex, "_finite_value")
    star = fn.conjugate()
    assert len(walks) <= 2
    monkeypatch.undo()
    assert star == max_over_knots_conjugate(fn)


def test_minorant_certificate_builds_no_conjugate(monkeypatch):
    inst = load_instance(bundled_instance_path("basic")).instance
    builds = _count_calls(monkeypatch, PLConvex, "conjugate")
    minorant_certificate(inst.h)
    minorant_certificate(inst.htilde)
    assert builds == []


# -- the canonical-input shortcut of pl ------------------------------------------

def interior_point(lo, hi):
    """Reference copy of the probe pl() once used to find the one segment
    meeting the open domain when no breakpoint lies inside it."""
    if is_finite(lo) and is_finite(hi):
        return (lo + hi) / 2
    if is_finite(lo):
        return lo + 1
    if is_finite(hi):
        return hi - 1
    return F(0)


def full_canonicalization(dom_lo, dom_hi, breakpoints, slopes, anchor_x, anchor_val):
    """Reference copy of pl() before it returned canonical input as given:
    every call restricts, merges equal slopes and re-anchors."""
    bps = tuple(rat(b) for b in breakpoints)
    sls = tuple(rat(s) for s in slopes)
    anchor_x = rat(anchor_x)
    anchor_val = rat(anchor_val)
    if isinstance(dom_lo, str):
        dom_lo = ext(dom_lo)
    if isinstance(dom_hi, str):
        dom_hi = ext(dom_hi)
    for end in (dom_lo, dom_hi):
        if isinstance(end, float) and end not in (INF, NEG_INF):
            raise ValueError("interval endpoints must be rational or infinite")
    if ((not is_finite(dom_lo) and dom_lo == INF)
            or (not is_finite(dom_hi) and dom_hi == NEG_INF)
            or not (dom_lo <= dom_hi)):
        raise ValueError("empty or inverted domain")
    if len(sls) != len(bps) + 1:
        raise ValueError("need exactly one slope per segment")
    if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
        raise ValueError("breakpoints must be strictly increasing")
    if any(sls[i] > sls[i + 1] for i in range(len(sls) - 1)):
        raise ValueError("slopes must be nondecreasing (convexity)")
    if not (dom_lo <= anchor_x <= dom_hi):
        raise ValueError("anchor outside the domain")
    if is_finite(dom_lo) and is_finite(dom_hi) and dom_lo == dom_hi:
        return PLConvex(dom_lo, dom_hi, (), (F(0),), dom_lo, anchor_val)
    keep = [i for i, b in enumerate(bps) if dom_lo < b < dom_hi]
    if keep:
        a, b_ = keep[0], keep[-1]
        bps2, sls2 = bps[a:b_ + 1], sls[a:b_ + 2]
    else:
        j = bisect_left(bps, interior_point(dom_lo, dom_hi))
        bps2, sls2 = (), (sls[j],)
    m_bps, m_sls = [], [sls2[0]]
    for i, b in enumerate(bps2):
        if sls2[i + 1] == m_sls[-1]:
            continue
        m_bps.append(b)
        m_sls.append(sls2[i + 1])
    if m_bps:
        ax = m_bps[0]
    elif is_finite(dom_lo):
        ax = dom_lo
    elif is_finite(dom_hi):
        ax = dom_hi
    else:
        ax = F(0)
    aval = PLConvex(dom_lo, dom_hi, bps, sls, anchor_x, anchor_val)._finite_value(ax)
    return PLConvex(dom_lo, dom_hi, tuple(m_bps), tuple(m_sls), ax, aval)


def _typed_fields(fn):
    return tuple((type(v), v) for v in (fn.dom_lo, fn.dom_hi, fn.anchor_x, fn.anchor_val)) \
        + tuple((type(v), v) for v in fn.breakpoints + fn.slopes)


def _pl_outcome(build, args):
    try:
        return _typed_fields(build(*args))
    except Exception as exc:  # the exception type and message are compared
        return type(exc), str(exc)


Q3 = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def pl_arguments(draw):
    """pl() arguments: canonical data, raw data that needs canonicalizing
    (equal adjacent slopes, breakpoints at or outside the domain ends, any
    anchor in the domain, one-point domains, infinite ends, ends given as
    strings), and now and then invalid data (an inverted domain, unsorted
    breakpoints, a decreasing slope, a slope too many, an anchor outside, a
    finite float or NaN end)."""
    kind, fault, a, b, anchor, value = draw(st.tuples(
        st.sampled_from(["line", "left", "right", "bounded", "point", "inverted"]),
        st.sampled_from(["unsorted", "decreasing", "extra slope", "anchor", "text",
                         "float end"] + [None] * 10),
        Q3, Q3, Q3, Q3))
    a, b = min(a, b), max(a, b)
    lo = {"line": NEG_INF, "left": NEG_INF, "inverted": b}.get(kind, a)
    hi = {"line": INF, "right": INF, "point": a, "inverted": a - 1}.get(kind, b)
    ends = [x for x in (lo, hi) if isinstance(x, F) and draw(st.booleans())]
    bps = sorted(set(draw(st.lists(Q3, max_size=4)) + ends))
    steps = draw(st.lists(st.sampled_from([F(0), F(1, 2), F(1), F(2)]),
                          min_size=len(bps), max_size=len(bps)))
    slopes = [value]
    for step in steps:
        slopes.append(slopes[-1] + step)
    if kind != "inverted":
        # any point of the domain, its ends, or its first breakpoint
        box = RInterval(lo, hi)
        anchor = draw(st.sampled_from([
            x for x in (*bps[:1], lo, hi) if isinstance(x, F) and box.contains(x)]
            + [box.nearest_to(anchor)]))
    if fault == "unsorted":
        bps.reverse()
    elif fault == "decreasing" and len(slopes) > 1:
        slopes[-1] = slopes[-2] - 1
    elif fault == "extra slope":
        slopes.append(slopes[-1])
    elif fault == "anchor" and isinstance(hi, F):
        anchor = hi + 1
    elif fault == "text":
        lo, hi = (x if isinstance(x, float) else str(x) for x in (lo, hi))
    elif fault == "float end":
        bad = draw(st.sampled_from([float(a), float(b) + 0.5, float("nan")]))
        lo, hi = (bad, hi) if draw(st.booleans()) else (lo, bad)
    args = (lo, hi, bps, slopes, anchor, value)
    if draw(st.integers(0, 2)):
        return args
    # the reference's canonical output fed back in: the input of the shortcut
    try:
        fn = full_canonicalization(*args)
    except ValueError:
        return args
    return (fn.dom_lo, fn.dom_hi, fn.breakpoints, fn.slopes, fn.anchor_x, fn.anchor_val)


@settings(max_examples=100, deadline=None)
@given(pl_arguments())
def test_pl_equals_the_full_canonicalization(args):
    assert _pl_outcome(pl, args) == _pl_outcome(full_canonicalization, args)


@settings(max_examples=100, deadline=None)
@given(pl_arguments(), st.integers(0, 2 ** 32))
def test_pl_and_the_passing_draws_make_no_fraction_float_comparison(args, seed):
    """pl's domain check and breakpoint filter, also with infinite ends, and
    the kink filter of rand_passing_instance's predictable integrand compare
    a domain end with xle."""
    with mixed_comparisons() as mixed:
        _pl_outcome(pl, args)
        rand_passing_instance(random.Random(seed), with_htilde=True)
    assert mixed == []


@pytest.mark.parametrize("args", [
    (NEG_INF, INF, [F(-1), F(1)], [F(0), F(0), F(1)], F(1), F(0)),  # merged slopes
    (NEG_INF, F(0), [F(-1), F(1)], [F(0), F(1), F(2)], F(0), F(0)),  # kink outside
    (F(0), INF, [F(-1), F(0)], [F(0), F(1), F(2)], F(0), F(0)),      # kinks at or below
    (F(0), INF, [], [F(1)], F(1), F(2)),                             # anchor elsewhere
    # kinks on and past the finite end, equal slopes on either side of it
    (NEG_INF, F(1), [F(0), F(1), F(2)], [F(-1), F(0), F(0), F(1)], F(0), F(0)),
    (F(-1), INF, [F(-2), F(-1), F(0), F(1)], [F(-1), F(0), F(0), F(1), F(1)], F(0), F(0)),
    # no kink inside: every one beyond or on the finite end
    (NEG_INF, F(-1), [F(0), F(1)], [F(1), F(2), F(3)], F(-1), F(0)),
    (F(2), INF, [F(0), F(2)], [F(1), F(2), F(3)], F(2), F(0)),
    (NEG_INF, INF, [F(-1), F(0), F(1)], [F(0), F(0), F(1), F(1)], F(0), F(0)),
])
def test_pl_with_infinite_ends_makes_no_fraction_float_comparison(args):
    """The restriction bisects the breakpoints against a finite end only."""
    with mixed_comparisons() as mixed:
        fn = pl(*args)
    assert mixed == []
    assert fn == full_canonicalization(*args)


@pytest.mark.parametrize("args", [
    (NEG_INF, INF, [], [F(1)], F(0), F(2)),                       # affine
    (NEG_INF, INF, [F(0)], [F(-1), F(1)], F(0), F(0)),            # |x|
    (F(-2), F(2), [F(-1), F(1)], [F(-1), F(0), F(1)], F(-1), F(3)),
    (F(0), INF, [], [F(2)], F(0), F(5)),
    (NEG_INF, F(0), [], [F(2)], F(0), F(5)),
    ("-inf", "3", [], [F(2)], F(3), F(5)),                        # strings read
    (F(1), F(1), [], [F(0)], F(1), F(4)),                         # one point
])
def test_canonical_input_is_returned_as_given(args, monkeypatch):
    walks = _count_calls(monkeypatch, PLConvex, "_finite_value")
    fn = pl(*args)
    assert walks == []
    monkeypatch.undo()
    assert fn == full_canonicalization(*args)


@pytest.mark.parametrize("args", [
    (NEG_INF, INF, [F(0)], [F(1), F(1)], F(0), F(0)),             # equal slopes
    (F(0), F(2), [F(0)], [F(-1), F(1)], F(0), F(0)),              # kink at an end
    (F(0), F(2), [F(3)], [F(-1), F(1)], F(0), F(0)),              # kink outside
    (F(0), F(2), [F(1), F(2)], [F(-1), F(0), F(1)], F(1), F(0)),  # kink at the top
    (F(-2), F(2), [F(0), F(3)], [F(-1), F(0), F(1)], F(0), F(0)),
    (F(-2), F(2), [F(0)], [F(-1), F(1)], F(-2), F(2)),            # anchor elsewhere
    (NEG_INF, INF, [], [F(1)], F(1), F(2)),
])
def test_other_input_is_canonicalized(args, monkeypatch):
    walks = _count_calls(monkeypatch, PLConvex, "_finite_value")
    fn = pl(*args)
    assert len(walks) == 1
    monkeypatch.undo()
    assert fn == full_canonicalization(*args)
    assert pl(fn.dom_lo, fn.dom_hi, fn.breakpoints, fn.slopes, fn.anchor_x,
              fn.anchor_val) == fn


def _walks_inside_pl(monkeypatch):
    """Calls of PLConvex._finite_value made by pl() itself."""
    walks = []
    original = PLConvex._finite_value

    def counted(self, x):
        if sys._getframe(1).f_code is plconvex.pl.__code__:
            walks.append(x)
        return original(self, x)
    monkeypatch.setattr(PLConvex, "_finite_value", counted)
    return walks


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_loading_a_preset_never_re_anchors(name, monkeypatch):
    """Shipped files and the conjugates of their integrands are canonical."""
    walks = _walks_inside_pl(monkeypatch)
    inst = load_instance(bundled_instance_path(name)).instance
    assert walks == []
    for ri in (inst.h, inst.htilde):
        for fns in ri.functions.values():
            for fn in fns:
                fn.conjugate()
    assert walks == []


# -- the conjugate memo ---------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(plconvex_st())
def test_the_conjugate_is_built_once_per_object(fn):
    assert fn.conjugate() is fn.conjugate()


@settings(max_examples=50, deadline=None)
@given(plconvex_st())
def test_the_biconjugate_is_built_afresh(fn):
    builds = []
    original = PLConvex._conjugate

    def counted(self):
        builds.append(self)
        return original(self)
    PLConvex._conjugate = counted
    try:
        star = fn.conjugate()
        assert "conjugate" not in vars(star).get("_memo", {})  # never seeded with fn
        again = star.conjugate()
        star.conjugate()
        fn.conjugate()
    finally:
        PLConvex._conjugate = original
    assert builds == [fn, star]
    assert builds[0] is fn and builds[1] is star
    assert again == fn and again is not fn


@pytest.mark.parametrize("raw", [
    # equal adjacent slopes, a breakpoint on the domain end, a non-canonical anchor
    PLConvex(NEG_INF, INF, (F(0),), (F(1), F(1)), F(0), F(0)),
    PLConvex(F(0), F(2), (F(0),), (F(1), F(2)), F(0), F(0)),
    PLConvex(F(0), F(2), (), (F(1),), F(1), F(1)),
])
def test_a_hand_built_non_canonical_function_fails_involution(raw):
    for _ in range(2):  # before and after its conjugate is memoised
        assert raw.conjugate().conjugate() != raw


# -- interval operations compare ends without a Fraction/float comparison -------

@contextlib.contextmanager
def mixed_comparisons():
    """The Fraction/float comparisons made inside the block, as a list."""
    mixed = []
    richcmp, eq = F._richcmp, F.__eq__

    def counted_richcmp(self, other, op):
        if isinstance(other, float):
            mixed.append((self, other))
        return richcmp(self, other, op)

    def counted_eq(self, other):
        if isinstance(other, float):
            mixed.append((self, other))
        return eq(self, other)
    F._richcmp, F.__eq__ = counted_richcmp, counted_eq
    try:
        yield mixed
    finally:
        F._richcmp, F.__eq__ = richcmp, eq


def _old_intersect(a, b):
    if a.is_empty or b.is_empty:
        return EMPTY_INTERVAL
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return RInterval(lo, hi) if lo <= hi else EMPTY_INTERVAL


_ends = st.one_of(st.just(None), st.fractions(min_value=-2, max_value=2, max_denominator=2))


@st.composite
def intervals(draw):
    if draw(st.integers(0, 9)) == 0:
        return EMPTY_INTERVAL
    lo, hi = draw(_ends), draw(_ends)
    lo, hi = (NEG_INF if lo is None else lo), (INF if hi is None else hi)
    if is_finite(lo) and is_finite(hi) and lo > hi:
        lo, hi = hi, lo
    return RInterval(lo, hi)


@settings(max_examples=200, deadline=None)
@given(intervals(), intervals(), st.one_of(
    st.sampled_from([INF, NEG_INF]), st.fractions(min_value=-3, max_value=3, max_denominator=2)))
def test_interval_operations_match_plain_comparisons(a, b, x):
    expected = (_old_intersect(a, b),
                a.is_empty or (not b.is_empty and b.lo <= a.lo and a.hi <= b.hi),
                not a.is_empty and a.lo <= x <= a.hi)
    with mixed_comparisons() as mixed:
        got = (a.intersect(b), a.issubset(b), a.contains(x))
    assert got == expected
    assert mixed == []
    if a.issubset(b):
        assert got[0] is a
    elif b.issubset(a):
        assert got[0] is b


@settings(max_examples=100, deadline=None)
@given(intervals())
def test_is_empty_equals_its_old_expression(iv):
    """The type test stands in for is_finite, also on ends that are new objects."""
    for a in (iv, rebuilt(iv)):
        assert a.is_empty is (not is_finite(a.lo) and a.lo == INF and a.hi == NEG_INF)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3), intervals(),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=4, max_size=4))
def test_the_calculus_makes_no_fraction_float_comparison(seed, max_breaks, box, xs):
    """eval, subdiff, recession, inf_over and the draws compare a domain end
    with is_finite/xle, as RInterval does."""
    with mixed_comparisons() as mixed:
        fn = rand_plconvex(random.Random(seed), max_breaks)
        for g in (fn, fn.conjugate()):
            for x in xs:
                g.eval(x)
                g.subdiff(x)
            g.recession()
            g.inf_over(box)
            g.min_on_line
    assert mixed == []


# -- inf_over against every knot -----------------------------------------------------

def inf_over_by_knots(fn, constraint):
    """Independent exact oracle for inf_over: over a closed interval a convex
    piecewise-linear function is affine between the knots and finite ends
    that lie in it, so its infimum is the least value among them, unless the
    feasible interval runs out to an infinite end that the outer slope falls
    towards.  The argmin runs between the outermost points of least value,
    and on to an infinite feasible end when the outer segment there is flat."""
    if constraint.is_empty:
        return INF, EMPTY_INTERVAL
    lo, hi = max(constraint.lo, fn.dom_lo), min(constraint.hi, fn.dom_hi)
    if lo > hi:
        return INF, EMPTY_INTERVAL
    if (lo == NEG_INF and fn.slopes[0] > 0) or (hi == INF and fn.slopes[-1] < 0):
        return NEG_INF, EMPTY_INTERVAL
    points = [x for x in (*fn.knots(), lo, hi) if is_finite(x) and lo <= x <= hi] or [F(0)]
    best = min(fn.eval(x) for x in points)
    least = [x for x in points if fn.eval(x) == best]
    arg_lo = NEG_INF if lo == NEG_INF and fn.slopes[0] == 0 and min(least) == min(points) \
        else min(least)
    arg_hi = INF if hi == INF and fn.slopes[-1] == 0 and max(least) == max(points) \
        else max(least)
    return best, RInterval(arg_lo, arg_hi)


@st.composite
def flat_tailed(draw):
    """A canonical function whose slopes pass through 0 often, so a flat
    segment often reaches an infinite domain end, on every kind of domain."""
    lo, hi = draw(st.sampled_from([(NEG_INF, INF), (NEG_INF, F(1)), (F(-1), INF),
                                   (F(-1), F(1)), (F(1, 2), F(1, 2))]))
    kinks = sorted({x for x in draw(st.lists(st.fractions(-2, 2, max_denominator=2), max_size=3))
                    if RInterval(lo, hi).contains(x) and x not in (lo, hi)})
    slopes = [F(draw(st.sampled_from([-2, -1, 0, 0, 1])))]
    for _ in kinks:
        slopes.append(slopes[-1] + draw(st.sampled_from([F(1, 2), F(1), F(2)])))
    anchor = lo if is_finite(lo) else (hi if is_finite(hi) else F(0))
    return pl(lo, hi, kinks, slopes, anchor, draw(st.fractions(-2, 2, max_denominator=3)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(flat_tailed(), flat_tailed(), plconvex_st()),
       st.one_of(intervals(), intervals(),
                 st.fractions(-3, 3, max_denominator=2).map(RInterval.singleton)))
def test_inf_over_equals_the_knot_oracle(fn, constraint):
    """Value and argmin interval exactly, on empty, singleton, half-line and
    whole-line constraints, unbounded-below cases included."""
    (val, arg), (want, want_arg) = fn.inf_over(constraint), inf_over_by_knots(fn, constraint)
    assert (type(val), val) == (type(want), want)
    assert (type(arg.lo), arg.lo, type(arg.hi), arg.hi) == \
        (type(want_arg.lo), want_arg.lo, type(want_arg.hi), want_arg.hi)


LINE_INFIMA = [
    (pl(NEG_INF, INF, (), (F(1),), F(0), F(0)), NEG_INF),  # affine on the line
    (pl(NEG_INF, F(1), (), (F(1),), F(1), F(2)), NEG_INF),  # rising on a left half-line
    (pl(NEG_INF, INF, (F(0),), (F(-1), F(0)), F(0), F(3)), F(3)),  # flat right tail
    (pl(F(-1), INF, (F(1),), (F(-1), F(2)), F(1), F(-2)), F(-2)),  # right half-line
    (pl(F(-1), F(1), (), (F(1),), F(-1), F(1, 2)), F(1, 2)),  # bounded
    (pl(F(1, 2), F(1, 2), (), (F(0),), F(1, 2), F(-3)), F(-3)),  # one point
]


@pytest.mark.parametrize("fn, want", LINE_INFIMA,
                         ids=["line", "left", "flat-tail", "right", "bounded", "point"])
def test_min_on_line_on_each_domain_kind(fn, want):
    assert (type(fn.min_on_line), fn.min_on_line) == (type(want), want)


@settings(max_examples=300, deadline=None)
@given(st.one_of(flat_tailed(), plconvex_st(), conjugate_inputs()))
def test_min_on_line_is_the_line_infimum_built_once(fn):
    """The memo equals a fresh infimum over the line in value and type, -inf
    included, and every read returns the one object it built."""
    want = fn.inf_over(RInterval.whole_line())[0]
    got = fn.min_on_line
    assert (type(got), got) == (type(want), want)
    assert fn.min_on_line is got
    assert vars(fn)["min_on_line"] is got


# -- canonical values built without pl ---------------------------------------------

def rand_coarse_by_fraction(rng, lo=-3, hi=3):
    """Reference copy of generators.rand_coarse before it drew in quarters."""
    d = rng.choice(COARSE_DENOMS)
    return F(rng.randint(lo * d, hi * d), d)


def rand_plconvex_by_pl(rng, max_breaks=3):
    """Reference copy of generators.rand_plconvex before it built its draws
    directly, and in integers: every draw is made of Fractions and goes
    through pl()."""
    kind = rng.choice(["line", "left", "right", "bounded", "bounded", "singleton"])
    if kind == "singleton":
        x = rand_coarse_by_fraction(rng)
        return pl(x, x, (), (0,), x, rand_rational(rng))
    if kind == "line":
        dom_lo, dom_hi = NEG_INF, INF
    elif kind == "left":
        dom_lo, dom_hi = NEG_INF, rand_coarse_by_fraction(rng, 0, 3)
    elif kind == "right":
        dom_lo, dom_hi = rand_coarse_by_fraction(rng, -3, 0), INF
    else:
        a, b = rand_coarse_by_fraction(rng), rand_coarse_by_fraction(rng)
        if a == b:
            b = a + 1
        dom_lo, dom_hi = min(a, b), max(a, b)
    draws = [rand_coarse_by_fraction(rng) for _ in range(rng.randint(0, max_breaks))]
    inner = sorted({x for x in draws if dom_lo < x < dom_hi})
    slopes = []
    s = rand_rational(rng)
    for _ in range(len(inner) + 1):
        slopes.append(s)
        s = s + F(rng.randint(1, 8), rng.randint(1, 4))
    anchor = dom_lo if is_finite(dom_lo) else (dom_hi if is_finite(dom_hi) else F(0))
    return pl(dom_lo, dom_hi, inner, slopes, anchor, rand_rational(rng))


def finite_value_by_sign(fn, x):
    """Reference copy of PLConvex._finite_value before it walked each
    direction on its own: one walk left to right, times a sign."""
    a, b = (fn.anchor_x, x) if fn.anchor_x <= x else (x, fn.anchor_x)
    sign = 1 if fn.anchor_x <= x else -1
    bps = fn.breakpoints
    val = fn.anchor_val
    prev = a
    j = bisect_left(bps, a)
    while j < len(bps) and bps[j] < b:
        val += sign * fn.slopes[j] * (bps[j] - prev)
        prev = bps[j]
        j += 1
    val += sign * fn.slopes[j] * (b - prev)
    return val


def eval_by_sign(fn, x):
    """Reference copy of PLConvex.eval at a finite x before it tested the
    domain ends with is_finite/xle, over finite_value_by_sign."""
    if not (fn.dom_lo <= x <= fn.dom_hi):
        return INF
    return finite_value_by_sign(fn, x)


def is_recorded(fn):
    return vars(fn).get("_canonical") is True


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 6))
def test_rand_plconvex_equals_the_pl_build(seed, max_breaks):
    """Up to six kinks, so the integer walk to the anchor crosses several
    of them, leftwards from an upper end or from 0, and rightwards."""
    direct, by_pl = random.Random(seed), random.Random(seed)
    for _ in range(4):
        fn = rand_plconvex(direct, max_breaks)
        assert _typed_fields(fn) == _typed_fields(rand_plconvex_by_pl(by_pl, max_breaks))
        assert is_recorded(fn)
    assert direct.getstate() == by_pl.getstate()  # the same draws, in the same order


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(-3, 0), st.integers(0, 3))
def test_coarse_draws_equal_the_fraction_draws(seed, lo, hi):
    direct, by_fraction = random.Random(seed), random.Random(seed)
    for _ in range(4):
        got = generators.rand_coarse(direct, lo, hi)
        want = rand_coarse_by_fraction(by_fraction, lo, hi)
        assert (type(got), got) == (type(want), want)
    assert direct.getstate() == by_fraction.getstate()


def _walk_points(fn):
    """Points on both sides of the anchor: every knot, the anchor, and points
    beside and between them and beyond the ends."""
    ks = sorted({*fn.knots(), fn.anchor_x})
    xs = {k + d for k in ks for d in (F(-3, 2), F(-1, 3), F(0), F(1, 4), F(2))}
    return sorted(xs)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3), st.integers(0, 8))
def test_eval_equals_the_signed_walk(seed, max_breaks, pick):
    fn = rand_plconvex(random.Random(seed), max_breaks)
    # canonical anchors sit at the first kink or an end; a raw value anchored
    # at any knot makes walks cross kinks on both sides of it
    knots = fn.knots() or (fn.anchor_x,)
    ax = knots[pick % len(knots)]
    raw = PLConvex(fn.dom_lo, fn.dom_hi, fn.breakpoints, fn.slopes, ax, fn.eval(ax))
    for g in (fn, fn.conjugate(), raw):
        for x in _walk_points(g):
            got, want = g.eval(x), eval_by_sign(g, x)
            assert (type(got), got) == (type(want), want)
            if g.domain.contains(x):
                got, want = g._finite_value(x), finite_value_by_sign(g, x)
                assert (type(got), got) == (type(want), want)


def conjugate_at_slope_by_ops(fn, j):
    """Reference copy of PLConvex.conjugate_at_slope before it made its value
    as one Fraction: two Fraction operations, over the signed walk."""
    x = fn.breakpoints[j - 1] if j else fn._first_knot()
    return fn.slopes[j] * x - finite_value_by_sign(fn, x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(plconvex_st(max_breaks=6),
                 st.builds(lambda seed, k: rand_plconvex(random.Random(seed), k),
                           st.integers(0, 2 ** 32), st.integers(0, 6))),
       st.integers(0, 8))
def test_conjugate_at_slope_equals_the_two_operation_form(fn, pick):
    knots = fn.knots() or (fn.anchor_x,)
    ax = knots[pick % len(knots)]
    raw = PLConvex(fn.dom_lo, fn.dom_hi, fn.breakpoints, fn.slopes, ax, fn.eval(ax))
    with mixed_comparisons() as mixed:
        for g in (fn, fn.conjugate(), raw):
            for j in range(len(g.slopes)):
                got, want = g.conjugate_at_slope(j), conjugate_at_slope_by_ops(g, j)
                assert (type(got), got) == (type(want), want)
            got = g._finite_value(g.anchor_x)
            assert (type(got), got) == (F, g.anchor_val)
    assert mixed == []


@settings(max_examples=150, deadline=None)
@given(st.one_of(plconvex_st(), st.builds(lambda seed, k: rand_plconvex(random.Random(seed), k),
                                          st.integers(0, 2 ** 32), st.integers(0, 3))),
       intervals())
def test_builders_that_skip_pl_return_what_pl_returns(fn, box):
    star = fn.conjugate()
    outputs = [fn, star, star.conjugate(), fn.recession(), star.recession()]
    for dom in (fn.domain, star.domain, box):
        if not dom.is_empty:
            outputs += [indicator(dom), support_fn(dom)]
    for out in outputs:
        assert is_recorded(out)
        again = pl(*dataclasses.astuple(out))
        assert _typed_fields(again) == _typed_fields(out)
        assert again == out


@settings(max_examples=50, deadline=None)
@given(plconvex_st())
def test_the_record_is_invisible_to_eq_hash_repr_and_fields(fn):
    raw = PLConvex(*dataclasses.astuple(fn))
    assert is_recorded(fn) and not is_recorded(raw)
    assert fn == raw and hash(fn) == hash(raw) and repr(fn) == repr(raw)
    assert dataclasses.fields(fn) == dataclasses.fields(raw)
    assert [f.name for f in dataclasses.fields(fn)] == [
        "dom_lo", "dom_hi", "breakpoints", "slopes", "anchor_x", "anchor_val"]
    assert dataclasses.astuple(fn) == dataclasses.astuple(raw)


def _pl_calls(run):
    """Calls of pl() made while run() runs, however pl was reached."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is plconvex.pl.__code__:
            calls.append(1)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("theorem", ["involution", "recession-support"])
def test_sampled_checks_call_pl_only_to_load(theorem, capsys):
    """The --count 100 draws and every function derived from them (h*, h**,
    indicators, support and recession functions) are built without pl()."""
    path = str(bundled_instance_path("basic"))
    loads = _pl_calls(lambda: load_instance(path))
    forget_last_load()  # so that verify parses the file again
    calls = _pl_calls(lambda: cli.main(["verify", path, "--theorem", theorem]))
    assert '"pass": true' in capsys.readouterr().out
    assert (loads, calls) == (4, 4)


# -- the integer pieces the lattice oracle scores with --------------------------------

def piece_value(fn, x):
    """fn at x in its domain closure, read from ``int_pieces``: the piece of
    the segment after every breakpoint at or below x."""
    e, alphas, slopes = fn.int_pieces()
    j = bisect_right(fn.breakpoints, x)
    return F(alphas[j] * x.denominator + slopes[j] * x.numerator, e * x.denominator)


@st.composite
def piece_functions(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["rand_plconvex", "indicator", "affine", "singleton"]))
    if kind == "rand_plconvex":
        return rand_plconvex(rng, 4)
    if kind == "indicator":
        return indicator(rand_interval(rng))
    if kind == "affine":
        return affine(rand_rational(rng), rand_rational(rng))
    x = rand_rational(rng)
    return pl(x, x, (), (0,), x, rand_rational(rng))


@settings(max_examples=300, deadline=None)
@given(piece_functions(), st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=30),
                                   max_size=6))
def test_int_pieces_give_the_values_of_eval(fn, xs):
    """At every knot (finite domain ends included) and at random rationals in
    the domain, the pieces give eval's value as a Fraction; the memo holds
    only ints, and neither its build nor a lookup compares a Fraction with a
    float."""
    points = list(fn.knots()) + [x for x in xs if fn.domain.contains(x)]
    with mixed_comparisons() as mixed:
        e, alphas, slopes = fn.int_pieces()
        got = [piece_value(fn, x) for x in points]
    assert mixed == []
    assert all(type(k) is int for k in (e, *alphas, *slopes)) and e > 0
    assert len(alphas) == len(slopes) == len(fn.slopes)
    expected = [fn.eval(x) for x in points]
    assert got == expected
    assert all(type(v) is F for v in got + expected)


def test_int_pieces_read_a_hand_built_anchor_on_any_segment():
    # segment 0 is read at its right knot, which lies on it whatever the anchor
    f = pl(NEG_INF, INF, (F(3, 4), F(6, 5)), (-1, F(1, 3), 2), F(3, 4), F(-3, 4))
    # max(-x, x/3 - 1, 2x - 3)
    for ax in (F(-5), *f.breakpoints, F(7, 2)):
        raw = PLConvex(f.dom_lo, f.dom_hi, f.breakpoints, f.slopes, ax, f.eval(ax))
        assert [piece_value(raw, x) for x in (F(-5), *f.breakpoints, F(7, 2))] == \
            [f.eval(x) for x in (F(-5), *f.breakpoints, F(7, 2))]
