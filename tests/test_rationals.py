"""The canonical-string fast path of ``rat``/``ext`` against ``Fraction(str)``.

``rat`` reads the form ``fmt`` writes with ``int`` and hands every other
string to ``Fraction(str)``; both must agree with ``Fraction(str)`` on the
value, its type and the type of the exception raised.
"""

import fractions
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rebuilt

from cadlagconvex.plconvex import RInterval
from cadlagconvex.rationals import (INF, MAX_EXPONENT, NEG_INF, ext, fmt, rat,
                                    xle)

NOISE = [" ", "\t", "\n", "_", "+", "-", ".", "e", "E", "/", "0", "٣", "²", "x"]
EDGES = ["", "/", "1/", "/2", "-", "-/2", "1/-2", "-1/-2", "--1", "1//2", "1/2/3",
         "1/0", "0/0", "-1/0", "-0", "0", "-0/5", "007", "-007/0040", "1_000",
         "+1/2", " 1/2", "1/2 ", "1 /2", "1.5", "1e3", "1/2e3", "٣", "²", "٣/٤",
         "1" * 4301, "-" + "9" * 5000, "1/" + "3" * 4400, "1" * 4300]
# Fraction("1e2345678") builds 10 ** 2345678; neither path is tested on that.
HUGE_EXPONENT = re.compile(r"[eE][-+]?[\d_]{4}")


def outcome(parse, text):
    """(type, value) of the result, or the type of the exception raised."""
    try:
        value = parse(text)
    except Exception as exc:  # the exception type is what is compared
        return type(exc)
    return type(value), value


def assert_same_as_fraction(text):
    want = outcome(F, text)
    assert outcome(rat, text) == want, text[:40]
    assert outcome(ext, text) == want, text[:40]


canonical = st.one_of(
    st.fractions().map(fmt),
    st.integers().map(str),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(), st.integers(0, 10 ** 30)))


@st.composite
def mutated(draw):
    """A canonical string with one character inserted or replaced."""
    text = draw(canonical)
    pos = draw(st.integers(0, len(text)))
    noise = draw(st.sampled_from(NOISE))
    cut = pos + draw(st.integers(0, 1))  # 1: replace the character at pos
    return text[:pos] + noise + text[cut:]


@settings(max_examples=300, deadline=None)
@given(canonical)
def test_canonical_strings_parse_like_fraction(text):
    assert_same_as_fraction(text)


@settings(max_examples=500, deadline=None)
@given(st.one_of(mutated(), st.text(alphabet="".join(NOISE) + "123456789", max_size=8)))
def test_other_strings_parse_like_fraction(text):
    assume(not HUGE_EXPONENT.search(text))
    assert_same_as_fraction(text)


@pytest.mark.parametrize("text", EDGES, ids=lambda t: repr(t[:12]))
def test_edge_strings_parse_like_fraction(text):
    assert_same_as_fraction(text)


def test_canonical_strings_skip_the_fraction_regex(monkeypatch):
    class NoRegex:
        def match(self, text):
            raise AssertionError(f"Fraction(str) regex used for {text!r}")

    monkeypatch.setattr(fractions, "_RATIONAL_FORMAT", NoRegex())
    assert [rat(t) for t in ("3", "-3", "6/4", "-1/3", "-0")] == \
        [F(3), F(-3), F(3, 2), F(-1, 3), F(0)]
    with pytest.raises(ZeroDivisionError):
        rat("1/0")
    with pytest.raises(AssertionError):
        rat("1.5")


# -- the exponent bound -------------------------------------------------------

# values of at most 4300 digits above and below the line
@pytest.mark.parametrize("text", ["1e4299", "1e-4299", "-2.5E+4299", " 7e0_4299 ",
                                  "1e٤٢٩٩", "0.5e4300", "3e-0"])
def test_exponents_up_to_the_bound_parse_like_fraction(text):
    assert_same_as_fraction(text)


# an exponent beyond the bound, or a value of 4301 digits that fmt could not
# write back (the second group)
@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "-2.5E+4301", " 7e0_4301 ",
                                  "1e٤٣٠١", "1e-1000000000", "0e99999999999",
                                  "1e" + "9" * 5000,
                                  "1e4300", "1e-4300", "-2.5E+4300", " 7e0_4300 ",
                                  "1e٤٣٠٠"])
def test_exponents_beyond_the_bound_are_refused_at_once(text):
    start = time.perf_counter()
    for parse in (rat, ext):
        with pytest.raises(ValueError):
            parse(text)
    assert time.perf_counter() - start < 1


def test_the_bound_is_the_default_int_digit_cap():
    assert MAX_EXPONENT == sys.int_info.default_max_str_digits == 4300
    with pytest.raises(ValueError, match="exponent beyond 4300 in '1e-4301'"):
        rat("1e-4301")
    with pytest.raises(ValueError, match="more than 4300 digits in '1e-4300'"):
        rat("1e-4300")
    assert fmt(rat("1e-4299")) == "1/1" + "0" * 4299


# -- ext: value, type and exception per input kind ---------------------------------

@pytest.mark.parametrize("value, want", [
    ("inf", (float, INF)),
    (" +inf ", (float, INF)),
    ("-inf", (float, NEG_INF)),
    ("\t-inf\n", (float, NEG_INF)),
    ("-7/2", (F, F(-7, 2))),
    (" 0.25 ", (F, F(1, 4))),
    ("1_000", (F, F(1000))),
    ("Infinity", ValueError),
    ("1/0", ZeroDivisionError),
    (F(-7, 2), (F, F(-7, 2))),
    (3, (F, F(3))),
    (True, (F, F(1))),
    (INF, (float, INF)),
    (NEG_INF, (float, NEG_INF)),
    (0.5, TypeError),
    (None, TypeError),
], ids=repr)
def test_ext_table(value, want):
    assert outcome(ext, value) == want


def test_ext_returns_a_fraction_without_comparing_it(monkeypatch):
    q = F(-7, 2)

    def no_compare(self, other):
        raise AssertionError("Fraction compared in ext")
    monkeypatch.setattr(F, "__eq__", no_compare)
    assert ext(q) is q


# -- xle and RInterval: the exact-Fraction shortcut against plain comparison --------

class Sub(F):
    """A Fraction subclass: never takes the exact-type shortcut."""


fractions_st = st.one_of(st.fractions(), st.sampled_from([F(0), F(-1), F(1, 3), F(-1, 3)]))
extended_st = st.one_of(fractions_st, st.sampled_from([INF, NEG_INF]),
                        fractions_st.map(Sub))


@settings(max_examples=500, deadline=None)
@given(extended_st, extended_st)
def test_xle_is_plain_comparison(a, b):
    """Fraction <= float inf is exact in Python, so the plain comparison is
    the reference on the whole extended line."""
    assert xle(a, b) is (a <= b)
    assert xle(a, a)
    assert xle(-a, -b) is (b <= a)


@settings(max_examples=300, deadline=None)
@given(extended_st, extended_st)
def test_xle_on_equal_copies_is_plain_comparison(a, b):
    """The identity shortcut answers only for one object; equal values that
    are two objects still take the comparison, and agree with plain <=."""
    a2, b2 = rebuilt(a), rebuilt(b)
    assert a2 is not a and a2 == a and type(a2) is type(a)
    for x, y in ((a, a2), (a2, a), (a, b2), (a2, b), (a2, b2)):
        assert xle(x, y) is (x <= y)
    assert xle(a, a2) and xle(a2, a)


def old_interval_ends(lo, hi):
    """Reference copy of RInterval's checks before exact Fraction ends skipped
    them, comparing with plain <=: the ends it keeps."""
    ends = []
    for v in (lo, hi):
        if isinstance(v, float):
            if v != INF and v != NEG_INF:
                raise ValueError("interval endpoints must be rational or infinite")
        elif not isinstance(v, F):
            v = rat(v)
        ends.append(v)
    lo, hi = ends
    if lo == INF and hi == NEG_INF:
        return lo, hi
    if not lo <= hi:
        raise ValueError(f"empty interval bounds [{lo}, {hi}]")
    if lo == INF or hi == NEG_INF:
        raise ValueError("interval endpoint has the wrong infinity")
    return lo, hi


def interval_outcome(build, lo, hi):
    """The ends kept with their types, or the exception type and message."""
    try:
        got = build(lo, hi)
    except Exception as exc:  # the exception type and message are compared
        return type(exc), str(exc)
    if isinstance(got, RInterval):
        got = got.lo, got.hi
    return tuple((type(v), v) for v in got)


interval_end_st = st.one_of(
    extended_st, st.integers(-3, 3),
    st.sampled_from([0.5, float("nan"), "1/2", "-3", "x", "1/0", None, True]))


@settings(max_examples=500, deadline=None)
@given(interval_end_st, interval_end_st)
def test_interval_raises_as_before(lo, hi):
    assert interval_outcome(RInterval, lo, hi) == interval_outcome(old_interval_ends, lo, hi)


# -- rat: an exact Fraction is returned itself ----------------------------------

def rat_before_the_type_shortcut(value):
    """Reference copy of rat's dispatch before an exact Fraction returned
    first, with Fraction(str) for a string (the tests above hold rat's string
    path to it): any Fraction as it is, an int or a bool as a Fraction, and
    TypeError for anything else."""
    if isinstance(value, str):
        return F(value)
    if isinstance(value, F):
        return value
    if isinstance(value, int):
        return F(value)
    raise TypeError(f"not a rational: {value!r}")


@settings(max_examples=300, deadline=None)
@given(st.one_of(fractions_st, fractions_st.map(Sub), st.booleans(), st.integers(),
                 canonical, mutated(),
                 st.sampled_from([0.5, INF, float("nan"), None, 1j, [1], (1, 2), b"1",
                                  Decimal("1.5")])))
def test_rat_returns_a_fraction_itself_and_all_else_as_before(value):
    assume(not (isinstance(value, str) and HUGE_EXPONENT.search(value)))
    assert outcome(rat, value) == outcome(rat_before_the_type_shortcut, value)
    if isinstance(value, F):
        assert rat(value) is value
