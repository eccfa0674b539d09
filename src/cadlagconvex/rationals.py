"""Exact rational scalars with +/-infinity endpoints.

Finite values are ``fractions.Fraction``; the only non-finite values are the
float sentinels ``INF`` and ``NEG_INF``.  Arithmetic never mixes a Fraction
with a float: the helpers below dispatch on the infinities, so a
computation either stays exact or is a genuine extended value.  They test
``is_finite`` (an ``isinstance`` check) before comparing with a sentinel:
``Fraction == float`` is over ten times slower and runs on every hot path.

:func:`rat` reads the canonical text :func:`fmt` writes with ``int`` and any
other string with ``Fraction(str)``, which fixes what is accepted and raised,
except that a decimal exponent beyond :data:`MAX_EXPONENT` is refused before
``Fraction(str)`` would build its power of ten, and so is a value that
:func:`fmt` could not write back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Q = Fraction
Ext = Union[Fraction, float]  # Fraction, INF or NEG_INF; no other floats

INF = float("inf")
NEG_INF = float("-inf")

# CPython's default cap on the digits of an int read from or written as text
# (sys.int_info.default_max_str_digits).  A larger exponent is refused: 10**exp
# would take time and memory growing with exp itself, from a few bytes of input.
# A numerator or denominator of more digits could not be written back as text.
MAX_EXPONENT = 4300
_TOO_LONG = 10 ** MAX_EXPONENT
# The exponent of a Fraction(str) literal: [eE], a sign, digits, then the end.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def rat(value) -> Fraction:
    """Parse a finite rational from int, Fraction or a string.

    ASCII ``[-]digits`` or ``[-]digits/digits``, as :func:`fmt` writes, is
    read with ``int``.  Any other string (spaces, ``_``, ``+``, decimals,
    exponents, non-ASCII digits) goes to ``Fraction(str)``, so the strings
    accepted, the values and the exceptions (``"1/0"``: ZeroDivisionError)
    are those of ``Fraction(str)``, with two exceptions, both ``ValueError``:
    an exponent whose absolute value exceeds :data:`MAX_EXPONENT` is refused
    at once, where ``Fraction(str)`` would compute ``10 ** exp`` first, and so
    is a value whose reduced numerator or denominator has more than
    :data:`MAX_EXPONENT` digits, which ``str`` could not write back.

    An exact ``Fraction`` is returned before any ``isinstance`` test: the
    grid, path, measure and tree constructors send values that are already
    ``Fraction`` through here on every build.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if value.isascii() and (num[1:] if num[:1] == "-" else num).isdigit() \
                and (not slash or den.isdigit()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        exp = _EXPONENT.search(value)
        if exp and abs(int(exp.group(1))) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond {MAX_EXPONENT} in {value!r}")
        q = Fraction(value)
        if abs(q.numerator) >= _TOO_LONG or q.denominator >= _TOO_LONG:
            raise ValueError(f"more than {MAX_EXPONENT} digits in {value!r}")
        return q
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a rational: {value!r}")


def ext(value) -> Ext:
    """Parse an extended rational; accepts 'inf' and '-inf' sentinels.

    Strings are told apart first and a ``Fraction`` is returned as it is, so
    neither meets a comparison with a float sentinel.
    """
    if isinstance(value, str):
        word = value.strip()
        if word == "inf" or word == "+inf":
            return INF
        if word == "-inf":
            return NEG_INF
        return rat(value)
    if isinstance(value, Fraction):
        return value
    if value == INF:
        return INF
    if value == NEG_INF:
        return NEG_INF
    return rat(value)


def is_finite(x: Ext) -> bool:
    # by type first: isinstance of a float would consult the numbers ABCs (3x slower)
    return type(x) is Fraction or (type(x) is not float and isinstance(x, Fraction))


def xle(a: Ext, b: Ext) -> bool:
    """a <= b on the extended line, comparing a Fraction only with a Fraction.

    One object is ``<=`` itself, so ``a is b`` answers before any type test:
    the loader's memo shares one ``Fraction`` per distinct string and
    ``refine`` copies references, so most calls compare a value with itself.
    The shortcut is exact because no NaN reaches here: ``RInterval`` and
    :func:`~cadlagconvex.plconvex.pl` refuse every float but the sentinels.
    Two exact ``Fraction``s are compared by cross-multiplying (denominators
    are positive): ``Fraction.__le__`` would first check ``other`` against
    the ``numbers.Rational`` ABC, five times the cost."""
    if a is b:
        return True
    if type(a) is Fraction and type(b) is Fraction:
        return a.numerator * b.denominator <= b.numerator * a.denominator
    if is_finite(a):
        return a <= b if is_finite(b) else b == INF
    return a == NEG_INF or (not is_finite(b) and b == INF)


def fmt(x: Ext) -> str:
    """Render an extended rational as 'p/q', 'inf' or '-inf'."""
    if is_finite(x):
        return str(x)
    if x == INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    return str(x)


def xneg(x: Ext) -> Ext:
    if is_finite(x):
        return -x
    if x == INF:
        return NEG_INF
    if x == NEG_INF:
        return INF
    return -x


def xmul(a: Ext, b: Ext) -> Ext:
    """Extended multiplication with the convention 0 * inf = 0."""
    if is_finite(a) and is_finite(b):
        return a * b
    if a == 0 or b == 0:
        return Fraction(0)
    neg = (a < 0) != (b < 0)
    return NEG_INF if neg else INF


def xsum(terms) -> Ext:
    """Sum of extended values where +inf dominates -inf.

    Used for infima/costs of the form "any infeasible slot forces +inf":
    a +inf term wins over -inf terms.
    """
    total = Fraction(0)
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
