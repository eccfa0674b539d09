"""Proper closed convex piecewise-linear functions of one real variable.

A ``PLConvex`` value is stored in canonical form: an effective domain
``[dom_lo, dom_hi]`` (endpoints may be infinite), strictly increasing
breakpoints inside the open domain, strictly increasing slopes (one per
segment), and an anchor point with its finite function value.  Canonical form
makes structural equality a valid test of function equality, which the
conjugation involution relies on.

Everything here is exact: inputs are rationals, outputs are rationals or the
infinity sentinels.  Values are immutable and operations are pure (a memo
only caches equal results), so concurrent read-only use is safe.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .rationals import INF, NEG_INF, Ext, Q, ext, is_finite, rat, xle, xmul


def once(obj, key, build: Callable[[], object]):
    """``build()``, made once per frozen ``obj`` and hashable ``key``.

    The memo sits in ``vars(obj)`` outside the dataclass fields, so ``==``,
    ``hash`` and ``repr`` ignore it; a build that raises stores nothing.  It
    keeps keyed per-object memos: a refinement by its factor, a conjugate or
    report by its name.  A lazy attribute without arguments is a
    ``functools.cached_property``, which also writes to ``vars(obj)``."""
    memo = vars(obj).setdefault("_memo", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


# ---------------------------------------------------------------------------
# Closed real intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RInterval:
    """Nonempty closed interval of the reals, or the distinct empty sentinel."""

    lo: Ext
    hi: Ext

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is Fraction and type(hi) is Fraction:  # only the order to check
            if not xle(lo, hi):
                raise ValueError(f"empty interval bounds [{lo}, {hi}]")
            return
        for name in ("lo", "hi"):
            v = getattr(self, name)
            if isinstance(v, float):
                if v != INF and v != NEG_INF:
                    raise ValueError("interval endpoints must be rational or infinite")
            elif not isinstance(v, Fraction):
                object.__setattr__(self, name, rat(v))
        if self.is_empty:
            return  # canonical empty sentinel
        lo, hi = self.lo, self.hi
        if not xle(lo, hi):
            raise ValueError(f"empty interval bounds [{lo}, {hi}]")
        if xle(INF, lo) or xle(hi, NEG_INF):  # lo is +inf or hi is -inf
            raise ValueError("interval endpoint has the wrong infinity")

    @property
    def is_empty(self) -> bool:
        # a float end is a sentinel (construction refuses any other float), so
        # the type test stands in for is_finite without its call
        lo = self.lo
        return type(lo) is float and lo == INF and self.hi == NEG_INF

    # ends are compared with xle: no Fraction/float comparison
    def contains(self, x: Ext) -> bool:
        return (not self.is_empty) and xle(self.lo, x) and xle(x, self.hi)

    def intersect(self, other: "RInterval") -> "RInterval":
        """The intersection; an operand that is the intersection is returned itself."""
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        lo_self, hi_self = xle(other.lo, self.lo), xle(self.hi, other.hi)
        if lo_self and hi_self:
            return self
        lo_other, hi_other = xle(self.lo, other.lo), xle(other.hi, self.hi)
        if lo_other and hi_other:
            return other
        lo, hi = (self.lo if lo_self else other.lo), (self.hi if hi_self else other.hi)
        return RInterval(lo, hi) if xle(lo, hi) else EMPTY_INTERVAL

    def issubset(self, other: "RInterval") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return xle(other.lo, self.lo) and xle(self.hi, other.hi)

    def nearest_to(self, x: Q) -> Q:
        """Metric projection of a finite point onto the interval."""
        if self.is_empty:
            raise ValueError("projection onto the empty interval")
        if is_finite(self.lo) and x < self.lo:
            return self.lo
        if is_finite(self.hi) and x > self.hi:
            return self.hi
        return x

    def distance_to(self, x: Q) -> Q:
        return abs(x - self.nearest_to(x))

    def support(self, v: Q) -> Ext:
        """Support function value sup {v*x : x in interval}."""
        if self.is_empty:
            return NEG_INF
        if v > 0:
            return xmul(self.hi, v)
        if v < 0:
            return xmul(self.lo, v)
        return Fraction(0)

    @classmethod
    def whole_line(cls) -> "RInterval":
        return cls(NEG_INF, INF)

    @classmethod
    def singleton(cls, x: Q) -> "RInterval":
        x = rat(x)
        return cls(x, x)

    def __repr__(self):
        if self.is_empty:
            return "RInterval.EMPTY"
        return f"[{self.lo}, {self.hi}]"


EMPTY_INTERVAL = RInterval(INF, NEG_INF)


# ---------------------------------------------------------------------------
# Piecewise-linear convex functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PLConvex:
    """Proper closed convex piecewise-linear function on the reals.

    The function equals +inf outside ``[dom_lo, dom_hi]`` and is finite on it.
    ``slopes[j]`` is the slope on the j-th segment between consecutive knots
    ``dom_lo, breakpoints..., dom_hi``.  Improper (-inf valued) functions are
    not representable.  Use :func:`pl` or the factory helpers rather than
    the raw constructor; construction canonicalizes and validates.

    :func:`pl` records each value it returns as canonical, outside the
    fields.  The conjugate and recession function of a recorded value,
    :func:`indicator` and ``generators.rand_plconvex`` (which draws in
    integers) skip :func:`pl`: their data is canonical by construction, so
    :func:`pl` would return it as given.  A raw-constructed value is not
    recorded; its conjugate still goes through :func:`pl`.
    """

    dom_lo: Ext
    dom_hi: Ext
    breakpoints: Tuple[Q, ...]
    slopes: Tuple[Q, ...]
    anchor_x: Q
    anchor_val: Q

    # -- evaluation ---------------------------------------------------------

    def eval(self, x: Q) -> Ext:
        """Function value at a finite ``Fraction`` x; +inf outside the
        domain closure.  Any other x, an infinite one or an ``int``, is
        refused with ``ValueError``."""
        if not is_finite(x):
            raise ValueError(f"eval needs a finite Fraction, got {x!r}")
        if not (xle(self.dom_lo, x) and xle(x, self.dom_hi)):
            return INF
        return self._finite_value(x)

    __call__ = eval

    def _first_knot(self) -> Q:
        if is_finite(self.dom_lo):
            return self.dom_lo
        return self.breakpoints[0] if self.breakpoints else self.anchor_x

    def _finite_value(self, x: Q) -> Q:
        """Walk segments from the anchor; x must lie in the domain closure."""
        if x is self.anchor_x:  # where conjugate_at_slope mostly evaluates
            return self.anchor_val
        bps, slopes = self.breakpoints, self.slopes
        prev, val = self.anchor_x, self.anchor_val
        j = bisect_left(bps, prev)  # segment j ends at bps[j], the first >= anchor
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

    def int_pieces(self) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
        """``(e, alphas, slopes)``, all ``int``, e > 0: on segment j, from
        ``breakpoints[j - 1]`` to ``breakpoints[j]`` within the domain
        closure, the function is ``(alphas[j] + slopes[j] * x) / e``.  The
        affine pieces over one common denominator."""
        bps, slopes = self.breakpoints, self.slopes
        x = bps[0] if bps else self.anchor_x  # a point of segment 0
        alphas = [self._finite_value(x) - slopes[0] * x]
        for b, s, t in zip(bps, slopes, slopes[1:]):  # the pieces meet at each breakpoint
            alphas.append(alphas[-1] + (s - t) * b)
        e = math.lcm(*(q.denominator for q in (*alphas, *slopes)))
        return (e, tuple(a.numerator * (e // a.denominator) for a in alphas),
                tuple(s.numerator * (e // s.denominator) for s in slopes))

    # -- structure ----------------------------------------------------------

    @cached_property
    def domain(self) -> RInterval:
        """``[dom_lo, dom_hi]``, built once per object."""
        return RInterval(self.dom_lo, self.dom_hi)

    def knots(self) -> Tuple[Q, ...]:
        """Finite domain endpoints and breakpoints, increasing."""
        ks = []
        if is_finite(self.dom_lo):
            ks.append(self.dom_lo)
        ks.extend(self.breakpoints)
        if is_finite(self.dom_hi) and (not ks or self.dom_hi > ks[-1]):
            ks.append(self.dom_hi)
        return tuple(ks)

    # -- the convex calculus -------------------------------------------------

    def conjugate_at_slope(self, j: int) -> Q:
        """h*(slopes[j]) in closed form: slopes[j]*x - h(x) for x on segment j.

        The slope of segment j is a subgradient of h at every point x of the
        closed segment, so the sup in h*(v) = sup_x {v*x - h(x)} is attained
        there (Rockafellar, Convex Analysis, Section 24).  x is the segment's
        left knot, or its first knot when segment 0 is unbounded on the left;
        the value is exact and needs no search over the knots.
        """
        x = self.breakpoints[j - 1] if j else self._first_knot()
        s, v = self.slopes[j], self._finite_value(x)
        return Fraction(s.numerator * x.numerator * v.denominator  # s*x - v, normalised once
                        - v.numerator * s.denominator * x.denominator,
                        s.denominator * x.denominator * v.denominator)

    def conjugate(self) -> "PLConvex":
        """Fenchel conjugate h*(v) = sup_x {v*x - h(x)}, exact.

        Breakpoints and slopes exchange roles: the slopes of h become the
        kinks of h*, the finite knots of h become the slopes of h*, and a
        finite domain endpoint of h turns into an unbounded tail of h*.  The
        anchor of h* is its canonical one, the slope of segment 1 when h is
        unbounded on the left and has a kink, else that of segment 0; its
        value comes from :meth:`conjugate_at_slope`, so the build walks the
        segments of h a constant number of times instead of once per knot.
        A canonical h has increasing slopes and knots, so a recorded h builds
        its canonical h* without :func:`pl`.

        h* is built once per object; its own memo is never seeded with h,
        so ``h.conjugate().conjugate()`` is built afresh and compared.
        """
        return once(self, "conjugate", self._conjugate)

    def _conjugate(self) -> "PLConvex":
        build = _canonical if "_canonical" in vars(self) else pl
        lo_inf = not is_finite(self.dom_lo) and self.dom_lo == NEG_INF
        hi_inf = not is_finite(self.dom_hi) and self.dom_hi == INF
        if not (lo_inf or hi_inf) and self.dom_lo == self.dom_hi:
            # delta_{a} + c  ->  affine v*a - c
            a, c = self.dom_lo, self.anchor_val
            return build(NEG_INF, INF, (), (a,), Fraction(0), -c)
        if not self.breakpoints and lo_inf and hi_inf:
            # affine on the whole line -> point mass at the slope
            s = self.slopes[0]
            return build(s, s, (), (Fraction(0),), s, s * self.anchor_x - self.anchor_val)
        v_lo = self.slopes[0] if lo_inf else NEG_INF
        v_hi = self.slopes[-1] if hi_inf else INF
        bps = self.slopes[lo_inf:len(self.slopes) - hi_inf]
        j = 1 if bps and lo_inf else 0
        return build(v_lo, v_hi, bps, self.knots(), self.slopes[j],
                     self.conjugate_at_slope(j))

    def recession(self) -> "PLConvex":
        """Recession function: asymptotic slopes, +inf past a finite domain end."""
        build = _canonical if "_canonical" in vars(self) else pl
        zero = Fraction(0)
        lo_unbounded = not is_finite(self.dom_lo)
        hi_unbounded = not is_finite(self.dom_hi)
        if lo_unbounded and hi_unbounded:
            s0, s1 = self.slopes[0], self.slopes[-1]
            if s0 == s1:
                return build(NEG_INF, INF, (), (s0,), zero, zero)
            return build(NEG_INF, INF, (zero,), (s0, s1), zero, zero)
        if hi_unbounded:
            return build(zero, INF, (), (self.slopes[-1],), zero, zero)
        if lo_unbounded:
            return build(NEG_INF, zero, (), (self.slopes[0],), zero, zero)
        return build(zero, zero, (), (zero,), zero, zero)

    def subdiff(self, x: Q) -> RInterval:
        """Subdifferential at x: [left slope, right slope], empty outside dom."""
        x = rat(x)
        if not (xle(self.dom_lo, x) and xle(x, self.dom_hi)):
            return EMPTY_INTERVAL
        left: Ext = self.slopes[bisect_left(self.breakpoints, x)]
        right: Ext = self.slopes[bisect_right(self.breakpoints, x)]
        if is_finite(self.dom_lo) and x == self.dom_lo:
            left = NEG_INF
        if is_finite(self.dom_hi) and x == self.dom_hi:
            right = INF
        return RInterval(left, right)

    def inf_over(self, constraint: RInterval) -> Tuple[Ext, RInterval]:
        """Infimum of the function over a closed interval, with its argmin set.

        0 is a subgradient exactly on the minimisers over the line: the left
        knot of the first segment with slope >= 0, and the whole segment when
        that slope is 0 (past the last segment, the upper domain end).  Both
        ends of that interval clamped to the feasible interval (constraint
        meet domain) give the argmin set, since a convex function rises away
        from its minimisers.  Returns ``(+inf, EMPTY)`` when the constraint
        misses the domain and ``(-inf, EMPTY)`` when the clamped minimiser is
        an infinite end: the function is unbounded below there.
        """
        feasible = constraint.intersect(self.domain)
        if feasible.is_empty:
            return INF, EMPTY_INTERVAL
        a, b = feasible.lo, feasible.hi
        slopes, bps = self.slopes, self.breakpoints
        j = bisect_left(slopes, 0)
        lo = self.dom_lo if j == 0 else (bps[j - 1] if j <= len(bps) else self.dom_hi)
        hi = lo if j == len(slopes) or slopes[j] else (bps[j] if j < len(bps) else self.dom_hi)
        lo = a if xle(lo, a) else (b if xle(b, lo) else lo)
        hi = b if xle(b, hi) else (a if xle(hi, a) else hi)
        if not (is_finite(lo) or is_finite(hi)) and lo == hi:
            return NEG_INF, EMPTY_INTERVAL
        x = lo if is_finite(lo) else (hi if is_finite(hi) else Fraction(0))
        return self._finite_value(x), RInterval(lo, hi)

    @cached_property
    def min_on_line(self) -> Ext:
        """The infimum over the line, -inf included; built once per object."""
        return self.inf_over(RInterval.whole_line())[0]


# ---------------------------------------------------------------------------
# Construction and factories
# ---------------------------------------------------------------------------

def pl(dom_lo: Ext, dom_hi: Ext, breakpoints: Iterable, slopes: Iterable,
       anchor_x, anchor_val) -> PLConvex:
    """Build a canonical PLConvex value.

    Canonicalization drops breakpoints outside the open domain, merges equal
    adjacent slopes, moves the anchor to a deterministic point (first
    breakpoint, else a finite domain endpoint, else 0) and recomputes its
    value.  Raises ``ValueError`` on non-convex slope data, an anchor
    outside the domain, or a float domain end other than +/-inf (NaN
    included), with the message :class:`RInterval` gives for such an end.
    A ``Fraction`` argument is taken as it is; anything else goes through
    :func:`rat` or :func:`ext`.

    Input that is canonical already is returned as given once it has passed
    every check: each breakpoint lies strictly inside the open domain, no two
    adjacent slopes are equal, and ``anchor_x`` is the deterministic anchor.
    The full path would give the same value: dropping keeps every breakpoint,
    merging does nothing, and the anchor value is walked over zero distance.
    Files written by :mod:`serialize` take this path.

    Each returned value is recorded as canonical.  The builders named in
    :class:`PLConvex` skip this function: their data is canonical by
    construction, so the shortcut above would return it as given.
    """
    bps = tuple(b if type(b) is Fraction else rat(b) for b in breakpoints)
    sls = tuple(s if type(s) is Fraction else rat(s) for s in slopes)
    if type(anchor_x) is not Fraction:
        anchor_x = rat(anchor_x)
    if type(anchor_val) is not Fraction:
        anchor_val = rat(anchor_val)
    if not (is_finite(dom_lo) or type(dom_lo) is float):
        dom_lo = ext(dom_lo)
    if not (is_finite(dom_hi) or type(dom_hi) is float):
        dom_hi = ext(dom_hi)
    for end in (dom_lo, dom_hi):
        if type(end) is float and end != INF and end != NEG_INF:  # NaN too
            raise ValueError("interval endpoints must be rational or infinite")
    if ((not is_finite(dom_lo) and dom_lo == INF)
            or (not is_finite(dom_hi) and dom_hi == NEG_INF)
            or not xle(dom_lo, dom_hi)):
        raise ValueError("empty or inverted domain")
    if len(sls) != len(bps) + 1:
        raise ValueError("need exactly one slope per segment")
    if any(xle(bps[i + 1], bps[i]) for i in range(len(bps) - 1)):
        raise ValueError("breakpoints must be strictly increasing")
    increasing = not any(xle(sls[i + 1], sls[i]) for i in range(len(sls) - 1))
    if not increasing and not all(xle(sls[i], sls[i + 1]) for i in range(len(sls) - 1)):
        raise ValueError("slopes must be nondecreasing (convexity)")
    # an infinite end is below or above every rational: no Fraction/float
    # comparison is needed on that side
    lo_inf = not is_finite(dom_lo) and dom_lo == NEG_INF
    hi_inf = not is_finite(dom_hi) and dom_hi == INF
    if not ((lo_inf or dom_lo <= anchor_x) and (hi_inf or anchor_x <= dom_hi)):
        raise ValueError("anchor outside the domain")

    if is_finite(dom_lo) and is_finite(dom_hi) and dom_lo == dom_hi:
        return _canonical(dom_lo, dom_hi, (), (Fraction(0),), dom_lo, anchor_val)

    if increasing and anchor_x == _canonical_anchor(dom_lo, dom_hi, bps) and (
            not bps or ((lo_inf or dom_lo < bps[0]) and (hi_inf or bps[-1] < dom_hi))):
        return _canonical(dom_lo, dom_hi, bps, sls, anchor_x, anchor_val)

    # restrict to the breakpoints inside the open domain and the segments
    # between and around them; an infinite end cuts nothing
    i = 0 if lo_inf else bisect_right(bps, dom_lo)
    k = len(bps) if hi_inf else bisect_left(bps, dom_hi)
    bps2, sls2 = bps[i:k], sls[i:k + 1]

    # merge equal adjacent slopes
    m_bps, m_sls = [], [sls2[0]]
    for i, b in enumerate(bps2):
        s_next = sls2[i + 1]
        if s_next == m_sls[-1]:
            continue
        m_bps.append(b)
        m_sls.append(s_next)

    ax = _canonical_anchor(dom_lo, dom_hi, m_bps)
    aval = PLConvex(dom_lo, dom_hi, bps, sls, anchor_x, anchor_val)._finite_value(ax)
    return _canonical(dom_lo, dom_hi, tuple(m_bps), tuple(m_sls), ax, aval)


def _canonical(*fields) -> PLConvex:
    """``PLConvex(*fields)`` for canonical fields, recorded in ``vars`` like once's memo."""
    fn = PLConvex(*fields)
    vars(fn)["_canonical"] = True
    return fn


def _canonical_anchor(dom_lo: Ext, dom_hi: Ext, bps: Sequence[Q]) -> Q:
    """First breakpoint, else the finite lower end, else the finite upper end, else 0."""
    if bps:
        return bps[0]
    if is_finite(dom_lo):
        return dom_lo
    if is_finite(dom_hi):
        return dom_hi
    return Fraction(0)


def indicator(interval: RInterval) -> PLConvex:
    """delta_C: 0 on the interval, +inf outside.  Rejects the empty interval.

    ``RInterval`` has validated the ends, so the data is canonical."""
    if interval.is_empty:
        raise ValueError("indicator of the empty interval is improper")
    zero = Fraction(0)
    return _canonical(interval.lo, interval.hi, (), (zero,),
                      _canonical_anchor(interval.lo, interval.hi, ()), zero)


def support_fn(interval: RInterval) -> PLConvex:
    """sigma_C(v) = sup {v*x : x in C}, computed as ``indicator(C).conjugate()``."""
    if interval.is_empty:
        raise ValueError("support function of the empty interval is improper")
    return indicator(interval).conjugate()


def abs_fn() -> PLConvex:
    """|x|."""
    return pl(NEG_INF, INF, (Fraction(0),), (Fraction(-1), Fraction(1)),
              Fraction(0), Fraction(0))


def max_affine(pieces: Sequence[Tuple[Q, Q]],
               domain: Optional[RInterval] = None) -> PLConvex:
    """Upper envelope max_k (a_k x + b_k) of finitely many affine pieces."""
    if not pieces:
        raise ValueError("need at least one affine piece")
    items = sorted(((rat(a), rat(b)) for a, b in pieces))
    # drop pieces that never attain the envelope
    hull: list[Tuple[Q, Q]] = []
    for a, b in items:
        if hull and hull[-1][0] == a:
            if b <= hull[-1][1]:
                continue
            hull.pop()
        while len(hull) >= 2:
            (a1, b1), (a2, b2) = hull[-2], hull[-1]
            # piece 2 is dominated if it meets piece 1 right of where the new one does
            x12 = Fraction(b2 - b1, a1 - a2)
            x1n = Fraction(b - b1, a1 - a)
            if x12 >= x1n:
                hull.pop()
            else:
                break
        hull.append((a, b))
    bps = [Fraction(hull[i + 1][1] - hull[i][1], hull[i][0] - hull[i + 1][0])
           for i in range(len(hull) - 1)]
    slopes = [a for a, _ in hull]
    fn = pl(NEG_INF, INF, bps, slopes, Fraction(0), max(b for _, b in hull))
    if domain is not None:
        fn = restrict(fn, domain)
    return fn


def restrict(fn: PLConvex, interval: RInterval) -> PLConvex:
    """fn + delta_C for a closed interval C meeting the domain of fn."""
    dom = fn.domain.intersect(interval)
    if dom.is_empty:
        raise ValueError("restriction has empty domain (improper)")
    inside = dom.lo if is_finite(dom.lo) else (dom.hi if is_finite(dom.hi) else Fraction(0))
    val = fn.eval(inside)
    return pl(dom.lo, dom.hi, fn.breakpoints, fn.slopes, inside, val)
